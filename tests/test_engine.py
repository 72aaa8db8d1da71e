"""Transfer-matrix engine against the enumeration oracle and frozen values."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hardcore2d import engine
from hardcore2d.disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field, sample_fields
from hardcore2d.engine import (
    MAX_HEIGHT,
    log_partition,
    occupation_probabilities,
    occupation_probability,
    sample_exact,
)
from hardcore2d.errors import CapacityError
from hardcore2d.lattice import (
    EVEN_BC,
    FREE_BC,
    ODD_BC,
    BoundaryCondition,
    LatticeBox,
    box_lambda,
    centered_box,
    draw_sites,
    external_boundary,
    neighbours,
)
from hardcore2d.observables import free_energy_response
from hardcore2d.oracle import (
    enumerate_independent_sets,
    grid_independent_set_count,
    oracle_log_partition,
    oracle_occupations,
)

# independent sets of the free n x n grid, n = 1..10 (OEIS A006506)
A006506 = (2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955, 770548397261707,
           2030049051145980050)


def uniform_field(box, value=1.0, scale=1.0):
    return ActivityField(box, np.full((box.width, box.height), float(value)), scale)


def dyadic_field(box, rng, scale=1.0, zero_prob=0.15):
    vals = rng.integers(1, 33, size=(box.width, box.height)) / 16.0
    vals[rng.random(vals.shape) < zero_prob] = 0.0
    return ActivityField(box, vals, scale)


def test_single_site_partition():
    box = centered_box(1, 1)
    got = log_partition(box, uniform_field(box, value=2.0))
    assert got == pytest.approx(math.log(3.0), abs=1e-14)


def test_2x2_free_partition_is_log7():
    box = centered_box(2, 2)
    assert log_partition(box, uniform_field(box)) == pytest.approx(math.log(7.0), abs=1e-14)


def test_even_and_odd_frames_on_lambda1():
    box = box_lambda(1)
    f = uniform_field(box)
    assert log_partition(box, f, EVEN_BC) == pytest.approx(math.log(4.0), abs=1e-14)
    assert log_partition(box, f, ODD_BC) == pytest.approx(math.log(4.0), abs=1e-14)


def test_occupation_values():
    one = centered_box(1, 1)
    assert occupation_probability(one, uniform_field(one, value=3.0), (0, 0)) == pytest.approx(0.75)
    strip = centered_box(1, 2)
    probs = occupation_probabilities(strip, uniform_field(strip))
    for v in strip.sites():
        assert probs[v] == pytest.approx(1.0 / 3.0, abs=1e-14)
    lam1 = box_lambda(1)
    even = occupation_probabilities(lam1, uniform_field(lam1), EVEN_BC)
    assert even[(0, 0)] == pytest.approx(0.5, abs=1e-14)
    assert even[(1, 0)] == 0.0


def test_deleted_site_never_occupied():
    box = centered_box(2, 2)
    f = uniform_field(box, value=2.0).with_value((0, 0), 0.0)
    probs = occupation_probabilities(box, f)
    assert probs[(0, 0)] == 0.0
    want = oracle_occupations(box, f)
    for v in box.sites():
        assert probs[v] == pytest.approx(float(want[v]), abs=1e-12)


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(314)
    for _ in range(60):
        w, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        box = centered_box(w, h)
        f = dyadic_field(box, rng, scale=float(rng.choice((0.5, 1.0, 5.0))))
        bc = (FREE_BC, EVEN_BC, ODD_BC)[int(rng.integers(3))]
        got = log_partition(box, f, bc)
        want = oracle_log_partition(box, f, bc).log()
        assert got == pytest.approx(want, abs=1e-10)


def test_marginals_match_the_oracle_up_to_height_20():
    # row r's marginal is the tail sum at fold step r, so these boxes check every
    # step up to r = 19 (the seed leaves each row live somewhere in every box,
    # under at least one of its four frames)
    rng = np.random.default_rng(2273)
    for short, long in ((1, 20), (2, 10), (3, 6), (4, 5)):
        for w, h in ((short, long), (long, short)):
            box = LatticeBox(0, w - 1, 0, h - 1)
            f = dyadic_field(box.expand(1), rng, scale=float(rng.choice((0.5, 1.0, 5.0))))
            carried = np.zeros(h)
            for bc in random_frames(rng, box):
                got = occupation_probabilities(box, f, bc)
                want = oracle_occupations(box, f, bc)
                carried = np.maximum(carried, [max(got[(x, y)] for x in range(w)) for y in range(h)])
                for v in box.sites():
                    assert got[v] == pytest.approx(float(want[v]), abs=1e-12)
            assert carried.min() > 0.0  # every step carries mass


def test_field_region_may_exceed_box():
    region = box_lambda(2)
    box = box_lambda(1)
    rng = np.random.default_rng(9)
    f = dyadic_field(region, rng)
    assert log_partition(box, f) == pytest.approx(
        oracle_log_partition(box, f).log(), abs=1e-12
    )


def test_box_must_fit_field_region():
    f = uniform_field(box_lambda(1))
    with pytest.raises(ValueError):
        log_partition(box_lambda(2), f)


def test_tall_boxes_use_the_same_math():
    # a box and its transpose run the scan at different heights and must agree,
    # marginals too: at 36 and 133 sites the tall boxes lie past the oracle's 20
    rng = np.random.default_rng(77)
    for w, h in ((2, 18), (7, 19)):
        tall = LatticeBox(0, w - 1, 0, h - 1)
        wide = LatticeBox(0, h - 1, 0, w - 1)
        vals = rng.integers(1, 33, size=(w, h)) / 16.0
        f_tall = ActivityField(tall, vals, 1.0)
        f_wide = ActivityField(wide, np.ascontiguousarray(vals.T), 1.0)
        a = log_partition(tall, f_tall)
        b = log_partition(wide, f_wide)
        assert a == pytest.approx(b, abs=1e-10)
        p_tall = occupation_probabilities(tall, f_tall)
        p_wide = occupation_probabilities(wide, f_wide)
        for x, y in tall.sites():
            assert p_tall[(x, y)] == pytest.approx(p_wide[(y, x)], abs=1e-12)


def test_free_square_counts_past_the_oracle_cap():
    for n, count in enumerate(A006506, start=1):
        assert grid_independent_set_count(n, n) == count
        box = centered_box(n, n)
        assert log_partition(box, uniform_field(box)) == pytest.approx(
            math.log(count), rel=1e-13
        )


def test_hard_square_entropy_approaches_baxters_constant():
    # for free n x n boxes at unit activity, logZ(n+1, n+1) - logZ(n, n+1) - logZ(n+1, n) + logZ(n, n)
    # tends to log kappa, the hard-square entropy (Baxter, Ann. Comb. 3, 1999)
    log_kappa = math.log(1.5030480824753322)

    def log_z(w, h):
        box = centered_box(w, h)
        return log_partition(box, uniform_field(box))

    errors = [
        abs(log_z(n + 1, n + 1) - log_z(n, n + 1) - log_z(n + 1, n) + log_z(n, n) - log_kappa)
        for n in (8, 12, 16, 20, 23)
    ]
    assert errors[-1] < 1e-11
    assert all(a > b for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("h", [12, 16, 18, 22, 23])
def test_strip_free_energy_differences_give_kappa(h):
    # the second difference of log Z over widths 60, 61 and heights h, h + 1 cancels
    # the edge and corner terms and leaves log kappa, the entropy per site (Baxter,
    # Enting and Tsang, J. Stat. Phys. 22, 1980): an outside value for the
    # all-live per-height plans up to height 24, far past the oracle's cap
    def log_z(w, h):
        box = LatticeBox(0, w - 1, 0, h - 1)
        return log_partition(box, uniform_field(box))

    d = log_z(61, h + 1) - log_z(60, h + 1) - log_z(61, h) + log_z(60, h)
    assert math.exp(d) == pytest.approx(1.503048082475332, rel=1e-12)


@st.composite
def cut_boxes(draw):
    """A box of height 17..MAX_HEIGHT, a field on it and its frame with row or
    column ``cut`` of the box dead, and the parts of the box on either side."""
    w, h, rows = draw(st.integers(1, 6)), draw(st.integers(17, MAX_HEIGHT)), draw(st.booleans())
    cut = draw(st.integers(0, (h if rows else w) - 1))
    box = centered_box(w, h)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    region = box.expand(1)
    vals = rng.integers(1, 33, size=(region.width, region.height)) / 16.0
    vals[rng.random(vals.shape) < draw(st.sampled_from((0.0, 0.2)))] = 0.0
    if rows:
        vals[:, cut + 1] = 0.0
    else:
        vals[cut + 1] = 0.0
    first, last = (box.y_min, box.y_max) if rows else (box.x_min, box.x_max)
    spans = [(a, b) for a, b in ((first, first + cut - 1), (first + cut + 1, last)) if a <= b]
    parts = [LatticeBox(box.x_min, box.x_max, a, b) if rows else LatticeBox(a, b, box.y_min, box.y_max)
             for a, b in spans]
    return box, ActivityField(region, vals, float(rng.choice((0.5, 1.0, 3.0)))), parts


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cut_boxes())
def test_a_dead_row_or_column_factorizes_the_box(case):
    # the whole box scans its live rows; a part beside a dead row may be lower than
    # 17 and take the full plan, so the two paths check each other past the oracle
    box, field, parts = case
    for bc in (FREE_BC, EVEN_BC, ODD_BC):
        frames = [BoundaryCondition("custom", bc.frame_occupied(box) & external_boundary(part)) for part in parts]
        whole = occupation_probabilities(box, field, bc)
        assert log_partition(box, field, bc) == pytest.approx(
            sum(log_partition(part, field, frame) for part, frame in zip(parts, frames)), rel=1e-13)
        for part, frame in zip(parts, frames):
            for v, p in occupation_probabilities(part, field, frame).items():
                assert p == pytest.approx(whole[v], abs=1e-13)


def test_height_cap():
    box = LatticeBox(0, 0, 0, 24)  # height 25
    with pytest.raises(CapacityError):
        log_partition(box, uniform_field(box))


def test_empty_configuration_keeps_z_positive():
    # heavy dilution still admits the empty set, so log Z >= 0
    rng = np.random.default_rng(5)
    box = centered_box(4, 4)
    f = dyadic_field(box, rng, zero_prob=0.9)
    assert log_partition(box, f, EVEN_BC) >= 0.0


def test_free_energy_response_single_site():
    # mean inner weight under the switched-off measure: Z(6) / Z(3) = 7 / 4
    box = centered_box(1, 1)
    f = uniform_field(box, value=2.0, scale=3.0)  # activity 6, switched activity 3
    got = free_energy_response(box, box, [f], FREE_BC)[0]
    assert math.exp(f.scale * got) == pytest.approx(7.0 / 4.0, abs=1e-12)


def test_sample_exact_is_uniform_on_2x2_unit_case():
    box = centered_box(2, 2)
    f = uniform_field(box)
    states = enumerate_independent_sets(box)
    index = {s: i for i, s in enumerate(states)}
    rng = np.random.default_rng(123)
    counts = np.zeros(len(states))
    for columns in sample_exact(box, f, FREE_BC, rng, draws=7000):
        counts[index[frozenset(draw_sites(box, columns))]] += 1
    _, p = scipy.stats.chisquare(counts)
    assert p > 1e-3


def test_sample_exact_respects_frame_and_deletions():
    box = box_lambda(1)
    f = uniform_field(box, value=4.0).with_value((1, 1), 0.0)
    rng = np.random.default_rng(321)
    for columns in sample_exact(box, f, EVEN_BC, rng, draws=200):
        s = draw_sites(box, columns)
        assert (1, 0) not in s and (0, 1) not in s  # blocked by even frame
        assert (1, 1) not in s  # deleted


def test_sampling_is_reproducible():
    box = centered_box(3, 3)
    f = uniform_field(box, value=1.5)
    a = [sample_exact(box, f, FREE_BC, np.random.default_rng(42)) for _ in range(3)]
    b = [sample_exact(box, f, FREE_BC, np.random.default_rng(42)) for _ in range(3)]
    assert np.array_equal(a, b)


WIDE = np.finfo(np.longdouble).minexp < np.finfo(np.float64).minexp


def draws_reference(box, field, bc, gen, draws):
    """sample_exact with one CDF row per draw, built from that draw's previous column."""
    ((_, scan),) = engine._scans(box, [field], bc)
    masks = scan.masks
    betas = list(scan.backward())[::-1]
    u = gen.random((draws, box.width))
    picked = np.zeros((draws, box.width + 1), dtype=np.int64)
    for x, beta in enumerate(betas):
        weights = np.where(masks & picked[:, x, None], 0.0, scan.spread(x, scan.column(x)).T)
        weights /= weights.max(axis=1, keepdims=True)
        weights *= scan.spread(x, beta).T
        cdf = np.asarray(weights / weights.sum(axis=1, keepdims=True), dtype=np.float64).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        picked[:, x + 1] = masks[(cdf <= u[:, x, None]).sum(axis=1)]
    return picked[:, 1:]


def wide_columns(exponent):
    """A 3 x 20 box and a field whose activities reach 2^exponent and 2^-exponent."""
    box = centered_box(3, 20)
    exps = np.random.default_rng(8).choice([-exponent, 0, 0, 0, exponent], size=(5, 22))
    return box, ActivityField(box.expand(1), np.ldexp(1.0, exps) * (np.arange(5 * 22) % 7 > 0).reshape(5, 22), 1.0)


def test_column_weights_are_the_products_of_their_rows_activities():
    # a column's weights next to an empty column, which exact draws use: per mask the
    # product of its rows' activities in the scan's float type, from 1 and bottom to top;
    # single diluted fields, every row live below height 16 and live rows from there
    spec, cases = DisorderSpec("bernoulli", (0.7,)), [wide_columns(600)] if WIDE else []
    for k, (w, h) in enumerate(((4, 1), (4, 5), (4, 12), (3, 18), (3, 20))):
        box = centered_box(w, h)
        cases.append((box, sample_field(spec, box.expand(1), 5.0, ReplicaSeed(31, k))))
    zeros = dropped = 0
    for box, field in cases:
        ((_, scan),) = engine._scans(box, [field], EVEN_BC)
        blocked = {w for u in EVEN_BC.frame_occupied(box, field.is_live) for w in neighbours(u)}
        dropped += sum(p != (1 << box.height) - 1 for p in scan.live)
        for x in range(box.width):
            sites = [(box.x_min + x, y) for y in range(box.y_min, box.y_max + 1)]
            acts = [0.0 if v in blocked else field.scale * field.value_at(v) for v in sites]
            want = np.ones(len(scan.masks), scan.dtype)
            for r, a in enumerate(acts):
                want = np.where(scan.masks >> r & 1, want * scan.dtype(a), want)
            got = scan.spread(x, scan.column(x))[:, 0]
            assert got.dtype == want.dtype and np.array_equal(got, want), (box.height, x)
            dead = scan.masks & sum(1 << r for r, a in enumerate(acts) if a == 0.0) > 0
            assert not got[dead].any(), (box.height, x)
            zeros += dead.sum()
    assert zeros > 10000 and dropped >= 4  # dead rows left out of the tables at heights 18 and 20


def test_bisection_counts_the_entries_at_most_u_as_searchsorted():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 8, 55, 377):
        mass = rng.random((5, n)) * (rng.random((5, n)) < 0.6)  # zero-mass masks repeat a CDF value
        mass[:, rng.integers(0, n)] += 1.0
        cdf = mass.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        row = rng.integers(0, 5, 300)
        u = rng.random(300)
        u[:100] = cdf[row[:100], rng.integers(0, n, 100)]  # exactly at an entry
        u[100:120] = 0.0
        got = engine._bisect(cdf, row, u)
        assert got.tolist() == [np.searchsorted(cdf[r], x, side="right") for r, x in zip(row, u)]


def test_draws_sharing_a_previous_column_match_one_cdf_row_per_draw(monkeypatch):
    box = centered_box(12, 12)
    f = sample_field(DisorderSpec("bernoulli", (0.7,)), box.expand(1), 5.0, ReplicaSeed(11, 0))
    got = sample_exact(box, f, EVEN_BC, np.random.default_rng(3), draws=400)  # 377 masks: 173 CDF rows a chunk
    assert np.array_equal(got, draws_reference(box, f, EVEN_BC, np.random.default_rng(3), 400))
    assert len(set(got[:, 0].tolist())) < 100  # first columns repeat
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", 64)  # one CDF row a chunk, each for a slice of the draws
    assert np.array_equal(sample_exact(box, f, EVEN_BC, np.random.default_rng(3), draws=400), got)
    monkeypatch.undo()
    for exponent in (1, 600) if WIDE else (1,):
        box, f = wide_columns(exponent)  # 17711 masks: 3 CDF rows a chunk
        got = sample_exact(box, f, EVEN_BC, np.random.default_rng(5), draws=10)
        assert np.array_equal(got, draws_reference(box, f, EVEN_BC, np.random.default_rng(5), 10))


@pytest.mark.parametrize("exponent, dtype", [
    (1, np.float64),
    pytest.param(600, np.longdouble, marks=pytest.mark.skipif(
        not WIDE, reason="needs an 80- or 128-bit np.longdouble")),
])
def test_draws_do_not_depend_on_the_batch_size(exponent, dtype):
    # 20 rows have 17711 masks, so a chunk builds 3 CDF rows and the 10 draws need several
    box, f = wide_columns(exponent)
    ((_, scan),) = engine._scans(box, [f], EVEN_BC)
    assert scan.dtype == dtype
    gen = np.random.default_rng(5)
    one_at_a_time = [sample_exact(box, f, EVEN_BC, gen)[0] for _ in range(10)]
    assert np.array_equal(sample_exact(box, f, EVEN_BC, np.random.default_rng(5), draws=10), one_at_a_time)
    assert len(np.unique(one_at_a_time, axis=0)) > 1


def test_sample_exact_needs_a_draw():
    box = centered_box(2, 2)
    for draws in (0, -1):
        with pytest.raises(ValueError, match="draws"):
            sample_exact(box, uniform_field(box), FREE_BC, 0, draws=draws)


def test_box_activities_match_their_per_site_definition():
    # every live occupied frame site zeroes each box neighbour it has; frame
    # sites inside and outside the field region, dead ones, all four kinds
    rng = np.random.default_rng(12)
    for _ in range(40):
        region = LatticeBox(*sorted(rng.integers(-6, 6, size=2).tolist()),
                            *sorted(rng.integers(-6, 6, size=2).tolist()))
        field = dyadic_field(region, rng, scale=float(rng.uniform(0.5, 3.0)), zero_prob=0.3)
        xs = sorted(rng.integers(region.x_min, region.x_max + 1, size=2).tolist())
        ys = sorted(rng.integers(region.y_min, region.y_max + 1, size=2).tolist())
        box = LatticeBox(xs[0], xs[1], ys[0], ys[1])
        custom = {(box.x_max + 4, box.y_max + 4)}  # off the frame: never occupied
        for u in rng.permutation(sorted(external_boundary(box))).tolist():
            if rng.random() < 0.6 and not any(w in custom for w in neighbours(tuple(u))):
                custom.add(tuple(u))
        for bc in (EVEN_BC, ODD_BC, FREE_BC, BoundaryCondition("custom", frozenset(custom))):
            blocked = {w for u in bc.frame_occupied(box, field.is_live) for w in neighbours(u)}
            want = [[0.0 if (x, y) in blocked else field.scale * field.value_at((x, y))
                     for y in range(box.y_min, box.y_max + 1)] for x in range(box.x_min, box.x_max + 1)]
            assert engine.box_activities(box, [field], bc)[0].tolist() == want


def random_stack(rng, box, n):
    """n dyadic fields on the box and its frame, a quarter of the sites dead;
    on a wide np.longdouble every third field spans 2^-400 .. 2^400."""
    region = box.expand(1)
    fields = []
    for k in range(n):
        vals = rng.integers(1, 33, size=(region.width, region.height)) / 16.0
        if WIDE and k % 3 == 0:
            vals *= np.ldexp(1.0, rng.choice([-400, 0, 400], size=vals.shape))
        vals[rng.random(vals.shape) < 0.25] = 0.0
        fields.append(ActivityField(region, vals, float(rng.choice((0.5, 1.0, 5.0)))))
    return fields


def random_frames(rng, box):
    custom = set()
    for u in rng.permutation(sorted(external_boundary(box))).tolist():
        if rng.random() < 0.5 and not any(w in custom for w in neighbours(tuple(u))):
            custom.add(tuple(u))
    return EVEN_BC, ODD_BC, FREE_BC, BoundaryCondition("custom", frozenset(custom))


@pytest.mark.parametrize("per_chunk", [None, 1, 3])
def test_stacks_equal_single_fields_bit_for_bit(monkeypatch, per_chunk):
    # per_chunk instances a chunk, log Z and marginals alike, so chunks end mid-stack
    rng = np.random.default_rng(2024)
    for w, h in ((1, 1), (3, 4), (5, 6), (4, 9)):
        box = LatticeBox(-1, w - 2, 0, h - 1)
        if per_chunk:
            largest = engine._plan(h)[1]
            monkeypatch.setattr(engine, "_CHUNK_ENTRIES", per_chunk * largest)
        fields = random_stack(rng, box, 10)
        for bc in random_frames(rng, box):
            if WIDE and h > 1:
                assert {scan.dtype for _, scan in engine._scans(box, fields, bc)} == {np.float64, np.longdouble}
            logz = log_partition(box, fields, bc)
            probs = occupation_probabilities(box, fields, bc)
            assert logz.shape == (10,) and probs.shape == (10, w, h)
            for i, f in enumerate(fields):
                assert logz[i] == log_partition(box, f, bc)
                single = occupation_probabilities(box, f, bc)
                assert probs[i].ravel().tolist() == [single[v] for v in box.sites()]
            corner = occupation_probability(box, fields, (box.x_max, box.y_min), bc)
            assert np.array_equal(corner, probs[:, -1, 0])


@pytest.mark.parametrize("chunked", [None, "log Z", "marginals"])
def test_stacks_equal_single_fields_bit_for_bit_at_sweep_sizes(monkeypatch, chunked):
    # side 12 has 377 masks, past numpy's 128-entry pairwise block; the 3 x 18 box scans live
    # rows, with rows 4 and 11 dead in every instance and one more dead in each; at scale
    # 1/1024, log Z stays near 0, where the last bit of the sum over the last column's masks
    # shows.  chunked sets the budget to 3 instances' largest tables ("log Z") or to 2
    # ("marginals"), the cases' names kept from when marginals chunks also counted their stored
    # column vectors; log Z and marginals chunks are now sized alike, so in both cases chunks
    # end mid-stack in both float types, at other instances in each
    rng = np.random.default_rng(33)
    for w, h in ((12, 12), (3, 18)):
        box = centered_box(w, h)
        fields = random_stack(rng, box, 8)
        fields += [ActivityField(f.region, f.values, f.scale / 1024) for f in fields[:4]]
        if h == 18:
            dead = [np.isin(np.arange(h + 2), [5, 12, k + 1]) for k in range(len(fields))]  # region row: box row + 1
            fields = [ActivityField(f.region, np.where(d, 0.0, f.values), f.scale) for f, d in zip(fields, dead)]
        if chunked:
            per_chunk = 3 if chunked == "log Z" else 2
            monkeypatch.setattr(engine, "_CHUNK_ENTRIES", per_chunk * engine._plan(h)[1])
            assert max(len(idx) for idx, _ in engine._scans(box, fields, EVEN_BC)) == per_chunk
        for bc in (EVEN_BC, FREE_BC):
            scans = [scan for _, scan in engine._scans(box, fields, bc)]
            if WIDE:
                assert {scan.dtype for scan in scans} == {np.float64, np.longdouble}
            if h == 18:  # every scan drops row 4, and the single fields' scans drop rows the stack keeps
                stacked = {p for scan in scans for p in scan.live}
                alone = {p for f in fields for _, scan in engine._scans(box, [f], bc) for p in scan.live}
                assert not any(p >> 4 & 1 for p in stacked | alone) and alone - stacked
            logz = log_partition(box, fields, bc)
            probs = occupation_probabilities(box, fields, bc)
            for i, f in enumerate(fields):
                assert logz[i] == log_partition(box, f, bc), (w, h, i)
                single = occupation_probabilities(box, f, bc)
                assert probs[i].ravel().tolist() == [single[v] for v in box.sites()], (w, h, i)


def test_a_marginals_chunk_works_within_its_stated_memory():
    # 140 side-12 fields fill one chunk, which stores 12 column vectors per field beside its
    # tables; the engine docstring bounds its work by (1.2 W + 6) x 2^16 float64 entries beside
    # the call's activities and output, here taken as four n x W x H arrays
    box = centered_box(12, 12)
    fields = sample_fields(DisorderSpec.parse("bernoulli:0.7"), box.expand(1), 5.0, 35, 0, 140)
    assert [len(idx) for idx, _ in engine._scans(box, fields, EVEN_BC, kept=12)] == [140]
    tracemalloc.start()
    try:
        occupation_probabilities(box, fields, EVEN_BC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ((1.2 * 12 + 6) * 2**16 + 4 * 140 * 12 * 12) * 8


def test_a_marginals_call_holds_one_chunk_at_a_time():
    # 280 side-12 fields run as two chunks of 140; the first chunk's tables are released
    # before the second's are built, so the call peaks near one chunk's working set
    box = centered_box(12, 12)
    fields = sample_fields(DisorderSpec.parse("bernoulli:0.7"), box.expand(1), 5.0, 35, 0, 280)
    assert [len(idx) for idx, _ in engine._scans(box, fields, EVEN_BC, kept=12)] == [140, 140]
    peaks = []
    for n in (140, 280):
        tracemalloc.start()
        try:
            occupation_probabilities(box, fields[:n], EVEN_BC)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_one_instance_out_of_range_fails_the_stack():
    box = centered_box(2, 24)
    fine = uniform_field(box)
    for bad in (uniform_field(box, scale=1e300), uniform_field(box, value=1e10, scale=1e290)):
        with pytest.raises(CapacityError):
            log_partition(box, [fine, bad, fine])
        with pytest.raises(CapacityError):
            occupation_probabilities(box, [bad, fine])
    assert log_partition(box, []).shape == (0,)


DILUTIONS = {  # which sites of the box and its frame are dead, by coordinates relative to the frame's corner
    "dead columns": lambda x, y, w, h: x % 3 == 2,
    "dead bottom row": lambda x, y, w, h: y == 1,
    "dead top row": lambda x, y, w, h: y == h - 2,
    "alternating dead rows": lambda x, y, w, h: y % 2 == 0,
    "scattered": lambda x, y, w, h: (x * 7 + y * 13) % 10 < 3,
}


def diluted_pair(box, rng, dead, exponent):
    """A field on the box and its frame with the sites ``dead`` picks set to 0,
    and an all-live companion; on a wide np.longdouble both span 2^-exponent
    .. 2^exponent, so they share a float type."""
    region = box.expand(1)
    fields = []
    for kill in (dead, lambda *_: False):
        vals = rng.integers(1, 33, size=(region.width, region.height)) / 16.0
        vals *= np.ldexp(1.0, rng.choice([-exponent, 0, exponent], size=vals.shape))
        x, y = np.meshgrid(range(region.width), range(region.height), indexing="ij")
        vals[kill(x, y, region.width, region.height)] = 0.0
        fields.append(ActivityField(region, vals, 1.0))
    return fields


@pytest.mark.parametrize("exponent, dtype", [
    (0, np.float64),
    pytest.param(600, np.longdouble, marks=pytest.mark.skipif(
        not WIDE, reason="needs an 80- or 128-bit np.longdouble")),
])
def test_dead_rows_change_no_bit(monkeypatch, exponent, dtype):
    # beside an all-live companion of its float type the stack's scan keeps
    # every row; alone, the diluted field's scan drops its dead rows
    monkeypatch.setattr(engine, "_LIVE_ROWS_FROM", 0)  # on every height
    monkeypatch.setattr(engine, "_CHUNK_ENTRIES", 1 << 20)  # both instances in one chunk
    rng = np.random.default_rng(22)
    checked = []
    for w, h in ((5, 1), (1, 6), (6, 7), (3, 20), (2, 24)):
        box = centered_box(w, h)
        for name, dead in DILUTIONS.items():
            field, companion = diluted_pair(box, rng, dead, exponent)
            for bc in (FREE_BC, EVEN_BC):
                types = [[scan.dtype for _, scan in engine._scans(box, [f], bc)] for f in (field, companion)]
                if types[0] != types[1]:  # the companion would run in a scan of its own
                    continue
                checked += types[0]
                assert [scan.dtype for _, scan in engine._scans(box, [field, companion], bc)] == types[0]
                logz = log_partition(box, [field, companion], bc)
                assert logz[0] == log_partition(box, field, bc), (name, w, h, bc.kind)
                if w * h <= 50:
                    probs = occupation_probabilities(box, [field, companion], bc)[0]
                    single = occupation_probabilities(box, field, bc)
                    assert probs.ravel().tolist() == [single[v] for v in box.sites()], (name, w, h, bc.kind)
    assert checked.count(dtype) >= 20


def test_marginals_build_each_column_pairs_set_up_once(monkeypatch):
    # at height 20 every column has its own live rows, so the backward pass
    # revisits each of the forward pass's column pairs, none of them all-live;
    # the first column, next to the empty one, needs no pair set-up
    box = box_lambda(10)
    f = sample_field(DisorderSpec("bernoulli", (0.7,)), box.expand(1), 5.0, ReplicaSeed(11, 0))
    built, tables = [], engine._tables
    monkeypatch.setattr(engine, "_tables", lambda *args: built.append(args[3:]) or tables(*args))
    occupation_probabilities(box, f, EVEN_BC)
    assert len(built) == len(set(built)) == box.width - 1


def test_a_box_with_every_site_dead():
    for box in (centered_box(4, 17), centered_box(3, 3)):
        field = ActivityField(box.expand(1), np.zeros((box.width + 2, box.height + 2)), 1.0)
        for bc in (FREE_BC, EVEN_BC):
            logz = log_partition(box, field, bc)
            assert logz == 0.0 and type(logz) is float
            assert set(occupation_probabilities(box, field, bc).values()) == {0.0}
            assert sample_exact(box, field, bc, 1, draws=5).tolist() == [[0] * box.width] * 5


def test_diluted_exact_draws_match_the_reference(monkeypatch):
    # on live rows the backward pass hands compact vectors over each column's live rows;
    # spread by those rows, they draw what the all-row plan and the per-draw reference
    # draw: at 12 x 12 (live rows forced) and at live heights, also in long double
    spec, cases = DisorderSpec("bernoulli", (0.7,)), []
    for w, h, seed, draws in ((12, 12, ReplicaSeed(11, 0), 200), (3, 16, ReplicaSeed(13, 0), 50),
                              (3, 20, ReplicaSeed(13, 1), 50), (2, 24, ReplicaSeed(13, 2), 20)):
        box = centered_box(w, h)
        cases.append((box, sample_field(spec, box.expand(1), 5.0, seed), draws))
    dtypes = {np.float64, np.longdouble} if WIDE else {np.float64}
    if WIDE:
        cases.append((*wide_columns(600), 50))
    for box, f, draws in cases:
        monkeypatch.setattr(engine, "_LIVE_ROWS_FROM", MAX_HEIGHT + 1)
        every_row = sample_exact(box, f, EVEN_BC, np.random.default_rng(4), draws=draws)
        monkeypatch.setattr(engine, "_LIVE_ROWS_FROM", 0)
        ((_, scan),) = engine._scans(box, [f], EVEN_BC)
        assert any(p != scan.full for p in scan.live), box  # some column drops a dead row
        dtypes.discard(scan.dtype)
        live_rows = sample_exact(box, f, EVEN_BC, np.random.default_rng(4), draws=draws)
        assert np.array_equal(live_rows, every_row), box
        assert np.array_equal(every_row, draws_reference(box, f, EVEN_BC, np.random.default_rng(4), draws)), box
    assert not dtypes  # every float type ran


def test_log_partition_spreads_only_its_last_column(monkeypatch):
    # a column hands its vectors to the next over its own live rows' masks, so a side-20 log Z
    # places masks among all masks once, for its last column; the other walks weigh the first
    # column's masks and rank each later column's hand-over
    box = box_lambda(10)
    f = sample_field(DisorderSpec("bernoulli", (0.7,)), box.expand(1), 5.0, ReplicaSeed(11, 0))
    ((_, scan),) = engine._scans(box, [f], EVEN_BC)
    tops = engine._ranks(scan.full, box.height)[1]  # each mask's position among all masks: the sum of these
    walked, walk = [], engine._walk
    monkeypatch.setattr(engine, "_walk", lambda p, h, inc, *out_op: walked.append(
        (p, isinstance(inc, tuple) and inc == tops)) or walk(p, h, inc, *out_op))
    logz = log_partition(box, f, EVEN_BC)
    assert [p for p, positions in walked if positions] == [scan.live[-1]]
    assert len(walked) == box.width + 1 and scan.full not in scan.live
    monkeypatch.setattr(engine, "_LIVE_ROWS_FROM", MAX_HEIGHT + 1)
    assert logz == log_partition(box, f, EVEN_BC)
