"""Free-energy responses, parity influence, annulus bounds, estimators."""
import itertools
import math

import numpy as np
import pytest
import scipy.integrate

from hardcore2d import disorder, observables, validation
from hardcore2d.disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field, sample_fields
from hardcore2d.engine import log_partition, occupation_probability
from hardcore2d.lattice import EVEN_BC, ODD_BC, LatticeBox, box_lambda, centered_box, phi_j, reflect_theta
from hardcore2d.observables import (
    annulus_bound_check,
    annulus_log_sum,
    boundary_influence,
    derivative_identity_check,
    estimate_response_gap,
    expected_gap_bound,
    free_energy_response,
    influence_table,
    log_gain_mean,
    pathwise_gap_bound,
    response_gap,
)
from hardcore2d.oracle import oracle_log_partition

SEED = 20260815


def unit_field(region, scale):
    return ActivityField(region, np.ones((region.width, region.height)), scale)


def random_field(L, spec, scale, replica):
    return sample_field(spec, box_lambda(L).expand(1), scale, ReplicaSeed(SEED, replica))


def test_response_is_zero_when_field_is_one_inside():
    f = unit_field(box_lambda(2).expand(1), 2.0)
    r = free_energy_response(box_lambda(2), box_lambda(1), [f], "even")[0]
    assert r == 0.0


def test_response_two_point_identity():
    # switching a single site on and off compares two explicit partitions
    spec = DisorderSpec("uniform", (0.5, 2.0))
    f = random_field(2, spec, 3.0, 0)
    inner = centered_box(1, 1)
    r = free_energy_response(box_lambda(2), inner, [f], "odd")[0]
    x = f.value_at((0, 0))
    z_on = log_partition(box_lambda(2), f, "odd")
    z_off = log_partition(box_lambda(2), f.switched_off(inner), "odd")
    assert r == pytest.approx((z_on - z_off) / 3.0, abs=1e-14)
    assert x != 1.0


def test_gap_vanishes_for_constant_field():
    # reflection swaps the two frames and fixes a constant field
    for lam in (0.5, 4.0):
        f = unit_field(box_lambda(3).expand(1), lam)
        assert response_gap(3, 1, [f])[0] == pytest.approx(0.0, abs=1e-12)


def test_gap_is_zero_without_a_live_crossing():
    # the frame parity reaches the inner box only along live paths: kill the
    # ring around it and the gap vanishes whatever the other activities are
    L, j = 3, 1
    region = box_lambda(L).expand(1)
    vals = np.random.default_rng(SEED).uniform(0.5, 2.0, (region.width, region.height))
    alive = ActivityField(region, vals, 4.0)
    moat = vals.copy()
    for v in box_lambda(j + 1).sites():
        if not box_lambda(j).contains(v):
            moat[v[0] - region.x_min, v[1] - region.y_min] = 0.0
    cut = ActivityField(region, moat, 4.0)
    assert abs(response_gap(L, j, [cut])[0]) <= 1e-12
    assert abs(response_gap(L, j, [alive])[0]) > 1e-6


def test_gap_flips_sign_under_reflection():
    spec = DisorderSpec("bernoulli", (0.6,))
    f = random_field(2, spec, 2.0, 3)
    mirrored = f.compose(reflect_theta)
    a = response_gap(2, 1, [f])[0]
    b = response_gap(2, 1, [mirrored])[0]
    assert a == pytest.approx(-b, abs=1e-12)


def test_annulus_log_sum_counts_the_ring():
    f = unit_field(box_lambda(3), 1.0)
    ring = box_lambda(3).site_count - box_lambda(2).site_count
    assert annulus_log_sum([f], 2)[0] == pytest.approx(ring * math.log(2.0))
    assert pathwise_gap_bound([f], 2)[0] == pytest.approx(2.0 * ring * math.log(2.0))


def _scalar_annulus_log_sum(field, j):
    # the per-field loop annulus_log_sum replaced: log1p site by site, added in site order
    acts = field.scale * field.values_at(*box_lambda(j + 1).coords())
    ring = np.ones(acts.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    total = 0.0
    for a in acts[ring].tolist():
        total += math.log1p(a)
    return total


def test_annulus_log_sum_of_a_stack_equals_the_scalar_loop(monkeypatch):
    # regions smaller than, equal to and larger than the (j+1)-box, and one off centre,
    # interleaved in one stack; several families and scales
    regions = (box_lambda(1), LatticeBox(-1, 4, -3, 2), box_lambda(3), box_lambda(5))
    fields = [
        sample_field(DisorderSpec.parse(text), region, lam, ReplicaSeed(SEED, r))
        for r, (text, lam, region) in enumerate(itertools.product(
            ("uniform:0,2", "pareto:2.5,0.5", "lognormal:0,1", "bernoulli:0.7"), (0.3, 4.0, 1e5), regions
        ))
    ]
    lookups = _count_calls(monkeypatch, disorder, "region_values")
    for j in (1, 2, 3):
        want = [_scalar_annulus_log_sum(f, j) for f in fields]
        lookups.clear()
        assert annulus_log_sum(fields, j).tolist() == want
        assert len(lookups) == len(regions)  # one lookup per region, not per field
        assert [annulus_log_sum([f], j)[0] for f in fields] == want


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_response_gap_switches_each_field_off_once_and_solves_once_per_frame(monkeypatch):
    fields = [random_field(3, DisorderSpec("uniform", (0.0, 2.0)), 4.0, rep) for rep in range(5)]
    want = [response_gap(3, 1, [f])[0] for f in fields]
    offs = _count_calls(monkeypatch, ActivityField, "switched_off")
    solves = _count_calls(monkeypatch, observables, "log_partition")
    assert response_gap(3, 1, fields).tolist() == want
    assert (len(offs), len(solves)) == (5, 2)


def test_a_tuple_of_fields_gives_what_a_list_gives():
    fields = [random_field(3, DisorderSpec("uniform", (0.0, 2.0)), 4.0, rep) for rep in range(3)]
    box, inner = box_lambda(3), box_lambda(1)
    calls = [
        lambda fs: free_energy_response(box, inner, fs, "even"),
        lambda fs: response_gap(3, 1, fs),
        lambda fs: annulus_log_sum(fs, 1),
        lambda fs: pathwise_gap_bound(fs, 1),
        lambda fs: annulus_bound_check(3, 1, fs)[0],
        lambda fs: annulus_bound_check(3, 1, fs)[1],
        lambda fs: annulus_bound_check(3, 1, fs)[2],
        lambda fs: boundary_influence(box, fs, (0, 0)),
        lambda fs: influence_table(box, fs),
    ]
    for call in calls:
        assert call(tuple(fields)).tobytes() == call(fields).tobytes()


def test_annulus_bound_check_solves_once_per_frame(monkeypatch):
    fields = [random_field(3, DisorderSpec("bernoulli", (0.7,)), 1.0, rep) for rep in range(5)]
    offs = _count_calls(monkeypatch, ActivityField, "switched_off")
    pulls = _count_calls(monkeypatch, ActivityField, "compose")
    solves = _count_calls(monkeypatch, observables, "log_partition")
    annulus_bound_check(3, 1, fields)
    assert (len(offs), len(pulls)) == (5, 5)
    assert [len(stack) for _, stack, _ in solves] == [15, 15]


@pytest.mark.parametrize("law", ["bernoulli:0.7", "uniform:0,2", "pareto:2.5,0.5"])
@pytest.mark.parametrize("L, j", [(2, 1), (3, 1), (4, 2)])
def test_annulus_bound_check_gives_response_gap_bit_for_bit(law, L, j):
    spec = DisorderSpec.parse(law)
    fields = sample_fields(spec, box_lambda(L).expand(1), 4.0, SEED, 0, 12)
    assert annulus_bound_check(L, j, fields)[0].tobytes() == response_gap(L, j, fields).tobytes()
    if spec.family == "bernoulli":  # some frame site is dead
        frame = np.ones((2 * L + 2, 2 * L + 2), dtype=bool)
        frame[1:-1, 1:-1] = False
        assert any(not f.values[frame].all() for f in fields)


def test_pathwise_bound_dominates_gap():
    spec = DisorderSpec("uniform", (0.0, 2.0))
    for rep in range(25):
        f = random_field(3, spec, 4.0, rep)
        gap = response_gap(3, 1, [f])[0]
        assert abs(gap) <= pathwise_gap_bound([f], 1)[0] + 1e-9


def test_annulus_bound_check_both_orders():
    spec = DisorderSpec("bernoulli", (0.7,))
    box = box_lambda(3)
    fields = [random_field(3, spec, 1.0, 100 + rep) for rep in range(10)]
    for f in fields:
        gap, lhs, rhs = annulus_bound_check(3, 1, [f])
        gap, lhs, rhs = gap[0], lhs[:, 0], rhs[0]
        pulled = f.compose(lambda v: phi_j(v, 1))
        assert lhs.shape == (2,)
        assert lhs[0] == log_partition(box, f, "even") - log_partition(box, pulled, "odd")
        assert lhs[1] == log_partition(box, f, "odd") - log_partition(box, pulled, "even")
        assert rhs == annulus_log_sum([f], 1)[0]
        assert gap == response_gap(3, 1, [f])[0]
        assert np.all(lhs <= rhs + 1e-9)
    gap, lhs, rhs = annulus_bound_check(3, 1, fields)
    assert gap.shape == (10,) and lhs.shape == (2, 10) and rhs.shape == (10,)
    assert np.array_equal(lhs, np.array([annulus_bound_check(3, 1, [f])[1][:, 0] for f in fields]).T)


def test_influence_sign_at_small_grid():
    box = centered_box(4, 4)
    f = unit_field(box.expand(1), 5.0)
    table = influence_table(box, [f])[0]
    from hardcore2d.lattice import is_even

    for v in box.sites():
        gap = table[v[0] - box.x_min, v[1] - box.y_min]
        assert gap >= -1e-12 if is_even(v) else gap <= 1e-12


def test_boundary_influence_matches_table():
    box = centered_box(3, 3)
    f = unit_field(box.expand(1), 2.0)
    g = boundary_influence(box, [f], (0, 0))[0]
    assert g == influence_table(box, [f])[0, -box.x_min, -box.y_min]
    p_even, p_odd = (occupation_probability(box, f, (0, 0), bc) for bc in ("even", "odd"))
    assert g == p_even - p_odd
    assert p_even > p_odd
    spec = DisorderSpec("uniform", (0.0, 2.0))
    stack = [sample_field(spec, box.expand(1), 2.0, ReplicaSeed(SEED, r)) for r in range(20)]
    table = influence_table(box, stack)
    for x, y in ((0, 0), (box.x_min, box.y_max)):
        gaps = boundary_influence(box, stack, (x, y))
        assert gaps.tobytes() == table[:, x - box.x_min, y - box.y_min].tobytes()


def test_derivative_identity_on_random_instance():
    spec = DisorderSpec("uniform", (0.5, 1.5))
    f = random_field(2, spec, 1.0, 7)
    fd, marginal = derivative_identity_check(box_lambda(2), f, "even", (0, 1))
    assert marginal == occupation_probability(box_lambda(2), f, (0, 1), "even")
    assert fd == pytest.approx(marginal, abs=1e-6)


def test_log_gain_mean_closed_forms_match_quadrature():
    # small scales are where an elementary antiderivative cancels to nothing
    cases = [
        DisorderSpec("constant", (2.0,)),
        DisorderSpec("bernoulli", (0.4,)),
        DisorderSpec("uniform", (0.0, 2.0)),
    ]
    for lam, spec in itertools.product((1e-12, 1e-8, 1e-5, 1.0, 3.0, 100.0), cases):
        got = log_gain_mean(spec, lam)
        if spec.family == "constant":
            want = math.log1p(lam * spec.params[0])
        elif spec.family == "bernoulli":
            want = spec.params[0] * math.log1p(lam)
        else:
            a, b = spec.params
            want, _ = scipy.integrate.quad(lambda x: math.log1p(lam * x) / (b - a), a, b)
        assert got == pytest.approx(want, rel=1e-9)


def test_lognormal_and_gamma_gains_match_scipy_densities():
    import scipy.stats  # the reference densities; the package writes its own

    laws = [(DisorderSpec("lognormal", (0.3, s)), scipy.stats.lognorm(s=s, scale=math.exp(0.3)))
            for s in (0.5, 1.0, 3.0)]
    laws += [(DisorderSpec("gamma", (k, 1.5)), scipy.stats.gamma(a=k, scale=1.5)) for k in (0.05, 0.5, 2.0)]
    for lam, (spec, law) in itertools.product((1e-8, 1e-3, 1.0, 100.0), laws):
        want, _ = scipy.integrate.quad(lambda x: math.log1p(lam * x) * law.pdf(x), 0.0, np.inf,
                                       epsabs=0.0, epsrel=1e-10, limit=200)
        assert log_gain_mean(spec, lam) == pytest.approx(want, rel=1e-10), (spec, lam)


def test_a_gain_whose_quadrature_does_not_converge_is_refused():
    # the gain is 4.049e-4 here; quad detects roundoff and says so
    with pytest.raises(ValueError, match=r"lognormal:0,5 at lambda=1e-08: quadrature did not converge"):
        log_gain_mean(DisorderSpec("lognormal", (0.0, 5.0)), 1e-8)


@pytest.mark.parametrize("alpha", [0.02, 0.3, 0.5, 0.9, 1.0, 1.2, 2.0, 2.5, 10.0, 100.0])
def test_pareto_gain_reaches_both_limits(alpha):
    # E log(1 + cT) -> pi c^alpha / sin(pi alpha) (alpha < 1), c (1 + log(1/c)) (alpha = 1),
    # c alpha / (alpha - 1) (alpha > 1) as c -> 0, and log c + 1 / alpha as c -> inf;
    # x_min = 2 enters through c = lambda x_min
    small, large = 1e-300, 1e300
    if alpha < 1:
        want = math.pi * small**alpha / math.sin(math.pi * alpha)
    else:
        want = small * (1.0 - math.log(small)) if alpha == 1 else small * alpha / (alpha - 1)
    assert log_gain_mean(DisorderSpec("pareto", (alpha, 2.0)), small / 2) == pytest.approx(want, rel=1e-15)
    want = math.log(large) + 1.0 / alpha
    assert log_gain_mean(DisorderSpec("pareto", (alpha, 2.0)), large / 2) == pytest.approx(want, rel=1e-15)


def test_pareto_gain_matches_quadrature_wherever_it_converges():
    # split at 1/lambda, where the integrand changes regime, so that quad resolves it
    checked = 0
    for alpha, lam in itertools.product((0.02, 0.1, 0.5, 0.9, 1.0, 1.2, 2.0, 3.0, 5.5, 10.0),
                                        (1e-12, 1e-8, 1e-5, 1e-3, 0.1, 0.7, 1.0, 3.0, 100.0, 1e6)):
        f = lambda x: math.log1p(lam * x) * alpha * x ** (-alpha - 1.0)
        want, converged = 0.0, True
        for lo, hi in ((1.0, 1.0 + 1.0 / lam), (1.0 + 1.0 / lam, np.inf)):
            val, _, _, *msg = scipy.integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=500, full_output=1)
            want, converged = want + val, converged and not msg
        if converged:
            checked += 1
            assert log_gain_mean(DisorderSpec("pareto", (alpha, 1.0)), lam) == pytest.approx(want, rel=1e-10)
    assert checked > 50


def test_expected_gap_bound_scales():
    # (2 / lambda) * E[log(1 + lambda X)] per site of the 8j + 4 annulus sites, in that order of operations
    lam = 2.0
    spec = DisorderSpec("gamma", (2.0, 0.5))
    for j in (1, 2, 5):
        assert expected_gap_bound(j, lam, spec) == 2.0 / lam * log_gain_mean(spec, lam) * (8 * j + 4)
    assert expected_gap_bound(1, lam, DisorderSpec("constant", (0.0,))) == 0.0
    with pytest.raises(ValueError, match="activity scale"):
        expected_gap_bound(1, 1e-310, spec)


def sampled_gaps(L, j, spec, lam, seed, start, stop):
    # fully resampled fields (inner sites included), drawn as the sweeps draw them
    return response_gap(L, j, sample_fields(spec, box_lambda(L).expand(1), lam, seed, start, stop))


def test_sampled_gap_reproducible():
    spec = DisorderSpec("bernoulli", (0.5,))
    a = sampled_gaps(2, 1, spec, 4.0, SEED, 0, 7)
    b = sampled_gaps(2, 1, spec, 4.0, SEED, 0, 7)
    assert np.array_equal(a, b)
    assert a[5] != a[6]
    assert sampled_gaps(2, 1, spec, 4.0, SEED, 5, 7).tobytes() == a[5:].tobytes()
    alone = sample_field(spec, box_lambda(2).expand(1), 4.0, ReplicaSeed(SEED, 5))
    assert a[5] == response_gap(2, 1, [alone])[0]


def test_estimate_response_gap_statistics():
    spec = DisorderSpec("uniform", (0.0, 2.0))
    inside = sample_field(spec, box_lambda(1), 2.0, ReplicaSeed(SEED, 999))
    mean, err = estimate_response_gap(3, 1, inside, spec, replicas=50, seed=SEED)
    assert err > 0
    # the conditional mean is bounded by the per-site constant times the ring
    assert abs(mean) <= expected_gap_bound(1, 2.0, spec) + 4 * err


def test_estimate_requires_two_replicas():
    spec = DisorderSpec("bernoulli", (0.5,))
    inside = sample_field(spec, box_lambda(1), 1.0, ReplicaSeed(SEED, 0))
    with pytest.raises(ValueError):
        estimate_response_gap(2, 1, inside, spec, replicas=1, seed=SEED)


def test_sampled_gaps_under_constant_disorder_do_not_vary():
    gaps = sampled_gaps(2, 1, DisorderSpec("constant", (1.5,)), 2.0, SEED, 0, 30)
    assert gaps.var(ddof=1) == pytest.approx(0.0, abs=1e-24)


def test_sampled_gaps_match_oracle_at_criterion_07_smallest_size():
    # criterion 07's j = 1 battery: 16-site boxes, inside the oracle's cap
    spec, lam, L, j = DisorderSpec("bernoulli", (0.5,)), 4.0, 2, 1
    box = box_lambda(L)
    gaps = sampled_gaps(L, j, spec, lam, SEED + 8, 0, 50)
    for r in range(50):
        seed = ReplicaSeed(SEED + 8, r)
        field = sample_field(spec, box.expand(1), lam, seed)
        off = field.switched_off(box_lambda(j))
        want = (
            oracle_log_partition(box, field, EVEN_BC).log()
            - oracle_log_partition(box, off, EVEN_BC).log()
            - oracle_log_partition(box, field, ODD_BC).log()
            + oracle_log_partition(box, off, ODD_BC).log()
        ) / lam
        assert gaps[r] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("law", ["bernoulli:0.5", "uniform:0,2", "pareto:2.5,0.5"])
@pytest.mark.parametrize("L, j", [(2, 1), (3, 2)])
def test_a_wider_field_region_changes_no_bit(law, L, j):
    # the sweeps draw each replica once on their largest box's ring and solve every size from it
    spec = DisorderSpec.parse(law)
    near = sample_fields(spec, box_lambda(L).expand(1), 4.0, SEED, 0, 16)
    wide = sample_fields(spec, box_lambda(L + 2).expand(1), 4.0, SEED, 0, 16)
    assert response_gap(L, j, wide).tobytes() == response_gap(L, j, near).tobytes()
    box = box_lambda(L)
    assert boundary_influence(box, wide, (0, 0)).tobytes() == boundary_influence(box, near, (0, 0)).tobytes()
    if spec.family == "bernoulli":  # some frame site is dead, so the frames differ from the all-live ones
        frame = np.ones((2 * L + 2, 2 * L + 2), dtype=bool)
        frame[1:-1, 1:-1] = False
        assert any(not f.values[frame].all() for f in near)


def test_variance_band_fails_on_zero_gap():
    res = validation.check_variance_band(
        seed=SEED, js=(1, 2), spec=DisorderSpec("constant", (1.5,)), replicas=30
    )
    assert not res.passed


@pytest.mark.parametrize(
    "ratios, passed",
    [
        ((1e-2, 1e-3, 1e-4), True),
        ((1e-2, 1e-2, 1e-2), False),
        ((1e-2, 6e-3, 1e-3), False),
        ((1e-2, 1e-3, 6e-4), False),
        ((5e-5, 1e-6, 1e-8), False),
    ],
)
def test_variance_band_asks_decay_at_every_step(monkeypatch, ratios, passed):
    def fake_gaps(L, j, fields):
        d = j * math.sqrt(2 * ratios[j - 1])  # var(ddof=1) of (-d, d) is 2 d^2 = 4 j^2 * ratio
        return np.array([-d, d])

    monkeypatch.setattr(validation, "response_gap", fake_gaps)
    res = validation.check_variance_band(seed=SEED)
    assert res.passed == passed
    assert res.detail.startswith("var/site j=1:")
