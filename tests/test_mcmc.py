"""Heat-bath dynamics, monotone coupling, and perfect sampling."""
import numpy as np
import pytest
import scipy.stats

from hardcore2d import mcmc
from hardcore2d.disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field
from hardcore2d.engine import MAX_HEIGHT, log_partition, occupation_probabilities, sample_exact
from hardcore2d.errors import CapacityError, CoalescenceTimeout
from hardcore2d.lattice import EVEN_BC, FREE_BC, box_lambda, centered_box, is_even, neighbours
from hardcore2d.mcmc import GlauberChain, cftp_sample
from hardcore2d.oracle import enumerate_independent_sets
from hardcore2d.validation import check_monotone_order


def uniform_field(box, value=1.0, scale=1.0):
    return ActivityField(box, np.full((box.width, box.height), float(value)), scale)


def sandwiched(lower, upper):
    """lower's even sites inside upper's, upper's odd sites inside lower's."""
    return ({v for v in lower if is_even(v)} <= {v for v in upper if is_even(v)}
            and {v for v in upper if not is_even(v)} <= {v for v in lower if not is_even(v)})


def assert_admissible(occ, box, field, bc):
    frame = bc.frame_occupied(box, field.is_live)
    for v in occ:
        assert box.contains(v) and field.is_live(v)
        assert not any(w in occ or w in frame for w in neighbours(v))


def reference_sweep(grid, odds, uniforms):
    """The per-site lexicographic heat-bath sweep on a padded grid, in place."""
    k = 0
    for i in range(1, odds.shape[0] + 1):
        for j in range(1, odds.shape[1] + 1):
            if grid[i - 1, j] or grid[i + 1, j] or grid[i, j - 1] or grid[i, j + 1]:
                grid[i, j] = False
            else:
                grid[i, j] = uniforms[k] < odds[i - 1, j - 1]
            k += 1


def columns(grid):
    """A padded grid's box columns as integers, bit r for row r."""
    return [sum(int(b) << r for r, b in enumerate(col)) for col in grid[1:-1, 1:-1]]


def halves(chain, pair):
    """The occupied sets of a pair's lower and upper halves."""
    return chain.occupied(pair), chain.occupied([c >> chain.box.height + 1 for c in pair])


def test_column_kernel_matches_the_site_loop():
    rng = np.random.default_rng(2024)
    for case in range(48):
        w, h = int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 31, 32, 33, 63, 64]))
        box = centered_box(w, h)
        values = rng.choice([0.0, 0.5, 1.0, 4.0], size=(w, h))  # with dead sites
        chain = GlauberChain(box, ActivityField(box, values, 1.0), ("free", "even", "odd", "empty")[case % 4])
        # arbitrary starting states, mostly not admissible
        lower, upper = (np.pad(rng.random((w, h)) < 0.5, 1) for _ in range(2))
        pair = [lo | up << h + 1 for lo, up in zip(columns(lower), columns(upper))]
        single = [lo | lo << h + 1 for lo in columns(upper)]
        for _ in range(5):
            u = rng.random(box.site_count)
            rises = chain.rises(u)
            assert rises == chain.rises(u[None, :])  # one row per time
            pair, single = mcmc._sweep(pair, rises[0]), mcmc._sweep(single, rises[0])
            reference_sweep(lower, chain.odds, u)
            reference_sweep(upper, chain.odds, u)
            assert [c & (1 << h) - 1 for c in pair] == columns(lower)
            assert [c >> h + 1 for c in pair] == columns(upper)
            assert not any(c >> h & 1 for c in pair)  # the guard bit stays clear
            assert single == [c | c << h + 1 for c in columns(upper)]  # equal halves stay equal
            xs, ys = np.nonzero(lower)
            assert chain.occupied(pair) == set(zip(xs + box.x_min - 1, ys + box.y_min - 1))


def test_sweep_preserves_independence_and_constraints():
    box = box_lambda(2)
    f = uniform_field(box, value=3.0).with_value((0, 0), 0.0)
    chain = GlauberChain(box, f, EVEN_BC)
    pair = [0] * box.width  # a single chain: both halves empty
    rng = np.random.default_rng(1)
    for _ in range(50):
        pair = chain.sweep_pair(pair, rng)
        lower, upper = halves(chain, pair)
        assert lower == upper
        assert_admissible(lower, box, f, EVEN_BC)


def test_extremes_are_the_unblocked_live_sublattices():
    box = centered_box(5, 4)
    f = sample_field(DisorderSpec.bernoulli(0.7), box.expand(1), 2.0, ReplicaSeed(5, 0))
    frame = EVEN_BC.frame_occupied(box, f.is_live)
    free = {v for v in box.sites() if f.is_live(v) and not any(w in frame for w in neighbours(v))}
    chain = GlauberChain(box, f, EVEN_BC)
    lower, upper = halves(chain, chain.extremes())
    assert upper == {v for v in free if is_even(v)}
    assert lower == {v for v in free if not is_even(v)}


def test_extremes_are_ordered_and_stay_ordered():
    rng = np.random.default_rng(11)
    spec = DisorderSpec.bernoulli(0.7)
    for rep in range(5):
        box = centered_box(4, 3)
        f = sample_field(spec, box.expand(1), 6.0, ReplicaSeed(17, rep))
        chain = GlauberChain(box, f, "even")
        pair = chain.extremes()
        lower, upper = halves(chain, pair)
        assert sandwiched(lower, upper)
        assert chain.ordered(pair)
        # swapped, the extremes are ordered only when both are empty
        h = box.height
        swapped = [c >> h + 1 | (c & (1 << h) - 1) << h + 1 for c in pair]
        assert chain.ordered(swapped) == (lower == upper)
        for _ in range(60):
            pair = chain.sweep_pair(pair, rng)
            assert sandwiched(*halves(chain, pair))


def test_monotone_check_sees_the_pair_packing(monkeypatch):
    assert check_monotone_order(2000, 20260815 + 9).passed
    init = GlauberChain.__init__

    def guardless(self, *args):
        init(self, *args)
        self._shift = self.box.height  # upper at bit H: no guard bit between the halves

    monkeypatch.setattr(GlauberChain, "__init__", guardless)
    for seed in (20260815 + 9, 20260816 + 9):
        res = check_monotone_order(2000, seed)
        assert not res.passed and "lost its order" in res.detail


def test_long_run_occupation_matches_exact_marginals():
    box = centered_box(3, 2)
    f = uniform_field(box, value=1.0)
    chain = GlauberChain(box, f, "free")
    freqs = chain.run_occupation(sweeps=6000, burn_in=300, rng=np.random.default_rng(3))
    exact = occupation_probabilities(box, f)
    for v in box.sites():
        assert freqs[v] == pytest.approx(exact[v], abs=0.02)


def test_cftp_is_deterministic_in_the_seed():
    box = centered_box(3, 2)
    f = uniform_field(box, value=2.0)
    a = cftp_sample(box, f, "empty", ReplicaSeed(5, 0))
    b = cftp_sample(box, f, "empty", ReplicaSeed(5, 0))
    assert a.occupied == b.occupied
    assert a.epochs == b.epochs
    c = cftp_sample(box, f, "empty", ReplicaSeed(5, 1))
    # different replica reads a different driving sequence
    assert (c.occupied != a.occupied) or c.sweeps_used != a.sweeps_used


def test_cftp_agrees_with_exact_sampler():
    box = centered_box(2, 2)
    f = uniform_field(box)
    states = {s: i for i, s in enumerate(enumerate_independent_sets(box))}
    counts = np.zeros((2, len(states)), dtype=np.int64)
    draws = 3000
    for i in range(draws):
        counts[0, states[cftp_sample(box, f, "empty", ReplicaSeed(99, i)).occupied]] += 1
    for s in sample_exact(box, f, "empty", np.random.default_rng(99), draws):
        counts[1, states[s]] += 1
    _, p, _, _ = scipy.stats.chi2_contingency(counts)
    assert p > 1e-3


def test_cftp_respects_even_frame():
    box = box_lambda(1)
    f = uniform_field(box, value=5.0)
    for i in range(40):
        occ = cftp_sample(box, f, "even", ReplicaSeed(13, i)).occupied
        assert not ({(1, 0), (0, 1)} & occ)


def test_cftp_timeout_raises():
    box = centered_box(4, 4)
    f = uniform_field(box, value=30.0)
    # max_sweeps caps the horizon: epochs from 1 and 2 sweeps back, 3 pair sweeps
    msg = r"^4x4 box: no coalescence in 2 epochs, the last from 2 sweeps back, 3 pair sweeps in all"
    with pytest.raises(CoalescenceTimeout, match=msg):
        cftp_sample(box, f, "empty", ReplicaSeed(1, 0), max_sweeps=2)


def test_cftp_serves_boxes_taller_than_the_scan():
    box = centered_box(2, MAX_HEIGHT + 6)
    f = sample_field(DisorderSpec.bernoulli(0.7), box.expand(1), 1.0, ReplicaSeed(7, 0))
    with pytest.raises(CapacityError):
        log_partition(box, f, EVEN_BC)
    for bc in (FREE_BC, EVEN_BC):
        for i in range(3):
            res = cftp_sample(box, f, bc, ReplicaSeed(7, i))
            assert_admissible(res.occupied, box, f, bc)


def test_chain_refuses_a_field_that_misses_the_box():
    f = uniform_field(box_lambda(1))
    with pytest.raises(ValueError, match="inside the field region"):
        GlauberChain(box_lambda(2), f)
