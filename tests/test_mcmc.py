"""Heat-bath dynamics, monotone coupling, and perfect sampling."""
import numpy as np
import pytest
import scipy.stats

from hardcore2d.disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field
from hardcore2d.engine import occupation_probabilities, sample_exact
from hardcore2d.errors import CoalescenceTimeout
from hardcore2d.lattice import EVEN_BC, box_lambda, centered_box, is_even, neighbours
from hardcore2d.mcmc import (
    Configuration,
    GlauberChain,
    cftp_sample,
    sandwich_ordered,
)
from hardcore2d.oracle import enumerate_independent_sets


def uniform_field(box, value=1.0, scale=1.0):
    return ActivityField(box, np.full((box.width, box.height), float(value)), scale)


def test_sweep_preserves_independence_and_constraints():
    box = box_lambda(2)
    f = uniform_field(box, value=3.0).with_value((0, 0), 0.0)
    chain = GlauberChain(box, f, EVEN_BC)
    config = Configuration(box, frozenset())
    rng = np.random.default_rng(1)
    occupied_frame = EVEN_BC.frame_occupied(box, is_live=f.is_live)
    for _ in range(50):
        config = chain.sweep_config(config, rng)
        occ = config.occupied
        assert (0, 0) not in occ
        for (x, y) in occ:
            assert not ({(x + 1, y), (x, y + 1)} & occ)
            for w in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                assert w not in occupied_frame


def test_extremes_are_the_unblocked_live_sublattices():
    box = centered_box(5, 4)
    f = sample_field(DisorderSpec.bernoulli(0.7), box.expand(1), 2.0, ReplicaSeed(5, 0))
    frame = EVEN_BC.frame_occupied(box, f.is_live)
    free = {v for v in box.sites() if f.is_live(v) and not any(w in frame for w in neighbours(v))}
    pair = GlauberChain(box, f, EVEN_BC).extremes()
    assert pair.upper.occupied == {v for v in free if is_even(v)}
    assert pair.lower.occupied == {v for v in free if not is_even(v)}


def test_extremes_are_ordered_and_stay_ordered():
    rng = np.random.default_rng(11)
    spec = DisorderSpec.bernoulli(0.7)
    for rep in range(5):
        box = centered_box(4, 3)
        f = sample_field(spec, box.expand(1), 6.0, ReplicaSeed(17, rep))
        chain = GlauberChain(box, f, "even")
        pair = chain.extremes()
        assert sandwich_ordered(pair.lower, pair.upper)
        for _ in range(60):
            pair = chain.sweep_pair(pair, rng)
            assert sandwich_ordered(pair.lower, pair.upper)


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
    assert a.configuration.occupied == b.configuration.occupied
    assert a.epochs == b.epochs
    c = cftp_sample(box, f, "empty", ReplicaSeed(5, 1))
    # different replica reads a different driving sequence
    assert (c.configuration.occupied != a.configuration.occupied) or c.sweeps_used != a.sweeps_used


def test_cftp_agrees_with_exact_sampler():
    box = centered_box(2, 2)
    f = uniform_field(box)
    states = {s: i for i, s in enumerate(enumerate_independent_sets(box))}
    counts = np.zeros((2, len(states)), dtype=np.int64)
    draws = 3000
    for i in range(draws):
        counts[0, states[cftp_sample(box, f, "empty", ReplicaSeed(99, i)).configuration.occupied]] += 1
    rng = np.random.default_rng(99)
    for _ in range(draws):
        counts[1, states[sample_exact(box, f, "empty", rng)]] += 1
    _, p, _, _ = scipy.stats.chi2_contingency(counts)
    assert p > 1e-3


def test_cftp_respects_even_frame():
    box = box_lambda(1)
    f = uniform_field(box, value=5.0)
    for i in range(40):
        occ = cftp_sample(box, f, "even", ReplicaSeed(13, i)).configuration.occupied
        assert not ({(1, 0), (0, 1)} & occ)


def test_cftp_timeout_raises():
    box = centered_box(4, 4)
    f = uniform_field(box, value=30.0)
    with pytest.raises(CoalescenceTimeout):
        cftp_sample(box, f, "empty", ReplicaSeed(1, 0), max_sweeps=2)
