"""Transfer-matrix engine against the enumeration oracle and frozen values."""
import math

import numpy as np
import pytest
import scipy.stats

from hardcore2d.disorder import ActivityField
from hardcore2d.engine import (
    log_partition,
    occupation_probabilities,
    occupation_probability,
    sample_exact,
)
from hardcore2d.errors import CapacityError
from hardcore2d.lattice import EVEN_BC, FREE_BC, ODD_BC, LatticeBox, box_lambda, centered_box
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
    # a box and its transpose run the scan at different heights and must agree
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


def test_free_square_counts_past_the_oracle_cap():
    for n, count in enumerate(A006506, start=1):
        assert grid_independent_set_count(n, n) == count
        box = centered_box(n, n)
        assert log_partition(box, uniform_field(box)) == pytest.approx(
            math.log(count), rel=1e-13
        )


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
    got = free_energy_response(box, box, f, FREE_BC)
    assert math.exp(f.scale * got.value) == pytest.approx(7.0 / 4.0, abs=1e-12)


def test_sample_exact_is_uniform_on_2x2_unit_case():
    box = centered_box(2, 2)
    f = uniform_field(box)
    states = enumerate_independent_sets(box)
    index = {s: i for i, s in enumerate(states)}
    rng = np.random.default_rng(123)
    counts = np.zeros(len(states))
    n = 7000
    for _ in range(n):
        counts[index[sample_exact(box, f, FREE_BC, rng)]] += 1
    _, p = scipy.stats.chisquare(counts)
    assert p > 1e-3


def test_sample_exact_respects_frame_and_deletions():
    box = box_lambda(1)
    f = uniform_field(box, value=4.0).with_value((1, 1), 0.0)
    rng = np.random.default_rng(321)
    for _ in range(200):
        s = sample_exact(box, f, EVEN_BC, rng)
        assert (1, 0) not in s and (0, 1) not in s  # blocked by even frame
        assert (1, 1) not in s  # deleted


def test_sampling_is_reproducible():
    box = centered_box(3, 3)
    f = uniform_field(box, value=1.5)
    a = [sample_exact(box, f, FREE_BC, np.random.default_rng(42)) for _ in range(3)]
    b = [sample_exact(box, f, FREE_BC, np.random.default_rng(42)) for _ in range(3)]
    assert a == b
