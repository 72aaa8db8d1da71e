"""Enumeration oracle: frozen counts and exact weights.

These values come from independent derivations (hand counts and the
row-recursion second oracle), never from the engine under test.
"""
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from hardcore2d.disorder import ActivityField
from hardcore2d.lattice import (
    BoundaryCondition,
    EVEN_BC,
    FREE_BC,
    ODD_BC,
    box_lambda,
    centered_box,
)
from hardcore2d.errors import CapacityError
from hardcore2d.oracle import (
    ExactWeight,
    enumerate_independent_sets,
    grid_independent_set_count,
    oracle_log_partition,
    oracle_occupations,
)


def uniform_field(box, value=1.0, scale=1.0):
    return ActivityField(box, np.full((box.width, box.height), float(value)), scale)


# independent-set counts of small grids; the 2x2 and 2x3 values are hand
# counts, the rest follow the row recursion
KNOWN_COUNTS = {(1, 1): 2, (2, 2): 7, (2, 3): 17, (3, 3): 63, (4, 4): 1234}


def test_second_oracle_counts():
    for (w, h), n in KNOWN_COUNTS.items():
        assert grid_independent_set_count(w, h) == n
        assert grid_independent_set_count(h, w) == n


def test_enumeration_count_matches_second_oracle():
    for w, h in KNOWN_COUNTS:
        box = centered_box(w, h)
        sets = enumerate_independent_sets(box)
        assert len(sets) == KNOWN_COUNTS[(w, h)]


def test_enumerated_sets_are_independent_and_unique():
    box = centered_box(3, 3)
    sets = enumerate_independent_sets(box)
    assert len(set(map(frozenset, sets))) == len(sets)
    for s in sets:
        occ = set(s)
        for (x, y) in occ:
            assert not ({(x + 1, y), (x, y + 1)} & occ)


def test_enumeration_respects_frames_and_deletions():
    box = box_lambda(1)
    ev = enumerate_independent_sets(box, EVEN_BC)
    # even frame blocks both odd sites: only the two even sites remain free
    assert len(ev) == 4
    f = uniform_field(box).with_value((0, 0), 0.0)
    dead = enumerate_independent_sets(box, FREE_BC, f)
    assert all((0, 0) not in s for s in dead)


def test_partition_value_2x2_unit_activities():
    box = centered_box(2, 2)
    w = oracle_log_partition(box, uniform_field(box))
    assert w.value == Fraction(7)
    assert w.log() == pytest.approx(np.log(7.0), abs=1e-14)


def test_partition_value_2x2_activity_two():
    # 1 + 4*2 + 2*4 = 17 with every activity equal to 2
    box = centered_box(2, 2)
    w = oracle_log_partition(box, uniform_field(box, value=2.0))
    assert w.value == Fraction(17)


def test_partition_even_odd_lambda1():
    box = box_lambda(1)
    f = uniform_field(box)
    assert oracle_log_partition(box, f, EVEN_BC).value == Fraction(4)
    assert oracle_log_partition(box, f, ODD_BC).value == Fraction(4)


def test_log_keeps_a_tiny_excess_over_one():
    # Z = 1 + 2^-200: the log of the rational, not of its rounding to 1.0
    box = centered_box(1, 1)
    w = oracle_log_partition(box, uniform_field(box, value=2.0**-200))
    assert w.log() == math.log1p(2.0**-200)


def test_log_of_huge_terms_within_one_ulp():
    # numerator and denominator near 2^600, far past the double range
    z = Fraction(3 * 2**600 + 123456789, 2**600 - 987654321)
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        want = float(decimal.Decimal(z.numerator).ln() - decimal.Decimal(z.denominator).ln())
    assert abs(ExactWeight(z).log() - want) <= math.ulp(want)


def test_occupation_single_site():
    box = centered_box(1, 1)
    assert oracle_occupations(box, uniform_field(box))[(0, 0)] == Fraction(1, 2)


def test_occupation_2x2_corner():
    box = centered_box(2, 2)
    p = oracle_occupations(box, uniform_field(box))[(box.x_min, box.y_min)]
    assert p == Fraction(2, 7)


def test_occupations_sum_rule():
    # sum of marginals = expected occupied count; exact in rationals
    box = centered_box(2, 3)
    f = uniform_field(box, value=2.0, scale=0.5)
    probs = oracle_occupations(box, f)
    sets = enumerate_independent_sets(box)
    total = sum(len(s) for s in sets) * Fraction(1, len(sets))
    assert sum(probs.values()) == total  # all activities equal 1 here


def test_occupation_under_even_frame():
    box = box_lambda(1)
    f = uniform_field(box)
    probs = oracle_occupations(box, f, EVEN_BC)
    assert probs[(0, 0)] == Fraction(1, 2)
    assert probs[(1, 0)] == 0


def test_site_cap_enforced():
    box = centered_box(5, 5)
    with pytest.raises(CapacityError):
        enumerate_independent_sets(box)


def test_custom_bc_neighbours_blocked():
    box = centered_box(2, 2)
    bc = BoundaryCondition("custom", frozenset({(box.x_min - 1, box.y_min)}))
    sets = enumerate_independent_sets(box, bc)
    assert all((box.x_min, box.y_min) not in s for s in sets)
