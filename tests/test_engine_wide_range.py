"""Engine against the enumeration oracle across the whole double range.

Activities are powers of two from 2^-600 to 2^600, so the oracle's rational
sums are exact, mixed with zeros; where np.longdouble is float64 the range
shrinks to 2^-80 .. 2^80, which float64 carries on its own.  Boxes go up to
4 x 5 in either orientation, under free, even, odd and random custom frames,
on a field that also covers the frame so that dead frame sites occur.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardcore2d.disorder import ActivityField
from hardcore2d.engine import log_partition, occupation_probabilities
from hardcore2d.lattice import (
    EVEN_BC,
    FREE_BC,
    ODD_BC,
    BoundaryCondition,
    LatticeBox,
    centered_box,
    external_boundary,
    neighbours,
)
from hardcore2d.oracle import oracle_log_partition, oracle_occupations

WIDE = np.finfo(np.longdouble).minexp < np.finfo(np.float64).minexp
EXP = 600 if WIDE else 80
ACTIVITY = st.one_of(st.just(0.0), st.integers(-EXP, EXP).map(lambda e: math.ldexp(1.0, e)))
SHAPES = sorted({s for w in range(1, 5) for h in range(1, 6) for s in ((w, h), (h, w))})


@st.composite
def instances(draw):
    w, h = draw(st.sampled_from(SHAPES))
    box = centered_box(w, h)
    region = box.expand(1)
    n = region.width * region.height
    vals = np.array(draw(st.lists(ACTIVITY, min_size=n, max_size=n)))
    field = ActivityField(region, vals.reshape(region.width, region.height), 1.0)
    kind = draw(st.sampled_from(("free", "even", "odd", "custom")))
    if kind != "custom":
        return box, field, {"free": FREE_BC, "even": EVEN_BC, "odd": ODD_BC}[kind]
    occupied: set = set()
    for u in draw(st.lists(st.sampled_from(sorted(external_boundary(box))), unique=True)):
        if not any(nb in occupied for nb in neighbours(u)):
            occupied.add(u)
    return box, field, BoundaryCondition("custom", frozenset(occupied))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances())
def test_engine_matches_oracle_across_the_double_range(instance):
    box, field, bc = instance
    want = oracle_log_partition(box, field, bc).log()
    assert log_partition(box, field, bc).log_z == pytest.approx(want, rel=1e-12, abs=1e-12)
    table = occupation_probabilities(box, field, bc)
    for v, p in oracle_occupations(box, field, bc).items():
        assert table[v] == pytest.approx(float(p), abs=1e-10)


@pytest.mark.skipif(not WIDE, reason="needs an 80- or 128-bit np.longdouble")
def test_colliding_heavy_columns():
    # rows 0, 2, 4 of both columns weigh 2^600 each: the prefix with column 0
    # empty is 2^-1800 of the heaviest one after column 0, yet carries half of Z
    box = LatticeBox(0, 1, 0, 4)
    vals = np.ones((2, 5))
    vals[:, [0, 2, 4]] = 2.0**600
    field = ActivityField(box, vals, 1.0)
    want = oracle_log_partition(box, field).log()
    assert log_partition(box, field).log_z == pytest.approx(want, rel=1e-14)
    table = occupation_probabilities(box, field)
    for v, p in oracle_occupations(box, field).items():
        assert table[v] == pytest.approx(float(p), abs=1e-12)
