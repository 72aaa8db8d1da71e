"""Brute-force ground truth for small boxes.

Everything here trades speed for transparency: the independent sets of the
usable (live, not frame-blocked) sites are grown one site at a time as
bitmasks, so the cost follows their number; partition sums are exact Python
integers over a common power of two, one ``Fraction`` per result; and the set
counts are cross-checked against a row-by-row recursion that shares no code
with the transfer scan of the fast engine.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .disorder import ActivityField
from .errors import CapacityError
from .lattice import BoundaryCondition, FREE_BC, LatticeBox, Site, neighbours

MAX_SITES = 20


def _usable_sites(
    box: LatticeBox, bc: BoundaryCondition, field: ActivityField
) -> tuple[list[Site], list[tuple[int, int]]]:
    """The box sites neither dead nor frame-blocked, in box order, and the
    adjacency pairs among them."""
    blocked = {w for u in bc.frame_occupied(box, field.is_live) for w in neighbours(u)}
    sites = [v for v in box.sites() if v not in blocked and field.is_live(v)]
    index = {v: i for i, v in enumerate(sites)}
    edges = [(i, index[w]) for i, v in enumerate(sites) for w in neighbours(v) if index.get(w, -1) > i]
    return sites, edges


def _independent_sets(
    box: LatticeBox, bc: BoundaryCondition, field: ActivityField
) -> tuple[list[Site], np.ndarray, np.ndarray, int]:
    """The usable sites, their independent sets as ascending int64 masks, and
    each set's weight as a Python int over one common denominator 2^e.

    Site k joins each set holding none of its lower-indexed neighbours, after
    the sets without it.  Each usable activity is an integer a_v over a common
    2^K (floats are dyadic), and a set's weight is the product of a_v over its
    sites and of 2^K over the other usable sites, so e = K * usable."""
    if box.site_count > MAX_SITES:
        raise CapacityError(f"subset enumeration is capped at {MAX_SITES} sites")
    sites, edges = _usable_sites(box, bc, field)
    p, q = field.scale.as_integer_ratio()
    ratios = [(p * m, q * d) for m, d in (field.value_at(v).as_integer_ratio() for v in sites)]
    K = max((d.bit_length() - 1 for _, d in ratios), default=0)
    lower = [sum(1 << i for i, j in edges if j == k) for k in range(len(sites))]  # i < j
    subs = np.zeros(1, dtype=np.int64)
    weights = np.ones(1, dtype=object)
    for k, (low, (m, d)) in enumerate(zip(lower, ratios)):
        sel = (subs & low) == 0
        subs = np.concatenate((subs, subs[sel] | 1 << k))
        weights = np.concatenate((weights << K, weights[sel] * (m << K - d.bit_length() + 1)))
    return sites, subs, weights, K * len(sites)


def enumerate_independent_sets(
    box: LatticeBox,
    bc: BoundaryCondition = FREE_BC,
    field: ActivityField | None = None,
) -> list[frozenset[Site]]:
    """All admissible occupation patterns: independent, live, frame-compatible.

    The sets grow one usable site at a time, so the cost follows their number;
    the patterns come in ascending order of their bitmask over the box sites."""
    field = ActivityField(box, np.ones((box.width, box.height))) if field is None else field
    sites, subs, _, _ = _independent_sets(box, bc, field)
    return [frozenset(v for i, v in enumerate(sites) if s >> i & 1) for s in subs.tolist()]


@dataclass(frozen=True)
class ExactWeight:
    """A partition sum carried as an exact rational."""

    value: Fraction

    def log(self) -> float:
        """log Z from the exact rational: Z = 2^k * (1 + f) with 0 <= f < 1,
        so log Z = log1p(f) + k log 2, with f rounded to a double once."""
        z = self.value
        k = z.numerator.bit_length() - z.denominator.bit_length()
        if z < Fraction(2) ** k:
            k -= 1
        return math.log1p(float(z / Fraction(2) ** k - 1)) + k * math.log(2)


def oracle_log_partition(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition = FREE_BC
) -> ExactWeight:
    """Exact partition sum by enumeration, in rationals."""
    _, _, weights, e = _independent_sets(box, bc, field)
    return ExactWeight(Fraction(int(weights.sum()), 1 << e))


def oracle_occupations(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition = FREE_BC
) -> dict[Site, Fraction]:
    """Exact occupation probability of every box site."""
    sites, subs, weights, _ = _independent_sets(box, bc, field)
    z = int(weights.sum())
    mass = {v: int(weights[(subs >> i & 1) == 1].sum()) for i, v in enumerate(sites)}
    return {v: Fraction(mass.get(v, 0), z) for v in box.sites()}


def grid_independent_set_count(width: int, height: int) -> int:
    """Independent-set count of the free grid, by a row recursion.

    Second ground-truth route: rows are tuples of 0/1 without horizontal
    neighbours, stacked subject to vertical disjointness.
    """
    if width < 1 or height < 1:
        raise ValueError("grid sides must be >= 1")
    rows = [
        r
        for r in itertools.product((0, 1), repeat=width)
        if all(not (a and b) for a, b in zip(r, r[1:]))
    ]
    counts = {r: 1 for r in rows}
    for _ in range(height - 1):
        counts = {
            r: sum(c for q, c in counts.items() if all(not (a and b) for a, b in zip(q, r)))
            for r in rows
        }
    return sum(counts.values())
