"""Brute-force ground truth for small boxes.

Everything here trades speed for transparency: independent sets come from a
filter over all subsets, partition sums use exact arithmetic, and the set
counts are cross-checked against a row-by-row recursion that shares no code
with the transfer scan of the fast engine.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .disorder import ActivityField
from .errors import CapacityError
from .lattice import BoundaryCondition, FREE_BC, LatticeBox, Site, neighbours

MAX_SITES = 20
_DPS = 50


def _site_layout(
    box: LatticeBox, bc: BoundaryCondition, field: ActivityField | None
) -> tuple[list[Site], list[tuple[int, int]], int]:
    """Site list, in-box adjacency pairs, and the bitmask of unusable sites."""
    sites = list(box.sites())
    index = {v: i for i, v in enumerate(sites)}
    edges = [
        (i, index[w])
        for i, v in enumerate(sites)
        for w in neighbours(v)
        if w in index and index[w] > i
    ]
    forbidden = 0
    if field is not None:
        for i, v in enumerate(sites):
            if not field.is_live(v):
                forbidden |= 1 << i
    is_live = field.is_live if field is not None else None
    for u in bc.frame_occupied(box, is_live):
        for w in neighbours(u):
            if w in index:
                forbidden |= 1 << index[w]
    return sites, edges, forbidden


def enumerate_independent_sets(
    box: LatticeBox,
    bc: BoundaryCondition = FREE_BC,
    field: ActivityField | None = None,
) -> list[frozenset[Site]]:
    """All admissible occupation patterns: independent, live, frame-compatible."""
    n = box.site_count
    if n > MAX_SITES:
        raise CapacityError(f"subset enumeration is capped at {MAX_SITES} sites")
    sites, edges, forbidden = _site_layout(box, bc, field)
    subs = np.arange(1 << n, dtype=np.int64)
    ok = (subs & forbidden) == 0
    for i, j in edges:
        ok &= ((subs >> i) & (subs >> j) & 1) == 0
    out = []
    for s in subs[ok]:
        s = int(s)
        out.append(frozenset(sites[i] for i in range(n) if (s >> i) & 1))
    return out


@dataclass(frozen=True)
class ExactWeight:
    """A partition sum carried in exact or 50-digit arithmetic."""

    value: object  # Fraction or mpmath.mpf
    mode: str  # "rational" | "extended"

    def log(self) -> float:
        with mpmath.workdps(_DPS):
            if self.mode == "rational":
                num = mpmath.log(mpmath.mpf(self.value.numerator))
                den = mpmath.log(mpmath.mpf(self.value.denominator))
                return float(num - den)
            return float(mpmath.log(self.value))


def oracle_log_partition(
    box: LatticeBox,
    field: ActivityField,
    bc: BoundaryCondition = FREE_BC,
    mode: str = "rational",
) -> ExactWeight:
    """Exact partition sum by enumeration.

    Rational mode is always applicable here because binary floats are exact
    dyadic rationals; extended mode recomputes with 50-digit floats.
    """
    if mode not in ("rational", "extended"):
        raise ValueError("mode must be 'rational' or 'extended'")
    sets = enumerate_independent_sets(box, bc, field)
    if mode == "rational":
        lam = Fraction(field.scale)
        z = Fraction(0)
        for occ in sets:
            w = Fraction(1)
            for v in occ:
                w *= lam * Fraction(field.value_at(v))
            z += w
        return ExactWeight(z, "rational")
    with mpmath.workdps(_DPS):
        lam = mpmath.mpf(field.scale)
        z = mpmath.mpf(0)
        for occ in sets:
            w = mpmath.mpf(1)
            for v in occ:
                w *= lam * mpmath.mpf(field.value_at(v))
            z += w
        return ExactWeight(z, "extended")


def oracle_occupations(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition = FREE_BC
) -> dict[Site, Fraction]:
    """Exact occupation probability of every box site."""
    sets = enumerate_independent_sets(box, bc, field)
    lam = Fraction(field.scale)
    z = Fraction(0)
    mass: dict[Site, Fraction] = {v: Fraction(0) for v in box.sites()}
    for occ in sets:
        w = Fraction(1)
        for v in occ:
            w *= lam * Fraction(field.value_at(v))
        z += w
        for v in occ:
            mass[v] += w
    return {v: m / z for v, m in mass.items()}


def oracle_occupation(
    box: LatticeBox, field: ActivityField, v: Site, bc: BoundaryCondition = FREE_BC
) -> Fraction:
    if not box.contains(v):
        raise ValueError("site lies outside the box")
    return oracle_occupations(box, field, bc)[v]


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
