"""Exact computation on finite boxes by a site-by-site transfer scan.

Independent sets of a W x H box are built one site at a time, column by column
and bottom to top (Calkin-Wilf, SIAM J. Discrete Math. 11, 1998).  After site
(x, r) the state is a table T[lo, hi] over the masks without adjacent bits of
rows 0..r of column x (lo) and rows r+1..H-1 of column x-1 (hi), with
F(r+3) * F(H-r+1) entries (F = Fibonacci) against F(H+2)^2 for a column
transfer matrix.  Both index sets follow the Fibonacci order that splits on
the bit added or consumed next, so a site step needs no gathers: T[:, :f1]
(consumed bit clear) plus T[:, f1:] folded into its first w1 columns, then the
rows T[:keep] times the activity for the new bit.  At full height lo is
ascending mask order; a cached permutation per height hands a column to the
next.  Marginals meet forward and transposed-step vectors at column edges.

Each column ends divided by its maximum.  Within a column the maximum never
decreases and grows by at most 2(1 + a) per site, and the float-type rule
below keeps H + sum log2(1 + a) of every column inside the exponent range, so
no column overflows between rescales.  Rescaling flushes entries 2^1022 below
the maximum, which matter only if the sites next to the frontier (in two
adjacent columns) lift their completion past that factor.  So the scan runs
in float64 while sum log2(1 + a) over two adjacent columns stays
_SAFETY_BITS inside its exponent range, else in long double (wider only where
np.longdouble has 80 or 128 bits), else it raises CapacityError, as for a
zero or non-finite maximum.  Zero activities and frame-blocked sites forbid
bits; the empty pattern keeps log Z >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .disorder import ActivityField
from .errors import CapacityError
from .lattice import BoundaryCondition, FREE_BC, LatticeBox, Site, as_boundary_condition

MAX_HEIGHT = 24
_SAFETY_BITS = 96  # keeps the flushed mass below 2^-60 of Z; exceeds MAX_HEIGHT
_FLOATS = tuple((t, -np.finfo(t).minexp) for t in (np.float64, np.longdouble))


@dataclass(frozen=True, eq=False)
class _Plan:
    """Slice sizes and orders of the scan for one column height."""

    steps: tuple[tuple[int, slice, int, int], ...]  # per row: top, rows T[:keep], f1, w1
    shapes: tuple[tuple[int, int], ...]  # table shape before each row, then after
    perm: np.ndarray  # hi position at a column start -> ascending mask position
    masks: np.ndarray  # valid column masks, ascending
    bits: np.ndarray  # bits[r, i] = bit r of masks[i], as float


@lru_cache(maxsize=None)
def _plan(height: int) -> _Plan:
    n = [1, 1]  # n[k + 1] = number of masks on k rows, for k >= -1
    lo = hi = np.zeros(1, dtype=np.int64)
    for k in range(height):
        n.append(n[-1] + n[-2])
        lo = np.concatenate([lo, lo[: n[k]] | (1 << k)])
        hi = np.concatenate([hi, hi[: n[k]] | (1 << (height - 1 - k))])
    perm = np.searchsorted(lo, hi)
    bits = ((lo[None, :] >> np.arange(height)[:, None]) & 1).astype(np.float64)
    for arr in (perm, lo, bits):
        arr.setflags(write=False)
    steps = tuple((n[r + 1], slice(0, n[r]), n[height - r], n[height - r - 1]) for r in range(height))
    shapes = tuple((n[r + 1], n[height - r + 1]) for r in range(height + 1))
    return _Plan(steps, shapes, perm, lo, bits)


def _activities(box: LatticeBox, field: ActivityField, bc: BoundaryCondition) -> np.ndarray:
    """Effective activities (W x H); frame-blocked sites get 0."""
    if not field.region.contains_box(box):
        raise ValueError("box must lie inside the field region")
    if box.height > MAX_HEIGHT:
        raise CapacityError(f"box height is capped at {MAX_HEIGHT}")
    ax, ay = box.x_min - field.region.x_min, box.y_min - field.region.y_min
    acts = field.scale * field.values[ax : ax + box.width, ay : ay + box.height]
    for x, y in bc.frame_occupied(box, field.is_live):
        # a frame site touches exactly one box site: its clamp into the box
        ix = min(max(x, box.x_min), box.x_max) - box.x_min
        acts[ix, min(max(y, box.y_min), box.y_max) - box.y_min] = 0.0
    return acts


def _rescale(t: np.ndarray) -> float:
    """Divide ``t`` by its maximum in place; return the log of the maximum
    (np.log, as a long double maximum may lie past the float64 range)."""
    m = t.max()
    if not 0.0 < m < np.inf:
        raise CapacityError("the transfer scan left floating-point range")
    t /= m
    return float(np.log(m))


class _Scan:
    """Forward and transposed site sweeps for one instance."""

    def __init__(self, box: LatticeBox, field: ActivityField, bc: BoundaryCondition):
        self.acts = _activities(box, field, bc)
        self.plan = _plan(box.height)
        col_bits = np.log2(1.0 + self.acts).sum(axis=1).tolist()
        span = max(a + b for a, b in zip(col_bits, col_bits[1:] + [0.0]))
        self.dtype = next((t for t, bits in _FLOATS if span + _SAFETY_BITS < bits), None)
        if self.dtype is None:
            raise CapacityError("activities span too wide a range for an exact scan")

    def _rows(self, views) -> tuple[list[np.ndarray], list[tuple]]:
        """The table before each row and after the last, on two ping-pong buffers
        (the first apart, as each hand-over fills it from the last), and ``views``."""
        shapes = self.plan.shapes
        size = max(a * b for a, b in shapes[1:])
        bufs = (np.empty(size, self.dtype), np.empty(size, self.dtype))
        tables = [np.empty(shapes[0], self.dtype)]
        tables += [bufs[k % 2][: a * b].reshape(a, b) for k, (a, b) in enumerate(shapes[1:])]
        return tables, [views(*step, t, u) for step, t, u in zip(self.plan.steps, tables, tables[1:])]

    def column(self, x: int, prev: int) -> tuple[np.ndarray, float]:
        """Column x's weights (ascending masks, max 1) and log scale next to mask
        ``prev`` of column x - 1: forward steps whose tables keep one hi column."""
        w = np.ones(len(self.plan.masks), self.dtype)
        steps = zip(self.plan.steps, self.plan.shapes[1:], self.acts[x].tolist())
        for r, ((top, keep, _, _), (end, _), a) in enumerate(steps):
            np.multiply(w[keep], 0.0 if prev >> r & 1 else a, w[top:end])
        return w, _rescale(w)

    def forward(self):
        """Yield per column its prefix vector (ascending masks, max 1) and log scale."""
        tables, rows = self._rows(lambda top, keep, f1, w1, t, u: (
            u[:top], t[:, :f1], u[:top, :w1], t[:, f1:], u[top:], t[keep, :f1]))
        v, log_scale = self.column(0, 0)  # the column left of the box is empty
        yield v, log_scale
        for acts in self.acts[1:].tolist():
            np.take(v, self.plan.perm, out=tables[0][0], mode="clip")
            for (u0, t0, u_sum, t1, u1, keep), a in zip(rows, acts):
                np.copyto(u0, t0)
                np.add(u_sum, t1, u_sum)
                np.multiply(keep, a, u1)
            v = tables[-1][:, 0]
            log_scale += _rescale(v)
            yield v, log_scale

    def backward(self):
        """Yield the suffix vectors (ascending masks, max 1), last column first."""
        tables, rows = self._rows(lambda top, keep, f1, w1, t, u: (
            t[:, :f1], u[:top], t[:, f1:], u[:top, :w1], u[top:], t[keep, :f1]))
        beta = np.ones(len(self.plan.masks), self.dtype)
        for x in reversed(range(1, len(self.acts))):
            yield beta
            np.copyto(tables[-1][:, 0], beta)
            for (t0, u0, t1, u1, bottom, keep), a in zip(reversed(rows), self.acts[x, ::-1].tolist()):
                np.copyto(t0, u0)
                np.copyto(t1, u1)
                if a:  # a dead site adds nothing
                    np.multiply(bottom, a, bottom)
                    np.add(keep, bottom, keep)
            beta = np.empty_like(beta)
            beta[self.plan.perm] = tables[0][0]
            _rescale(beta)
        yield beta


def log_partition(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition | str = FREE_BC
) -> float:
    """log of the partition sum over admissible occupation patterns."""
    *_, (alpha, log_scale) = _Scan(box, field, as_boundary_condition(bc)).forward()
    return float(np.log(alpha.sum())) + log_scale


def occupation_probabilities(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition | str = FREE_BC
) -> dict[Site, float]:
    """Exact single-site occupation probabilities for all box sites."""
    scan = _Scan(box, field, as_boundary_condition(bc))
    alphas = [alpha.copy() for alpha, _ in scan.forward()]
    cols = np.empty((box.width, box.height))
    for ix, beta in zip(reversed(range(box.width)), scan.backward()):
        mass = alphas[ix] * beta
        cols[ix] = scan.plan.bits @ mass / mass.sum()
    return dict(zip(box.sites(), cols.ravel().tolist()))


def occupation_probability(
    box: LatticeBox, field: ActivityField, v: Site, bc: BoundaryCondition | str = FREE_BC
) -> float:
    if not box.contains(v):
        raise ValueError("site lies outside the box")
    return occupation_probabilities(box, field, bc)[v]


def sample_exact(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition | str = FREE_BC,
    rng: np.random.Generator | int | None = None,
) -> frozenset[Site]:
    """One exact draw from the finite-volume measure, column by column."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    scan = _Scan(box, field, as_boundary_condition(bc))
    occupied, mask = [], 0
    for ix, beta in enumerate(list(scan.backward())[::-1]):
        weights = scan.column(ix, mask)[0] * beta
        p = np.asarray(weights / weights.sum(), dtype=np.float64)
        mask = int(scan.plan.masks[gen.choice(len(p), p=p)])
        occupied.extend((box.x_min + ix, box.y_min + iy) for iy in range(box.height) if mask >> iy & 1)
    return frozenset(occupied)
