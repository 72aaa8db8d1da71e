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
next.  Marginals meet forward and transposed-step vectors at column edges,
and a fold takes rows r = H-1..0: the masks with top bit r are the tail after
the first F(r+2), whose sum is row r's mass and which adds onto the masks
without bit r.  Exact draws share one backward pass: every draw picks its
columns left to right from the same suffix vectors, with its own uniforms,
and draws that picked the same previous column share one CDF row.

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

The scan runs on a stack of instances (one box and frame, many fields): every
table has a leading instance axis, so one numpy call steps the whole stack,
and a single field is a stack of one.  log_partition, occupation_probabilities
and occupation_probability take one ActivityField or a sequence; a sequence
is grouped by each instance's float type and cut into chunks that hold at most
_SCAN_ENTRIES entries: instances x (largest table + the column vectors the
marginals store), about 1 MB of float64 with the two ping-pong buffers.  So
log Z runs up to 963 side-8 or 140 side-12 boxes at once and side 22 one at
a time, and a stacked sweep needs little more memory than a loop over its
boxes.  Site steps and the marginal fold are elementwise across instances,
and log scales and sums run along each instance's masks as for one field,
with no BLAS call, so every instance's result is bit for bit what it is alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .disorder import ActivityField, stacked_values
from .errors import CapacityError
from .lattice import BoundaryCondition, FREE_BC, LatticeBox, Site, as_boundary_condition

MAX_HEIGHT = 24
_SAFETY_BITS = 96  # keeps the flushed mass below 2^-60 of Z; exceeds MAX_HEIGHT
_DRAW_ENTRIES = 1 << 16  # cap on a (draws x masks) temporary of sample_exact
_SCAN_ENTRIES = 1 << 16  # cap on the table and stored-vector entries of one chunk of a stack
_FLOATS = tuple((t, -np.finfo(t).minexp) for t in (np.float64, np.longdouble))
_FLOAT_BITS = np.array([bits for _, bits in _FLOATS])

Fields = Union[ActivityField, Sequence[ActivityField]]


@dataclass(frozen=True, eq=False)
class _Plan:
    """Slice sizes and orders of the scan for one column height."""

    steps: tuple[tuple[int, slice, int, int], ...]  # per row r: top = F(r+2), rows T[:keep], f1, w1
    shapes: tuple[tuple[int, int], ...]  # table shape before each row, then after
    perm: np.ndarray  # hi position at a column start -> ascending mask position
    masks: np.ndarray  # valid column masks, ascending


@lru_cache(maxsize=None)
def _plan(height: int) -> _Plan:
    n = [1, 1]  # n[k + 1] = number of masks on k rows, for k >= -1
    lo = hi = np.zeros(1, dtype=np.int64)
    for k in range(height):
        n.append(n[-1] + n[-2])
        lo = np.concatenate([lo, lo[: n[k]] | (1 << k)])
        hi = np.concatenate([hi, hi[: n[k]] | (1 << (height - 1 - k))])
    perm = np.searchsorted(lo, hi)
    for arr in (perm, lo):
        arr.setflags(write=False)
    steps = tuple((n[r + 1], slice(0, n[r]), n[height - r], n[height - r - 1]) for r in range(height))
    shapes = tuple((n[r + 1], n[height - r + 1]) for r in range(height + 1))
    return _Plan(steps, shapes, perm, lo)


@lru_cache(maxsize=None)
def _unperm(height: int) -> np.ndarray:
    """The inverse of ``_plan(height).perm``: the backward pass gathers through
    it, faster than a scatter through perm.  Cached apart from the plan, so
    that heights which only ever run log Z do not hold it."""
    unperm = np.argsort(_plan(height).perm)
    unperm.setflags(write=False)
    return unperm


def _as_stack(fields: Fields) -> tuple[list[ActivityField], bool]:
    """The fields as a list, and whether one bare field was given."""
    if isinstance(fields, ActivityField):
        return [fields], True
    return list(fields), False


def box_activities(
    box: LatticeBox, field: Fields, bc: BoundaryCondition | str = FREE_BC
) -> np.ndarray:
    """Effective activities of the scan and the heat-bath chain, W x H for one
    field and n x W x H for a sequence of n; frame-blocked sites get 0."""
    fields, single = _as_stack(field)
    if not all(f.region.contains_box(box) for f in fields):
        raise ValueError("box must lie inside the field region")
    w, h = box.width, box.height
    corners = [(box.x_min - f.region.x_min, box.y_min - f.region.y_min) for f in fields]
    acts = np.array([f.values[x : x + w, y : y + h] for f, (x, y) in zip(fields, corners)]).reshape(-1, w, h)
    acts *= np.array([f.scale for f in fields]).reshape(-1, 1, 1)
    frame = as_boundary_condition(bc).frame_occupied(box)
    if frame:
        fx, fy = np.array(list(frame), dtype=np.int64).T
        # a frame site touches exactly one box site: its clamp into the box
        ix = np.minimum(np.maximum(fx - box.x_min, 0), w - 1)
        iy = np.minimum(np.maximum(fy - box.y_min, 0), h - 1)
        k, s = np.nonzero(stacked_values(fields, fx, fy) > 0.0)
        acts[k, ix[s], iy[s]] = 0.0
    return acts[0] if single else acts


def _rescale(t: np.ndarray) -> np.ndarray:
    """Divide each row of ``t`` by its maximum in place; return the logs of the
    maxima, each rounded to float64 (np.log, as a long double maximum may lie
    past the float64 range)."""
    m = t.max(axis=1)
    if not 0.0 < m.min() <= m.max() < np.inf:
        raise CapacityError("the transfer scan left floating-point range")
    t /= m[:, None]
    return np.log(m).astype(np.float64, copy=False)


class _Scan:
    """Forward and transposed site sweeps for a stack of instances of one
    height and one float type: every table carries a leading instance axis."""

    def __init__(self, acts: np.ndarray, dtype: type):
        self.dtype, self.count = dtype, len(acts)
        self.plan = _plan(acts.shape[2])
        # per column and row, the factor that scales a stack of tables: an
        # (instances, 1, 1) column, or a scalar for one instance, which numpy
        # multiplies ~10% faster on the tall tables of one large box
        acts = acts.astype(dtype, copy=False)
        self.acts = acts[0] if self.count == 1 else acts.transpose(1, 2, 0)[..., None, None]
        self.live = acts.any(axis=0).tolist()

    def _rows(self, views) -> tuple[list[np.ndarray], list[tuple]]:
        """The tables before each row and after the last, on two ping-pong buffers
        (the first apart, as each hand-over fills it from the last), and ``views``."""
        shapes, b = self.plan.shapes, self.count
        size = b * max(p * q for p, q in shapes[1:])
        bufs = (np.empty(size, self.dtype), np.empty(size, self.dtype))
        tables = [np.empty((b, *shapes[0]), self.dtype)]
        tables += [bufs[k % 2][: b * p * q].reshape(b, p, q) for k, (p, q) in enumerate(shapes[1:])]
        return tables, [views(*step, t, u) for step, t, u in zip(self.plan.steps, tables, tables[1:])]

    def column(self, x: int) -> np.ndarray:
        """Column x's unscaled weights (instances x ascending masks) next to an
        empty column x - 1: forward steps whose tables keep one hi column."""
        w = np.ones((self.count, 1, len(self.plan.masks)), self.dtype)
        for (top, keep, _, _), (end, _), a in zip(self.plan.steps, self.plan.shapes[1:], self.acts[x]):
            np.multiply(w[..., keep], a, w[..., top:end])
        return w[:, 0]

    def forward(self):
        """Yield per column its prefix vectors (instances x ascending masks, max 1
        per instance) and their float64 log scales."""
        tables, rows = self._rows(lambda top, keep, f1, w1, t, u: (
            u[:, :top], t[:, :, :f1], u[:, :top, :w1], t[:, :, f1:], u[:, top:], t[:, keep, :f1]))
        v = self.column(0)  # the column left of the box is empty
        log_scale = _rescale(v)
        yield v, log_scale
        for acts in self.acts[1:]:
            np.take(v, self.plan.perm, axis=1, out=tables[0][:, 0], mode="clip")
            for (u0, t0, u_sum, t1, u1, keep), a in zip(rows, acts):
                np.copyto(u0, t0)
                np.add(u_sum, t1, u_sum)
                np.multiply(keep, a, u1)
            v = tables[-1][:, :, 0]
            log_scale = log_scale + _rescale(v)
            yield v, log_scale

    def backward(self):
        """Yield the suffix vectors (instances x ascending masks, max 1 per
        instance), last column first."""
        tables, rows = self._rows(lambda top, keep, f1, w1, t, u: (
            t[:, :, :f1], u[:, :top], t[:, :, f1:], u[:, :top, :w1], u[:, top:], t[:, keep, :f1]))
        beta = np.ones((self.count, len(self.plan.masks)), self.dtype)
        unperm = _unperm(len(self.plan.steps))
        for x in reversed(range(1, len(self.acts))):
            yield beta
            np.copyto(tables[-1][:, :, 0], beta)
            for (t0, u0, t1, u1, bottom, keep), a, live in zip(
                reversed(rows), self.acts[x, ::-1], self.live[x][::-1]
            ):
                np.copyto(t0, u0)
                np.copyto(t1, u1)
                if live:  # a site dead in every instance adds nothing
                    np.multiply(bottom, a, bottom)
                    np.add(keep, bottom, keep)
            beta = np.take(tables[0][:, 0], unperm, axis=1)
            _rescale(beta)
        yield beta


def _scans(box: LatticeBox, fields: list[ActivityField], bc: BoundaryCondition | str, kept: int = 0):
    """Yield (instance indices, scan) over the stack: instances grouped by their
    float type, each group cut into chunks of at most _SCAN_ENTRIES entries in
    the largest table plus ``kept`` column vectors per instance."""
    acts = box_activities(box, fields, bc)
    if box.height > MAX_HEIGHT:
        raise CapacityError(f"box height is capped at {MAX_HEIGHT}")
    col_bits = np.log2(1.0 + acts).sum(axis=2)
    span = col_bits.copy()  # over two adjacent columns; the last has an empty right neighbour
    span[:, :-1] += col_bits[:, 1:]
    kinds = (span.max(axis=1)[:, None] + _SAFETY_BITS >= _FLOAT_BITS).sum(axis=1).tolist()
    if len(_FLOATS) in kinds:
        raise CapacityError("activities span too wide a range for an exact scan")
    plan = _plan(box.height)
    chunk = max(1, _SCAN_ENTRIES // (max(p * q for p, q in plan.shapes) + kept * len(plan.masks)))
    for k in sorted(set(kinds)):
        group = [i for i, kind in enumerate(kinds) if kind == k]
        for start in range(0, len(group), chunk):
            idx = group[start : start + chunk]
            yield idx, _Scan(acts[idx], _FLOATS[k][0])


def log_partition(
    box: LatticeBox, field: Fields, bc: BoundaryCondition | str = FREE_BC
) -> float | np.ndarray:
    """log of the partition sum over admissible occupation patterns: a float
    for one field, an array with one entry per field for a sequence."""
    fields, single = _as_stack(field)
    out = np.empty(len(fields))
    for idx, scan in _scans(box, fields, bc):
        *_, (alpha, log_scale) = scan.forward()
        out[idx] = np.log(alpha.sum(axis=1)).astype(np.float64) + log_scale
    return float(out[0]) if single else out


def occupation_probabilities(
    box: LatticeBox, field: Fields, bc: BoundaryCondition | str = FREE_BC
) -> dict[Site, float] | np.ndarray:
    """Exact single-site occupation probabilities: a dict over the box sites
    for one field, an (n, W, H) array for a sequence of n fields."""
    fields, single = _as_stack(field)
    probs = np.empty((len(fields), box.width, box.height))
    for idx, scan in _scans(box, fields, bc, kept=box.width):
        mass = np.empty((len(idx), box.width, len(scan.plan.masks)), scan.dtype)
        for ix, (alpha, _) in enumerate(scan.forward()):
            mass[:, ix] = alpha
        for ix, beta in zip(reversed(range(box.width)), scan.backward()):
            mass[:, ix] *= beta
        total = mass.sum(axis=2)  # taken before the fold sums the tails into the front
        for r, (top, keep, _, _) in reversed(list(enumerate(scan.plan.steps))):
            probs[idx, :, r] = mass[..., top:].sum(axis=2) / total
            mass[..., keep] += mass[..., top:]
            mass = mass[..., :top]
    return dict(zip(box.sites(), probs[0].ravel().tolist())) if single else probs


def occupation_probability(
    box: LatticeBox, field: Fields, v: Site, bc: BoundaryCondition | str = FREE_BC
) -> float | np.ndarray:
    if not box.contains(v):
        raise ValueError("site lies outside the box")
    probs = occupation_probabilities(box, field, bc)
    return probs[v] if isinstance(probs, dict) else probs[:, v[0] - box.x_min, v[1] - box.y_min]


def sample_exact(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition | str = FREE_BC,
    rng: np.random.Generator | int | None = None, draws: int = 1,
) -> list[frozenset[Site]]:
    """``draws`` exact draws from the finite-volume measure, column by column.

    One backward pass serves every draw.  Draw i picks its column x by inverse
    CDF, as ``Generator.choice`` does, with the uniform
    ``rng.random((draws, W))[i, x]``, so the draws do not depend on how many
    are asked for at once.  Draws whose previous columns agree share one CDF
    row, built as for a single draw.  Chunks of draws keep each (draws x
    masks) temporary within _DRAW_ENTRIES entries.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    ((_, scan),) = _scans(box, [field], bc)
    masks = scan.plan.masks
    betas = list(scan.backward())[::-1]
    chunk = max(1, _DRAW_ENTRIES // len(masks))
    out = []
    for start in range(0, draws, chunk):
        u = gen.random((min(chunk, draws - start), box.width))
        picked = np.zeros((len(u), box.width + 1), dtype=np.int64)  # column 0: left of the box
        for x, beta in enumerate(betas):
            prev, row = np.unique(picked[:, x], return_inverse=True)  # one CDF row per previous column
            weights = np.where(masks & prev[:, None], 0.0, scan.column(x))
            weights /= weights.max(axis=1, keepdims=True)  # per row: a draw ignores its chunk
            weights *= beta
            cdf = np.asarray(weights / weights.sum(axis=1, keepdims=True), dtype=np.float64).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            picked[:, x + 1] = masks[(cdf[row] <= u[:, x, None]).sum(axis=1)]  # searchsorted(side="right")
        for grid in picked[:, 1:, None] >> np.arange(box.height) & 1:
            xs, ys = np.nonzero(grid)
            out.append(frozenset(zip((xs + box.x_min).tolist(), (ys + box.y_min).tolist())))
    return out
