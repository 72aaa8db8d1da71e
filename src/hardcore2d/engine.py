"""Exact computation on finite boxes by a site-by-site transfer scan.

Independent sets of a W x H box are built one site at a time, column by column
and bottom to top (Calkin-Wilf, SIAM J. Discrete Math. 11, 1998).  After site
(x, r) the state is a table T[lo, hi] over the masks without adjacent bits of
rows 0..r of column x (lo) and rows r+1..H-1 of column x-1 (hi), with
F(r+3) * F(H-r+1) entries (F = Fibonacci) against F(H+2)^2 for a column
transfer matrix.  Both index sets follow the Fibonacci order that splits on
the bit added or consumed next, so a site step needs no gathers: T[:, :f1]
(consumed bit clear) plus T[:, f1:] folded into its first w1 columns, then the
rows T[:keep] times the activity for the new bit.  One loop, _Scan.step, runs
a column's steps from the vectors of the column before; the scan starts from
the empty column left of the box (one mask of weight 1), and exact draws take
a column's weights from its step next to that column.  Marginals meet forward
and transposed-step vectors at column edges, and a fold takes rows r = H-1..0:
the masks with top bit r are the tail after the first F(r+2), whose sum is row
r's mass and which adds onto the masks without bit r.  Exact draws share one
backward pass: every draw picks its columns left to right from the same suffix
vectors by a bisection on its own uniform, and draws that picked the same
previous column share one CDF row.

Only rows where some instance has a nonzero activity carry bits: the tables
index the masks of the live rows p of column x (lo) and q of column x-1 (hi),
sized by _sizes(p, q) (with every row live: the per-height plan); lo ends
ascending and hi starts bit-reversed, the plan's orders restricted to p.  A
dropped entry is an exact zero of the full tables, a kept one sees the same
operations, and column vectors go back over all masks, so every output is bit
for bit that of the full tables.  Below height _LIVE_ROWS_FROM every row counts
as live: per column, sizes, orders and views cost more there than dead rows
save (log Z, one new bernoulli:0.7 field, lambda 5, even frame, median of 60:
1.86 ms against 1.55 all-live at side 16, 2.18 against 2.15 at 17, 2.52 against
3.46 at 18).

Each column ends divided by its maximum, at least 1 as the empty column carries
the last.  Within a column the maximum never decreases and grows by at most
2(1 + a) per site, and the float-type rule below keeps H + sum log2(1 + a) of
every column inside the exponent range, so no column overflows between rescales.
Rescaling flushes entries 2^1022 below the maximum, which matter only if the
sites next to the frontier (in two adjacent columns) lift their completion past
that factor.  So the scan runs in float64 while sum log2(1 + a) over two
adjacent columns stays _SAFETY_BITS inside its exponent range, else in long
double (wider only where np.longdouble has 80 or 128 bits), else it raises
CapacityError, as for an infinite maximum.  Zero activities and frame-blocked
sites forbid bits; the empty pattern keeps log Z >= 0.

The scan runs on a stack of instances (one box and frame, many fields): every
table has a leading instance axis, so one numpy call steps the whole stack,
and a single field is a stack of one.  log_partition, occupation_probabilities
and occupation_probability take one ActivityField or a sequence; a sequence
is grouped by each instance's float type and cut into chunks that hold at most
_SCAN_ENTRIES entries: instances x (largest table + the column vectors the
marginals store), about 1 MB of float64.  So log Z runs up to 963 side-8 or
140 side-12 boxes at once and side 22 one at a time.  Site steps and the
marginal fold are elementwise across instances, and log scales and sums run
along each instance's masks as for one field, with no BLAS call, so every
instance's result is bit for bit what it is alone.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .disorder import ActivityField, stacked_values
from .errors import CapacityError
from .lattice import BoundaryCondition, FREE_BC, LatticeBox, Site, as_boundary_condition, column_sites, frame_cells

MAX_HEIGHT = 24
_SAFETY_BITS = 96  # keeps the flushed mass below 2^-60 of Z; exceeds MAX_HEIGHT
_DRAW_ENTRIES = 1 << 16  # cap on the (CDF rows x masks) tables sample_exact builds at once
_SCAN_ENTRIES = 1 << 16  # cap on the table and stored-vector entries of one chunk of a stack
_LIVE_ROWS_FROM = 17  # below this box height every row counts as live
_FLOATS = tuple((t, -np.finfo(t).minexp) for t in (np.float64, np.longdouble))
_FLOAT_BITS = np.array([bits - _SAFETY_BITS for _, bits in _FLOATS])

Fields = Union[ActivityField, Sequence[ActivityField]]


@lru_cache(maxsize=128)  # a call needs one entry per column pair; an entry holds ~4 KB at height 22
def _sizes(p: int, q: int, height: int) -> tuple[tuple, tuple]:
    """A column with live rows ``p`` (bit r: row r) next to one with live rows
    ``q``: per row that changes the table, (r, top = N(r), rows T[:keep = K(r)],
    f1, w1), and the table shapes before each such row and after the last."""
    k, n, w, m = [0], [1], [0], [1]  # K(r - 1), N(r) and w1(r), M(r) from row H down
    for r in range(height):  # the masks without the bit next to the new one take it
        k.append(n[-1] - k[-1] if p >> r & 1 else 0)
        n.append(n[-1] + k[-1])
        w.append(m[-1] - w[-1] if q >> (height - 1 - r) & 1 else 0)
        m.append(m[-1] + w[-1])
    rows = [r for r in range(height) if k[r + 1] or w[height - r]]
    return (tuple((r, n[r], slice(0, k[r + 1]), m[height - r - 1], w[height - r]) for r in rows),
            ((1, m[height]),) + tuple((n[r + 1], m[height - r - 1]) for r in rows))


def _walk(steps: tuple, shapes: tuple, inc) -> tuple[np.ndarray, np.ndarray]:
    """For ``_sizes(p, q, height)``, the masks of the live rows p in lo (ascending)
    order and those of q in hi order, each as the sum of ``inc[r]`` over its bits r."""
    lo, hi = np.zeros(shapes[-1][0], np.int64), np.zeros(shapes[0][1], np.int64)
    for (r, top, *_), (end, _) in zip(steps, shapes[1:]):
        np.add(lo[: end - top], inc[r], out=lo[top:end])
    for r, _, _, f1, w1 in reversed(steps):
        np.add(hi[:w1], inc[r], out=hi[f1 : f1 + w1])
    return lo, hi


@lru_cache(maxsize=None)
def _plan(height: int) -> tuple[tuple, int, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Steps, largest table, mask positions (_walk) and masks of a height, every row live."""
    sizes = _sizes((1 << height) - 1, (1 << height) - 1, height)
    orders = _walk(*sizes, [top for _, top, *_ in sizes[0]])
    masks = _walk(*sizes, [1 << r for r in range(height)])[0]
    for arr in (*orders, masks):
        arr.setflags(write=False)
    return sizes[0], max(n * m for n, m in sizes[1]), orders, masks


def _as_stack(fields: Fields) -> tuple[list[ActivityField], bool]:
    """The fields as a list, and whether one bare field was given."""
    if isinstance(fields, ActivityField):
        return [fields], True
    return list(fields), False


def box_activities(
    box: LatticeBox, fields: Sequence[ActivityField], bc: BoundaryCondition | str = FREE_BC
) -> np.ndarray:
    """Effective activities of the scan and the heat-bath chain, n x W x H for a
    sequence of n fields; frame-blocked sites get 0."""
    if not all(f.region.contains_box(box) for f in fields):
        raise ValueError("box must lie inside the field region")
    w, h = box.width, box.height
    corners = [(box.x_min - f.region.x_min, box.y_min - f.region.y_min) for f in fields]
    acts = np.array([f.values[x : x + w, y : y + h] for f, (x, y) in zip(fields, corners)]).reshape(-1, w, h)
    acts *= np.array([f.scale for f in fields]).reshape(-1, 1, 1)
    frame = as_boundary_condition(bc).frame_occupied(box)
    if frame:
        fx, fy, ix, iy = frame_cells(box, frame)
        k, s = np.nonzero(stacked_values(fields, fx, fy) > 0.0)
        acts[k, ix[s], iy[s]] = 0.0
    return acts


def _rescale(t: np.ndarray) -> np.ndarray:
    """Divide each row of ``t`` by its maximum in place; return the logs of the
    maxima, each rounded to float64 (np.log, as a long double maximum may lie
    past the float64 range)."""
    m = t.max(axis=1)
    if not m.max() < np.inf:
        raise CapacityError("the transfer scan left floating-point range")
    t /= m[:, None]
    return np.log(m).astype(np.float64, copy=False)


def _tables(bufs: tuple, count: int, height: int, p: int, q: int) -> tuple[list, list]:
    """A column of live rows p next to live rows q: its tables before each step and after the last (the
    first on its own buffer, filled by each hand-over, then on two ping-pong buffers), each step's row and views."""
    steps, shapes = _sizes(p, q, height)
    tables = [b[: count * n * m].reshape(count, n, m) for b, (n, m) in zip([bufs[2], *bufs[:2] * len(steps)], shapes)]
    return tables, [(r, (t[:, :, :w1], t[:, :, f1:], u[:, :top, :w1]) if w1 else None,  # fold the consumed bit
                     (u[:, :top, w1:], t[:, :, w1:f1]) if w1 < f1 else None,  # the rest
                     (t[:, keep, :f1], u[:, top:]) if keep.stop else None,  # the new bit
                     (t[:, :, :f1], u[:, :top]))  # the transposed step's copy
                    for (r, top, keep, f1, w1), t, u in zip(steps, tables, tables[1:])]


class _Scan:
    """Forward and transposed site sweeps for a stack of instances of one
    height and one float type: every table carries a leading instance axis."""

    def __init__(self, acts: np.ndarray, dtype: type):
        self.dtype, self.count = dtype, len(acts)
        height = acts.shape[2]
        self.steps, largest, orders, self.masks = _plan(height)
        # per column and row, the factor that scales a stack of tables: an (instances, 1, 1) column, or a
        # scalar for one instance (side-20 marginals of one field: 6.40 ms against 6.55 with the column)
        acts = acts.astype(dtype, copy=False)
        self.acts = acts[0] if self.count == 1 else acts.transpose(1, 2, 0)[..., None, None]
        full, self.tops = (1 << height) - 1, [top for _, top, *_ in self.steps]
        self.live = [full] * acts.shape[1] if height < _LIVE_ROWS_FROM else (
            acts.any(axis=0) @ (1 << np.arange(height))).tolist()  # per column its live rows, as bits
        bufs = (np.empty(self.count * largest, dtype), np.empty(self.count * largest, dtype),
                np.empty(self.count * len(self.masks), dtype))
        self.spread, self.spread_idx = np.zeros((self.count, len(self.masks)), dtype), []
        self.empty = np.ones((self.count, 1), dtype)  # the vector over the one mask of an empty column
        # the last 4 column pairs (p, q) of this scan: tables, views, p's mask positions and q's in hi order
        self.tables = lru_cache(4)(lambda p, q, tops=self.tops: _tables(bufs, len(acts), height, p, q) + (
            orders if p == q == full else _walk(*_sizes(p, q, height), tops)))

    def _spread(self, v: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Vectors over the masks at ascending positions idx as vectors over every
        mask: ``v`` itself or the scan's spread buffer, valid until the next call."""
        if len(idx) == len(self.masks):
            return v
        self.spread[:, self.spread_idx] = 0  # only the entries the last call set
        self.spread[:, idx], self.spread_idx = v, idx
        return self.spread

    def step(self, x: int, v: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Hand ``v`` over the masks of column x - 1 (live rows q) into column x's tables and
        step its sites: the unscaled compact table (instances x masks), its mask positions."""
        tables, rows, idx, hand = self.tables(self.live[x], q)
        np.take(v, hand, axis=1, out=tables[0][:, 0], mode="clip")
        for r, fold, rest, new, _ in rows:
            if fold:
                np.add(*fold)
            if rest:
                np.copyto(*rest)
            if new:
                np.multiply(new[0], self.acts[x, r], new[1])
        return tables[-1][:, :, 0], idx

    def forward(self):
        """Yield per column its prefix vectors (instances x ascending masks, max 1
        per instance) and their float64 log scales."""
        v, q, log_scale = self.empty, 0, 0.0  # the column left of the box is empty
        for x, p in enumerate(self.live):
            t, idx = self.step(x, v, q)
            log_scale = log_scale + _rescale(t)
            v, q = self._spread(t, idx), p
            yield v, log_scale

    def backward(self):
        """Yield the suffix vectors (instances x ascending masks, max 1 per
        instance), last column first."""
        beta = np.ones((self.count, len(self.masks)), self.dtype)
        for x in reversed(range(1, len(self.live))):
            yield beta
            tables, rows, idx, hand = self.tables(self.live[x], self.live[x - 1])
            np.take(beta, idx, axis=1, out=tables[-1][:, :, 0], mode="clip")
            for r, fold, _, new, copy in reversed(rows):
                np.copyto(*copy)
                if fold:
                    np.copyto(fold[1], fold[2])
                if new:
                    np.multiply(new[1], self.acts[x, r], new[1])
                    np.add(new[0], new[1], new[0])
            _rescale(tables[0][:, 0])
            beta = np.zeros_like(beta)
            beta[:, hand] = tables[0][:, 0]
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
    kinds = np.searchsorted(_FLOAT_BITS, span.max(axis=1), side="right").tolist()
    if len(_FLOATS) in kinds:
        raise CapacityError("activities span too wide a range for an exact scan")
    _, largest, _, masks = _plan(box.height)
    chunk = max(1, _SCAN_ENTRIES // (largest + kept * len(masks)))
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
        mass = np.empty((len(idx), box.width, len(scan.masks)), scan.dtype)
        for ix, (alpha, _) in enumerate(scan.forward()):
            mass[:, ix] = alpha
        for ix, beta in zip(reversed(range(box.width)), scan.backward()):
            mass[:, ix] *= beta
        total = mass.sum(axis=2)  # taken before the fold sums the tails into the front
        for r, top, keep, _, _ in reversed(scan.steps):
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


def _bisect(cdf: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw, the number of entries of its non-decreasing row ``cdf[row]``
    that are <= u, as searchsorted(side="right"): one bisection for all draws,
    keeping every entry before ``base`` <= u and every one from base + size > u."""
    size, flat = cdf.shape[1], cdf.ravel()
    first = base = row * size
    while size > 1:
        probe = base + size // 2
        base = np.where(flat[probe] <= u, probe, base)
        size -= size // 2
    return base - first + (flat[base] <= u)


def sample_exact(
    box: LatticeBox, field: ActivityField, bc: BoundaryCondition | str = FREE_BC,
    rng: np.random.Generator | int | None = None, draws: int = 1,
) -> list[frozenset[Site]]:
    """``draws`` exact draws from the finite-volume measure, column by column.

    One backward pass serves every draw.  Draw i picks its column x by inverse
    CDF, as ``Generator.choice`` does, with the uniform
    ``rng.random((draws, W))[i, x]``, so the draws do not depend on how many
    are asked for at once.  Draws whose previous columns agree share one CDF
    row, built as for a single draw, and bisect it.  Chunks of at most
    _DRAW_ENTRIES entries (rows x masks) serve slices of the draws by row.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    ((_, scan),) = _scans(box, [field], bc)
    masks = scan.masks
    betas = list(scan.backward())[::-1]
    chunk = max(1, _DRAW_ENTRIES // len(masks))
    u = gen.random((draws, box.width))
    picked = np.zeros((draws, box.width + 1), dtype=np.int64)  # column 0: left of the box
    for x, beta in enumerate(betas):
        column = scan._spread(*scan.step(x, scan.empty, 0))
        prev, row = np.unique(picked[:, x], return_inverse=True)  # one CDF row per previous column
        order = np.argsort(row, kind="stable") if len(prev) > chunk else slice(None)  # the draws by row
        for start in range(0, len(prev), chunk):
            weights = np.where(masks & prev[start : start + chunk, None], 0.0, column)
            weights /= weights.max(axis=1, keepdims=True)  # per row: a row ignores its chunk
            weights *= beta
            cdf = np.asarray(weights / weights.sum(axis=1, keepdims=True), dtype=np.float64).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            d = order if len(prev) <= chunk else order[
                slice(*np.searchsorted(row, (start, start + chunk), sorter=order))]
            picked[d, x + 1] = masks[_bisect(cdf, row[d] - start, u[d, x])]
    drawn = picked[:, 1:].tolist()
    sites = [{m: column_sites(x, box.y_min, m) for m in set(col)} for x, col in enumerate(zip(*drawn), box.x_min)]
    return [frozenset().union(*map(dict.__getitem__, sites, row)) for row in drawn]
