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
a column's steps from the vectors of the column before; next to the empty column
left of the box they are the products of each mask's activities (_Scan.column),
which exact draws weigh with one shared backward pass.  Marginals meet forward
and transposed-step vectors at column edges, and a fold takes rows r = H-1..0:
the masks with top bit r are the tail after the first F(r+2), whose sum is row
r's mass and which adds onto the masks without bit r.

Only rows where some instance has a nonzero activity carry bits: the tables
index the masks of the live rows p of column x (lo) and q of column x-1 (hi),
sized by _sizes(p, q) from each pattern's _ranks.  Column vectors run over the
column's own masks, ascending, gathered in hi order by the next column (_hand);
log Z spreads only its last to all masks (_Scan.spread).  A dropped entry is an
exact zero of the full tables and a kept one sees the same operations, so every
output is bit for bit that of the full tables.  Below height _LIVE_ROWS_FROM all
rows count as live: ranks, hand-overs and views cost more than dead rows save
(ms live / all-live, one new bernoulli:0.7 field a call, lambda 5, even frame,
median of 60; sides 14 to 17, log Z: 1.74 / 1.29, 2.10 / 1.81, 2.26 / 2.40, 2.50
/ 3.33; marginals: 3.08 / 2.95, 3.38 / 3.81, 3.86 / 5.23, 4.45 / 7.39).

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

The scan runs on a stack of instances (one box and frame, many fields); a single
field is a stack of one.  Tables are T[lo, hi, instance] and column vectors
v[mask, instance]: with the instance axis last, one numpy call steps the stack
and a row's fold, copy and multiply each walk one contiguous run (w1 or f1
entries times the instances), not a short run per instance.  log_partition,
occupation_probabilities and occupation_probability take one ActivityField or a
sequence; a sequence is grouped by each instance's float type and cut into
chunks whose largest tables hold at most _CHUNK_ENTRIES entries (512 KiB of
float64): 963 side-8 or 140 side-12 boxes, side 22 alone.  Marginals also store
W column vectors per instance, over masks ~0.81 x largest from height 4: at most
~0.81 W x 2^16 entries a chunk, which works (from height 2) in under (1.2 W + 6)
x 2^16 beside the call's activities and output; 140 side-12 boxes store 4.8 MiB,
64-wide ones up to 32 MiB to height 22, side 24 (alone) 22 MiB.  Steps, maxima
and rescales are elementwise across instances, with no BLAS call; only a sum
depends on its order, so log Z's last sum and the marginals' totals and fold run
along each instance's contiguous masks as for one field (the last column vector
transposed, masses stored instances first), and every instance's result is bit
for bit what it is alone.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .disorder import ActivityField, stacked_values
from .errors import CapacityError
from .lattice import BoundaryCondition, FREE_BC, LatticeBox, Site, as_boundary_condition, frame_cells

MAX_HEIGHT = 24
_SAFETY_BITS = 96  # keeps the flushed mass below 2^-60 of Z; exceeds MAX_HEIGHT
_CHUNK_ENTRIES = 1 << 16  # cap on the entries a chunk steps or builds at once: largest tables, CDF rows, uniforms
_LIVE_ROWS_FROM = 16  # below this box height every row counts as live
_FLOATS = tuple((t, -np.finfo(t).minexp) for t in (np.float64, np.longdouble))
_FLOAT_BITS = np.array([bits - _SAFETY_BITS for _, bits in _FLOATS])

Fields = Union[ActivityField, Sequence[ActivityField]]


@lru_cache(maxsize=256)  # one entry per live-row pattern or its bit reversal: two tuples of H + 1 ints
def _ranks(p: int, height: int) -> tuple[tuple, tuple]:
    """Masks of the live rows p (bit r: row r), ascending: of the n[r] below row r, k[r + 1] take bit r."""
    k, n = [0], [1]
    for r in range(height):  # the masks without the bit next to the new one take it
        k.append(n[-1] - k[-1] if p >> r & 1 else 0)
        n.append(n[-1] + k[-1])
    return tuple(k), tuple(n)


@lru_cache(maxsize=128)  # a call needs one entry per column pair; an entry holds ~4 KB at height 22
def _sizes(p: int, q: int, height: int) -> tuple[tuple, tuple]:
    """A column with live rows ``p`` next to one with live rows ``q``: per row that changes the table, (r, top = N(r),
    T[:keep = K(r)], f1, w1), and the table shapes before each and after the last; w1, f1: K, N of q from row H-1."""
    k, n = _ranks(p, height)
    w, m = _ranks(int(f"{q:0{height}b}"[::-1], 2), height)
    rows = [r for r in range(height) if k[r + 1] or w[height - r]]
    return (tuple((r, n[r], slice(0, k[r + 1]), m[height - r - 1], w[height - r]) for r in rows),
            ((1, m[height]),) + tuple((n[r + 1], m[height - r - 1]) for r in rows))


def _walk(p: int, height: int, inc, out=None, op=np.add) -> np.ndarray:
    """Masks of the live rows p, ascending, on ``out``'s first axis: its first entry (0) op'd with inc[r] per bit r."""
    k, n = _ranks(p, height)
    out = np.zeros(n[height], np.int64) if out is None else out
    for r in range(height):
        if p >> r & 1:
            op(out[: k[r + 1]], inc[r], out=out[n[r] : n[r + 1]])
    return out


def _hand(q: int, height: int) -> np.ndarray:
    """Masks of the live rows q in hi order (ascending over rows H - 1 down to 0), each as its ascending rank."""
    return _walk(int(f"{q:0{height}b}"[::-1], 2), height, _ranks(q, height)[1][height - 1 :: -1])


@lru_cache(maxsize=None)
def _plan(height: int) -> tuple[tuple, int, np.ndarray, np.ndarray]:
    """Steps, largest table, hand-over positions (_hand) and masks of a height, every row live."""
    full = (1 << height) - 1
    steps, shapes = _sizes(full, full, height)
    hand, masks = _hand(full, height), _walk(full, height, [1 << r for r in range(height)])
    hand.flags.writeable = masks.flags.writeable = False
    return steps, max(n * m for n, m in shapes), hand, masks


def _as_stack(fields: Fields) -> tuple[list[ActivityField], bool]:
    """The fields as a list, and whether one bare field was given."""
    return ([fields], True) if isinstance(fields, ActivityField) else (list(fields), False)


def box_activities(
    box: LatticeBox, fields: Sequence[ActivityField], bc: BoundaryCondition | str = FREE_BC
) -> np.ndarray:
    """Effective activities of the scan and the heat-bath chain, n x W x H for n fields; frame-blocked sites get 0."""
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
    """Divide each column of ``t`` by its maximum in place; return the logs of the maxima, each rounded to
    float64 (np.log, as a long double maximum may lie past the float64 range)."""
    m = t.max(axis=0)
    if not m.max() < np.inf:
        raise CapacityError("the transfer scan left floating-point range")
    t /= m
    return np.log(m).astype(np.float64, copy=False)


def _tables(bufs: tuple, count: int, height: int, p: int, q: int) -> tuple[list, list]:
    """A column of live rows p next to live rows q: its tables before each step and after the last (the
    first on its own buffer, filled by each hand-over, then on two ping-pong buffers), each step's row and views."""
    steps, shapes = _sizes(p, q, height)
    tables = [b[: n * m * count].reshape(n, m, count) for b, (n, m) in zip([bufs[2], *bufs[:2] * len(steps)], shapes)]
    return tables, [(r, (t[:, :w1], t[:, f1:], u[:top, :w1]) if w1 else None,  # fold the consumed bit
                     (u[:top, w1:], t[:, w1:f1]) if w1 < f1 else None,  # the rest
                     (t[keep, :f1], u[top:]) if keep.stop else None)  # the new bit
                    for (r, top, keep, f1, w1), t, u in zip(steps, tables, tables[1:])]


class _Scan:
    """Forward and transposed site sweeps for a stack of instances of one height and one float type: every table
    is (lo, hi, instances), and a column's vectors are (masks, instances), over its live rows' masks ascending."""

    def __init__(self, acts: np.ndarray, dtype: type, kept: int = 0):
        self.dtype, self.count = dtype, len(acts)
        self.height = height = acts.shape[2]
        self.steps, largest, hand, self.masks = _plan(height)
        # per column and row, the factor that scales a stack of tables: an (instances,) run of one contiguous
        # (W, H, n) copy, or a scalar for one instance (side-20 marginals of one field: 6.85 ms against 6.98)
        self.acts = acts[0].astype(dtype) if self.count == 1 else np.ascontiguousarray(acts.transpose(1, 2, 0), dtype)
        self.full = full = (1 << height) - 1
        self.live = [full] * acts.shape[1] if height < _LIVE_ROWS_FROM else (
            acts.any(axis=0) @ (1 << np.arange(height))).tolist()  # per column its live rows, as bits
        self.bufs = bufs = tuple(np.empty(self.count * n, dtype) for n in (largest, largest, len(self.masks)))
        # column pairs' set-ups (tables, views, hand-overs): the kept pairs, else the last, (full, full) if all-live
        self.tables = lru_cache(max(kept, 1))(lambda p, q: _tables(bufs, len(acts), height, p, q) + (
            hand if q == full else _hand(q, height),))

    def spread(self, x: int, v: np.ndarray) -> np.ndarray:
        """Column x's vectors over every mask, zero on the masks with a dead row: new, or ``v`` if none is dead."""
        if (p := self.live[x]) == self.full:
            return v
        out = np.zeros((len(self.masks), self.count), self.dtype)
        out[_walk(p, self.height, _ranks(self.full, self.height)[1])] = v
        return out

    def column(self, x: int) -> np.ndarray:
        """Column x's vectors next to an empty one: its masks' activity products, a view the next step overwrites."""
        n = _ranks(self.live[x], self.height)[1][-1]
        ones = self.bufs[0][: n * self.count].reshape(n, self.count)
        ones.fill(1)
        return _walk(self.live[x], self.height, self.acts[x], ones, np.multiply)

    def step(self, x: int, v: np.ndarray) -> np.ndarray:
        """Hand ``v``, column x - 1's vectors, into column x's tables and step its sites: column x's vectors."""
        tables, rows, hand = self.tables(self.live[x], self.live[x - 1])
        np.take(v, hand, axis=0, out=tables[0][0], mode="clip")
        for r, fold, rest, new in rows:
            if fold:
                np.add(*fold)
            if rest:
                np.copyto(*rest)
            if new:
                np.multiply(new[0], self.acts[x, r], new[1])
        return tables[-1][:, 0]

    def forward(self):
        """Yield per column its prefix vectors (max 1 per instance, a view the next column overwrites), log scales."""
        log_scale = 0.0
        for x in range(len(self.live)):
            v = self.step(x, v) if x else self.column(0)  # the column left of the box is empty
            log_scale = log_scale + _rescale(v)
            yield v, log_scale

    def backward(self):
        """Yield the suffix vectors (max 1 per instance), last column first."""
        beta = np.ones((_ranks(self.live[-1], self.height)[1][-1], self.count), self.dtype)
        for x in reversed(range(1, len(self.live))):
            yield beta
            tables, rows, hand = self.tables(self.live[x], self.live[x - 1])
            tables[-1][:, 0] = beta
            for r, fold, rest, new in reversed(rows):  # the step's copies reversed: T[:, :f1] from U[:top]
                if rest:
                    np.copyto(rest[1], rest[0])
                if fold:
                    np.copyto(fold[0], fold[2])
                    np.copyto(fold[1], fold[2])
                if new:
                    np.multiply(new[1], self.acts[x, r], new[1])
                    np.add(new[0], new[1], new[0])
            _rescale(tables[0][0])
            beta = np.empty((len(hand), self.count), self.dtype)
            beta[hand] = tables[0][0]
        yield beta


def _scans(box: LatticeBox, fields: list[ActivityField], bc: BoundaryCondition | str, kept: int = 0):
    """Yield (instance indices, scan) by float type, in chunks whose largest tables hold at most _CHUNK_ENTRIES
    entries; a scan keeps ``kept`` column pairs' set-ups."""
    acts = box_activities(box, fields, bc)
    if box.height > MAX_HEIGHT:
        raise CapacityError(f"box height is capped at {MAX_HEIGHT}")
    col_bits = np.log2(1.0 + acts).sum(axis=2)
    span = col_bits.copy()  # over two adjacent columns; the last has an empty right neighbour
    span[:, :-1] += col_bits[:, 1:]
    kinds = np.searchsorted(_FLOAT_BITS, span.max(axis=1), side="right").tolist()
    if len(_FLOATS) in kinds:
        raise CapacityError("activities span too wide a range for an exact scan")
    chunk = max(1, _CHUNK_ENTRIES // _plan(box.height)[1])
    for k in sorted(set(kinds)):
        group = [i for i, kind in enumerate(kinds) if kind == k]
        for start in range(0, len(group), chunk):
            idx = group[start : start + chunk]
            yield idx, _Scan(acts[idx], _FLOATS[k][0], kept)


def log_partition(
    box: LatticeBox, field: Fields, bc: BoundaryCondition | str = FREE_BC
) -> float | np.ndarray:
    """log of the partition sum over admissible occupation patterns: a float
    for one field, an array with one entry per field for a sequence."""
    fields, single = _as_stack(field)
    out = np.empty(len(fields))
    for idx, scan in _scans(box, fields, bc):
        *_, (alpha, log_scale) = scan.forward()
        out[idx] = np.log(scan.spread(-1, alpha).T.copy().sum(axis=1)).astype(np.float64) + log_scale
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
            mass[:, ix, : len(alpha)] = alpha.T  # spread by the backward pass
        for ix, beta in zip(reversed(range(box.width)), scan.backward()):
            mass[:, ix] = scan.spread(ix, mass[:, ix, : len(beta)].T * beta).T
        total = mass.sum(axis=2)  # taken before the fold sums the tails into the front
        for r, top, keep, _, _ in reversed(scan.steps):
            probs[idx, :, r] = mass[..., top:].sum(axis=2) / total
            mass[..., keep] += mass[..., top:]
            mass = mass[..., :top]
        del mass, scan  # before _scans builds the next chunk
    return dict(zip(box.sites(), probs[0].ravel().tolist())) if single else probs


def occupation_probability(
    box: LatticeBox, field: Fields, v: Site, bc: BoundaryCondition | str = FREE_BC
) -> float | np.ndarray:
    """Exact occupation probability of box site v: occupation_probabilities' entry, per field for a sequence."""
    if not box.contains(v):
        raise ValueError("site lies outside the box")
    probs = occupation_probabilities(box, field, bc)
    return probs[v] if isinstance(probs, dict) else probs[:, v[0] - box.x_min, v[1] - box.y_min]


def _bisect(cdf: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw, how many entries of its non-decreasing row ``cdf[row]`` are <= u, as searchsorted(side="right"): one
    bisection for all draws, keeping every entry before ``base`` <= u and every one from base + size > u."""
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
) -> np.ndarray:
    """``draws`` exact draws from the finite-volume measure, a (draws, W) int64 array of packed columns.

    One backward pass serves every draw.  Draw i picks its column x by inverse CDF, as
    ``Generator.choice`` does, with the uniform ``rng.random((draws, W))[i, x]``, so the draws
    do not depend on how many are asked for at once.  Draws whose previous columns agree share
    one CDF row, built as for a single draw, and bisect it.  Chunks of at most _CHUNK_ENTRIES
    entries (rows x masks) serve slices of the draws by row.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    ((_, scan),) = _scans(box, [field], bc)
    masks, betas = scan.masks, list(scan.backward())[::-1]
    chunk = max(1, _CHUNK_ENTRIES // len(masks))
    u = gen.random((draws, box.width))
    picked = np.zeros((draws, box.width + 1), dtype=np.int64)  # column 0: left of the box
    for x, beta in enumerate(betas):
        column, beta = scan.spread(x, scan.column(x)).T, scan.spread(x, beta).T
        prev, row = np.unique(picked[:, x], return_inverse=True)  # one CDF row per previous column
        order = np.argsort(row, kind="stable") if len(prev) > chunk else slice(None)  # the draws by row; one chunk skips the sort (sorting anyway: +8% at 12x12, +37% at 2x2, equal draws)
        for start in range(0, len(prev), chunk):
            weights = np.where(masks & prev[start : start + chunk, None], 0.0, column)
            weights /= weights.max(axis=1, keepdims=True)  # per row: a row ignores its chunk
            weights *= beta
            cdf = np.asarray(weights / weights.sum(axis=1, keepdims=True), dtype=np.float64).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            d = order if len(prev) <= chunk else order[
                slice(*np.searchsorted(row, (start, start + chunk), sorter=order))]
            picked[d, x + 1] = masks[_bisect(cdf, row[d] - start, u[d, x])]
    return picked[:, 1:]
