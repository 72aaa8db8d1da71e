"""Heat-bath dynamics, monotone coupling, and coupling from the past.

The heat-bath move at a site resamples its occupation from the conditional
law: forced empty when a neighbour is occupied, otherwise occupied with odds
activity : 1.  The frame enters as zero activity, as in the transfer scan: an
occupied frame site touches exactly one box site, which it forces empty
(``engine.box_activities``).  A sweep visits the box in lexicographic order.
Two chains driven by the same uniforms preserve the two-sided order "more
even occupation and less odd occupation", whose extremes are the full
unblocked live even set and odd set; running the coupled pair from the past
until the extremes merge yields an exact sample (Propp-Wilson, Random Struct.
Alg. 9, 1996; Haggstrom-Nelander, Stat. Neerl. 53, 1999).

The sweep runs on columns packed as integers, bit r for row r.  In
lexicographic order site r of column x sees its left and lower neighbours
already updated and its right and upper ones not yet, so new[r] = a[r] &
~new[r - 1] with a = (u < odds) & ~(left_new | right_old | old >> 1).  Inside
each run of set bits of a, new therefore keeps the bits at even offsets from
the run's start, so a whole column updates at once: adding the starts of the
runs that begin on an even bit carries through exactly those runs.  The
coupled pair shares one integer per column, lower in bits 0..H-1 and upper in
bits H+1..2H; the zero guard bit between them keeps their runs apart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import ActivityField, ReplicaSeed
from .engine import box_activities
from .errors import CoalescenceTimeout
from .lattice import MAX_SIDE, BoundaryCondition, FREE_BC, LatticeBox, Site

_M64 = (1 << 64) - 1
_TIME_SALT = 0x9E3779B97F4A7C15
_EVEN = int("01" * (MAX_SIDE + 1), 2)  # the even bits of a packed pair


class GlauberChain:
    """Reusable heat-bath kernel for one (box, field, bc) triple.

    A state is a boolean grid padded by one empty ring; the sweeps work on
    its columns packed as integers.
    """

    def __init__(
        self,
        box: LatticeBox,
        field: ActivityField,
        bc: "BoundaryCondition | str" = FREE_BC,
    ):
        self.box = box
        acts = box_activities(box, field, bc)
        self.odds = acts / (1.0 + acts)  # occupation probability given free nbrs
        self._even = np.add(*box.coords()) % 2 == 0

    def extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper): the maximal unblocked live odd and even sets."""
        lower, upper = grids = np.zeros((2, self.box.width + 2, self.box.height + 2), dtype=bool)
        grids[:, 1:-1, 1:-1] = (self.odds > 0.0) & np.stack([~self._even, self._even])
        return lower, upper

    def ordered(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """lower's even sites inside upper's, upper's odd sites inside lower's."""
        lo, up = lower[1:-1, 1:-1], upper[1:-1, 1:-1]
        return not np.any(np.where(self._even, lo & ~up, up & ~lo))

    def occupied(self, grid: np.ndarray) -> frozenset[Site]:
        """The box sites a state occupies."""
        xs, ys = np.nonzero(grid[1:-1, 1:-1])
        return frozenset(zip((xs + self.box.x_min).tolist(), (ys + self.box.y_min).tolist()))

    # -- dynamics ------------------------------------------------------------

    def sweep_grid(self, grid: np.ndarray, uniforms: np.ndarray) -> None:
        """One in-place lexicographic heat-bath sweep."""
        rises = _pack(uniforms.reshape(self.odds.shape) < self.odds).tolist()
        grid[:] = _unpack(_sweep(_pack(grid[1:-1, 1:-1]).tolist(), rises), self.box.height)

    def sweep_pair(self, lower: np.ndarray, upper: np.ndarray, rng: np.random.Generator) -> None:
        """Advance both chains in place with one shared uniform per site."""
        u = rng.random(self.box.site_count)
        self.sweep_grid(lower, u)
        self.sweep_grid(upper, u)
        if not self.ordered(lower, upper):
            raise RuntimeError("monotone coupling lost its order; kernel bug")

    def run_occupation(
        self, sweeps: int, burn_in: int, rng: np.random.Generator
    ) -> dict[Site, float]:
        """Per-site occupation frequency of a single long run."""
        grid = self.extremes()[1]
        counts = np.zeros(self.odds.shape)
        n = self.box.site_count
        for t in range(burn_in + sweeps):
            self.sweep_grid(grid, rng.random(n))
            if t >= burn_in:
                counts += grid[1:-1, 1:-1]
        return dict(zip(self.box.sites(), (counts / sweeps).ravel().tolist()))


@dataclass(frozen=True)
class CftpResult:
    occupied: frozenset[Site]
    epochs: int
    sweeps_used: int


def _pack(bits: np.ndarray) -> np.ndarray:
    """Columns as integers: bit r of entry [..., x] is bits[..., x, r]."""
    return (bits << np.arange(bits.shape[-1], dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


def _unpack(cols: list[int], height: int) -> np.ndarray:
    """The padded grid of packed columns (their low ``height`` bits)."""
    ring = [[0] * (height + 2)]
    return np.array(ring + [[0, *(c >> r & 1 for r in range(height)), 0] for c in cols] + ring, dtype=bool)


def _sweep(cols: list[int], rises: list[int]) -> list[int]:
    """One lexicographic heat-bath sweep of packed columns; ``rises`` packs u < odds."""
    new, left = [], 0
    for rise, old, right in zip(rises, cols, cols[1:] + [0]):
        a = rise & ~(left | right | old >> 1)
        c = a + (a & ~(a << 1) & _EVEN)
        left = a & (~c & _EVEN | c & _EVEN << 1)
        new.append(left)
    return new


def _time_uniforms(seed: ReplicaSeed, times: range, n: int) -> np.ndarray:
    # one fixed uniform array per past time t >= 1, independent of the epoch
    key = np.array([seed.master_seed & _M64, (seed.replica_index ^ _TIME_SALT) & _M64], dtype=np.uint64)
    counters = (np.array([0, 0, t & _M64, 1], dtype=np.uint64) for t in times)
    return np.stack([np.random.Generator(np.random.Philox(key=key, counter=c)).random(n) for c in counters])


def cftp_sample(
    box: LatticeBox,
    field: ActivityField,
    bc: "BoundaryCondition | str" = FREE_BC,
    seed: "ReplicaSeed | int" = 0,
    max_sweeps: int = 1 << 16,
) -> CftpResult:
    """Exact sample by coupling from the past with epoch doubling.

    Epoch k restarts the extreme pair at time -2^(k-1) and replays the same
    per-time uniforms; on coalescence at time 0 the common state is an exact
    draw.  ``max_sweeps`` caps the horizon (how far back an epoch starts), so
    up to 2 * max_sweeps - 1 pair sweeps run in all.  Exceeding it raises
    CoalescenceTimeout -- there is no approximate fallback.
    """
    if not isinstance(seed, ReplicaSeed):
        seed = ReplicaSeed(int(seed))
    chain = GlauberChain(box, field, bc)
    h, n = box.height, box.site_count
    lower, upper = (_pack(g[1:-1, 1:-1]).tolist() for g in chain.extremes())
    start = [lo | up << h + 1 for lo, up in zip(lower, upper)]
    rises: list[list[int]] = []  # rises[t - 1]: the pair's packed u < odds at time -t
    total = epochs = 0
    horizon = 1
    while horizon <= max_sweeps:
        epochs += 1
        fresh = _time_uniforms(seed, range(len(rises) + 1, horizon + 1), n)
        packed = _pack(fresh.reshape(-1, *chain.odds.shape) < chain.odds).tolist()
        rises += [[r | r << h + 1 for r in row] for row in packed]
        state = start
        for t in range(horizon, 0, -1):
            state = _sweep(state, rises[t - 1])
        total += horizon
        if all(c & (1 << h) - 1 == c >> h + 1 for c in state):
            return CftpResult(chain.occupied(_unpack(state, h)), epochs, total)
        horizon *= 2
    raise CoalescenceTimeout(f"{box.width}x{h} box: no coalescence in {epochs} epochs, the last from "
                             f"{horizon // 2} sweeps back, {total} pair sweeps in all (max_sweeps={max_sweeps})")
