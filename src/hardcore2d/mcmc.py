"""Heat-bath dynamics, monotone coupling, and coupling from the past.

The heat-bath move at a site resamples its occupation from the conditional
law: forced empty when a neighbour is occupied, otherwise occupied with odds
activity : 1.  The frame enters as zero activity, as in the transfer scan: an
occupied frame site touches exactly one box site, which it forces empty
(``engine.box_activities``).  A sweep visits the box in lexicographic order.
Two chains driven by the same uniforms preserve the two-sided order "more
even occupation and less odd occupation", whose extremes are the full
unblocked live even set and odd set; running the coupled pair from the past
until the extremes merge yields an exact sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import ActivityField, ReplicaSeed
from .engine import box_activities
from .errors import CoalescenceTimeout
from .lattice import BoundaryCondition, FREE_BC, LatticeBox, Site

_M64 = (1 << 64) - 1
_TIME_SALT = 0x9E3779B97F4A7C15


class GlauberChain:
    """Reusable heat-bath kernel for one (box, field, bc) triple.

    A state is a boolean grid padded by one empty ring, so neighbour checks
    never branch on the border.
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
        self._even = np.fromfunction(
            lambda i, j: (i + j + box.x_min + box.y_min) % 2 == 0, acts.shape
        )

    def extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper): the maximal unblocked live odd and even sets."""
        live = self.odds > 0.0
        return np.pad(live & ~self._even, 1), np.pad(live & self._even, 1)

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
        odds = self.odds
        k = 0
        for ix in range(self.box.width):
            i = ix + 1
            row = odds[ix]
            for iy in range(self.box.height):
                j = iy + 1
                if grid[i - 1, j] or grid[i + 1, j] or grid[i, j - 1] or grid[i, j + 1]:
                    grid[i, j] = False
                else:
                    grid[i, j] = uniforms[k] < row[iy]
                k += 1

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


def _time_uniforms(seed: ReplicaSeed, t: int, n: int) -> np.ndarray:
    # one fixed uniform array per past time t >= 1, independent of the epoch
    key = np.array(
        [seed.master_seed & _M64, (seed.replica_index ^ _TIME_SALT) & _M64],
        dtype=np.uint64,
    )
    counter = np.array([0, 0, t & _M64, 1], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return gen.random(n)


def cftp_sample(
    box: LatticeBox,
    field: ActivityField,
    bc: "BoundaryCondition | str" = FREE_BC,
    seed: "ReplicaSeed | int" = 0,
    max_sweeps: int = 1 << 16,
) -> CftpResult:
    """Exact sample by coupling from the past with epoch doubling.

    Epoch k restarts the extreme pair at time -2^k and replays the same
    per-time uniforms; on coalescence at time 0 the common state is an exact
    draw.  Exceeding the sweep cap raises CoalescenceTimeout -- there is no
    approximate fallback.
    """
    if not isinstance(seed, ReplicaSeed):
        seed = ReplicaSeed(int(seed))
    chain = GlauberChain(box, field, bc)
    lower, upper = chain.extremes()
    n = box.site_count
    total = 0
    epochs = 0
    horizon = 1
    while horizon <= max_sweeps:
        epochs += 1
        lo, up = lower.copy(), upper.copy()
        for t in range(horizon, 0, -1):
            u = _time_uniforms(seed, t, n)
            chain.sweep_grid(lo, u)
            chain.sweep_grid(up, u)
            total += 1
        if np.array_equal(lo, up):
            return CftpResult(chain.occupied(lo), epochs, total)
        horizon *= 2
    raise CoalescenceTimeout(f"no coalescence within {max_sweeps} sweeps")
