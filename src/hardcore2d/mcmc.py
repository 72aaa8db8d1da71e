"""Heat-bath dynamics, monotone coupling, and coupling from the past.

The heat-bath move at a site resamples its occupation from the conditional
law: forced empty when a neighbour (frame included) is occupied, otherwise
occupied with odds activity : 1.  A sweep visits the box in lexicographic
order.  Two chains driven by the same uniforms preserve the two-sided order
"more even occupation and less odd occupation", whose extremes are the full
live even set and the full live odd set; running the coupled pair from the
past until the extremes merge yields an exact sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import ActivityField, ReplicaSeed
from .errors import CoalescenceTimeout
from .lattice import (
    BoundaryCondition,
    FREE_BC,
    LatticeBox,
    Site,
    as_boundary_condition,
    is_even,
)

_M64 = (1 << 64) - 1
_TIME_SALT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class Configuration:
    """An occupation pattern on a box."""

    box: LatticeBox
    occupied: frozenset[Site]


@dataclass(frozen=True)
class MonotonePair:
    """Coupled chains sandwiching the target: lower is odd-rich, upper even-rich."""

    lower: Configuration
    upper: Configuration


def sandwich_ordered(lower: Configuration, upper: Configuration) -> bool:
    """lower's even sites inside upper's, upper's odd sites inside lower's."""
    lo_e = {v for v in lower.occupied if is_even(v)}
    up_e = {v for v in upper.occupied if is_even(v)}
    lo_o = lower.occupied - lo_e
    up_o = upper.occupied - up_e
    return lo_e <= up_e and up_o <= lo_o


class GlauberChain:
    """Reusable heat-bath kernel for one (box, field, bc) triple.

    State grids are boolean arrays padded by one ring that carries the frame
    occupation, so neighbour checks never branch on the border.
    """

    def __init__(
        self,
        box: LatticeBox,
        field: ActivityField,
        bc: "BoundaryCondition | str" = FREE_BC,
    ):
        bc = as_boundary_condition(bc)
        self.box = box
        w, h = box.width, box.height
        acts = np.array(
            [[field.activity_at((x, y)) for y in range(box.y_min, box.y_max + 1)]
             for x in range(box.x_min, box.x_max + 1)]
        )
        self.odds = acts / (1.0 + acts)  # occupation probability given free nbrs
        self.frame = np.zeros((w + 2, h + 2), dtype=bool)
        for u in bc.frame_occupied(box, field.is_live):
            self.frame[u[0] - box.x_min + 1, u[1] - box.y_min + 1] = True
        self._even = np.fromfunction(
            lambda i, j: (i + j + box.x_min + box.y_min) % 2 == 0, (w, h)
        )

    # -- state conversions ---------------------------------------------------

    def grid_of(self, config: Configuration) -> np.ndarray:
        g = self.frame.copy()
        for v in config.occupied:
            if not self.box.contains(v):
                raise ValueError("occupied site outside the box")
            g[v[0] - self.box.x_min + 1, v[1] - self.box.y_min + 1] = True
        return g

    def config_of(self, grid: np.ndarray) -> Configuration:
        occ = frozenset(
            (self.box.x_min + ix, self.box.y_min + iy)
            for ix in range(self.box.width)
            for iy in range(self.box.height)
            if grid[ix + 1, iy + 1]
        )
        return Configuration(self.box, occ)

    def extremes(self) -> MonotonePair:
        """Maximal live even set (upper) and maximal live odd set (lower)."""
        upper = self._extreme(even_rich=True)
        lower = self._extreme(even_rich=False)
        return MonotonePair(lower=lower, upper=upper)

    def _extreme(self, even_rich: bool) -> Configuration:
        f = self.frame
        blocked = f[:-2, 1:-1] | f[2:, 1:-1] | f[1:-1, :-2] | f[1:-1, 2:]
        grid = np.zeros_like(f)
        grid[1:-1, 1:-1] = (self.odds > 0.0) & (self._even == even_rich) & ~blocked
        return self.config_of(grid)

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

    def sweep_config(self, config: Configuration, rng: np.random.Generator) -> Configuration:
        grid = self.grid_of(config)
        self.sweep_grid(grid, rng.random(self.box.site_count))
        return self.config_of(grid)

    def sweep_pair(self, pair: MonotonePair, rng: np.random.Generator) -> MonotonePair:
        """Advance both chains with one shared uniform per site."""
        u = rng.random(self.box.site_count)
        lo, up = self.grid_of(pair.lower), self.grid_of(pair.upper)
        self.sweep_grid(lo, u)
        self.sweep_grid(up, u)
        out = MonotonePair(self.config_of(lo), self.config_of(up))
        if not sandwich_ordered(out.lower, out.upper):
            raise RuntimeError("monotone coupling lost its order; kernel bug")
        return out

    def run_occupation(
        self, sweeps: int, burn_in: int, rng: np.random.Generator
    ) -> dict[Site, float]:
        """Per-site occupation frequency of a single long run."""
        grid = self.grid_of(self.extremes().upper)
        counts = np.zeros((self.box.width, self.box.height))
        n = self.box.site_count
        for t in range(burn_in + sweeps):
            self.sweep_grid(grid, rng.random(n))
            if t >= burn_in:
                counts += grid[1:-1, 1:-1]
        counts /= sweeps
        return {
            (self.box.x_min + ix, self.box.y_min + iy): float(counts[ix, iy])
            for ix in range(self.box.width)
            for iy in range(self.box.height)
        }


@dataclass(frozen=True)
class CftpResult:
    configuration: Configuration
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
    start = chain.extremes()
    n = box.site_count
    total = 0
    epochs = 0
    horizon = 1
    while horizon <= max_sweeps:
        epochs += 1
        lo, up = chain.grid_of(start.lower), chain.grid_of(start.upper)
        for t in range(horizon, 0, -1):
            u = _time_uniforms(seed, t, n)
            chain.sweep_grid(lo, u)
            chain.sweep_grid(up, u)
            total += 1
        if np.array_equal(lo, up):
            return CftpResult(chain.config_of(lo), epochs, total)
        horizon *= 2
    raise CoalescenceTimeout(f"no coalescence within {max_sweeps} sweeps")
