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
runs that begin on an even bit carries through exactly those runs.

The coupled pair is the only chain state: one integer per column, lower in
bits 0..H-1, a zero guard bit at H that keeps the halves' runs apart, upper in
bits H+1..2H.  A single chain is a pair with equal halves, which the sweep
keeps equal because both halves see the same uniforms.  So the monotone check
(``validation.check_monotone_order``) sweeps exactly the pair CFTP sweeps.

CFTP drives past time -t of a draw keyed ReplicaSeed(master, replica) with
``Generator(Philox(key=[master, replica ^ 0x9E3779B97F4A7C15], counter=[0, 0,
t, 1])).random(site_count)`` of numpy, keys wrapped to uint64: uniform k goes
to the k-th site of the sweep (column by column, bottom to top), and every
epoch replays the same uniforms.  One Philox stream per draw reads them: the
raw words of time t, then an advance to counter [0, 0, t + 1, 1].
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
    """Reusable heat-bath kernel for one (box, field, bc) triple.  Its one state
    is the packed pair of the module docstring; a single chain is a pair with
    equal halves."""

    def __init__(
        self,
        box: LatticeBox,
        field: ActivityField,
        bc: "BoundaryCondition | str" = FREE_BC,
    ):
        self.box = box
        acts = box_activities(box, field, bc)
        self.odds = acts / (1.0 + acts)  # occupation probability given free nbrs
        self._even = _pack(np.add(*box.coords()) % 2 == 0).tolist()
        self._low, self._shift = (1 << box.height) - 1, box.height + 1

    def extremes(self) -> list[int]:
        """The pair of the maximal unblocked live odd (lower) and even (upper) sets."""
        live = zip(_pack(self.odds > 0.0).tolist(), self._even)
        return [c & ~e | (c & e) << self._shift for c, e in live]

    def ordered(self, pair: list[int]) -> bool:
        """lower's even sites inside upper's, upper's odd sites inside lower's."""
        low, s = self._low, self._shift
        return not any(c & low & ~(c >> s) & e | c >> s & ~c & ~e for c, e in zip(pair, self._even))

    def occupied(self, pair: list[int]) -> frozenset[Site]:
        """The box sites the pair's lower half occupies."""
        lower = np.array([c & self._low for c in pair], dtype=np.uint64)
        xs, ys = np.nonzero(lower[:, None] >> np.arange(self.box.height, dtype=np.uint64) & 1)
        return frozenset(zip((xs + self.box.x_min).tolist(), (ys + self.box.y_min).tolist()))

    # -- dynamics ------------------------------------------------------------

    def rises(self, uniforms: np.ndarray) -> list[list[int]]:
        """The pair's packed u < odds, one row per time of site_count uniforms."""
        packed = _pack(uniforms.reshape(-1, *self.odds.shape) < self.odds).tolist()
        return [[r | r << self._shift for r in row] for row in packed]

    def sweep_pair(self, pair: list[int], rng: np.random.Generator) -> list[int]:
        """The pair after one sweep with one shared uniform per site."""
        pair = _sweep(pair, self.rises(rng.random(self.box.site_count))[0])
        if not self.ordered(pair):
            raise RuntimeError("monotone coupling lost its order; kernel bug")
        return pair

    def run_occupation(
        self, sweeps: int, burn_in: int, rng: np.random.Generator
    ) -> dict[Site, float]:
        """Per-site occupation frequency of a single long run from the even set."""
        if sweeps < 1 or burn_in < 0:
            raise ValueError("run_occupation needs sweeps >= 1 and burn_in >= 0")
        pair = [up | up << self._shift for up in (c >> self._shift for c in self.extremes())]
        counts = dict.fromkeys(self.box.sites(), 0)
        for t in range(burn_in + sweeps):
            pair = self.sweep_pair(pair, rng)
            if t >= burn_in:
                for v in self.occupied(pair):
                    counts[v] += 1
        return {v: c / sweeps for v, c in counts.items()}


@dataclass(frozen=True)
class CftpResult:
    occupied: frozenset[Site]
    epochs: int
    sweeps_used: int


def _pack(bits: np.ndarray) -> np.ndarray:
    """Columns as integers: bit r of entry [..., x] is bits[..., x, r]."""
    return (bits << np.arange(bits.shape[-1], dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)


def _sweep(cols: list[int], rises: list[int]) -> list[int]:
    """One lexicographic heat-bath sweep of packed columns; ``rises`` packs u < odds."""
    new, left = [], 0
    for rise, old, right in zip(rises, cols, cols[1:] + [0]):
        a = rise & ~(left | right | old >> 1)
        c = a + (a & ~(a << 1) & _EVEN)
        left = a & (~c & _EVEN | c & _EVEN << 1)
        new.append(left)
    return new


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
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if not isinstance(seed, ReplicaSeed):
        seed = ReplicaSeed(int(seed))
    chain = GlauberChain(box, field, bc)
    start = chain.extremes()
    key = np.array([seed.master_seed & _M64, (seed.replica_index ^ _TIME_SALT) & _M64], dtype=np.uint64)
    bits = np.random.Philox(key=key, counter=[0, 0, 1, 1])  # at time 1
    n = box.site_count
    skip = (1 << 128) - -(-n // 4)  # from time t's last block to counter [0, 0, t + 1, 1]
    rises: list[list[int]] = []  # rises[t - 1]: the pair's packed u < odds at time -t
    total = epochs = 0
    horizon = 1
    while horizon <= max_sweeps:
        epochs += 1
        raw = []
        for _ in range(len(rises), horizon):
            raw.append(bits.random_raw(n))
            bits.advance(skip)  # which also drops the block's unread lanes
        rises += chain.rises((np.array(raw) >> 11) * 2.0**-53)  # the doubles Generator.random makes
        state = start
        for t in range(horizon, 0, -1):
            state = _sweep(state, rises[t - 1])
        total += horizon
        if all(c & chain._low == c >> chain._shift for c in state):  # the halves merged
            return CftpResult(chain.occupied(state), epochs, total)
        horizon *= 2
    raise CoalescenceTimeout(f"{box.width}x{box.height} box: no coalescence in {epochs} epochs, the last from "
                             f"{horizon // 2} sweeps back, {total} pair sweeps in all (max_sweeps={max_sweeps})")
