"""Heat-bath dynamics, monotone coupling, and coupling from the past.

The heat-bath move at a site resamples its occupation from the conditional
law: forced empty when a neighbour is occupied, otherwise occupied with odds
activity : 1.  The frame enters as zero activity, as in the transfer scan: an
occupied frame site touches exactly one box site, which it forces empty
(``engine.box_activities(box, [field], bc)[0]``).  A sweep visits the box in
lexicographic order.  Two chains driven by the same uniforms preserve the
two-sided order "more even occupation and less odd occupation", whose extremes
are the full unblocked live even set and odd set; running the coupled pair
from the past until the extremes merge yields an exact sample (Propp-Wilson,
Random Struct. Alg. 9, 1996; Haggstrom-Nelander, Stat. Neerl. 53, 1999).

The sweep runs on columns packed as integers, bit r for row r.  In
lexicographic order site r of column x sees its left and lower neighbours
already updated and its right and upper ones not yet, so new[r] = a[r] &
~new[r - 1] with a = (u < odds) & ~(left_new | right_old | old >> 1).  Inside
each run of set bits of a, new therefore keeps the bits at even offsets from
the run's start, so a whole column updates at once: adding the starts of the
runs that begin on an even bit clears just those runs: new = a & (sum ^ EVEN).

The coupled pair is the only chain state: one integer per column, lower in
bits 0..H-1, a zero guard bit at H that keeps the halves' runs apart, upper in
bits H+1..2H.  A draw is the merged pair's lower halves (lattice.draw_sites).
The monotone check (``validation.check_monotone_order``) sweeps the pair with
the kernel CFTP runs, ``_sweep`` of ``rises``, and tests ``ordered`` after
every sweep.

CFTP drives past time -t of a draw keyed ReplicaSeed(master, replica) with
``Generator(Philox(key=[master, replica ^ 0x9E3779B97F4A7C15], counter=[0, 0,
t, 1])).random(site_count)`` of numpy, keys wrapped to uint64: uniform k goes
to the k-th site of the sweep (column by column, bottom to top), and every
epoch replays the same uniforms.  One Philox per thread reads them, kept with
its Generator and a fresh state dict: a draw writes its key into the dict, and
for each new time t the state is reset to that of a fresh Philox at counter
[0, 0, t, 1], so no Philox is constructed per draw and no thread shares one.
An epoch reads its new times in blocks of at most engine._CHUNK_ENTRIES
uniforms; the chain keeps that block size and the start pair every epoch starts
from.

``cftp_sample`` reuses its last call's chain for the same field object (fields
are immutable), an equal box and an equal frame: 499 of the 500 calls of
``sample --method cftp --draws 500``, 1999 of the 2000 of ``validate``'s CFTP
check.  The memo is one tuple, read once per call and replaced whole.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .disorder import ActivityField, ReplicaSeed
from .engine import _CHUNK_ENTRIES, box_activities
from .errors import CoalescenceTimeout
from .lattice import MAX_SIDE, BoundaryCondition, FREE_BC, LatticeBox

_M64 = (1 << 64) - 1
_TIME_SALT = 0x9E3779B97F4A7C15
_EVEN = int("01" * (MAX_SIDE + 1), 2)  # the even bits of a packed pair
_BITS = 1 << np.arange(MAX_SIDE, dtype=np.uint64)  # bit r of a packed column
_MAX_SWEEPS = 1 << 16  # the farthest back a CFTP epoch starts
_last: tuple = (None, None, None, None)  # (field, box, bc, chain) of the last cftp_sample call
_local = threading.local()  # .philox: this thread's (Philox, Generator, fresh state dict)


class GlauberChain:
    """Reusable heat-bath kernel for one (box, field, bc) triple.  Its one state
    is the packed pair of the module docstring."""

    def __init__(
        self,
        box: LatticeBox,
        field: ActivityField,
        bc: "BoundaryCondition | str" = FREE_BC,
    ):
        acts = box_activities(box, [field], bc)[0]
        self.odds = acts / (1.0 + acts)  # occupation probability given free nbrs
        self._even = _pack(np.add(*box.coords()) % 2 == 0).tolist()
        self._low, self._shift = (1 << box.height) - 1, box.height + 1
        # the maximal unblocked live odd (lower) and even (upper) sets; _sweep returns new lists, so never mutated
        self.start = [c & ~e | (c & e) << self._shift for c, e in zip(_pack(self.odds > 0.0).tolist(), self._even)]
        self.block = max(1, _CHUNK_ENTRIES // box.site_count)  # new times read at once: at most 512 KiB of uniforms

    def ordered(self, pair: list[int]) -> bool:
        """lower's even sites inside upper's, upper's odd sites inside lower's."""
        low, s = self._low, self._shift
        return not any(c & low & ~(c >> s) & e | c >> s & ~c & ~e for c, e in zip(pair, self._even))

    # -- dynamics ------------------------------------------------------------

    def rises(self, uniforms: np.ndarray) -> list[list[int]]:
        """The pair's packed u < odds, one row per time of site_count uniforms."""
        packed = _pack(uniforms.reshape(-1, *self.odds.shape) < self.odds).astype(object)
        return (packed * (1 + (1 << self._shift))).tolist()  # r | r << shift, as Python ints


@dataclass(frozen=True)
class CftpResult:
    columns: tuple[int, ...]  # packed, as Python ints: a column of 64 rows does not fit an int64
    epochs: int
    sweeps_used: int


def _pack(bits: np.ndarray) -> np.ndarray:
    """Columns as integers: bit r of entry [..., x] is bits[..., x, r]."""
    return bits @ _BITS[: bits.shape[-1]]


def _sweep(cols: list[int], rises: list[int]) -> list[int]:
    """One lexicographic heat-bath sweep of packed columns; ``rises`` packs u < odds."""
    new, left = [], 0
    for rise, old, right in zip(rises, cols, cols[1:] + [0]):
        a = rise & ~(left | right | old >> 1)
        c = a + (a & ~(a << 1) & _EVEN)
        left = a & (c ^ _EVEN)
        new.append(left)
    return new


def cftp_sample(
    box: LatticeBox,
    field: ActivityField,
    bc: "BoundaryCondition | str" = FREE_BC,
    seed: ReplicaSeed = ReplicaSeed(0),
) -> CftpResult:
    """Exact sample by coupling from the past with epoch doubling.

    Epoch k restarts the extreme pair at time -2^(k-1) and replays the same
    per-time uniforms; on coalescence at time 0 the common state is an exact
    draw.  _MAX_SWEEPS caps the horizon (how far back an epoch starts), so
    up to 2 * _MAX_SWEEPS - 1 pair sweeps run in all.  Exceeding it raises
    CoalescenceTimeout -- there is no approximate fallback.
    """
    global _last
    last_field, last_box, last_bc, chain = _last  # one read: a concurrent call replaces the whole tuple
    if last_field is not field or last_box != box or last_bc != bc:
        chain = GlauberChain(box, field, bc)
        _last = (field, box, bc, chain)
    if not hasattr(_local, "philox"):
        bits = np.random.Philox(key=0, counter=[0, 0, 0, 1])
        _local.philox = bits, np.random.Generator(bits), bits.state
    bits, gen, fresh = _local.philox
    fresh["state"]["key"] = np.array([seed.master_seed & _M64, (seed.replica_index ^ _TIME_SALT) & _M64], np.uint64)
    rises: list[list[int]] = []  # rises[t - 1]: the pair's packed u < odds at time -t
    total = epochs = 0
    horizon = 1
    while horizon <= _MAX_SWEEPS:
        epochs += 1
        for first in range(len(rises) + 1, horizon + 1, chain.block):
            uniforms = np.empty((min(chain.block, horizon + 1 - first), box.site_count))
            for t, row in enumerate(uniforms, first):
                fresh["state"]["counter"][2] = t
                bits.state = fresh  # Philox(key, counter=[0, 0, t, 1]) as constructed
                gen.random(out=row)
            rises += chain.rises(uniforms)
        state = chain.start
        for t in range(horizon, 0, -1):
            state = _sweep(state, rises[t - 1])
        total += horizon
        if all(c & chain._low == c >> chain._shift for c in state):  # the halves merged
            return CftpResult(tuple(c & chain._low for c in state), epochs, total)
        horizon *= 2
    raise CoalescenceTimeout(f"{box.width}x{box.height} box: no coalescence in {epochs} epochs, the last from "
                             f"{horizon // 2} sweeps back, {total} pair sweeps in all")
