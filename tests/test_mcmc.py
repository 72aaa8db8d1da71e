"""Heat-bath dynamics, monotone coupling, and perfect sampling."""
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats

from hardcore2d import mcmc, validation
from hardcore2d.disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field
from hardcore2d.engine import MAX_HEIGHT, log_partition, sample_exact
from hardcore2d.errors import CapacityError, CoalescenceTimeout
from hardcore2d.lattice import (
    EVEN_BC, FREE_BC, MAX_SIDE, LatticeBox, box_lambda, centered_box, draw_sites, is_even, neighbours)
from hardcore2d.mcmc import GlauberChain, cftp_sample
from hardcore2d.oracle import enumerate_independent_sets
from hardcore2d.validation import _chi2_p, check_cftp_exactness, check_monotone_order


def uniform_field(box, value=1.0, scale=1.0):
    return ActivityField(box, np.full((box.width, box.height), float(value)), scale)


def sandwiched(lower, upper):
    """lower's even sites inside upper's, upper's odd sites inside lower's."""
    return ({v for v in lower if is_even(v)} <= {v for v in upper if is_even(v)}
            and {v for v in upper if not is_even(v)} <= {v for v in lower if not is_even(v)})


def assert_admissible(occ, box, field, bc):
    frame = bc.frame_occupied(box, field.is_live)
    for v in occ:
        assert box.contains(v) and field.is_live(v)
        assert not any(w in occ or w in frame for w in neighbours(v))


def reference_sweep(grid, odds, uniforms):
    """The per-site lexicographic heat-bath sweep on a padded grid, in place."""
    k = 0
    for i in range(1, odds.shape[0] + 1):
        for j in range(1, odds.shape[1] + 1):
            if grid[i - 1, j] or grid[i + 1, j] or grid[i, j - 1] or grid[i, j + 1]:
                grid[i, j] = False
            else:
                grid[i, j] = uniforms[k] < odds[i - 1, j - 1]
            k += 1


def columns(grid):
    """A padded grid's box columns as integers, bit r for row r."""
    return [sum(int(b) << r for r, b in enumerate(col)) for col in grid[1:-1, 1:-1]]


def halves(box, pair):
    """The occupied sets of a pair's lower and upper halves."""
    h = box.height
    lower, upper = [c & (1 << h) - 1 for c in pair], [c >> h + 1 for c in pair]
    return set(draw_sites(box, lower)), set(draw_sites(box, upper))


def test_column_kernel_matches_the_site_loop():
    rng = np.random.default_rng(2024)
    for case in range(48):
        w, h = int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 31, 32, 33, 63, 64]))
        box = centered_box(w, h)
        values = rng.choice([0.0, 0.5, 1.0, 4.0], size=(w, h))  # with dead sites
        chain = GlauberChain(box, ActivityField(box, values, 1.0), ("free", "even", "odd", "empty")[case % 4])
        # arbitrary starting states, mostly not admissible
        lower, upper = (np.pad(rng.random((w, h)) < 0.5, 1) for _ in range(2))
        pair = [lo | up << h + 1 for lo, up in zip(columns(lower), columns(upper))]
        single = [lo | lo << h + 1 for lo in columns(upper)]
        for _ in range(5):
            u = rng.random(box.site_count)
            rises = chain.rises(u)
            assert rises == chain.rises(u[None, :])  # one row per time
            pair, single = mcmc._sweep(pair, rises[0]), mcmc._sweep(single, rises[0])
            reference_sweep(lower, chain.odds, u)
            reference_sweep(upper, chain.odds, u)
            assert [c & (1 << h) - 1 for c in pair] == columns(lower)
            assert [c >> h + 1 for c in pair] == columns(upper)
            assert not any(c >> h & 1 for c in pair)  # the guard bit stays clear
            assert single == [c | c << h + 1 for c in columns(upper)]  # equal halves stay equal
            xs, ys = np.nonzero(lower)
            assert halves(box, pair)[0] == set(zip(xs + box.x_min - 1, ys + box.y_min - 1))


def test_sweep_preserves_independence_and_constraints():
    box = box_lambda(2)
    f = uniform_field(box, value=3.0).with_value((0, 0), 0.0)
    chain = GlauberChain(box, f, EVEN_BC)
    pair = [0] * box.width  # a single chain: both halves empty
    rng = np.random.default_rng(1)
    for _ in range(50):
        pair = mcmc._sweep(pair, chain.rises(rng.random(box.site_count))[0])
        lower, upper = halves(box, pair)
        assert lower == upper
        assert_admissible(lower, box, f, EVEN_BC)


def test_extremes_are_the_unblocked_live_sublattices():
    box = centered_box(5, 4)
    f = sample_field(DisorderSpec("bernoulli", (0.7,)), box.expand(1), 2.0, ReplicaSeed(5, 0))
    frame = EVEN_BC.frame_occupied(box, f.is_live)
    free = {v for v in box.sites() if f.is_live(v) and not any(w in frame for w in neighbours(v))}
    chain = GlauberChain(box, f, EVEN_BC)
    lower, upper = halves(box, chain.start)
    assert upper == {v for v in free if is_even(v)}
    assert lower == {v for v in free if not is_even(v)}


def test_extremes_are_ordered_and_stay_ordered():
    rng = np.random.default_rng(11)
    spec = DisorderSpec("bernoulli", (0.7,))
    for rep in range(5):
        box = centered_box(4, 3)
        f = sample_field(spec, box.expand(1), 6.0, ReplicaSeed(17, rep))
        chain = GlauberChain(box, f, "even")
        pair = chain.start
        lower, upper = halves(box, pair)
        assert sandwiched(lower, upper)
        assert chain.ordered(pair)
        # swapped, the extremes are ordered only when both are empty
        h = box.height
        swapped = [c >> h + 1 | (c & (1 << h) - 1) << h + 1 for c in pair]
        assert chain.ordered(swapped) == (lower == upper)
        for _ in range(60):
            pair = mcmc._sweep(pair, chain.rises(rng.random(box.site_count))[0])
            assert sandwiched(*halves(box, pair))


def test_monotone_check_sees_the_pair_packing(monkeypatch):
    assert check_monotone_order(2000, 20260815 + 9).passed
    init = GlauberChain.__init__

    def guardless(self, *args):
        init(self, *args)
        self._shift -= 1  # upper at bit H: no guard bit between the halves

    monkeypatch.setattr(GlauberChain, "__init__", guardless)
    for seed in (20260815 + 9, 20260816 + 9):
        res = check_monotone_order(2000, seed)
        assert not res.passed and "lost its order" in res.detail


def test_monotone_check_walks_the_pairs_of_per_sweep_uniforms(monkeypatch):
    # the check reads an instance's sweeps as one block; the pairs must be those of one read per sweep
    for total, seed in ((2000, 20260815 + 9), (1100, 5)):  # 8 instances, and 5 with a short last one
        walked = []
        sweep = mcmc._sweep
        monkeypatch.setattr(validation, "_sweep", lambda cols, rises: walked.append(sweep(cols, rises)) or walked[-1])
        assert check_monotone_order(total, seed).passed
        monkeypatch.undo()
        rng, want = np.random.default_rng(seed), []
        while len(want) < total:
            box, field, bc = validation._random_instance(rng, 4, lams=(0.5, 1.0, 5.0, 10.0))
            chain = GlauberChain(box, field, bc)
            pair = chain.start
            for _ in range(min(250, total - len(want))):
                pair = mcmc._sweep(pair, chain.rises(rng.random(box.site_count))[0])
                want.append(pair)
        assert walked == want


def reference_sites(box, columns):
    """draw_sites by its numpy definition: the set bits of each column, in sorted order."""
    packed = np.array(columns, dtype=np.uint64)
    xs, ys = np.nonzero(packed[:, None] >> np.arange(box.height, dtype=np.uint64) & 1)
    return list(zip((xs + box.x_min).tolist(), (ys + box.y_min).tolist()))


@pytest.mark.parametrize("h", [1, 2, 31, 32, 63, MAX_SIDE])
def test_occupied_decodes_the_lower_half(h):
    # draw_sites on the lower halves CftpResult keeps, as Python ints and as int64 below height 64
    rng = random.Random(h)
    for box in (centered_box(3, h), LatticeBox(-9, -7, -h - 4, -5)):  # negative offsets
        full = (1 << h) - 1
        for lower, upper in [(0, 0), (full, 0), (0, full), (full, full)] + [
                (rng.getrandbits(h), rng.getrandbits(h)) for _ in range(30)]:
            pair = [lower >> x | (upper >> x) << h + 1 for x in range(3)]
            columns = [c & full for c in pair]
            want = reference_sites(box, columns)
            assert draw_sites(box, columns) == want
            if h < 64:
                assert draw_sites(box, np.array(columns, dtype=np.int64)) == want


def test_cftp_draws_at_height_64_keep_the_top_row():
    # the lower halves of a 64-row pair pass 2^63: they must stay Python ints, not wrap in an int64
    box = LatticeBox(0, 1, 0, 63)
    f = uniform_field(box, 1.0, 3.0)
    draws = [cftp_sample(box, f, FREE_BC, ReplicaSeed(5, i)) for i in range(20)]
    assert all(type(c) is int and 0 <= c < 1 << 64 for res in draws for c in res.columns)
    assert any(c >> 63 for res in draws for c in res.columns)
    for res in draws:
        assert_admissible(draw_sites(box, res.columns), box, f, FREE_BC)


def test_cftp_reuses_a_chain_only_for_the_same_field_box_and_frame(monkeypatch):
    spec = DisorderSpec("bernoulli", (0.7,))
    f = sample_field(spec, box_lambda(3), 2.0, ReplicaSeed(3, 0))
    twin = ActivityField(f.region, f.values, f.scale)  # equal values, another object
    other = sample_field(spec, box_lambda(3), 2.0, ReplicaSeed(3, 1))
    boxes, fields, frames = (centered_box(4, 3), centered_box(3, 4)), (f, twin, other), ("even", "odd")
    # three orders, in which consecutive calls differ in the field, the frame or the box alone
    calls = [(b, fld, bc, i) for i in range(2) for b in boxes for bc in frames for fld in fields]
    calls += [(b, fld, bc, i) for i in range(2) for b in boxes for fld in fields for bc in frames]
    calls += [(b, fld, bc, i) for i in range(2) for bc in frames for fld in fields for b in boxes]
    alone = []
    for b, fld, bc, i in calls:
        monkeypatch.setattr(mcmc, "_last", (None, None, None, None))  # no chain to reuse
        alone.append(cftp_sample(b, fld, bc, ReplicaSeed(21, i)))
    monkeypatch.setattr(mcmc, "_last", (None, None, None, None))
    assert [cftp_sample(b, fld, bc, ReplicaSeed(21, i)) for b, fld, bc, i in calls] == alone


def test_cftp_is_deterministic_in_the_seed():
    box = centered_box(3, 2)
    f = uniform_field(box, value=2.0)
    a = cftp_sample(box, f, "empty", ReplicaSeed(5, 0))
    b = cftp_sample(box, f, "empty", ReplicaSeed(5, 0))
    assert a.columns == b.columns
    assert a.epochs == b.epochs
    c = cftp_sample(box, f, "empty", ReplicaSeed(5, 1))
    # different replica reads a different driving sequence
    assert (c.columns != a.columns) or c.sweeps_used != a.sweeps_used


def test_cftp_agrees_with_exact_sampler():
    box = centered_box(2, 2)
    f = uniform_field(box)
    states = {s: i for i, s in enumerate(enumerate_independent_sets(box))}
    counts = np.zeros((2, len(states)), dtype=np.int64)
    draws = 3000
    for i in range(draws):
        res = cftp_sample(box, f, "empty", ReplicaSeed(99, i))
        counts[0, states[frozenset(draw_sites(box, res.columns))]] += 1
    for columns in sample_exact(box, f, "empty", np.random.default_rng(99), draws):
        counts[1, states[frozenset(draw_sites(box, columns))]] += 1
    _, p, _, _ = scipy.stats.chi2_contingency(counts)
    assert p > 1e-3


def test_chi_square_p_is_chi2_contingencys():
    rng = np.random.default_rng(3)
    for _ in range(150):
        k = int(rng.integers(3, 21))
        counts = rng.integers(0, int(rng.integers(2, 5000)), size=(2, k))
        counts[:, counts.sum(axis=0) == 0] = 1  # every state drawn by some sampler
        assert _chi2_p(counts) == scipy.stats.chi2_contingency(counts)[1]


def test_cftp_check_refuses_a_state_neither_sampler_drew():
    # 3 + 3 draws cannot cover the 7 states of the 2x2 box; a NaN p would pass min
    with pytest.raises(ValueError):
        check_cftp_exactness(draws=3, seed=1)


def test_cftp_respects_even_frame():
    box = box_lambda(1)
    f = uniform_field(box, value=5.0)
    for i in range(40):
        occ = draw_sites(box, cftp_sample(box, f, "even", ReplicaSeed(13, i)).columns)
        assert not ({(1, 0), (0, 1)} & set(occ))


def test_cftp_timeout_raises(monkeypatch):
    box = centered_box(4, 4)
    f = uniform_field(box, value=30.0)
    # _MAX_SWEEPS caps the horizon: epochs from 1 and 2 sweeps back, 3 pair sweeps
    monkeypatch.setattr(mcmc, "_MAX_SWEEPS", 2)
    msg = r"^4x4 box: no coalescence in 2 epochs, the last from 2 sweeps back, 3 pair sweeps in all$"
    with pytest.raises(CoalescenceTimeout, match=msg):
        cftp_sample(box, f, "empty", ReplicaSeed(1, 0))


def in_new_thread(fn, *args):
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def test_cftp_draws_alike_in_concurrent_threads():
    # two threads share one (box, field, frame) while a third draws on another field, so the memo keeps
    # switching under them; each thread's draws must be those of its seeds drawn alone
    box = centered_box(3, 3)
    shared, other = uniform_field(box, 2.0), uniform_field(box, 0.5)
    jobs = [(shared, 11), (shared, 12), (other, 13)]
    draws = lambda f, master: [cftp_sample(box, f, "empty", ReplicaSeed(master, i)) for i in range(300)]
    want = [draws(f, master) for f, master in jobs]
    barrier = threading.Barrier(len(jobs))

    def together(job):
        barrier.wait()
        return draws(*job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch every few draws
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            got = list(pool.map(together, jobs))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_cftp_constructs_no_philox_per_draw(monkeypatch):
    box = centered_box(2, 2)
    f = uniform_field(box)
    made, philox = [], np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(1) or philox(*a, **k))
    in_new_thread(lambda: [cftp_sample(box, f, "empty", ReplicaSeed(3, i)) for i in range(200)])
    assert len(made) == 1  # the new thread's generator, re-keyed for each of its 200 draws


def test_a_timed_out_draw_leaves_no_generator_state(monkeypatch):
    box = centered_box(4, 4)
    hot, cool = uniform_field(box, 30.0), uniform_field(box, 1.0)

    def after_timeout():
        monkeypatch.setattr(mcmc, "_MAX_SWEEPS", 2)
        with pytest.raises(CoalescenceTimeout):
            cftp_sample(box, hot, "empty", ReplicaSeed(1, 0))
        monkeypatch.undo()
        return cftp_sample(box, cool, "empty", ReplicaSeed(2, 5))

    assert in_new_thread(after_timeout) == in_new_thread(cftp_sample, box, cool, "empty", ReplicaSeed(2, 5))


def reference_time_uniforms(seed, t, n):
    """The uniforms of past time t by definition: one fresh Philox generator."""
    m64 = (1 << 64) - 1
    key = np.array([seed.master_seed & m64, (seed.replica_index ^ mcmc._TIME_SALT) & m64], dtype=np.uint64)
    counter = np.array([0, 0, t, 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).random(n)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 6, 9, 63, 65, 144])
def test_cftp_reads_one_philox_generator_per_past_time(monkeypatch, n):
    # site counts that are not a multiple of 4 leave lanes of a block unread
    w = next(w for w in range(13, 0, -1) if n % w == 0 and n // w <= 12)
    box = centered_box(w, n // w)
    seed = ReplicaSeed(-20260815, 2**62 + 3)
    read = []
    rises = GlauberChain.rises
    monkeypatch.setattr(GlauberChain, "rises", lambda self, u: read.append(u) or rises(self, u))
    monkeypatch.setattr(mcmc, "_sweep", lambda cols, rises: cols)  # the halves never merge
    monkeypatch.setattr(mcmc, "_MAX_SWEEPS", 64)
    with pytest.raises(CoalescenceTimeout, match="in 7 epochs"):
        cftp_sample(box, uniform_field(box, 2.0), FREE_BC, seed)
    assert [len(u) for u in read] == [1, 1, 2, 4, 8, 16, 32]  # the new times of each epoch
    want = np.stack([reference_time_uniforms(seed, t, n) for t in range(1, 65)])
    assert np.concatenate(read).tobytes() == want.tobytes()


def test_cftp_reads_the_uniforms_of_an_epoch_in_bounded_blocks(monkeypatch):
    # the last epoch's 128 new times on 64x64 are 4 MiB of uniforms read at once
    # without blocks; a block holds at most engine._CHUNK_ENTRIES (2^16) of them
    box = centered_box(64, 64)
    monkeypatch.setattr(mcmc, "_MAX_SWEEPS", 256)
    tracemalloc.start()
    try:
        with pytest.raises(CoalescenceTimeout, match="in 9 epochs"):
            cftp_sample(box, uniform_field(box, 1.0, 30.0), FREE_BC, ReplicaSeed(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_cftp_serves_boxes_taller_than_the_scan():
    box = centered_box(2, MAX_HEIGHT + 6)
    f = sample_field(DisorderSpec("bernoulli", (0.7,)), box.expand(1), 1.0, ReplicaSeed(7, 0))
    with pytest.raises(CapacityError):
        log_partition(box, f, EVEN_BC)
    for bc in (FREE_BC, EVEN_BC):
        for i in range(3):
            res = cftp_sample(box, f, bc, ReplicaSeed(7, i))
            assert_admissible(draw_sites(box, res.columns), box, f, bc)


def test_chain_refuses_a_field_that_misses_the_box():
    f = uniform_field(box_lambda(1))
    with pytest.raises(ValueError, match="inside the field region"):
        GlauberChain(box_lambda(2), f)
