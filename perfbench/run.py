"""Benchmark of hardcore2d, driven through ``hardcore2d.cli.main`` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's ops in a closed loop (the next op
starts when the last one returns), each op with ``--workers`` left at 1,
until ``--seconds`` have passed and every kind of op has run at least once.
Every op's output is checked (see ``workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` each op runs twice, plain and
then with spans around the package's public functions, and the metrics are
the per-layer ones.  Two JSON lines before it record the machine and the
per-kind figures.  See README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import probe
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# The reference loop and the length of a reference second.  A reference
# second holds REF_LOOPS_PER_S iterations: about one wall second on an
# uncontended core of the 2-core machine the bounds were set on.
REF_LOOPS = 1_000_000
REF_LOOPS_PER_S = 16_000_000


def reference_loop() -> float:
    """Wall seconds of REF_LOOPS iterations of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i
    return time.perf_counter() - start


class ReferenceClock:
    """Converts a wall interval into reference seconds.

    On a shared machine the speed a process gets swings by up to ~1.7x over
    tens of seconds.  Timing the reference loop right before and right after
    each interval, and dividing by it, cancels most of that swing; the
    quotient is scaled to seconds by REF_LOOPS_PER_S.
    """

    def __init__(self) -> None:
        self.last = reference_loop()

    def convert(self, wall: float) -> float:
        """Call right after the interval ends; runs the next loop."""
        after = reference_loop()
        per_loop = 0.5 * (self.last + after)
        self.last = after
        return wall * REF_LOOPS / (REF_LOOPS_PER_S * per_loop)


@dataclass
class Outcome:
    wall: float
    ref_s: float
    problem: str | None
    csv_bytes: int


class Runner:
    """Runs one op through the CLI entry point and checks what it wrote."""

    def __init__(self, outdir: Path, refs: dict, clock: ReferenceClock):
        self.csv_path = outdir / "op.csv"
        self.refs = refs
        self.clock = clock

    def run(self, op: wl.Op, tracer: spans.Tracer | None = None) -> Outcome:
        from hardcore2d import cli

        argv = list(op.argv)
        if op.kind.writes_csv:
            argv += ["--out", str(self.csv_path)]
        self.csv_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        installed = tracer.installed() if tracer else contextlib.nullcontext()
        with installed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:
                rc = traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
        ref_s = self.clock.convert(wall)
        if rc != 0:
            return Outcome(wall, ref_s, f"exit {rc}: {err.getvalue().strip()}", 0)
        body = self.csv_path.read_text(encoding="utf-8") if op.kind.writes_csv else ""
        try:
            problem = wl.check(op, out.getvalue(), body, self.refs)
        except Exception as exc:  # unparsable output is a failed op, not a crash
            problem = f"output check raised {exc!r}"
        return Outcome(wall, ref_s, problem, len(body.encode("utf-8")))


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)


def measure_setup(clock: ReferenceClock, tally: Tally, probes: int) -> tuple[float, float]:
    """Median set-up time of fresh interpreters that import and warm up, in
    reference seconds and in wall seconds."""
    ref, wall = [], []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        wall.append(time.perf_counter() - start)
        ref.append(clock.convert(wall[-1]))
        tally.add("set-up probe", (proc.stderr.strip() or f"exit {proc.returncode}") if proc.returncode else None)
    return statistics.median(ref), statistics.median(wall)


class Timings:
    """Op times per kind, in reference and in wall seconds."""

    def __init__(self, kinds) -> None:
        self.kinds = kinds
        self.ref = {k.name: [] for k in kinds}
        self.wall = {k.name: [] for k in kinds}

    def add(self, op: wl.Op, res: Outcome) -> None:
        self.ref[op.kind.name].append(res.ref_s)
        self.wall[op.kind.name].append(res.wall)

    def rates(self, times: dict[str, list[float]]) -> dict[str, float]:
        """Work units per second per kind: over all of a throughput kind's
        ops, and from the median op for a kind timed per op."""
        out = {}
        for kind in self.kinds:
            t = times[kind.name]
            if t:
                out[kind.name] = kind.units * (len(t) / math.fsum(t) if kind.rate else 1 / statistics.median(t))
        return out

    def figures(self, times: dict[str, list[float]]) -> dict[str, float]:
        """Per kind: its throughput, or its median op seconds."""
        by_name = {k.name: k for k in self.kinds}
        return {name: r if by_name[name].rate else by_name[name].units / r
                for name, r in self.rates(times).items()}


def run_plain(kinds, ops, runner, seconds, tally) -> Timings:
    timings = Timings(kinds)
    start, n = time.perf_counter(), 0
    while n < len(kinds) or time.perf_counter() - start < seconds:
        op = next(ops)
        res = runner.run(op)
        tally.add(op.key, res.problem)
        if not res.problem:
            timings.add(op, res)
        n += 1
    return timings


def run_traced(workload, kinds, ops, runner, seconds, tally):
    """Each op plain, then traced, for at least two cycles.  The first
    cycle's traced ops give the per-layer totals, so counts repeat exactly
    for a fixed seed.  Later pairs give traced/plain time ratios; the first
    cycle's would be skewed by per-height caches the plain run fills."""
    tracer, summary = spans.Tracer(), spans.Summary()
    timings = Timings(kinds)
    ratios, csv_bytes = [], []
    start, n = time.perf_counter(), 0
    while n < 2 * len(kinds) or time.perf_counter() - start < seconds:
        op = next(ops)
        plain = runner.run(op)
        tally.add(op.key, plain.problem)
        tracer.clear()
        traced = runner.run(op, tracer)
        first_cycle = n < len(kinds)
        unsound = tracer.check_and_add(summary if first_cycle else spans.Summary(), traced.wall)
        tally.add(f"traced {op.key}", traced.problem or unsound)
        if not plain.problem:
            timings.add(op, plain)
        if first_cycle:
            csv_bytes.append(traced.csv_bytes)
        elif not plain.problem:
            ratios.append(traced.ref_s / plain.ref_s)
        n += 1
    missing = [name for name in spans.REQUIRED[workload] if summary.calls[name] == 0]
    tally.add("required spans", f"never fired: {', '.join(missing)}" if missing else None)
    overhead = statistics.median(ratios) if ratios else 0.0
    return timings, spans.per_layer_metrics(summary, statistics.fmean(csv_bytes), overhead)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_threads() -> int | str:
    """Thread count of numpy's bundled OpenBLAS (it defaults to the cores)."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine_facts(args) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
    }


def run_benchmark(workload, seed, seconds, trace, kinds=None, refs=None, probes=SETUP_PROBES):
    """Run one workload; returns the result object and the per-kind figures
    (reference-second figures under "kinds", wall-second ones under "wall")."""
    kinds = kinds or wl.WORKLOADS[workload]
    refs = wl.load_references() if refs is None else refs
    tally = Tally()
    clock = ReferenceClock()
    setup_s, setup_wall = measure_setup(clock, tally, probes)
    tally.add("warm-up", probe.warm_up())
    ops = wl.ops(kinds, seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), refs, clock)
        if trace:
            timings, metrics = run_traced(workload, kinds, ops, runner, seconds, tally)
        else:
            timings = run_plain(kinds, ops, runner, seconds, tally)
    if not trace:
        rates = timings.rates(timings.ref).values()
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
            "work_per_s": (math.exp(statistics.fmean(map(math.log, rates))) if rates else 0.0, "1/s"),
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    figures = {
        "kinds": timings.figures(timings.ref),
        "wall": {**timings.figures(timings.wall), "setup_s": setup_wall},
    }
    return result, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    probe.use_source_tree()
    result, figures = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"facts": machine_facts(args)}))
    print(json.dumps(figures))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
