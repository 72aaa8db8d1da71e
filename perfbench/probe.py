"""Set-up probe: a fresh interpreter imports hardcore2d from ``src/`` and runs
one checked warm-up op.  Exits 0 when the warm-up output is right.

The benchmark times whole probe processes for its ``setup_s`` metric, and
runs ``warm_up()`` once in its own process before it measures.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEED_ENV = "HARDCORE_SEED"  # the CLI lets it override --seed; the benchmark drops it
WARMUP_SIDE = 6


def use_source_tree() -> None:
    """Import hardcore2d from ``src/``, with the benchmark's environment.

    Call before anything imports numpy.  OpenBLAS is held to one thread:
    with its default of one thread per core, the side-16 dense matvec ran
    up to 4x slower whenever the other core was busy, and one thread is as
    fast when it is idle.
    """
    if not (SRC / "hardcore2d" / "__init__.py").is_file():
        raise SystemExit(f"error: no hardcore2d package under {SRC}")
    os.environ.pop(SEED_ENV, None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))


def warm_up() -> str | None:
    """log Z of the free constant-1 box against the oracle's independent-set
    count; None when they agree, else why not."""
    from hardcore2d import cli
    from hardcore2d.oracle import grid_independent_set_count

    side = WARMUP_SIDE
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["logz", "--box", f"{side}x{side}", "--field", "constant:1", "--bc", "free"])
    if rc != 0:
        return f"warm-up exited {rc}"
    want = math.log(grid_independent_set_count(side, side))
    got = float(out.getvalue())
    return None if abs(got - want) <= 1e-9 * want else f"warm-up log Z {got!r} != {want!r}"


if __name__ == "__main__":
    use_source_tree()
    problem = warm_up()
    if problem:
        print(problem, file=sys.stderr)
    sys.exit(1 if problem else 0)
