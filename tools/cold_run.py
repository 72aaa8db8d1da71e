"""Time one `hardcore` command in five fresh processes for one source tree.

Usage: python tools/cold_run.py SRC_DIR ARGS...

Runs ``python -m hardcore2d.cli ARGS`` five times in turn, with PYTHONPATH=SRC_DIR
and HARDCORE_SEED removed from the environment and stdout discarded, and prints
one line: the exit code (every distinct one, if the runs disagree), the median
wall time in ms, and the largest peak RSS of a child in MB (ru_maxrss / 1024,
as perfbench reports it), read from ``os.wait4``. Imports count, so this is the
cost a user pays per command:

    python tools/cold_run.py src validate
    python tools/cold_run.py src free-energy --j 2 --L 4 --replicas 100 --disorder uniform:0,2 --lambda 4
"""
import os
import statistics
import subprocess
import sys
import time

RUNS = 5


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not os.path.isdir(argv[0]):
        print(__doc__, file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "HARDCORE_SEED"}
    env["PYTHONPATH"] = os.path.abspath(argv[0])
    codes, walls, peaks = set(), [], []
    for _ in range(RUNS):
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "hardcore2d.cli", *argv[1:]], env=env,
                                 stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        walls.append(time.perf_counter() - start)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here; keeps Popen from waiting again
        codes.add(child.returncode)
        peaks.append(usage.ru_maxrss / 1024.0)
    exits = ",".join(map(str, sorted(codes)))
    print(f"exit {exits}  median {statistics.median(walls) * 1e3:.0f} ms  peak {max(peaks):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
