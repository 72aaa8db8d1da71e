"""Digest the `hardcore` command line over a fixed set of commands for one source tree.

Usage: python tools/cli_digest.py SRC_DIR

Runs ``python -m hardcore2d.cli ARGS`` for each command below in a temporary
directory, with PYTHONPATH=SRC_DIR and HARDCORE_SEED removed from the
environment (one command sets it), and prints one ``exit sha256(stdout)
sha256(stderr) argv`` line per command. The commands cover the three sweeps
over three replica blocks at one and two workers, the box commands with and
without a CSV on stdout, both samplers, and the input and count errors. Two
trees compare with ``diff``:

    python tools/cli_digest.py parent/src > parent.txt
    python tools/cli_digest.py src > change.txt
    diff parent.txt change.txt
"""
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile

SWEEPS = (
    "influence --sides 4,8 --disorder bernoulli:0.7 --lambda 5",
    "free-energy --j 1 --L 3 --disorder uniform:0,2 --lambda 4",
    "fluctuations --j 1,2 --disorder pareto:2.5,0.5 --lambda 3",
)
BOX = (
    "logz --box 6x5 --field bernoulli:0.7 --lambda 3 --seed 4",
    "occupation --j 3 --site 1,0 --field uniform:0,2 --lambda 2 --bc even --seed 9",
)
OTHERS = (
    "sample --box 5x4 --field bernoulli:0.7 --lambda 2 --draws 20 --method exact --seed 3 --out -",
    "sample --box 5x4 --field bernoulli:0.7 --lambda 2 --draws 20 --method cftp --seed 3 --out -",
    # input errors
    "logz",
    "occupation --j 1 --site 1",
    "influence --sides 3",
    "influence --sides 2,,x",
    "free-energy --j 2 --L 2",
    "fluctuations --j 2 --L 2",
    "fluctuations --j 1 --replicas 2 --disorder bernoulli:0.5,1",
    "fluctuations --j 1 --replicas 2 --disorder uniform:nan,1",
    "fluctuations --j 1 --replicas 2 --disorder constant:-1",
    "fluctuations --j 1 --replicas 2 --disorder gamma:0,1",
    "fluctuations --j 1 --replicas 2 --disorder pareto:0,1",
    "fluctuations --j 1 --replicas 2 --disorder uniform:a,b",
    "occupation --box 3x3 --site 9,9",
    "logz --j 2 --field bernoulli:0.5 --replica-index -1",
    # count errors
    "free-energy --j 1 --L 2 --replicas 1",
    "free-energy --j 1 --L 2 --replicas 0",
    "fluctuations --j 1 --replicas 1",
    "influence --sides 4 --replicas 0",
    "influence --sides 4 --replicas -3",
    "influence --sides 4 --replicas 2 --workers 0",
    "fluctuations --j '' --replicas 2",
    "influence --sides , --replicas 2",
    "sample --box 2x2 --draws 0",
    "sample --box 2x2 --draws -1",
    # two faults at once: the size fault is named
    "influence --sides 3 --replicas 0",
    "influence --sides 3 --workers 0",
    "fluctuations --j 2 --L 2 --replicas 1",
    "fluctuations --j 2 --L 2 --disorder bogus:1",
)
COMMANDS = (
    [({}, f"{sweep} --replicas 130 --workers {w} --out -") for sweep in SWEEPS for w in (1, 2)]
    + [({}, f"{box}{out}") for box in BOX for out in ("", " --out -")]
    + [({}, args) for args in OTHERS]
    + [({"HARDCORE_SEED": "abc"}, "logz --j 1")]
)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print(__doc__, file=sys.stderr)
        return 2
    base = {k: v for k, v in os.environ.items() if k != "HARDCORE_SEED"}
    base["PYTHONPATH"] = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory() as work:
        for env, args in COMMANDS:
            args = shlex.split(args)
            run = subprocess.run([sys.executable, "-m", "hardcore2d.cli", *args], env={**base, **env}, cwd=work,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            digests = (hashlib.sha256(stream).hexdigest() for stream in (run.stdout, run.stderr))
            print(run.returncode, *digests, shlex.join([f"{k}={v}" for k, v in env.items()] + args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
