"""Digest `hardcore validate` over the 32 seeds 20260815 + 0..31 for one source tree.

Usage: python tools/validate_digest.py SRC_DIR

Runs ``python -m hardcore2d.cli validate --seed S`` with PYTHONPATH=SRC_DIR and
HARDCORE_SEED removed from the environment, and prints one ``seed exit sha256``
line per seed, the digest taken over stdout. Two trees compare with ``diff``:

    python tools/validate_digest.py parent/src > parent.txt
    python tools/validate_digest.py src > change.txt
    diff parent.txt change.txt
"""
import hashlib
import os
import subprocess
import sys

SEEDS = range(20260815, 20260815 + 32)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print(__doc__, file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "HARDCORE_SEED"}
    env["PYTHONPATH"] = os.path.abspath(argv[0])
    for seed in SEEDS:
        run = subprocess.run([sys.executable, "-m", "hardcore2d.cli", "validate", "--seed", str(seed)],
                             env=env, stdout=subprocess.PIPE)
        print(seed, run.returncode, hashlib.sha256(run.stdout).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
