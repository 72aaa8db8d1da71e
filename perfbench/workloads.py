"""Workloads, output checks and stored references of the benchmark.

A workload is a fixed cycle of op kinds.  Every op is one call of
``hardcore2d.cli.main(argv)``; ``ops()`` turns a workload seed into the op
sequence, so the same seed always gives the same inputs.

Kinds whose outputs are compared with stored values (the sweeps and the
large-box solves) and the ``validate`` kind draw their ``--seed`` from a
fixed pool of ``POOL`` entries.  The workload seed picks the order in which
a run walks the pool, so no input repeats within a run as long as a run
makes at most ``POOL`` ops of one kind; past that the pool is walked again.
``make_reference.py`` recomputes the stored values of every pool entry.
The sampling kinds take fresh seeds from the workload seed, because their
checks need no stored values.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

POOL = 32
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Stored values are compared with this tolerance.  A rewrite of the transfer
# scan changes log Z by ~1e-14 relative, far inside it; a wrong value is not.
RTOL = 1e-9
ATOL = 1e-12

# A site frequency of n exact draws may sit this many standard errors from
# the exact marginal before the op fails; with <= 144 sites per op the chance
# of a false failure is below 1e-6.
MAX_Z = 6.0


@dataclass(frozen=True)
class Kind:
    """One kind of op.  ``name`` is the figure it reports: work units per
    second over all its ops when ``rate`` is true (a throughput), the median
    op seconds otherwise."""

    name: str
    argv: tuple[str, ...]
    units: int
    rate: bool
    check: str  # "sweep", "scalar", "sample" or "validate"
    seed_base: int | None = None  # pooled kinds: --seed is seed_base + pool index
    writes_csv: bool = False


def _sweep(name, argv, units, seed_base):
    return Kind(name, tuple(argv.split()), units, True, "sweep", seed_base, True)


def _solve(name, argv):
    return Kind(name, tuple(argv.split()), 1, False, "scalar", 2000)


def _draws(name, argv, draws):
    return Kind(name, tuple(argv.split()) + ("--draws", str(draws)), draws, True, "sample", None, True)


LARGE_FIELD = "--field bernoulli:0.7 --lambda 5 --bc even"

WORKLOADS: dict[str, tuple[Kind, ...]] = {
    "replica_sweep": (
        _sweep("free_energy.replicas_per_s",
               "free-energy --j 2 --L 4 --replicas 400 --disorder bernoulli:0.7 --lambda 5", 400, 1000),
        _sweep("fluctuations.replicas_per_s",
               "fluctuations --j 1,2,3 --replicas 300 --disorder bernoulli:0.5 --lambda 4", 900, 1000),
        _sweep("influence.replicas_per_s",
               "influence --sides 4,8,12 --replicas 100 --disorder bernoulli:0.7 --lambda 5", 300, 1000),
    ),
    "large_box": (
        _solve("logz_s.side16", f"logz --j 8 {LARGE_FIELD}"),
        _solve("logz_s.side20", f"logz --j 10 {LARGE_FIELD}"),
        _solve("logz_s.side22", f"logz --j 11 {LARGE_FIELD}"),
        _solve("marginals_s.side16", f"occupation --j 8 --site 0,0 {LARGE_FIELD}"),
        _solve("marginals_s.side20", f"occupation --j 10 --site 0,0 {LARGE_FIELD}"),
    ),
    "perfect_sampling": (
        _draws("cftp.draws_per_s",
               "sample --method cftp --box 8x8 --field bernoulli:0.7 --lambda 2 --bc even", 500),
        _draws("exact.draws_per_s",
               "sample --method exact --box 12x12 --field bernoulli:0.7 --lambda 5 --bc even", 1000),
    ),
    "validate": (Kind("validate_s", ("validate",), 1, False, "validate", 20260815),),
}


@dataclass(frozen=True)
class Op:
    kind: Kind
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def pool_argv(kind: Kind, index: int) -> tuple[str, ...]:
    return kind.argv + ("--seed", str(kind.seed_base + index))


def ops(kinds: tuple[Kind, ...], seed: int):
    """Endless op sequence of one workload: whole cycles over ``kinds``."""
    rng = random.Random(seed)
    orders = [rng.sample(range(POOL), POOL) for _ in kinds]
    cycle = 0
    while True:
        for kind, order in zip(kinds, orders):
            if kind.seed_base is None:
                argv = kind.argv + ("--seed", str(rng.getrandbits(31)))
            else:
                argv = pool_argv(kind, order[cycle % POOL])
            yield Op(kind, argv)
        cycle += 1


def load_references(path: Path = REFERENCE_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["values"]


# -- what an op printed -------------------------------------------------------


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def expected_rows(argv: tuple[str, ...]) -> int:
    """Rows a sweep CSV must hold: per-replica rows plus the summary rows."""
    replicas = int(_flag(argv, "--replicas"))
    if argv[0] == "free-energy":
        return 4 * replicas + 4
    groups = len(_flag(argv, "--j" if argv[0] == "fluctuations" else "--sides").split(","))
    return (replicas + 3) * groups


def fingerprint(rows: list[dict]) -> dict:
    """Order-sensitive sums of the value and stderr columns per (observable, j).

    The weighted sum changes when any single value changes, so a short
    fingerprint stands in for the whole CSV body.
    """
    groups: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        err = float(row["stderr"]) if row["stderr"] else 0.0
        groups.setdefault(f"{row['observable']}@j={row['j']}", []).append((float(row["value"]), err))
    out = {}
    for key, pairs in groups.items():
        n = len(pairs)
        values = [v for v, _ in pairs]
        out[key] = {
            "n": n,
            "sum": math.fsum(values),
            "wsum": math.fsum((i + 1) / n * v for i, v in enumerate(values)),
            "abs": math.fsum(abs(v) for v in values),
            "err": math.fsum(e for _, e in pairs),
        }
    return out


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * scale + ATOL


def _fingerprints_match(got: dict, want: dict) -> str | None:
    if sorted(got) != sorted(want):
        return f"observables {sorted(got)} != {sorted(want)}"
    for key, ref in want.items():
        g = got[key]
        if g["n"] != ref["n"]:
            return f"{key}: {g['n']} rows, expected {ref['n']}"
        for field in ("sum", "wsum"):
            if not _close(g[field], ref[field], ref["abs"]):
                return f"{key}: {field} {g[field]!r} != {ref[field]!r}"
        if not _close(g["err"], ref["err"], abs(ref["err"])):
            return f"{key}: stderr sum {g['err']!r} != {ref['err']!r}"
    return None


def _check_sweep(op: Op, stdout: str, body: str, refs: dict) -> str | None:
    rows = csv_rows(body)
    want_rows = expected_rows(op.argv)
    if len(rows) != want_rows:
        return f"{len(rows)} CSV rows, expected {want_rows}"
    if op.argv[0] == "free-energy":
        holds = [r["value"] for r in rows if r["observable"] == "all_bounds_hold"]
        if holds != ["1"]:
            return f"all_bounds_hold = {holds}"
    if op.key not in refs:
        return "no stored reference for this input"
    return _fingerprints_match(fingerprint(rows), refs[op.key])


def _check_scalar(op: Op, stdout: str, body: str, refs: dict) -> str | None:
    got = float(stdout.strip())
    if op.key not in refs:
        return "no stored reference for this input"
    want = refs[op.key]
    if not _close(got, want, abs(want)):
        return f"value {got!r} != reference {want!r}"
    return None


def _check_sample(op: Op, stdout: str, body: str, refs: dict) -> str | None:
    """Each draw is admissible for its field and frame, and pooled site
    frequencies agree with the engine's exact marginals."""
    from hardcore2d import (
        DisorderSpec,
        ReplicaSeed,
        centered_box,
        occupation_probabilities,
        sample_field,
    )
    from hardcore2d.lattice import as_boundary_condition, neighbours

    argv = op.argv
    w, _, h = _flag(argv, "--box").partition("x")
    box = centered_box(int(w), int(h))
    lam = float(_flag(argv, "--lambda"))
    spec = DisorderSpec.parse(_flag(argv, "--field"))
    field = sample_field(spec, box.expand(1), lam, ReplicaSeed(int(_flag(argv, "--seed")), 0))
    bc = as_boundary_condition(_flag(argv, "--bc"))
    blocked = {nb for u in bc.frame_occupied(box, field.is_live) for nb in neighbours(u)}
    draws = [json.loads(r["value"]) for r in csv_rows(body) if r["observable"] == "sample"]
    n = int(_flag(argv, "--draws"))
    if len(draws) != n:
        return f"{len(draws)} draws, expected {n}"
    counts: dict[tuple[int, int], int] = {}
    for i, draw in enumerate(draws):
        occ = {tuple(v) for v in draw}
        for v in occ:
            if not box.contains(v) or not field.is_live(v) or v in blocked:
                return f"draw {i}: site {v} may not be occupied"
            if any(nb in occ for nb in neighbours(v)):
                return f"draw {i}: site {v} has an occupied neighbour"
            counts[v] = counts.get(v, 0) + 1
    exact = occupation_probabilities(box, field, bc)
    for v in box.sites():
        p, freq = exact[v], counts.get(v, 0) / n
        if p <= 0.0 or p >= 1.0:
            if freq != p:
                return f"site {v}: frequency {freq} but probability {p}"
            continue
        z = (freq - p) / math.sqrt(p * (1.0 - p) / n)
        if abs(z) > MAX_Z:
            return f"site {v}: frequency {freq:.4f} vs exact {p:.4f} (z={z:.1f})"
    return None


def _check_validate(op: Op, stdout: str, body: str, refs: dict) -> str | None:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return None if last == "overall: PASS" else f"validate printed {last!r}"


CHECKS = {
    "sweep": _check_sweep,
    "scalar": _check_scalar,
    "sample": _check_sample,
    "validate": _check_validate,
}


def check(op: Op, stdout: str, body: str, refs: dict) -> str | None:
    """None when the op's output is right, else why it is wrong."""
    return CHECKS[op.kind.check](op, stdout, body, refs)
