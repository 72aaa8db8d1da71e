r"""Command-line front end.

Subcommands: logz, occupation, influence, free-energy, fluctuations, sample,
validate.  Sweeps write CSV with the fixed column set (replica, seed, j, L,
lambda, disorder, observable, value, stderr), a line per row ending in "\n";
a field holding ",", '"', "\n" or "\r" is quoted, each '"' doubled, as
csv.writer does (Python 3.11's leaves a "\r" bare, and the row then splits on
reading).  Floats carry 17 significant digits so re-runs with the same seeds are
byte-identical regardless of the worker count.  A JSON manifest with the full
configuration is written next to any CSV file.  The environment variable
HARDCORE_SEED, when set, overrides --seed everywhere: main resolves it once
into args.seed, taken modulo 2^64, so a negative seed names the same fields
and draws as its wrap does.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .disorder import (
    ActivityField,
    DisorderSpec,
    ReplicaSeed,
    field_from_json,
    sample_field,
    sample_fields,
)
from .engine import log_partition, occupation_probability, sample_exact
from .errors import CapacityError, CoalescenceTimeout
from .lattice import LatticeBox, as_boundary_condition, box_lambda, centered_box, draw_sites
from .mcmc import cftp_sample
from .observables import (
    _mean_stderr,
    annulus_bound_check,
    boundary_influence,
    expected_gap_bound,
    pathwise_gap_bound,
    response_gap,
)

ENV_SEED = "HARDCORE_SEED"
CSV_COLUMNS = ("replica", "seed", "j", "L", "lambda", "disorder", "observable", "value", "stderr")
SUMMARY_REPLICA = -1


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, str) and ("," in x or '"' in x or "\n" in x or "\r" in x):
        return '"' + x.replace('"', '""') + '"'
    return str(x)


def _emit(lines: list[str], args) -> None:
    text = "".join([",".join(CSV_COLUMNS) + "\n", *lines])
    if args.out == "-":
        sys.stdout.write(text)
        return
    (path := Path(args.out)).write_text(text, encoding="utf-8")
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out", "command", "lam")}
    manifest = {
        "tool": "hardcore2d",
        "version": __version__,
        "command": args.command,
        "config": {**config, "lambda": args.lam},
        "written": datetime.now(timezone.utc).isoformat(),
    }
    path.with_suffix(path.suffix + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _resolve_seed(args) -> int:
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}")
    return args.seed


def _field_for(args) -> tuple[LatticeBox, int | None, ActivityField, str]:
    """A box command's box, its half-side j (None for --box), and the activity
    field from --field (spec string or JSON path) with its CSV label; a field
    file keeps its stored scale unless --lambda is given.  args.lam becomes
    the scale used, for the CSV rows and the manifest."""
    if args.j is not None:
        box, j = box_lambda(args.j), args.j
    elif args.box:
        w, _, h = args.box.lower().partition("x")
        try:
            w, h = int(w), int(h)
        except ValueError as exc:
            raise ValueError(f"bad --box {args.box!r}: expected WxH") from exc
        box, j = centered_box(w, h), None
    else:
        raise ValueError("give either --box WxH or --j J")
    text = args.field
    if text.endswith(".json") or os.path.sep in text:
        field, label = field_from_json(text), text
        if args.lam is not None:
            field = ActivityField(field.region, field.values, args.lam)
        if not field.region.contains_box(box):
            raise ValueError("field file region does not cover the box")
    else:
        spec = DisorderSpec.parse(text)
        label = spec.label()
        scale = 1.0 if args.lam is None else args.lam
        # sample one ring beyond the box so the frame is diluted consistently
        field = sample_field(spec, box.expand(1), scale, ReplicaSeed(args.seed, args.replica_index))
    args.lam = field.scale
    return box, j, field, label


def _row_maker(args, j: int | None, L: int | None, label: str):
    """The CSV line maker of one (j, L) group, its fields formatted once: (replica, observable, value, stderr)."""
    group = ",".join(map(_fmt, (args.seed, j, L, args.lam, label)))
    return lambda r, observable, value, stderr=None: f"{r},{group},{_fmt(observable)},{_fmt(value)},{_fmt(stderr)}\n"


def _at_least(value: int, least: int, flag: str) -> int:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")
    return value


def _workers(args) -> int:
    """--workers, capped at the CPU count (more processes only contend)."""
    return min(_at_least(args.workers, 1, "--workers"), os.cpu_count() or 1)


def _pmap(fn, items, workers: int) -> list:
    """fn(*item) per item, in order; over a pool of ``workers`` processes when more than one."""
    if workers <= 1:
        return [fn(*item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # here, not at module level: most runs never start a pool

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, *zip(*items)))


# -- replica blocks (top level: picklable for ProcessPoolExecutor) ------------
#
# A block task draws one field per replica of a contiguous block on the largest
# box of its (j, L) sizes and its ring, solves each size as stacks (one engine
# call per box, field variant and frame), and returns one array: sizes first,
# then any rows of the solver's own, the replica axis last, along which
# _run_blocks joins the blocks; --workers shards them over one pool per command.
# Every replica's numbers are a function of its key alone, so the output does
# not depend on the worker count or on _BLOCK.

_BLOCK = 64  # replicas per task


def _block_task(solve, sizes: tuple, lam, spec: DisorderSpec, master: int, start: int, stop: int) -> np.ndarray:
    fields = sample_fields(spec, box_lambda(max(L for _, L in sizes)).expand(1), lam, master, start, stop)
    return np.array([solve(L, j, fields) for j, L in sizes])


def _run_blocks(head: tuple, replicas: int, workers: int) -> np.ndarray:
    """The block task's array over replicas 0 .. replicas - 1: one task
    ``head + (start, stop)`` per block."""
    blocks = [(*head, start, min(start + _BLOCK, replicas)) for start in range(0, replicas, _BLOCK)]
    return np.concatenate(_pmap(_block_task, blocks, workers), axis=-1)


def _origin_gap(L: int, j: int, fields) -> np.ndarray:
    """Even-minus-odd occupation gap of the origin on the box of half-side L."""
    return boundary_influence(box_lambda(L), fields, (0, 0))


def _gap_and_bounds(L: int, j: int, fields) -> np.ndarray:
    """Rows: the response gap, its pathwise cap, both annulus left-hand sides and the annulus right-hand side."""
    gap, lhs, rhs = annulus_bound_check(L, j, fields)
    return np.vstack([gap, pathwise_gap_bound(fields, j), lhs, rhs])


# -- subcommands ---------------------------------------------------------------


def _report(args, j: int | None, label: str, observable: str, value: float) -> int:
    """A box command's value: printed unless the CSV goes to stdout, and the CSV row when --out is given."""
    if args.out != "-":  # stdout holds the CSV alone
        print(_fmt(value))
    if args.out:
        _emit([_row_maker(args, j, None, label)(0, observable, value)], args)
    return 0


def cmd_logz(args) -> int:
    box, j, field, label = _field_for(args)
    return _report(args, j, label, "log_z", log_partition(box, field, as_boundary_condition(args.bc)))


def cmd_occupation(args) -> int:
    box, j, field, label = _field_for(args)
    try:
        x, _, y = args.site.partition(",")
        site = (int(x), int(y))
    except ValueError as exc:
        raise ValueError(f"bad --site {args.site!r}: expected X,Y") from exc
    value = occupation_probability(box, field, site, as_boundary_condition(args.bc))
    return _report(args, j, label, f"occupation[{site[0]},{site[1]}]", value)


def cmd_influence(args) -> int:
    sides = _int_list(args.sides)
    replicas = _at_least(args.replicas, 1, "--replicas")
    workers = _workers(args)
    for s in sides:
        if s < 2 or s % 2:
            raise ValueError("sides must be even and >= 2 (centered boxes)")
    spec = DisorderSpec.parse(args.disorder)
    sizes = tuple((s // 2, s // 2) for s in sides)
    gaps_by_side = _run_blocks((_origin_gap, sizes, args.lam, spec, args.seed), replicas, workers)
    records, summaries = [], []
    for side, gaps in zip(sides, gaps_by_side):
        row = _row_maker(args, side // 2, None, spec.label())
        records += [row(r, "origin_gap", g) for r, g in enumerate(gaps.tolist())]
        for name, q in (("origin_gap_q1", 25), ("origin_gap_median", 50), ("origin_gap_q3", 75)):
            summaries.append(row(SUMMARY_REPLICA, name, float(np.percentile(gaps, q))))
    _emit(records + summaries, args)
    return 0


def cmd_free_energy(args) -> int:
    j, L = args.j, args.L
    if not 1 <= j < L:
        raise ValueError("need 1 <= j < L")
    replicas = _at_least(args.replicas, 2, "--replicas")
    workers = _workers(args)
    spec = DisorderSpec.parse(args.disorder)
    row = _row_maker(args, j, L, spec.label())
    [(gap, cap, lhs_even, lhs_odd, rhs)] = _run_blocks((_gap_and_bounds, ((j, L),), args.lam, spec, args.seed),
                                                       replicas, workers)
    pathwise_ok = np.abs(gap) <= cap + 1e-9
    annulus_ok = (lhs_even <= rhs + 1e-9) & (lhs_odd <= rhs + 1e-9)
    names = ("response_gap", "pathwise_bound", "pathwise_holds", "annulus_holds")
    columns = (gap.tolist(), cap.tolist(), pathwise_ok.tolist(), annulus_ok.tolist())
    records = [row(r, name, value) for r, values in enumerate(zip(*columns)) for name, value in zip(names, values)]
    mean, stderr = _mean_stderr(gap)
    ratio = max(abs(g) / c if c > 0 else 0.0 for g, c in zip(columns[0], columns[1]))
    s = SUMMARY_REPLICA
    records += [
        row(s, "response_gap_mean", mean, stderr),
        row(s, "max_gap_bound_ratio", ratio),
        row(s, "expected_gap_bound", expected_gap_bound(j, args.lam, spec)),
        row(s, "all_bounds_hold", bool(np.all(pathwise_ok & annulus_ok))),
    ]
    _emit(records, args)
    return 0


def cmd_fluctuations(args) -> int:
    js = _int_list(args.j)
    replicas = _at_least(args.replicas, 2, "--replicas")
    workers = _workers(args)
    spec = DisorderSpec.parse(args.disorder)
    groups = [(j, args.L if args.L is not None else 2 * j) for j in js]
    if not all(1 <= j < L for j, L in groups):
        raise ValueError("need 1 <= j < L")
    gaps_by_group = _run_blocks((response_gap, tuple(groups), args.lam, spec, args.seed), replicas, workers)
    records, summaries = [], []
    for (j, L), gaps in zip(groups, gaps_by_group):
        row = _row_maker(args, j, L, spec.label())
        records += [row(r, "response_gap", g) for r, g in enumerate(gaps.tolist())]
        var = float(gaps.var(ddof=1))
        summaries += [
            row(SUMMARY_REPLICA, "gap_mean", float(gaps.mean())),
            row(SUMMARY_REPLICA, "gap_variance", var),
            row(SUMMARY_REPLICA, "variance_per_site", var / box_lambda(j).site_count),
        ]
    _emit(records + summaries, args)
    return 0


def cmd_sample(args) -> int:
    draws = _at_least(args.draws, 1, "--draws")
    box, j, field, label = _field_for(args)
    bc = as_boundary_condition(args.bc)
    row = _row_maker(args, j, None, label)
    if args.method == "exact":
        drawn = sample_exact(box, field, bc, np.random.default_rng(args.seed), draws)
    else:
        results = [cftp_sample(box, field, bc, ReplicaSeed(args.seed, i)) for i in range(draws)]
        drawn = np.array([res.columns for res in results], dtype=np.uint64)  # MAX_SIDE = 64 rows fit
    # value = json.dumps(draw_sites(box, columns)), summed by numpy from each distinct (x, mask)'s "[x, y], " text
    texts = np.full(draws, "", dtype=object)
    for x, column in enumerate(drawn.T, box.x_min):
        masks, inverse = np.unique(column, return_inverse=True)
        pieces = ["".join(f"[{x}, {y}], " for _, y in draw_sites(box, [m])) for m in masks.tolist()]
        texts += np.array(pieces, dtype=object)[inverse]
    records = [row(i, "sample", f"[{text[:-2]}]") for i, text in enumerate(texts.tolist())]
    if args.method == "cftp":  # each draw's epochs follow its sample row
        records = [line for i, res in enumerate(results) for line in (records[i], row(i, "cftp_epochs", res.epochs))]
    _emit(records, args)
    return 0


def _determinism_check(seed: int):
    from .validation import CheckResult  # here, not at module level: only validate runs the checks

    cfg = [(_origin_gap, ((2, 2),), 1.0, DisorderSpec("bernoulli", (0.5,)), seed, r, r + 2) for r in range(0, 8, 2)]
    seq = [_fmt(g) for t in cfg for g in _block_task(*t).ravel().tolist()]  # four blocks of the side-4 box
    par = [_fmt(g) for block in _pmap(_block_task, cfg, workers=2) for g in block.ravel().tolist()]
    return CheckResult("determinism", seq == par, "workers 1 vs 2 byte-identical")


def cmd_validate(args) -> int:
    from .validation import _guarded, run_quick_suite  # here, not at module level: only validate runs the checks

    results = run_quick_suite(args.seed) + _guarded("determinism", _determinism_check, args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    ok = all(r.passed for r in results)
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- argument plumbing ----------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in str(text).split(",") if p != ""]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc
    if not values:
        raise ValueError(f"empty integer list {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser, box: bool = False) -> None:
    if box:
        where = p.add_mutually_exclusive_group()
        where.add_argument("--box", help="box size WxH, centered on the origin")
        where.add_argument("--j", type=int, help="half-side of the centered 2j x 2j box")
        p.add_argument("--bc", default="free", choices=("even", "odd", "free", "empty"))
        p.add_argument(
            "--field",
            default="constant:1",
            help="disorder spec 'family:params' (scale --lambda or 1) or path to a field JSON file "
            "(its stored scale unless --lambda is given)",
        )
        p.add_argument("--replica-index", type=int, default=0, help="replica index for --field sampling")
    p.add_argument("--lambda", dest="lam", type=float, default=None if box else 1.0, help="activity scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None if box else "-", help="CSV path or '-' for stdout")


def _add_sweep(p: argparse.ArgumentParser, disorder: str, replicas: int) -> None:
    p.add_argument("--disorder", default=disorder)
    p.add_argument("--replicas", type=int, default=replicas)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later ``main`` call
    (building it costs ~20x a parse); ``set_defaults(func=cmd_*)`` binds the commands of that first build."""
    parser = argparse.ArgumentParser(
        prog="hardcore",
        description="Exact finite-box computations for the hard-core gas with random activities.",
        epilog=f"The {ENV_SEED} environment variable overrides --seed.",
    )
    parser.add_argument("--version", action="version", version=f"hardcore2d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("logz", help="log partition sum of one box")
    _add_common(p, box=True)
    p.set_defaults(func=cmd_logz)

    p = sub.add_parser("occupation", help="exact occupation probability of one site")
    _add_common(p, box=True)
    p.add_argument("--site", required=True, help="site X,Y")
    p.set_defaults(func=cmd_occupation)

    p = sub.add_parser("influence", help="even/odd origin-gap sweep over box sides")
    p.add_argument("--sides", default="4,8,12", help="comma list of even box sides")
    _add_sweep(p, "constant:1", 100)
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("free-energy", help="even-odd response gap with bounds, per replica")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    _add_sweep(p, "bernoulli:0.5", 100)
    p.set_defaults(func=cmd_free_energy)

    p = sub.add_parser("fluctuations", help="gap variance against inner volume")
    p.add_argument("--j", default="1,2,3", help="comma list of half-sides")
    p.add_argument("--L", type=int, default=None, help="outer half-side (default 2j)")
    _add_sweep(p, "bernoulli:0.5", 300)
    p.set_defaults(func=cmd_fluctuations)

    p = sub.add_parser("sample", help="draw configurations (exact or coupling from the past)")
    _add_common(p, box=True)
    p.add_argument("--method", default="exact", choices=("exact", "cftp"))
    p.add_argument("--draws", type=int, default=1)
    p.set_defaults(func=cmd_sample)
    p.set_defaults(out="-")

    p = sub.add_parser("validate", help="run the verification checks and exit 0/1")
    p.add_argument("--seed", type=int, default=20260815)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed = _resolve_seed(args) % (1 << 64)  # numpy refuses seeds < 0; Philox keys wrap
        return args.func(args)
    except (ValueError, CapacityError, CoalescenceTimeout, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
