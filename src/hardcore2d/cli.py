"""Command-line front end.

Subcommands: logz, occupation, influence, free-energy, fluctuations, sample,
validate.  Sweeps write RFC-4180 CSV with the fixed column set
(replica, seed, j, L, lambda, disorder, observable, value, stderr); floats
carry 17 significant digits so re-runs with the same seeds are byte-identical
regardless of the worker count.  A JSON manifest with the full configuration
is written next to any CSV file.  The environment variable HARDCORE_SEED,
when set, overrides --seed everywhere.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .disorder import (
    ActivityField,
    DisorderSpec,
    ReplicaSeed,
    field_from_json,
    sample_field,
)
from .engine import log_partition, occupation_probability, sample_exact
from .errors import CapacityError, CoalescenceTimeout
from .lattice import LatticeBox, as_boundary_condition, box_lambda, centered_box
from .mcmc import cftp_sample
from .observables import (
    annulus_bound_check,
    boundary_influence,
    pathwise_gap_bound,
    per_site_gap_bound,
    response_gap,
)
from .validation import CheckResult, run_quick_suite

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
    return str(x)


def _records_to_csv(records: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_fmt(x) for x in rec])
    return buf.getvalue()


def _emit(records: list[tuple], args, config: dict) -> None:
    body = _records_to_csv(records)
    if args.out == "-":
        sys.stdout.write(body)
        return
    path = Path(args.out)
    path.write_text(body, encoding="utf-8")
    manifest = {
        "tool": "hardcore2d",
        "version": __version__,
        "command": config.pop("_command"),
        "config": config,
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


def _parse_box(args) -> tuple[LatticeBox, int | None]:
    if getattr(args, "j", None) is not None:
        return box_lambda(args.j), args.j
    if getattr(args, "box", None):
        w, _, h = args.box.lower().partition("x")
        try:
            return centered_box(int(w), int(h)), None
        except ValueError as exc:
            raise ValueError(f"bad --box {args.box!r}: expected WxH") from exc
    raise ValueError("give either --box WxH or --j J")


def _field_for(args, box: LatticeBox, seed: int) -> tuple[ActivityField, str]:
    """Build the activity field from --field (spec string or JSON path)."""
    text = args.field
    if text.endswith(".json") or os.path.sep in text:
        field = field_from_json(text)
        if field.scale != args.lam:
            field = field.with_scale(args.lam)
        if not field.region.contains_box(box):
            raise ValueError("field file region does not cover the box")
        return field, text
    spec = DisorderSpec.parse(text)
    # sample one ring beyond the box so the frame is diluted consistently
    field = sample_field(spec, box.expand(1), args.lam, ReplicaSeed(seed, args.replica_index))
    return field, spec.label()


def _at_least(value: int, least: int, flag: str) -> int:
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, got {value}")
    return value


def _workers(args) -> int:
    """--workers, capped at the CPU count (more processes only contend)."""
    return min(_at_least(args.workers, 1, "--workers"), os.cpu_count() or 1)


def _pmap(fn, items, workers: int):
    if workers <= 1:
        return [fn(it) for it in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=chunk))


# -- replica tasks (top level: picklable for ProcessPoolExecutor) -------------


def _influence_task(arg: tuple) -> float:
    side, lam, spec_text, master, r = arg
    spec = DisorderSpec.parse(spec_text)
    box = box_lambda(side // 2)
    field = sample_field(spec, box.expand(1), lam, ReplicaSeed(master, r))
    return boundary_influence(box, field, (0, 0)).gap


def _free_energy_task(arg: tuple) -> tuple:
    j, L, lam, spec_text, master, r = arg
    spec = DisorderSpec.parse(spec_text)
    field = sample_field(spec, box_lambda(L).expand(1), lam, ReplicaSeed(master, r))
    gap = response_gap(L, box_lambda(j), field)
    cap = pathwise_gap_bound(field, j)
    annulus_ok = all(c.holds for c in annulus_bound_check(L, j, field))
    return gap, cap, abs(gap) <= cap + 1e-9, annulus_ok


def _fluctuation_task(arg: tuple) -> float:
    j, L, lam, spec_text, master, r = arg
    spec = DisorderSpec.parse(spec_text)
    field = sample_field(spec, box_lambda(L).expand(1), lam, ReplicaSeed(master, r))
    return response_gap(L, box_lambda(j), field)


# -- subcommands ---------------------------------------------------------------


def cmd_logz(args) -> int:
    seed = _resolve_seed(args)
    box, j = _parse_box(args)
    field, label = _field_for(args, box, seed)
    value = log_partition(box, field, as_boundary_condition(args.bc))
    print(_fmt(value))
    if args.out:
        rec = (0, seed, j, None, args.lam, label, "log_z", value, None)
        _emit([rec], args, {"_command": "logz", **_config_dict(args, seed)})
    return 0


def cmd_occupation(args) -> int:
    seed = _resolve_seed(args)
    box, j = _parse_box(args)
    field, label = _field_for(args, box, seed)
    try:
        x, _, y = args.site.partition(",")
        site = (int(x), int(y))
    except ValueError as exc:
        raise ValueError(f"bad --site {args.site!r}: expected X,Y") from exc
    value = occupation_probability(box, field, site, as_boundary_condition(args.bc))
    print(_fmt(value))
    if args.out:
        rec = (0, seed, j, None, args.lam, label, f"occupation[{site[0]},{site[1]}]", value, None)
        _emit([rec], args, {"_command": "occupation", **_config_dict(args, seed)})
    return 0


def cmd_influence(args) -> int:
    seed = _resolve_seed(args)
    sides = _int_list(args.sides)
    replicas = _at_least(args.replicas, 1, "--replicas")
    workers = _workers(args)
    for s in sides:
        if s < 2 or s % 2:
            raise ValueError("sides must be even and >= 2 (centered boxes)")
    spec = DisorderSpec.parse(args.disorder)
    label = spec.label()
    records: list[tuple] = []
    summaries: list[tuple] = []
    for side in sides:
        tasks = [(side, args.lam, label, seed, r) for r in range(replicas)]
        gaps = _pmap(_influence_task, tasks, workers)
        j = side // 2
        for r, g in enumerate(gaps):
            records.append((r, seed, j, None, args.lam, label, "origin_gap", g, None))
        arr = np.asarray(gaps)
        for name, q in (("origin_gap_q1", 25), ("origin_gap_median", 50), ("origin_gap_q3", 75)):
            summaries.append(
                (SUMMARY_REPLICA, seed, j, None, args.lam, label, name, float(np.percentile(arr, q)), None)
            )
    _emit(records + summaries, args, {"_command": "influence", **_config_dict(args, seed)})
    return 0


def cmd_free_energy(args) -> int:
    seed = _resolve_seed(args)
    j, L = args.j, args.L
    if not 1 <= j < L:
        raise ValueError("need 1 <= j < L")
    replicas = _at_least(args.replicas, 2, "--replicas")
    workers = _workers(args)
    spec = DisorderSpec.parse(args.disorder)
    label = spec.label()
    tasks = [(j, L, args.lam, label, seed, r) for r in range(replicas)]
    rows = _pmap(_free_energy_task, tasks, workers)
    records: list[tuple] = []
    for r, (gap, cap, pw_ok, ann_ok) in enumerate(rows):
        records.append((r, seed, j, L, args.lam, label, "response_gap", gap, None))
        records.append((r, seed, j, L, args.lam, label, "pathwise_bound", cap, None))
        records.append((r, seed, j, L, args.lam, label, "pathwise_holds", pw_ok, None))
        records.append((r, seed, j, L, args.lam, label, "annulus_holds", ann_ok, None))
    gaps = np.asarray([row[0] for row in rows])
    mean = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / math.sqrt(len(gaps)))
    ratio = max(abs(row[0]) / row[1] if row[1] > 0 else 0.0 for row in rows)
    annulus = box_lambda(j + 1).site_count - box_lambda(j).site_count
    expected_cap = per_site_gap_bound(args.lam, spec) * annulus
    s = SUMMARY_REPLICA
    records += [
        (s, seed, j, L, args.lam, label, "response_gap_mean", mean, stderr),
        (s, seed, j, L, args.lam, label, "max_gap_bound_ratio", ratio, None),
        (s, seed, j, L, args.lam, label, "expected_gap_bound", expected_cap, None),
        (s, seed, j, L, args.lam, label, "all_bounds_hold", all(r[2] and r[3] for r in rows), None),
    ]
    _emit(records, args, {"_command": "free-energy", **_config_dict(args, seed)})
    return 0


def cmd_fluctuations(args) -> int:
    seed = _resolve_seed(args)
    js = _int_list(args.j)
    replicas = _at_least(args.replicas, 2, "--replicas")
    workers = _workers(args)
    spec = DisorderSpec.parse(args.disorder)
    label = spec.label()
    records: list[tuple] = []
    summaries: list[tuple] = []
    for j in js:
        L = args.L if args.L is not None else 2 * j
        if not 1 <= j < L:
            raise ValueError("need 1 <= j < L")
        tasks = [(j, L, args.lam, label, seed, r) for r in range(replicas)]
        vals = _pmap(_fluctuation_task, tasks, workers)
        for r, v in enumerate(vals):
            records.append((r, seed, j, L, args.lam, label, "response_gap", v, None))
        arr = np.asarray(vals)
        var = float(arr.var(ddof=1))
        vol = box_lambda(j).site_count
        s = SUMMARY_REPLICA
        summaries += [
            (s, seed, j, L, args.lam, label, "gap_mean", float(arr.mean()), None),
            (s, seed, j, L, args.lam, label, "gap_variance", var, None),
            (s, seed, j, L, args.lam, label, "variance_per_site", var / vol, None),
        ]
    _emit(records + summaries, args, {"_command": "fluctuations", **_config_dict(args, seed)})
    return 0


def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    draws = _at_least(args.draws, 1, "--draws")
    box, j = _parse_box(args)
    field, label = _field_for(args, box, seed)
    bc = as_boundary_condition(args.bc)
    records: list[tuple] = []
    if args.method == "exact":
        rng = np.random.default_rng(seed)
        for i in range(draws):
            occ = sample_exact(box, field, bc, rng)
            value = json.dumps(sorted(occ))
            records.append((i, seed, j, None, args.lam, label, "sample", value, None))
    else:
        for i in range(draws):
            res = cftp_sample(box, field, bc, ReplicaSeed(seed, i))
            value = json.dumps(sorted(res.configuration.occupied))
            records.append((i, seed, j, None, args.lam, label, "sample", value, None))
            records.append((i, seed, j, None, args.lam, label, "cftp_epochs", res.epochs, None))
    _emit(records, args, {"_command": "sample", **_config_dict(args, seed)})
    return 0


def _determinism_check(seed: int) -> CheckResult:
    cfg = [(4, 1.0, "bernoulli:0.5", seed, r) for r in range(8)]
    seq = [_influence_task(t) for t in cfg]
    par = _pmap(_influence_task, cfg, workers=2)
    same = _records_to_csv([(r, v) for r, v in enumerate(seq)]) == _records_to_csv(
        [(r, v) for r, v in enumerate(par)]
    )
    return CheckResult("determinism", same, "workers 1 vs 2 byte-identical")


def cmd_validate(args) -> int:
    seed = _resolve_seed(args)
    results = run_quick_suite(seed)
    results.append(_determinism_check(seed))
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    ok = all(r.passed for r in results)
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- argument plumbing ----------------------------------------------------------


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in str(text).split(",") if p != ""]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc


def _config_dict(args, seed: int) -> dict:
    skip = {"func", "out"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    if "lam" in cfg:
        cfg["lambda"] = cfg.pop("lam")
    cfg["seed"] = seed
    return cfg


def _add_common(p: argparse.ArgumentParser, box: bool = False) -> None:
    if box:
        p.add_argument("--box", help="box size WxH, centered on the origin")
        p.add_argument("--j", type=int, help="half-side of the centered 2j x 2j box")
        p.add_argument("--bc", default="free", choices=("even", "odd", "free", "empty"))
        p.add_argument(
            "--field",
            default="constant:1",
            help="disorder spec 'family:params' or path to a field JSON file",
        )
        p.add_argument("--replica-index", type=int, default=0, help="replica index for --field sampling")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="activity scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None if box else "-", help="CSV path or '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--disorder", default="constant:1")
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("free-energy", help="even-odd response gap with bounds, per replica")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--disorder", default="bernoulli:0.5")
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_free_energy)

    p = sub.add_parser("fluctuations", help="gap variance against inner volume")
    p.add_argument("--j", default="1,2,3", help="comma list of half-sides")
    p.add_argument("--L", type=int, default=None, help="outer half-side (default 2j)")
    p.add_argument("--disorder", default="bernoulli:0.5")
    p.add_argument("--replicas", type=int, default=300)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
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
        return args.func(args)
    except (ValueError, CapacityError, CoalescenceTimeout, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
