"""Recompute the stored outputs in ``reference.json`` for every pooled input.

    python3 perfbench/make_reference.py [WORKLOAD ...]

With no arguments every workload is rebuilt.  Sweeps are stored as CSV
fingerprints and large-box solves as the printed value.  For ``validate`` it
stores nothing; it runs every pooled seed and fails if one does not pass.
Run it from the root of a source checkout; it takes about ten minutes.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import probe
import workloads as wl


def _run(op: wl.Op, csv_path: Path) -> tuple[str, str]:
    from hardcore2d import cli

    argv = [*op.argv, "--out", str(csv_path)] if op.kind.writes_csv else list(op.argv)
    csv_path.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{op.key} exited {rc}")
    body = csv_path.read_text(encoding="utf-8") if op.kind.writes_csv else ""
    return out.getvalue(), body


def build(kinds, csv_path: Path) -> dict:
    """Stored value of every pooled input of ``kinds``, keyed by its argv."""
    values = {}
    for kind in kinds:
        if kind.seed_base is None:
            continue
        for index in range(wl.POOL):
            op = wl.Op(kind, wl.pool_argv(kind, index))
            stdout, body = _run(op, csv_path)
            if kind.check == "sweep":
                values[op.key] = wl.fingerprint(wl.csv_rows(body))
            elif kind.check == "scalar":
                values[op.key] = float(stdout)
            elif wl.check(op, stdout, body, values):
                raise RuntimeError(f"{op.key} does not pass")
            print(op.key, file=sys.stderr)
    return values


def main(names: list[str]) -> int:
    probe.use_source_tree()
    names = names or sorted(wl.WORKLOADS)
    stored = {"rtol": wl.RTOL, "atol": wl.ATOL, "values": {}}
    if wl.REFERENCE_FILE.exists():
        stored = json.loads(wl.REFERENCE_FILE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=probe.SRC.parent) as tmp:
        for name in names:
            stored["values"].update(build(wl.WORKLOADS[name], Path(tmp) / "op.csv"))
    wl.REFERENCE_FILE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
