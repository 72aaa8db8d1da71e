"""Command-line front end: outputs, determinism, error handling."""
import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from hardcore2d import cli
from hardcore2d.disorder import ActivityField, save_field
from hardcore2d.lattice import EVEN_BC, box_lambda, centered_box
from hardcore2d.oracle import oracle_log_partition

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).minexp == np.finfo(np.float64).minexp,
    reason="the activity range needs an 80- or 128-bit np.longdouble")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_logz_prints_frozen_value(capsys):
    code, out, _ = run_cli(["logz", "--j", "1", "--bc", "even", "--lambda", "1"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.log(4.0), abs=1e-14)


def test_occupation_prints_frozen_value(capsys):
    code, out, _ = run_cli(["occupation", "--box", "2x2", "--site", "0,0", "--lambda", "1"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(2.0 / 7.0, abs=1e-14)


def test_influence_workers_do_not_change_bytes(tmp_path, capsys):
    args = ["influence", "--sides", "4,6", "--replicas", "4", "--disorder",
            "bernoulli:0.7", "--lambda", "5", "--seed", "11"]
    w1 = tmp_path / "w1.csv"
    w2 = tmp_path / "w2.csv"
    assert cli.main(args + ["--workers", "1", "--out", str(w1)]) == 0
    assert cli.main(args + ["--workers", "2", "--out", str(w2)]) == 0
    capsys.readouterr()
    assert w1.read_bytes() == w2.read_bytes()
    # re-run reproduces the same bytes
    w3 = tmp_path / "w3.csv"
    assert cli.main(args + ["--workers", "2", "--out", str(w3)]) == 0
    assert w3.read_bytes() == w1.read_bytes()


def test_manifest_written_next_to_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = cli.main(["logz", "--j", "1", "--lambda", "2", "--seed", "5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["tool"] == "hardcore2d"
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["lambda"] == 2.0
    header = out.read_text().splitlines()[0]
    assert header == "replica,seed,j,L,lambda,disorder,observable,value,stderr"


def test_env_seed_overrides_flag(capsys, monkeypatch):
    argv = ["logz", "--j", "2", "--bc", "even", "--field", "bernoulli:0.5",
            "--lambda", "3", "--seed", "7"]
    monkeypatch.setenv("HARDCORE_SEED", "99")
    _, with_env, _ = run_cli(argv, capsys)
    monkeypatch.delenv("HARDCORE_SEED")
    _, seed99, _ = run_cli(argv[:-1] + ["99"], capsys)
    _, seed7, _ = run_cli(argv, capsys)
    assert with_env == seed99
    assert with_env != seed7


def test_field_file_input(tmp_path, capsys):
    box = centered_box(2, 2)
    field = ActivityField(box, np.full((2, 2), 2.0), 1.0)
    path = tmp_path / "field.json"
    save_field(field, path)
    code, out, _ = run_cli(["logz", "--box", "2x2", "--field", str(path), "--lambda", "1"], capsys)
    assert code == 0
    # every activity equals 2: Z = 1 + 4*2 + 2*4 = 17
    assert float(out.strip()) == pytest.approx(math.log(17.0), abs=1e-12)


def test_field_file_must_cover_box(tmp_path, capsys):
    box = centered_box(2, 2)
    save_field(ActivityField(box, np.ones((2, 2)), 1.0), tmp_path / "f.json")
    code, _, err = run_cli(
        ["logz", "--box", "4x4", "--field", str(tmp_path / "f.json")], capsys)
    assert code == 1
    assert "error:" in err


def test_csv_to_stdout(capsys):
    code, out, _ = run_cli(
        ["fluctuations", "--j", "1", "--replicas", "3", "--disorder", "bernoulli:0.5",
         "--lambda", "4", "--seed", "2", "--out", "-"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("replica,seed,")
    assert any(",variance_per_site," in ln for ln in lines)


def test_bad_disorder_text_exits_one(capsys):
    code, _, err = run_cli(["logz", "--j", "1", "--field", "weird:1"], capsys)
    assert code == 1
    assert "error:" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["logz", "--jay", "1"])
    capsys.readouterr()
    assert e.value.code == 2


def test_sample_rows_are_reproducible(capsys):
    argv = ["sample", "--box", "3x2", "--method", "exact", "--draws", "4", "--seed", "6",
            "--out", "-"]
    _, a, _ = run_cli(argv, capsys)
    _, b, _ = run_cli(argv, capsys)
    assert a == b
    rows = [ln for ln in a.strip().splitlines()[1:] if ",sample," in ln]
    assert len(rows) == 4


def test_validate_flags_injected_engine_bug(capsys, monkeypatch):
    import dataclasses

    import hardcore2d.engine as engine

    real = engine._plan

    def off_by_one(height):
        plan = real(height)
        # read the rows that may take a new occupied bit one row too far down
        # the table: vertically adjacent occupied sites become admissible
        steps = tuple(
            (top, slice(k.start + 1, k.stop + 1) if k.stop < top else k, f1, w1)
            for top, k, f1, w1 in plan.steps
        )
        return dataclasses.replace(plan, steps=steps)

    monkeypatch.setattr(engine, "_plan", off_by_one)
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 1
    assert "overall: FAIL" in out
    oracle_lines = [ln for ln in out.splitlines() if ln.startswith("oracle-")]
    assert oracle_lines and all("FAIL" in ln for ln in oracle_lines)


def test_exact_draws_are_pinned(capsys):
    # CSV body of a fixed-seed exact-sampler run, recorded before the transfer
    # scan was rewritten; the draws must stay byte-identical
    argv = ["sample", "--method", "exact", "--box", "5x4", "--field", "bernoulli:0.7",
            "--lambda", "2", "--bc", "even", "--draws", "50", "--seed", "11", "--out", "-"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "sample_exact_5x4_seed11.csv").read_text()


def test_cftp_draws_are_pinned(capsys):
    # CSV body of a fixed-seed CFTP run (draws and epoch counts), recorded
    # before the extreme-state and coalescence code was simplified
    argv = ["sample", "--method", "cftp", "--box", "5x4", "--field", "bernoulli:0.7",
            "--lambda", "2", "--bc", "even", "--draws", "50", "--seed", "11", "--out", "-"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "sample_cftp_5x4_seed11.csv").read_text()


@needs_long_double
def test_huge_activity_logz_matches_oracle(capsys):
    code, out, _ = run_cli(["logz", "--j", "2", "--bc", "even", "--lambda", "1e200"], capsys)
    assert code == 0
    box = box_lambda(2)
    field = ActivityField(box.expand(1), np.ones((6, 6)), 1e200)
    want = oracle_log_partition(box, field, EVEN_BC).log()
    assert float(out.strip()) == pytest.approx(want, rel=1e-14)


@needs_long_double
def test_heavy_tailed_free_energy_stays_finite(capsys):
    code, out, _ = run_cli(
        ["free-energy", "--j", "2", "--L", "4", "--disorder", "pareto:0.02,1", "--lambda", "1",
         "--replicas", "30", "--seed", "1", "--out", "-"], capsys)
    assert code == 0
    summary = {row[6]: row[7] for row in csv.reader(io.StringIO(out)) if row[0] == "-1"}
    assert math.isfinite(float(summary["response_gap_mean"]))
    assert summary["all_bounds_hold"] == "1"


def test_out_of_range_activities_exit_one(capsys):
    # an activity that overflows, and a range no float type can hold exactly
    for argv in (["logz", "--box", "2x2", "--field", "constant:1e10", "--lambda", "1e300"],
                 ["logz", "--box", "2x24", "--lambda", "1e300"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "error:" in err


def assert_count_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_free_energy_needs_two_replicas(capsys):
    # one replica has no standard error, none has no ratio
    for n in ("1", "0"):
        assert_count_error(["free-energy", "--j", "1", "--L", "2", "--replicas", n], capsys)


def test_fluctuations_need_two_replicas(capsys):
    assert_count_error(["fluctuations", "--j", "1", "--replicas", "1"], capsys)


def test_influence_needs_a_replica_and_a_worker(capsys):
    for flags in (["--replicas", "0"], ["--replicas", "-3"], ["--workers", "0"]):
        assert_count_error(["influence", "--sides", "4", "--replicas", "2", *flags], capsys)


def test_sample_needs_a_draw(capsys):
    for n in ("0", "-1"):
        assert_count_error(["sample", "--box", "2x2", "--draws", n], capsys)


@pytest.mark.parametrize("argv", [
    ["influence", "--sides", "4", "--replicas", "4"],
    ["free-energy", "--j", "1", "--L", "2", "--replicas", "4"],
    ["fluctuations", "--j", "1", "--replicas", "4"],
])
def test_workers_capped_at_cpu_count(argv, capsys, monkeypatch):
    seen = []

    class Recorder:  # stands in for the process pool; runs the tasks here
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, many, _ = run_cli(argv + ["--workers", "64"], capsys)
    assert code == 0 and seen == [2]
    code, one, _ = run_cli(argv + ["--workers", "1"], capsys)
    assert code == 0 and seen == [2]
    assert many == one
