"""Command-line front end: outputs, determinism, error handling."""
import concurrent.futures
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardcore2d import cli
from hardcore2d.disorder import ActivityField, DisorderSpec, ReplicaSeed, sample_field, sample_fields, save_field
from hardcore2d.engine import sample_exact
from hardcore2d.lattice import EVEN_BC, FREE_BC, box_lambda, centered_box, draw_sites
from hardcore2d.mcmc import CftpResult, cftp_sample
from hardcore2d.observables import response_gap
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


def test_manifest_written_next_to_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    out = tmp_path / "run.csv"
    argv = ["logz", "--j", "1", "--lambda", "2", "--seed", "5", "--out", str(out)]
    code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["tool"] == "hardcore2d"
    assert manifest["command"] == "logz"
    assert "command" not in manifest["config"]  # named once, at top level
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["lambda"] == 2.0
    header = out.read_text().splitlines()[0]
    assert header == "replica,seed,j,L,lambda,disorder,observable,value,stderr"
    # the environment's seed is the one recorded, in the manifest and in the rows
    monkeypatch.setenv(cli.ENV_SEED, "99")
    assert cli.main(argv) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["command"] == "logz"
    assert manifest["config"]["seed"] == 99
    assert out.read_text().splitlines()[1].startswith("0,99,1,")


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


def test_replica_index_reproduces_a_sweep_replica(capsys):
    # replica 3 of a side-4 influence sweep is the field that --replica-index 3
    # samples on the same box, so its origin gap is the even-minus-odd occupation
    argv = ["occupation", "--j", "2", "--site", "0,0", "--field", "bernoulli:0.7", "--lambda", "5",
            "--seed", "11", "--replica-index", "3", "--bc"]
    _, even, _ = run_cli(argv + ["even"], capsys)
    _, odd, _ = run_cli(argv + ["odd"], capsys)
    code, out, _ = run_cli(["influence", "--sides", "4", "--replicas", "4", "--disorder", "bernoulli:0.7",
                            "--lambda", "5", "--seed", "11", "--out", "-"], capsys)
    assert code == 0
    gaps = {row[0]: float(row[7]) for row in csv.reader(io.StringIO(out)) if row[6] == "origin_gap"}
    assert gaps["3"] == float(even) - float(odd)


def test_sweeps_sample_the_law_given(capsys):
    # parameters past six significant digits reach the sampler and the CSV
    argv = ["fluctuations", "--j", "1", "--replicas", "3", "--seed", "5", "--out", "-", "--disorder"]

    def rows(text):
        code, out, _ = run_cli(argv + [text], capsys)
        assert code == 0
        return [row for row in csv.reader(io.StringIO(out)) if row[6] == "response_gap"]

    exact = rows("uniform:0,1.23456789")
    gaps = [float(row[7]) for row in exact]
    assert gaps != [float(row[7]) for row in rows("uniform:0,1.23457")]
    fields = sample_fields(DisorderSpec("uniform", (0, 1.23456789)), box_lambda(2).expand(1), 1.0, 5, 0, 3)
    assert gaps == response_gap(2, 1, fields).tolist()
    assert {row[5] for row in exact} == {"uniform:0,1.23456789"}


def test_field_file_input(tmp_path, capsys):
    box = centered_box(2, 2)
    field = ActivityField(box, np.full((2, 2), 2.0), 1.0)
    path = tmp_path / "field.json"
    save_field(field, path)
    code, out, _ = run_cli(["logz", "--box", "2x2", "--field", str(path), "--lambda", "1"], capsys)
    assert code == 0
    # every activity equals 2: Z = 1 + 4*2 + 2*4 = 17
    assert float(out.strip()) == pytest.approx(math.log(17.0), abs=1e-12)


def test_field_file_keeps_its_scale_unless_lambda_is_given(tmp_path, capsys):
    box = centered_box(2, 2)
    path = tmp_path / "f.json"
    save_field(ActivityField(box, np.ones((2, 2)), 2.0), path)
    out = tmp_path / "run.csv"
    for extra, lam, z in (([], 2.0, 17.0), (["--lambda", "1"], 1.0, 7.0)):
        code, printed, _ = run_cli(["logz", "--box", "2x2", "--field", str(path), "--out", str(out)] + extra, capsys)
        assert code == 0
        assert float(printed.strip()) == pytest.approx(math.log(z), abs=1e-12)
        # the scale used is the one recorded, in the rows and in the manifest
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        assert row["lambda"] == cli._fmt(lam)
        assert json.loads((tmp_path / "run.csv.manifest.json").read_text())["config"]["lambda"] == lam
    # a spec field still defaults to scale 1
    code, printed, _ = run_cli(["logz", "--box", "2x2", "--field", "constant:1"], capsys)
    assert float(printed.strip()) == pytest.approx(math.log(7.0), abs=1e-12)


@pytest.mark.parametrize("command", [["logz"], ["occupation", "--site", "0,0"], ["sample"]])
def test_box_and_j_together_exit_two(capsys, command):
    with pytest.raises(SystemExit) as e:
        cli.main(command + ["--j", "1", "--box", "5x5"])
    assert e.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_a_field_file_with_a_nan_value_names_the_value(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"scale": 1.0, "region": [0, 0, 0, 0], "values": [[0, 0, NaN]]}')
    code, _, err = run_cli(["logz", "--box", "1x1", "--field", str(path)], capsys)
    assert code == 1
    assert "field values must be finite and >= 0" in err


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


def test_negative_seeds_wrap_to_uint64(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    argv = ["sample", "--box", "3x2", "--method", "exact", "--draws", "4", "--out", "-", "--seed"]
    code, out, err = run_cli(argv + ["-1"], capsys)
    assert (code, err) == (0, "")
    assert out == run_cli(argv + [str(2**64 - 1)], capsys)[1]
    assert ",18446744073709551615," in out  # the seed column records the wrapped seed
    code, out, _ = run_cli(["validate", "--seed", "-1"], capsys)
    assert code == 0, out
    assert "overall: PASS" in out


def test_validate_flags_injected_engine_bug(capsys, monkeypatch):
    import hardcore2d.engine as engine

    real = engine._sizes

    def off_by_one(p, q, height):
        steps, shapes = real(p, q, height)
        # read the rows that may take a new occupied bit one row too far down
        # the table: vertically adjacent occupied sites become admissible
        steps = tuple((r, top, slice(k.start + 1, k.stop + 1) if 0 < k.stop < top else k, f1, w1)
                      for r, top, k, f1, w1 in steps)
        return steps, shapes

    monkeypatch.setattr(engine, "_sizes", off_by_one)
    try:
        for live_rows_from in (engine._LIVE_ROWS_FROM, 0):  # then every box on the live-row sizes
            monkeypatch.setattr(engine, "_LIVE_ROWS_FROM", live_rows_from)
            code, out, _ = run_cli(["validate"], capsys)
            assert code == 1
            assert "overall: FAIL" in out
            oracle_lines = [ln for ln in out.splitlines() if ln.startswith("oracle-")]
            assert oracle_lines and all("FAIL" in ln for ln in oracle_lines)
    finally:
        engine._plan.cache_clear()  # a plan built under the bug must not outlive the test


def test_validate_output_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    code, out, _ = run_cli(["validate", "--seed", "20260815"], capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "validate_seed20260815.txt").read_text()


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


@pytest.mark.parametrize("method, box, lam", [("exact", "12x12", "5"), ("cftp", "8x8", "2")])
def test_draws_at_benchmark_sizes_are_pinned(capsys, method, box, lam):
    # CSV bodies of the benchmark's sampler runs at 100 draws, recorded before
    # the batched exact draws and the column-bitmask heat-bath kernel
    argv = ["sample", "--method", method, "--box", box, "--field", "bernoulli:0.7",
            "--lambda", lam, "--bc", "even", "--draws", "100", "--seed", "11", "--out", "-"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / f"sample_{method}_{box}_seed11.csv").read_text()


@pytest.mark.parametrize("method", ["exact", "cftp"])
@pytest.mark.parametrize("box, field, bc", [
    ("3x3", "constant:0", "even"),  # every draw empty
    ("1x1", "constant:1", "free"),
    ("4x5", "bernoulli:0.7", "odd"),  # negative coordinates
])
def test_sample_values_are_the_json_of_the_sorted_draw(capsys, method, box, field, bc):
    argv = ["sample", "--method", method, "--box", box, "--field", field, "--bc", bc,
            "--draws", "40", "--seed", "3", "--out", "-"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    values = [r["value"] for r in csv.DictReader(io.StringIO(out)) if r["observable"] == "sample"]
    assert len(values) == 40
    for text in values:
        assert text == json.dumps(sorted(json.loads(text)))
    if field == "constant:0":
        assert set(values) == {"[]"}
    if box == "1x1":
        assert set(values) == {"[]", "[[0, 0]]"}


@pytest.mark.parametrize("method, w, h, lam, draws", [("cftp", 2, 62, 0.5, 5), ("exact", 3, 24, 1.0, 20)])
def test_sample_values_are_the_librarys_draws_past_the_pinned_heights(capsys, monkeypatch, method, w, h, lam, draws):
    # rows past 53 of a CFTP draw would show a float or int64 round trip of its packed columns
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    argv = ["sample", "--method", method, "--box", f"{w}x{h}", "--lambda", str(lam), "--draws", str(draws),
            "--seed", "9", "--out", "-"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    values = [r["value"] for r in csv.DictReader(io.StringIO(out)) if r["observable"] == "sample"]
    box = centered_box(w, h)
    field = sample_field(DisorderSpec("constant", (1.0,)), box.expand(1), lam, ReplicaSeed(9, 0))
    if method == "exact":
        drawn = sample_exact(box, field, FREE_BC, np.random.default_rng(9), draws)
    else:
        drawn = [cftp_sample(box, field, FREE_BC, ReplicaSeed(9, i)).columns for i in range(draws)]
    sites = [draw_sites(box, columns) for columns in drawn]
    assert values == [json.dumps(sorted(s)) for s in sites]
    assert max(y - box.y_min for s in sites for _, y in s) == h - 1  # the top row is drawn


def test_sample_makes_the_calls_the_benchmark_times(capsys, monkeypatch):
    # perfbench times cli.cftp_sample, cli.sample_exact and cli.sample_field
    # once per call and reads the epochs and sweeps of each CftpResult
    calls = {"cftp_sample": [], "sample_exact": [], "sample_field": []}

    def recorded(fn, results):
        def call(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]
        return call

    for name, results in calls.items():
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name), results))
    base = ["sample", "--box", "3x3", "--field", "bernoulli:0.7", "--bc", "even", "--out", "-"]
    assert run_cli(base + ["--method", "cftp", "--draws", "5"], capsys)[0] == 0
    assert len(calls["cftp_sample"]) == 5
    for res in calls["cftp_sample"]:
        assert isinstance(res, CftpResult) and type(res.epochs) is int and type(res.sweeps_used) is int
        assert isinstance(res.columns, tuple) and len(res.columns) == 3
    assert run_cli(base + ["--method", "exact", "--draws", "5"], capsys)[0] == 0
    (drawn,) = calls["sample_exact"]
    assert isinstance(drawn, np.ndarray) and drawn.shape == (5, 3) and drawn.dtype == np.int64
    assert len(calls["sample_field"]) == 2  # one field per command, through _field_for


_SWEEP_PINS = {
    "free_energy_pareto_seed11":
        "free-energy --j 1 --L 3 --replicas 20 --disorder pareto:2.5,0.5 --lambda 3 --seed 11",
    "fluctuations_uniform_seed11":
        "fluctuations --j 1,2 --replicas 30 --disorder uniform:0,2 --lambda 4 --seed 11",
    "influence_bernoulli_seed11":
        "influence --sides 4,8 --replicas 10 --disorder bernoulli:0.7 --lambda 5 --seed 11",
}


@pytest.mark.parametrize("name", sorted(_SWEEP_PINS))
def test_sweeps_are_pinned(capsys, name):
    # CSV bodies of fixed-seed sweeps, recorded before field sampling and the
    # field surgeries moved from per-site loops to whole arrays; the influence
    # CSV re-recorded once when marginals moved from a BLAS matvec to the fold
    code, out, _ = run_cli(_SWEEP_PINS[name].split() + ["--out", "-"], capsys)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", sorted(_SWEEP_PINS))
def test_sweeps_do_not_depend_on_workers_or_block_size(capsys, monkeypatch, name):
    # replica blocks of 3 and 7 split every pinned sweep unevenly
    want = (Path(__file__).parent / "data" / f"{name}.csv").read_text()
    for block in (3, 7):
        monkeypatch.setattr(cli, "_BLOCK", block)
        for workers in ("1", "2"):
            code, out, _ = run_cli(_SWEEP_PINS[name].split() + ["--workers", workers, "--out", "-"], capsys)
            assert code == 0
            assert out == want


def test_influence_pin_does_not_depend_on_the_blas_kernel():
    # numpy's OpenBLAS picks its kernel at load time, so a fresh process runs an
    # old SSE3 one, under which a BLAS matvec in the marginals changed this CSV
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = _SWEEP_PINS["influence_bernoulli_seed11"].split() + ["--out", "-"]
    done = subprocess.run([sys.executable, "-m", "hardcore2d.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (Path(__file__).parent / "data" / "influence_bernoulli_seed11.csv").read_bytes()


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


def test_subnormal_lambda_exits_one_and_tiny_normal_lambda_stays_finite(capsys):
    # below the smallest normal float, 2 / lambda overflows in both gap bounds
    argv = ["free-energy", "--j", "1", "--L", "2", "--replicas", "4", "--disorder", "uniform:0,2",
            "--seed", "1", "--out", "-", "--lambda"]
    code, _, err = run_cli(argv + ["1e-310"], capsys)
    assert code == 1
    assert err.startswith("error: ")
    code, out, _ = run_cli(argv + ["1e-300"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert all(math.isfinite(float(row[7])) for row in rows)
    summary = {row[6]: float(row[7]) for row in rows if row[0] == "-1"}
    # 2 E[X] per ring site as lambda -> 0, over the 12 sites of the j = 1 ring
    assert summary["expected_gap_bound"] == pytest.approx(24.0, rel=1e-9)


def test_fluctuations_refuse_a_subnormal_lambda_as_free_energy_does(capsys):
    # below the smallest normal float, every response divides a log Z difference that underflowed
    argv = ["fluctuations", "--j", "1", "--replicas", "3", "--out", "-", "--lambda"]
    code, out, err = run_cli(argv + ["1e-310"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    code, out, _ = run_cli(argv + ["1e-300"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 6 and all(math.isfinite(float(row[7])) for row in rows)


def test_pareto_draws_past_the_largest_float_exit_one(capsys):
    # (1 - u)**-100 passes 1.8e308 at some site of this 22x22 region
    code, out, err = run_cli(["logz", "--j", "10", "--field", "pareto:0.01,1", "--seed", "3"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "pareto:0.01,1" in err


def test_a_gap_bound_whose_quadrature_does_not_converge_exits_one(capsys):
    # quad detects roundoff for this cap on |gap|; the gain by mpmath makes it 9.72e5
    assert_count_error(["free-energy", "--j", "1", "--L", "2", "--replicas", "4", "--disorder", "lognormal:0,5",
                        "--lambda", "1e-8", "--seed", "1", "--out", "-"], capsys)


def test_a_pareto_gap_bound_is_the_closed_form(capsys):
    # quad printed 12 * 2/lambda * 6.0000000075e-08 with no message; mpmath gives 5.8657447853911...e-08
    code, out, _ = run_cli(["free-energy", "--j", "1", "--L", "2", "--replicas", "4", "--disorder", "pareto:1.2,1",
                            "--lambda", "1e-8", "--seed", "1", "--out", "-"], capsys)
    assert code == 0
    summary = {row[6]: float(row[7]) for row in csv.reader(io.StringIO(out)) if row[0] == "-1"}
    assert summary["expected_gap_bound"] == pytest.approx(12 * 2 / 1e-8 * 5.8657447853911e-08, rel=1e-12)


def test_free_energy_needs_two_replicas(capsys):
    # one replica has no standard error, none has no ratio
    for n in ("1", "0"):
        assert_count_error(["free-energy", "--j", "1", "--L", "2", "--replicas", n], capsys)


def test_fluctuations_need_two_replicas(capsys):
    assert_count_error(["fluctuations", "--j", "1", "--replicas", "1"], capsys)


def test_influence_needs_a_replica_and_a_worker(capsys):
    for flags in (["--replicas", "0"], ["--replicas", "-3"], ["--workers", "0"]):
        assert_count_error(["influence", "--sides", "4", "--replicas", "2", *flags], capsys)


def test_fluctuations_needs_a_j(capsys):
    assert_count_error(["fluctuations", "--j", "", "--replicas", "2"], capsys)


def test_influence_needs_a_side(capsys):
    assert_count_error(["influence", "--sides", ",", "--replicas", "2"], capsys)


@pytest.mark.parametrize("box, message", [
    ("70x2", "box sides are capped at 64"),
    ("0x3", "box sides must be >= 1"),
    ("4x", "expected WxH"),
])
def test_bad_box_names_its_fault(capsys, box, message):
    code, out, err = run_cli(["logz", "--box", box], capsys)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, env, message", [
    (["logz", "--j", "1"], "abc", "HARDCORE_SEED must be an integer, got 'abc'"),
    (["logz"], None, "give either --box WxH or --j J"),
    (["occupation", "--j", "1", "--site", "1"], None, "bad --site '1': expected X,Y"),
    (["influence", "--sides", "3"], None, "sides must be even and >= 2 (centered boxes)"),
    (["influence", "--sides", "2,,x"], None, "bad integer list '2,,x'"),
    (["free-energy", "--j", "2", "--L", "2"], None, "need 1 <= j < L"),
    (["fluctuations", "--j", "2", "--L", "2"], None, "need 1 <= j < L"),
    *((["fluctuations", "--j", "1", "--replicas", "2", "--disorder", law], None, message) for law, message in (
        ("bernoulli:0.5,1", "bernoulli takes 1 parameter(s)"),
        ("uniform:nan,1", "disorder parameters must be finite"),
        ("constant:-1", "constant value must be >= 0"),
        ("gamma:0,1", "gamma shape and scale must be > 0"),
        ("pareto:0,1", "pareto alpha and x_min must be > 0"),
        ("uniform:a,b", "bad disorder parameters in 'uniform:a,b'"),
    )),
    (["occupation", "--box", "3x3", "--site", "9,9"], None, "site lies outside the box"),
    (["logz", "--j", "2", "--field", "bernoulli:0.5", "--replica-index", "-1"], None, "replica index must be >= 0"),
])
def test_bad_input_exits_one_with_its_message(capsys, monkeypatch, argv, env, message):
    if env is None:
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
    else:
        monkeypatch.setenv(cli.ENV_SEED, env)
    assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")


def test_fluctuations_check_every_group_before_solving_one(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_run_blocks", lambda *args: calls.append(args) or [])
    assert run_cli(["fluctuations", "--j", "1,2,9", "--L", "4"], capsys) == (1, "", "error: need 1 <= j < L\n")
    assert calls == []


def test_a_draw_count_past_memory_exits_one(capsys, monkeypatch):
    def out_of_memory(*args):  # stands in for numpy's _ArrayMemoryError, a MemoryError
        raise MemoryError("Unable to allocate 14.2 PiB for an array with shape (1000000000000000, 2)")

    monkeypatch.setattr(cli, "sample_exact", out_of_memory)
    assert run_cli(["sample", "--box", "2x2", "--draws", "1000000000000000"], capsys) == (
        1, "", "error: Unable to allocate 14.2 PiB for an array with shape (1000000000000000, 2)\n")


def test_occupation_writes_its_row_and_a_manifest(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, printed, _ = run_cli(["occupation", "--j", "2", "--site", "0,0", "--out", str(out)], capsys)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    assert (row["j"], row["observable"], row["value"]) == ("2", "occupation[0,0]", printed.strip())
    assert json.loads((tmp_path / "x.csv.manifest.json").read_text())["command"] == "occupation"


@pytest.mark.parametrize("doc", [
    '{"scale": 1.0, "region": [0, 0, 1, 0], "values": [[0, 0, 1.0], [1.7, 0, 2.0]]}',
    '{"scale": 1.0, "region": [0, 0, 1.9, 0], "values": [[0, 0, 1.0], [1, 0, 2.0]]}',
    '{"scale": true, "region": [0, 0, 1, 0], "values": [[0, 0, 1.0], [1, 0, 2.0]]}',
    '{"scale": 1.0, "region": [0, 0, 1, 0], "values": [[0, 0, 1.0], [1, 0, "2"]]}',
    '{"scale": 1.0, "region": [0, 0, 1, 0], "values": [[0, 0, 1.0], [1, 0, 1%s]]}' % ("0" * 400),
], ids=["float-coordinate", "float-corner", "bool-scale", "string-value", "int-past-float"])
def test_a_field_file_holds_integer_sites_and_numeric_values(tmp_path, capsys, doc):
    # int() would read 1.7 as site 1 and 1.9 as corner 1, float() true as 1.0 and "2" as 2.0
    path = tmp_path / "f.json"
    path.write_text(doc)
    code, out, err = run_cli(["logz", "--box", "2x1", "--field", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed field description: ")
    # JSON integers are numbers too
    path.write_text('{"scale": 1, "region": [0, 0, 1, 0], "values": [[0, 0, 1], [1, 0, 3]]}')
    code, out, _ = run_cli(["logz", "--box", "2x1", "--field", str(path)], capsys)
    assert code == 0 and float(out) == pytest.approx(math.log(5.0), abs=1e-14)


def test_sides_past_62_are_refused_for_the_field_ring(capsys):
    # each command samples its field on the box and its one-site ring, whose sides are capped at 64
    for argv in (["sample", "--box", "2x63", "--method", "cftp"], ["logz", "--box", "63x2"],
                 ["influence", "--sides", "64", "--replicas", "1"], ["free-energy", "--j", "1", "--L", "32"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert "box sides are capped at 62: the field also covers a 1-site ring" in err
    for argv in (["sample", "--box", "2x62", "--method", "cftp"], ["logz", "--box", "62x2"]):
        assert run_cli(argv, capsys)[0] == 0


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)  # _pmap imports it on use
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, many, _ = run_cli(argv + ["--workers", "64"], capsys)
    assert code == 0 and seen == [2]
    code, one, _ = run_cli(argv + ["--workers", "1"], capsys)
    assert code == 0 and seen == [2]
    assert many == one
