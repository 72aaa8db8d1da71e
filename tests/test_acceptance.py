"""Acceptance suite: one test per criterion, full stated sizes and tolerances.

Every test prints a single `criterion NN <name>: PASS|FAIL` line (shown in the
summary via the -rA pytest option configured in pyproject.toml).

Criterion 07 asserts that var(gap) / (2j)^2 at bernoulli(0.5), scale 4,
L = 2j and j = 1, 2, 3 is above 1e-4 at j = 1 and falls by more than a factor
2 at each step; why it must fall is argued once, in the docstring of
hardcore2d.validation.check_variance_band. Measured at this seed: every
replica without a live crossing of the moat gave |gap| <= 1.1e-14, a
crossing exists in 290, 294 and 287 of the 300 replicas at j = 1, 2, 3, and
the ratio falls about 14x and 8x per step (6.9x to 12.0x on eight other
seeds).
The per-replica gaps are checked against the enumeration oracle at j = 1
(16 sites, in tests/test_observables.py); the 64- and 144-site boxes of
j = 2, 3 are past the oracle's 20-site cap and rest on the engine checks of
criterion 01 and the A006506 counts.
"""
import time

import pytest

from hardcore2d import cli
from hardcore2d import validation as V

SEED = 20260815


def report(num: int, name: str, passed: bool, detail: str, t0: float) -> str:
    line = (
        f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
        f"  [{time.time() - t0:.1f}s]  {detail}"
    )
    print(line)
    return line


@pytest.fixture(scope="module")
def annulus_results():
    # criteria 04 and 05 share one 500-instance battery
    return V.check_annulus_and_pathwise(instances=500, seed=SEED + 5)


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    logz, marg = V.check_oracle_equivalence(instances=500, seed=SEED)
    ok = logz.passed and marg.passed
    line = report(1, "oracle-equivalence", ok, f"{logz.detail}; {marg.detail}", t0)
    assert ok, line


def test_criterion_02_derivative_identity():
    t0 = time.time()
    res = V.check_derivative_identity(instances=200, seed=SEED + 1)
    line = report(2, "derivative-identity", res.passed, res.detail, t0)
    assert res.passed, line


def test_criterion_03_influence_sign():
    t0 = time.time()
    res = V.check_influence_sign(sides=(2, 3, 4, 5, 6, 7, 8), n_disorder=50, seed=SEED + 4)
    line = report(3, "influence-sign", res.passed, res.detail, t0)
    assert res.passed, line


def test_criterion_04_annulus_bound(annulus_results):
    t0 = time.time()
    res = annulus_results[0]
    line = report(4, "annulus-bound", res.passed, res.detail, t0)
    assert res.passed, line


def test_criterion_05_pathwise_and_mean_bound(annulus_results):
    t0 = time.time()
    path = annulus_results[1]
    est = V.check_estimate_bound(seed=SEED + 6)
    ok = path.passed and est.passed
    line = report(5, "pathwise-gap-bound", ok, f"{path.detail}; {est.detail}", t0)
    assert ok, line


def test_criterion_06_mean_response_gap_is_zero():
    t0 = time.time()
    res = V.check_step1_mean(seed=SEED + 7)
    line = report(6, "zero-mean-gap", res.passed, res.detail, t0)
    assert res.passed, line


def test_criterion_07_variance_scaling_band():
    t0 = time.time()
    res = V.check_variance_band(seed=SEED + 8)
    line = report(7, "variance-scaling", res.passed, res.detail, t0)
    assert res.passed, line


def test_criterion_08_influence_contrast():
    t0 = time.time()
    res = V.check_influence_contrast(seed=SEED + 11)
    line = report(8, "influence-contrast", res.passed, res.detail, t0)
    assert res.passed, line


def test_criterion_09_sampler_correctness():
    t0 = time.time()
    order = V.check_monotone_order(total_sweeps=10000, seed=SEED + 9)
    agree = V.check_cftp_exactness(draws=10000, seed=SEED + 10)
    ok = order.passed and agree.passed
    line = report(9, "sampler-correctness", ok, f"{order.detail}; {agree.detail}", t0)
    assert ok, line


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.time()
    argv = ["influence", "--sides", "4,8", "--replicas", "6", "--disorder",
            "bernoulli:0.7", "--lambda", "5", "--seed", "21"]
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    assert cli.main(argv + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli.main(argv + ["--workers", "8", "--out", str(paths[1])]) == 0
    assert cli.main(argv + ["--workers", "8", "--out", str(paths[2])]) == 0
    bodies = [p.read_bytes() for p in paths]
    same = bodies[0] == bodies[1] == bodies[2]
    validate_code = cli.main(["validate"])
    captured = capsys.readouterr()
    with capsys.disabled():
        ok = same and validate_code == 0
        line = report(
            10, "determinism", ok,
            f"sweep bytes identical={same}, validate exit={validate_code}", t0)
    assert ok, line + "\n" + captured.out
