"""Smoke test of the benchmark at tiny sizes: every workload, plain and
traced, passes its checks and emits exactly the metrics BENCHMARK.json
names, each with its unit.

    python -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

import probe

probe.use_source_tree()

import make_reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FIELD = "--field bernoulli:0.7 --lambda 5 --bc even"

TINY = {
    "replica_sweep": (
        wl._sweep("free_energy.replicas_per_s",
                  "free-energy --j 1 --L 2 --replicas 4 --disorder bernoulli:0.7 --lambda 5", 4, 1000),
        wl._sweep("fluctuations.replicas_per_s",
                  "fluctuations --j 1,2 --replicas 4 --disorder bernoulli:0.5 --lambda 4", 8, 1000),
        wl._sweep("influence.replicas_per_s",
                  "influence --sides 2,4 --replicas 4 --disorder bernoulli:0.7 --lambda 5", 8, 1000),
    ),
    "large_box": (
        wl._solve("logz_s.side4", f"logz --j 2 {FIELD}"),
        wl._solve("marginals_s.side4", f"occupation --j 2 --site 0,0 {FIELD}"),
    ),
    "perfect_sampling": (
        wl._draws("cftp.draws_per_s", f"sample --method cftp --box 3x3 {FIELD}", 20),
        wl._draws("exact.draws_per_s", f"sample --method exact --box 3x3 {FIELD}", 20),
    ),
    "validate": wl.WORKLOADS["validate"],
}


@pytest.fixture(scope="module")
def tiny_refs():
    kinds = [k for ks in TINY.values() for k in ks if k.check in ("sweep", "scalar")]
    with tempfile.TemporaryDirectory() as tmp:
        return make_reference.build(kinds, Path(tmp) / "op.csv")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert set(TINY) == set(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tiny_refs):
    result, figures = run.run_benchmark(
        workload, seed=7, seconds=0, trace=trace, kinds=TINY[workload], refs=tiny_refs, probes=1
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(figures["kinds"]) == {k.name for k in TINY[workload]}
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_a_wrong_value_fails_its_check(tiny_refs):
    kind = TINY["large_box"][0]
    op = wl.Op(kind, wl.pool_argv(kind, 0))
    good = tiny_refs[op.key]
    assert wl.check(op, repr(good), "", tiny_refs) is None
    assert wl.check(op, repr(good * (1 + 1e-6)), "", tiny_refs) is not None


def test_spans_cover_every_binding():
    import hardcore2d
    from hardcore2d import engine, observables

    original = engine.log_partition
    tracer = run.spans.Tracer()
    with tracer.installed():
        assert observables.log_partition is engine.log_partition is hardcore2d.log_partition
        assert engine.log_partition is not original
    assert engine.log_partition is original and observables.log_partition is original
