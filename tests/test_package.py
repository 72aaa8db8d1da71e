"""The package's public surface, and what importing and running it loads."""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np

import hardcore2d
from hardcore2d.disorder import DisorderSpec
from hardcore2d.observables import log_gain_mean

SCIPY_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(hardcore2d.__all__)) == len(hardcore2d.__all__)
    for name in hardcore2d.__all__:
        assert not isinstance(getattr(hardcore2d, name), types.ModuleType), name
    for gone in ("Configuration", "MonotonePair", "sandwich_ordered", "ResponseGapEstimate", "ScalingRow",
                 "fluctuation_scaling", "engine", "mcmc", "oracle_occupation", "translate"):
        assert gone not in hardcore2d.__all__


def test_the_heat_bath_chain_has_only_the_methods_cftp_runs():
    public = {name for name, value in vars(hardcore2d.GlauberChain).items()
              if callable(value) and not name.startswith("_")}
    assert public == {"extremes", "ordered", "rises"}


def test_benchmark_span_names_resolve(monkeypatch):
    # perfbench wraps these names when it traces; spans.py imports only the standard library
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    assert spans.PACKAGE == hardcore2d.__name__
    for name in spans.SPANS:
        mod_name, *attrs = name.split(".")
        owner = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        for attr in attrs:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name
    for workload, names in spans.REQUIRED.items():
        assert set(names) <= set(spans.SPANS), workload


def run_fresh(code: str) -> list:
    """The JSON lines a fresh interpreter prints running ``code`` against
    this package."""
    src = str(Path(hardcore2d.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import json, sys\n" + textwrap.dedent(code)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_importing_the_cli_loads_no_scipy():
    assert run_fresh("import hardcore2d.cli\n" + SCIPY_LOADED) == [[]]


def test_importing_the_cli_loads_no_process_pool_and_no_validation_suite():
    loaded = "print(json.dumps([m in sys.modules for m in ('concurrent.futures.process', 'hardcore2d.validation')]))"
    assert run_fresh("import hardcore2d.cli\n" + loaded) == [[False, False]]


def test_bernoulli_sweeps_and_cftp_sampling_load_no_scipy():
    out = run_fresh(f"""
        import contextlib, io
        from hardcore2d import cli
        runs = [
            ["free-energy", "--j", "1", "--L", "2", "--replicas", "2", "--disorder", "bernoulli:0.7"],
            ["fluctuations", "--j", "1", "--replicas", "2", "--disorder", "bernoulli:0.7"],
            ["sample", "--box", "3x2", "--draws", "2", "--method", "cftp"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv + ["--out", "-"]) for argv in runs]
        print(json.dumps(codes))
        {SCIPY_LOADED}
    """)
    assert out == [[0, 0, 0], []]


def test_gamma_draws_and_uniform_gain_load_scipy_on_first_use():
    # every gain writes its density out, so none needs scipy.stats
    u = [0.1, 0.5, 0.9]
    out = run_fresh(f"""
        from hardcore2d.disorder import DisorderSpec
        from hardcore2d.observables import log_gain_mean
        {SCIPY_LOADED}
        print(json.dumps(DisorderSpec.parse("gamma:2,1.5").from_uniform({u}).tolist()))
        print(json.dumps(log_gain_mean(DisorderSpec.parse("uniform:0,2"), 3.0)))
        {SCIPY_LOADED}
        print(json.dumps(log_gain_mean(DisorderSpec.parse("lognormal:0,1"), 3.0)))
        {SCIPY_LOADED}
    """)
    assert out[0] == []
    assert out[1] == DisorderSpec.parse("gamma:2,1.5").from_uniform(np.array(u)).tolist()
    assert out[2] == log_gain_mean(DisorderSpec.parse("uniform:0,2"), 3.0)
    assert {"scipy.special", "scipy.integrate"} <= set(out[3])
    assert "scipy.stats" not in out[3]
    assert out[4] == log_gain_mean(DisorderSpec.parse("lognormal:0,1"), 3.0)
    assert "scipy.stats" not in out[5]


def test_gains_and_the_cftp_check_load_no_scipy_stats():
    out = run_fresh(f"""
        from hardcore2d.disorder import DisorderSpec
        from hardcore2d.observables import log_gain_mean
        from hardcore2d.validation import check_cftp_exactness
        print(json.dumps([log_gain_mean(DisorderSpec.parse(t), 3.0) > 0 for t in ("lognormal:0,1", "gamma:0.5,2")]))
        print(json.dumps(check_cftp_exactness(draws=200, seed=1).passed))
        {SCIPY_LOADED}
    """)
    assert out[:2] == [[True, True], True]
    assert {"scipy.special", "scipy.integrate"} <= set(out[2])
    assert not [m for m in out[2] if m.startswith("scipy.stats")]
