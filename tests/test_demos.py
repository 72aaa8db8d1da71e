"""Demo scripts run to the end and print their recorded output, byte for byte."""
import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", [
    "01_exact_partition.py",
    "02_boundary_influence.py",
    "03_annulus_bound.py",
    "04_fluctuations.py",
    "05_perfect_sampling.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue() == (DATA / f"demo_{Path(name).stem}.txt").read_text()
