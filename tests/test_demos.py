"""Demo scripts run to the end and print their recorded output, byte for byte."""
import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue() == (DATA / f"demo_{path.stem}.txt").read_text()
