"""The README's examples run as written: a renamed or removed public name fails here."""
import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from hardcore2d import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PRINTS = {"log 4": math.log(4.0), "2/7": 2.0 / 7.0}  # what the annotated command lines print


def test_the_library_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:  # the second block reuses the first one's box
            exec(compile(block, "README.md", "exec"), namespace)
    assert out.getvalue()


def test_the_annotated_command_lines_print_what_they_say(capsys):
    lines = re.findall(r"^hardcore (.*?)\s+# prints (.*)$", README, flags=re.MULTILINE)
    assert [value for _, value in lines] == list(PRINTS)
    for argv, value in lines:
        assert cli.main(shlex.split(argv)) == 0
        assert float(capsys.readouterr().out) == pytest.approx(PRINTS[value], abs=1e-15)
