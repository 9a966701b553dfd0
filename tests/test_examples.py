"""The README quick start and every demo run as written, each in a fresh
interpreter, so a change to the public API cannot leave them broken."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _quick_start() -> str:
    section = (REPO / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("example", ["README"] + [p.name for p in DEMOS])
def test_example_runs(example):
    argv = (["-c", _quick_start()] if example == "README"
            else [str(REPO / "demos" / example)])
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=REPO, capture_output=True, text=True,
        timeout=600, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
