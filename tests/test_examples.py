"""The README quick start and every demo run as written, each in a fresh
interpreter, so a change to the public API cannot leave them broken; the
README's config table names every config rule."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from vmidecode.harness import CONFIG_RULES, DEFAULT_CONFIG

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


def test_readme_config_table_names_exactly_the_config_rules():
    table = (REPO / "README.md").read_text().split(
        "| key | default | valid value |", 1)[1].split("\n\n", 1)[0]
    keys = {key for cell in re.findall(r"^\| (.*?) \|", table, re.M)
            for key in re.findall(r"`([^`]+)`", cell)}
    assert keys == set(CONFIG_RULES)
    # the table restates the defaults: each must appear in its row
    for cell, default in re.findall(r"^\| (.*?) \| (.*?) \|", table, re.M):
        for key in re.findall(r"`([^`]+)`", cell):
            section, _, name = key.partition(".")
            if name in DEFAULT_CONFIG.get(section, {}):
                value = json.dumps(DEFAULT_CONFIG[section][name])
                assert value.replace('"', "") in default.replace("`", ""), key
