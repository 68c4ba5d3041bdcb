"""Smoke tests for the examples: both scripts and README's library block
must run to the end on the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SAMPLE_POLICY_DOC

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "command",
    [["worked_example.py"], ["compare_schemes.py", "--instances", "40"]],
    ids=lambda command: command[0],
)
def test_script_runs(command):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / command[0]), *command[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    exec(compile(block, "README.md", "exec"), {"document": SAMPLE_POLICY_DOC})
