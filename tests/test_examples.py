"""Smoke tests for the examples: both scripts and README's library block
must run to the end on the current API, and README's transcript must
print what the commands print."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from treekeys.cli import main as cli_main

from conftest import SAMPLE_PARTITION_DOC, SAMPLE_POLICY_DOC

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


@pytest.mark.parametrize("command", [
    "analyze policy.json",
    "compare policy.json --partition partition.json",
])
def test_readme_transcript_prints_what_the_command_prints(tmp_path, monkeypatch, capsys, command):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    policy, partition = map(json.loads, blocks)
    assert (policy, partition) == (SAMPLE_POLICY_DOC, SAMPLE_PARTITION_DOC)
    (tmp_path / "policy.json").write_text(json.dumps(policy), encoding="utf-8")
    (tmp_path / "partition.json").write_text(json.dumps(partition), encoding="utf-8")
    (shown,) = re.findall(rf"^\$ treekeys {re.escape(command)}\n(.*?)\n\n", readme, re.M | re.S)
    monkeypatch.chdir(tmp_path)
    assert cli_main(command.split()) == 0
    assert capsys.readouterr().out.splitlines() == shown.splitlines()
