"""Smoke tests for the examples: the scripts and README's library block
must run to the end on the current API, README's transcript must print
what the commands print, and the stage timer must write every cell."""

import importlib.util
import io
import json
import os
import platform
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from treekeys.cli import main as cli_main

from conftest import SAMPLE_PARTITION_DOC, SAMPLE_POLICY_DOC, sparse_policy_doc

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


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(out, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--out", str(out), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_bench_times_every_stage_from_both_source_trees(tmp_path):
    report = run_bench(tmp_path / "bench.json", "--case", "sparse:250", "--src", ROOT)
    stages = load_bench().STAGES
    assert {"seal[1MiB]", "unseal[1MiB]"} <= set(stages)
    assert [(r["source"], r["stage"]) for r in report["rows"]] == [
        (source, stage) for source in ("current", "other") for stage in stages
    ]
    assert {(r["family"], r["size"], r["status"]) for r in report["rows"]} == {
        ("sparse", 250, "ok")}
    assert all(r["ms"] >= 0 for r in report["rows"])
    assert report["python"] == platform.python_version()


def test_bench_records_a_timeout_or_an_error_in_every_cell(tmp_path, monkeypatch, capsys):
    # a budget no stage meets, timed in this process
    bench = load_bench()
    monkeypatch.setattr(bench, "BUDGET_S", 1e-6)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    handler = signal.getsignal(signal.SIGALRM)
    try:
        bench.run_child("sparse:250")
    finally:
        signal.signal(signal.SIGALRM, handler)
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    # and a source tree with no treekeys in it, timed in a child process
    rows += bench.time_case("sparse:250", "other", tmp_path / "empty")
    statuses = [(r.get("source"), r["stage"], r["status"]) for r in rows]
    first, *later = bench.STAGES
    assert statuses == [(None, first, "timeout")] + [(None, stage, "error") for stage in later] + [
        ("other", stage, "error") for stage in bench.STAGES]
    assert all(r["ms"] is None and r["detail"] for r in rows)


def test_bench_writes_what_seal_gives_whole_or_in_pieces():
    # a tree from before piecewise sealing returns the container as one bytearray
    whole, pieces = io.BytesIO(), io.BytesIO()
    load_bench()._write(whole, bytearray(b"header|ciphertext|tag"))
    load_bench()._write(pieces, iter([b"header|", b"ciphertext|", b"tag"]))
    assert whole.getvalue() == pieces.getvalue() == b"header|ciphertext|tag"


def test_bench_sparse_family_is_the_tests_sparse_policy():
    assert load_bench().sparse(250) == sparse_policy_doc(250, 1)
