"""Every function the benchmark's tracer wraps must exist where it looks.

``perfbench/tracing.py`` names the functions it wraps by module and
name. A rename in ``treekeys`` would otherwise surface only when a traced
benchmark run fails to install its wrappers; here it fails the tests.
The tracer also expects ``import treekeys.cli`` to load every module it
names, which only running it as the benchmark does can show.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SAMPLE_POLICY_DOC

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module_name, functions in table.items():
            module = importlib.import_module(f"treekeys.{module_name}")
            for function in functions:
                if "." in function:  # a method, wrapped through the class __dict__
                    cls_name, attr = function.split(".")
                    found = attr in vars(getattr(module, cls_name, object))
                else:
                    found = callable(getattr(module, function, None))
                if not found:
                    missing.append(f"{module_name}.{function}")
    assert missing == []


def test_traced_command_runs_as_the_benchmark_runs_it(tmp_path):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(SAMPLE_POLICY_DOC), encoding="utf-8")
    spans = tmp_path / "s.json"
    done = subprocess.run(
        [sys.executable, str(TRACING), "--out", str(spans), "--id", "1", "--", "analyze", str(policy)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert record["exit"] == 0 and "cli.main" in record["names"]


def test_cli_import_loads_every_traced_module_and_no_cipher():
    # the tracer reads every module it names out of sys.modules after
    # importing treekeys.cli alone; cryptography loads on the first seal,
    # and pickle only when verify forks its workers
    modules = sorted(f"treekeys.{name}" for name in load_tracing().SPANNED)
    lazy = ("cryptography", "pickle", "multiprocessing", "concurrent")
    probe = (
        "import json, sys, treekeys.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
        f"('treekeys', *{lazy!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert [m for m in modules if m not in loaded] == []
    assert [m for m in loaded if m.split(".")[0] in lazy] == []
