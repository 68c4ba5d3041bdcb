"""Every function the benchmark's tracer wraps must exist where it looks.

``perfbench/tracing.py`` names the functions it wraps by module and
name. A rename in ``treekeys`` would otherwise surface only when a traced
benchmark run fails to install its wrappers; here it fails the tests.
The tracer also expects ``import treekeys.cli`` to register every module
it names in ``sys.modules``, which only running it as the benchmark does
can show. A registered module need not have executed: the package
defers ``oracles``, ``baselines`` and ``sealing``, and each executes when
the tracer first reads an attribute of it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from treekeys.cli import main as cli_main

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


@pytest.mark.parametrize("command, expected, absent", [
    (["analyze"], ["cli.main"], []),
    # the commands that build their tree check none, and build-tree counts
    # its start points by popcount, not by arc costs
    (["compare", "--json"],
     ["cli.main", "allocation.scheme_metrics", "baselines.chain_metrics"],
     ["trees.validate_tree"]),
    (["build-tree", "--out-dir", "out"],
     ["cli.main", "trees.min_weight_out_tree", "allocation.canonical_allocation"],
     ["trees.weight_function", "trees.validate_tree"]),
    # the tracer rewraps a classmethod on the bundle's class
    (["derive", "--tree", "tree.json", "--bundle", "keys/sigma_f.json", "a"],
     ["cli.main", "kdf.SigmaBundle.from_json_dict", "kdf.derive"], []),
    # and a method on the tree class, which only the battery reaches
    (["verify", "--seeds", "1"],
     ["cli.main", "oracles.run_suite", "oracles.coalition_reachability",
      "trees.DerivationOutTree.descendant_sets"], []),
    # keygen checks the tree it reads once, before it allocates the bundles' start points
    (["keygen", "--tree", "tree.json", "--seed", "07" * 32, "--out-dir", "out"],
     ["cli.main", "trees.validate_tree", "allocation.canonical_allocation", "kdf.setup"], []),
    # the holder commands, whose byte counts read seal's and unseal's arguments
    (["encrypt", "--tree", "tree.json", "--keystore", "keys/keystore.json",
      "--manifest", "manifest.json"],
     ["cli.main", "sealing.seal"], []),
    (["decrypt", "--tree", "tree.json", "--bundle", "keys/sigma_f.json", "--out-dir", "out",
      "doc.txt.sealed"],
     ["cli.main", "kdf.SigmaBundle.from_json_dict", "kdf.derive", "sealing.unseal"], []),
], ids=["analyze", "compare", "build-tree", "derive", "verify", "keygen", "encrypt-keystore",
        "decrypt-bundle"])
def test_traced_command_runs_as_the_benchmark_runs_it(tmp_path, command, expected, absent):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(SAMPLE_POLICY_DOC), encoding="utf-8")
    plaintext = tmp_path / "doc.txt"
    sealed = tmp_path / "doc.txt.sealed"
    if command[0] in ("keygen", "derive", "encrypt", "decrypt"):  # what they read, untraced
        assert cli_main(["build-tree", str(policy), "--out-dir", str(tmp_path)]) == 0
        assert cli_main(["keygen", str(policy), "--tree", str(tmp_path / "tree.json"),
                         "--seed", "07" * 32, "--out-dir", str(tmp_path / "keys")]) == 0
        plaintext.write_bytes(b"an object labelled d\n" * 50)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"objects": [{"path": str(plaintext), "label": "d"}]}),
                            encoding="utf-8")
    if command[0] == "decrypt":
        assert cli_main(["encrypt", str(policy), "--tree", str(tmp_path / "tree.json"),
                         "--keystore", str(tmp_path / "keys" / "keystore.json"),
                         "--manifest", str(manifest)]) == 0
    spans = tmp_path / "s.json"
    done = subprocess.run(
        [sys.executable, str(TRACING), "--out", str(spans), "--id", "1", "--",
         command[0], str(policy), *command[1:]],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    record = json.loads(spans.read_text(encoding="utf-8"))
    assert record["exit"] == 0
    called = {record["names"][span[0]] for span in record["spans"]}
    assert [name for name in expected if name not in called] == []
    assert [name for name in absent if name in called] == []
    if command[0] == "encrypt":
        assert record["counts"]["sealing.seal.bytes"] == plaintext.stat().st_size
    if command[0] == "decrypt":
        assert record["counts"]["sealing.unseal.bytes"] == sealed.stat().st_size
        assert (tmp_path / "out" / "doc.txt").read_bytes() == plaintext.read_bytes()


def test_cli_import_loads_every_traced_module_and_nothing_lazy():
    # the tracer reads every module it names out of sys.modules after
    # importing treekeys.cli alone; cryptography loads on the first seal,
    # HMAC on the first key derivation, and no command start pays for
    # dataclasses or what it imports
    modules = sorted(f"treekeys.{name}" for name in load_tracing().SPANNED)
    lazy = ("cryptography", "hashlib", "_hashlib", "hmac", "pickle", "multiprocessing",
            "concurrent", "dataclasses", "inspect", "ast", "string")
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
