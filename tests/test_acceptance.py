"""Acceptance criteria, one test per criterion.

Criterion checks run at exact tolerances (no fuzz): structural counts,
arc costs, optimal key counts, baseline sizes, oracle equivalence at
scale, algebraic identities, end-to-end derivation, determinism, and the
PRF standard self-check. A shared 500-instance randomized battery backs
the oracle-equivalence criteria and is timed against its budget.
"""

import hashlib
import json
import time

import pytest

from treekeys import (
    min_weight_out_tree,
    parse_policy,
    scheme_metrics,
    weight_function,
    width,
)
from treekeys.baselines import chain_metrics, chain_scheme_build, classic_scheme_metrics
from treekeys.cli import main as cli_main
from treekeys.kdf import self_check
from treekeys.oracles import closure, covers, extra_key_labels, run_suite

from conftest import SAMPLE_POLICY_DOC, SAMPLE_WEIGHTS

RANDOM_INSTANCES = 500
SUITE_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="session")
def battery(poset8, users8):
    """One 500-instance randomized run shared by criteria 6-8."""
    report = run_suite(poset8, users8, seeds=RANDOM_INSTANCES)
    return report


def check(report, name):
    result = next(c for c in report.checks if c.name == name)
    assert result.instances >= RANDOM_INSTANCES
    assert result.passed, f"{name} failed: {result.counterexample}"


def test_criterion_01_structural_counts():
    started = time.perf_counter()
    poset, _users = parse_policy(SAMPLE_POLICY_DOC)
    assert len(covers(poset)) == 10
    assert len(closure(poset)) == 23
    assert width(poset) == 2
    assert poset.root == "h" and not poset.virtual_root
    assert time.perf_counter() - started < 1.0


def test_criterion_02_arc_costs_exact(poset8, users8):
    wf = weight_function(poset8, users8, covers(poset8))
    assert wf == SAMPLE_WEIGHTS
    assert extra_key_labels(poset8, ("e", "c")) == {"c", "d", "f"}


def test_criterion_03_minimum_tree_and_key_count(poset8, users8):
    tree = min_weight_out_tree(poset8, users8)
    arcs = set(tree.arcs())
    assert ("c", "a") in arcs
    assert ("d", "c") in arcs
    assert (("f", "d") in arcs) != (("g", "d") in arcs)  # exactly one
    metrics = scheme_metrics(poset8, users8, tree)
    assert metrics.K_total == 11


def test_criterion_04_chain_partition_key_count(poset8, users8, partition8):
    assert chain_scheme_build(poset8, partition8)["d"] == ("c", "d")
    assert chain_metrics(poset8, users8, partition8).K_total == 13


def test_criterion_05_classic_scheme_sizes(poset8, users8):
    basic = classic_scheme_metrics(poset8, users8)["basic"]
    assert basic.K_total == 31
    iterative = classic_scheme_metrics(poset8, users8)["iterative"]
    assert (iterative.K_total, iterative.p) == (8, 10)
    direct = classic_scheme_metrics(poset8, users8)["direct"]
    assert (direct.p, direct.d_max) == (23, 1)


def test_criterion_06_oracle_equivalence_at_scale(battery):
    check(battery, "tree-weight-vs-enumeration")
    check(battery, "allocation-vs-definition")
    check(battery, "cover-vs-closure-minimum")
    check(battery, "min-leaf-vs-enumeration")
    assert battery.elapsed_seconds < SUITE_BUDGET_SECONDS


def test_criterion_07_algebraic_identities(battery):
    check(battery, "weighted-key-identity")
    check(battery, "charge-set-algebra")
    check(battery, "path-weight-superadditivity")


def test_criterion_08_end_to_end_derivation(battery):
    check(battery, "derive-correctness")
    check(battery, "derive-refusal")
    check(battery, "coalition-reachability")
    check(battery, "secret-key-distinctness")


def test_criterion_09_deterministic_artifacts(tmp_path, capsys):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(SAMPLE_POLICY_DOC), encoding="utf-8")
    seed = "5a" * 32
    outputs = []
    for tag in ("one", "two"):
        build = tmp_path / f"build-{tag}"
        keys = tmp_path / f"keys-{tag}"
        assert cli_main(["build-tree", str(policy), "--out-dir", str(build)]) == 0
        assert (
            cli_main(
                [
                    "keygen",
                    str(policy),
                    "--tree",
                    str(build / "tree.json"),
                    "--seed",
                    seed,
                    "--out-dir",
                    str(keys),
                ]
            )
            == 0
        )
        files = {}
        for directory in (build, keys):
            for path in sorted(directory.iterdir()):
                files[f"{directory.name.split('-')[0]}/{path.name}"] = path.read_bytes()
        outputs.append(files)
    capsys.readouterr()
    assert sorted(outputs[0]) == sorted(outputs[1])
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"artifact {name} differs between runs"


def test_criterion_10_prf_standard_vector_stands_in(battery):
    # computational indistinguishability is not testable at desk scale; its
    # declared stand-ins are the structural checks of criterion 8 plus the
    # standard-vector self-check of the PRF primitive
    self_check()
    independent = hashlib.sha256(
        bytes(b ^ 0x5C for b in b"Jefe".ljust(64, b"\x00"))
        + hashlib.sha256(
            bytes(b ^ 0x36 for b in b"Jefe".ljust(64, b"\x00"))
            + b"what do ya want for nothing?"
        ).digest()
    ).hexdigest()
    assert independent == "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    check(battery, "derive-correctness")
    check(battery, "coalition-reachability")
