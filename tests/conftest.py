"""Shared fixtures: an 8-element sample hierarchy used throughout.

The sample's diagram (parent above child):

        h
       / \\
      f   g
       \\ / \\
        d   e
       / \\ /
      b   c
       \\ /
        a

Structural facts frozen from brute force: 10 cover arcs, 23 strict-order
pairs, width 2, unique maximum h.
"""

import json
import random

import pytest

from treekeys import (
    ChainPartition,
    DerivationOutTree,
    Poset,
)

SAMPLE_ELEMENTS = list("abcdefgh")

SAMPLE_COVERS = [
    ("b", "a"),
    ("c", "a"),
    ("d", "b"),
    ("d", "c"),
    ("e", "c"),
    ("f", "d"),
    ("g", "d"),
    ("g", "e"),
    ("h", "f"),
    ("h", "g"),
]

# Arc costs with one user per label, verified by exhaustive enumeration.
SAMPLE_WEIGHTS = {
    ("b", "a"): 3,
    ("c", "a"): 2,
    ("d", "b"): 1,
    ("d", "c"): 2,
    ("e", "c"): 3,
    ("f", "d"): 2,
    ("g", "d"): 2,
    ("g", "e"): 1,
    ("h", "f"): 1,
    ("h", "g"): 1,
}

SAMPLE_POLICY_DOC = {
    "elements": SAMPLE_ELEMENTS,
    "arcs": [list(arc) for arc in SAMPLE_COVERS],
    "users": {label: 1 for label in SAMPLE_ELEMENTS},
}

SAMPLE_PARTITION_DOC = {"chains": [["h", "g", "e", "c", "a"], ["f", "d", "b"]]}


def sparse_policy_doc(n, seed):
    """A seeded sparse random policy: label i draws two parents uniformly
    from labels i+1..n (a draw of n means "no parent"); users 0-5 per label.
    """
    rng = random.Random(f"sparse/{seed}")
    labels = [f"L{i:04d}" for i in range(n)]
    arcs = []
    for i in range(n):
        for parent in sorted({rng.randint(i + 1, n) for _ in range(2)}):
            if parent < n:
                arcs.append([labels[parent], labels[i]])
    users = {label: rng.randint(0, 5) for label in labels}
    return {"elements": labels, "arcs": arcs, "users": users}


def mls_policy_doc(seed):
    """A seeded 256-label multi-level-security lattice, given by its cover
    arcs: 4 levels x subsets of 6 categories, (l, S) >= (l', S') iff
    l >= l' and S ⊇ S'; users 0-5 per label.
    """
    rng = random.Random(f"mls/{seed}")

    def label(level, cats):
        return f"s{level}." + "".join(c for i, c in enumerate("abcdef") if cats >> i & 1)

    labels, arcs = [], []
    for level in range(4):
        for cats in range(1 << 6):
            labels.append(label(level, cats))
            if level:
                arcs.append([label(level, cats), label(level - 1, cats)])
            for i in range(6):
                if cats >> i & 1:
                    arcs.append([label(level, cats), label(level, cats & ~(1 << i))])
    users = {x: rng.randint(0, 5) for x in labels}
    return {"elements": labels, "arcs": arcs, "users": users}


def one_user_each(poset):
    """One user per label and none at a virtual root: the counts
    ``parse_policy`` gives a policy that lists no "users"."""
    users = dict.fromkeys(poset.labels, 1)
    users[poset.root] = int(not poset.virtual_root)
    return users


@pytest.fixture(scope="session")
def poset8():
    return Poset.from_arcs(SAMPLE_ELEMENTS, SAMPLE_COVERS)


@pytest.fixture(scope="session")
def users8(poset8):
    return one_user_each(poset8)


@pytest.fixture(scope="session")
def tree8_gd():
    """The alternate minimum-cost tree that keeps arc (g, d)."""
    return DerivationOutTree(
        root="h",
        parent={"a": "c", "b": "d", "c": "d", "d": "g", "e": "g", "f": "h", "g": "h"},
    )


@pytest.fixture(scope="session")
def tree8_fd():
    """The minimum-cost tree that keeps arc (f, d); also minimizes leaves."""
    return DerivationOutTree(
        root="h",
        parent={"a": "c", "b": "d", "c": "d", "d": "f", "e": "g", "f": "h", "g": "h"},
    )


@pytest.fixture(scope="session")
def partition8(poset8):
    partition = ChainPartition.from_json_dict(SAMPLE_PARTITION_DOC)
    partition.validate_for(poset8)
    return partition


@pytest.fixture
def policy_file(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(SAMPLE_POLICY_DOC), encoding="utf-8")
    return path


@pytest.fixture
def partition_file(tmp_path):
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(SAMPLE_PARTITION_DOC), encoding="utf-8")
    return path


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")
