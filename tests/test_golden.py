"""Behaviour freeze: the CLI's artifacts must stay byte-identical.

Each case runs ``build-tree`` (plain and ``--min-leaves``, over cover
arcs and over ``--arcs closure``), a seeded ``keygen``, ``compare
--json`` and ``analyze --json`` on one policy and compares SHA-256
digests of every output with ``golden_digests.json``. A deliberate
change of output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from treekeys.cli import main

from conftest import SAMPLE_POLICY_DOC, sparse_policy_doc

GOLDEN = Path(__file__).with_name("golden_digests.json")
SEED = "5e" * 32


def _sample_without_top():
    return {
        "elements": [x for x in SAMPLE_POLICY_DOC["elements"] if x != "h"],
        "arcs": [arc for arc in SAMPLE_POLICY_DOC["arcs"] if "h" not in arc],
    }


CASES = {
    "sample": lambda: SAMPLE_POLICY_DOC,
    "sample-without-top": _sample_without_top,
    "sparse-500": lambda: sparse_policy_doc(500, seed=7),
    **{f"sparse-40-{seed}": (lambda seed=seed: sparse_policy_doc(40, seed)) for seed in (1, 2, 3)},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*args) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    assert code == 0, f"{args[0]} exited {code}"
    return out.getvalue().encode("utf-8")


def case_digests(document) -> dict[str, str]:
    """Digests of every artifact the CLI writes for one policy."""
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        policy = work / "policy.json"
        policy.write_text(json.dumps(document), encoding="utf-8")
        builds = (
            ("build-tree", ()),
            ("build-tree-min-leaves", ("--min-leaves",)),
            ("build-tree-closure", ("--arcs", "closure")),
            ("build-tree-closure-min-leaves", ("--arcs", "closure", "--min-leaves")),
        )
        for name, flags in builds:
            out = work / name
            _run("build-tree", policy, *flags, "--out-dir", out)
            for artifact in ("tree.json", "allocation.json", "metrics.json"):
                digests[f"{name}/{artifact}"] = _sha((out / artifact).read_bytes())
        keys = work / "keys"
        _run("keygen", policy, "--tree", work / "build-tree-min-leaves" / "tree.json",
             "--seed", SEED, "--out-dir", keys)
        digests["keygen/keystore.json"] = _sha((keys / "keystore.json").read_bytes())
        bundles = sorted(p for p in keys.iterdir() if p.name != "keystore.json")
        listing = "".join(f"{p.name} {_sha(p.read_bytes())}\n" for p in bundles)
        digests["keygen/bundles"] = _sha(listing.encode("utf-8"))
        digests["compare --json"] = _sha(_run("compare", policy, "--json"))
        digests["analyze --json"] = _sha(_run("analyze", policy, "--json"))
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert case_digests(CASES[case]()) == expected


if __name__ == "__main__":
    record = {case: case_digests(make()) for case, make in sorted(CASES.items())}
    print(json.dumps(record, indent=2, sort_keys=True))
