"""Arbitrary JSON and arbitrary bytes into every document loader, through
the CLI in process.

One of the six documents a command reads (policy, tree, bundle, keystore,
manifest, partition) is replaced by an arbitrary JSON value, by a valid
document with one value somewhere inside it replaced or dropped, or by
arbitrary bytes. Whatever the document, the exit-code contract holds: the
command returns 0, 1, 2 or 3 and raises nothing. Files that no JSON
loader accepts (bad UTF-8, an integer too long to convert, nesting deeper
than the recursion limit) exit 1.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekeys.cli import main

from conftest import SAMPLE_ELEMENTS, SAMPLE_PARTITION_DOC, SAMPLE_POLICY_DOC

SEED = "ab" * 32

#: Text that may hold lone surrogates (category Cs): valid JSON, but no UTF-8.
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | TEXT
    | st.sampled_from(SAMPLE_ELEMENTS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(TEXT | st.sampled_from(SAMPLE_ELEMENTS), inner, max_size=4),
    max_leaves=10,
)

#: Each command line; ``{kind}`` stands for the file holding that document.
COMMANDS = [
    ("analyze", "{policy}"),
    ("build-tree", "{policy}", "--min-leaves", "--out-dir", "built"),
    ("build-tree", "{policy}", "--arcs", "closure", "--out-dir", "built"),
    ("keygen", "{policy}", "--tree", "{tree}", "--seed", SEED, "--out-dir", "keys"),
    ("derive", "{policy}", "--tree", "{tree}", "--bundle", "{bundle}", "a"),
    ("compare", "{policy}"),
    ("compare", "{policy}", "--partition", "{partition}"),
    ("encrypt", "{policy}", "--tree", "{tree}", "--keystore", "{keystore}",
     "--manifest", "{manifest}"),
    ("encrypt", "{policy}", "--tree", "{tree}", "--bundle", "{bundle}",
     "--manifest", "{manifest}"),
    ("decrypt", "{policy}", "--tree", "{tree}", "--keystore", "{keystore}",
     "report.txt.sealed", "--out-dir", "opened"),
    ("decrypt", "{policy}", "--tree", "{tree}", "--bundle", "{bundle}",
     "report.txt.sealed", "--out-dir", "opened"),
    ("verify", "{policy}", "--seeds", "0"),
]


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _main_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Every document of a working deployment of the sample, plus a sealed object."""
    root = tmp_path_factory.mktemp("deployment")
    with _inside(root):
        Path("policy.json").write_text(json.dumps(SAMPLE_POLICY_DOC))
        Path("partition.json").write_text(json.dumps(SAMPLE_PARTITION_DOC))
        Path("manifest.json").write_text(
            json.dumps({"objects": [{"path": "report.txt", "label": "a"}]})
        )
        Path("report.txt").write_bytes(b"numbers\n")
        assert _main_quietly(["build-tree", "policy.json", "--out-dir", "."]) == 0
        assert _main_quietly(["keygen", "policy.json", "--tree", "tree.json",
                              "--seed", SEED, "--out-dir", "."]) == 0
        assert _main_quietly(["encrypt", "policy.json", "--tree", "tree.json",
                              "--keystore", "keystore.json", "--manifest", "manifest.json"]) == 0
    names = {"policy": "policy.json", "tree": "tree.json", "bundle": "sigma_f.json",
             "keystore": "keystore.json", "manifest": "manifest.json",
             "partition": "partition.json"}
    files = {kind: (root / name).read_bytes() for kind, name in names.items()}
    files["report.txt"] = (root / "report.txt").read_bytes()
    files["report.txt.sealed"] = (root / "report.txt.sealed").read_bytes()
    return files


@st.composite
def variants(draw, valid):
    """``valid`` with the value at one place inside it replaced or dropped,
    or an arbitrary JSON value instead."""
    document = copy.deepcopy(valid)
    node, place = document, None
    while isinstance(node, (dict, list)) and node and (place is None or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        place, node = (node, key), node[key]
    if place is None or draw(st.integers(0, 5)) == 0:
        return draw(JSON)
    container, key = place
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(JSON)
    return document


def documents(valid):
    """The bytes of a JSON variant of ``valid``, or arbitrary bytes."""
    return variants(valid).map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=40)


def _run_with(valid_files, command, kind, content):
    """Run ``command`` in a fresh deployment whose ``kind`` document is ``content``."""
    kinds = [arg[1:-1] for arg in command if arg.startswith("{")]
    with tempfile.TemporaryDirectory() as work, _inside(work):
        for name, valid in valid_files.items():
            Path(f"{name}.json" if "." not in name else name).write_bytes(valid)
        Path(f"{kind}.json").write_bytes(content)
        return _main_quietly([arg.format(**{k: f"{k}.json" for k in kinds}) for arg in command])


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_any_document_keeps_the_exit_code_contract(valid_files, command, data):
    kinds = [arg[1:-1] for arg in command if arg.startswith("{")]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    content = data.draw(documents(json.loads(valid_files[kind])), label="document")
    assert _run_with(valid_files, command, kind, content) in (0, 1, 2, 3)


UNLOADABLE = {
    "bad-utf8": b'{"elements": ["\xff\xfe"]}',
    "long-integer": b"[" + b"7" * 5000 + b"]",
    "deep-nesting": b"[" * 200_000,
}


@pytest.mark.parametrize("content", UNLOADABLE.values(), ids=list(UNLOADABLE))
@pytest.mark.parametrize("kind", ["policy", "tree", "bundle", "keystore", "manifest", "partition"])
def test_unloadable_file_exits_one(valid_files, kind, content):
    command = next(c for c in COMMANDS if f"{{{kind}}}" in c)
    assert _run_with(valid_files, command, kind, content) == 1
