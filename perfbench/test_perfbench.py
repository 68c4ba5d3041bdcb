"""Tests of the benchmark itself: deterministic inputs, self-time
arithmetic, and output checks that catch wrong results.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json

import pytest

import checks
import inputs
import run
import tracing


def _inputs_for(seed: int) -> bytes:
    mls = inputs.mls_policy(seed)
    order = inputs.Order.from_policy(mls)
    objects = inputs.corpus(seed, list(order.labels))
    stream = list(itertools.islice(inputs.command_stream(seed, order, objects), 400))
    return b"".join([
        inputs.policy_bytes(inputs.sparse_policy(seed)),
        inputs.policy_bytes(mls),
        *(name.encode() + label.encode() + data for name, label, data in objects),
        repr(stream).encode(),
    ])


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs_for(5) == _inputs_for(5)
    assert _inputs_for(5) != _inputs_for(6)


def test_command_stream_mix_and_authorization():
    order = inputs.Order.from_policy(inputs.mls_policy(1))
    objects = inputs.corpus(1, list(order.labels))
    block = list(itertools.islice(inputs.command_stream(1, order, objects),
                                  sum(inputs.STREAM_MIX.values())))
    kinds = [c[0] for c in block]
    assert {k: kinds.count(k) for k in inputs.STREAM_MIX} == inputs.STREAM_MIX
    at = order.index
    for command in block:
        if command[0] == "derive":
            assert order.leq(at(command[2]), at(command[1]))
        elif command[0] == "decrypt":
            assert all(order.leq(at(objects[j][1]), at(command[1])) for j in command[2])
        elif command[0] == "refuse":
            target = command[3] if command[1] == "derive" else objects[command[3]][1]
            assert not order.leq(at(target), at(command[2]))


def test_structure_counts_of_the_mls_lattice():
    order = inputs.Order.from_policy(inputs.mls_policy(0))
    assert order.rooted() is order
    assert (len(order.labels), order.cover_arcs(), order.closure_pairs(), order.width()) == (
        256, 960, 7034, 56)


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 10] calls a [1, 4] and b [5, 9]; b calls c [6, 7] and d [6.5, 8],
    # which overlap, so b's covered time is their union [6, 8].
    spans = [
        [0, -1, 0.0, 10.0],
        [1, 0, 1.0, 4.0],
        [2, 0, 5.0, 9.0],
        [3, 2, 6.0, 7.0],
        [3, 2, 6.5, 8.0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    record = {"names": ["cli.main", "a", "b", "c"], "spans": spans}
    per_function, traced = tracing.summarize(record)
    assert traced == 10.0
    assert per_function == {
        "cli.main": [1, pytest.approx(3.0)],
        "a": [1, pytest.approx(3.0)],
        "b": [1, pytest.approx(2.0)],
        "c": [2, pytest.approx(2.5)],
    }


def _deployment(tmp_path):
    """A three-label chain r > a > b with its keystore and bundles."""
    build, keys_dir = tmp_path / "build", tmp_path / "keys"
    build.mkdir()
    keys_dir.mkdir()
    tree = {"root": "r", "parents": {"a": "r", "b": "a"}}
    seed = "00" * 32
    secrets, keys = checks.expected_keystore(tree, checks.seeded_root_secret(seed))
    (build / "tree.json").write_text(json.dumps(tree))
    (build / "allocation.json").write_text(json.dumps({"phi": {x: [x] for x in "rab"}}))
    store = {"tree": tree, "secrets": {x: v.hex() for x, v in secrets.items()},
             "keys": {x: v.hex() for x, v in keys.items()}}
    (keys_dir / "keystore.json").write_text(json.dumps(store))
    for x in "rab":
        checks.bundle_path(keys_dir, x).write_text(
            json.dumps({"holder": x, "secrets": {x: secrets[x].hex()}}))
    return build, keys_dir, seed, store, keys


def test_checker_rejects_a_corrupted_key(tmp_path):
    build, keys_dir, seed, store, keys = _deployment(tmp_path)
    assert checks.check_keys(build, keys_dir, seed, "rab") == []
    assert checks.check_derived(keys["b"].hex() + "\n", keys["b"]) == []
    store["keys"]["b"] = "ff" * 32
    (keys_dir / "keystore.json").write_text(json.dumps(store))
    assert checks.check_keys(build, keys_dir, seed, "rab")
    assert checks.check_derived("ff" * 32, keys["b"])


def test_checker_rejects_a_corrupted_plaintext(tmp_path):
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    key, label, plaintext = b"k" * 32, "s1.ab", b"attack at dawn"
    encoded, nonce = label.encode(), b"n" * 12
    blob = (checks.SEALED_MAGIC + len(encoded).to_bytes(2, "big") + encoded + nonce
            + ChaCha20Poly1305(key).encrypt(nonce, plaintext, encoded))
    sealed = tmp_path / "obj.sealed"
    sealed.write_bytes(blob)
    assert checks.check_sealed(sealed, label, plaintext, {label: key}) == []
    sealed.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
    assert checks.check_sealed(sealed, label, plaintext, {label: key})
    opened = tmp_path / "obj"
    opened.write_bytes(b"attack at dusk")
    assert checks.check_opened(opened, plaintext)


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    session = run.Session(tmp_path, tmp_path, trace=False)
    refused = run.Outcome(code=2, wall=0.1, stdout="", stderr="treekeys: not authorized")
    assert session._judge(refused, 2) is None
    assert session._judge(refused, 0)
    crashed = run.Outcome(code=1, wall=0.1, stdout="", stderr="Traceback (most recent call last):\nX")
    assert session._judge(crashed, 1).startswith("traceback")
    session.attempted = 1
    assert not session.accept("derive", refused, ["exit 2, expected 0"])
    assert session.failures == ["derive: exit 2, expected 0"]


def test_verify_report_with_an_empty_check_is_rejected():
    good = {"passed": True, "checks": [{"name": "a", "instances": 3}]}
    assert checks.check_verify_report(json.dumps(good)) == []
    empty = {"passed": True, "checks": [{"name": "a", "instances": 0}]}
    assert checks.check_verify_report(json.dumps(empty))
