import importlib.util
import os
import tracemalloc
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from treekeys import PolicyError, VerificationError
from treekeys.sealing import MAGIC, NONCE_BYTES, seal, sealed_label, unseal

KEY = bytes(range(32))


def load_benchmark_checks():
    """``perfbench/checks.py``, which opens containers with its own parser."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_round_trip():
    blob = seal(KEY, "e", b"secret payload")
    assert blob.startswith(MAGIC)
    label, plaintext = unseal(KEY, blob)
    assert label == "e"
    assert plaintext == b"secret payload"


def test_label_is_readable_without_key():
    blob = seal(KEY, "department/alpha", b"x")
    assert sealed_label(blob) == "department/alpha"


def test_empty_plaintext():
    label, plaintext = unseal(KEY, seal(KEY, "e", b""))
    assert plaintext == b""


def test_tampered_ciphertext_rejected():
    blob = bytearray(seal(KEY, "e", b"secret payload"))
    blob[-1] ^= 0x01
    with pytest.raises(VerificationError):
        unseal(KEY, bytes(blob))


def test_wrong_key_rejected():
    blob = seal(KEY, "e", b"secret payload")
    with pytest.raises(VerificationError):
        unseal(bytes(32), blob)


def test_label_swap_rejected():
    # rewriting the header label must break authentication: the label is
    # bound as associated data
    blob = seal(KEY, "e", b"secret payload")
    swapped = blob.replace(b"\x00\x01e", b"\x00\x01c", 1)
    assert sealed_label(swapped) == "c"
    with pytest.raises(VerificationError):
        unseal(KEY, swapped)


def test_bad_magic_rejected():
    with pytest.raises(PolicyError, match="magic"):
        unseal(KEY, b"NOPE" + os.urandom(30))


def test_truncated_container_rejected():
    blob = seal(KEY, "e", b"payload")
    with pytest.raises(PolicyError, match="truncated"):
        sealed_label(blob[: len(MAGIC) + 2 + 1])


def test_unicode_label():
    blob = seal(KEY, "отдел-β", b"payload")
    assert sealed_label(blob) == "отдел-β"
    assert unseal(KEY, blob)[1] == b"payload"


def test_fresh_nonces_by_default():
    first = seal(KEY, "e", b"x")
    second = seal(KEY, "e", b"x")
    assert first != second  # random nonce
    offset = len(MAGIC) + 2 + 1
    assert first[offset : offset + NONCE_BYTES] != second[offset : offset + NONCE_BYTES]


def test_empty_label_rejected():
    with pytest.raises(PolicyError):
        seal(KEY, "", b"x")


@pytest.mark.parametrize("plaintext", [b"secret payload", b""], ids=["payload", "empty"])
def test_layout_with_a_fixed_nonce(plaintext, monkeypatch):
    nonce = bytes(range(100, 100 + NONCE_BYTES))
    monkeypatch.setattr("treekeys.sealing.os.urandom", lambda n: nonce[:n])
    blob = seal(KEY, "dept/β", plaintext)
    encoded = "dept/β".encode("utf-8")
    expected = (MAGIC + len(encoded).to_bytes(2, "big") + encoded + nonce
                + ChaCha20Poly1305(KEY).encrypt(nonce, plaintext, encoded))
    assert blob == expected
    assert load_benchmark_checks().open_sealed(blob, KEY) == ("dept/β", plaintext)
    assert unseal(KEY, expected) == ("dept/β", plaintext)


def peak_bytes(fn, *args):
    """The most memory ``fn(*args)`` held at once, its result included."""
    fn(*args)  # imports and caches come before the measurement
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seal_holds_one_container_sized_buffer():
    plaintext = os.urandom(1 << 20)
    assert peak_bytes(seal, KEY, "e", plaintext) <= 1.1 * len(plaintext)


def test_unseal_holds_only_the_plaintext():
    plaintext = os.urandom(1 << 20)
    blob = seal(KEY, "e", plaintext)
    assert peak_bytes(unseal, KEY, blob) <= 1.1 * len(plaintext)
