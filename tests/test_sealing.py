import os

import pytest

from treekeys import PolicyError, VerificationError
from treekeys.sealing import MAGIC, NONCE_BYTES, seal, sealed_label, unseal

KEY = bytes(range(32))


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
