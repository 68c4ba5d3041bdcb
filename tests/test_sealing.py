import collections
import importlib.util
import os
import tracemalloc
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from treekeys import PolicyError, VerificationError, sealing
from treekeys.sealing import CHUNK_BYTES, MAGIC, NONCE_BYTES, seal, sealed_label, unseal

KEY = bytes(range(32))


def load_benchmark_checks():
    """``perfbench/checks.py``, which opens containers with its own parser."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sealed(key, label, plaintext):
    """The whole container that ``seal`` yields in pieces."""
    return b"".join(seal(key, label, plaintext))


def opened(key, blob):
    """``unseal``'s label and its plaintext pieces joined."""
    label, pieces = unseal(key, blob)
    return label, b"".join(pieces)


def test_round_trip():
    blob = sealed(KEY, "e", b"secret payload")
    assert blob.startswith(MAGIC)
    label, plaintext = opened(KEY, blob)
    assert label == "e"
    assert plaintext == b"secret payload"


def test_label_is_readable_without_key():
    blob = sealed(KEY, "department/alpha", b"x")
    assert sealed_label(blob) == "department/alpha"


def test_empty_plaintext():
    label, plaintext = opened(KEY, sealed(KEY, "e", b""))
    assert plaintext == b""


def test_tampered_ciphertext_rejected():
    blob = bytearray(sealed(KEY, "e", b"secret payload"))
    blob[-1] ^= 0x01
    with pytest.raises(VerificationError):
        unseal(KEY, bytes(blob))


def test_wrong_key_rejected():
    blob = sealed(KEY, "e", b"secret payload")
    with pytest.raises(VerificationError):
        unseal(bytes(32), blob)


def test_label_swap_rejected():
    # rewriting the header label must break authentication: the label is
    # bound as associated data
    blob = sealed(KEY, "e", b"secret payload")
    swapped = blob.replace(b"\x00\x01e", b"\x00\x01c", 1)
    assert sealed_label(swapped) == "c"
    with pytest.raises(VerificationError):
        unseal(KEY, swapped)


def test_bad_magic_rejected():
    with pytest.raises(PolicyError, match="magic"):
        unseal(KEY, b"NOPE" + os.urandom(30))


def test_truncated_container_rejected():
    blob = sealed(KEY, "e", b"payload")
    with pytest.raises(PolicyError, match="truncated"):
        sealed_label(blob[: len(MAGIC) + 2 + 1])


def test_unicode_label():
    blob = sealed(KEY, "отдел-β", b"payload")
    assert sealed_label(blob) == "отдел-β"
    assert opened(KEY, blob)[1] == b"payload"


def test_fresh_nonces_by_default():
    first = sealed(KEY, "e", b"x")
    second = sealed(KEY, "e", b"x")
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
    blob = sealed(KEY, "dept/β", plaintext)
    encoded = "dept/β".encode("utf-8")
    expected = (MAGIC + len(encoded).to_bytes(2, "big") + encoded + nonce
                + ChaCha20Poly1305(KEY).encrypt(nonce, plaintext, encoded))
    assert blob == expected
    assert load_benchmark_checks().open_sealed(blob, KEY) == ("dept/β", plaintext)
    assert opened(KEY, expected) == ("dept/β", plaintext)


@pytest.mark.parametrize("label", ["e", "отдел-β/部門", "x" * 0xFFFF],
                         ids=["one-byte", "multi-byte", "longest"])
@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, CHUNK_BYTES - 1, CHUNK_BYTES,
                                  CHUNK_BYTES + 1, 3 * CHUNK_BYTES + 7])
def test_pieces_join_to_the_one_shot_cipher(size, label, monkeypatch):
    # the construction computed a chunk at a time is RFC 8439's AEAD, byte for
    # byte, across every chunk and Poly1305 block boundary
    nonce = bytes(range(7, 7 + NONCE_BYTES))
    monkeypatch.setattr("treekeys.sealing.os.urandom", lambda n: nonce[:n])
    plaintext = os.urandom(size)
    encoded = label.encode("utf-8")
    pieces = list(seal(KEY, label, plaintext))
    assert b"".join(pieces) == (MAGIC + len(encoded).to_bytes(2, "big") + encoded + nonce
                                + ChaCha20Poly1305(KEY).encrypt(nonce, plaintext, encoded))
    assert max(map(len, pieces[1:])) <= CHUNK_BYTES
    assert opened(KEY, b"".join(pieces)) == (label, plaintext)


#: RFC 8439 §2.8.2: the AEAD_CHACHA20_POLY1305 example.
RFC_KEY = bytes(range(0x80, 0xA0))
RFC_NONCE = bytes.fromhex("070000004041424344454647")
RFC_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
RFC_PLAINTEXT = (b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip "
                 b"for the future, sunscreen would be it.")
RFC_CIPHERTEXT = bytes.fromhex(
    "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b6116")
RFC_TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")


def test_rfc8439_aead_vector_across_two_chunks(monkeypatch):
    # its associated data is not UTF-8, so no label carries it: the vector
    # goes through the construction that takes raw associated data
    monkeypatch.setattr(sealing, "CHUNK_BYTES", 64)
    pieces = list(sealing._encrypt(RFC_KEY, RFC_NONCE, RFC_AAD, RFC_PLAINTEXT))
    assert [len(piece) for piece in pieces] == [64, 50, 16]
    assert b"".join(pieces) == RFC_CIPHERTEXT + RFC_TAG


def test_any_flipped_bit_is_refused_before_any_plaintext(monkeypatch):
    # the tag is checked over the whole container when unseal is called, so
    # a flip anywhere, in a later chunk too, yields nothing
    monkeypatch.setattr(sealing, "CHUNK_BYTES", 16)
    blob = sealed(KEY, "dept/β", bytes(range(40)))
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        with pytest.raises((VerificationError, PolicyError)):
            unseal(KEY, flipped)


def test_a_container_too_short_for_its_tag_is_refused():
    blob = sealed(KEY, "e", b"")
    with pytest.raises(VerificationError):
        unseal(KEY, blob[:-1])


def drained_peak(fn, *args):
    """The most memory ``fn(*args)`` held at once while its pieces were drawn
    and dropped, one at a time."""
    def drain():
        pieces = fn(*args)
        collections.deque(pieces[1] if isinstance(pieces, tuple) else pieces, maxlen=0)

    drain()  # imports and caches come before the measurement
    tracemalloc.start()
    try:
        drain()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seal_holds_a_few_chunks_beyond_its_input():
    plaintext = os.urandom(4 << 20)
    assert drained_peak(seal, KEY, "e", plaintext) <= 4 * CHUNK_BYTES


def test_unseal_holds_a_few_chunks_beyond_its_input():
    plaintext = os.urandom(4 << 20)
    blob = sealed(KEY, "e", plaintext)
    assert drained_peak(unseal, KEY, blob) <= 4 * CHUNK_BYTES
