"""Authenticated object sealing bound to a policy label.

Container layout: magic "PKAS1", two-byte big-endian label length, the
label's UTF-8 bytes, a 12-byte nonce, then the ChaCha20-Poly1305
ciphertext (RFC 8439 §2.8) and its 16-byte tag. The label rides as
associated data, so a ciphertext cannot be replayed under a different
label even though the label itself is public.

The construction is computed ``CHUNK_BYTES`` at a time from ChaCha20 and
Poly1305, so neither call holds a second copy of its object: ``seal``
yields the container piece by piece, and ``unseal`` checks the tag over
the whole container before it yields the first piece of plaintext.

``cryptography`` is imported on the first seal or unseal, so commands
that never touch a sealed object do not load it, and it is the only
OpenSSL any command maps: key derivation needs none.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator

from .errors import PolicyError, VerificationError

MAGIC = b"PKAS1"
NONCE_BYTES = 12
CHUNK_BYTES = 1 << 16
_LEN_BYTES = 2
_TAG_BYTES = 16  # the Poly1305 tag that follows the ciphertext


def _pad16(size: int) -> bytes:
    return bytes(-size % 16)


def _keyed(key: bytes, nonce: bytes, aad: bytes):
    """One message's ChaCha20 keystream from block 1, and its Poly1305,
    keyed by block 0 and fed the padded associated data (RFC 8439 §2.8)."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
    from cryptography.hazmat.primitives.poly1305 import Poly1305

    def block(counter: int):
        return Cipher(algorithms.ChaCha20(key, counter.to_bytes(4, "little") + nonce), None)

    mac = Poly1305(block(0).encryptor().update(bytes(32)))
    mac.update(aad + _pad16(len(aad)))
    return block(1).encryptor(), mac


def _lengths(aad: bytes, size: int) -> bytes:
    """What Poly1305 reads after a ciphertext of ``size`` bytes."""
    return _pad16(size) + len(aad).to_bytes(8, "little") + size.to_bytes(8, "little")


def _pieces(data: bytes | memoryview) -> Iterator[memoryview]:
    with memoryview(data) as view:
        for start in range(0, len(view), CHUNK_BYTES):
            yield view[start : start + CHUNK_BYTES]


def _encrypt(
    key: bytes, nonce: bytes, aad: bytes, plaintext: bytes | memoryview
) -> Iterator[bytes]:
    """ChaCha20-Poly1305 of ``plaintext`` under ``aad``: the ciphertext
    ``CHUNK_BYTES`` at a time, then the tag, each computed as it is drawn."""
    stream, mac = _keyed(key, nonce, aad)

    def chunks() -> Iterator[bytes]:
        for piece in _pieces(plaintext):
            piece = stream.update(piece)
            mac.update(piece)
            yield piece
        mac.update(_lengths(aad, len(plaintext)))
        yield mac.finalize()

    return chunks()


def seal(key: bytes, label: str, plaintext: bytes | memoryview) -> Iterator[bytes]:
    """Encrypt ``plaintext`` under the object key for ``label`` with a fresh
    random nonce. Returns the container as byte strings to be joined or
    written in order: the header, the ciphertext, the tag."""
    encoded = label.encode("utf-8")
    if not encoded or len(encoded) > 0xFFFF:
        raise PolicyError(f"label must encode to 1..65535 bytes, got {len(encoded)}")
    nonce = os.urandom(NONCE_BYTES)
    header = MAGIC + len(encoded).to_bytes(_LEN_BYTES, "big") + encoded + nonce
    return itertools.chain((header,), _encrypt(key, nonce, encoded, plaintext))


def sealed_label(blob: bytes | memoryview) -> str:
    """Read the (public) label of a sealed container without decrypting."""
    if len(blob) < len(MAGIC) + _LEN_BYTES or blob[: len(MAGIC)] != MAGIC:
        raise PolicyError("not a sealed object: bad magic")
    offset = len(MAGIC)
    label_len = int.from_bytes(blob[offset : offset + _LEN_BYTES], "big")
    offset += _LEN_BYTES
    if len(blob) < offset + label_len + NONCE_BYTES:
        raise PolicyError("truncated sealed object")
    try:
        return str(blob[offset : offset + label_len], "utf-8")
    except UnicodeDecodeError as exc:
        raise PolicyError(f"sealed object carries a non-UTF-8 label: {exc}") from exc


def unseal(key: bytes, blob: bytes | memoryview) -> tuple[str, Iterator[bytes]]:
    """Authenticate a sealed container, returning (label, plaintext pieces).

    Raises VerificationError, before any plaintext is computed, when
    authentication fails (tampered payload, wrong key, or a
    label/ciphertext mismatch). The pieces are decrypted from ``blob`` as
    they are drawn.
    """
    from cryptography.exceptions import InvalidSignature

    label = sealed_label(blob)
    encoded = label.encode("utf-8")
    start = len(MAGIC) + _LEN_BYTES + len(encoded) + NONCE_BYTES
    if len(blob) < start + _TAG_BYTES:
        raise VerificationError("sealed object failed authentication")
    view = memoryview(blob)
    ciphertext, tag = view[start : len(blob) - _TAG_BYTES], view[len(blob) - _TAG_BYTES :]
    stream, mac = _keyed(key, bytes(view[start - NONCE_BYTES : start]), encoded)
    mac.update(ciphertext)
    mac.update(_lengths(encoded, len(ciphertext)))
    try:
        mac.verify(bytes(tag))
    except InvalidSignature as exc:
        raise VerificationError("sealed object failed authentication") from exc
    return label, map(stream.update, _pieces(ciphertext))
