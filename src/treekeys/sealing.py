"""Authenticated object sealing bound to a policy label.

Container layout: magic "PKAS1", two-byte big-endian label length, the
label's UTF-8 bytes, a 12-byte nonce, then the ChaCha20-Poly1305
ciphertext. The label rides as associated data, so a ciphertext cannot be
replayed under a different label even though the label itself is public.

``cryptography`` is imported on the first seal or unseal, so commands
that never touch a sealed object do not load it, and it is the only
OpenSSL any command maps: key derivation needs none. Each call holds one
container-sized buffer besides its input: ``seal`` encrypts straight
into the container after its header, and ``unseal`` decrypts from a view
of the blob.
"""

from __future__ import annotations

import os

from .errors import PolicyError, VerificationError

MAGIC = b"PKAS1"
NONCE_BYTES = 12
_LEN_BYTES = 2
_TAG_BYTES = 16  # the Poly1305 tag that follows the ciphertext


def seal(key: bytes, label: str, plaintext: bytes) -> bytearray:
    """Encrypt ``plaintext`` under the object key for ``label`` with a fresh random nonce."""
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    encoded = label.encode("utf-8")
    if not encoded or len(encoded) > 0xFFFF:
        raise PolicyError(f"label must encode to 1..65535 bytes, got {len(encoded)}")
    nonce = os.urandom(NONCE_BYTES)
    header = MAGIC + len(encoded).to_bytes(_LEN_BYTES, "big") + encoded + nonce
    blob = bytearray(len(header) + len(plaintext) + _TAG_BYTES)
    blob[: len(header)] = header
    with memoryview(blob) as view:
        ChaCha20Poly1305(key).encrypt_into(nonce, plaintext, encoded, view[len(header) :])
    return blob


def sealed_label(blob: bytes) -> str:
    """Read the (public) label of a sealed container without decrypting."""
    if len(blob) < len(MAGIC) + _LEN_BYTES or not blob.startswith(MAGIC):
        raise PolicyError("not a sealed object: bad magic")
    offset = len(MAGIC)
    label_len = int.from_bytes(blob[offset : offset + _LEN_BYTES], "big")
    offset += _LEN_BYTES
    if len(blob) < offset + label_len + NONCE_BYTES:
        raise PolicyError("truncated sealed object")
    try:
        return blob[offset : offset + label_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PolicyError(f"sealed object carries a non-UTF-8 label: {exc}") from exc


def unseal(key: bytes, blob: bytes) -> tuple[str, bytes]:
    """Decrypt a sealed container, returning (label, plaintext).

    Raises VerificationError when authentication fails (tampered payload,
    wrong key, or a label/ciphertext mismatch).
    """
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    label = sealed_label(blob)
    encoded = label.encode("utf-8")
    offset = len(MAGIC) + _LEN_BYTES + len(encoded)
    nonce = blob[offset : offset + NONCE_BYTES]
    try:
        with memoryview(blob) as view:
            plaintext = ChaCha20Poly1305(key).decrypt(nonce, view[offset + NONCE_BYTES :], encoded)
    except InvalidTag as exc:
        raise VerificationError("sealed object failed authentication") from exc
    return label, plaintext
