"""PRF-based key material: generation down a derivation tree, bundling,
and derivation.

Each label x carries two 32-byte values: a derivation secret s(x), used
as a PRF key to produce child secrets, and an object key k(x), produced
from s(x) and the label itself. Object keys never key the PRF again, so
exposing one never helps derive another. A holder at label x receives the
secrets of x's start points; everything at or below x (and nothing else)
is then derivable with no public helper data.

The PRF is HMAC-SHA-256 (RFC 2104), written out here over the
interpreter's built-in SHA-256 module, so no command maps OpenSSL to
derive a key. The SHA-256 constructor is resolved once per process, on
the first ``prf`` or ``seeded_bytes`` call, which first checks published
test vectors: a broken primitive stops the first key derivation of every
process rather than generating garbage keys, and commands that derive no
key never resolve it. Only an interpreter built without that module
falls back to ``hashlib``; the construction and its bytes stay the same.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, NamedTuple

from .allocation import start_points
from .errors import AuthorizationError, PolicyError, VerificationError, check_fields
from .poset import Poset
from .trees import DerivationOutTree

#: Secret and key size in bytes (256-bit security parameter).
KEY_BYTES = 32

# Standard HMAC-SHA-256 test vectors (20-byte and 4-byte keys).
_SELF_CHECK_VECTORS = (
    (
        bytes.fromhex("0b" * 20),
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
)

_BLOCK = 64  # SHA-256's block size in bytes
# HMAC's inner and outer pads as ``bytes.translate`` tables: byte b maps to b XOR pad
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))

#: SHA-256 and HMAC-SHA-256 over it, once ``self_check`` has passed in this process.
_sha256: Callable[[bytes], Any] | None = None
_hmac_digest: Callable[[bytes, bytes], bytes] | None = None


def _load_sha256() -> Callable[[bytes], Any]:
    """The built-in SHA-256 constructor, which maps no OpenSSL."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def _hmac_over(sha256: Callable[[bytes], Any]) -> Callable[[bytes, bytes], bytes]:
    """HMAC (RFC 2104) as ``(key, message) -> tag`` over ``sha256``."""

    def digest(key: bytes, message: bytes) -> bytes:
        if len(key) > _BLOCK:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        inner = sha256(key.translate(_IPAD) + message).digest()
        return sha256(key.translate(_OPAD) + inner).digest()

    return digest


def self_check() -> None:
    """Resolve SHA-256 and verify HMAC-SHA-256 over it against published test vectors."""
    global _sha256, _hmac_digest
    sha256 = _load_sha256()
    digest = _hmac_over(sha256)
    for key, message, expected in _SELF_CHECK_VECTORS:
        if digest(key, message).hex() != expected:
            raise VerificationError("HMAC-SHA-256 self-check failed; refusing to derive keys")
    _sha256, _hmac_digest = sha256, digest


def prf(key: bytes, message: bytes) -> bytes:
    """Keyed pseudorandom function: 32-byte key, arbitrary message, 32-byte output."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"PRF key must be exactly {KEY_BYTES} bytes, got {len(key)}")
    if _hmac_digest is None:
        self_check()
    return _hmac_digest(key, message)


def encode_label(label: str) -> bytes:
    """PRF message encoding of a label: its UTF-8 bytes, unframed.

    Labels are unique within a poset, and the two uses of a label (child
    secret vs own key) run under different PRF keys, so no extra framing
    or domain separation is needed.
    """
    return label.encode("utf-8")


def seeded_bytes(seed: bytes) -> Callable[[int], bytes]:
    """A deterministic byte source for reproducible key generation.

    Expands ``seed`` into a SHA-256 counter stream; production setups
    should use ``os.urandom`` instead.
    """
    if not seed:
        raise ValueError("seed must be non-empty")
    if _hmac_digest is None:
        self_check()
    sha256 = _sha256

    def rng(n: int) -> bytes:
        out = b""
        counter = 0
        while len(out) < n:
            out += sha256(seed + counter.to_bytes(8, "big")).digest()
            counter += 1
        return out[:n]

    return rng


def _decode_secrets(values: Mapping[str, Any], what: str) -> dict[str, bytes]:
    """Decode a label -> hex map whose every value must be KEY_BYTES long."""
    decoded = {label: bytes.fromhex(value) for label, value in values.items()}
    for label, value in decoded.items():
        if len(value) != KEY_BYTES:
            raise PolicyError(f"{what} for {label!r} has {len(value)} bytes, not {KEY_BYTES}")
    return decoded


class SecretStore(NamedTuple):
    """All secrets and keys of one deployment, tied to its derivation tree."""

    tree: DerivationOutTree
    secrets: Mapping[str, bytes]
    keys: Mapping[str, bytes]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "tree": self.tree.to_json_dict(),
            "secrets": {label: value.hex() for label, value in sorted(self.secrets.items())},
            "keys": {label: value.hex() for label, value in sorted(self.keys.items())},
        }

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "SecretStore":
        check_fields(document, {"tree", "secrets", "keys"}, "keystore")
        try:
            tree = DerivationOutTree.from_json_dict(document["tree"])
            secrets = _decode_secrets(document["secrets"], "secret")
            keys = _decode_secrets(document["keys"], "key")
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise PolicyError(f"malformed keystore document: {exc}") from exc
        labels = {tree.root, *tree.parent}
        if odd := sorted(labels ^ secrets.keys() | labels ^ keys.keys()):
            raise PolicyError("keystore secrets and keys must each hold exactly its tree's "
                              f"labels; {odd[0]!r} is missing or extra")
        return cls(tree=tree, secrets=secrets, keys=keys)


class SigmaBundle(NamedTuple):
    """The secrets handed to holders at one label: one per start point."""

    holder: str
    secrets: Mapping[str, bytes]

    @classmethod
    def from_json_dict(
        cls, document: Mapping[str, Any], poset: Poset, tree: DerivationOutTree
    ) -> "SigmaBundle":
        check_fields(document, {"holder", "secrets"}, "bundle")
        holder = document.get("holder")
        secrets = document.get("secrets")
        if not isinstance(holder, str) or not isinstance(secrets, Mapping):
            raise PolicyError("bundle document needs a 'holder' label and a 'secrets' map")
        try:
            parsed = _decode_secrets(secrets, "secret")
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"malformed bundle secrets: {exc}") from exc
        if set(parsed) != start_points(poset, tree.parent, holder):
            raise PolicyError(f"malformed bundle for {holder!r}: start points do not match")
        return cls(holder=holder, secrets=parsed)


def setup(
    tree: DerivationOutTree, *, rng: Callable[[int], bytes] = os.urandom
) -> SecretStore:
    """Generate all secrets and keys for the tree.

    The root secret is drawn from ``rng``; every other secret is the PRF of
    its parent's secret and its own label, walked root to leaf. No public
    helper data is produced. A holder at x is handed the secrets of x's
    start points on the same tree.
    """
    root_secret = rng(KEY_BYTES)
    if not isinstance(root_secret, bytes) or len(root_secret) != KEY_BYTES:
        raise ValueError(f"randomness source must yield {KEY_BYTES} bytes")
    secrets: dict[str, bytes] = {tree.root: root_secret}
    keys: dict[str, bytes] = {}
    for x in tree.depths():  # root first: every parent's secret is ready
        if x != tree.root:
            secrets[x] = prf(secrets[tree.parent[x]], encode_label(x))
        keys[x] = prf(secrets[x], encode_label(x))
    return SecretStore(tree=tree, secrets=secrets, keys=keys)


def derive(
    poset: Poset,
    tree: DerivationOutTree,
    bundle: SigmaBundle,
    target: str,
) -> bytes:
    """Derive the object key for ``target`` from a holder's bundle.

    ``tree`` must be a validated derivation tree for ``poset``, and ``bundle``
    must hold exactly its holder's start points on it, as one read by
    ``SigmaBundle.from_json_dict`` or built from the allocation does. Refuses
    (without touching any secret) unless the target sits at or below the
    holder. Walks the unique tree path from the covering start point down to
    the target, one PRF step per hop, then one final key step.
    """
    poset.index(target)
    poset.index(bundle.holder)
    if not (target == bundle.holder or poset.above(bundle.holder, target)):
        raise AuthorizationError(f"{bundle.holder!r} is not authorized for {target!r}")
    path: list[str] = []  # the target up to, not including, the covering start point
    for start in tree.ancestors(target):
        if start in bundle.secrets:
            break
        path.append(start)
    else:
        raise PolicyError(f"no start point of {bundle.holder!r} covers {target!r}")
    secret = bundle.secrets[start]
    for step in reversed(path):
        secret = prf(secret, encode_label(step))
    return prf(secret, encode_label(target))
