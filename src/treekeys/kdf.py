"""PRF-based key material: generation down a derivation tree, bundling,
and derivation.

Each label x carries two 32-byte values: a derivation secret s(x), used
as a PRF key to produce child secrets, and an object key k(x), produced
from s(x) and the label itself. Object keys never key the PRF again, so
exposing one never helps derive another. A holder at label x receives the
secrets of x's start points; everything at or below x (and nothing else)
is then derivable with no public helper data.

The PRF is HMAC-SHA-256; a published test vector is checked at import so
a broken primitive fails loudly rather than generating garbage keys.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .allocation import canonical_allocation, start_points
from .errors import AuthorizationError, PolicyError, check_fields
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


def self_check() -> None:
    """Verify the underlying HMAC-SHA-256 against published test vectors."""
    for key, message, expected in _SELF_CHECK_VECTORS:
        got = hmac.new(key, message, hashlib.sha256).hexdigest()
        if got != expected:
            raise RuntimeError("HMAC-SHA-256 self-check failed; refusing to derive keys")


self_check()


def prf(key: bytes, message: bytes) -> bytes:
    """Keyed pseudorandom function: 32-byte key, arbitrary message, 32-byte output."""
    if len(key) != KEY_BYTES:
        raise ValueError(f"PRF key must be exactly {KEY_BYTES} bytes, got {len(key)}")
    return hmac.new(key, message, hashlib.sha256).digest()


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

    def rng(n: int) -> bytes:
        out = b""
        counter = 0
        while len(out) < n:
            out += hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
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


@dataclass(frozen=True)
class SecretStore:
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
        return cls(tree=tree, secrets=secrets, keys=keys)


@dataclass(frozen=True)
class SigmaBundle:
    """The secrets handed to holders at one label: one per start point."""

    holder: str
    secrets: Mapping[str, bytes]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "holder": self.holder,
            "secrets": {label: value.hex() for label, value in sorted(self.secrets.items())},
        }

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "SigmaBundle":
        check_fields(document, {"holder", "secrets"}, "bundle")
        holder = document.get("holder")
        secrets = document.get("secrets")
        if not isinstance(holder, str) or not isinstance(secrets, Mapping):
            raise PolicyError("bundle document needs a 'holder' label and a 'secrets' map")
        try:
            parsed = _decode_secrets(secrets, "secret")
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"malformed bundle secrets: {exc}") from exc
        return cls(holder=holder, secrets=parsed)


def setup(
    poset: Poset,
    tree: DerivationOutTree,
    *,
    rng: Callable[[int], bytes] = os.urandom,
) -> tuple[SecretStore, dict[str, SigmaBundle]]:
    """Generate all secrets and keys for the tree, plus one bundle per label.

    The root secret is drawn from ``rng``; every other secret is the PRF of
    its parent's secret and its own label, walked root to leaf. No public
    helper data is produced. Each bundle carries the secrets of its
    label's canonical start points.
    """
    allocation = canonical_allocation(poset, tree)
    root_secret = rng(KEY_BYTES)
    if not isinstance(root_secret, bytes) or len(root_secret) != KEY_BYTES:
        raise ValueError(f"randomness source must yield {KEY_BYTES} bytes")
    secrets: dict[str, bytes] = {tree.root: root_secret}
    keys: dict[str, bytes] = {}
    kids = tree.children_map()
    stack = [tree.root]
    while stack:
        x = stack.pop()
        keys[x] = prf(secrets[x], encode_label(x))
        for child in reversed(kids[x]):
            secrets[child] = prf(secrets[x], encode_label(child))
            stack.append(child)
    store = SecretStore(tree=tree, secrets=secrets, keys=keys)
    bundles = {
        x: SigmaBundle(holder=x, secrets={z: secrets[z] for z in sorted(allocation.phi[x])})
        for x in poset.sorted_elements
    }
    return store, bundles


def derive(
    poset: Poset,
    tree: DerivationOutTree,
    bundle: SigmaBundle,
    target: str,
) -> bytes:
    """Derive the object key for ``target`` from a holder's bundle.

    ``tree`` must be a validated derivation tree for ``poset``. Refuses
    (without touching any secret) unless the target sits at or below the
    holder, and rejects a bundle whose start points are not the holder's.
    Walks the unique tree path from the covering start point down to the
    target, one PRF step per hop, then one final key step.
    """
    poset.require(target)
    poset.require(bundle.holder)
    if not poset.leq(target, bundle.holder):
        raise AuthorizationError(f"{bundle.holder!r} is not authorized for {target!r}")
    if set(bundle.secrets) != start_points(poset, tree, bundle.holder):
        raise PolicyError(f"malformed bundle for {bundle.holder!r}: start points do not match")
    path: list[str] = []
    start = None
    for anc in tree.ancestors(target):
        path.append(anc)
        if anc in bundle.secrets:
            start = anc
            break
    if start is None:
        raise PolicyError(f"no start point of {bundle.holder!r} covers {target!r}")
    secret = bundle.secrets[start]
    for step in reversed(path[:-1]):
        secret = prf(secret, encode_label(step))
    return prf(secret, encode_label(target))
