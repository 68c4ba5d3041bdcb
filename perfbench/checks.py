"""Output checks for the treekeys benchmark.

Every check returns a list of reasons; an empty list means the output is
right. Keys are recomputed with the standard library's ``hmac`` straight
from the tree (``s(c) = HMAC(s(p), c)``, ``k(x) = HMAC(s(x), x)``) and
sealed objects are opened by parsing the container here, so no check
trusts the code under test.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from pathlib import Path
from urllib.parse import quote

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

#: The fields of metrics.json and of each compare row recorded from the
#: seed commit. Fields added later are ignored.
METRIC_FIELDS = ("K_total", "K_hat", "k_max", "d_max", "p")
COMPARE_SCHEMES = ("basic", "iterative", "direct", "chain", "tree")

SEALED_MAGIC = b"PKAS1"
NONCE_BYTES = 12


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def bundle_path(keys_dir: Path, label: str) -> Path:
    return keys_dir / f"sigma_{quote(label, safe='')}.json"


def deploy_record(build_dir: Path) -> dict:
    """The reference-comparable part of build-tree's outputs, and the tree depth."""
    try:
        tree = load(build_dir / "tree.json")
        allocation = load(build_dir / "allocation.json")
        metrics = load(build_dir / "metrics.json")
        return {
            "tree": digest({"root": tree["root"], "parents": tree["parents"]}),
            "allocation": digest({"phi": allocation["phi"]}),
            "metrics": {field: metrics[field] for field in METRIC_FIELDS},
            "depth": tree_depth(tree),
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"unreadable": str(exc)}


def compare_rows(stdout: str) -> dict:
    """The reference-comparable part of ``compare --json``."""
    try:
        rows = json.loads(stdout)
        return {"compare": {s: {f: rows[s][f] for f in METRIC_FIELDS} for s in COMPARE_SCHEMES}}
    except (ValueError, KeyError, TypeError) as exc:
        return {"unreadable": str(exc)}


#: Which recorded parts each deploy-sparse output is compared on.
REFERENCE_PARTS = {"build": ("tree", "allocation", "metrics"), "compare": ("compare",)}


def differences(got: dict, reference: dict | None, output: str) -> list[str]:
    """How one deploy-sparse output differs from its recorded reference."""
    if "unreadable" in got:
        return [f"unreadable output: {got['unreadable']}"]
    if reference is None:
        return []
    return [
        f"{part} differs from the reference: got {got[part]}, want {reference[part]}"
        for part in REFERENCE_PARTS[output]
        if got[part] != reference[part]
    ]


def tree_depth(tree: dict) -> int:
    parents = tree["parents"]
    depth = {tree["root"]: 0}
    for label in parents:
        trail = []
        while label not in depth:
            trail.append(label)
            label = parents[label]
        for hop, lab in enumerate(reversed(trail), start=1):
            depth[lab] = depth[label] + hop
    return max(depth.values())


def _prf(key: bytes, label: str) -> bytes:
    return hmac.new(key, label.encode("utf-8"), hashlib.sha256).digest()


def expected_keystore(tree: dict, root_secret: bytes) -> tuple[dict, dict]:
    """Secrets and keys recomputed down the tree from the root secret."""
    parents = tree["parents"]
    secrets = {tree["root"]: root_secret}
    for label in parents:
        trail = []
        while label not in secrets:
            trail.append(label)
            label = parents[label]
        for lab in reversed(trail):
            secrets[lab] = _prf(secrets[parents[lab]], lab)
    keys = {label: _prf(secret, label) for label, secret in secrets.items()}
    return secrets, keys


def seeded_root_secret(seed_hex: str) -> bytes:
    """The first 32 bytes of keygen's documented seeded stream."""
    return hashlib.sha256(bytes.fromhex(seed_hex) + (0).to_bytes(8, "big")).digest()


def check_keys(build_dir: Path, keys_dir: Path, seed_hex: str, labels) -> list[str]:
    """keygen's keystore against an HMAC recomputation, and every bundle
    against the allocation's start points."""
    try:
        tree = load(build_dir / "tree.json")
        phi = load(build_dir / "allocation.json")["phi"]
        store = load(keys_dir / "keystore.json")
        bundles = {label: load(bundle_path(keys_dir, label)) for label in labels}
        secrets, keys = expected_keystore(tree, seeded_root_secret(seed_hex))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable keygen output: {exc}"]
    reasons = []
    if store.get("tree") != tree:
        reasons.append("keystore tree differs from tree.json")
    if set(secrets) != set(labels):
        reasons.append("tree does not span the policy labels")
    for name, want in (("secrets", secrets), ("keys", keys)):
        got = store.get(name, {})
        bad = sorted(x for x in want if got.get(x) != want[x].hex())
        if bad or set(got) != set(want):
            reasons.append(f"keystore {name} wrong for {len(bad)} labels, e.g. {bad[:3]}")
    for label, bundle in bundles.items():
        want = {z: secrets[z].hex() for z in phi.get(label, []) if z in secrets}
        if bundle.get("holder") != label or bundle.get("secrets") != want:
            reasons.append(f"bundle of {label!r} does not hold the secrets of its start points")
            break
    return reasons


def open_sealed(blob: bytes, key: bytes) -> tuple[str, bytes]:
    """Parse and decrypt a sealed container; raises ValueError if it is bad."""
    if not blob.startswith(SEALED_MAGIC):
        raise ValueError("bad magic")
    at = len(SEALED_MAGIC)
    size = int.from_bytes(blob[at : at + 2], "big")
    label = blob[at + 2 : at + 2 + size]
    at += 2 + size
    nonce, ciphertext = blob[at : at + NONCE_BYTES], blob[at + NONCE_BYTES :]
    try:
        return label.decode("utf-8"), ChaCha20Poly1305(key).decrypt(nonce, ciphertext, label)
    except InvalidTag as exc:
        raise ValueError("authentication failed") from exc


def check_sealed(path: Path, label: str, plaintext: bytes, keys: dict[str, bytes]) -> list[str]:
    try:
        got_label, got = open_sealed(path.read_bytes(), keys[label])
    except (OSError, ValueError) as exc:
        return [f"{path.name}: cannot open with the key of {label!r}: {exc}"]
    if got_label != label or got != plaintext:
        return [f"{path.name}: sealed label or contents differ from the original"]
    return []


def check_opened(path: Path, plaintext: bytes) -> list[str]:
    try:
        if path.read_bytes() == plaintext:
            return []
    except OSError as exc:
        return [f"{path.name}: not written: {exc}"]
    return [f"{path.name}: decrypted bytes differ from the original"]


def check_derived(stdout: str, key: bytes) -> list[str]:
    if stdout.strip() == key.hex():
        return []
    return [f"derived key {stdout.strip()[:16]}... differs from the keystore key"]


def check_verify_report(stdout: str) -> list[str]:
    """Reasons if the verify report failed or a check saw no instances."""
    try:
        report = json.loads(stdout)
        checks, passed = report["checks"], report["passed"]
        empty = [c["name"] for c in checks if not c["instances"] > 0]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"verify printed no readable report: {exc}"]
    if passed is not True:
        return ["verify reported a failure"]
    if empty or not checks:
        return [f"checks with 0 instances: {empty}"]
    return []
