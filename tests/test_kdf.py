import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekeys import (
    AuthorizationError,
    DerivationOutTree,
    Poset,
    PolicyError,
    SecretStore,
    SigmaBundle,
    canonical_allocation,
    derive,
    encode_label,
    min_weight_out_tree,
    prf,
    seeded_bytes,
    setup,
    start_points,
)
from treekeys.kdf import KEY_BYTES, self_check
from treekeys.oracles import random_poset, random_users

from conftest import KEYSTORE_FAULTS, broken_keystore, bundles_of

TEST_SEED = bytes(range(32))


def manual_hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Independent rendering of the HMAC construction over SHA-256."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\x00")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + message).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).digest()


# RFC 4231 test cases 1-7 for HMAC-SHA-256 as (key, message, tag), all hex;
# case 5 publishes only the first 128 bits, and cases 6 and 7 key with
# 131 bytes, which HMAC hashes before use.
RFC4231 = (
    ("0b" * 20, b"Hi There".hex(),
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe".hex(), b"what do ya want for nothing?".hex(),
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    ("aa" * 20, "dd" * 50, "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)).hex(), "cd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    ("0c" * 20, b"Test With Truncation".hex(), "a3b6167473100ee06e0c796c2955552b"),
    ("aa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First".hex(),
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    ("aa" * 131, b"This is a test using a larger than block-size key and a larger than "
     b"block-size data. The key needs to be hashed before being used by the HMAC "
     b"algorithm.".hex(), "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
)


@pytest.fixture(scope="module")
def sample_scheme(poset8, tree8_gd):
    store = setup(tree8_gd, rng=seeded_bytes(TEST_SEED))
    sigma = bundles_of(poset8, tree8_gd, store)  # each label's bundle
    return poset8, tree8_gd, store, sigma


class TestPrf:
    def test_deterministic(self):
        key = b"\x01" * KEY_BYTES
        assert prf(key, b"m") == prf(key, b"m")

    def test_no_collisions_on_sample_labels(self):
        key = b"\x02" * KEY_BYTES
        outputs = [prf(key, encode_label(lab)) for lab in "abcdefgh"]
        assert len(set(outputs)) == len(outputs)

    def test_rejects_wrong_key_length(self):
        with pytest.raises(ValueError, match="32 bytes"):
            prf(b"short", b"m")

    def test_matches_independent_hmac(self):
        key = bytes(range(32))
        for message in (b"", b"a", b"some longer message " * 7):
            assert prf(key, message) == manual_hmac_sha256(key, message)

    def test_standard_vectors_via_independent_implementation(self):
        # the first two are the vectors the self-check pins
        for key, message, tag in RFC4231:
            tag_of = manual_hmac_sha256(bytes.fromhex(key), bytes.fromhex(message)).hex()
            assert tag_of.startswith(tag)
        self_check()  # must agree

    def test_failed_self_check_refuses_every_derivation(self, monkeypatch):
        from treekeys import VerificationError, kdf

        bad = ((b"Jefe", b"what do ya want for nothing?", "00" * 32),)
        monkeypatch.setattr(kdf, "_SELF_CHECK_VECTORS", bad)
        monkeypatch.setattr(kdf, "_hmac_digest", None)  # as in a fresh process
        for _ in range(2):  # a failed check is not remembered as passed
            with pytest.raises(VerificationError, match="self-check failed"):
                prf(bytes(KEY_BYTES), b"m")
            with pytest.raises(VerificationError, match="self-check failed"):
                seeded_bytes(b"seed")
        assert kdf._hmac_digest is None


# Run in a fresh interpreter, so that what the probe imports or blocks
# first, not what earlier tests in this process loaded, is what the PRF sees.
HMAC_PROBE = """
import json, sys
if sys.argv[1] == "cryptography":
    import cryptography.hazmat.primitives.ciphers.aead
elif sys.argv[1] == "fallback":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from treekeys import DerivationOutTree, kdf
cases, messages, sample = map(json.loads, sys.argv[2:])
store = kdf.setup(DerivationOutTree.from_json_dict(sample["tree"]),
                  rng=kdf.seeded_bytes(bytes.fromhex(sample["seed"])))
key = bytes(range(32))
print(json.dumps({
    "sha256": kdf._sha256.__module__,
    "rfc4231": [kdf._hmac_digest(bytes.fromhex(k), bytes.fromhex(m)).hex() for k, m, _ in cases],
    "prf": [kdf.prf(key, bytes.fromhex(m)).hex() for m in messages],
    "seeded": kdf.seeded_bytes(b"seed")(100).hex(),
    "store": store.to_json_dict(),
    "loaded": [m for m in ("cryptography", "hashlib", "_hashlib", "hmac") if m in sys.modules],
}))
"""


@pytest.mark.parametrize("backend", ["cryptography", "builtin", "fallback"])
def test_each_hmac_backend_matches_vectors_and_independent_hmac(backend, sample_scheme):
    # one construction whatever else is loaded; only an interpreter without
    # a built-in SHA-256 module takes the constructor from hashlib
    _, tree, store, _ = sample_scheme
    sample = {"tree": tree.to_json_dict(), "seed": TEST_SEED.hex()}
    messages = [b"", b"a", b"some longer message " * 7, bytes(range(256))]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", HMAC_PROBE, backend, json.dumps(RFC4231),
         json.dumps([m.hex() for m in messages]), json.dumps(sample)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    if backend == "fallback":
        assert result["sha256"] == "_hashlib"
    else:
        assert result["sha256"] in ("_sha2", "_sha256")
        assert result["loaded"] == (["cryptography"] if backend == "cryptography" else [])
    assert [got[: len(tag)] for got, (_, _, tag) in zip(result["rfc4231"], RFC4231)] == [
        tag for _, _, tag in RFC4231
    ]
    key = bytes(range(32))
    assert result["prf"] == [manual_hmac_sha256(key, m).hex() for m in messages]
    assert result["seeded"] == seeded_bytes(b"seed")(100).hex()
    assert result["store"] == store.to_json_dict()


class TestSetup:
    def test_child_secrets_follow_the_tree(self, sample_scheme):
        _, tree, store, _ = sample_scheme
        assert store.secrets["g"] == prf(store.secrets["h"], encode_label("g"))
        assert store.secrets["d"] == prf(store.secrets["g"], encode_label("d"))
        for child, parent in tree.parent.items():
            assert store.secrets[child] == prf(store.secrets[parent], encode_label(child))

    def test_keys_come_from_own_secret_and_label(self, sample_scheme):
        _, _, store, _ = sample_scheme
        for label in "abcdefgh":
            assert store.keys[label] == prf(store.secrets[label], encode_label(label))

    def test_whole_store_matches_independent_hmac(self, sample_scheme):
        _, tree, store, _ = sample_scheme
        secrets = {"h": seeded_bytes(TEST_SEED)(KEY_BYTES)}
        pending = dict(tree.parent)
        while pending:
            for child, parent in sorted(pending.items()):
                if parent in secrets:
                    secrets[child] = manual_hmac_sha256(secrets[parent], child.encode())
                    del pending[child]
        assert secrets == dict(store.secrets)
        for label, secret in secrets.items():
            assert store.keys[label] == manual_hmac_sha256(secret, label.encode())

    def test_all_values_distinct(self, sample_scheme):
        _, _, store, _ = sample_scheme
        values = list(store.secrets.values()) + list(store.keys.values())
        assert len(values) == 16
        assert len(set(values)) == 16

    def test_bundles_carry_start_point_secrets(self, sample_scheme):
        # the allocation's bundles hold the start points a read bundle is checked against
        poset, tree, store, sigma = sample_scheme
        for label, bundle in sigma.items():
            assert bundle.holder == label
            assert set(bundle.secrets) == start_points(poset, tree.parent, label)
            assert all(bundle.secrets[z] == store.secrets[z] for z in bundle.secrets)

    def test_singleton(self):
        poset = Poset.from_arcs(["r"], [])
        tree = DerivationOutTree(root="r", parent={})
        store = setup(tree, rng=seeded_bytes(b"x"))
        assert set(store.secrets) == {"r"} and set(store.keys) == {"r"}
        assert bundles_of(poset, tree, store)["r"].secrets == {"r": store.secrets["r"]}

    def test_deterministic_under_a_seed(self, poset8, tree8_gd):
        first = setup(tree8_gd, rng=seeded_bytes(TEST_SEED))
        second = setup(tree8_gd, rng=seeded_bytes(TEST_SEED))
        assert first.to_json_dict() == second.to_json_dict()
        other = setup(tree8_gd, rng=seeded_bytes(b"different"))
        assert other.secrets["h"] != first.secrets["h"]

    def test_rejects_bad_randomness(self, poset8, tree8_gd):
        with pytest.raises(ValueError, match="randomness"):
            setup(tree8_gd, rng=lambda n: b"\x00" * 5)


class TestDerive:
    def test_distant_target(self, sample_scheme):
        poset, tree, store, sigma = sample_scheme
        # f's bundle covers a through start point d, three PRF hops away
        assert derive(poset, tree, sigma["f"], "a") == store.keys["a"]

    def test_self_target(self, sample_scheme):
        poset, tree, store, sigma = sample_scheme
        for label in "abcdefgh":
            assert derive(poset, tree, sigma[label], label) == store.keys[label]

    def test_every_authorized_pair(self, sample_scheme):
        poset, tree, store, sigma = sample_scheme
        for holder, target in itertools.product(poset.labels, repeat=2):
            if target in poset.down_set(holder):
                got = derive(poset, tree, sigma[holder], target)
                assert got == store.keys[target]

    def test_refuses_unauthorized_target(self, sample_scheme):
        poset, tree, _, sigma = sample_scheme
        with pytest.raises(AuthorizationError):
            derive(poset, tree, sigma["c"], "e")

    def test_refuses_every_unauthorized_pair(self, sample_scheme):
        poset, tree, _, sigma = sample_scheme
        for holder, target in itertools.product(poset.labels, repeat=2):
            if target not in poset.down_set(holder):
                with pytest.raises(AuthorizationError):
                    derive(poset, tree, sigma[holder], target)

    def test_rejects_malformed_bundle(self, sample_scheme):
        # a bundle short of its holder's start points is refused when it is read
        poset, tree, store, _ = sample_scheme
        truncated = {"holder": "f", "secrets": {"f": store.secrets["f"].hex()}}
        message = "malformed bundle for 'f': start points do not match"
        with pytest.raises(PolicyError, match=message):
            SigmaBundle.from_json_dict(truncated, poset, tree)

    def test_bundle_must_hold_exactly_the_start_points(self, sample_scheme):
        # toggle each label, and a stranger, in and out of every holder's
        # bundle: each is refused when it is read
        poset, tree, store, sigma = sample_scheme
        phi = canonical_allocation(poset, tree)
        for holder in poset.labels:
            assert tuple(sigma[holder].secrets) == phi[holder]
            points = set(phi[holder])
            for z in [*poset.labels, "zz"]:
                secrets = {v: store.secrets.get(v, bytes(KEY_BYTES)).hex() for v in points ^ {z}}
                with pytest.raises(PolicyError, match="malformed bundle"):
                    SigmaBundle.from_json_dict({"holder": holder, "secrets": secrets}, poset, tree)
        with pytest.raises(PolicyError, match="unknown label 'zz'"):
            SigmaBundle.from_json_dict({"holder": "zz", "secrets": {}}, poset, tree)
        # derive checks the target, then authorises, before touching a secret
        bad = SigmaBundle(holder="c", secrets={})
        with pytest.raises(AuthorizationError):
            derive(poset, tree, bad, "e")
        with pytest.raises(PolicyError, match="unknown label 'zz'"):
            derive(poset, tree, bad, "zz")

    def test_trusts_a_bundle_it_is_handed(self, sample_scheme):
        # derive does not check a bundle's start points: a hand-built bundle that
        # also holds a wrong secret below one of them walks from that secret
        poset, tree, store, sigma = sample_scheme
        starts = sigma["f"].secrets
        below = next(x for x in poset.down_set("f") if x not in starts and tree.parent[x] in starts)
        bundle = SigmaBundle("f", {**starts, below: bytes(KEY_BYTES)})
        assert derive(poset, tree, bundle, below) == prf(bytes(KEY_BYTES), encode_label(below))
        assert derive(poset, tree, bundle, below) != store.keys[below]
        with pytest.raises(PolicyError, match="malformed bundle"):
            SigmaBundle.from_json_dict(
                {"holder": "f", "secrets": {z: s.hex() for z, s in bundle.secrets.items()}},
                poset, tree)

    def test_rejects_unknown_labels(self, sample_scheme):
        poset, tree, _, sigma = sample_scheme
        with pytest.raises(Exception):
            derive(poset, tree, sigma["f"], "zz")


class TestSerialization:
    def test_keystore_round_trip(self, sample_scheme):
        _, _, store, _ = sample_scheme
        doc = store.to_json_dict()
        back = SecretStore.from_json_dict(doc)
        assert back.secrets == dict(store.secrets)
        assert back.keys == dict(store.keys)
        assert back.tree == store.tree

    def test_keystore_rejects_unknown_fields(self):
        with pytest.raises(PolicyError):
            SecretStore.from_json_dict({"tree": {}, "secrets": {}, "keys": {}, "pub": {}})

    def test_bundle_round_trip(self, sample_scheme):
        poset, tree, _, sigma = sample_scheme
        doc = {"holder": "f", "secrets": {z: s.hex() for z, s in sigma["f"].secrets.items()}}
        assert SigmaBundle.from_json_dict(doc, poset, tree) == sigma["f"]

    def test_bundle_rejects_bad_hex(self, sample_scheme):
        poset, tree, _, _ = sample_scheme
        with pytest.raises(PolicyError, match="malformed bundle secrets"):
            SigmaBundle.from_json_dict({"holder": "a", "secrets": {"a": "zz"}}, poset, tree)

    def test_bundle_rejects_short_secret(self, sample_scheme):
        poset, tree, _, _ = sample_scheme
        with pytest.raises(PolicyError, match="2 bytes"):
            SigmaBundle.from_json_dict({"holder": "a", "secrets": {"a": "abcd"}}, poset, tree)

    def test_keystore_rejects_short_key(self, sample_scheme):
        _, _, store, _ = sample_scheme
        doc = store.to_json_dict()
        doc["keys"]["a"] = "abcd"
        with pytest.raises(PolicyError, match="2 bytes"):
            SecretStore.from_json_dict(doc)

    @pytest.mark.parametrize("fault", KEYSTORE_FAULTS)
    def test_keystore_must_cover_exactly_its_trees_labels(self, sample_scheme, fault):
        _, _, store, _ = sample_scheme
        doc = broken_keystore(store.to_json_dict(), fault)
        with pytest.raises(PolicyError, match="must each hold exactly its tree's labels"):
            SecretStore.from_json_dict(doc)


class TestSeededBytes:
    def test_deterministic_stream(self):
        assert seeded_bytes(b"s")(48) == seeded_bytes(b"s")(48)
        assert seeded_bytes(b"s")(16) == seeded_bytes(b"s")(48)[:16]

    def test_distinct_seeds_distinct_streams(self):
        assert seeded_bytes(b"s1")(32) != seeded_bytes(b"s2")(32)

    def test_rejects_empty_seed(self):
        with pytest.raises(ValueError):
            seeded_bytes(b"")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_random_schemes_derive_exactly_their_down_sets(seed, count):
    poset = random_poset(count, 0.35, seed)
    users = random_users(poset, seed + 1)
    tree = min_weight_out_tree(poset, users)
    store = setup(tree, rng=seeded_bytes(seed.to_bytes(8, "big")))
    sigma = bundles_of(poset, tree, store)
    for holder in poset.labels:
        for target in poset.labels:
            if target in poset.down_set(holder):
                got = derive(poset, tree, sigma[holder], target)
                assert got == store.keys[target]
            else:
                with pytest.raises(AuthorizationError):
                    derive(poset, tree, sigma[holder], target)
