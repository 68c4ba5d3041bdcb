import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treekeys
from treekeys import (
    DerivationOutTree,
    canonical_allocation,
    cli,
    kdf,
    parse_policy,
    trees,
)
from treekeys.cli import main
from treekeys.sealing import seal, unseal

from conftest import (
    KEYSTORE_FAULTS,
    SAMPLE_ELEMENTS,
    SAMPLE_POLICY_DOC,
    broken_keystore,
    sparse_policy_doc,
)

SEED = "ab" * 32


@pytest.fixture
def run(capsys):
    def invoke(*args):
        code = main([str(a) for a in args])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestAnalyze:
    def test_sample_statistics(self, run, policy_file):
        code, out, _ = run("analyze", policy_file)
        assert code == 0
        assert "elements:     8" in out
        assert "cover arcs:   10" in out
        assert "closure arcs: 23" in out
        assert "width:        2" in out
        assert "root:         h" in out
        assert "augmented:    no" in out

    def test_json_output(self, run, policy_file):
        code, out, _ = run("analyze", policy_file, "--json")
        assert code == 0
        info = json.loads(out)
        assert info["elements"] == 8
        assert info["maximal"] == ["h"]

    def test_label_the_output_cannot_encode_prints_escaped(self, tmp_path, monkeypatch):
        # two maximal labels get the virtual root, which ASCII cannot encode
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "arcs": []}))
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        done = run_process("analyze", path)
        assert done.returncode == 0, done.stderr
        assert "root:         \\u22a4\n" in done.stdout
        assert "Traceback" not in done.stderr

    def test_singleton(self, run, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elements": ["only"], "arcs": []}))
        code, out, _ = run("analyze", path)
        assert code == 0
        assert "elements:     1" in out
        assert "cover arcs:   0" in out

    def test_cyclic_policy_fails(self, run, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]}))
        code, _, err = run("analyze", path)
        assert code == 1
        assert "cycle detected" in err

    def test_json_syntax_error_reports_line(self, run, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{\n  "elements": [,]\n}')
        code, _, err = run("analyze", path)
        assert code == 1
        assert "line 2" in err

    def test_missing_file(self, run, tmp_path):
        code, _, err = run("analyze", tmp_path / "nope.json")
        assert code == 1

    def test_usage_error(self, run):
        code, _, err = run("analyze")
        assert code == 1


class TestBuildTree:
    def test_writes_artifacts(self, run, policy_file, tmp_path):
        out_dir = tmp_path / "build"
        code, out, _ = run("build-tree", policy_file, "--out-dir", out_dir)
        assert code == 0
        tree = read_json(out_dir / "tree.json")
        assert tree["root"] == "h"
        assert tree["parents"]["a"] == "c"
        assert tree["parents"]["c"] == "d"
        metrics = read_json(out_dir / "metrics.json")
        assert metrics["K_total"] == 11
        assert metrics["p"] == 0
        allocation = read_json(out_dir / "allocation.json")
        assert allocation["phi"]["h"] == ["h"]

    def test_closure_candidates_same_key_count(self, run, policy_file, tmp_path):
        out_dir = tmp_path / "closure"
        code, _, _ = run("build-tree", policy_file, "--arcs", "closure", "--out-dir", out_dir)
        assert code == 0
        assert read_json(out_dir / "metrics.json")["K_total"] == 11

    def test_min_leaves_flag(self, run, policy_file, tmp_path):
        out_dir = tmp_path / "leafy"
        code, _, _ = run("build-tree", policy_file, "--min-leaves", "--out-dir", out_dir)
        assert code == 0
        tree = read_json(out_dir / "tree.json")
        assert tree["parents"]["d"] == "f"
        assert read_json(out_dir / "metrics.json")["K_total"] == 11

    def test_total_order_needs_one_key_per_label(self, run, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"elements": ["x", "y", "z"], "arcs": [["z", "y"], ["y", "x"]]})
        )
        out_dir = tmp_path / "chainy"
        code, _, _ = run("build-tree", path, "--out-dir", out_dir)
        assert code == 0
        assert read_json(out_dir / "metrics.json")["K_total"] == 3


    def test_allocation_short_of_the_arc_costs_exits_three(
        self, run, policy_file, tmp_path, monkeypatch
    ):
        # every label's start points must number what the popcount counts:
        # an allocation that drops a start point is caught before any write
        real = cli.canonical_allocation

        def short(poset, tree):
            phi = dict(real(poset, tree))
            x = min(x for x, points in phi.items() if len(points) > 1)
            phi[x] = frozenset({x})
            return phi

        monkeypatch.setattr(cli, "canonical_allocation", short)
        out_dir = tmp_path / "short"
        code, _, err = run("build-tree", policy_file, "--out-dir", out_dir)
        assert code == 3
        assert "label 'b' has a start-point count of 1, where the popcount gives 2" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("fault", ["extra-point-at-no-users", "moved-point"])
    def test_allocation_off_the_popcount_in_one_label_exits_three(
        self, run, tmp_path, monkeypatch, fault
    ):
        # faults that leave K_hat as it was: h handed to d, which has no
        # users, or b's start point a moved to c, which has as many users as b
        document = dict(SAMPLE_POLICY_DOC)
        if fault == "extra-point-at-no-users":
            document["users"] = {**document["users"], "d": 0}
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps(document))
        real = cli.canonical_allocation

        def faulty(poset, tree):
            phi = dict(real(poset, tree))
            assert phi["b"] == ("a", "b") and phi["c"] == ("c",) and phi["d"] == ("d",)
            if fault == "extra-point-at-no-users":
                phi["d"] = ("d", "h")
            else:
                phi["b"], phi["c"] = ("b",), ("a", "c")
            return phi

        monkeypatch.setattr(cli, "canonical_allocation", faulty)
        out_dir = tmp_path / "faulty"
        code, out, err = run("build-tree", policy, "--out-dir", out_dir)
        assert code == 3
        label = "d" if fault == "extra-point-at-no-users" else "b"
        assert f"label {label!r} has a start-point count of" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS that Linux reports")
    def test_peak_memory_on_the_boolean_lattice_2_12(self, tmp_path):
        # 4096 labels and 265,721 start points, run as the benchmark runs a
        # command: allocation.json written a label at a time keeps the peak
        # near 32 MiB, where encoding the whole document at once takes 68 MiB
        k = 12
        labels = [f"b{s:0{k}b}" for s in range(1 << k)]
        arcs = [[labels[s], labels[s & ~(1 << i)]]
                for s in range(1 << k) for i in range(k) if s >> i & 1]
        policy = tmp_path / "lattice.json"
        policy.write_text(json.dumps({"elements": labels, "arcs": arcs}))
        report = tmp_path / "spawn.report"
        spawn = Path(__file__).resolve().parents[1] / "perfbench" / "spawn.py"
        done = run_python("-S", spawn, report, "--", sys.executable, "-m", "treekeys",
                          "build-tree", policy, "--out-dir", tmp_path / "build")
        assert done.returncode == 0, done.stderr
        peak_mib = int(report.read_text(encoding="ascii").split()[1]) / 1024
        assert peak_mib < 55, f"build-tree peaked at {peak_mib:.1f} MiB"


class TestKeygen:
    def test_deterministic_with_seed(self, run, policy_file, tmp_path):
        build = tmp_path / "build"
        run("build-tree", policy_file, "--out-dir", build)
        first, second = tmp_path / "k1", tmp_path / "k2"
        code1, _, _ = run("keygen", policy_file, "--tree", build / "tree.json",
                          "--seed", SEED, "--out-dir", first)
        code2, _, _ = run("keygen", policy_file, "--tree", build / "tree.json",
                          "--seed", SEED, "--out-dir", second)
        assert code1 == code2 == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert "keystore.json" in names
        assert len(names) == 9  # keystore + 8 bundles
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_different_seeds_differ(self, run, policy_file, tmp_path):
        build = tmp_path / "build"
        run("build-tree", policy_file, "--out-dir", build)
        first, second = tmp_path / "k1", tmp_path / "k2"
        run("keygen", policy_file, "--tree", build / "tree.json", "--seed", SEED,
            "--out-dir", first)
        run("keygen", policy_file, "--tree", build / "tree.json", "--seed", "cd" * 32,
            "--out-dir", second)
        assert (first / "keystore.json").read_bytes() != (second / "keystore.json").read_bytes()

    def test_system_entropy(self, run, policy_file, tmp_path):
        build = tmp_path / "build"
        run("build-tree", policy_file, "--out-dir", build)
        out = tmp_path / "keys"
        code, _, _ = run("keygen", policy_file, "--tree", build / "tree.json",
                         "--system-entropy", "--out-dir", out)
        assert code == 0
        store = read_json(out / "keystore.json")
        assert len(store["secrets"]) == 8

    def test_malformed_seed(self, run, policy_file, tmp_path):
        build = tmp_path / "build"
        run("build-tree", policy_file, "--out-dir", build)
        code, _, err = run("keygen", policy_file, "--tree", build / "tree.json",
                           "--seed", "zz", "--out-dir", tmp_path / "k")
        assert code == 1
        assert "seed" in err

    def test_short_seed(self, run, policy_file, tmp_path):
        build = tmp_path / "build"
        run("build-tree", policy_file, "--out-dir", build)
        code, _, err = run("keygen", policy_file, "--tree", build / "tree.json",
                           "--seed", "abcd", "--out-dir", tmp_path / "k")
        assert code == 1

    def test_missing_tree_file(self, run, policy_file, tmp_path):
        code, _, err = run("keygen", policy_file, "--tree", tmp_path / "nope.json",
                           "--seed", SEED, "--out-dir", tmp_path / "k")
        assert code == 1

    def test_singleton_keystore(self, run, tmp_path):
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps({"elements": ["only"], "arcs": []}))
        build, keys = tmp_path / "build", tmp_path / "keys"
        run("build-tree", policy, "--out-dir", build)
        code, _, _ = run("keygen", policy, "--tree", build / "tree.json",
                         "--seed", SEED, "--out-dir", keys)
        assert code == 0
        store = read_json(keys / "keystore.json")
        assert len(store["secrets"]) == 1 and len(store["keys"]) == 1

    def test_overlong_bundle_file_name_writes_nothing(self, run, tmp_path):
        # 90 x "é" percent-encodes to a 1,091-byte bundle file name, over the
        # file system's limit: keygen must refuse before its first write
        labels = ["a", "b", "c", "d", "e", "é" * 90]
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps({"elements": labels, "arcs": [["a", x] for x in labels[1:]]}))
        build, keys = tmp_path / "build", tmp_path / "keys"
        assert run("build-tree", policy, "--out-dir", build)[0] == 0
        code, _, err = run("keygen", policy, "--tree", build / "tree.json", "--seed", SEED,
                           "--out-dir", keys)
        assert code == 1
        assert repr(labels[-1]) in err
        assert not (keys / "keystore.json").exists()
        assert not list(keys.glob("sigma_*"))

    def test_foreign_tree_rejected(self, run, policy_file, tmp_path):
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps({"root": "h", "parents": {"a": "h"}}))
        code, _, err = run("keygen", policy_file, "--tree", bad, "--seed", SEED,
                           "--out-dir", tmp_path / "k")
        assert code == 1


# labels that JSON must escape: a quote, a backslash, a control character,
# non-ASCII text, and the virtual root's symbol, alone, repeated or as a prefix
ESCAPED_LABELS = st.lists(
    st.text('"\\\x01é日⊤ab', min_size=1, max_size=4), min_size=1, max_size=7, unique=True,
)


@settings(max_examples=40, deadline=None)
@given(ESCAPED_LABELS, st.randoms(use_true_random=False), st.booleans())
@example(["only"], random.Random(0), False)  # one label: an empty "parents"
@example(['a"b', "c\\d", "e\x01f", "ünï", "⊤x"], random.Random(1), True)
@example(["⊤", "⊤⊤", "a"], random.Random(0), True)  # no arcs: the virtual root is "⊤⊤⊤"
def test_written_artifacts_are_canonical_json(labels, rng, min_leaves):
    # every file build-tree and keygen write reads back as the text
    # json.dumps(..., indent=2, sort_keys=True) gives it, under any hash seed
    arcs = [[labels[j], labels[i]] for i in range(len(labels))
            for j in range(i + 1, len(labels)) if rng.random() < 0.4]
    document = {"elements": labels, "arcs": arcs, "users": {x: rng.randint(0, 3) for x in labels}}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        policy = out / "policy.json"
        policy.write_text(json.dumps(document))
        flags = ["--min-leaves"] if min_leaves else []
        assert main(["build-tree", str(policy), *flags, "--out-dir", str(out / "build")]) == 0
        assert main(["keygen", str(policy), "--tree", str(out / "build" / "tree.json"),
                     "--seed", SEED, "--out-dir", str(out / "keys")]) == 0
        written = [*(out / "build").iterdir(), *(out / "keys").iterdir()]
        assert len(written) == 3 + 1 + len(parse_policy(document)[0].labels)
        for path in written:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path


ESCAPED_POLICY = {  # two maximal labels, so the virtual root is written too
    "elements": ['a"b', "c\\d", "e\x01f", "é", "⊤x"],
    "arcs": [["⊤x", 'a"b'], ["⊤x", "c\\d"], ['a"b', "e\x01f"], ["c\\d", "e\x01f"],
             ["é", "e\x01f"]],
}


@pytest.mark.parametrize("document", [SAMPLE_POLICY_DOC, ESCAPED_POLICY], ids=["sample", "escaped"])
def test_written_artifacts_parse_back_to_what_the_library_returns(run, tmp_path, document):
    # build-tree and keygen are the only writers of the allocation and the
    # bundles: each file must read back to the library's value, in its order
    policy, build, keys = tmp_path / "policy.json", tmp_path / "build", tmp_path / "keys"
    policy.write_text(json.dumps(document))
    assert run("build-tree", policy, "--out-dir", build)[0] == 0
    assert run("keygen", policy, "--tree", build / "tree.json", "--seed", SEED,
               "--out-dir", keys)[0] == 0
    poset, _ = parse_policy(document)
    tree = DerivationOutTree.from_json_dict(read_json(build / "tree.json"))
    phi = read_json(build / "allocation.json")["phi"]
    assert [(x, tuple(points)) for x, points in phi.items()] == list(
        canonical_allocation(poset, tree).items()
    )
    store = kdf.setup(tree, rng=kdf.seeded_bytes(bytes.fromhex(SEED)))
    assert kdf.SecretStore.from_json_dict(read_json(keys / "keystore.json")) == store
    assert len(list(keys.glob("sigma_*.json"))) == len(phi) == len(poset.labels)
    for x, points in phi.items():  # a bundle is the store's secrets at x's start points
        name = f"sigma_{urllib.parse.quote(x, safe='')}.json"
        read = kdf.SigmaBundle.from_json_dict(read_json(keys / name), poset, tree)
        assert (read.holder, list(read.secrets.items())) == (
            x, [(z, store.secrets[z]) for z in points]
        )


@pytest.fixture
def keyed_sample(run, policy_file, tmp_path):
    build = tmp_path / "build"
    keys = tmp_path / "keys"
    assert run("build-tree", policy_file, "--out-dir", build)[0] == 0
    assert run("keygen", policy_file, "--tree", build / "tree.json", "--seed", SEED,
               "--out-dir", keys)[0] == 0
    return {"policy": policy_file, "tree": build / "tree.json", "keys": keys}


class TestDerive:
    def test_matches_keystore(self, run, keyed_sample):
        store = read_json(keyed_sample["keys"] / "keystore.json")
        code, out, _ = run("derive", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--bundle", keyed_sample["keys"] / "sigma_f.json", "a")
        assert code == 0
        assert out.strip() == store["keys"]["a"]

    def test_self_derivation(self, run, keyed_sample):
        store = read_json(keyed_sample["keys"] / "keystore.json")
        code, out, _ = run("derive", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--bundle", keyed_sample["keys"] / "sigma_c.json", "c")
        assert code == 0
        assert out.strip() == store["keys"]["c"]

    def test_unauthorized_exits_two_with_no_key(self, run, keyed_sample):
        code, out, err = run("derive", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                             "--bundle", keyed_sample["keys"] / "sigma_c.json", "e")
        assert code == 2
        assert out == ""
        assert "not authorized" in err


def run_python(*args):
    """A separate interpreter that imports this checkout's treekeys."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env, timeout=120,
    )


def run_process(*args):
    """The CLI as a separate process, so stderr shows what a user would see."""
    return run_python("-m", "treekeys", *args)


class TestShortKeyMaterial:
    def test_derive_with_short_bundle_secret_exits_one(self, keyed_sample, tmp_path):
        bundle = read_json(keyed_sample["keys"] / "sigma_f.json")
        bundle["secrets"] = {label: "abcd" for label in bundle["secrets"]}
        short = tmp_path / "short.json"
        short.write_text(json.dumps(bundle))
        done = run_process("derive", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--bundle", short, "a")
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "2 bytes" in done.stderr

    def test_encrypt_with_short_keystore_key_exits_one(self, keyed_sample, tmp_path):
        store = read_json(keyed_sample["keys"] / "keystore.json")
        store["keys"]["e"] = "abcd"
        short = tmp_path / "keystore.json"
        short.write_text(json.dumps(store))
        payload = tmp_path / "report.txt"
        payload.write_bytes(b"numbers\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"objects": [{"path": str(payload), "label": "e"}]}))
        done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--keystore", short, "--manifest", manifest)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert not payload.with_name("report.txt.sealed").exists()


def test_failed_hmac_self_check_exits_three_before_any_key(keyed_sample, tmp_path):
    # a broken primitive surfaces on the first key derivation, as a verification failure,
    # in a command that seals as in one that does not
    probe = (
        "import sys\n"
        "from treekeys import cli, kdf\n"
        "kdf._SELF_CHECK_VECTORS = ((b'Jefe', b'what do ya want for nothing?', '00' * 32),)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = run_python("-c", probe, "derive", keyed_sample["policy"],
                      "--tree", keyed_sample["tree"],
                      "--bundle", keyed_sample["keys"] / "sigma_f.json", "a")
    assert done.returncode == 3
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "HMAC-SHA-256 self-check failed" in done.stderr
    store = read_json(keyed_sample["keys"] / "keystore.json")
    sealed = tmp_path / "report.txt.sealed"
    sealed.write_bytes(b"".join(seal(bytes.fromhex(store["keys"]["e"]), "e", b"numbers\n")))
    done = run_python("-c", probe, "decrypt", keyed_sample["policy"],
                      "--tree", keyed_sample["tree"],
                      "--bundle", keyed_sample["keys"] / "sigma_h.json", sealed)
    assert done.returncode == 3
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert "HMAC-SHA-256 self-check failed" in done.stderr
    assert not (tmp_path / "report.txt").exists()
    # a command that derives no key never runs the check
    done = run_python("-c", probe, "build-tree", keyed_sample["policy"],
                      "--out-dir", tmp_path / "again")
    assert done.returncode == 0, done.stderr


def test_out_of_memory_exits_one_without_a_traceback(run, policy_file, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("treekeys.cli.parse_policy", exhausted)
    code, out, err = run("analyze", policy_file)
    assert code == 1
    assert out == ""
    assert err.startswith("treekeys: out of memory: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, derives, seals", [
    (["build-tree", "{policy}", "--out-dir", "{tmp}/again"], False, False),
    (["compare", "{policy}", "--json"], False, False),
    (["analyze", "{policy}", "--json"], False, False),
    (["encrypt", "{policy}", "--tree", "{tree}", "--keystore", "{keys}/keystore.json",
      "--manifest", "{tmp}/manifest.json"], False, True),
    (["decrypt", "{policy}", "--tree", "{tree}", "--keystore", "{keys}/keystore.json",
      "{tmp}/old.txt.sealed"], False, True),
    (["derive", "{policy}", "--tree", "{tree}", "--bundle", "{keys}/sigma_f.json", "a"],
     True, False),
    (["keygen", "{policy}", "--tree", "{tree}", "--seed", SEED, "--out-dir", "{tmp}/keys"],
     True, False),
    (["keygen", "{policy}", "--tree", "{tree}", "--system-entropy", "--out-dir", "{tmp}/keys"],
     True, False),
    (["verify", "{policy}", "--seeds", "2"], True, False),
    (["encrypt", "{policy}", "--tree", "{tree}", "--bundle", "{keys}/sigma_h.json",
      "--manifest", "{tmp}/manifest.json"], True, True),
    (["decrypt", "{policy}", "--tree", "{tree}", "--bundle", "{keys}/sigma_h.json",
      "{tmp}/old.txt.sealed"], True, True),
], ids=["build-tree", "compare", "analyze", "encrypt-keystore", "decrypt-keystore", "derive",
        "keygen-seed", "keygen-system-entropy", "verify", "encrypt-bundle", "decrypt-bundle"])
def test_only_key_derivation_loads_hmac(command, derives, seals, keyed_sample, tmp_path):
    # the HMAC is set up only by commands that derive a key, and it maps no
    # OpenSSL: no command imports hashlib or hmac, and only sealing loads
    # cryptography
    payload = tmp_path / "report.txt"
    payload.write_bytes(b"numbers\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"objects": [{"path": str(payload), "label": "e"}]}))
    store = read_json(keyed_sample["keys"] / "keystore.json")
    (tmp_path / "old.txt.sealed").write_bytes(
        b"".join(seal(bytes.fromhex(store["keys"]["e"]), "e", b"older numbers\n")))
    names = {"policy": keyed_sample["policy"], "tree": keyed_sample["tree"],
             "keys": keyed_sample["keys"], "tmp": tmp_path}
    modules = ("cryptography", "hashlib", "_hashlib", "hmac")
    probe = (
        "import json, sys\n"
        "from treekeys import kdf\n"
        "from treekeys.cli import main\n"
        "code = main(sys.argv[2:])\n"
        f"loaded = [m for m in {modules!r} if m in sys.modules]\n"
        "open(sys.argv[1], 'w').write(json.dumps([code, kdf._hmac_digest is not None, loaded]))\n"
    )
    report = tmp_path / "loaded.json"
    done = run_python("-c", probe, report, *(arg.format(**names) for arg in command))
    assert done.returncode == 0, done.stderr
    assert read_json(report) == [0, derives, ["cryptography"] if seals else []]


@pytest.mark.parametrize("command, executed", [
    (["analyze", "{policy}"], []),
    (["build-tree", "{policy}", "--min-leaves", "--out-dir", "{tmp}/again"], []),
    (["keygen", "{policy}", "--tree", "{tree}", "--seed", SEED, "--out-dir", "{tmp}/keys"], []),
    (["derive", "{policy}", "--tree", "{tree}", "--bundle", "{keys}/sigma_f.json", "a"], []),
    (["encrypt", "{policy}", "--tree", "{tree}", "--keystore", "{keys}/keystore.json",
      "--manifest", "{tmp}/manifest.json"], ["sealing"]),
    (["decrypt", "{policy}", "--tree", "{tree}", "--bundle", "{keys}/sigma_h.json",
      "--out-dir", "{tmp}/opened", "{sealed}"], ["sealing"]),
    (["compare", "{policy}", "--json"], ["baselines"]),
    (["verify", "{policy}", "--seeds", "1"], ["oracles"]),
], ids=["analyze", "build-tree-min-leaves", "keygen", "derive", "encrypt-keystore",
        "decrypt-bundle", "compare", "verify"])
def test_a_command_executes_only_the_layers_it_runs(
    command, executed, keyed_sample, sealed_report, tmp_path
):
    # the other layers stay registered but unexecuted: a deferred module keeps
    # its lazy class until an attribute is read, and type() reads none
    names = {"policy": keyed_sample["policy"], "tree": keyed_sample["tree"],
             "keys": keyed_sample["keys"], "tmp": tmp_path, "sealed": sealed_report}
    layers = ("oracles", "baselines", "sealing")
    probe = (
        "import json, sys, types\n"
        "import treekeys\n"
        "from treekeys.cli import main\n"
        "code = main(sys.argv[2:])\n"
        f"ran = [m for m in {layers!r} if type(sys.modules['treekeys.' + m]) is types.ModuleType]\n"
        "unaliased = not hasattr(treekeys, 'chain_metrics')\n"
        "open(sys.argv[1], 'w').write(json.dumps([code, ran, unaliased]))\n"
    )
    report = tmp_path / "layers.json"
    done = run_python("-c", probe, report, *(arg.format(**names) for arg in command))
    assert done.returncode == 0, done.stderr
    assert read_json(report) == [0, executed, True]


def test_the_package_binds_no_reference_function():
    # the set-based normalisation, the arc-cost table and the enforcement
    # check serve the oracles, the tests and the worked example, which
    # import each from the module that defines it
    defined = {"poset": ("ensure_root", "transitive_closure", "transitive_reduction"),
               "trees": ("weight_function",), "allocation": ("validate_enforcement",)}
    for module, names in defined.items():
        for name in names:
            assert not hasattr(treekeys, name), name
            assert callable(getattr(getattr(treekeys, module), name))


def test_encrypt_with_keystore_for_another_tree_exits_one(keyed_sample, tree8_gd, tmp_path):
    # the same seed on another minimum-cost tree: objects sealed with this
    # keystore would not open from bundles made for --tree
    assert tree8_gd.to_json_dict() != read_json(keyed_sample["tree"])
    other_tree = tmp_path / "tree_gd.json"
    other_tree.write_text(json.dumps(tree8_gd.to_json_dict()))
    other_keys = tmp_path / "keys_gd"
    assert run_process("keygen", keyed_sample["policy"], "--tree", other_tree, "--seed", SEED,
                       "--out-dir", other_keys).returncode == 0
    payload = tmp_path / "report.txt"
    payload.write_bytes(b"numbers\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [{"path": str(payload), "label": "e"}]}))
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", other_keys / "keystore.json", "--manifest", manifest)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "was made for a different tree than --tree" in done.stderr
    assert not payload.with_name("report.txt.sealed").exists()


@pytest.mark.parametrize(
    "policy, message",
    [
        ({"elements": ["a", "b", "c"], "arcs": [["a", "b"], ["b", "c"], ["c", "a"]]},
         "cycle detected"),
        # a lone surrogate is a valid JSON string, but it has no UTF-8 bytes for the PRF
        ({"elements": ["a", "\ud800"], "arcs": [["a", "\ud800"]]},
         "label '\\ud800' does not encode as UTF-8"),
    ],
    ids=["cycle", "surrogate-label"],
)
def test_unnormalisable_policy_exits_one(policy, message, tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy), encoding="utf-8")
    done = run_process("analyze", path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert message in done.stderr


def test_long_integer_literal_names_the_digit_limit(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text("[" + "7" * 5000 + "]")
    done = run_process("analyze", path)
    assert done.returncode == 1
    assert "integer literal longer than the 4300-digit limit" in done.stderr
    assert "set_int_max_str_digits" not in done.stderr


@pytest.mark.parametrize("object_path", ["doc\u0000x", "doc\ud800"], ids=["nul", "surrogate"])
def test_manifest_path_that_names_no_file_exits_one(keyed_sample, tmp_path, object_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [{"path": object_path, "label": "e"}]}))
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "manifest path" in done.stderr


@pytest.mark.parametrize("object_path", ["", ".", "/", ".."])
def test_encrypt_refuses_a_manifest_path_without_a_file_name(keyed_sample, tmp_path, object_path):
    # refused when the manifest is read, before the earlier entry is sealed
    payload = tmp_path / "report.txt"
    payload.write_bytes(b"numbers\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [{"path": str(payload), "label": "e"},
                                                {"path": object_path, "label": "e"}]}))
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"manifest path {object_path!r} names no file" in done.stderr
    assert not payload.with_name("report.txt.sealed").exists()


@pytest.fixture
def sealed_report(keyed_sample, tmp_path):
    """``report.txt`` sealed under label e, next to its plaintext."""
    payload = tmp_path / "report.txt"
    payload.write_bytes(b"numbers\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [{"path": str(payload), "label": "e"}]}))
    assert run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json",
                       "--manifest", manifest).returncode == 0
    return payload.with_name("report.txt.sealed")


@pytest.mark.parametrize(
    "command, checks",
    [("build-tree", 0), ("compare", 0), ("verify", 0),
     ("keygen", 1), ("derive", 1), ("encrypt", 1), ("decrypt", 1)],
)
def test_a_command_checks_the_tree_it_reads_once(
    run, keyed_sample, sealed_report, tmp_path, monkeypatch, command, checks
):
    # wrapped in every namespace that binds it, as the benchmark's tracer does;
    # a tree the command builds itself is valid by construction
    real = trees.validate_tree
    checked = []

    def counted(poset, tree):
        checked.append(tree)
        return real(poset, tree)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "treekeys" and getattr(module, "validate_tree", None) is real:
            monkeypatch.setattr(module, "validate_tree", counted)
    tree, keystore = keyed_sample["tree"], keyed_sample["keys"] / "keystore.json"
    options = {
        "build-tree": ["--out-dir", tmp_path / "build2"],
        "compare": ["--json"],
        "verify": ["--seeds", 2],
        "keygen": ["--tree", tree, "--seed", SEED, "--out-dir", tmp_path / "keys2"],
        "derive": ["--tree", tree, "--bundle", keyed_sample["keys"] / "sigma_f.json", "a"],
        "encrypt": ["--tree", tree, "--keystore", keystore,
                    "--manifest", tmp_path / "manifest.json"],
        "decrypt": ["--tree", tree, "--keystore", keystore, sealed_report,
                    "--out-dir", tmp_path / "opened"],
    }[command]
    assert run(command, keyed_sample["policy"], *options)[0] == 0
    assert len(checked) == checks


def test_encrypt_has_no_suffix_option(keyed_sample, sealed_report, tmp_path):
    # an empty suffix used to seal each object over its own plaintext
    payload = tmp_path / "report.txt"
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json",
                       "--manifest", tmp_path / "manifest.json", "--suffix", "")
    assert done.returncode == 1
    assert "unrecognized arguments: --suffix" in done.stderr
    assert payload.read_bytes() == b"numbers\n"


@pytest.mark.parametrize(
    "name, options",
    [("report.txt.sealed", ["--suffix", ""]), (".sealed", []),
     (".sealed", ["--out-dir", "opened"]), ("..sealed", [])],
    ids=["suffix-option", "bare-suffix", "bare-suffix-out-dir", "dot-dot"],
)
def test_decrypt_without_a_plaintext_name_exits_one(
    keyed_sample, sealed_report, tmp_path, name, options
):
    sealed = tmp_path / "box" / name
    sealed.parent.mkdir()
    sealed.write_bytes(sealed_report.read_bytes())
    options = [tmp_path / opt if opt == "opened" else opt for opt in options]
    done = run_process("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json", sealed, *options)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert sorted(p.name for p in sealed.parent.iterdir()) == [name]
    assert not (tmp_path / "opened").exists()


def test_encrypt_two_entries_for_one_sealed_file_exits_one(keyed_sample, tmp_path):
    # the second entry spells the same object differently
    (tmp_path / "d1").mkdir()
    (tmp_path / "d1" / "x").write_bytes(b"x")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(tmp_path / "d1" / "x"), "label": "a"},
        {"path": str(tmp_path / "d1" / ".." / "d1" / "x"), "label": "h"},
    ]}))
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "would both be written to" in done.stderr
    assert done.stdout == ""
    assert sorted(p.name for p in (tmp_path / "d1").iterdir()) == ["x"]


def test_decrypt_two_objects_to_one_output_exits_one(keyed_sample, tmp_path):
    sealed = []
    for folder, label in (("d1", "e"), ("d2", "f")):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "x").write_bytes(folder.encode())
        manifest = tmp_path / f"{folder}.json"
        manifest.write_text(json.dumps(
            {"objects": [{"path": str(tmp_path / folder / "x"), "label": label}]}))
        assert run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--keystore", keyed_sample["keys"] / "keystore.json",
                           "--manifest", manifest).returncode == 0
        sealed.append(tmp_path / folder / "x.sealed")
    done = run_process("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json",
                       *sealed, "--out-dir", tmp_path / "od")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "would both be written to" in done.stderr
    assert done.stdout == ""
    assert not (tmp_path / "od").exists()


def _files(folder):
    return {p.name: p.read_bytes() for p in folder.iterdir()}


def test_encrypt_output_over_a_later_input_exits_one(keyed_sample, tmp_path):
    # sealing x would overwrite x.sealed, the manifest's next plaintext
    folder = tmp_path / "objects"
    folder.mkdir()
    (folder / "x").write_bytes(b"first")
    (folder / "x.sealed").write_bytes(b"second")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(folder / "x"), "label": "a"},
        {"path": str(folder / "x.sealed"), "label": "a"},
    ]}))
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "would overwrite the input" in done.stderr
    assert done.stdout == ""
    assert _files(folder) == {"x": b"first", "x.sealed": b"second"}


@pytest.mark.parametrize("second", ["missing", "directory"])
def test_encrypt_with_a_later_object_it_cannot_open_seals_nothing(keyed_sample, tmp_path, second):
    # every object is opened before the first is sealed, so x is not sealed
    # and left behind when the manifest's next entry cannot be read
    folder = tmp_path / "objects"
    folder.mkdir()
    (folder / "x.txt").write_bytes(b"first")
    if second == "directory":
        (folder / "nope.txt").mkdir()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(folder / "x.txt"), "label": "a"},
        {"path": str(folder / "nope.txt"), "label": "a"},
    ]}))
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"cannot read {folder / 'nope.txt'}" in done.stderr
    assert done.stdout == ""
    assert not list(folder.glob("*.sealed"))


@pytest.mark.parametrize(
    "source, code, message",
    [("bundle", 2, "'b' is not authorized for 'h'"),
     ("keystore", 1, "labels; 'h' is missing or extra")],
    ids=["refused-bundle", "incomplete-keystore"],
)
def test_encrypt_without_a_later_entrys_key_seals_nothing(
    keyed_sample, tmp_path, source, code, message
):
    # b may read a but not h, and a keystore that lacks h is refused when it
    # is read: every key is looked up or derived before the first object is sealed
    folder = tmp_path / "objects"
    folder.mkdir()
    (folder / "o1").write_bytes(b"first")
    (folder / "o2").write_bytes(b"second")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(folder / "o1"), "label": "a"},
        {"path": str(folder / "o2"), "label": "h"},
    ]}))
    if source == "bundle":
        holder = ["--bundle", keyed_sample["keys"] / "sigma_b.json"]
    else:
        store = read_json(keyed_sample["keys"] / "keystore.json")
        del store["keys"]["h"]
        (tmp_path / "partial.json").write_text(json.dumps(store))
        holder = ["--keystore", tmp_path / "partial.json"]
    done = run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       *holder, "--manifest", manifest)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert message in done.stderr
    assert done.stdout == ""
    assert _files(folder) == {"o1": b"first", "o2": b"second"}


@pytest.mark.parametrize("fault", KEYSTORE_FAULTS)
@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_keystore_not_covering_its_tree_opens_and_seals_nothing(
    keyed_sample, tmp_path, command, fault
):
    # the object is labelled a, whose key every broken keystore still holds:
    # the keystore is refused when it is read, before any object is
    store = read_json(keyed_sample["keys"] / "keystore.json")
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(broken_keystore(store, fault)))
    folder = tmp_path / "objects"
    folder.mkdir()
    if command == "encrypt":
        (folder / "o1").write_bytes(b"plain")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"objects": [{"path": str(folder / "o1"), "label": "a"}]}))
        operands = ["--manifest", manifest]
    else:
        (folder / "o1.sealed").write_bytes(
            b"".join(seal(bytes.fromhex(store["keys"]["a"]), "a", b"plain")))
        operands = [folder / "o1.sealed"]
    before = _files(folder)
    done = run_process(command, keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", broken, *operands)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "must each hold exactly its tree's labels" in done.stderr
    assert done.stdout == ""
    assert _files(folder) == before


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_bundle_derives_each_label_once(keyed_sample, tmp_path, monkeypatch, command):
    # three objects labelled a: one derivation serves them all
    folder = tmp_path / "objects"
    folder.mkdir()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(folder / name), "label": "a"} for name in ("o1", "o2", "o3")]}))
    for name in ("o1", "o2", "o3"):
        (folder / name).write_bytes(name.encode())
    holder = ["--tree", str(keyed_sample["tree"]),
              "--bundle", str(keyed_sample["keys"] / "sigma_b.json")]
    if command == "encrypt":
        operands = ["--manifest", str(manifest)]
    else:
        assert main(["encrypt", str(keyed_sample["policy"]), *holder,
                     "--manifest", str(manifest)]) == 0
        operands = ["--out-dir", str(tmp_path / "opened"),
                    *(str(folder / f"{name}.sealed") for name in ("o1", "o2", "o3"))]
    derived = []
    derive = kdf.derive

    def counted(*args):
        derived.append(args[-1])
        return derive(*args)

    monkeypatch.setattr(kdf, "derive", counted)
    assert main([command, str(keyed_sample["policy"]), *holder, *operands]) == 0
    assert derived == ["a"]


@pytest.mark.parametrize("command", ["derive", "encrypt", "decrypt"])
def test_bundle_start_points_are_computed_once_per_command(
    keyed_sample, tmp_path, monkeypatch, command
):
    # f's bundle opens objects of three labels: its start points are worked
    # out once, when it is read, not once per key derived from it
    folder = tmp_path / "objects"
    folder.mkdir()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(folder / label), "label": label} for label in "abd"]}))
    for label in "abd":
        (folder / label).write_bytes(label.encode())
    holder = ["--tree", str(keyed_sample["tree"]),
              "--bundle", str(keyed_sample["keys"] / "sigma_f.json")]
    if command == "derive":
        operands = ["a"]
    elif command == "encrypt":
        operands = ["--manifest", str(manifest)]
    else:
        assert main(["encrypt", str(keyed_sample["policy"]), *holder,
                     "--manifest", str(manifest)]) == 0
        operands = ["--out-dir", str(tmp_path / "opened"),
                    *(str(folder / f"{label}.sealed") for label in "abd")]
    holders = []
    start_points = kdf.start_points

    def counted(poset, parent, x):
        holders.append(x)
        return start_points(poset, parent, x)

    monkeypatch.setattr(kdf, "start_points", counted)
    assert main([command, str(keyed_sample["policy"]), *holder, *operands]) == 0
    assert holders == ["f"]


@pytest.mark.parametrize("fault", ["short", "extra", "stranger"])
@pytest.mark.parametrize("command", ["derive", "encrypt", "decrypt"])
def test_bundle_not_holding_its_start_points_exits_one_before_any_object(
    run, keyed_sample, tmp_path, monkeypatch, command, fault
):
    # f's bundle one start point short, or with h's or an unknown label's
    # secret added, is refused when it is read: before any object's bytes
    # are read or any file is written, and before derive authorises e
    bundle = read_json(keyed_sample["keys"] / "sigma_f.json")
    if fault == "short":
        del bundle["secrets"][next(iter(bundle["secrets"]))]
    else:
        bundle["secrets"]["h" if fault == "extra" else "zz"] = "00" * kdf.KEY_BYTES
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bundle))
    store = read_json(keyed_sample["keys"] / "keystore.json")
    folder = tmp_path / "objects"
    folder.mkdir()
    (folder / "o1").write_bytes(b"plain")
    (folder / "o2.sealed").write_bytes(
        b"".join(seal(bytes.fromhex(store["keys"]["a"]), "a", b"plain")))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [{"path": str(folder / "o1"), "label": "a"}]}))
    operands = {"derive": [["a"], ["e"]], "encrypt": [["--manifest", manifest]],
                "decrypt": [[folder / "o2.sealed"]]}[command]
    before = _files(folder)
    read = []
    read_object = cli._read_object

    def recorded(path, buffer):
        read.append(path)
        return read_object(path, buffer)

    monkeypatch.setattr(cli, "_read_object", recorded)
    for operand in operands:
        code, out, err = run(command, keyed_sample["policy"], "--tree", keyed_sample["tree"],
                             "--bundle", broken, *operand)
        assert (code, out) == (1, "")
        assert "malformed bundle for 'f': start points do not match" in err
    assert read == []  # decrypt opens and sizes each operand first, reading nothing
    assert _files(folder) == before


def test_decrypt_output_over_a_later_input_exits_one(keyed_sample, tmp_path):
    # opening a.sealed.sealed would overwrite the container a.sealed before it is read
    # a.sealed.sealed holds a plaintext that was named a.sealed
    folder = tmp_path / "objects"
    folder.mkdir()
    for name, plaintext in (("a.sealed", b"other"), ("a", b"plain")):
        (folder / name).write_bytes(plaintext)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"objects": [{"path": str(folder / name), "label": "e"}]}))
        assert run_process("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--keystore", keyed_sample["keys"] / "keystore.json",
                           "--manifest", manifest).returncode == 0
    (folder / "a").unlink()
    before = _files(folder)
    done = run_process("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json",
                       folder / "a.sealed.sealed", folder / "a.sealed")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "would overwrite the input" in done.stderr
    assert done.stdout == ""
    assert _files(folder) == before


@pytest.mark.parametrize("second", ["missing", "directory"])
def test_decrypt_with_a_later_operand_it_cannot_open_writes_nothing(
    keyed_sample, tmp_path, second
):
    # every operand is opened before the first plaintext is written, so x is
    # not opened and out/ is not made when the next operand cannot be read
    folder = tmp_path / "objects"
    folder.mkdir()
    key = bytes.fromhex(read_json(keyed_sample["keys"] / "keystore.json")["keys"]["a"])
    (folder / "x.sealed").write_bytes(b"".join(seal(key, "a", b"first")))
    if second == "directory":
        (folder / "nope.sealed").mkdir()
    done = run_process("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                       "--keystore", keyed_sample["keys"] / "keystore.json",
                       folder / "x.sealed", folder / "nope.sealed",
                       "--out-dir", tmp_path / "out")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"cannot read {folder / 'nope.sealed'}" in done.stderr
    assert done.stdout == ""
    assert not (tmp_path / "out").exists()


def test_encrypt_and_decrypt_hold_one_buffer_the_size_of_the_largest_object(
    run, keyed_sample, tmp_path
):
    # objects of 3, 1 and 2 MiB are read in turn into one 3 MiB buffer and
    # sealed or opened a chunk at a time: no command holds an object twice
    folder = tmp_path / "objects"
    folder.mkdir()
    objects = {name: os.urandom(size << 20) for name, size in (("o3", 3), ("o1", 1), ("o2", 2))}
    for name, data in objects.items():
        (folder / name).write_bytes(data)
    (folder / "warm").write_bytes(b"imports and caches come before the measurement")
    holder = ["--tree", keyed_sample["tree"], "--keystore", keyed_sample["keys"] / "keystore.json"]
    manifests = {}
    for name, listed in (("warm", ["warm"]), ("objects", list(objects))):
        manifests[name] = tmp_path / f"{name}.json"
        manifests[name].write_text(json.dumps({"objects": [
            {"path": str(folder / entry), "label": "e"} for entry in listed]}))
    assert run("encrypt", keyed_sample["policy"], *holder, "--manifest", manifests["warm"])[0] == 0
    assert run("decrypt", keyed_sample["policy"], *holder, folder / "warm.sealed",
               "--out-dir", tmp_path / "warm")[0] == 0
    for command in (["encrypt", "--manifest", manifests["objects"]],
                    ["decrypt", *(folder / f"{name}.sealed" for name in objects),
                     "--out-dir", tmp_path / "opened"]):
        tracemalloc.start()
        try:
            code, _out, err = run(command[0], keyed_sample["policy"], *holder, *command[1:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 1.25 * (3 << 20), (command[0], peak)
    assert _files(tmp_path / "opened") == objects


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_decrypt_of_a_tampered_later_operand_writes_only_the_earlier(
    run, keyed_sample, tmp_path, existing
):
    # y.sealed fails authentication before its output is created or truncated
    folder = tmp_path / "objects"
    folder.mkdir()
    key = bytes.fromhex(read_json(keyed_sample["keys"] / "keystore.json")["keys"]["a"])
    (folder / "x.sealed").write_bytes(b"".join(seal(key, "a", b"first")))
    tampered = bytearray(b"".join(seal(key, "a", b"second")))
    tampered[-20] ^= 0x01
    (folder / "y.sealed").write_bytes(tampered)
    out = tmp_path / "out"
    out.mkdir()
    before = {"y": b"written before the command"} if existing else {}
    for name, data in before.items():
        (out / name).write_bytes(data)
    code, stdout, err = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                            "--keystore", keyed_sample["keys"] / "keystore.json",
                            folder / "x.sealed", folder / "y.sealed", "--out-dir", out)
    assert code == 3
    assert "sealed object failed authentication" in err
    assert stdout == f"opened {folder / 'x.sealed'} -> {out / 'x'} (label a)\n"
    assert _files(out) == {"x": b"first", **before}


@pytest.mark.parametrize("larger", [False, True], ids=["alone", "beside-a-larger-object"])
def test_encrypt_of_an_object_grown_after_it_was_sized_seals_no_prefix(
    run, keyed_sample, tmp_path, monkeypatch, larger
):
    # the object grows between the pass that sizes every object and its
    # read: it is sealed whole if the buffer still holds it, else refused
    folder = tmp_path / "objects"
    folder.mkdir()
    grows = folder / "grows"
    grows.write_bytes(b"x" * 100)
    entries = [grows]
    if larger:
        entries.append(folder / "larger")
        entries[-1].write_bytes(b"z" * 1000)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(path), "label": "e"} for path in entries]}))
    object_size = cli._object_size

    def sized_then_grown(path):
        size = object_size(path)
        if path == grows:
            with path.open("ab") as handle:
                handle.write(b"y" * 50)
        return size

    monkeypatch.setattr(cli, "_object_size", sized_then_grown)
    code, _out, err = run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                          "--keystore", keyed_sample["keys"] / "keystore.json",
                          "--manifest", manifest)
    key = bytes.fromhex(read_json(keyed_sample["keys"] / "keystore.json")["keys"]["e"])
    for sealed in folder.glob("*.sealed"):
        opened = b"".join(unseal(key, sealed.read_bytes())[1])
        assert opened == sealed.with_suffix("").read_bytes()
    if larger:
        assert code == 0, err
        assert sorted(path.name for path in folder.glob("*.sealed")) == [
            "grows.sealed", "larger.sealed"]
    else:
        assert code == 1
        assert f"cannot read {grows}: it grew past 100 bytes" in err
        assert not list(folder.glob("*.sealed"))


def test_build_tree_refuses_a_later_output_that_is_a_directory(run, policy_file, tmp_path):
    out = tmp_path / "build"
    (out / "allocation.json").mkdir(parents=True)
    code, stdout, err = run("build-tree", policy_file, "--out-dir", out)
    assert code == 1
    assert stdout == ""
    assert f"cannot write {out / 'allocation.json'}: it is a directory" in err
    assert sorted(path.name for path in out.iterdir()) == ["allocation.json"]


def test_keygen_refuses_a_later_bundle_that_is_a_directory(run, keyed_sample, tmp_path):
    # the bundles are written in label order, so a-c and the keystore come first
    out = tmp_path / "keys2"
    (out / "sigma_d.json").mkdir(parents=True)
    code, stdout, err = run("keygen", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                            "--seed", SEED, "--out-dir", out)
    assert code == 1
    assert stdout == ""
    assert f"cannot write {out / 'sigma_d.json'}: it is a directory" in err
    assert sorted(path.name for path in out.iterdir()) == ["sigma_d.json"]


@pytest.fixture
def two_objects(keyed_sample, tmp_path):
    """``x.txt`` and ``y.txt``, both labelled e, and a manifest listing them in that order."""
    folder = tmp_path / "objects"
    folder.mkdir()
    for name in ("x.txt", "y.txt"):
        (folder / name).write_bytes(f"the object {name}\n".encode())
    manifest = tmp_path / "objects.json"
    manifest.write_text(json.dumps({"objects": [
        {"path": str(folder / name), "label": "e"} for name in ("x.txt", "y.txt")]}))
    return folder, manifest


def test_encrypt_refuses_a_later_target_that_is_a_directory(run, keyed_sample, two_objects):
    folder, manifest = two_objects
    (folder / "y.txt.sealed").mkdir()
    code, out, err = run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                         "--keystore", keyed_sample["keys"] / "keystore.json",
                         "--manifest", manifest)
    assert code == 1
    assert out == ""
    assert f"cannot write {folder / 'y.txt.sealed'}: it is a directory" in err
    assert not (folder / "x.txt.sealed").exists()


def test_decrypt_refuses_a_later_target_that_is_a_directory(
    run, keyed_sample, two_objects, tmp_path
):
    folder, manifest = two_objects
    keystore = keyed_sample["keys"] / "keystore.json"
    assert run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
               "--keystore", keystore, "--manifest", manifest)[0] == 0
    out = tmp_path / "out"
    (out / "y.txt").mkdir(parents=True)
    code, stdout, err = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                            "--keystore", keystore, folder / "x.txt.sealed",
                            folder / "y.txt.sealed", "--out-dir", out)
    assert code == 1
    assert stdout == ""
    assert f"cannot write {out / 'y.txt'}: it is a directory" in err
    assert sorted(path.name for path in out.iterdir()) == ["y.txt"]


def test_decrypt_over_its_own_input_exits_one(run, keyed_sample, tmp_path):
    # a container without the suffix, opened into its own folder, names itself
    (tmp_path / "x").write_bytes(b"plain")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"objects": [{"path": str(tmp_path / "x"), "label": "e"}]}))
    keystore = keyed_sample["keys"] / "keystore.json"
    assert run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
               "--keystore", keystore, "--manifest", manifest)[0] == 0
    (tmp_path / "x").unlink()
    sealed = (tmp_path / "x.sealed").rename(tmp_path / "opaque")
    container = sealed.read_bytes()
    code, out, err = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                         "--keystore", keystore, sealed, "--out-dir", tmp_path)
    assert code == 1
    assert "would overwrite the input" in err
    assert out == ""
    assert sealed.read_bytes() == container


def _command_reading(kind, keyed, document, tmp_path):
    """A command line whose first use of ``document`` loads it as ``kind``."""
    policy, tree, keys = keyed["policy"], keyed["tree"], keyed["keys"]
    empty_manifest = tmp_path / "manifest.json"
    empty_manifest.write_text(json.dumps({"objects": []}))
    return {
        "policy": ("analyze", document),
        "tree": ("keygen", policy, "--tree", document, "--seed", SEED, "--out-dir", tmp_path),
        "bundle": ("derive", policy, "--tree", tree, "--bundle", document, "a"),
        "keystore": ("encrypt", policy, "--tree", tree, "--keystore", document,
                     "--manifest", empty_manifest),
        "manifest": ("encrypt", policy, "--tree", tree, "--keystore", keys / "keystore.json",
                     "--manifest", document),
        "partition": ("compare", policy, "--partition", document),
    }[kind]


@pytest.mark.parametrize("text", ["[]", "5"])
@pytest.mark.parametrize("kind", ["policy", "tree", "bundle", "keystore", "manifest", "partition"])
def test_non_object_document_exits_one(kind, text, keyed_sample, tmp_path):
    document = tmp_path / "document.json"
    document.write_text(text)
    done = run_process(*_command_reading(kind, keyed_sample, document, tmp_path))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"{kind} document must be a JSON object" in done.stderr


class TestCompare:
    def test_sample_table(self, run, policy_file, partition_file):
        code, out, _ = run("compare", policy_file, "--partition", partition_file)
        assert code == 0
        rows = {line.split()[0]: line.split() for line in out.splitlines()[1:]}
        assert rows["basic"][1] == "31"
        assert rows["iterative"][1:] == ["8", "8", "1", "10", "4"]
        assert rows["direct"][4] == "23" and rows["direct"][5] == "1"
        assert rows["chain"][1] == "13"
        assert rows["tree"][1] == "11"

    def test_computed_partition(self, run, policy_file):
        code, out, _ = run("compare", policy_file)
        assert code == 0
        assert "chain" in out

    def test_json_output(self, run, policy_file, partition_file):
        code, out, _ = run("compare", policy_file, "--partition", partition_file, "--json")
        assert code == 0
        table = json.loads(out)
        assert table["tree"]["K_total"] == 11
        assert table["chain"]["K_total"] == 13
        assert table["basic"]["K_total"] == 31

    def test_total_order_chain_equals_tree(self, run, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"elements": ["x", "y", "z"], "arcs": [["z", "y"], ["y", "x"]]})
        )
        code, out, _ = run("compare", path, "--json")
        table = json.loads(out)
        assert table["chain"]["K_total"] == table["tree"]["K_total"] == 3

    @pytest.fixture
    def headless_policy(self, tmp_path):
        """The sample without h: f and g are maximal, under a virtual root."""
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps({
            "elements": SAMPLE_ELEMENTS[:-1],
            "arcs": [arc for arc in SAMPLE_POLICY_DOC["arcs"] if "h" not in arc],
        }))
        return policy

    def test_partition_may_leave_out_the_virtual_root(self, run, headless_policy, tmp_path):
        chains = [["g", "e", "c", "a"], ["f", "d", "b"]]
        tables = []
        for document in ({"chains": chains}, {"chains": [["⊤", *chains[0]], chains[1]]}):
            partition = tmp_path / "partition.json"
            partition.write_text(json.dumps(document))
            code, out, _ = run("compare", headless_policy, "--partition", partition, "--json")
            assert code == 0
            tables.append(json.loads(out))
        # the virtual root holds no users, so its chain adds no keys
        assert tables[0]["chain"]["K_hat"] == tables[1]["chain"]["K_hat"] == 11

    def test_partition_missing_a_policy_label_exits_one(self, run, headless_policy, tmp_path):
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"chains": [["g", "e", "c", "a"], ["f", "d"]]}))
        code, _, err = run("compare", headless_policy, "--partition", partition)
        assert code == 1
        assert "partition does not cover labels: ['b']" in err

    @pytest.mark.parametrize("label, entry", [("1", 1), ("None", None)], ids=["int", "null"])
    def test_non_string_partition_label_exits_one(self, label, entry, tmp_path):
        # the label the entry would turn into under str() is a policy label
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps({"elements": [label], "arcs": []}))
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"chains": [[entry]]}))
        done = run_process("compare", policy, "--partition", partition)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "lists of string labels" in done.stderr

    def test_label_repeated_within_one_chain_exits_one(self, tmp_path):
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps({"elements": ["a", "b", "c"], "arcs": [["a", "b"]]}))
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"chains": [["a", "a"]]}))
        done = run_process("compare", policy, "--partition", partition)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "label 'a' appears more than once in the partition" in done.stderr


class TestEncryptDecrypt:
    def make_manifest(self, tmp_path, label):
        payload = tmp_path / "report.txt"
        payload.write_bytes(b"quarterly numbers\n" * 10)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"objects": [{"path": str(payload), "label": label}]})
        )
        return payload, manifest

    def test_round_trip_with_keystore(self, run, keyed_sample, tmp_path):
        payload, manifest = self.make_manifest(tmp_path, "e")
        code, _, _ = run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                         "--keystore", keyed_sample["keys"] / "keystore.json",
                         "--manifest", manifest)
        assert code == 0
        sealed = payload.with_name(payload.name + ".sealed")
        assert sealed.exists()
        out_dir = tmp_path / "opened"
        code, _, _ = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                         "--keystore", keyed_sample["keys"] / "keystore.json",
                         sealed, "--out-dir", out_dir)
        assert code == 0
        assert (out_dir / "report.txt").read_bytes() == payload.read_bytes()

    def test_authorized_bundle_can_decrypt(self, run, keyed_sample, tmp_path):
        payload, manifest = self.make_manifest(tmp_path, "e")
        run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
            "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
        sealed = payload.with_name(payload.name + ".sealed")
        out_dir = tmp_path / "opened"
        code, _, _ = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                         "--bundle", keyed_sample["keys"] / "sigma_g.json",
                         sealed, "--out-dir", out_dir)
        assert code == 0
        assert (out_dir / "report.txt").read_bytes() == payload.read_bytes()

    def test_unauthorized_bundle_exits_two(self, run, keyed_sample, tmp_path):
        payload, manifest = self.make_manifest(tmp_path, "e")
        run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
            "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
        sealed = payload.with_name(payload.name + ".sealed")
        code, _, err = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--bundle", keyed_sample["keys"] / "sigma_c.json",
                           sealed, "--out-dir", tmp_path / "x")
        assert code == 2
        assert not (tmp_path / "x").exists()

    def test_bundle_opens_objects_in_order_until_a_refusal(self, run, keyed_sample, tmp_path):
        sealed = []
        for name, label in (("first.txt", "e"), ("second.txt", "f"), ("third.txt", "c")):
            payload = tmp_path / name
            payload.write_bytes(name.encode())
            manifest = tmp_path / f"{name}.json"
            manifest.write_text(json.dumps({"objects": [{"path": str(payload), "label": label}]}))
            run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
            sealed.append(payload.with_name(name + ".sealed"))
        out_dir = tmp_path / "opened"
        code, out, err = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                             "--bundle", keyed_sample["keys"] / "sigma_g.json",
                             *sealed, "--out-dir", out_dir)
        assert code == 2  # g may open e but not f
        assert "not authorized" in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["first.txt"]

    def test_tampered_object_exits_three(self, run, keyed_sample, tmp_path):
        payload, manifest = self.make_manifest(tmp_path, "e")
        run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
            "--keystore", keyed_sample["keys"] / "keystore.json", "--manifest", manifest)
        sealed = payload.with_name(payload.name + ".sealed")
        blob = bytearray(sealed.read_bytes())
        blob[-1] ^= 1
        sealed.write_bytes(bytes(blob))
        code, _, err = run("decrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--keystore", keyed_sample["keys"] / "keystore.json",
                           sealed, "--out-dir", tmp_path / "x")
        assert code == 3
        assert "authentication" in err

    def test_manifest_label_must_exist(self, run, keyed_sample, tmp_path):
        _, manifest = self.make_manifest(tmp_path, "zz")
        code, _, err = run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--keystore", keyed_sample["keys"] / "keystore.json",
                           "--manifest", manifest)
        assert code == 1

    def test_manifest_unknown_fields_rejected(self, run, keyed_sample, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"objects": [], "mode": "fast"}))
        code, _, err = run("encrypt", keyed_sample["policy"], "--tree", keyed_sample["tree"],
                           "--keystore", keyed_sample["keys"] / "keystore.json",
                           "--manifest", manifest)
        assert code == 1
        assert "unknown manifest fields" in err

    def test_virtual_root_cannot_label_objects(self, run, tmp_path):
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps({"elements": ["x", "y"], "arcs": []}))
        build = tmp_path / "build"
        keys = tmp_path / "keys"
        run("build-tree", policy, "--out-dir", build)
        run("keygen", policy, "--tree", build / "tree.json", "--seed", SEED, "--out-dir", keys)
        payload = tmp_path / "data.bin"
        payload.write_bytes(b"x")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"objects": [{"path": str(payload), "label": "⊤"}]})
        )
        code, _, err = run("encrypt", policy, "--tree", build / "tree.json",
                           "--keystore", keys / "keystore.json", "--manifest", manifest)
        assert code == 1
        assert "virtual root" in err

    @pytest.mark.parametrize("source", ["--keystore", "--bundle"])
    def test_decrypt_refuses_an_object_labeled_with_the_virtual_root(self, run, tmp_path, source):
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps({"elements": ["a", "b"], "arcs": []}))
        tree, keys = tmp_path / "tree.json", tmp_path / "k"
        run("build-tree", policy, "--out-dir", tmp_path)
        run("keygen", policy, "--tree", tree, "--seed", SEED, "--out-dir", keys)
        top_key = bytes.fromhex(read_json(keys / "keystore.json")["keys"]["⊤"])
        sealed = tmp_path / "x.sealed"
        sealed.write_bytes(b"".join(seal(top_key, "⊤", b"top secret")))
        key_file = keys / ("keystore.json" if source == "--keystore" else "sigma_%E2%8A%A4.json")
        done = run_process("decrypt", policy, "--tree", tree, source, key_file, sealed)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "objects cannot be labeled with the virtual root" in done.stderr
        assert not (tmp_path / "x").exists()

    def test_a_label_named_top_lengthens_the_virtual_root_in_every_command(self, run, tmp_path):
        # "⊤" is a policy label, so the virtual root is "⊤⊤": that labels no
        # object, and "⊤" labels one as any other label does
        policy, build, keys = tmp_path / "p.json", tmp_path / "build", tmp_path / "keys"
        policy.write_text(json.dumps({"elements": ["⊤", "a"], "arcs": []}))
        tree = build / "tree.json"
        code, out, _ = run("analyze", policy, "--json")
        assert code == 0 and json.loads(out)["root"] == "⊤⊤"
        assert run("build-tree", policy, "--out-dir", build)[0] == 0
        assert read_json(tree)["root"] == "⊤⊤"
        assert run("keygen", policy, "--tree", tree, "--seed", SEED, "--out-dir", keys)[0] == 0
        code, out, _ = run("derive", policy, "--tree", tree,
                           "--bundle", keys / "sigma_%E2%8A%A4%E2%8A%A4.json", "⊤")
        assert code == 0
        assert out.strip() == read_json(keys / "keystore.json")["keys"]["⊤"]
        assert run("compare", policy, "--json")[0] == 0
        assert run("verify", policy, "--seeds", "2")[0] == 0
        payload, manifest = tmp_path / "data.bin", tmp_path / "manifest.json"
        payload.write_bytes(b"x")
        for label, expected in (("⊤⊤", 1), ("⊤", 0)):
            manifest.write_text(json.dumps({"objects": [{"path": str(payload), "label": label}]}))
            code, _, err = run("encrypt", policy, "--tree", tree,
                               "--keystore", keys / "keystore.json", "--manifest", manifest)
            assert code == expected, err
        assert run("decrypt", policy, "--tree", tree, "--bundle", keys / "sigma_%E2%8A%A4.json",
                   "--out-dir", tmp_path / "out", tmp_path / "data.bin.sealed")[0] == 0
        assert (tmp_path / "out" / "data.bin").read_bytes() == b"x"


class TestVerify:
    def test_sample_passes(self, run, policy_file):
        code, out, _ = run("verify", policy_file, "--seeds", "5")
        assert code == 0
        assert "verification passed" in out
        assert "FAIL" not in out

    def test_fixture_only_run(self, run, policy_file):
        code, out, _ = run("verify", policy_file, "--seeds", "0")
        assert code == 0
        assert "(1 instances)" in out

    def test_json_report(self, run, policy_file):
        code, out, _ = run("verify", policy_file, "--seeds", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True

    def test_policy_over_the_enumeration_limit_is_skipped_not_passed(self, tmp_path):
        policy = tmp_path / "p10.json"
        policy.write_text(json.dumps(sparse_policy_doc(10, 1)))
        done = run_process("verify", policy, "--seeds", "0")
        assert done.returncode == 3
        assert "PASS" not in done.stdout
        lines = done.stdout.splitlines()
        skip = "SKIP  (policy not examined: 10 labels, over the enumeration limit of 9)"
        assert sum(line.endswith(skip) for line in lines) == 15
        assert lines[-1].startswith("verification FAILED")
        done = run_process("verify", policy, "--seeds", "0", "--json")
        assert done.returncode == 3
        report = json.loads(done.stdout)
        assert report["passed"] is False
        assert report["skip_reason"] == "10 labels, over the enumeration limit of 9"
        assert all(c["skipped"] and not c["passed"] for c in report["checks"])

    def test_random_instances_run_on_a_large_policy(self, run, tmp_path):
        # only the random instances run, so the policy itself is not
        # examined and the run cannot pass
        policy = tmp_path / "p10.json"
        policy.write_text(json.dumps(sparse_policy_doc(10, 1)))
        code, out, _ = run("verify", policy, "--seeds", "1", "--json")
        assert code == 3
        report = json.loads(out)
        assert report["passed"] is False
        assert all(not c["skipped"] and c["instances"] >= 1 for c in report["checks"])
        assert report["skip_reason"] == "10 labels, over the enumeration limit of 9"
        code, out, _ = run("verify", policy, "--seeds", "1")
        assert code == 3
        lines = out.splitlines()
        assert lines[-2] == "policy not examined: 10 labels, over the enumeration limit of 9"
        assert lines[-1].startswith("verification FAILED")

    def test_forked_workers_report_as_one_process(self, run, policy_file, monkeypatch):
        done = run_process("verify", policy_file, "--seeds", "40", "--json")
        assert done.returncode == 0, done.stderr
        forked = json.loads(done.stdout)
        monkeypatch.setattr(cli.oracles, "_usable_cpus", lambda: 1)
        code, out, _ = run("verify", policy_file, "--seeds", "40", "--json")
        assert code == 0
        alone = json.loads(out)
        del forked["elapsed_seconds"], alone["elapsed_seconds"]
        assert forked == alone
        assert all(c["instances"] == 41 for c in alone["checks"])

    def test_negative_seed_count_exits_one(self, policy_file):
        done = run_process("verify", policy_file, "--seeds", "-3")
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "--seeds must be 0 or more, got -3" in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize(
        "seeds, base_seed", [("0", "-1"), ("2", str(2**64 - 1))], ids=["negative", "past-2**64"]
    )
    def test_seed_outside_64_bits_exits_one(self, seeds, base_seed, policy_file):
        done = run_process("verify", policy_file, "--seeds", seeds, "--base-seed", base_seed)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "every seed in [0, 2**64)" in done.stderr

    def test_malformed_bundle_is_a_failure_not_an_error(self, run, policy_file, monkeypatch):
        # the battery builds every label's bundle one start point short;
        # derive finds no start point above what the dropped one covers,
        # and the battery must report it
        whole = kdf.SigmaBundle

        def one_short(holder, secrets):
            return whole(holder, dict(list(secrets.items())[1:]))

        monkeypatch.setattr("treekeys.kdf.SigmaBundle", one_short)
        code, out, err = run("verify", policy_file, "--seeds", "3", "--json")
        assert code == 3, err
        report = json.loads(out)
        assert report["passed"] is False
        failed = {c["name"]: c["counterexample"] for c in report["checks"] if not c["passed"]}
        assert failed == {"derive-correctness": {"instance": "policy"}}

    def test_start_points_off_the_allocation_fail_derive_correctness(
        self, run, policy_file, monkeypatch
    ):
        # a read bundle is checked against start_points, so the battery checks
        # them against the allocation it certified, at every holder
        start_points = kdf.start_points
        monkeypatch.setattr("treekeys.oracles.start_points",
                            lambda *args: frozenset(sorted(start_points(*args))[1:]))
        code, out, err = run("verify", policy_file, "--seeds", "3", "--json")
        assert code == 3, err
        failed = {c["name"]: c["counterexample"] for c in json.loads(out)["checks"]
                  if not c["passed"]}
        assert failed == {"derive-correctness": {"instance": "policy"}}

    def test_failure_exits_three(self, run, policy_file, monkeypatch):
        from treekeys.oracles import CheckResult, VerificationReport

        def broken_suite(*args, **kwargs):
            check = CheckResult(name="demo")
            check.record(False, {"seed": 0})
            return VerificationReport(checks=[check])

        monkeypatch.setattr("treekeys.cli.oracles.run_suite", broken_suite)
        code, out, _ = run("verify", policy_file, "--seeds", "1")
        assert code == 3
        assert "FAIL" in out
