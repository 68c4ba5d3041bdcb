import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treekeys import KeyAllocation, cli
from treekeys.cli import main

from conftest import sparse_policy_doc

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
        # K_hat must equal the tree's arc costs plus the root's own key:
        # an allocation that drops a start point is caught before any write
        real = cli.canonical_allocation

        def short(poset, tree):
            phi = dict(real(poset, tree).phi)
            x = min(x for x, points in phi.items() if len(points) > 1)
            phi[x] = frozenset({x})
            return KeyAllocation(phi=phi)

        monkeypatch.setattr(cli, "canonical_allocation", short)
        out_dir = tmp_path / "short"
        code, _, err = run("build-tree", policy_file, "--out-dir", out_dir)
        assert code == 3
        assert "K_hat=10 differs from the tree's arc cost total 11" in err
        assert not out_dir.exists()


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

    def test_foreign_tree_rejected(self, run, policy_file, tmp_path):
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps({"root": "h", "parents": {"a": "h"}}))
        code, _, err = run("keygen", policy_file, "--tree", bad, "--seed", SEED,
                           "--out-dir", tmp_path / "k")
        assert code == 1


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


def run_process(*args):
    """The CLI as a separate process, so stderr shows what a user would see."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "treekeys", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


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
    "policy, options, message",
    [
        ({"elements": ["a", "b", "c"], "arcs": [["a", "b"], ["b", "c"], ["c", "a"]]}, [],
         "cycle detected"),
        ({"elements": ["a", "b", "⊤"], "arcs": []}, [], "reserved root label '⊤' already in use"),
        ({"elements": ["a", "b"], "arcs": []}, ["--root-label", ""],
         "root label must be a non-empty string, got ''"),
        # a lone surrogate is a valid JSON string, but it has no UTF-8 bytes for the PRF
        ({"elements": ["a", "\ud800"], "arcs": [["a", "\ud800"]]}, [],
         "label '\\ud800' does not encode as UTF-8"),
        # argv decodes the byte 0xff to the lone surrogate U+DCFF
        ({"elements": ["a", "b"], "arcs": []}, ["--root-label", "\udcff"],
         "root label '\\udcff' does not encode as UTF-8"),
    ],
    ids=["cycle", "taken-root-label", "empty-root-label", "surrogate-label",
         "surrogate-root-label"],
)
def test_unnormalisable_policy_exits_one(policy, options, message, tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(policy), encoding="utf-8")
    done = run_process("analyze", path, *options)
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

    def test_failure_exits_three(self, run, policy_file, monkeypatch):
        from treekeys import oracles
        from treekeys.oracles import CheckResult, VerificationReport

        def broken_suite(*args, **kwargs):
            check = CheckResult(name="demo")
            check.record(False, {"seed": 0})
            return VerificationReport(checks=[check])

        monkeypatch.setattr("treekeys.cli.oracles.run_suite", broken_suite)
        code, out, _ = run("verify", policy_file, "--seeds", "1")
        assert code == 3
        assert "FAIL" in out
