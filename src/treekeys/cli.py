"""Command-line front end.

Subcommands cover the operator workflow end to end: inspect a policy,
build the cheapest derivation tree, cut keys, hand out bundles, derive
keys, size up alternative schemes, seal and unseal objects, and run the
self-verification battery.

Exit codes: 0 success, 1 usage or parse failure or out of memory,
2 authorization refused, 3 verification failure (a failed or skipped
check, or a failed HMAC self-check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.parse
from pathlib import Path
from typing import Any, Callable, Mapping

from . import baselines, kdf, oracles, sealing
from .allocation import SchemeMetrics, canonical_allocation, scheme_metrics
from .errors import AuthorizationError, PolicyError, VerificationError, check_fields
from .poset import (
    VIRTUAL_ROOT,
    ChainPartition,
    Poset,
    min_chain_partition,
    parse_policy,
    width,
)
from .trees import (
    DerivationOutTree,
    min_leaf_out_tree,
    min_weight_out_tree,
    validate_tree,
    weight_function,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _load_json(path: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise PolicyError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise PolicyError(
            f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # bad UTF-8, deep nesting
        raise PolicyError(f"cannot parse {path}: {exc}") from exc
    except ValueError as exc:  # the only other: an integer literal too long to convert
        raise PolicyError(f"cannot parse {path}: it holds an integer literal longer than "
                          f"the {sys.get_int_max_str_digits()}-digit limit") from exc


def _write_json(path: Path, data: Mapping[str, Any]) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_policy(args: argparse.Namespace) -> tuple[Poset, dict[str, int]]:
    return parse_policy(_load_json(args.policy), root_label=args.root_label)


def _load_tree(poset: Poset, path: str) -> DerivationOutTree:
    tree = DerivationOutTree.from_json_dict(_load_json(path))
    validate_tree(poset, tree)
    return tree


#: What ``encrypt`` appends to each object's file name and ``decrypt`` removes.
SEALED_SUFFIX = ".sealed"


def _bundle_filename(label: str) -> str:
    return f"sigma_{urllib.parse.quote(label, safe='')}.json"


# -- subcommands ---------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    poset, _users = _load_policy(args)
    top = 1 << poset.index(poset.root) if poset.virtual_root else 0  # the maximal labels' up-mask
    info = {
        "elements": len(poset.labels),
        "cover_arcs": sum(mask.bit_count() for mask in poset.cover_up),
        "closure_arcs": poset.closure_size,
        "width": width(poset),
        "root": poset.root,
        "augmented": poset.virtual_root,
        "maximal": [x for x, up in zip(poset.labels, poset.strict_up) if up == top],
    }
    if args.json:
        print(json.dumps(info, sort_keys=True, indent=2))
    else:
        print(f"elements:     {info['elements']}")
        print(f"cover arcs:   {info['cover_arcs']}")
        print(f"closure arcs: {info['closure_arcs']}")
        print(f"width:        {info['width']}")
        print(f"root:         {info['root']}")
        print(f"augmented:    {'yes' if info['augmented'] else 'no'}")
        print(f"maximal:      {' '.join(info['maximal'])}")
    return 0


def cmd_build_tree(args: argparse.Namespace) -> int:
    poset, users = _load_policy(args)
    build = min_leaf_out_tree if args.min_leaves else min_weight_out_tree
    tree = build(poset, users, closure=args.arcs == "closure")
    allocation = canonical_allocation(poset, tree)
    metrics = SchemeMetrics.from_sizes(users, allocation.sizes(), max(tree.depths().values()))
    # the arc costs plus the root's own key, held by M(root) = the root's users
    expected = users[tree.root] + sum(weight_function(poset, users, tree.arcs()).values())
    if metrics.K_hat != expected:
        raise VerificationError(
            f"K_hat={metrics.K_hat} differs from the tree's arc cost total {expected}"
        )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "tree.json", tree.to_json_dict())
    _write_json(out / "allocation.json", allocation.to_json_dict())
    _write_json(out / "metrics.json", metrics.to_json_dict())
    print(
        f"wrote tree.json allocation.json metrics.json to {out} "
        f"(K_total={metrics.K_total} K_hat={metrics.K_hat} k_max={metrics.k_max} "
        f"d_max={metrics.d_max})"
    )
    return 0


def cmd_keygen(args: argparse.Namespace) -> int:
    poset, _users = _load_policy(args)
    tree = _load_tree(poset, args.tree)
    if args.seed is not None:
        try:
            seed = bytes.fromhex(args.seed)
        except ValueError as exc:
            raise PolicyError(f"seed is not valid hex: {exc}") from exc
        if len(seed) != kdf.KEY_BYTES:
            raise PolicyError(f"seed must be {kdf.KEY_BYTES} bytes ({kdf.KEY_BYTES * 2} hex chars)")
        rng = kdf.seeded_bytes(seed)
    else:
        rng = os.urandom
    store, bundles = kdf.setup(poset, tree, rng=rng)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "keystore.json", store.to_json_dict())
    for label in poset.labels:
        _write_json(out / _bundle_filename(label), bundles[label].to_json_dict())
    print(f"wrote keystore.json and {len(bundles)} bundle files to {out}")
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    poset, _users = _load_policy(args)
    tree = _load_tree(poset, args.tree)
    bundle = kdf.SigmaBundle.from_json_dict(_load_json(args.bundle))
    key = kdf.derive(poset, tree, bundle, args.target)
    print(key.hex())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    poset, users = _load_policy(args)
    if args.partition:
        partition = ChainPartition.from_json_dict(_load_json(args.partition))
    else:
        partition = min_chain_partition(poset)
    tree = min_weight_out_tree(poset, users)
    rows = {
        name: baselines.classic_scheme_metrics(poset, users, name)
        for name in baselines.CLASSIC_SCHEMES
    }
    rows["chain"] = baselines.chain_metrics(poset, users, partition)
    rows["tree"] = scheme_metrics(poset, users, tree)
    if args.json:
        print(json.dumps({k: m.to_json_dict() for k, m in rows.items()}, sort_keys=True, indent=2))
        return 0
    print(f"{'scheme':<10} {'K':>6} {'K_hat':>6} {'k':>4} {'p':>5} {'d':>4}")
    for name in (*baselines.CLASSIC_SCHEMES, "chain", "tree"):
        m = rows[name]
        print(f"{name:<10} {m.K_total:>6} {m.K_hat:>6} {m.k_max:>4} {m.p:>5} {m.d_max:>4}")
    return 0


def _check_object_label(poset: Poset, label: str) -> None:
    """Raise PolicyError unless ``label`` may label an object: any label
    of the policy but the virtual root."""
    poset.index(label)
    if poset.virtual_root and label == poset.root:
        raise PolicyError("objects cannot be labeled with the virtual root")


def _load_manifest(poset: Poset, path: str) -> list[tuple[Path, str]]:
    document = check_fields(_load_json(path), {"objects"}, "manifest")
    objects = document.get("objects")
    if not isinstance(objects, list):
        raise PolicyError("manifest must map 'objects' to a list")
    entries: list[tuple[Path, str]] = []
    for entry in objects:
        if not isinstance(entry, Mapping) or set(entry) != {"path", "label"}:
            raise PolicyError(f"manifest entry {entry!r} must have exactly 'path' and 'label'")
        path, label = entry["path"], entry["label"]
        if not isinstance(path, str) or not isinstance(label, str):
            raise PolicyError(f"manifest entry {entry!r} must give 'path' and 'label' as strings")
        try:
            os.fsencode(path)
        except UnicodeEncodeError:
            raise PolicyError(f"manifest path {path!r} has no file system encoding") from None
        if "\0" in path:
            raise PolicyError(f"manifest path {path!r} contains a NUL character")
        _check_object_label(poset, label)
        entries.append((Path(path), label))
    return entries


def _key_source(
    args: argparse.Namespace, poset: Poset, tree: DerivationOutTree
) -> Callable[[str], bytes]:
    """Object keys by label: looked up in ``--keystore`` or derived from
    ``--bundle``, either file read once per command."""
    if args.keystore:
        store = kdf.SecretStore.from_json_dict(_load_json(args.keystore))
        if store.tree != tree:
            raise PolicyError(
                f"keystore {args.keystore} was made for a different tree than --tree"
            )
        keys = store.keys

        def stored(label: str) -> bytes:
            if label not in keys:
                raise PolicyError(f"keystore has no key for label {label!r}")
            return keys[label]

        return stored
    bundle = kdf.SigmaBundle.from_json_dict(_load_json(args.bundle))
    return lambda label: kdf.derive(poset, tree, bundle, label)


def _refuse_shared_targets(sources: list[Path], targets: list[Path]) -> None:
    """Refuse, before anything is written, two sources bound for one file,
    and a target that is a source of the same command, its own included."""
    inputs = {source.resolve(): source for source in sources}
    first: dict[Path, int] = {}
    for i, target in enumerate(targets):
        resolved = target.resolve()
        if resolved in inputs:
            raise PolicyError(f"the output of {sources[i]} would overwrite the input "
                              f"{inputs[resolved]}")
        if (j := first.setdefault(resolved, i)) != i:
            raise PolicyError(f"{sources[j]} and {sources[i]} would both be written to {target}")


def _read_object(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise PolicyError(f"cannot read {path}: {exc.strerror or exc}") from exc


def cmd_encrypt(args: argparse.Namespace) -> int:
    poset, _users = _load_policy(args)
    tree = _load_tree(poset, args.tree)
    entries = _load_manifest(poset, args.manifest)
    targets = [path.with_name(path.name + SEALED_SUFFIX) for path, _ in entries]
    _refuse_shared_targets([path for path, _ in entries], targets)
    object_key = _key_source(args, poset, tree)
    for (path, label), target in zip(entries, targets):
        key = object_key(label)
        # no name holds the object, so it is freed before the next is read
        target.write_bytes(sealing.seal(key, label, _read_object(path)))
        print(f"sealed {path} -> {target} (label {label})")
    return 0


def cmd_decrypt(args: argparse.Namespace) -> int:
    poset, _users = _load_policy(args)
    tree = _load_tree(poset, args.tree)
    paths = [Path(name) for name in args.sealed]
    targets = []
    for path in paths:
        base = path.name.removesuffix(SEALED_SUFFIX)
        if base in ("", ".", ".."):
            raise PolicyError(f"{path} leaves no file name once {SEALED_SUFFIX!r} is removed")
        if not args.out_dir and base == path.name:
            raise PolicyError(f"{path} does not end with {SEALED_SUFFIX!r}; "
                              "pass --out-dir to choose a destination")
        targets.append(Path(args.out_dir) / base if args.out_dir else path.with_name(base))
    _refuse_shared_targets(paths, targets)
    object_key = _key_source(args, poset, tree)
    for path, target in zip(paths, targets):
        blob = _read_object(path)
        label = sealing.sealed_label(blob)
        _check_object_label(poset, label)
        key = object_key(label)
        _, plaintext = sealing.unseal(key, blob)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(plaintext)
        del blob, plaintext  # freed before the next object is read
        print(f"opened {path} -> {target} (label {label})")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seeds < 0:
        raise PolicyError(f"--seeds must be 0 or more, got {args.seeds}")
    if args.base_seed < 0 or args.base_seed + max(args.seeds, 1) > 1 << 64:
        raise PolicyError("--base-seed and --seeds must keep every seed in [0, 2**64)")
    poset, users = _load_policy(args)
    report = oracles.run_suite(poset, users, seeds=args.seeds, base_seed=args.base_seed)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        for check in report.checks:
            if check.skipped:
                print(f"{check.name:<32} SKIP  (policy not examined: {report.skip_reason})")
                continue
            status = "PASS" if check.passed else "FAIL"
            line = f"{check.name:<32} {status}  ({check.instances} instances)"
            if not check.passed and check.counterexample:
                line += f"  counterexample: {check.counterexample}"
            print(line)
        if report.skip_reason:
            print(f"policy not examined: {report.skip_reason}")
        print(f"verification {'passed' if report.passed else 'FAILED'} "
              f"in {report.elapsed_seconds:.1f}s")
    return 0 if report.passed else 3


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treekeys", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("policy", help="policy document (JSON)")
    common.add_argument(
        "--root-label",
        default=VIRTUAL_ROOT,
        help="reserved label for the virtual root (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="print structural policy statistics")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build-tree", parents=[common], help="compute the derivation tree")
    p.add_argument("--arcs", choices=("covers", "closure"), default="covers",
                   help="candidate arc set (default: %(default)s)")
    p.add_argument("--min-leaves", action="store_true",
                   help="among minimum-cost trees, pick one with fewest leaves")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("keygen", parents=[common], help="generate keystore and bundles")
    p.add_argument("--tree", required=True, help="tree document from build-tree")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--seed", help=f"{kdf.KEY_BYTES * 2} hex chars; reproducible output")
    source.add_argument("--system-entropy", action="store_true",
                        help="draw the root secret from the OS")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("derive", parents=[common], help="derive an object key from a bundle")
    p.add_argument("--tree", required=True)
    p.add_argument("--bundle", required=True, help="the holder's bundle file")
    p.add_argument("target", help="label to derive the key for")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("compare", parents=[common], help="size up enforcement schemes")
    p.add_argument("--partition", help="chain partition document (default: computed)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    for name, handler in (("encrypt", cmd_encrypt), ("decrypt", cmd_decrypt)):
        p = sub.add_parser(name, parents=[common], help=f"{name} objects under label keys")
        p.add_argument("--tree", required=True)
        holder = p.add_mutually_exclusive_group(required=True)
        holder.add_argument("--keystore", help="full keystore (administrator)")
        holder.add_argument("--bundle", help="a holder's bundle; keys are derived")
        if name == "encrypt":
            p.add_argument("--manifest", required=True,
                           help='JSON: {"objects": [{"path": ..., "label": ...}]}')
        else:
            p.add_argument("sealed", nargs="+", help="sealed files to open")
            p.add_argument("--out-dir", help="write plaintexts here instead of in place")
        p.set_defaults(func=handler)

    p = sub.add_parser("verify", parents=[common], help="run the self-verification battery")
    p.add_argument("--seeds", type=int, default=25,
                   help="number of random instances (0 = policy checks only)")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"treekeys: error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except AuthorizationError as exc:
        print(f"treekeys: not authorized: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"treekeys: verification failed: {exc}", file=sys.stderr)
        return 3
    except PolicyError as exc:
        print(f"treekeys: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"treekeys: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        reason = str(exc) or "the input needs more than is available"
        print(f"treekeys: out of memory: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
