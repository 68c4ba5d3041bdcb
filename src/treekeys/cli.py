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
import functools
import json
import os
import sys
import urllib.parse
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's string escaping
from pathlib import Path
from typing import Any, Callable, Mapping

from . import baselines, kdf, oracles, sealing
from .allocation import SchemeMetrics, canonical_allocation, forest_sizes, scheme_metrics
from .errors import AuthorizationError, PolicyError, VerificationError, check_fields
from .poset import ChainPartition, Poset, min_chain_partition, parse_policy, width
from .trees import (
    DerivationOutTree,
    min_leaf_out_tree,
    min_weight_out_tree,
    validate_tree,
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
    with path.open("w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_allocation(path: Path, allocation: Mapping[str, tuple[str, ...]]) -> None:
    """Write ``{"phi": allocation}`` as ``_write_json`` would, a label at a
    time, each label quoted once."""
    quoted = {x: _quote(x) for x in allocation}
    with path.open("w", encoding="utf-8") as handle:
        separator = '{\n  "phi": {'
        for x, points in sorted(allocation.items()):
            listed = ",\n      ".join(map(quoted.get, points))
            handle.write(f"{separator}\n    {quoted[x]}: [\n      {listed}\n    ]")
            separator = ","
        handle.write("\n  }\n}\n")


def _refuse_directory(path: Path) -> None:
    """Refuse, before anything is written, an output path that is a directory."""
    if path.is_dir():
        raise PolicyError(f"cannot write {path}: it is a directory")


def _load_policy(args: argparse.Namespace) -> tuple[Poset, dict[str, int]]:
    return parse_policy(_load_json(args.policy))


def _load_tree(poset: Poset, path: str) -> DerivationOutTree:
    tree = DerivationOutTree.from_json_dict(_load_json(path))
    validate_tree(poset, tree)
    return tree


#: What ``encrypt`` appends to each object's file name and ``decrypt`` removes.
SEALED_SUFFIX = ".sealed"


# -- subcommands ---------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    poset, _users = _load_policy(args)
    top = 1 << poset.index(poset.root) if poset.virtual_root else 0  # the maximal labels' up-mask
    info = {
        "elements": len(poset.labels),
        "cover_arcs": sum(map(len, poset.covers)),
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
    allocation = canonical_allocation(poset, tree)  # start points off the up-masks
    sizes = forest_sizes(poset, tree.parent)  # their counts off the down-masks
    for x, k in sizes.items():
        if len(allocation[x]) != k:
            raise VerificationError(f"label {x!r} has a start-point count of "
                                    f"{len(allocation[x])}, where the popcount gives {k}")
    metrics = SchemeMetrics.from_sizes(users, sizes, max(tree.depths().values()))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("tree.json", "allocation.json", "metrics.json"):
        _refuse_directory(out / name)
    _write_json(out / "tree.json", tree.to_json_dict())
    _write_allocation(out / "allocation.json", allocation)
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
    allocation = canonical_allocation(poset, tree)
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
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _refuse_directory(out / "keystore.json")
    limit = os.pathconf(out, "PC_NAME_MAX")  # the names are ASCII: a byte a character
    with os.scandir(out) as entries:  # one listing, not a stat per bundle
        directories = {entry.name for entry in entries if entry.is_dir()}
    names = {}
    for label in poset.labels:
        names[label] = name = f"sigma_{urllib.parse.quote(label, safe='')}.json"
        if len(name) > limit:
            raise PolicyError(f"label {label!r} needs a bundle file name over {limit} bytes")
        if name in directories:
            raise PolicyError(f"cannot write {out / name}: it is a directory")
    store = kdf.setup(tree, rng=rng)
    _write_json(out / "keystore.json", store.to_json_dict())
    # a bundle's text as _write_json gives it: its start points' lines, each made once
    lines = {z: f'{_quote(z)}: "{secret.hex()}"' for z, secret in store.secrets.items()}
    for label, name in names.items():
        secrets = ",\n    ".join(map(lines.get, allocation[label]))
        text = f'{{\n  "holder": {_quote(label)},\n  "secrets": {{\n    {secrets}\n  }}\n}}\n'
        (out / name).write_text(text, encoding="utf-8")
    print(f"wrote keystore.json and {len(names)} bundle files to {out}")
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
    rows = baselines.classic_scheme_metrics(poset, users)
    rows["chain"] = baselines.chain_metrics(poset, users, partition)
    rows["tree"] = scheme_metrics(poset, users, tree)
    if args.json:
        print(json.dumps({k: m.to_json_dict() for k, m in rows.items()}, sort_keys=True, indent=2))
        return 0
    print(f"{'scheme':<10} {'K':>6} {'K_hat':>6} {'k':>4} {'p':>5} {'d':>4}")
    for name, m in rows.items():
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
        if Path(path).name in ("", ".."):
            raise PolicyError(f"manifest path {path!r} names no file")
        _check_object_label(poset, label)
        entries.append((Path(path), label))
    return entries


def _key_source(
    args: argparse.Namespace, poset: Poset, tree: DerivationOutTree
) -> Callable[[str], bytes]:
    """Object keys by label: looked up in ``--keystore`` or derived from
    ``--bundle`` once per label, either file read once per command."""
    if args.keystore:
        store = kdf.SecretStore.from_json_dict(_load_json(args.keystore))
        if store.tree != tree:
            raise PolicyError(
                f"keystore {args.keystore} was made for a different tree than --tree"
            )
        return store.keys.__getitem__  # the store holds a key for every label of --tree
    bundle = kdf.SigmaBundle.from_json_dict(_load_json(args.bundle))
    return functools.cache(lambda label: kdf.derive(poset, tree, bundle, label))


def _refuse_targets(sources: list[Path], targets: list[Path]) -> None:
    """Refuse, before anything is written, two sources bound for one file,
    a target that is a source of the same command, its own included, and a
    target that is a directory."""
    inputs = {source.resolve(): source for source in sources}
    first: dict[Path, int] = {}
    for i, target in enumerate(targets):
        _refuse_directory(target)
        resolved = target.resolve()
        if resolved in inputs:
            raise PolicyError(f"the output of {sources[i]} would overwrite the input "
                              f"{inputs[resolved]}")
        if (j := first.setdefault(resolved, i)) != i:
            raise PolicyError(f"{sources[j]} and {sources[i]} would both be written to {target}")


def _read_object(path: Path, size: int = -1) -> bytes:
    """Up to ``size`` bytes of ``path``, all of it by default."""
    try:
        with path.open("rb") as handle:
            return handle.read(size)
    except OSError as exc:
        raise PolicyError(f"cannot read {path}: {exc.strerror or exc}") from exc


def cmd_encrypt(args: argparse.Namespace) -> int:
    poset, _users = _load_policy(args)
    tree = _load_tree(poset, args.tree)
    entries = _load_manifest(poset, args.manifest)
    targets = [path.with_name(path.name + SEALED_SUFFIX) for path, _ in entries]
    _refuse_targets([path for path, _ in entries], targets)
    object_key = _key_source(args, poset, tree)
    keys = {label: object_key(label) for _, label in entries}  # refused before any write
    for path, _ in entries:  # so is an object that cannot be opened
        _read_object(path, 0)
    for (path, label), target in zip(entries, targets):
        # no name holds the object, so it is freed before the next is read
        target.write_bytes(sealing.seal(keys[label], label, _read_object(path)))
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
    _refuse_targets(paths, targets)
    for path in paths:  # an operand that cannot be opened is refused before any write
        _read_object(path, 0)
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
    if hasattr(sys.stdout, "reconfigure"):  # print a label the stream cannot encode escaped
        sys.stdout.reconfigure(errors="backslashreplace")
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
