#!/usr/bin/env python3
"""End-to-end walkthrough on an 8-label sample hierarchy.

Prints every intermediate object: structure, arc costs, the chosen
derivation tree, start points, metrics, a reproducible keystore, a few
derivations, and the comparison against baseline schemes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treekeys import (
    ChainPartition,
    SigmaBundle,
    canonical_allocation,
    derive,
    min_weight_out_tree,
    parse_policy,
    scheme_metrics,
    seeded_bytes,
    setup,
    weight_function,
    width,
)
from treekeys.baselines import chain_metrics, classic_scheme_metrics
from treekeys.oracles import closure, covers

POLICY = {
    "elements": list("abcdefgh"),
    "arcs": [
        ["b", "a"], ["c", "a"], ["d", "b"], ["d", "c"], ["e", "c"],
        ["f", "d"], ["g", "d"], ["g", "e"], ["h", "f"], ["h", "g"],
    ],
}

PARTITION = ChainPartition(chains=(("h", "g", "e", "c", "a"), ("f", "d", "b")))


def main() -> int:
    poset, users = parse_policy(POLICY)
    print(f"labels: {' '.join(poset.labels)}")
    cover_pairs = covers(poset)
    print(f"cover arcs: {len(cover_pairs)}   order pairs: {len(closure(poset))}   "
          f"width: {width(poset)}   top: {poset.root}")

    wf = weight_function(poset, users, cover_pairs)
    print("\narc costs (users stranded if the arc is the only way in):")
    for (y, z), cost in sorted(wf.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        print(f"  {y} -> {z}: {cost}")

    tree = min_weight_out_tree(poset, users)
    print(f"\nminimum-cost tree (total {sum(wf[a] for a in tree.arcs())}):")
    for parent, child in tree.arcs():
        print(f"  {parent} -> {child}")

    allocation = canonical_allocation(poset, tree)
    print("\nstart points per label:")
    for label in poset.labels:
        print(f"  {label}: {{{', '.join(allocation[label])}}}")
    metrics = scheme_metrics(poset, users, tree)
    print(f"\ntotals: K_total={metrics.K_total} K_hat={metrics.K_hat} "
          f"k_max={metrics.k_max} d_max={metrics.d_max} public items={metrics.p}")

    store = setup(tree, rng=seeded_bytes(b"worked example"))
    print("\nkeystore (reproducible seed), first bytes of each key:")
    for label in poset.labels:
        print(f"  k({label}) = {store.keys[label].hex()[:16]}…")
    bundle = SigmaBundle("f", {z: store.secrets[z] for z in allocation["f"]})
    got = derive(poset, tree, bundle, "a")
    print(f"\nholder at f derives k(a): {got.hex()[:16]}… "
          f"(matches keystore: {got == store.keys['a']})")

    print("\nscheme comparison (same policy):")
    rows = classic_scheme_metrics(poset, users)
    rows["chain"] = chain_metrics(poset, users, PARTITION)
    rows["tree"] = metrics
    print(f"  {'scheme':<10} {'K':>4} {'k':>3} {'p':>4} {'d':>3}")
    for name, m in rows.items():
        print(f"  {name:<10} {m.K_total:>4} {m.k_max:>3} {m.p:>4} {m.d_max:>3}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
