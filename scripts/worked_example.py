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
    canonical_allocation,
    chain_metrics,
    chain_scheme_build,
    classic_scheme_metrics,
    derive,
    min_weight_out_tree,
    parse_policy,
    scheme_metrics,
    seeded_bytes,
    setup,
    weight_function,
    width,
)

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
    print(f"labels: {' '.join(poset.sorted_elements)}")
    print(f"cover arcs: {len(poset.covers)}   order pairs: {len(poset.closure)}   "
          f"width: {width(poset)}   top: {poset.root}")

    wf = weight_function(poset, users, poset.covers)
    print("\narc costs (users stranded if the arc is the only way in):")
    for (y, z), cost in sorted(wf.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        print(f"  {y} -> {z}: {cost}")

    tree = min_weight_out_tree(poset, users)
    print(f"\nminimum-cost tree (total {sum(wf[a] for a in tree.arcs())}):")
    for parent, child in tree.arcs():
        print(f"  {parent} -> {child}")

    allocation = canonical_allocation(poset, tree)
    print("\nstart points per label:")
    for label in poset.sorted_elements:
        print(f"  {label}: {{{', '.join(sorted(allocation.phi[label]))}}}")
    metrics = scheme_metrics(poset, users, tree)
    print(f"\ntotals: K_total={metrics.K_total} K_hat={metrics.K_hat} "
          f"k_max={metrics.k_max} d_max={metrics.d_max} public items={metrics.p}")

    store, bundles = setup(poset, tree, rng=seeded_bytes(b"worked example"))
    print("\nkeystore (reproducible seed), first bytes of each key:")
    for label in poset.sorted_elements:
        print(f"  k({label}) = {store.keys[label].hex()[:16]}…")
    got = derive(poset, tree, bundles["f"], "a")
    print(f"\nholder at f derives k(a): {got.hex()[:16]}… "
          f"(matches keystore: {got == store.keys['a']})")

    print("\nscheme comparison (same policy):")
    chain = chain_scheme_build(poset, PARTITION)
    rows = {
        "basic": classic_scheme_metrics(poset, users, "basic"),
        "iterative": classic_scheme_metrics(poset, users, "iterative"),
        "direct": classic_scheme_metrics(poset, users, "direct"),
        "chain": chain_metrics(poset, users, chain),
        "tree": metrics,
    }
    print(f"  {'scheme':<10} {'K':>4} {'k':>3} {'p':>4} {'d':>3}")
    for name, m in rows.items():
        print(f"  {name:<10} {m.K_total:>4} {m.k_max:>3} {m.p:>4} {m.d_max:>3}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
