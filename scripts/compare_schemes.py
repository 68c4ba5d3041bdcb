#!/usr/bin/env python3
"""Key-count comparison across enforcement schemes on random policies.

For each random instance the script sizes the tree scheme (minimum-cost
derivation tree), the chain scheme (minimum chain partition), and the
three classic public-information schemes, then prints aggregate
statistics. The interesting headline is how often the tree scheme beats
the chain scheme on total keys, and by how much; the classic schemes win
on keys only by paying in public storage.
"""

import argparse
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treekeys import min_chain_partition, min_weight_out_tree, scheme_metrics
from treekeys.baselines import chain_metrics, classic_scheme_metrics
from treekeys.oracles import random_poset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=2000)
    parser.add_argument("--min-elements", type=int, default=4)
    parser.add_argument("--max-elements", type=int, default=10)
    parser.add_argument("--densities", type=float, nargs="+",
                        default=[0.15, 0.3, 0.5, 0.7])
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args()

    totals: dict[str, list[int]] = {k: [] for k in ("tree", "chain", "basic", "public_items")}
    outcomes: Counter[str] = Counter()
    worst_gap = (0, None)

    for i in range(args.instances):
        size = args.min_elements + i % (args.max_elements - args.min_elements + 1)
        density = args.densities[i % len(args.densities)]
        seed = args.base_seed + i
        poset = random_poset(size, density, seed)
        users = dict.fromkeys(poset.labels, 1)  # one user per label, none at a virtual root
        users[poset.root] = int(not poset.virtual_root)

        tree = min_weight_out_tree(poset, users)
        tree_m = scheme_metrics(poset, users, tree)
        chain_m = chain_metrics(poset, users, min_chain_partition(poset))
        classic = classic_scheme_metrics(poset, users)
        basic_m, direct_m = classic["basic"], classic["direct"]

        totals["tree"].append(tree_m.K_total)
        totals["chain"].append(chain_m.K_total)
        totals["basic"].append(basic_m.K_total)
        totals["public_items"].append(direct_m.p)

        if tree_m.K_total < chain_m.K_total:
            outcomes["tree wins"] += 1
        elif tree_m.K_total == chain_m.K_total:
            outcomes["tie"] += 1
        else:
            outcomes["chain wins"] += 1
        gap = chain_m.K_total - tree_m.K_total
        if gap > worst_gap[0]:
            worst_gap = (gap, f"element_count={size}, edge_density={density}, seed={seed}")

    n = args.instances
    print(f"instances: {n} (sizes {args.min_elements}-{args.max_elements}, "
          f"densities {args.densities})")
    print(f"mean keys   tree={statistics.mean(totals['tree']):.2f}  "
          f"chain={statistics.mean(totals['chain']):.2f}  "
          f"basic={statistics.mean(totals['basic']):.2f}")
    for outcome in ("tree wins", "tie", "chain wins"):
        print(f"{outcome:<11} {outcomes[outcome]:>6}  ({100 * outcomes[outcome] / n:.1f}%)")
    print(f"largest chain-vs-tree gap: {worst_gap[0]} keys  ({worst_gap[1]})")
    print(f"(direct scheme avoids extra keys but publishes "
          f"{statistics.mean(totals['public_items']):.1f} helper items on average; "
          f"tree and chain publish none)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
