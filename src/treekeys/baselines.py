"""Comparison schemes: chain-partition enforcement and the classic
public-information constructions.

The chain scheme splits the poset into disjoint chains and derives keys
down each one, so, like the tree scheme, it needs no public helper data;
holders get one key per chain their down-set touches. All baselines are
sized only (key counts, public items, derivation depth): they exist here
to quantify trade-offs, not to ship keys.
"""

from __future__ import annotations

from typing import Mapping

from .allocation import SchemeMetrics, forest_sizes, forest_start_points
from .poset import ChainPartition, Poset


def _chain_parents(poset: Poset, partition: ChainPartition) -> dict[str, str]:
    """Each entry's chain predecessor in a valid ``partition``, to which the
    virtual root, if one was added and is missing, joins as a chain of its own."""
    if poset.virtual_root and not any(poset.root in chain for chain in partition.chains):
        partition = ChainPartition(chains=((poset.root,), *partition.chains))
    partition.validate_for(poset)
    return {low: up for chain in partition.chains for up, low in zip(chain, chain[1:])}


def chain_scheme_build(poset: Poset, partition: ChainPartition) -> dict[str, tuple[str, ...]]:
    """Start points on the chain forest: a down-set meets each chain in a
    suffix, so a label starts at the top of each chain its down-set touches."""
    return forest_start_points(poset, _chain_parents(poset, partition))


def chain_metrics(
    poset: Poset, users: Mapping[str, int], partition: ChainPartition
) -> SchemeMetrics:
    """Size parameters of the chain scheme on ``partition`` (no public
    items, like the tree scheme). The root's down-set holds every chain
    whole, so the longest walk runs down the longest chain."""
    return SchemeMetrics.from_sizes(
        users,
        forest_sizes(poset, _chain_parents(poset, partition)),
        max(len(chain) for chain in partition.chains) - 1,
    )


def _longest_cover_path(poset: Poset) -> int:
    """Cover arcs on the longest downward path. Sorting by down-mask popcount
    puts children first; each label's height then flows up to its covers."""
    height = [0] * len(poset.labels)
    for i in sorted(range(len(height)), key=lambda i: poset.strict_down[i].bit_count()):
        for p in poset.covers[i]:
            height[p] = max(height[p], height[i] + 1)
    return max(height)


def classic_scheme_metrics(poset: Poset, users: Mapping[str, int]) -> dict[str, SchemeMetrics]:
    """Size parameters of the classic public-information constructions,
    keyed "basic", "iterative" and "direct" in that order.

    basic hands every authorized key out directly: its start points on the
    empty forest are whole down-sets, counted by popcount. iterative
    publishes one helper item per cover arc and walks them; direct
    publishes one per strict-order pair and derives in a single step.
    K_total counts keys per label, K_hat weights by users.
    """
    sizes = {x: mask.bit_count() + 1 for x, mask in zip(poset.labels, poset.strict_down)}
    one_key = dict.fromkeys(poset.labels, 1)
    covers = sum(map(len, poset.covers))
    return {
        "basic": SchemeMetrics.from_sizes(users, sizes, d_max=0),
        "iterative": SchemeMetrics.from_sizes(users, one_key, _longest_cover_path(poset), covers),
        "direct": SchemeMetrics.from_sizes(users, one_key, d_max=1, p=poset.closure_size),
    }
