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

from .allocation import KeyAllocation, SchemeMetrics, forest_start_points
from .errors import PolicyError
from .poset import ChainPartition, Poset


def chain_scheme_build(poset: Poset, partition: ChainPartition) -> KeyAllocation:
    """Start points for every label on the chain forest: each chain entry's
    parent is its predecessor in the chain, and chain heads have none. A
    down-set meets each chain in a suffix, so a label starts at the
    topmost entry of every chain its down-set touches. A partition of the
    policy's own labels gets the virtual root, if one was added, as a
    chain of its own."""
    if poset.virtual_root and not any(poset.root in chain for chain in partition.chains):
        partition = ChainPartition(chains=((poset.root,), *partition.chains))
    partition.validate_for(poset)
    above = {low: up for chain in partition.chains for up, low in zip(chain, chain[1:])}
    return KeyAllocation(phi=forest_start_points(poset, above))


def chain_metrics(
    poset: Poset, users: Mapping[str, int], partition: ChainPartition
) -> SchemeMetrics:
    """Size parameters of the chain scheme on ``partition`` (no public
    items, like the tree scheme). The root's down-set holds every chain
    whole, so the longest walk runs down the longest chain."""
    return SchemeMetrics.from_sizes(
        users,
        chain_scheme_build(poset, partition).sizes(),
        max(len(chain) for chain in partition.chains) - 1,
    )


def _longest_cover_path(poset: Poset) -> int:
    """Cover arcs on the longest downward path. Sorting by down-mask popcount
    puts children first; each label's height then flows up to its covers."""
    height = dict.fromkeys(poset.labels, 0)
    for i in sorted(range(len(poset.labels)), key=lambda i: poset.strict_down[i].bit_count()):
        for y in poset.members(poset.cover_up[i]):
            height[y] = max(height[y], height[poset.labels[i]] + 1)
    return max(height.values())


CLASSIC_SCHEMES = ("basic", "iterative", "direct")


def classic_scheme_metrics(poset: Poset, users: Mapping[str, int], scheme: str) -> SchemeMetrics:
    """Size parameters of the classic public-information constructions.

    basic hands every authorized key out directly: its start points on the
    empty forest are whole down-sets, counted by popcount. iterative
    publishes one helper item per cover arc and walks them; direct
    publishes one per strict-order pair and derives in a single step.
    K_total counts keys per label, K_hat weights by users.
    """
    if scheme == "basic":
        sizes = {x: mask.bit_count() + 1 for x, mask in zip(poset.labels, poset.strict_down)}
        return SchemeMetrics.from_sizes(users, sizes, d_max=0)
    one_key = dict.fromkeys(poset.labels, 1)
    if scheme == "iterative":
        p = sum(mask.bit_count() for mask in poset.cover_up)
        return SchemeMetrics.from_sizes(users, one_key, d_max=_longest_cover_path(poset), p=p)
    if scheme == "direct":
        return SchemeMetrics.from_sizes(users, one_key, d_max=1, p=poset.closure_size)
    raise PolicyError(f"unknown scheme {scheme!r}; expected one of {CLASSIC_SCHEMES}")
