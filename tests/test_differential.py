"""Mid-scale differential checks against the literal references.

Tree enumeration stops at a handful of labels, but the set-builder
references in ``treekeys.oracles`` scale to a few hundred: seeded sparse
policies of that size compare the optimised reduction, allocation, arc
weights, derivation depths, chain scheme and derivation with them
directly, or with literal walks written out here. At 2000 labels the
cover arcs are compared with networkx, when it is installed.
"""

import random

import pytest

from treekeys import (
    AuthorizationError,
    KeyAllocation,
    canonical_allocation,
    chain_metrics,
    chain_scheme_build,
    derive,
    min_chain_partition,
    min_leaf_out_tree,
    min_weight_out_tree,
    parse_policy,
    scheme_metrics,
    seeded_bytes,
    setup,
    weight_function,
)
from treekeys.oracles import _literal_arc_weights, allocation_by_definition, brute_reduction

from conftest import sparse_policy_doc

POLICIES = [(200, 11), (250, 12), (300, 13)]


@pytest.fixture(scope="module", params=POLICIES, ids=lambda p: f"sparse-{p[0]}-{p[1]}")
def policy(request):
    n, seed = request.param
    return parse_policy(sparse_policy_doc(n, seed))


@pytest.fixture(scope="module")
def trees(policy):
    poset, users = policy
    return min_weight_out_tree(poset, users), min_leaf_out_tree(poset, users)


def test_covers_match_brute_reduction(policy):
    poset, _ = policy
    assert poset.covers == brute_reduction(poset.closure, poset.elements)


def test_covers_match_networkx_at_2000_labels():
    nx = pytest.importorskip("networkx")
    poset, _ = parse_policy(sparse_policy_doc(2000, 14))
    graph = nx.DiGraph(list(poset.closure))
    graph.add_nodes_from(poset.elements)
    assert set(nx.transitive_reduction(graph).edges) == poset.covers


def test_canonical_allocation_matches_definition(policy, trees):
    poset, _ = policy
    for tree in trees:
        assert canonical_allocation(poset, tree).phi == allocation_by_definition(poset, tree).phi


def _wasteful_allocation(poset, tree, rng):
    # canonical start points plus a random third of each down-set: still a
    # valid enforcement, but the root no longer starts only at itself
    phi = canonical_allocation(poset, tree).phi
    return KeyAllocation(
        {x: phi[x] | {u for u in sorted(poset.down_set(x)) if rng.random() < 1 / 3} for x in phi}
    )


def test_derivation_depth_matches_literal_walk(policy, trees):
    poset, users = policy
    rng = random.Random(len(poset.elements))
    for tree in trees:
        wasteful = _wasteful_allocation(poset, tree, rng)
        assert wasteful.phi[tree.root] != {tree.root}
        for allocation in (canonical_allocation(poset, tree), wasteful):
            longest = 0
            for x in poset.sorted_elements:
                for u in poset.down_set(x):
                    steps, v = 0, u
                    while v not in allocation.phi[x]:  # up the tree to a start point
                        v = tree.parent[v]
                        steps += 1
                    longest = max(longest, steps)
            assert scheme_metrics(poset, users, tree, allocation).d_max == longest


def test_chain_scheme_matches_literal_chain_scan(policy):
    poset, users = policy
    partition = min_chain_partition(poset)
    points, longest = {}, 0
    for x in poset.sorted_elements:
        down = poset.down_set(x)
        points[x] = set()
        for chain in partition.chains:
            touched = [i for i, label in enumerate(chain) if label in down]
            if touched:
                points[x].add(chain[touched[0]])
                longest = max(longest, touched[-1] - touched[0])
    scheme = chain_scheme_build(poset, partition)
    assert scheme.start_points == points
    assert chain_metrics(poset, users, scheme).d_max == longest


@pytest.mark.parametrize("arcs", ["covers", "closure"])
def test_weights_match_literal_definition(policy, arcs):
    poset, users = policy
    candidates = getattr(poset, arcs)
    expected = _literal_arc_weights(poset, users, candidates)
    assert dict(weight_function(poset, users, candidates).weights) == expected


def test_derive_fails_closed_on_every_pair():
    poset, users = parse_policy(sparse_policy_doc(*POLICIES[0]))
    tree = min_weight_out_tree(poset, users)
    store, bundles = setup(poset, tree, rng=seeded_bytes(b"differential"))
    authorized = refused = 0
    for holder in poset.sorted_elements:
        below = poset.down_set(holder)
        for target in poset.sorted_elements:
            if target in below:
                assert derive(poset, tree, bundles[holder], target) == store.keys[target]
                authorized += 1
            else:
                with pytest.raises(AuthorizationError):
                    derive(poset, tree, bundles[holder], target)
                refused += 1
    assert authorized == len(poset.elements) + len(poset.closure)
    assert refused == len(poset.elements) ** 2 - authorized
