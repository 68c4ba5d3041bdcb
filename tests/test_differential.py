"""Mid-scale differential checks against the literal references.

Tree enumeration stops at a handful of labels, but the set-builder
references in ``treekeys.oracles`` scale to a few hundred: seeded sparse
policies of that size compare the optimised allocation, arc weights and
derivation with them directly.
"""

import pytest

from treekeys import (
    AuthorizationError,
    canonical_allocation,
    derive,
    min_leaf_out_tree,
    min_weight_out_tree,
    parse_policy,
    seeded_bytes,
    setup,
    weight_function,
)
from treekeys.oracles import _literal_arc_weights, allocation_by_definition

from conftest import sparse_policy_doc

POLICIES = [(200, 11), (250, 12), (300, 13)]


@pytest.fixture(scope="module", params=POLICIES, ids=lambda p: f"sparse-{p[0]}-{p[1]}")
def policy(request):
    n, seed = request.param
    return parse_policy(sparse_policy_doc(n, seed))


def test_canonical_allocation_matches_definition(policy):
    poset, users = policy
    for tree in (min_weight_out_tree(poset, users), min_leaf_out_tree(poset, users)):
        assert canonical_allocation(poset, tree).phi == allocation_by_definition(poset, tree).phi


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
