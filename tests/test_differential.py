"""Mid-scale differential checks against the literal references.

Tree enumeration stops at a handful of labels, but the set-builder
references in ``treekeys.oracles`` scale to a few hundred: seeded sparse
policies of that size compare the optimised reduction, allocation, arc
weights, derivation depths, chain scheme and derivation with them
directly, or with literal walks written out here. The min-leaf tree is
compared whole with the re-matching greedy, and the cheapest parents
over the whole order with the literal arc weights, on those policies, on
a 256-label MLS lattice and on small random ones, and the min-leaf
tree also on the Boolean lattice 2^8. The first three check the
paper's comparison with chain-based schemes: the tree scheme never needs
more keys. When networkx is installed, it checks five results at
scales enumeration cannot reach: the closure and covers at 2000 labels, the
minimum chain partition (disjoint chains that cover the labels and step
down, as many as the width by maximum matching, up to a 40x40 grid),
the cost of the cheapest tree (by Edmonds' minimum
arborescence over the literal arc weights) and the min-leaf tree's
parents (each a cheapest one, as many as a maximum matching of the
literal cheapest-parent table).

The mask Hopcroft-Karp is compared pair by pair with the oracle's list
version on everything the product matches: the strict orders and both
cheapest-parent tables of 3,000 random posets, the benchmark's pool
policies, two lattices and a chain.

The mask normalisation of ``Poset.from_arcs`` is compared with the
set-based composition (closure, root, reduction) on those policies, the
lattice, a deep chain, a rootless antichain and random generator sets,
errors included; its cover tuples are compared as they are stored, and
repeating and permuting the arcs leaves the poset equal.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treekeys import (
    VIRTUAL_ROOT,
    AuthorizationError,
    ChainPartition,
    DerivationOutTree,
    SchemeMetrics,
    PolicyError,
    Poset,
    canonical_allocation,
    oracles,
    derive,
    min_chain_partition,
    min_leaf_out_tree,
    min_weight_out_tree,
    parse_policy,
    scheme_metrics,
    seeded_bytes,
    setup,
    ensure_root,
    transitive_closure,
    transitive_reduction,
    weight_function,
    width,
)
from treekeys.allocation import forest_sizes
from treekeys.baselines import chain_metrics, chain_scheme_build
from treekeys.matching import augment, max_bipartite_matching
from treekeys.oracles import (
    _in_arc_lists,
    _literal_arc_weights,
    allocation_by_definition,
    brute_min_weight,
    brute_reduction,
    charged_sets,
    closure,
    covers,
    list_bipartite_matching,
    random_poset,
    random_users,
    rematching_min_leaf_tree,
)
from treekeys.trees import _cheapest_parents

from conftest import bundles_of, load_perfbench, mls_policy_doc, sparse_policy_doc

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
    assert covers(poset) == brute_reduction(closure(poset), poset.labels)


def test_covers_match_networkx_at_2000_labels():
    nx = pytest.importorskip("networkx")
    document = sparse_policy_doc(2000, 14)
    poset, _ = parse_policy(document)
    input_arcs = nx.DiGraph(document["arcs"])
    if poset.virtual_root:
        input_arcs.add_edges_from((poset.root, x) for x in document["elements"])
    assert set(nx.transitive_closure_dag(input_arcs).edges) == closure(poset)
    graph = nx.DiGraph(list(closure(poset)))
    graph.add_nodes_from(poset.labels)
    assert set(nx.transitive_reduction(graph).edges) == covers(poset)


def _boolean_lattice(k):
    labels = [f"b{s:0{k}b}" for s in range(1 << k)]
    arcs = [
        (labels[s], labels[s & ~(1 << i)]) for s in range(1 << k) for i in range(k) if s >> i & 1
    ]
    return {"elements": labels, "arcs": arcs}


NETWORKX_ORDERS = {
    "sparse-200": lambda: sparse_policy_doc(200, 11),
    "sparse-300": lambda: sparse_policy_doc(300, 13),
    "sparse-600": lambda: sparse_policy_doc(600, 16),
    "sparse-1000": lambda: sparse_policy_doc(1000, 15),
    "mls-256": lambda: mls_policy_doc(1),
    "sparse-2000": lambda: sparse_policy_doc(2000, 14),
    "chain-200": lambda: dict(zip(("elements", "arcs"), _chain(200))),
    # 1000, not 2000: the 2000-chain's 2.0 M strict pairs take networkx's
    # graph about 750 MiB, and its recursive search past the recursion limit
    "chain-1000": lambda: dict(zip(("elements", "arcs"), _chain(1000))),
    "lattice-2^8": lambda: _boolean_lattice(8),
    "lattice-2^10": lambda: _boolean_lattice(10),
    "grid-40x40": lambda: _grid(40),
}


@pytest.mark.parametrize("name", [
    "sparse-300", "sparse-1000", "sparse-2000", "mls-256", "chain-200", "chain-1000",
    "lattice-2^8", "lattice-2^10", "grid-40x40",
])
def test_chain_partition_matches_networkx_width(name):
    # a Dilworth certificate: the chains partition the labels and each
    # steps strictly down, and (Fulkerson) no partition has fewer than
    # n - |M| chains, M a maximum matching of the strict order's split graph
    nx = pytest.importorskip("networkx")
    poset, _ = parse_policy(NETWORKX_ORDERS[name]())
    partition = min_chain_partition(poset)
    listed = [x for chain in partition.chains for x in chain]
    assert len(listed) == len(set(listed)) and set(listed) == set(poset.labels)
    pairs = closure(poset)
    assert all(step in pairs for chain in partition.chains for step in zip(chain, chain[1:]))
    n, index = len(poset.labels), poset.positions
    split = nx.Graph()
    split.add_nodes_from(range(n))  # label i as an upper end; n + i is it as a lower end
    split.add_edges_from((index[x], n + index[y]) for x, y in pairs)
    matched = len(nx.bipartite.hopcroft_karp_matching(split, top_nodes=range(n))) // 2
    assert len(partition.chains) == n - matched


@pytest.mark.parametrize(
    "name, arcs",
    [
        ("sparse-200", "covers"),
        ("sparse-600", "covers"),
        ("mls-256", "covers"),
        ("sparse-200", "closure"),
    ],
)
def test_tree_cost_matches_networkx_arborescence(name, arcs):
    # Edmonds' minimum arborescence over the literal extra-key weights is
    # the cheapest tree; every tree spans from the root, which no arc enters
    nx = pytest.importorskip("networkx")
    poset, users = parse_policy(NETWORKX_ORDERS[name]())
    weights = _literal_arc_weights(users, charged_sets(poset, getattr(oracles, arcs)(poset)))
    graph = nx.DiGraph()
    graph.add_weighted_edges_from((y, z, w) for (y, z), w in weights.items())
    cost = nx.minimum_spanning_arborescence(graph).size(weight="weight")
    for build in (min_weight_out_tree, min_leaf_out_tree):
        tree = build(poset, users, closure=arcs == "closure")
        assert sum(weights[arc] for arc in tree.arcs()) == cost
        assert scheme_metrics(poset, users, tree).K_hat == cost + users[poset.root]


@pytest.mark.parametrize("arcs", ["covers", "closure"])
@pytest.mark.parametrize(
    "document", [lambda: sparse_policy_doc(2000, 14), lambda: _boolean_lattice(10)],
    ids=["sparse-2000", "lattice-2^10"],
)
def test_min_leaf_tree_matches_networkx_matching(document, arcs):
    # a minimum-cost tree gives each label a cheapest parent, and it has
    # fewest leaves when it uses the most distinct parents: a maximum
    # matching of each label to its cheapest parents, by the literal
    # cost M(z) - M(y), with M(x) the users at or above x
    nx = pytest.importorskip("networkx")
    poset, users = parse_policy(document())
    order = nx.DiGraph(list(covers(poset)))
    order.add_nodes_from(poset.labels)
    above = {z: nx.ancestors(order, z) for z in poset.labels}
    M = {z: users[z] + sum(users[y] for y in above[z]) for z in poset.labels}
    cheapest = {}
    for z in poset.labels:
        candidates = above[z] if arcs == "closure" else set(order.predecessors(z))
        if candidates:
            least = min(M[z] - M[y] for y in candidates)
            cheapest[z] = {y for y in candidates if M[z] - M[y] == least}
    table = nx.Graph(((z, "child"), (y, "parent")) for z, ys in cheapest.items() for y in ys)
    children = [(z, "child") for z in cheapest]
    matched = len(nx.bipartite.hopcroft_karp_matching(table, top_nodes=children)) // 2
    tree = min_leaf_out_tree(poset, users, closure=arcs == "closure")
    assert all(y in cheapest[z] for z, y in tree.parent.items())
    assert len(set(tree.parent.values())) == matched


def test_canonical_allocation_matches_definition(policy, trees):
    poset, _ = policy
    for tree in trees:
        literal = allocation_by_definition(poset, tree, charged_sets(poset, tree.arcs()))
        assert canonical_allocation(poset, tree) == literal


def test_derivation_depth_matches_literal_walk(policy, trees):
    poset, users = policy
    for tree in trees:
        phi = canonical_allocation(poset, tree)
        longest = 0
        for x in poset.labels:
            for u in poset.down_set(x):
                steps, v = 0, u
                while v not in phi[x]:  # up the tree to a start point
                    v = tree.parent[v]
                    steps += 1
                longest = max(longest, steps)
        assert scheme_metrics(poset, users, tree).d_max == longest


def test_depths_match_literal_parent_walk(policy, trees):
    poset, _ = policy
    for tree in trees:
        literal = {}
        for x in poset.labels:
            steps, v = 0, x
            while v != tree.root:
                v = tree.parent[v]
                steps += 1
            literal[x] = steps
        depths = tree.depths()
        assert depths == literal
        position = {v: i for i, v in enumerate(depths)}  # root first, parents first
        assert all(position[p] < position[c] for c, p in tree.parent.items())


def test_chain_scheme_matches_literal_chain_scan(policy):
    poset, users = policy
    partition = min_chain_partition(poset)
    points, longest = {}, 0
    for x in poset.labels:
        down = poset.down_set(x)
        points[x] = set()
        for chain in partition.chains:
            touched = [i for i, label in enumerate(chain) if label in down]
            if touched:
                points[x].add(chain[touched[0]])
                longest = max(longest, touched[-1] - touched[0])
    in_label_order = {x: tuple(sorted(p)) for x, p in points.items()}
    assert chain_scheme_build(poset, partition) == in_label_order
    assert chain_metrics(poset, users, partition).d_max == longest


def _grid(n):
    label = "g{:02d}.{:02d}".format
    arcs = [(label(i, j), label(i - 1, j)) for i in range(1, n) for j in range(n)]
    arcs += [(label(i, j), label(i, j - 1)) for i in range(n) for j in range(1, n)]
    return {"elements": [label(i, j) for i in range(n) for j in range(n)], "arcs": arcs}


POPCOUNT_ORDERS = {
    "sparse-2000": lambda: sparse_policy_doc(2000, 14),
    "lattice-2^8": lambda: _boolean_lattice(8),
    "grid-20x20": lambda: _grid(20),
    "chain-500": lambda: dict(zip(("elements", "arcs"), _chain(500))),
}


def assert_popcount_sizes_equal_the_allocations(poset, users, partition):
    """``forest_sizes`` counts each label's start points without listing
    them: it must give the sizes of the listed allocations, on the
    cheapest tree, the min-leaf tree and the chain forest of ``partition``,
    and ``scheme_metrics`` and ``chain_metrics`` must agree with those."""
    for tree in (min_weight_out_tree(poset, users), min_leaf_out_tree(poset, users)):
        sizes = {x: len(points) for x, points in canonical_allocation(poset, tree).items()}
        assert forest_sizes(poset, tree.parent) == sizes
        depth = max(tree.depths().values())
        assert scheme_metrics(poset, users, tree) == SchemeMetrics.from_sizes(users, sizes, depth)
    sizes = {x: len(points) for x, points in chain_scheme_build(poset, partition).items()}
    chains = [(poset.root,)] if poset.root not in sum(partition.chains, ()) else []
    chains += partition.chains
    parent = {low: up for chain in chains for up, low in zip(chain, chain[1:])}
    assert forest_sizes(poset, parent) == sizes
    longest = max(len(chain) for chain in partition.chains) - 1
    assert chain_metrics(poset, users, partition) == SchemeMetrics.from_sizes(users, sizes, longest)


@pytest.mark.parametrize("name", sorted(POPCOUNT_ORDERS))
def test_popcount_sizes_equal_the_allocations(name):
    poset, users = parse_policy(POPCOUNT_ORDERS[name]())
    assert_popcount_sizes_equal_the_allocations(poset, users, min_chain_partition(poset))


def test_popcount_sizes_equal_the_allocations_on_chains_without_the_virtual_root():
    # four 125-label chains side by side: the partition lists them and
    # leaves the virtual root above them out, as a --partition file may
    chains = [tuple(f"c{k}.{i:03d}" for i in range(125)) for k in range(4)]
    arcs = [(up, low) for chain in chains for up, low in zip(chain, chain[1:])]
    poset, users = parse_policy({"elements": sum(map(list, chains), []), "arcs": arcs})
    assert poset.virtual_root
    assert_popcount_sizes_equal_the_allocations(poset, users, ChainPartition(tuple(chains)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_popcount_sizes_equal_the_allocations_on_random_posets(n, density, seed):
    poset = oracles.random_poset(n, density, seed)
    users = oracles.random_users(poset, seed)
    assert_popcount_sizes_equal_the_allocations(poset, users, min_chain_partition(poset))


def hung_tree(poset, partition):
    """The chain forest made a tree: each chain entry under its chain
    predecessor, and every chain head but the root under the root."""
    parent = {low: up for chain in partition.chains for up, low in zip(chain, chain[1:])}
    parent.update((chain[0], poset.root) for chain in partition.chains if chain[0] != poset.root)
    return DerivationOutTree(root=poset.root, parent=parent)


def assert_tree_scheme_needs_no_more_keys_than_chains(poset, users):
    """The hung tree hands each label a subset of its chain start points
    (only the root does better, starting at itself instead of at every
    chain head), and the cheapest tree needs no more keys than it."""
    partition = min_chain_partition(poset)
    chain = chain_scheme_build(poset, partition)
    hung = hung_tree(poset, partition)
    phi = canonical_allocation(poset, hung)
    assert all(set(phi[x]) <= set(chain[x]) for x in poset.labels)
    cheapest = scheme_metrics(poset, users, min_weight_out_tree(poset, users)).K_hat
    hung_k_hat = scheme_metrics(poset, users, hung).K_hat
    assert cheapest <= hung_k_hat <= chain_metrics(poset, users, partition).K_hat


def test_tree_scheme_needs_no_more_keys_than_chains(policy):
    assert_tree_scheme_needs_no_more_keys_than_chains(*policy)


def test_tree_scheme_needs_no_more_keys_than_chains_on_mls_lattice():
    assert_tree_scheme_needs_no_more_keys_than_chains(*parse_policy(mls_policy_doc(1)))


@settings(max_examples=100, deadline=None)
@given(
    element_count=st.integers(1, 12),
    edge_density=st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_scheme_needs_no_more_keys_than_chains_on_small_policies(
    element_count, edge_density, seed
):
    poset = random_poset(element_count, edge_density, seed)
    assert_tree_scheme_needs_no_more_keys_than_chains(poset, random_users(poset, seed + 1))


@pytest.mark.parametrize("arcs", ["covers", "closure"])
def test_weights_match_literal_definition(policy, arcs):
    poset, users = policy
    candidates = getattr(oracles, arcs)(poset)
    expected = _literal_arc_weights(users, charged_sets(poset, candidates))
    assert weight_function(poset, users, candidates) == expected


@pytest.mark.parametrize("arcs", ["covers", "closure"])
def test_min_leaf_tree_matches_rematching_greedy(policy, arcs):
    poset, users = policy
    expected = rematching_min_leaf_tree(poset, users, getattr(oracles, arcs)(poset))
    assert min_leaf_out_tree(poset, users, closure=arcs == "closure") == expected


@pytest.mark.parametrize("arcs", ["covers", "closure"])
def test_min_leaf_tree_matches_rematching_greedy_on_mls_lattice(arcs):
    poset, users = parse_policy(mls_policy_doc(1))
    assert len(poset.labels) == 256
    expected = rematching_min_leaf_tree(poset, users, getattr(oracles, arcs)(poset))
    assert min_leaf_out_tree(poset, users, closure=arcs == "closure") == expected


@pytest.mark.parametrize("arcs", ["covers", "closure"])
def test_min_leaf_tree_matches_rematching_greedy_on_boolean_lattice(arcs):
    # one user per label ties every cover, so the greedy repairs the most;
    # 2^10 takes the oracle 35 s over the closure and is left to its golden digest
    document = _boolean_lattice(8)
    poset, users = parse_policy({**document, "users": dict.fromkeys(document["elements"], 1)})
    expected = rematching_min_leaf_tree(poset, users, getattr(oracles, arcs)(poset))
    assert min_leaf_out_tree(poset, users, closure=arcs == "closure") == expected


@settings(max_examples=100, deadline=None)
@given(
    element_count=st.integers(1, 12),
    edge_density=st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.8]),
    seed=st.integers(0, 2**32 - 1),
    arcs=st.sampled_from(["covers", "closure"]),
)
def test_min_leaf_tree_matches_rematching_greedy_on_small_policies(
    element_count, edge_density, seed, arcs
):
    poset = random_poset(element_count, edge_density, seed)
    users = random_users(poset, seed + 1)
    expected = rematching_min_leaf_tree(poset, users, getattr(oracles, arcs)(poset))
    assert min_leaf_out_tree(poset, users, closure=arcs == "closure") == expected


def _two_layers(edges):
    """A policy whose cheapest-parent table is ``edges``.

    Each parent sits above exactly the children that list it, and nobody
    holds a label, so every cover costs 0 and the covers are the table.
    """
    labels = sorted(set(edges) | {p for ps in edges.values() for p in ps})
    poset = Poset.from_arcs(labels, [(p, c) for c, ps in edges.items() for p in ps])
    users = {}
    table = _cheapest_parents(poset, users)
    assert all(poset.members(table[poset.index(c)]) == sorted(ps) for c, ps in edges.items())
    return poset, users


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([f"c{i}" for i in range(7)]),
        st.lists(st.sampled_from([f"p{i}" for i in range(7)]), min_size=1, max_size=4, unique=True),
        min_size=1,
    )
)
# the matching is repaired only by a path from the label that loses the parent
@example({"c0": ["p1", "p5"], "c1": ["p1", "p3", "p4"], "c2": ["p3"]})
# ... and only by a path to the parent the fixed label gives up
@example({"c0": ["p0", "p1"], "c1": ["p0", "p2"], "c2": ["p2"], "c3": ["p0"]})
# a rejected candidate must give its parent back to the label it took it from
@example({"c0": ["p0", "p2"], "c1": ["p0", "p1"], "c2": ["p0"]})
# c3 asks whether the matching is whole again once, not once per failing candidate
@example(
    {
        "c0": ["p2", "p5"],
        "c1": ["p6"],
        "c2": ["p0", "p1", "p4"],
        "c3": ["p0", "p1", "p3", "p5"],
        "c4": ["p3", "p4", "p6"],
        "c5": ["p1", "p2", "p4", "p6"],
        "c6": ["p0", "p3", "p4"],
    }
)
def test_min_leaf_tree_matches_rematching_greedy_on_any_table(edges):
    poset, users = _two_layers(edges)
    backward = []  # for each search back from a freed parent, the labels fixed by then

    def counted(adjacency, mate, partner, start, blocked):
        if not adjacency.keys() & edges.keys():  # parent -> labels: a backward search
            backward.append(len(blocked))  # it blocks the fixed labels, the asking one last
        return augment(adjacency, mate, partner, start, blocked)

    with mock.patch("treekeys.trees.augment", counted):
        tree = min_leaf_out_tree(poset, users)
    assert tree == rematching_min_leaf_tree(poset, users, covers(poset))
    assert len(backward) == len(set(backward))  # at most one backward search per label


def assert_closure_table_matches_literal_weights(poset, users):
    closure_pairs = closure(poset)
    weights = _literal_arc_weights(users, charged_sets(poset, closure_pairs))
    expected = {}
    for child, parents in _in_arc_lists(poset, closure_pairs).items():
        least = min(weights[(p, child)] for p in parents)
        expected[child] = [p for p in parents if weights[(p, child)] == least]
    masks = _cheapest_parents(poset, users, closure=True)
    assert {x: poset.members(mask) for x, mask in zip(poset.labels, masks) if mask} == expected
    assert masks[poset.index(poset.root)] == 0


def test_closure_table_matches_literal_weights(policy):
    assert_closure_table_matches_literal_weights(*policy)


def test_closure_table_matches_literal_weights_on_mls_lattice():
    assert_closure_table_matches_literal_weights(*parse_policy(mls_policy_doc(1)))


@settings(max_examples=100, deadline=None)
@given(
    element_count=st.integers(1, 12),
    edge_density=st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.8]),
    seed=st.integers(0, 2**32 - 1),
    most_users=st.sampled_from([0, 1, 3]),
)
def test_closure_table_matches_literal_weights_on_small_policies(
    element_count, edge_density, seed, most_users
):
    # few users per label, so many labels hold none and parents tie
    poset = random_poset(element_count, edge_density, seed)
    users = random_users(poset, seed + 1, high=most_users)
    assert_closure_table_matches_literal_weights(poset, users)


def test_virtual_root_sorting_first():
    # the virtual root "⊤" sorts, and so is indexed, before every label that
    # it prefixes, and it ties as a closure parent wherever no label above
    # holds users
    doc = {
        "elements": ["⊤a", "⊤b", "⊤c", "⊤d", "⊤e", "⊤f"],
        "arcs": [["⊤a", "⊤c"], ["⊤b", "⊤c"], ["⊤b", "⊤d"], ["⊤c", "⊤e"], ["⊤d", "⊤f"]],
        "users": {"⊤a": 1, "⊤c": 2},
    }
    poset, users = parse_policy(doc)
    assert poset.labels[0] == "⊤"
    order = poset.labels
    successor = list_bipartite_matching({x: sorted(poset.down_set(x) - {x}) for x in order})
    chains = []
    for head in (x for x in order if x not in successor.values()):
        chain = [head]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(tuple(chain))
    assert min_chain_partition(poset) == ChainPartition(chains=tuple(chains))

    f_parents = _cheapest_parents(poset, users, closure=True)[poset.index("⊤f")]
    assert poset.members(f_parents) == ["⊤", "⊤b", "⊤d"]
    best, _ = brute_min_weight(poset, users, charged_sets(poset, closure(poset)))
    weights = weight_function(poset, users, closure(poset))
    for build in (min_weight_out_tree, min_leaf_out_tree):
        tree = build(poset, users, closure=True)
        assert sum(weights[arc] for arc in tree.arcs()) == best
    expected = rematching_min_leaf_tree(poset, users, closure(poset))
    assert min_leaf_out_tree(poset, users, closure=True) == expected


def test_derive_fails_closed_on_every_pair():
    poset, users = parse_policy(sparse_policy_doc(*POLICIES[0]))
    tree = min_weight_out_tree(poset, users)
    store = setup(tree, rng=seeded_bytes(b"differential"))
    bundles = bundles_of(poset, tree, store)
    authorized = refused = 0
    for holder in poset.labels:
        below = poset.down_set(holder)
        for target in poset.labels:
            if target in below:
                assert derive(poset, tree, bundles[holder], target) == store.keys[target]
                authorized += 1
            else:
                with pytest.raises(AuthorizationError):
                    derive(poset, tree, bundles[holder], target)
                refused += 1
    assert authorized == len(poset.labels) + len(closure(poset))
    assert refused == len(poset.labels) ** 2 - authorized


# -- the mask matching against the oracle's list matching ---------------------


def bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def matching_inputs(poset, users):
    """What the product matches: the strict down-masks, for the chain
    partition, and the cheapest-parent masks over both arc sets, for the
    min-leaf tree."""
    return [poset.strict_down] + [_cheapest_parents(poset, users, closure=c) for c in (False, True)]


def assert_mask_matching_matches_list_matching(adjacency):
    """The mask kernel picks, pair by pair, what the oracle's list kernel
    picks from each left's rights listed lowest first, lefts in index order."""
    expected = list_bipartite_matching({u: bits(mask) for u, mask in enumerate(adjacency)})
    assert max_bipartite_matching(adjacency) == expected


def test_mask_matching_matches_list_matching_on_random_posets():
    # 3,000 seeded posets of 1-12 labels; few users, so cheapest parents tie
    for seed in range(3000):
        rng = random.Random(seed)
        poset = random_poset(rng.randint(1, 12), rng.choice([0.1, 0.25, 0.4, 0.6, 0.8]), seed)
        users = random_users(poset, seed + 1, high=rng.choice([0, 1, 3]))
        for adjacency in matching_inputs(poset, users):
            assert_mask_matching_matches_list_matching(adjacency)


@pytest.mark.parametrize("pool", range(load_perfbench("inputs").SPARSE_POOL))
def test_mask_matching_matches_list_matching_on_the_benchmark_pool(pool):
    poset, users = parse_policy(load_perfbench("inputs").sparse_policy(pool))
    for adjacency in matching_inputs(poset, users):
        assert_mask_matching_matches_list_matching(adjacency)


@pytest.mark.parametrize("name", ["mls-256", "lattice-2^8", "chain-200"])
def test_mask_matching_matches_list_matching_on_lattices_and_chains(name):
    poset, users = parse_policy(NETWORKX_ORDERS[name]())
    for adjacency in matching_inputs(poset, users):
        assert_mask_matching_matches_list_matching(adjacency)


def test_parse_policy_keeps_no_wide_cover_masks():
    # a sparse 2,000-label order has about 4,000 covers: kept as full-width
    # masks, with a set per label and a copy of every arc while parsing, they
    # peaked at 2.56 MiB on Python 3.11; as index tuples, at 1.39 MiB
    document = sparse_policy_doc(2000, 2)
    tracemalloc.start()
    try:
        parse_policy(document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("measure", [min_chain_partition, width], ids=lambda f: f.__name__)
def test_chain_partition_decodes_no_order(measure):
    # the 3,000-chain has 4.5 M strict pairs: listed as labels for the
    # matching, they alone would take tens of MiB
    poset, _ = parse_policy(dict(zip(("elements", "arcs"), _chain(3000))))
    tracemalloc.start()
    try:
        measure(poset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -- mask normalisation against the set-based composition ---------------------


def _outcome(build):
    """What ``build()`` returns, or the type and message of the PolicyError it raises."""
    try:
        return build()
    except PolicyError as exc:
        return type(exc), str(exc)


def _set_based_forms(elements, arcs):
    elems, closure, root, added = ensure_root(
        frozenset(elements), transitive_closure(arcs, elements)
    )
    index = {x: i for i, x in enumerate(sorted(elems))}
    parents = [[] for _ in index]  # the covers as ascending index tuples
    for x, y in transitive_reduction(closure, elems):
        parents[index[y]].append(index[x])
    downs = {x: {x} for x in elems}
    ups = {x: {x} for x in elems}
    for x, y in closure:
        downs[x].add(y)
        ups[y].add(x)
    return elems, tuple(tuple(sorted(p)) for p in parents), closure, root, added, downs, ups


def _mask_forms(elements, arcs):
    poset = Poset.from_arcs(elements, arcs)
    downs = {x: poset.down_set(x) for x in poset.labels}
    ups = {
        x: set(poset.members(up | 1 << i))
        for i, (x, up) in enumerate(zip(poset.labels, poset.strict_up))
    }
    return (frozenset(poset.labels), poset.covers, closure(poset), poset.root,
            poset.virtual_root, downs, ups)


def assert_same_normalisation(elements, arcs):
    elements, arcs = list(elements), list(arcs)
    expected = _outcome(lambda: _set_based_forms(elements, arcs))
    assert _outcome(lambda: _mask_forms(elements, arcs)) == expected
    return expected


def _chain(n):
    labels = [f"c{i:04d}" for i in range(n)]
    return labels, list(zip(labels, labels[1:]))


NAMED_ORDERS = {
    **{f"sparse-{n}-{seed}": (lambda n=n, seed=seed: sparse_policy_doc(n, seed)) for n, seed in POLICIES},
    "mls-256": lambda: mls_policy_doc(1),
    "chain-300": lambda: dict(zip(("elements", "arcs"), _chain(300))),
    "antichain-40": lambda: {"elements": [f"a{i:02d}" for i in range(40)], "arcs": []},
}


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_mask_normalisation_matches_set_based_composition(name):
    doc = NAMED_ORDERS[name]()
    assert_same_normalisation(doc["elements"], [tuple(a) for a in doc["arcs"]])


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_mask_normalisation_ignores_repeated_and_permuted_arcs(name):
    # the child lists keep input order and repeats; nothing built from them may
    doc = NAMED_ORDERS[name]()
    elements, arcs, rng = doc["elements"], doc["arcs"], random.Random(name)
    shuffled = rng.sample(elements, len(elements))
    repeated = [tuple(a) if rng.random() < 0.5 else a for a in rng.sample(arcs * 2, 2 * len(arcs))]
    assert Poset.from_arcs(shuffled, repeated) == Poset.from_arcs(elements, arcs)


def test_mask_closure_size_counts_the_decoded_closure():
    for name in sorted(NAMED_ORDERS):
        doc = NAMED_ORDERS[name]()
        poset = Poset.from_arcs(doc["elements"], [tuple(a) for a in doc["arcs"]])
        assert poset.closure_size == len(closure(poset))


LABEL_POOL = list("abcdefghijkl")


@st.composite
def generator_sets(draw):
    """Labels and arcs: an order's generators, sometimes broken.

    Arcs run down a hidden ranking of the labels, with transitive shortcuts
    (non-cover arcs) added; some sets also get a self-loop, a reversed arc
    (a cycle) or an unknown label, and some name labels "⊤" or "⊤⊤", which
    the virtual root's name must then pass over.
    """
    ranked = draw(st.permutations(LABEL_POOL))[: draw(st.integers(1, 12))]
    taken = draw(st.sampled_from([(), (), (VIRTUAL_ROOT,), (VIRTUAL_ROOT * 2,),
                                  (VIRTUAL_ROOT, VIRTUAL_ROOT * 2)]))
    for i, label in zip(draw(st.permutations(range(len(ranked)))), taken):
        ranked[i] = label
    pairs = [(ranked[j], ranked[i]) for i in range(len(ranked)) for j in range(i + 1, len(ranked))]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    heads = {}
    for x, y in arcs:
        heads.setdefault(y, []).append(x)
    shortcuts = [(x, z) for y, z in arcs for x in heads.get(y, [])]
    arcs += draw(st.lists(st.sampled_from(shortcuts), max_size=4)) if shortcuts else []
    for fault in draw(st.lists(st.sampled_from(["loop", "cycle", "unknown"]), max_size=2)):
        if fault == "loop":
            arcs.append((ranked[0], ranked[0]))
        elif fault == "cycle" and arcs:
            arcs.append(arcs[0][::-1])
        elif fault == "unknown":
            arcs.append((ranked[0], "zz"))
    arcs = draw(st.permutations(arcs))
    return ranked, arcs


@settings(max_examples=300, deadline=None)
@given(generator_sets())
@example((["a", "b"], []))  # an antichain gets the virtual root "⊤"
@example((["a", "b", VIRTUAL_ROOT], []))  # ... "⊤⊤" when "⊤" is a label
@example((["a", VIRTUAL_ROOT * 2, VIRTUAL_ROOT], []))  # ... "⊤⊤⊤" when both are
@example((["a", "b", VIRTUAL_ROOT], [(VIRTUAL_ROOT, "a"), (VIRTUAL_ROOT, "b")]))
@example((["a", "b", "c"], [("c", "b"), ("b", "a"), ("c", "a")]))
@example((["a", "b"], [("a", "b"), ("b", "a")]))
@example((["a"], [("a", "a")]))
@example((["a"], [("a", "zz"), ("a", "a")]))
def test_mask_normalisation_matches_set_based_composition_on_generator_sets(case):
    assert_same_normalisation(*case)
