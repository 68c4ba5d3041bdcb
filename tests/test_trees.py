import pytest
import treekeys.trees
from hypothesis import given, settings
from hypothesis import strategies as st

from treekeys import (
    DerivationOutTree,
    canonical_allocation,
    scheme_metrics,
    seeded_bytes,
    setup,
    Poset,
    PolicyError,
    min_leaf_out_tree,
    min_weight_out_tree,
    parse_policy,
    validate_tree,
    weight_function,
)
from treekeys.matching import max_bipartite_matching
from treekeys.oracles import (
    brute_min_leaf_count,
    extra_key_labels,
    brute_min_weight,
    charged_sets,
    closure,
    covers,
    random_poset,
    random_users,
)

from conftest import SAMPLE_WEIGHTS, bundles_of, one_user_each, sparse_policy_doc


def total_order(n=5):
    labels = [chr(ord("a") + i) for i in range(n)]
    return Poset.from_arcs(labels, [(labels[i + 1], labels[i]) for i in range(n - 1)])


def instances(max_elements=7):
    @st.composite
    def build(draw):
        element_count = draw(st.integers(2, max_elements))
        edge_density = draw(st.sampled_from([0.1, 0.25, 0.4, 0.6]))
        seed = draw(st.integers(0, 2**32 - 1))
        poset = random_poset(element_count, edge_density, seed)
        users = random_users(poset, seed + 1)
        return poset, users

    return build()


class TestExtraKeyLabels:
    def test_arc_ec(self, poset8):
        assert extra_key_labels(poset8, ("e", "c")) == {"c", "d", "f"}

    def test_arc_hg(self, poset8):
        assert extra_key_labels(poset8, ("h", "g")) == {"g"}

    def test_two_chain(self):
        poset = Poset.from_arcs(["x", "y"], [("x", "y")])
        assert extra_key_labels(poset, ("x", "y")) == {"y"}

    def test_never_contains_root(self, poset8):
        for arc in closure(poset8):
            assert poset8.root not in extra_key_labels(poset8, arc)

    def test_rejects_non_order_arc(self, poset8):
        with pytest.raises(PolicyError):
            extra_key_labels(poset8, ("c", "e"))  # points upward
        with pytest.raises(PolicyError):
            extra_key_labels(poset8, ("f", "g"))  # incomparable


class TestWeightFunction:
    def test_sample_cover_weights(self, poset8, users8):
        wf = weight_function(poset8, users8, covers(poset8))
        assert wf == SAMPLE_WEIGHTS

    def test_no_users_means_zero_cost(self, poset8):
        nobody = {}
        wf = weight_function(poset8, nobody, covers(poset8))
        assert all(w == 0 for w in wf.values())

    def test_users_at_one_label_charge_its_covering_arcs(self, poset8):
        only_d = {"d": 5}
        wf = weight_function(poset8, only_d, covers(poset8))
        assert wf[("e", "c")] == 5  # d sits above c but not above e
        assert wf[("h", "g")] == 0

    def test_rejects_arcs_outside_order(self, poset8, users8):
        with pytest.raises(PolicyError, match="outside"):
            weight_function(poset8, users8, {("a", "h")})

    def test_matches_per_arc_definition(self, poset8, users8):
        wf = weight_function(poset8, users8, closure(poset8))
        for arc, cost in wf.items():
            assert cost == sum(users8[x] for x in extra_key_labels(poset8, arc))

    def test_large_user_counts_match_per_arc_definition(self, poset8):
        # counts with many bits set exercise every popcount plane
        users = {x: 2**i + i for i, x in enumerate("abcdefgh")}
        wf = weight_function(poset8, users, closure(poset8))
        for arc, cost in wf.items():
            assert cost == sum(users[x] for x in extra_key_labels(poset8, arc))

    def test_rejects_negative_user_counts(self, poset8):
        with pytest.raises(PolicyError, match="non-negative"):
            negative = dict.fromkeys(poset8.labels, -1)
            weight_function(poset8, negative, covers(poset8))


class TestMinWeightTree:
    def test_sample_tree(self, poset8, users8):
        tree = min_weight_out_tree(poset8, users8)
        assert tree.parent["a"] == "c"
        assert tree.parent["c"] == "d"
        assert tree.parent["d"] in {"f", "g"}
        assert tree.parent["d"] == "f"  # lexicographic tie-break
        wf = weight_function(poset8, users8, covers(poset8))
        assert sum(wf[a] for a in tree.arcs()) == 10

    def test_closure_candidates_reach_same_minimum(self, poset8, users8):
        tree = min_weight_out_tree(poset8, users8, closure=True)
        wf = weight_function(poset8, users8, closure(poset8))
        assert sum(wf[a] for a in tree.arcs()) == 10

    def test_total_order_has_unique_tree(self):
        poset = total_order()
        tree = min_weight_out_tree(poset, one_user_each(poset))
        assert tree.parent == {"a": "b", "b": "c", "c": "d", "d": "e"}

    def test_deterministic(self, poset8, users8):
        first = min_weight_out_tree(poset8, users8)
        second = min_weight_out_tree(poset8, users8)
        assert first == second
        assert first.to_json_dict() == second.to_json_dict()


class TestMinLeafTree:
    def test_sample_minimizes_leaves(self, poset8, users8):
        tree = min_leaf_out_tree(poset8, users8)
        wf = weight_function(poset8, users8, covers(poset8))
        assert sum(wf[a] for a in tree.arcs()) == 10
        # keeping (f, d) makes f internal: three leaves instead of four
        assert tree.parent["d"] == "f"
        assert tree.leaves() == {"a", "b", "e"}
        cover_charged = charged_sets(poset8, covers(poset8))
        assert brute_min_leaf_count(poset8, users8, cover_charged) == (10, 3)

    def test_total_order_single_leaf(self):
        poset = total_order()
        tree = min_leaf_out_tree(poset, one_user_each(poset))
        assert len(tree.leaves()) == 1

    def test_star_cannot_avoid_leaves(self):
        poset = Poset.from_arcs(["r", "a", "b", "c"], [("r", x) for x in "abc"])
        tree = min_leaf_out_tree(poset, one_user_each(poset))
        assert tree.leaves() == {"a", "b", "c"}

    def test_matches_once(self, monkeypatch):
        calls = []

        def counted(adjacency):
            calls.append(len(adjacency))
            return max_bipartite_matching(adjacency)

        poset, users = parse_policy(sparse_policy_doc(300, 13))
        monkeypatch.setattr(treekeys.trees, "max_bipartite_matching", counted)
        for closure in (False, True):
            calls.clear()
            min_leaf_out_tree(poset, users, closure=closure)
            assert calls == [len(poset.labels)]  # one call, one mask per label

    def test_long_repair_does_not_recurse(self):
        # a label's two parents cost the same, so HK matches a1-u, a2-v and
        # b_i-p_i and leaves e free; a2 can share u with a1 only once e takes
        # p_n, b_n takes p_(n-1), ..., b_1 takes v: a 3001-pair repair
        n = 3000
        p = [f"p{i:05d}" for i in range(1, n + 1)]
        b = [f"b{i:05d}" for i in range(1, n + 1)]
        arcs = [("u", "a1"), ("u", "a2"), ("v", "a2"), ("v", b[0]), (p[-1], "e")]
        arcs += [(p[i], b[i]) for i in range(n)] + [(p[i - 1], b[i]) for i in range(1, n)]
        poset = Poset.from_arcs(["a1", "a2", "e", "u", "v", *p, *b], arcs)
        tree = min_leaf_out_tree(poset, one_user_each(poset))
        validate_tree(poset, tree)
        assert tree.parent["a2"] == "u"


class TestTreeValue:
    def test_arcs_sorted_by_child(self, tree8_gd):
        assert tree8_gd.arcs() == (
            ("c", "a"),
            ("d", "b"),
            ("d", "c"),
            ("g", "d"),
            ("g", "e"),
            ("h", "f"),
            ("h", "g"),
        )

    def test_depths_and_ancestors(self, tree8_gd):
        depths = tree8_gd.depths()
        assert depths["h"] == 0 and depths["a"] == 4
        assert list(tree8_gd.ancestors("a")) == ["a", "c", "d", "g", "h"]

    def test_children_are_sorted_in_a_new_dict_per_call(self, tree8_gd):
        literal = {v: sorted(c for c, p in tree8_gd.parent.items() if p == v) for v in "abcdefgh"}
        children = tree8_gd.children()
        assert children == literal
        children["h"].clear()
        assert tree8_gd.children() == literal

    def test_values_are_read_only(self, poset8, users8, tree8_gd):
        bundles = bundles_of(poset8, tree8_gd, setup(tree8_gd, rng=seeded_bytes(b"read-only")))
        values = [
            (poset8, "root"),
            (tree8_gd, "parent"),
            (bundles["f"], "holder"),
            (scheme_metrics(poset8, users8, tree8_gd), "K_hat"),
        ]
        for value, name in values:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before

    def test_descendant_sets(self, tree8_gd):
        reach = tree8_gd.descendant_sets()
        assert reach["g"] == {"g", "d", "e", "a", "b", "c"}
        assert reach["a"] == {"a"}

    @pytest.mark.parametrize(
        "parent", [{"a": "b", "b": "a"}, {"a": "h", "h": "a"}], ids=["cycle", "root-has-a-parent"]
    )
    def test_walks_refuse_a_parent_map_that_is_no_tree(self, parent):
        # the guards for a tree that never went through validate_tree
        tree = DerivationOutTree(root="h", parent=parent)
        with pytest.raises(PolicyError, match="not a tree under its root"):
            tree.depths()
        with pytest.raises(PolicyError, match="not a tree under its root"):
            tree.descendant_sets()
        with pytest.raises(PolicyError, match="contains a cycle"):
            list(tree.ancestors("a"))

    def test_descendant_sets_on_a_deep_chain(self):
        # deeper than Python's default recursion limit
        labels = [f"c{i:04d}" for i in range(1500)]
        tree = DerivationOutTree(root=labels[0], parent=dict(zip(labels[1:], labels)))
        reach = tree.descendant_sets()
        assert all(len(reach[label]) == 1500 - i for i, label in enumerate(labels))
        assert reach[labels[-2]] == {labels[-2], labels[-1]}

    def test_json_round_trip(self, tree8_gd):
        doc = tree8_gd.to_json_dict()
        assert doc["root"] == "h"
        assert DerivationOutTree.from_json_dict(doc) == tree8_gd

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(PolicyError):
            DerivationOutTree.from_json_dict({"root": "h", "parents": {}, "x": 1})

    def test_validate_rejects_upward_arc(self, poset8):
        bad = DerivationOutTree(
            root="h",
            parent={"a": "c", "b": "d", "c": "a", "d": "f", "e": "g", "f": "h", "g": "h"},
        )
        with pytest.raises(PolicyError):
            validate_tree(poset8, bad)

    def test_validate_rejects_non_spanning(self, poset8, tree8_gd):
        partial = dict(tree8_gd.parent)
        del partial["a"]
        with pytest.raises(PolicyError):
            validate_tree(poset8, DerivationOutTree(root="h", parent=partial))

    def test_validate_rejects_wrong_root(self, poset8, tree8_gd):
        with pytest.raises(PolicyError):
            validate_tree(poset8, DerivationOutTree(root="g", parent=dict(tree8_gd.parent)))


@settings(max_examples=50, deadline=None)
@given(instances())
def test_stacked_arcs_charge_disjoint_sets(instance):
    poset, _users = instance
    closure_pairs = closure(poset)
    for x, y in closure_pairs:
        for z in poset.labels:
            if (y, z) in closure_pairs:
                upper = extra_key_labels(poset, (x, y))
                lower = extra_key_labels(poset, (y, z))
                assert not (upper & lower)
                assert extra_key_labels(poset, (x, z)) == upper | lower


@settings(max_examples=50, deadline=None)
@given(instances())
def test_shortcut_arc_costs_at_least_its_segments(instance):
    poset, users = instance
    closure_pairs = closure(poset)
    wf = weight_function(poset, users, closure_pairs)
    succ = {x: [y for y in poset.labels if (x, y) in closure_pairs] for x in poset.labels}

    def walk(path, total):
        if len(path) > 2:
            assert wf[(path[0], path[-1])] >= total
        for nxt in succ[path[-1]]:
            walk(path + [nxt], total + wf[(path[-1], nxt)])

    for x in poset.labels:
        walk([x], 0)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_min_tree_matches_exhaustive_enumeration(instance):
    poset, users = instance
    tree = min_weight_out_tree(poset, users)
    wf = weight_function(poset, users, covers(poset))
    best, _ = brute_min_weight(poset, users, charged_sets(poset, covers(poset)))
    assert sum(wf[a] for a in tree.arcs()) == best


@settings(max_examples=30, deadline=None)
@given(instances(max_elements=6))
def test_cover_arcs_suffice_for_the_minimum(instance):
    poset, users = instance
    cover_best, _ = brute_min_weight(poset, users, charged_sets(poset, covers(poset)))
    closure_best, _ = brute_min_weight(poset, users, charged_sets(poset, closure(poset)))
    assert cover_best == closure_best


@settings(max_examples=40, deadline=None)
@given(instances())
def test_min_leaf_tree_is_optimal_on_both_counts(instance):
    poset, users = instance
    tree = min_leaf_out_tree(poset, users)
    wf = weight_function(poset, users, covers(poset))
    cover_charged = charged_sets(poset, covers(poset))
    best, _ = brute_min_weight(poset, users, cover_charged)
    assert sum(wf[a] for a in tree.arcs()) == best
    assert brute_min_leaf_count(poset, users, cover_charged) == (best, len(tree.leaves()))


@settings(max_examples=40, deadline=None)
@given(instances())
def test_every_tree_arc_is_a_cheapest_in_arc(instance):
    poset, users = instance
    tree = min_weight_out_tree(poset, users)
    wf = weight_function(poset, users, covers(poset))
    in_arcs = {}
    for y, z in covers(poset):
        in_arcs.setdefault(z, []).append(y)
    for child, parent in tree.parent.items():
        assert wf[(parent, child)] == min(wf[(y, child)] for y in in_arcs[child])


@settings(max_examples=40, deadline=None)
@given(instances())
def test_positive_user_counts_force_cover_arcs(instance):
    # with users at every real label, minimum trees cannot afford shortcut
    # arcs: some label strictly above the skipped cover always pays extra
    poset, _users = instance
    everyone = one_user_each(poset)
    tree = min_weight_out_tree(poset, everyone, closure=True)
    assert frozenset(tree.arcs()) <= covers(poset)


def test_ten_thousand_label_chain_from_policy_to_allocation():
    # a 10,000-deep order: its 50M-pair closure is never decoded, and no
    # step recurses on depth
    n = 10_000
    labels = [f"c{i:05d}" for i in range(n)]
    doc = {"elements": labels, "arcs": [[x, y] for x, y in zip(labels, labels[1:])]}
    poset, users = parse_policy(doc)
    assert len(covers(poset)) == n - 1
    assert poset.closure_size == n * (n - 1) // 2
    tree = min_leaf_out_tree(poset, users)
    allocation = canonical_allocation(poset, tree)
    assert all(allocation[x] == (x,) for x in labels)
    metrics = scheme_metrics(poset, users, tree)
    assert metrics.K_total == n
    assert metrics.d_max == n - 1
