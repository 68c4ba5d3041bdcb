import random

from hypothesis import given, settings
from hypothesis import strategies as st

from treekeys import (
    DerivationOutTree,
    Poset,
    canonical_allocation,
    scheme_metrics,
)
from treekeys.allocation import validate_enforcement
from treekeys.oracles import (
    allocation_by_definition,
    charged_sets,
    covers,
    enumerate_out_trees,
    random_poset,
    random_users,
)
from treekeys.trees import weight_function

from conftest import one_user_each


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


class TestCanonicalAllocation:
    def test_sample_start_points(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        assert allocation["b"] == ("a", "b")
        assert allocation["e"] == ("c", "e")
        assert allocation["f"] == ("d", "f")
        assert allocation["c"] == ("c",)
        assert sum(len(points) for points in allocation.values()) == 11

    def test_root_is_its_own_start_point(self, poset8, tree8_gd):
        assert canonical_allocation(poset8, tree8_gd)["h"] == ("h",)

    def test_total_order_needs_one_point_each(self):
        labels = list("abcd")
        poset = Poset.from_arcs(labels, [(labels[i + 1], labels[i]) for i in range(3)])
        tree = DerivationOutTree(root="d", parent={"a": "b", "b": "c", "c": "d"})
        allocation = canonical_allocation(poset, tree)
        assert all(allocation[x] == (x,) for x in labels)

    def test_every_label_contains_itself(self, poset8, tree8_fd):
        allocation = canonical_allocation(poset8, tree8_fd)
        assert all(x in allocation[x] for x in poset8.labels)


class TestValidateEnforcement:
    def test_canonical_is_valid_and_minimal(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        assert validate_enforcement(poset8, tree8_gd, allocation) == ()
        assert allocation == allocation_by_definition(
            poset8, tree8_gd, charged_sets(poset8, tree8_gd.arcs())
        )

    def test_missing_start_point_is_flagged(self, poset8, tree8_gd):
        # b's users need a start at a: the tree enters a from c, and b is not above c
        allocation = canonical_allocation(poset8, tree8_gd)
        phi = dict(allocation)
        phi["b"] = frozenset({"b"})
        violations = validate_enforcement(poset8, tree8_gd, phi)
        assert any(v.kind == "unreachable" and v.label == "b" for v in violations)

    def test_overreaching_start_point_is_flagged(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        phi = dict(allocation)
        phi["c"] = frozenset({"c", "e"})
        violations = validate_enforcement(poset8, tree8_gd, phi)
        assert any(v.kind == "overreach" and v.label == "c" for v in violations)

    def test_missing_self_is_flagged(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        phi = dict(allocation)
        phi["g"] = frozenset({"d", "e"})  # covers down(g) minus g itself
        violations = validate_enforcement(poset8, tree8_gd, phi)
        assert any(v.kind == "membership" and v.label == "g" for v in violations)

    def test_unknown_start_point_is_flagged(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        phi = dict(allocation)
        phi["g"] = (*phi["g"], "zz")
        violations = validate_enforcement(poset8, tree8_gd, phi)
        assert any(v.kind == "unknown" for v in violations)

    def test_valid_but_wasteful_allocation(self, poset8, tree8_gd):
        # an extra start point below h is wasteful but stays sound
        allocation = canonical_allocation(poset8, tree8_gd)
        phi = dict(allocation)
        phi["h"] = frozenset({"h", "a"})
        assert validate_enforcement(poset8, tree8_gd, phi) == ()


class TestSchemeMetrics:
    def test_sample_metrics(self, poset8, users8, tree8_gd):
        metrics = scheme_metrics(poset8, users8, tree8_gd)
        assert metrics.K_total == 11
        assert metrics.K_hat == 11
        assert metrics.k_max == 2
        assert metrics.d_max == 4  # h's bundle reaches a in four hops
        assert metrics.p == 0

    def test_fd_variant_has_same_totals(self, poset8, users8, tree8_fd):
        metrics = scheme_metrics(poset8, users8, tree8_fd)
        assert metrics.K_total == 11
        assert metrics.k_max == 2

    def test_singleton(self):
        poset = Poset.from_arcs(["a"], [])
        users = one_user_each(poset)
        tree = DerivationOutTree(root="a", parent={})
        metrics = scheme_metrics(poset, users, tree)
        assert metrics.K_total == 1
        assert metrics.d_max == 0

    def test_weighted_total_scales_with_users(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        heavy = {"f": 10}
        metrics = scheme_metrics(poset8, heavy, tree8_gd)
        assert metrics.K_total == 11
        assert metrics.K_hat == 10 * len(allocation["f"])


def test_start_points_may_exceed_the_width():
    # not an invariant: a label can need more start points than the poset
    # is wide, because the tree thins the arc set below the full order
    from treekeys import min_weight_out_tree
    from treekeys.poset import width

    arcs = [("b", "a"), ("c", "b"), ("e", "c"), ("e", "d"), ("f", "b"), ("f", "d")]
    poset = Poset.from_arcs(list("abcdef"), arcs)
    users = one_user_each(poset)
    tree = min_weight_out_tree(poset, users)
    allocation = canonical_allocation(poset, tree)
    assert width(poset) == 2
    assert allocation["f"] == ("b", "d", "f")
    assert validate_enforcement(poset, tree, allocation) == ()


@settings(max_examples=40, deadline=None)
@given(instances())
def test_weighted_key_total_equals_arc_cost_total(instance):
    # holds for every derivation tree, optimal or not
    poset, users = instance
    sampled = 0
    for tree in enumerate_out_trees(poset, covers(poset)):
        allocation = canonical_allocation(poset, tree)
        per_user_keys = sum(
            users[x] * len(allocation[x])
            for x in poset.labels
            if x != poset.root
        )
        assert per_user_keys == sum(weight_function(poset, users, tree.arcs()).values())
        sampled += 1
        if sampled >= 25:
            break


@settings(max_examples=40, deadline=None)
@given(instances())
def test_canonical_matches_literal_definition(instance):
    poset, users = instance
    from treekeys import min_weight_out_tree

    tree = min_weight_out_tree(poset, users)
    literal = allocation_by_definition(poset, tree, charged_sets(poset, tree.arcs()))
    assert canonical_allocation(poset, tree) == literal


@settings(max_examples=40, deadline=None)
@given(instances())
def test_canonical_always_validates(instance):
    poset, users = instance
    from treekeys import min_weight_out_tree

    tree = min_weight_out_tree(poset, users)
    assert validate_enforcement(poset, tree, canonical_allocation(poset, tree)) == ()


@settings(max_examples=40, deadline=None)
@given(instances())
def test_start_points_cover_down_sets_disjointly(instance):
    poset, users = instance
    from treekeys import min_weight_out_tree

    tree = min_weight_out_tree(poset, users)
    allocation = canonical_allocation(poset, tree)
    reach = tree.descendant_sets()
    for x in poset.labels:
        points = sorted(allocation[x])
        union = set()
        for z in points:
            assert not (union & reach[z])  # pairwise disjoint
            union |= reach[z]
        assert union == poset.down_set(x)


@settings(max_examples=30, deadline=None)
@given(instances(max_elements=6), st.integers(0, 2**16))
def test_valid_allocations_contain_the_canonical_one(instance, salt):
    # randomly perturb: supersets that still validate must contain the
    # canonical points; dropping a canonical point must always be caught
    poset, users = instance
    from treekeys import min_weight_out_tree

    tree = min_weight_out_tree(poset, users)
    canonical = canonical_allocation(poset, tree)
    rng = random.Random(salt)
    phi = {}
    for x in poset.labels:
        extra = set()
        candidates = sorted(poset.down_set(x).difference(canonical[x]))
        if candidates and rng.random() < 0.7:
            extra.add(rng.choice(candidates))
        phi[x] = extra.union(canonical[x])
    assert validate_enforcement(poset, tree, phi) == ()
    assert all(phi[x].issuperset(canonical[x]) for x in poset.labels)

    victims = [x for x in poset.labels if len(canonical[x]) > 1]
    if victims:
        victim = rng.choice(victims)
        dropped = dict(canonical)
        dropped[victim] = frozenset(sorted(dropped[victim])[1:])
        assert validate_enforcement(poset, tree, dropped) != ()
