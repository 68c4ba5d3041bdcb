import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekeys import (
    CycleError,
    Poset,
    PolicyError,
    UnknownLabelError,
    VIRTUAL_ROOT,
    min_chain_partition,
    parse_policy,
    width,
)
from treekeys.oracles import (
    brute_reduction,
    brute_width,
    closure,
    covers,
    random_poset,
)
from treekeys.poset import transitive_closure, transitive_reduction

from conftest import SAMPLE_COVERS, SAMPLE_ELEMENTS, SAMPLE_POLICY_DOC


@st.composite
def shuffled_policies(draw):
    """Random elements and arcs of an acyclic order, shuffled. Some labels
    start with "⊤", so the virtual root sorts before, among or after them
    ("a.." < "z.." < "⊤" < "⊤a.." < "⊤z.."), and "⊤" or "⊤⊤" may be
    labels themselves, so the root's name must be lengthened."""
    n = draw(st.integers(1, 12))
    labels = [f"{'⊤' * draw(st.booleans())}{'az'[i % 2]}{i}" for i in range(n)]
    labels += draw(st.sampled_from([[], [VIRTUAL_ROOT], [VIRTUAL_ROOT * 2],
                                    [VIRTUAL_ROOT, VIRTUAL_ROOT * 2]]))
    n = len(labels)
    rank = draw(st.permutations(range(n)))  # a label only lies below higher-ranked ones
    arcs = [
        (labels[j], labels[i])
        for i in range(n) for j in range(n)
        if rank[j] > rank[i] and draw(st.booleans())
    ]
    return labels, arcs


def random_posets(max_elements=8):
    return st.builds(
        random_poset,
        element_count=st.integers(2, max_elements),
        edge_density=st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.8]),
        seed=st.integers(0, 2**32 - 1),
    )


class TestTransitiveClosure:
    def test_sample_has_23_pairs(self, poset8):
        assert len(transitive_closure(SAMPLE_COVERS, SAMPLE_ELEMENTS)) == 23
        assert closure(poset8) == transitive_closure(SAMPLE_COVERS, SAMPLE_ELEMENTS)

    def test_three_chain(self):
        got = transitive_closure([("x", "y"), ("y", "z")], ["x", "y", "z"])
        assert got == {("x", "y"), ("y", "z"), ("x", "z")}

    def test_empty_arcs(self):
        assert transitive_closure([], ["a", "b"]) == frozenset()

    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            transitive_closure([("a", "b"), ("b", "a")], ["a", "b"])

    def test_self_loop_detected(self):
        with pytest.raises(CycleError):
            transitive_closure([("a", "a")], ["a"])

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            transitive_closure([("a", "zz")], ["a"])


class TestTransitiveReduction:
    def test_sample_closure_reduces_to_covers(self, poset8):
        got = transitive_reduction(closure(poset8), poset8.labels)
        assert got == frozenset(SAMPLE_COVERS)

    def test_three_chain(self):
        got = transitive_reduction([("x", "y"), ("y", "z"), ("x", "z")], ["x", "y", "z"])
        assert got == {("x", "y"), ("y", "z")}

    def test_antichain(self):
        assert transitive_reduction([], ["a", "b", "c"]) == frozenset()

    def test_rejects_reflexive_pair(self):
        with pytest.raises(PolicyError):
            transitive_reduction([("a", "a")], ["a"])

    def test_rejects_symmetric_pairs(self):
        with pytest.raises(CycleError):
            transitive_reduction([("a", "b"), ("b", "a")], ["a", "b"])

    def test_rejects_non_transitive_input(self):
        with pytest.raises(PolicyError, match="not transitive"):
            transitive_reduction([("x", "y"), ("y", "z")], ["x", "y", "z"])


class TestParsePolicy:
    def test_sample_document(self, poset8, users8):
        poset, users = parse_policy(SAMPLE_POLICY_DOC)
        assert poset == poset8
        assert len(covers(poset)) == 10
        assert len(closure(poset)) == 23
        assert users == users8

    def test_generating_subset_normalizes(self, poset8):
        # feeding the full strict order instead of covers changes nothing
        doc = {"elements": SAMPLE_ELEMENTS, "arcs": [list(a) for a in closure(poset8)]}
        poset, _ = parse_policy(doc)
        assert poset == poset8

    def test_singleton(self):
        poset, users = parse_policy({"elements": ["a"], "arcs": []})
        assert poset.root == "a"
        assert covers(poset) == frozenset()
        assert users == {"a": 1}

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            parse_policy({"elements": ["a", "b"], "arcs": [["a", "b"], ["b", "a"]]})

    def test_duplicate_element_rejected(self):
        with pytest.raises(PolicyError, match="duplicate"):
            parse_policy({"elements": ["a", "a"], "arcs": []})

    def test_unknown_arc_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            parse_policy({"elements": ["a"], "arcs": [["a", "b"]]})

    def test_unknown_field_rejected(self):
        with pytest.raises(PolicyError, match="unknown policy fields"):
            parse_policy({"elements": ["a"], "arcs": [], "extra": 1})

    def test_malformed_arc_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy({"elements": ["a", "b"], "arcs": [["a"]]})

    @pytest.mark.parametrize("entry", [("a", "b", "c"), ("a",), None, ("a", 1), "ab"])
    def test_malformed_arc_fails_closed_in_the_library_too(self, entry):
        with pytest.raises(PolicyError) as parsed:
            parse_policy({"elements": ["a", "b"], "arcs": [entry]})
        with pytest.raises(PolicyError) as built:
            Poset.from_arcs(["a", "b"], [entry])
        assert type(built.value) is type(parsed.value) is PolicyError
        assert str(built.value) == str(parsed.value)

    def test_users_default_to_one_each(self):
        _, users = parse_policy({"elements": ["a", "b"], "arcs": [["b", "a"]]})
        assert users == {"a": 1, "b": 1}

    def test_listed_users_with_gaps_default_to_zero(self):
        _, users = parse_policy(
            {"elements": ["a", "b"], "arcs": [["b", "a"]], "users": {"b": 5}}
        )
        assert users == {"a": 0, "b": 5}

    def test_negative_user_count_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy({"elements": ["a"], "arcs": [], "users": {"a": -1}})

    def test_user_count_must_be_integer(self):
        with pytest.raises(PolicyError):
            parse_policy({"elements": ["a"], "arcs": [], "users": {"a": True}})

    def test_empty_policy_rejected(self):
        with pytest.raises(PolicyError):
            parse_policy({"elements": [], "arcs": []})


class TestRootAugmentation:
    def test_sample_is_already_rooted(self, poset8):
        assert poset8.root == "h"
        assert not poset8.virtual_root

    def test_two_element_antichain_gets_virtual_root(self):
        poset = Poset.from_arcs(["x", "y"], [])
        assert len(poset.labels) == 3
        assert poset.virtual_root
        assert covers(poset) == {(poset.root, "x"), (poset.root, "y")}

    def test_sample_without_top_gets_root_over_f_and_g(self):
        elements = [e for e in SAMPLE_ELEMENTS if e != "h"]
        arcs = [a for a in SAMPLE_COVERS if "h" not in a]
        poset = Poset.from_arcs(elements, arcs)
        assert poset.virtual_root
        assert {y for x, y in covers(poset) if x == poset.root} == {"f", "g"}

    def test_reserved_label_clash(self):
        # the virtual root takes the shortest run of "⊤" that no label takes
        assert Poset.from_arcs(["x", "y", "⊤"], []).root == "⊤⊤"
        assert Poset.from_arcs(["x", "⊤⊤", "⊤"], []).root == "⊤⊤⊤"
        assert Poset.from_arcs(["x", "⊤⊤"], []).root == "⊤"
        assert Poset.from_arcs(["⊤", "x"], [("⊤", "x")]).root == "⊤"

    def test_cycle_reported_before_reserved_label_clash(self):
        with pytest.raises(CycleError):
            parse_policy({"elements": ["a", "b", "c", "⊤"], "arcs": [["a", "b"], ["b", "a"]]})

    def test_virtual_root_cannot_hold_users(self):
        antichain = {"elements": ["x", "y"], "arcs": []}
        with pytest.raises(PolicyError, match="virtual root"):
            parse_policy({**antichain, "users": {VIRTUAL_ROOT: 2}})
        assert parse_policy(antichain)[1] == {"x": 1, "y": 1, VIRTUAL_ROOT: 0}
        assert parse_policy({**antichain, "users": {VIRTUAL_ROOT: 0}})[1][VIRTUAL_ROOT] == 0

    def test_a_label_named_top_holds_users_and_the_lengthened_root_none(self):
        taken = {"elements": ["⊤", "a"], "arcs": []}
        assert parse_policy(taken)[1] == {"⊤": 1, "a": 1, "⊤⊤": 0}
        assert parse_policy({**taken, "users": {"⊤": 3}})[1]["⊤"] == 3
        with pytest.raises(PolicyError, match="virtual root"):
            parse_policy({**taken, "users": {"⊤⊤": 1}})


class TestDownSets:
    def test_down_set_of_e(self, poset8):
        assert poset8.down_set("e") == {"a", "c", "e"}

    def test_down_set_of_maximum_is_everything(self, poset8):
        assert poset8.down_set("h") == set(poset8.labels)

    def test_singleton(self):
        poset = Poset.from_arcs(["a"], [])
        assert poset.down_set("a") == {"a"}
        i = poset.index("a")
        assert set(poset.members(poset.strict_up[i] | 1 << i)) == {"a"}

    def test_up_set(self, poset8):
        i = poset8.index("e")
        assert set(poset8.members(poset8.strict_up[i] | 1 << i)) == {"e", "g", "h"}

    def test_unknown_label(self, poset8):
        with pytest.raises(UnknownLabelError):
            poset8.down_set("zz")


class TestWidthAndPartition:
    def test_sample_width_is_two(self, poset8):
        assert width(poset8) == 2
        assert len(min_chain_partition(poset8).chains) == 2

    def test_total_order_is_one_chain(self):
        labels = list("abcde")
        arcs = [(labels[i + 1], labels[i]) for i in range(4)]
        poset = Poset.from_arcs(labels, arcs)
        partition = min_chain_partition(poset)
        assert partition.chains == (("e", "d", "c", "b", "a"),)

    def test_antichain_under_root(self):
        poset = Poset.from_arcs(["r", "a", "b", "c", "d"], [("r", x) for x in "abcd"])
        assert width(poset) == 4
        assert brute_width(poset) == 4

    def test_partition_is_valid(self, poset8):
        partition = min_chain_partition(poset8)
        partition.validate_for(poset8)  # raises on any defect
        assert sorted(label for chain in partition.chains for label in chain) == list(
            poset8.labels
        )


@settings(max_examples=200, deadline=None)
@given(shuffled_policies(), st.randoms(use_true_random=False))
def test_labels_sorted_and_independent_of_input_order(policy, rng):
    labels, arcs = policy
    poset = Poset.from_arcs(labels, arcs)
    assert list(poset.labels) == sorted(poset.labels)
    assert poset.positions == {x: i for i, x in enumerate(poset.labels)}
    assert poset.root in poset.labels
    assert poset.virtual_root == (poset.root not in labels)
    if poset.virtual_root:
        assert poset.root == next(r for r in ("⊤", "⊤⊤", "⊤⊤⊤") if r not in labels)
    rng.shuffle(labels)
    rng.shuffle(arcs)
    assert Poset.from_arcs(labels, arcs) == poset


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_closure_reduction_round_trip(poset):
    assert transitive_closure(covers(poset), poset.labels) == closure(poset)
    assert transitive_reduction(closure(poset), poset.labels) == covers(poset)


@settings(max_examples=60, deadline=None)
@given(random_posets(max_elements=9))
def test_reduction_matches_bruteforce(poset):
    assert covers(poset) == brute_reduction(closure(poset), poset.labels)


@settings(max_examples=60, deadline=None)
@given(random_posets(max_elements=11))
def test_width_matches_bruteforce_antichain(poset):
    assert width(poset) == brute_width(poset)


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_exactly_one_source_after_rooting(poset):
    cover_pairs = covers(poset)
    children_of = {x: [y for p, y in cover_pairs if p == x] for x in poset.labels}
    sources = [x for x in poset.labels if not any(x in kids for kids in children_of.values())]
    assert sources == [poset.root]
    # every label is reachable from the root along cover arcs
    seen, stack = set(), [poset.root]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(children_of[v])
    assert seen == set(poset.labels)


@settings(max_examples=40, deadline=None)
@given(random_posets())
def test_order_pairs_equal_cover_reachability(poset):
    # x > y exactly when a directed cover path runs from x down to y
    cover_pairs = covers(poset)
    children_of = {x: {y for p, y in cover_pairs if p == x} for x in poset.labels}

    def reaches(x, y):
        seen, stack = set(), [x]
        while stack:
            v = stack.pop()
            if v == y:
                return True
            if v in seen:
                continue
            seen.add(v)
            stack.extend(children_of[v])
        return False

    closure_pairs = closure(poset)
    for x in poset.labels:
        for y in poset.labels:
            if x != y:
                assert ((x, y) in closure_pairs) == reaches(x, y)


@settings(max_examples=40, deadline=None)
@given(random_posets(max_elements=10))
def test_min_partition_chains_are_chains(poset):
    partition = min_chain_partition(poset)
    partition.validate_for(poset)
    assert len(partition.chains) == brute_width(poset)
