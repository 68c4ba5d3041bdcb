import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treekeys import (
    ChainPartition,
    Poset,
    PolicyError,
    chain_metrics,
    chain_scheme_build,
    classic_scheme_metrics,
    min_chain_partition,
    width,
)
from treekeys.oracles import random_poset

from conftest import one_user_each


def total_order(n=4):
    labels = [chr(ord("a") + i) for i in range(n)]
    return Poset.from_arcs(labels, [(labels[i + 1], labels[i]) for i in range(n - 1)])


class TestChainScheme:
    def test_sample_start_points(self, poset8, partition8):
        phi = chain_scheme_build(poset8, partition8).phi
        assert phi["d"] == {"c", "d"}
        assert phi["h"] == {"f", "h"}
        assert phi["a"] == {"a"}

    def test_sample_needs_13_keys(self, poset8, users8, partition8):
        metrics = chain_metrics(poset8, users8, partition8)
        assert metrics.K_total == 13
        assert metrics.K_hat == 13
        assert metrics.k_max == 2
        assert metrics.d_max == 4
        assert metrics.p == 0

    def test_total_order_single_chain(self):
        poset = total_order()
        partition = min_chain_partition(poset)
        phi = chain_scheme_build(poset, partition).phi
        assert all(phi[x] == {x} for x in poset.labels)

    def test_virtual_root_gets_a_chain_of_its_own(self):
        poset = Poset.from_arcs(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert poset.virtual_root
        partition = ChainPartition(chains=(("a", "c"), ("b",)))
        phi = chain_scheme_build(poset, partition).phi
        assert phi[poset.root] == {poset.root, "a", "b"}
        assert phi["b"] == {"b", "c"}
        with_root = ChainPartition(chains=((poset.root, "a", "c"), ("b",)))
        assert chain_scheme_build(poset, with_root).phi["b"] == phi["b"]

    def test_rejects_overlapping_chains(self, poset8):
        partition = ChainPartition(chains=(("h", "g", "e", "c", "a"), ("f", "d", "b", "a")))
        with pytest.raises(PolicyError, match="more than one chain"):
            chain_scheme_build(poset8, partition)

    def test_rejects_incomplete_partition(self, poset8):
        partition = ChainPartition(chains=(("h", "g", "e", "c", "a"), ("f", "d")))
        with pytest.raises(PolicyError, match="does not cover"):
            chain_scheme_build(poset8, partition)

    def test_rejects_non_decreasing_chain(self, poset8):
        partition = ChainPartition(chains=(("h", "g", "e", "c", "a"), ("d", "f", "b")))
        with pytest.raises(PolicyError, match="strictly decreasing"):
            chain_scheme_build(poset8, partition)

    def test_rejects_incomparable_neighbors(self, poset8):
        partition = ChainPartition(chains=(("h", "f", "e", "c", "a"), ("g", "d", "b")))
        with pytest.raises(PolicyError, match="strictly decreasing"):
            chain_scheme_build(poset8, partition)


class TestClassicSchemes:
    def test_basic_on_sample(self, poset8, users8):
        metrics = classic_scheme_metrics(poset8, users8, "basic")
        assert metrics.K_total == 31  # 8 labels + 23 order pairs
        assert metrics.K_hat == 31
        assert metrics.k_max == 8
        assert metrics.d_max == 0
        assert metrics.p == 0

    def test_iterative_on_sample(self, poset8, users8):
        metrics = classic_scheme_metrics(poset8, users8, "iterative")
        assert (metrics.K_total, metrics.p) == (8, 10)
        assert metrics.k_max == 1
        assert metrics.d_max == 4  # longest cover path

    def test_direct_on_sample(self, poset8, users8):
        metrics = classic_scheme_metrics(poset8, users8, "direct")
        assert (metrics.p, metrics.d_max) == (23, 1)
        assert metrics.K_total == 8

    def test_weighted_variant(self, poset8):
        heavy = {"h": 10, "a": 2}
        basic = classic_scheme_metrics(poset8, heavy, "basic")
        assert basic.K_total == 31  # per-label count is user-independent
        assert basic.K_hat == 10 * 8 + 2 * 1
        iterative = classic_scheme_metrics(poset8, heavy, "iterative")
        assert iterative.K_hat == 12

    def test_singleton(self):
        poset = Poset.from_arcs(["a"], [])
        users = one_user_each(poset)
        basic = classic_scheme_metrics(poset, users, "basic")
        assert basic.K_total == 1 and basic.p == 0
        iterative = classic_scheme_metrics(poset, users, "iterative")
        assert iterative.d_max == 0 and iterative.p == 0

    def test_iterative_depth_on_a_deep_chain(self):
        # deeper than Python's default recursion limit; the chain's
        # million-pair closure stays in the masks and is never decoded
        labels = [f"c{i:04d}" for i in range(1500)]
        poset = Poset.from_arcs(labels, zip(labels, labels[1:]))
        iterative = classic_scheme_metrics(poset, one_user_each(poset), "iterative")
        assert iterative.d_max == 1499 and iterative.p == 1499

    def test_unknown_scheme(self, poset8, users8):
        with pytest.raises(PolicyError, match="unknown scheme"):
            classic_scheme_metrics(poset8, users8, "telepathic")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_minimal_partitions_bound_keys_by_width(seed, count):
    poset = random_poset(count, 0.3, seed)
    allocation = chain_scheme_build(poset, min_chain_partition(poset))
    w = width(poset)
    assert all(len(points) <= w for points in allocation.phi.values())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_chain_scheme_is_sound_on_random_posets(seed, count):
    poset = random_poset(count, 0.35, seed)
    partition = min_chain_partition(poset)
    phi = chain_scheme_build(poset, partition).phi
    for holder in poset.labels:
        # each start point opens its chain from there down
        derivable = set()
        for chain in partition.chains:
            for i, label in enumerate(chain):
                if label in phi[holder]:
                    derivable.update(chain[i:])
        assert derivable == poset.down_set(holder)
