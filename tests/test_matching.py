from hypothesis import given, settings
from hypothesis import strategies as st

from treekeys.matching import augment, max_bipartite_matching
from treekeys.oracles import list_bipartite_matching


def brute_max_matching_size(adjacency):
    """Exponential reference: try every injective assignment."""

    def go(lefts, taken):
        if not lefts:
            return 0
        head, rest = lefts[0], lefts[1:]
        best = go(rest, taken)  # leave head unmatched
        for right in adjacency[head]:
            if right not in taken:
                best = max(best, 1 + go(rest, taken | {right}))
        return best

    return go(list(adjacency), frozenset())


def masks(adjacency):
    """Lists of right positions as one mask per left, lefts 0..max in order."""
    lefts = range(max(adjacency, default=-1) + 1)
    return [sum(1 << v for v in adjacency.get(u, ())) for u in lefts]


def test_perfect_matching():
    got = max_bipartite_matching([0b0110, 0b0010, 0b1100])
    assert len(got) == 3
    assert got[1] == 1


def test_bottleneck():
    # three lefts share one right
    got = max_bipartite_matching([0b10, 0b10, 0b10])
    assert len(got) == 1


def test_empty():
    assert max_bipartite_matching([]) == {}
    assert max_bipartite_matching([0]) == {}


def test_augmenting_path_needed():
    # greedy would match 0-1 and strand 1; maximum matching pairs both
    got = max_bipartite_matching([0b110, 0b010])
    assert len(got) == 2
    assert got == {0: 2, 1: 1}


def test_deterministic():
    adjacency = [0b1110, 0b0110, 0b1100, 0b1000]
    assert max_bipartite_matching(adjacency) == max_bipartite_matching(adjacency)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 5),
        st.lists(st.integers(0, 5), unique=True, max_size=6),
        max_size=6,
    )
)
def test_matching_is_valid_and_maximum(adjacency):
    got = max_bipartite_matching(masks(adjacency))
    for left, right in got.items():
        assert right in adjacency[left]
    assert len(set(got.values())) == len(got)  # injective
    assert len(got) == brute_max_matching_size(adjacency)


def test_long_augmenting_path_does_not_recurse():
    # lefts 0..2999 take rights 1..3000 in the first phase; the last left
    # then needs an augmenting path through every one of them to reach 3001
    n = 3000
    got = max_bipartite_matching([0b11 << i for i in range(1, n + 1)] + [1 << 1])
    assert len(got) == n + 1
    assert got[n] == 1 and got[n - 1] == n + 1


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 5),
        st.lists(st.integers(0, 5), unique=True, max_size=6),
        min_size=1,
        max_size=6,
    ),
    st.frozensets(st.integers(0, 5), max_size=3),
    st.data(),
)
def test_augment_finds_the_missing_pair(adjacency, blocked, data):
    # a maximum matching of the graph without `start` misses at most one
    # pair of the whole graph, and any path that restores it starts there
    start = data.draw(st.sampled_from(sorted(adjacency)))
    rest = {u: [v for v in vs if v not in blocked] for u, vs in adjacency.items() if u != start}
    mate = list_bipartite_matching(rest)
    partner = {v: u for u, v in mate.items()}
    before = dict(mate)
    whole = {u: [v for v in vs if v not in blocked] for u, vs in adjacency.items()}
    found = augment(adjacency, mate, partner, start, blocked)
    assert found == (brute_max_matching_size(whole) > len(before))
    if not found:
        assert mate == before
        return
    assert len(mate) == len(before) + 1 and start in mate
    assert partner == {v: u for u, v in mate.items()}
    for u, v in mate.items():
        assert v in adjacency[u] and v not in blocked
