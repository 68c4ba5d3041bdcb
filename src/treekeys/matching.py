"""Maximum bipartite matching by Hopcroft-Karp over bit masks, and
single-path repair over lists.

The matching gives minimum chain partitions and the first matching of
leaf minimization, which ``augment`` keeps maximum: per fixed label, at
most one search back from the parent it gives up, and one forward
search from the holder of each unused candidate tried. Both search
depth first on an explicit stack, so no recursion limit bounds a path.
A frame is ``[left, untried rights, right tried last]``; when a free
right is reached, each frame's left takes its last right.
"""

from __future__ import annotations

from typing import Container, Hashable, Mapping, Sequence, TypeVar

L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)


def max_bipartite_matching(adjacency: Sequence[int]) -> dict[int, int]:
    """Return a maximum matching of the bipartite graph as a left-to-right map.

    Left ``i`` may take right ``j`` iff bit ``j`` of ``adjacency[i]`` is
    set. Lefts are searched in index order and each left's rights lowest
    first, so the result is deterministic. Breadth first, a phase reads
    each right once; depth first, a frame passes over every right that
    cannot extend its path in one mask operation.
    """
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}
    matched = 0  # the rights a left holds
    while True:
        # breadth first from the free lefts: dist holds each reached left's
        # layer, and layer[d] the rights held by the live lefts of layer d
        free = [u for u in range(len(adjacency)) if u not in match_left]
        dist: dict[int, int | None] = dict.fromkeys(free, 0)
        layer = [0] * (len(adjacency) + 2)
        reached, pending = list(free), matched  # pending: held rights not reached yet
        for u in reached:
            taken = adjacency[u] & pending
            if taken:
                d = dist[u] + 1
                pending ^= taken
                layer[d] |= taken
                while taken:
                    low = taken & -taken
                    taken ^= low
                    reached.append(match_right[low.bit_length() - 1])
                    dist[reached[-1]] = d
        if all(adjacency[u] & matched == adjacency[u] for u in reached):
            return match_left
        # down the layers from each free left, which only its own search matches
        for root in free:
            stack = [[root, adjacency[root], None]]
            while stack:
                frame = stack[-1]
                left, rest = frame[0], frame[1]
                # drop rights held off the next layer: none returns before this search ends
                rest ^= rest & (matched ^ layer[dist[left] + 1])
                if not rest:  # a dead end for the rest of the phase
                    if left in match_left:
                        layer[dist[left]] ^= 1 << match_left[left]
                    dist[left] = None
                    stack.pop()
                    continue
                low = rest & -rest
                frame[1] = rest ^ low
                frame[2] = v = low.bit_length() - 1
                if v in match_right:
                    stack.append([match_right[v], adjacency[match_right[v]], None])
                    continue
                for x, _, y in stack:  # y moves from the layer below x's to x's
                    layer[dist[x] + 1] &= ~(1 << y)
                    layer[dist[x]] |= 1 << y
                    match_left[x] = y
                    match_right[y] = x
                matched |= 1 << v
                stack.clear()


def augment(
    adjacency: Mapping[L, Sequence[R]],
    mate: dict[L, R],
    partner: dict[R, L],
    start: L,
    blocked: Container[R],
) -> bool:
    """Flip one augmenting path from the free left vertex ``start``, if any.

    ``mate`` maps matched left vertices to their right partners and
    ``partner`` is its inverse; right vertices in ``blocked`` count as
    absent. Both maps change only when a path is found.
    """
    seen: set[R] = set()
    stack = [[start, iter(adjacency[start]), None]]
    while stack:
        frame = stack[-1]
        for v in frame[1]:
            if v in seen or v in blocked:
                continue
            seen.add(v)
            frame[2] = v
            w = partner.get(v)
            if w is None:
                for u, _, x in stack:
                    mate[u] = x
                    partner[x] = u
                return True
            stack.append([w, iter(adjacency[w]), None])
            break
        else:
            stack.pop()
    return False
