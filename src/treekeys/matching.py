"""Maximum bipartite matching via Hopcroft-Karp, and single-path repair.

Used for minimum chain partitions and for leaf minimization when picking
derivation trees. Leaf minimization computes one matching and then keeps
it maximum with one repair per candidate: ``augment`` searches a single
alternating path from one free vertex. Both are deterministic for a
fixed iteration order of the adjacency mapping and its lists, and both
search depth first on an explicit stack, so no recursion limit bounds a
path. A frame is ``[left, untried edges, right tried last]``; when a free
right is reached, each frame's left takes its last right.
"""

from __future__ import annotations

from typing import Container, Hashable, Mapping, Sequence, TypeVar

L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)


def max_bipartite_matching(adjacency: Mapping[L, Sequence[R]]) -> dict[L, R]:
    """Return a maximum matching of the bipartite graph as a left-to-right map.

    ``adjacency`` maps each left vertex to the right vertices it may be
    matched with; right vertices are implied. Runs in O(E * sqrt(V)).
    """
    match_left: dict[L, R] = {}
    match_right: dict[R, L] = {}
    while True:
        # breadth first from the free lefts; dist holds each reached left's layer
        free = [u for u in adjacency if u not in match_left]
        dist: dict[L, int | None] = dict.fromkeys(free, 0)
        reached = list(free)
        found = False
        for u in reached:
            for v in adjacency[u]:
                w = match_right.get(v)
                if w is None:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    reached.append(w)
        if not found:
            return match_left
        # down the layers from each free left, which only its own search matches
        for root in free:
            stack = [[root, iter(adjacency[root]), None]]
            while stack:
                frame = stack[-1]
                below = dist[frame[0]] + 1  # dist holds every left met from a reached left
                for v in frame[1]:
                    frame[2] = v
                    w = match_right.get(v)
                    if w is None:
                        for x, _, y in stack:
                            match_left[x] = y
                            match_right[y] = x
                        stack.clear()
                        break
                    if dist[w] == below:
                        stack.append([w, iter(adjacency[w]), None])
                        break
                else:
                    dist[frame[0]] = None  # a dead end for the rest of the phase
                    stack.pop()


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
