"""Maximum bipartite matching via Hopcroft-Karp, and single-path repair.

Used for minimum chain partitions and for leaf minimization when picking
derivation trees. Leaf minimization computes one matching and then keeps
it maximum with one repair per candidate: ``augment`` searches a single
alternating path from one free vertex. Both are deterministic for a
fixed iteration order of the adjacency mapping and its lists.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Hashable, Mapping, Sequence, TypeVar

L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)

_INF = float("inf")


def max_bipartite_matching(adjacency: Mapping[L, Sequence[R]]) -> dict[L, R]:
    """Return a maximum matching of the bipartite graph as a left-to-right map.

    ``adjacency`` maps each left vertex to the right vertices it may be
    matched with; right vertices are implied. Runs in O(E * sqrt(V)).
    """
    left = list(adjacency)
    match_left: dict[L, R] = {}
    match_right: dict[R, L] = {}
    dist: dict[L, float] = {}

    def bfs() -> bool:
        queue: deque[L] = deque()
        for u in left:
            if u not in match_left:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right.get(v)
                if w is None:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: L) -> None:
        # depth-first along the BFS layers, on an explicit stack so that no
        # recursion limit bounds the path; a frame is [left, untried edges, right tried]
        stack = [[root, iter(adjacency[root]), None]]
        while stack:
            frame = stack[-1]
            u, edges, _ = frame
            for v in edges:
                frame[2] = v
                w = match_right.get(v)
                if w is None:
                    for x, _, y in stack:
                        match_left[x] = y
                        match_right[y] = x
                    return
                if dist[w] == dist[u] + 1:
                    stack.append([w, iter(adjacency[w]), None])
                    break
            else:
                dist[u] = _INF
                stack.pop()

    while bfs():
        for u in left:
            if u not in match_left:
                augment(u)
    return match_left


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
    absent. Both maps change only when a path is found. Searches depth
    first on an explicit stack, so no recursion limit bounds the path.
    """
    seen: set[R] = set()
    stack = [(start, iter(adjacency[start]))]
    rights: list[R] = []  # rights[i] is tried from stack[i] and leads to stack[i + 1]
    while stack:
        for v in stack[-1][1]:
            if v in seen or v in blocked:
                continue
            seen.add(v)
            rights.append(v)
            w = partner.get(v)
            if w is None:
                for (u, _), x in zip(stack, rights):
                    mate[u] = x
                    partner[x] = u
                return True
            stack.append((w, iter(adjacency[w])))
            break
        else:
            stack.pop()
            if rights:
                rights.pop()
    return False
