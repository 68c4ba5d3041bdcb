"""Maximum bipartite matching via Hopcroft-Karp.

Used for minimum chain partitions and for leaf minimization when picking
derivation trees. The implementation is deterministic for a fixed
iteration order of the adjacency mapping and its lists.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping, Sequence, TypeVar

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
