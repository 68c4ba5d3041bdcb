"""Derivation out-trees and the arc costs used to choose them.

A derivation out-tree spans every label and only ever points downward in
the order. Cutting the hierarchy down to a tree breaks some authorized
paths; the labels stranded by keeping arc (y, z) as the only way into z
are exactly those at or above z that do not dominate y. Weighting each
arc by the users at those stranded labels makes "pick the cheapest
in-arc per label" produce the tree that minimizes total key hand-outs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

from .errors import PolicyError, check_fields
from .matching import max_bipartite_matching
from .poset import Arc, Poset, UserAssignment


@dataclass(frozen=True)
class DerivationOutTree:
    """A spanning out-tree whose arcs respect the order (parent above child).

    ``parent`` maps every non-root label to its unique parent; the root has
    no entry.
    """

    root: str
    parent: Mapping[str, str]

    def arcs(self) -> tuple[Arc, ...]:
        """Tree arcs as (parent, child) pairs, sorted by child."""
        return tuple((p, c) for c, p in sorted(self.parent.items()))

    def children_map(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {self.root: []}
        for child in self.parent:
            out.setdefault(child, [])
        for child, par in self.parent.items():
            out.setdefault(par, []).append(child)
        return {v: tuple(sorted(kids)) for v, kids in out.items()}

    def leaves(self) -> frozenset[str]:
        return (frozenset(self.parent) | {self.root}) - set(self.parent.values())

    def depths(self) -> dict[str, int]:
        out = {self.root: 0}
        for label in self.parent:
            trail = []
            v = label
            while v not in out:
                trail.append(v)
                if len(trail) > len(self.parent):
                    raise PolicyError("parent map contains a cycle")
                v = self.parent[v]
            base = out[v]
            for hop, lab in enumerate(reversed(trail), start=1):
                out[lab] = base + hop
        return out

    def ancestors(self, label: str) -> Iterator[str]:
        """label, its parent, and so on up to the root."""
        v = label
        yield v
        steps = 0
        while v in self.parent:
            steps += 1
            if steps > len(self.parent):
                raise PolicyError("parent map contains a cycle")
            v = self.parent[v]
            yield v

    def descendant_sets(self) -> dict[str, frozenset[str]]:
        """For each label, everything reachable from it in the tree (itself included)."""
        kids = self.children_map()
        depth = self.depths()
        out: dict[str, frozenset[str]] = {}
        for v in sorted(kids, key=depth.__getitem__, reverse=True):  # children first
            acc = {v}
            for child in kids[v]:
                acc |= out[child]
            out[v] = frozenset(acc)
        return out

    def to_json_dict(self) -> dict[str, Any]:
        return {"root": self.root, "parents": dict(sorted(self.parent.items()))}

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "DerivationOutTree":
        check_fields(document, {"root", "parents"}, "tree")
        root = document.get("root")
        parents = document.get("parents")
        if not isinstance(root, str) or not isinstance(parents, Mapping):
            raise PolicyError("tree document needs a 'root' label and a 'parents' map")
        for child, par in parents.items():
            if not isinstance(child, str) or not isinstance(par, str):
                raise PolicyError("tree 'parents' must map labels to labels")
        return cls(root=root, parent=dict(parents))


def validate_tree(poset: Poset, tree: DerivationOutTree) -> None:
    """Raise PolicyError unless ``tree`` is a derivation out-tree for ``poset``."""
    if tree.root != poset.root:
        raise PolicyError(f"tree root {tree.root!r} differs from poset root {poset.root!r}")
    expected = set(poset.elements) - {poset.root}
    if set(tree.parent) != expected:
        raise PolicyError("tree does not span exactly the non-root labels")
    for child, par in tree.parent.items():
        if not ((par, child) in poset.closure):
            raise PolicyError(f"tree arc ({par!r}, {child!r}) does not point downward in the order")


def extra_key_labels(poset: Poset, arc: Arc) -> frozenset[str]:
    """Labels whose holders need the arc's child as an extra start point.

    For arc (y, z) these are the labels at or above z that do not dominate
    y: if (y, z) is the tree's only way into z, holders at such labels can
    no longer reach z through y and must start at z directly. The root
    never qualifies.
    """
    y, z = arc
    if (y, z) not in poset.closure:
        raise PolicyError(f"({y!r}, {z!r}) is not an arc of the strict order")
    return poset.up_set(z) - poset.up_set(y)


def _checked_candidate_arcs(poset: Poset, candidate_arcs: Iterable[Arc] | None) -> frozenset[Arc]:
    if candidate_arcs is None:
        return poset.covers
    arcs = frozenset(candidate_arcs)
    stray = arcs - poset.closure
    if stray:
        raise PolicyError(f"candidate arcs outside the strict order: {sorted(stray)[:3]}")
    return arcs


def weight_function(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None = None
) -> dict[Arc, int]:
    """Arc costs for every candidate arc: the users at its extra-key labels."""
    arcs = _checked_candidate_arcs(poset, candidate_arcs)
    return {arc: sum(users.count(x) for x in extra_key_labels(poset, arc)) for arc in arcs}


def _cheapest_parents(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None
) -> dict[str, list[str]]:
    """Each non-root label's minimum-weight candidate parents, sorted.

    Every minimum-cost tree picks one of these per label, and only these.
    """
    least: dict[str, int] = {}
    cheapest: dict[str, list[str]] = {x: [] for x in poset.sorted_elements if x != poset.root}
    for (y, z), w in sorted(weight_function(poset, users, candidate_arcs).items()):
        if z not in least or w < least[z]:
            least[z] = w
            cheapest[z] = [y]
        elif w == least[z]:
            cheapest[z].append(y)
    for child, parents in cheapest.items():
        if not parents:
            raise PolicyError(f"label {child!r} has no candidate in-arc; tree cannot span it")
    return cheapest


def min_weight_out_tree(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None = None
) -> DerivationOutTree:
    """The minimum-total-cost spanning out-tree over the candidate arcs.

    Independently picks the cheapest in-arc for every non-root label; ties
    go to the lexicographically smallest parent, making the result
    deterministic.
    """
    cheapest = _cheapest_parents(poset, users, candidate_arcs)
    return DerivationOutTree(
        root=poset.root, parent={child: parents[0] for child, parents in cheapest.items()}
    )


def min_leaf_out_tree(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None = None
) -> DerivationOutTree:
    """Among minimum-cost spanning out-trees, one with the fewest leaves.

    Every minimum-cost tree picks, per label, one of that label's cheapest
    candidate parents; leaves are the labels nobody picks. Maximum
    bipartite matching between labels and their cheapest parents yields
    the largest achievable set of distinct parents, and a greedy pass then
    fixes the lexicographically smallest parent choice that keeps that
    maximum attainable.
    """
    cheapest = _cheapest_parents(poset, users, candidate_arcs)
    children = sorted(cheapest)
    target = len(max_bipartite_matching(cheapest))
    chosen: dict[str, str] = {}
    used: set[str] = set()
    for i, child in enumerate(children):
        rest = children[i + 1 :]
        for cand in cheapest[child]:
            image = used | {cand}
            residual = {r: [p for p in cheapest[r] if p not in image] for r in rest}
            if len(image) + len(max_bipartite_matching(residual)) >= target:
                chosen[child] = cand
                used = image
                break
        else:  # pragma: no cover - the greedy invariant guarantees progress
            raise AssertionError("no feasible parent choice; matching invariant broken")
    return DerivationOutTree(root=poset.root, parent=chosen)
