"""Derivation out-trees and the arc costs used to choose them.

A derivation out-tree spans every label and only ever points downward in
the order. Cutting the hierarchy down to a tree breaks some authorized
paths; the labels stranded by keeping arc (y, z) as the only way into z
are exactly those at or above z that do not dominate y. Weighting each
arc by the users at those stranded labels makes "pick the cheapest
in-arc per label" produce the tree that minimizes total key hand-outs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from .errors import PolicyError, check_fields
from .matching import augment, max_bipartite_matching
from .poset import Arc, Poset


class DerivationOutTree(NamedTuple):
    """A spanning out-tree whose arcs respect the order (parent above child).

    ``parent`` maps every non-root label to its unique parent; the root has
    no entry.
    """

    root: str
    parent: Mapping[str, str]

    def arcs(self) -> tuple[Arc, ...]:
        """Tree arcs as (parent, child) pairs, sorted by child."""
        return tuple((p, c) for c, p in sorted(self.parent.items()))

    def children(self) -> dict[str, list[str]]:
        """Every label's tree children, sorted, in a new dict per call."""
        out: dict[str, list[str]] = {v: [] for v in (self.root, *self.parent)}
        for child, par in sorted(self.parent.items()):
            out.setdefault(par, []).append(child)
        return out

    def leaves(self) -> frozenset[str]:
        return (frozenset(self.parent) | {self.root}) - set(self.parent.values())

    def depths(self) -> dict[str, int]:
        """Every label's distance from the root, root first in breadth-first
        order. Raises PolicyError unless the parent map is a tree under the root."""
        kids = self.children()
        out = {self.root: 0}
        walk = [] if self.root in self.parent else [self.root]
        for v in walk:
            for child in kids[v]:
                out[child] = out[v] + 1
                walk.append(child)
        if len(walk) != len(kids):  # a cycle, a parent outside the tree, or one of the root
            raise PolicyError("parent map is not a tree under its root")
        return out

    def ancestors(self, label: str) -> Iterator[str]:
        """label, its parent, and so on up to the root."""
        yield label
        for _ in range(len(self.parent) + 1):  # one more step than a path can take
            if label not in self.parent:
                return
            label = self.parent[label]
            yield label
        raise PolicyError("parent map contains a cycle")

    def descendant_sets(self) -> dict[str, frozenset[str]]:
        """For each label, everything reachable from it in the tree (itself included)."""
        kids = self.children()
        out: dict[str, frozenset[str]] = {}
        for v in reversed(self.depths()):  # children first
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
    expected = set(poset.labels) - {poset.root}
    if set(tree.parent) != expected:
        raise PolicyError("tree does not span exactly the non-root labels")
    for child, par in tree.parent.items():
        if not poset.above(par, child):
            raise PolicyError(f"tree arc ({par!r}, {child!r}) does not point downward in the order")


def weight_function(
    poset: Poset, users: Mapping[str, int], candidate_arcs: Iterable[Arc]
) -> dict[Arc, int]:
    """Arc costs for every candidate arc: the users at its extra-key labels.

    For y above z, everything at or above y is at or above z, so the users
    in ``up(z) - up(y)`` number M(z) - M(y), where M(x) counts the users at
    or above x.
    """
    arcs = frozenset(candidate_arcs)
    stray = [arc for arc in arcs if not poset.above(*arc)]
    if stray:
        raise PolicyError(f"candidate arcs outside the strict order: {sorted(stray)[:3]}")
    users_above = _users_above(poset, users)
    return {(y, z): users_above[z] - users_above[y] for y, z in arcs}


def _users_above(poset: Poset, users: Mapping[str, int]) -> dict[str, int]:
    """M(x) for every label x, by popcounts of its up-mask: one per bit of
    the largest user count, over the labels whose count has that bit set."""
    counts = [users.get(x, 0) for x in poset.labels]
    if min(counts) < 0:
        raise PolicyError("user counts must be non-negative")
    planes = [
        (1 << b, sum(1 << i for i, c in enumerate(counts) if c >> b & 1))
        for b in range(max(counts).bit_length())
    ]
    ups = (up | 1 << i for i, up in enumerate(poset.strict_up))
    return {
        x: sum(w * (up & plane).bit_count() for w, plane in planes)
        for x, up in zip(poset.labels, ups)
    }


def _cheapest_parents(
    poset: Poset, users: Mapping[str, int], *, closure: bool = False
) -> dict[str, list[str]]:
    """Each non-root label's minimum-weight parents, sorted.

    Every minimum-cost tree picks one of these per label, and only these.
    Arc (y, z) costs M(z) - M(y), so z's cheapest parents are its covers
    with the largest M, or with ``closure`` every label above z with that
    M: M only shrinks upward, so no label above z has a larger one.
    """
    users_above = _users_above(poset, users)
    labels = poset.labels
    same_m: dict[int, int] = {}  # M -> the labels with that M, as a mask
    if closure:
        for i, x in enumerate(labels):
            same_m[users_above[x]] = same_m.get(users_above[x], 0) | 1 << i
    cheapest: dict[str, list[str]] = {}
    for i, (z, covers) in enumerate(zip(labels, poset.cover_up)):
        if z == poset.root:
            continue
        most, parents = -1, []
        for y in poset.members(covers):  # the covers with the largest M, in label order
            if users_above[y] > most:
                most, parents = users_above[y], [y]
            elif users_above[y] == most:
                parents.append(y)
        if closure:
            parents = poset.members(poset.strict_up[i] & same_m[most])
        cheapest[z] = parents
    return cheapest


def min_weight_out_tree(
    poset: Poset, users: Mapping[str, int], *, closure: bool = False
) -> DerivationOutTree:
    """The cheapest spanning out-tree over the covers, or the whole order with ``closure``.

    Independently picks the cheapest in-arc for every non-root label; ties
    go to the lexicographically smallest parent, making the result
    deterministic.
    """
    cheapest = _cheapest_parents(poset, users, closure=closure)
    return DerivationOutTree(
        root=poset.root, parent={child: parents[0] for child, parents in cheapest.items()}
    )


def min_leaf_out_tree(
    poset: Poset, users: Mapping[str, int], *, closure: bool = False
) -> DerivationOutTree:
    """Among minimum-cost spanning out-trees, one with the fewest leaves.

    Every minimum-cost tree picks, per label, one of that label's cheapest
    candidate parents; leaves are the labels nobody picks. One maximum
    bipartite matching between labels and their cheapest parents yields
    the largest achievable set of distinct parents. A greedy pass then
    fixes, label by label, the lexicographically smallest parent that
    keeps that maximum attainable, deciding each candidate with one
    repair of the matching instead of a new one.

    The matching stays maximum between the labels not yet fixed and the
    parents not yet used, one short of the maximum per parent used.
    Fixing a label drops its matched parent; a new parent also drops the
    label matched to it. At most one matched pair is then missing, and an
    alternating path that restores it must start at the dropped label or
    end at the dropped parent: any other would have augmented the
    matching before. For a parent already used, only the dropped parent
    needs a new label, so every used candidate of one label asks the same
    question of the same state (a failed search and a rejected unused
    candidate change nothing); after one failure the rest are skipped.
    """
    cheapest = _cheapest_parents(poset, users, closure=closure)
    match = max_bipartite_matching(cheapest)  # label -> parent
    owner = {p: c for c, p in match.items()}  # parent -> label
    takers: dict[str, list[str]] = {}  # parent -> labels it may be matched with
    for child, parents in cheapest.items():
        for p in parents:
            takers.setdefault(p, []).append(child)
    chosen: dict[str, str] = {}
    used: set[str] = set()
    for child in cheapest:
        chosen[child] = ""  # fixed: out of the matching and of every search
        freed = match.pop(child, None)
        if freed is not None:
            del owner[freed]
        stuck = False  # the used-parent search failed for this label
        for cand in cheapest[child]:
            if cand in used:
                if freed is None or not stuck and augment(takers, owner, match, freed, chosen):
                    break
                stuck = True
                continue
            rival = owner.pop(cand, None)
            if rival is None:
                break
            del match[rival]
            used.add(cand)
            if (
                freed is None
                or augment(cheapest, match, owner, rival, used)
                or augment(takers, owner, match, freed, chosen)
            ):
                break
            used.discard(cand)
            match[rival] = cand
            owner[cand] = rival
        else:  # pragma: no cover - the greedy invariant guarantees progress
            raise AssertionError("no feasible parent choice; matching invariant broken")
        chosen[child] = cand
        used.add(cand)
    return DerivationOutTree(root=poset.root, parent=chosen)
