"""Finite partially ordered sets of security labels.

A label hierarchy is stored as bitmasks over a fixed label index: per
label, the labels strictly below it and the labels strictly above it,
plus the cover arcs (the order's diagram, written parent -> child). The
full strict order (the transitive closure, as pairs) is a view decoded
from the masks on first use. Every poset is rooted: when the input order
has more than one maximal label, a reserved virtual top label is placed
above all of them so that every label is reachable from a single point.
Labels are unique non-empty strings; their bytes feed the key derivation
PRF, so uniqueness matters beyond aesthetics.

``transitive_closure``, ``transitive_reduction`` and ``ensure_root`` are
the set-based reference for the normalisation ``Poset.from_arcs`` does on
masks.

All values here are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

from .errors import CycleError, PolicyError, UnknownLabelError, check_fields
from .matching import max_bipartite_matching

#: Reserved label for the virtual top element added by root augmentation.
VIRTUAL_ROOT = "⊤"

#: An ordered pair (x, y) read "x is above y" (x > y, or x covers y).
Arc = tuple[str, str]


def _topological_order(adjacency: Mapping[str, set[str]]) -> list[str]:
    indegree = {v: 0 for v in adjacency}
    for v in adjacency:
        for w in adjacency[v]:
            indegree[w] += 1
    queue = sorted(v for v, d in indegree.items() if d == 0)
    order: list[str] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in sorted(adjacency[v]):
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if len(order) != len(adjacency):
        raise CycleError("cycle detected: the order relation is not antisymmetric")
    return order


def transitive_closure(arcs: Iterable[Arc], elements: Iterable[str]) -> frozenset[Arc]:
    """All pairs (x, y) joined by a nonempty directed path in ``arcs``.

    Raises CycleError if the digraph has a directed cycle (including
    self-loops) and UnknownLabelError if an arc mentions a label outside
    ``elements``.
    """
    elems = set(elements)
    adjacency: dict[str, set[str]] = {e: set() for e in elems}
    for x, y in arcs:
        for lab in (x, y):
            if lab not in elems:
                raise UnknownLabelError(f"arc ({x!r}, {y!r}) references unknown label {lab!r}")
        if x == y:
            raise CycleError(f"cycle detected: self-loop on {x!r}")
        adjacency[x].add(y)
    order = _topological_order(adjacency)
    below: dict[str, set[str]] = {e: set() for e in elems}
    for v in reversed(order):
        for child in adjacency[v]:
            below[v].add(child)
            below[v] |= below[child]
    return frozenset((x, y) for x in elems for y in below[x])


def transitive_reduction(closure: Iterable[Arc], elements: Iterable[str]) -> frozenset[Arc]:
    """Cover arcs of a strict order: each x's successors that lie below none of the others.

    The input must be a strict partial order (irreflexive, antisymmetric,
    transitive); anything else raises.
    """
    elems = set(elements)
    pairs = set(closure)
    succ: dict[str, set[str]] = {e: set() for e in elems}
    for x, y in pairs:
        for lab in (x, y):
            if lab not in elems:
                raise UnknownLabelError(f"pair ({x!r}, {y!r}) references unknown label {lab!r}")
        if x == y:
            raise PolicyError(f"strict order cannot contain the reflexive pair ({x!r}, {x!r})")
        if (y, x) in pairs:
            raise CycleError(f"cycle detected: both ({x!r}, {y!r}) and ({y!r}, {x!r}) present")
        succ[x].add(y)
    for x in elems:
        for y in succ[x]:
            missing = succ[y] - succ[x]
            if missing:
                raise PolicyError(
                    f"relation is not transitive: ({x!r}, {sorted(missing)[0]!r}) is missing"
                )
    return frozenset(
        (x, y) for x in elems for y in succ[x].difference(*(succ[z] for z in succ[x]))
    )


def ensure_root(
    elements: frozenset[str], closure: frozenset[Arc], root_label: str = VIRTUAL_ROOT
) -> tuple[frozenset[str], frozenset[Arc], str, bool]:
    """Make the order rooted: identity if a unique maximum exists, otherwise
    add ``root_label`` above every element.

    Returns (elements, closure, root, added). Raises PolicyError if the
    reserved label is already taken when augmentation is needed.
    """
    non_maximal = {y for _, y in closure}
    maximal = sorted(elements - non_maximal)
    if len(maximal) == 1:
        return elements, closure, maximal[0], False
    if root_label in elements:
        raise PolicyError(f"reserved root label {root_label!r} already in use")
    new_elements = elements | {root_label}
    new_closure = closure | {(root_label, x) for x in elements}
    return frozenset(new_elements), frozenset(new_closure), root_label, True


@dataclass(frozen=True)
class Poset:
    """A rooted finite strict order over unique string labels.

    ``labels`` is the label index: the input labels sorted, then the
    virtual root if one was added. Bit j of ``strict_down[i]`` is set iff
    ``labels[i]`` is strictly above ``labels[j]``; ``strict_up`` is the
    converse. ``covers`` holds the cover arcs as pairs (x, y) with x above
    y, and ``root`` is the unique maximum, possibly the virtual one.

    ``closure`` (every strict-order pair) is decoded from the masks on
    first use; only the oracles and the tests read it. Each label's
    down-set is decoded on first request and kept, so repeated
    ``geq``/``leq`` queries are set lookups.
    """

    labels: tuple[str, ...]
    strict_down: tuple[int, ...]
    strict_up: tuple[int, ...]
    covers: frozenset[Arc]
    root: str
    virtual_root: bool = False
    _down_sets: dict[str, frozenset[str]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def from_arcs(
        cls,
        elements: Iterable[str],
        arcs: Iterable[Arc],
        *,
        root_label: str = VIRTUAL_ROOT,
    ) -> "Poset":
        """Normalize any generating arc set into a rooted poset.

        ``arcs`` may be any subset of the intended strict order whose
        closure is that order (cover arcs, the full order, or anything in
        between). Children come before parents: a label's down-mask is
        the OR of its input children's masks and bits, and its cover
        children are the input children inside no input child's mask
        (every label below it lies at or below some input child). Up-masks
        then flow down the covers, parents first.

        Raises CycleError on a directed cycle (self-loops included),
        UnknownLabelError on an arc naming a label outside ``elements``,
        and PolicyError if the root label is needed but already taken.
        """
        seen: set[str] = set()
        for lab in elements:
            if not isinstance(lab, str) or not lab:
                raise PolicyError(f"labels must be non-empty strings, got {lab!r}")
            if lab in seen:
                raise PolicyError(f"duplicate element {lab!r}")
            seen.add(lab)
        if not seen:
            raise PolicyError("a policy needs at least one element")
        labels = sorted(seen)
        children: dict[str, set[str]] = {lab: set() for lab in labels}
        for x, y in arcs:
            for lab in (x, y):
                if lab not in seen:
                    raise UnknownLabelError(f"arc ({x!r}, {y!r}) references unknown label {lab!r}")
            if x == y:
                raise CycleError(f"cycle detected: self-loop on {x!r}")
            children[x].add(y)
        index = {lab: i for i, lab in enumerate(labels)}
        order = [index[lab] for lab in _topological_order(children)]
        down = [0] * len(labels)
        cover_kids: list[list[int]] = [[] for _ in labels]
        for v in reversed(order):  # children first
            kids = [index[c] for c in children[labels[v]]]
            below = bits = 0
            for c in kids:
                below |= down[c]
                bits |= 1 << c
            down[v] = below | bits
            cover_kids[v] = [c for c in kids if not below >> c & 1]
        hidden = 0
        for mask in down:
            hidden |= mask
        maximal = [v for v in range(len(labels)) if not hidden >> v & 1]
        added = len(maximal) > 1
        if added:
            if root_label in seen:
                raise PolicyError(f"reserved root label {root_label!r} already in use")
            order.insert(0, len(labels))
            down.append((1 << len(labels)) - 1)
            labels.append(root_label)
            cover_kids.append(maximal)
            root = root_label
        else:
            root = labels[maximal[0]]
        up = [0] * len(labels)
        for v in order:  # parents first
            mask = up[v] | 1 << v
            for c in cover_kids[v]:
                up[c] |= mask
        covers = frozenset(
            (labels[v], labels[c]) for v, kids in enumerate(cover_kids) for c in kids
        )
        return cls(
            labels=tuple(labels),
            strict_down=tuple(down),
            strict_up=tuple(up),
            covers=covers,
            root=root,
            virtual_root=added,
        )

    # -- order queries ----------------------------------------------------

    @cached_property
    def elements(self) -> frozenset[str]:
        return frozenset(self.labels)

    @cached_property
    def sorted_elements(self) -> tuple[str, ...]:
        return tuple(sorted(self.labels))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        """The label's bit position in the masks."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def require(self, label: str) -> None:
        if label not in self._index:
            raise UnknownLabelError(f"unknown label {label!r}")

    def members(self, mask: int) -> list[str]:
        """The labels whose bits are set in ``mask``, in index order."""
        labels = self.labels
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return out

    def up_difference(self, z: str, y: str | None) -> list[str]:
        """The labels at or above z that are not at or above y (all of
        them when y is None)."""
        up = self.strict_up
        i = self.index(z)
        mask = up[i] | 1 << i
        if y is not None:
            j = self.index(y)
            mask &= ~(up[j] | 1 << j)
        return self.members(mask)

    def above(self, x: str, y: str) -> bool:
        """True iff x is strictly above y; False if either is not a label."""
        index = self._index
        try:
            return bool(self.strict_down[index[x]] >> index[y] & 1)
        except KeyError:
            return False

    @cached_property
    def closure(self) -> frozenset[Arc]:
        """Every strict-order pair (x, y), x above y, decoded from the masks."""
        return frozenset(
            (x, y) for x, mask in zip(self.labels, self.strict_down) for y in self.members(mask)
        )

    @property
    def closure_size(self) -> int:
        """The number of strict-order pairs, counted without decoding them."""
        return sum(mask.bit_count() for mask in self.strict_down)

    def down_set(self, x: str) -> frozenset[str]:
        """Every label at or below x (x included); decoded once per label."""
        try:
            return self._down_sets[x]
        except KeyError:
            i = self.index(x)
            found = self._down_sets[x] = frozenset(self.members(self.strict_down[i] | 1 << i))
            return found

    # geq and leq run hundreds of thousands of times on tiny posets, where a
    # set lookup beats a bit test; both read the cached down-sets.

    def geq(self, x: str, y: str) -> bool:
        """True iff x is at or above y (a non-label is above only itself)."""
        try:
            return y in self._down_sets[x]
        except KeyError:
            return y in self.down_set(x) if x in self._index else x == y

    def leq(self, x: str, y: str) -> bool:
        """True iff x is at or below y (a non-label is below only itself)."""
        try:
            return x in self._down_sets[y]
        except KeyError:
            return x in self.down_set(y) if y in self._index else x == y

    def cover_children(self, x: str) -> tuple[str, ...]:
        self.require(x)
        return tuple(sorted(y for p, y in self.covers if p == x))


@dataclass(frozen=True)
class UserAssignment:
    """How many users sit at each label. The virtual root never has users."""

    counts: Mapping[str, int]

    @classmethod
    def uniform(cls, poset: Poset, count: int = 1) -> "UserAssignment":
        values = {x: count for x in poset.sorted_elements}
        if poset.virtual_root:
            values[poset.root] = 0
        return cls(counts=values)

    @classmethod
    def from_counts(cls, poset: Poset, counts: Mapping[str, Any]) -> "UserAssignment":
        values = {x: 0 for x in poset.sorted_elements}
        for label, count in counts.items():
            poset.require(label)
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise PolicyError(f"user count for {label!r} must be a non-negative integer")
            if poset.virtual_root and label == poset.root and count != 0:
                raise PolicyError("the virtual root cannot have users assigned")
            values[label] = count
        return cls(counts=values)

    def count(self, label: str) -> int:
        return self.counts.get(label, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class ChainPartition:
    """Disjoint chains covering the whole poset, each listed top to bottom."""

    chains: tuple[tuple[str, ...], ...]

    def validate_for(self, poset: Poset) -> None:
        seen: set[str] = set()
        for chain in self.chains:
            if not chain:
                raise PolicyError("empty chain in partition")
            for label in chain:
                poset.require(label)
                if label in seen:
                    raise PolicyError(f"label {label!r} appears in more than one chain")
                seen.add(label)
            for upper, lower in zip(chain, chain[1:]):
                if not (poset.geq(upper, lower) and upper != lower):
                    raise PolicyError(
                        f"chain entries {upper!r}, {lower!r} are not strictly decreasing"
                    )
        if seen != set(poset.elements):
            missing = sorted(set(poset.elements) - seen)
            raise PolicyError(f"partition does not cover labels: {missing}")

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "ChainPartition":
        chains = check_fields(document, {"chains"}, "partition").get("chains")
        if not isinstance(chains, list) or not all(
            isinstance(c, list) and all(isinstance(lab, str) for lab in c) for c in chains
        ):
            raise PolicyError("partition document must map 'chains' to lists of string labels")
        return cls(chains=tuple(tuple(chain) for chain in chains))


def min_chain_partition(poset: Poset) -> ChainPartition:
    """A minimum chain partition (as many chains as the poset is wide).

    Computed as a minimum path cover of the strict order via maximum
    bipartite matching; ties are resolved lexicographically, so the result
    is deterministic.
    """
    order = poset.sorted_elements
    # already sorted: no strict down-set holds the virtual root, the rest is indexed sorted
    adjacency = {x: poset.members(poset.strict_down[poset.index(x)]) for x in order}
    successor = max_bipartite_matching(adjacency)
    has_predecessor = set(successor.values())
    chains: list[tuple[str, ...]] = []
    for head in order:
        if head in has_predecessor:
            continue
        chain = [head]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(tuple(chain))
    return ChainPartition(chains=tuple(chains))


def width(poset: Poset) -> int:
    """Size of a maximum antichain (equivalently, of a minimum chain partition)."""
    return len(min_chain_partition(poset).chains)


_POLICY_FIELDS = {"elements", "arcs", "users"}


def parse_policy(
    document: Mapping[str, Any], *, root_label: str = VIRTUAL_ROOT
) -> tuple[Poset, UserAssignment]:
    """Parse a policy document into a rooted poset and a user assignment.

    Document shape: {"elements": [label, ...], "arcs": [[x, y], ...],
    "users": {label: count}}. Arcs read "x is above y" and may be any
    generating subset of the intended order. "users" is optional: omitted
    entirely, every element gets one user; present, unlisted labels get
    zero. Unknown fields are rejected.
    """
    check_fields(document, _POLICY_FIELDS, "policy")
    elements = document.get("elements")
    if not isinstance(elements, list):
        raise PolicyError("policy must list 'elements'")
    arcs_raw = document.get("arcs", [])
    if not isinstance(arcs_raw, list):
        raise PolicyError("'arcs' must be a list of [upper, lower] pairs")
    arcs: list[Arc] = []
    for entry in arcs_raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise PolicyError(f"arc {entry!r} is not an [upper, lower] pair")
        x, y = entry
        if not isinstance(x, str) or not isinstance(y, str):
            raise PolicyError(f"arc {entry!r} must contain string labels")
        arcs.append((x, y))
    poset = Poset.from_arcs(elements, arcs, root_label=root_label)
    users_raw = document.get("users")
    if users_raw is None:
        users = UserAssignment.uniform(poset)
    else:
        if not isinstance(users_raw, Mapping):
            raise PolicyError("'users' must map labels to counts")
        users = UserAssignment.from_counts(poset, users_raw)
    return poset, users
