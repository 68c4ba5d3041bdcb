"""Finite partially ordered sets of security labels.

A label hierarchy is stored over a fixed label index: per label, the
labels strictly below and strictly above it as bitmasks, and the few
that cover it (its parents in the order's diagram) as a tuple of
indices. Neither the cover arcs nor the full strict order (the
transitive closure) is kept as pairs: ``oracles.covers`` and
``oracles.closure`` list them for the oracles and the tests. Every poset
is rooted: when the input order has more than one maximal label, a
virtual top label (``VIRTUAL_ROOT``, lengthened until no label takes it)
is placed above all of them so that every label is reachable from a
single point. Labels are unique non-empty strings that encode as UTF-8;
those bytes feed the key derivation PRF, so uniqueness matters beyond
aesthetics.

``transitive_closure``, ``transitive_reduction`` and ``ensure_root`` are
the set-based reference for the normalisation ``Poset.from_arcs`` does.

All values here are immutable and all operations are pure functions.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple

from .errors import CycleError, PolicyError, UnknownLabelError, check_fields
from .matching import max_bipartite_matching

#: The virtual top element's label, repeated until no policy label takes it.
VIRTUAL_ROOT = "⊤"

#: An ordered pair (x, y) read "x is above y" (x > y, or x covers y).
Arc = tuple[str, str]


def _topological_order(adjacency: Mapping[str, Iterable[str]]) -> tuple[list[str], list[str]]:
    """Some parents-first order of ``adjacency``, from which its callers build
    the same result, and its sources (no arc's lower end) in key order."""
    indegree = dict.fromkeys(adjacency, 0)
    for kids in adjacency.values():
        for w in kids:
            indegree[w] += 1
    sources = [v for v, d in indegree.items() if d == 0]
    queue, order = sources.copy(), []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in adjacency[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                queue.append(w)
    if len(order) != len(adjacency):
        raise CycleError("cycle detected: the order relation is not antisymmetric")
    return order, sources


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
    order, _ = _topological_order(adjacency)
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
    elements: frozenset[str], closure: frozenset[Arc]
) -> tuple[frozenset[str], frozenset[Arc], str, bool]:
    """Make the order rooted: identity if a unique maximum exists, otherwise
    add a virtual root above every element, named by the shortest run of
    ``VIRTUAL_ROOT`` that no element takes.

    Returns (elements, closure, root, added).
    """
    non_maximal = {y for _, y in closure}
    maximal = sorted(elements - non_maximal)
    if len(maximal) == 1:
        return elements, closure, maximal[0], False
    root = VIRTUAL_ROOT
    while root in elements:
        root += VIRTUAL_ROOT
    return elements | {root}, closure | {(root, x) for x in elements}, root, True


class Poset(NamedTuple):
    """A rooted finite strict order over unique string labels.

    ``labels`` is the label index: every label sorted, the virtual root
    (if one was added) included, so index order is sorted order, and
    ``positions`` maps each label to its index. Bit j of
    ``strict_down[i]`` is set iff ``labels[i]`` is strictly above
    ``labels[j]``; ``strict_up`` is the converse, and ``covers[i]`` lists
    the indices of the labels that cover ``labels[i]``, ascending.
    ``root`` is the unique maximum, possibly the virtual one.
    """

    labels: tuple[str, ...]
    positions: dict[str, int]
    strict_down: tuple[int, ...]
    strict_up: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    root: str
    virtual_root: bool

    @classmethod
    def from_arcs(cls, elements: Iterable[str], arcs: Iterable[Any]) -> "Poset":
        """Normalize any generating arc set into a rooted poset.

        ``arcs`` may be any subset of the intended strict order whose
        closure is that order (cover arcs, the full order, or anything in
        between), each an [upper, lower] pair, repeats allowed. One loop
        checks each pair and appends its lower end to its upper end's child
        list. When several labels are no arc's lower end, the virtual root
        is added above them before any mask is built, named ``VIRTUAL_ROOT``
        repeated as often as it takes to name no label. Children come before
        parents: a label's down-mask is the OR of its input children's
        masks and bits, and its covers are the input children inside no
        input child's mask (every label below it lies at or below some
        input child). Up-masks then flow down the covers, parents first.

        Raises CycleError on a directed cycle (self-loops included),
        UnknownLabelError on an arc naming a label outside ``elements``,
        and PolicyError on an arc that is not a pair of strings, or on a
        label that is empty or not UTF-8.
        """
        children: dict[str, list[str]] = {}
        for lab in elements:
            if not isinstance(lab, str) or not lab:
                raise PolicyError(f"each label must be a non-empty string, got {lab!r}")
            # its bytes feed the PRF; only lone surrogates fail the round trip
            if lab.encode("utf-8", "replace").decode("utf-8") != lab:
                raise PolicyError(f"each label {lab!r} does not encode as UTF-8")
            if lab in children:
                raise PolicyError(f"duplicate element {lab!r}")
            children[lab] = []
        if not children:
            raise PolicyError("a policy needs at least one element")
        for entry in arcs:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise PolicyError(f"arc {entry!r} is not an [upper, lower] pair")
            x, y = entry
            if not isinstance(x, str) or not isinstance(y, str):
                raise PolicyError(f"arc {entry!r} must contain string labels")
            for lab in (x, y):
                if lab not in children:
                    raise UnknownLabelError(f"arc ({x!r}, {y!r}) references unknown label {lab!r}")
            if x == y:
                raise CycleError(f"cycle detected: self-loop on {x!r}")
            children[x].append(y)
        topological, maximal = _topological_order(children)
        if len(maximal) > 1:
            root = VIRTUAL_ROOT
            while root in children:
                root += VIRTUAL_ROOT
            children[root] = maximal
            topological.insert(0, root)
        else:
            (root,) = maximal
        labels = sorted(children)
        index = {lab: i for i, lab in enumerate(labels)}
        order = [index[lab] for lab in topological]
        down = [0] * len(labels)
        covers: list[list[int]] = [[] for _ in labels]
        for v in reversed(order):  # children first
            below = bits = 0
            kids = dict.fromkeys(map(index.__getitem__, children[labels[v]]))  # repeats dropped
            for c in kids:
                below |= down[c]
                bits |= 1 << c
            down[v] = below | bits
            for c in kids:
                if not below >> c & 1:
                    covers[c].append(v)
        up = [0] * len(labels)
        for v in order:  # parents first
            for p in covers[v]:
                up[v] |= up[p] | 1 << p
        return cls(labels=tuple(labels), positions=index, strict_down=tuple(down),
                   strict_up=tuple(up), covers=tuple(tuple(sorted(p)) for p in covers),
                   root=root, virtual_root=len(maximal) > 1)

    # -- order queries ----------------------------------------------------

    def index(self, label: str) -> int:
        """The label's bit position in the masks, which is its sorted rank.
        Raises UnknownLabelError for a label outside the poset."""
        try:
            return self.positions[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def members(self, mask: int) -> list[str]:
        """The labels whose bits are set in ``mask``, in index order. The
        highest bit goes first, so the mask shrinks at every step: a wide
        mask costs a fraction of what clearing its lowest bit each time does."""
        labels = self.labels
        out = []
        while mask:
            top = mask.bit_length() - 1
            out.append(labels[top])
            mask ^= 1 << top
        out.reverse()
        return out

    def above(self, x: str, y: str) -> bool:
        """True iff x is strictly above y; False if either is not a label."""
        index = self.positions
        try:
            return bool(self.strict_down[index[x]] >> index[y] & 1)
        except KeyError:
            return False

    @property
    def closure_size(self) -> int:
        """The number of strict-order pairs, counted without decoding them."""
        return sum(mask.bit_count() for mask in self.strict_down)

    def down_set(self, x: str) -> frozenset[str]:
        """Every label at or below x (x included), decoded from its down-mask."""
        i = self.index(x)
        return frozenset(self.members(self.strict_down[i] | 1 << i))


def masked_sums(weights: list[int], masks: Iterable[int]) -> list[int]:
    """Each mask's sum of the non-negative ``weights`` at its set bits, by
    one popcount per bit plane of the weights."""
    planes = [(1 << b, sum(1 << i for i, w in enumerate(weights) if w >> b & 1))
              for b in range(max(weights).bit_length())]
    return [sum(w * (mask & plane).bit_count() for w, plane in planes) for mask in masks]


class ChainPartition(NamedTuple):
    """Disjoint chains covering the whole poset, each listed top to bottom."""

    chains: tuple[tuple[str, ...], ...]

    def validate_for(self, poset: Poset) -> None:
        seen: set[str] = set()
        for chain in self.chains:
            if not chain:
                raise PolicyError("empty chain in partition")
            for label in chain:
                poset.index(label)
                if label in seen:
                    raise PolicyError(f"label {label!r} appears more than once in the partition")
                seen.add(label)
            for upper, lower in zip(chain, chain[1:]):
                if not poset.above(upper, lower):
                    raise PolicyError(
                        f"chain entries {upper!r}, {lower!r} are not strictly decreasing"
                    )
        if seen != set(poset.labels):
            missing = sorted(set(poset.labels) - seen)
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

    Computed as a minimum path cover (Fulkerson) by a maximum bipartite
    matching over the down-masks, read as they are. Labels and mask bits
    are both in sorted order, so ties are resolved lexicographically and
    the result is deterministic.
    """
    labels = poset.labels
    successor = max_bipartite_matching(poset.strict_down)
    chains: list[tuple[str, ...]] = []
    for head in sorted(set(range(len(labels))).difference(successor.values())):
        chain = [head]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(tuple(labels[i] for i in chain))
    return ChainPartition(chains=tuple(chains))


def width(poset: Poset) -> int:
    """Size of a maximum antichain (equivalently, of a minimum chain partition)."""
    return len(min_chain_partition(poset).chains)


_POLICY_FIELDS = {"elements", "arcs", "users"}


def parse_policy(document: Mapping[str, Any]) -> tuple[Poset, dict[str, int]]:
    """Parse a policy document into a rooted poset and its user counts,
    a ``label -> count`` dict over every label of the poset.

    Document shape: {"elements": [label, ...], "arcs": [[x, y], ...],
    "users": {label: count}}. Arcs read "x is above y" and may be any
    generating subset of the intended order; ``Poset.from_arcs`` checks
    each. "users" is optional: omitted entirely, every element gets one
    user; present, unlisted labels get zero. The virtual root never has
    users. Unknown fields are rejected.
    """
    check_fields(document, _POLICY_FIELDS, "policy")
    elements = document.get("elements")
    if not isinstance(elements, list):
        raise PolicyError("policy must list 'elements'")
    arcs = document.get("arcs", [])
    if not isinstance(arcs, list):
        raise PolicyError("'arcs' must be a list of [upper, lower] pairs")
    poset = Poset.from_arcs(elements, arcs)
    users_raw = document.get("users")
    if users_raw is not None and not isinstance(users_raw, Mapping):
        raise PolicyError("'users' must map labels to counts")
    users = dict.fromkeys(poset.labels, 1 if users_raw is None else 0)
    if poset.virtual_root:
        users[poset.root] = 0
    for label, count in (users_raw or {}).items():
        poset.index(label)
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise PolicyError(f"user count for {label!r} must be a non-negative integer")
        if poset.virtual_root and label == poset.root and count != 0:
            raise PolicyError("the virtual root cannot have users assigned")
        users[label] = count
    return poset, users
