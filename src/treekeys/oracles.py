"""Brute-force references and randomized self-checks.

Everything in this module favors obviousness over speed: trees are
enumerated outright, start-point sets are evaluated straight from their
set-builder definitions, and reachability is walked explicitly. The
optimized code paths are certified against these references at small
scale, and ``run_suite`` packages the whole battery behind one report.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from . import kdf
from .allocation import canonical_allocation, validate_enforcement
from .errors import AuthorizationError, PolicyError
from .poset import (
    Arc,
    Poset,
    transitive_closure,
    transitive_reduction,
    width,
)
from .trees import (
    DerivationOutTree,
    min_leaf_out_tree,
    min_weight_out_tree,
    weight_function,
)

#: Largest label count enumeration accepts.
TREE_ENUMERATION_MAX_LABELS = 9


L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)


class EnumerationBudgetError(RuntimeError):
    """The instance has too many spanning out-trees to enumerate."""


def random_poset(element_count: int, edge_density: float, seed: int) -> Poset:
    """A random rooted poset, deterministic in ``seed``.

    Labels are the first ``element_count`` lowercase letters ordered so
    later letters sit higher; each pair is related with probability
    ``edge_density``, and a virtual root may be added on top.
    """
    if not 1 <= element_count <= 12:
        raise PolicyError("element_count must be between 1 and 12")
    rng = random.Random(seed)
    labels = list("abcdefghijkl"[:element_count])
    arcs = []
    for i in range(element_count):
        for j in range(i + 1, element_count):
            if rng.random() < edge_density:
                arcs.append((labels[j], labels[i]))
    return Poset.from_arcs(labels, arcs)


def random_users(poset: Poset, seed: int, *, high: int = 3) -> dict[str, int]:
    """Random per-label user counts from 0 to ``high``, none at a virtual
    root, deterministic in ``seed``."""
    rng = random.Random(seed)
    counts = {x: rng.randint(0, high) for x in poset.labels}
    if poset.virtual_root:
        counts[poset.root] = 0
    return counts


def covers(poset: Poset) -> frozenset[Arc]:
    """Every cover pair (x, y), x covering y, read off the cover tuples."""
    labels = poset.labels
    return frozenset((labels[x], y) for y, ps in zip(labels, poset.covers) for x in ps)


def closure(poset: Poset) -> frozenset[Arc]:
    """Every strict-order pair (x, y), x above y, decoded from the masks."""
    return frozenset(
        (x, y) for x, mask in zip(poset.labels, poset.strict_down) for y in poset.members(mask)
    )


def _in_arc_lists(poset: Poset, candidate_arcs: Iterable[Arc]) -> dict[str, list[str]]:
    arcs = frozenset(candidate_arcs)
    stray = [arc for arc in arcs if not poset.above(*arc)]
    if stray:
        raise PolicyError(f"candidate arcs outside the strict order: {sorted(stray)[:3]}")
    by_child: dict[str, list[str]] = {x: [] for x in poset.labels if x != poset.root}
    for y, z in arcs:
        if z != poset.root:
            by_child[z].append(y)
    for child, parents in by_child.items():
        if not parents:
            raise PolicyError(f"label {child!r} has no candidate in-arc; tree cannot span it")
        parents.sort()
    return by_child


def _parent_tuples(
    poset: Poset, candidate_arcs: Iterable[Arc]
) -> tuple[list[str], Iterator[tuple[str, ...]]]:
    """The non-root labels, sorted, and every spanning out-tree as a tuple
    of their parents in that order.

    Each non-root label independently picks one candidate in-arc; the
    Cartesian product of those picks ranges over exactly the spanning
    out-trees. Every candidate lies above its child, so in a linear
    extension the k-th label below the root has at most k: 9 labels give
    at most 8! = 40,320 trees. A larger poset is refused before any tuple.
    """
    if len(poset.labels) > TREE_ENUMERATION_MAX_LABELS:
        raise EnumerationBudgetError(
            f"instance has {len(poset.labels)} labels; limit is {TREE_ENUMERATION_MAX_LABELS}"
        )
    by_child = _in_arc_lists(poset, candidate_arcs)
    children = sorted(by_child)
    return children, itertools.product(*(by_child[c] for c in children))


def enumerate_out_trees(
    poset: Poset, candidate_arcs: Iterable[Arc]
) -> Iterator[DerivationOutTree]:
    """Yield every spanning out-tree exactly once (see ``_parent_tuples``)."""
    children, combos = _parent_tuples(poset, candidate_arcs)
    for combo in combos:
        yield DerivationOutTree(root=poset.root, parent=dict(zip(children, combo)))


def extra_key_labels(poset: Poset, arc: Arc) -> frozenset[str]:
    """Labels whose holders need the arc's child as an extra start point.

    For arc (y, z) these are the labels at or above z that do not dominate
    y: if (y, z) is the tree's only way into z, holders at such labels can
    no longer reach z through y and must start at z directly. The root
    never qualifies.
    """
    y, z = arc
    above = poset.above
    if not above(y, z):
        raise PolicyError(f"({y!r}, {z!r}) is not an arc of the strict order")
    return frozenset(
        x for x in poset.labels if (x == z or above(x, z)) and not (x == y or above(x, y))
    )


def charged_sets(poset: Poset, arcs: Iterable[Arc]) -> dict[Arc, frozenset[str]]:
    """Each arc's ``extra_key_labels``: the one literal table that the
    enumerations, the literal allocations and the battery's checks read."""
    return {arc: extra_key_labels(poset, arc) for arc in arcs}


def _literal_arc_weights(
    users: Mapping[str, int], charged: Mapping[Arc, frozenset[str]]
) -> dict[Arc, int]:
    return {arc: sum(users.get(x, 0) for x in labels) for arc, labels in charged.items()}


def _tuple_weights(
    poset: Poset, users: Mapping[str, int], charged: Mapping[Arc, frozenset[str]]
) -> tuple[list[str], Iterator[tuple[int, tuple[str, ...]]]]:
    """Every spanning out-tree over the arcs of ``charged`` as
    ``_parent_tuples`` gives it, paired with its total literal arc cost."""
    children, combos = _parent_tuples(poset, charged)
    column: dict[str, dict[str, int]] = {c: {} for c in children}
    for (y, z), w in _literal_arc_weights(users, charged).items():
        column[z][y] = w
    tables = [column[c] for c in children]
    return children, (
        (sum(table[p] for table, p in zip(tables, combo)), combo) for combo in combos
    )


def brute_min_weight(
    poset: Poset, users: Mapping[str, int], charged: Mapping[Arc, frozenset[str]]
) -> tuple[int, DerivationOutTree]:
    """Exhaustive minimum total arc cost over all spanning out-trees on the
    candidate arcs of ``charged`` (see ``charged_sets``); the tree is the
    first cheapest one in enumeration order."""
    children, weighted = _tuple_weights(poset, users, charged)
    best_weight, best = min(weighted, key=lambda pair: pair[0])
    return best_weight, DerivationOutTree(root=poset.root, parent=dict(zip(children, best)))


def brute_min_leaf_count(
    poset: Poset, users: Mapping[str, int], charged: Mapping[Arc, frozenset[str]]
) -> tuple[int, int]:
    """The least ``(total arc cost, leaf count)`` over all spanning
    out-trees on the candidate arcs of ``charged``, by enumeration: the
    minimum cost, and the fewest leaves among the trees that reach it.

    A tree's leaves are the labels that are nobody's parent."""
    _, weighted = _tuple_weights(poset, users, charged)
    n = len(poset.labels)
    return min((total, n - len(set(combo))) for total, combo in weighted)


def list_bipartite_matching(adjacency: Mapping[L, Sequence[R]]) -> dict[L, R]:
    """A maximum matching by Hopcroft-Karp over adjacency lists, as a
    left-to-right map.

    The reference for ``matching.max_bipartite_matching``, which runs the
    same phases over bit masks: given each left's rights as a sorted list
    of bit positions, in left index order, it must pick the same pairs.
    Lefts are searched in the mapping's order and rights in list order;
    every edge is read in both phases.
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
                below = dist[frame[0]] + 1
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


def rematching_min_leaf_tree(
    poset: Poset, users: Mapping[str, int], candidate_arcs: Iterable[Arc]
) -> DerivationOutTree:
    """The min-leaf tree by a fresh maximum matching for every candidate.

    The reference for ``trees.min_leaf_out_tree``, which repairs one
    matching instead: the same greedy over each label's cheapest parents
    (from the literal arc weights) fixes the lexicographically smallest
    parent whose residual matching still reaches the maximum.
    """
    charged = charged_sets(poset, candidate_arcs)  # read twice below
    weights = _literal_arc_weights(users, charged)
    cheapest: dict[str, list[str]] = {}
    for child, parents in _in_arc_lists(poset, charged).items():
        least = min(weights[(p, child)] for p in parents)
        cheapest[child] = [p for p in parents if weights[(p, child)] == least]
    children = sorted(cheapest)
    target = len(list_bipartite_matching(cheapest))
    chosen: dict[str, str] = {}
    used: set[str] = set()
    for i, child in enumerate(children):
        rest = children[i + 1 :]
        for cand in cheapest[child]:
            image = used | {cand}
            residual = {r: [p for p in cheapest[r] if p not in image] for r in rest}
            if len(image) + len(list_bipartite_matching(residual)) >= target:
                chosen[child] = cand
                used = image
                break
        else:
            raise AssertionError("no feasible parent choice; matching invariant broken")
    return DerivationOutTree(root=poset.root, parent=chosen)


def allocation_by_definition(
    poset: Poset, tree: DerivationOutTree, charged: Mapping[Arc, frozenset[str]]
) -> dict[str, tuple[str, ...]]:
    """Start points transcribed literally from their set-builder definition:
    a non-root label x starts at z for every tree arc (y, z) that strands
    x, that is, whose extra-key labels in ``charged`` hold x. The arcs
    come sorted by child, so each label's start points are in label order."""
    arcs = tree.arcs()
    phi: dict[str, tuple[str, ...]] = {}
    for x in poset.labels:
        if x == tree.root:
            phi[x] = (x,)
        else:
            phi[x] = tuple(z for y, z in arcs if x in charged[(y, z)])
    return phi


def brute_width(poset: Poset) -> int:
    """Maximum antichain size by subset enumeration (12 labels or fewer).

    Every subset of an antichain is one, so sizes are tried upward and the
    first size with no antichain ends the search.
    """
    order = poset.labels
    if len(order) > 12:
        raise EnumerationBudgetError("brute-force width limited to 12 labels")
    best = 0
    for size in range(1, len(order) + 1):
        if not any(
            all(
                not poset.above(a, b) and not poset.above(b, a)
                for a, b in itertools.combinations(combo, 2)
            )
            for combo in itertools.combinations(order, size)
        ):
            break
        best = size
    return best


def brute_reduction(closure: Iterable[Arc], elements: Iterable[str]) -> frozenset[Arc]:
    """Delete each arc exactly when a two-step path in the closure implies it."""
    pairs = set(closure)
    elems = set(elements)
    return frozenset(
        (x, y)
        for x, y in pairs
        if not any((x, z) in pairs and (z, y) in pairs for z in elems)
    )


def coalition_reachability(
    poset: Poset,
    tree: DerivationOutTree,
    allocation: Mapping[str, Iterable[str]],
    coalition: Iterable[str],
) -> frozenset[str]:
    """Labels whose secrets a coalition can compute from its pooled bundles.

    Walks the tree explicitly: start from every member's start points and
    close under tree children. For a sound scheme this equals the union of
    the members' down-sets.
    """
    members = sorted(set(coalition))
    for v in members:
        poset.index(v)
    kids = tree.children()
    reached: set[str] = set()
    frontier: list[str] = []
    for v in members:
        frontier.extend(allocation[v])
    while frontier:
        z = frontier.pop()
        if z in reached:
            continue
        reached.add(z)
        frontier.extend(kids[z])
    return frozenset(reached)


# -- randomized battery -------------------------------------------------------


class CheckResult:
    """Aggregated outcome of one named check across all instances."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.passed = True
        self.instances = 0
        self.counterexample: dict[str, Any] | None = None

    @property
    def skipped(self) -> bool:  # no instance reached it: not a pass
        return self.instances == 0

    def record(self, ok: bool, payload: dict[str, Any]) -> None:
        self.instances += 1
        if not ok and self.passed:
            self.passed = False
            self.counterexample = payload


class VerificationReport:
    def __init__(self, checks: list[CheckResult]) -> None:
        self.checks = checks
        self.elapsed_seconds = 0.0
        self.skip_reason: str | None = None  # why the policy itself was not examined

    @property
    def passed(self) -> bool:
        """False whenever the policy went unexamined, whatever the random
        instances showed."""
        return self.skip_reason is None and all(c.passed and not c.skipped for c in self.checks)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "skip_reason": self.skip_reason,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed and not c.skipped,
                    "instances": c.instances,
                    "counterexample": c.counterexample,
                    "skipped": c.skipped,
                }
                for c in self.checks
            ],
        }


_CHECK_NAMES = (
    "closure-reduction-roundtrip",
    "width-vs-bruteforce",
    "tree-weight-vs-enumeration",
    "cover-vs-closure-minimum",
    "min-leaf-vs-enumeration",
    "allocation-vs-definition",
    "allocation-enforces-policy",
    "invalid-allocation-detected",
    "charge-set-algebra",
    "path-weight-superadditivity",
    "weighted-key-identity",
    "secret-key-distinctness",
    "derive-correctness",
    "derive-refusal",
    "coalition-reachability",
)


def _charge_set_algebra_ok(poset: Poset, charged: Mapping[Arc, frozenset[str]]) -> bool:
    # over the closure's charged sets: stacked arcs charge disjoint label
    # sets, and a shortcut arc charges exactly their union
    for x, y in charged:
        for z in poset.labels:
            if (y, z) in charged:
                upper, lower = charged[(x, y)], charged[(y, z)]
                if upper & lower or charged[(x, z)] != upper | lower:
                    return False
    return True


def _path_superadditivity_ok(
    poset: Poset, users: Mapping[str, int], charged: Mapping[Arc, frozenset[str]]
) -> bool:
    # over the closure's charged sets: a shortcut arc costs exactly the sum
    # of the arcs along any path below it
    weights = _literal_arc_weights(users, charged)
    succ: dict[str, list[str]] = {x: [] for x in poset.labels}
    for x, y in weights:
        succ[x].append(y)
    paths = list(weights.items())  # ((head, tail), cost along the path), one arc long
    while paths:
        (head, tail), total = paths.pop()
        for nxt in succ[tail]:
            longer = total + weights[(tail, nxt)]
            if weights[(head, nxt)] != longer:
                return False
            paths.append(((head, nxt), longer))
    return True


def _sample_coalitions(poset: Poset, seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    singles = [(x,) for x in poset.labels]
    extra = []
    pool = list(poset.labels)
    for size in (2, 3):
        if len(pool) >= size:
            extra.append(tuple(sorted(rng.sample(pool, size))))
    return singles + extra


def _examine_instance(
    poset: Poset,
    users: Mapping[str, int],
    seed: int,
    results: dict[str, CheckResult],
    payload: dict[str, Any],
) -> None:
    """Run the full battery on one instance, recording into ``results``."""
    cover_pairs, closure_pairs = covers(poset), closure(poset)
    charged = charged_sets(poset, closure_pairs)
    cover_charged = {arc: charged[arc] for arc in cover_pairs}
    ok = (
        transitive_closure(cover_pairs, poset.labels) == closure_pairs
        and transitive_reduction(closure_pairs, poset.labels) == cover_pairs
        and brute_reduction(closure_pairs, poset.labels) == cover_pairs
    )
    results["closure-reduction-roundtrip"].record(ok, payload)

    results["width-vs-bruteforce"].record(width(poset) == brute_width(poset), payload)

    wf = weight_function(poset, users, closure_pairs)  # every cover arc is a closure arc
    tree = min_weight_out_tree(poset, users)
    optimized = sum(wf[a] for a in tree.arcs())
    brute_weight, brute_leaves = brute_min_leaf_count(poset, users, cover_charged)
    results["tree-weight-vs-enumeration"].record(optimized == brute_weight, payload)

    closure_tree = min_weight_out_tree(poset, users, closure=True)
    closure_optimized = sum(wf[a] for a in closure_tree.arcs())
    closure_brute, _ = brute_min_weight(poset, users, charged)
    results["cover-vs-closure-minimum"].record(
        optimized == closure_brute == closure_optimized == brute_weight, payload
    )

    few_leaves = min_leaf_out_tree(poset, users)
    results["min-leaf-vs-enumeration"].record(
        sum(wf[a] for a in few_leaves.arcs()) == brute_weight
        and len(few_leaves.leaves()) == brute_leaves,
        payload,
    )

    allocation = canonical_allocation(poset, tree)
    results["allocation-vs-definition"].record(
        allocation == allocation_by_definition(poset, tree, charged), payload
    )
    results["allocation-enforces-policy"].record(
        not validate_enforcement(poset, tree, allocation), payload
    )

    # a broken allocation must be flagged: strip a non-trivial start point,
    # or (for trees where every set is a singleton) inflate one instead
    tampered = {x: set(points) for x, points in allocation.items()}
    stripped = False
    for x in sorted(tampered):
        extras = sorted(tampered[x] - {x})
        if extras:
            tampered[x].discard(extras[0])
            stripped = True
            break
    if not stripped:
        for x in sorted(tampered):
            outside = sorted(set(poset.labels) - poset.down_set(x))
            if outside:
                tampered[x].add(outside[0])
                break
    bad = {x: tuple(sorted(v)) for x, v in tampered.items()}
    detected = bad == allocation or bool(validate_enforcement(poset, tree, bad))
    results["invalid-allocation-detected"].record(detected, payload)

    results["charge-set-algebra"].record(_charge_set_algebra_ok(poset, charged), payload)
    results["path-weight-superadditivity"].record(
        _path_superadditivity_ok(poset, users, charged), payload
    )

    # the per-user key total must equal the tree's total arc cost, for any
    # tree, not just the optimal one: the first 20 cover trees stand in
    identity_ok = True
    for other in itertools.islice(enumerate_out_trees(poset, cover_pairs), 20):
        other_alloc = allocation_by_definition(poset, other, charged)
        lhs = sum(
            users.get(x, 0) * len(other_alloc[x]) for x in poset.labels if x != poset.root
        )
        if lhs != sum(wf[a] for a in other.arcs()):
            identity_ok = False
            break
    results["weighted-key-identity"].record(identity_ok, payload)

    store = kdf.setup(tree, rng=kdf.seeded_bytes(seed.to_bytes(8, "big")))
    values = list(store.secrets.values()) + list(store.keys.values())
    results["secret-key-distinctness"].record(len(set(values)) == len(values), payload)
    derive_ok = True
    refusal_ok = True
    for x in poset.labels:  # each bundle from the allocation certified above
        bundle = kdf.SigmaBundle(x, {z: store.secrets[z] for z in allocation[x]})
        for y in poset.labels:
            if y == x or (x, y) in closure_pairs:
                try:  # refusing a bundle of the allocation as malformed fails too
                    derive_ok &= kdf.derive(poset, tree, bundle, y) == store.keys[y]
                except PolicyError:
                    derive_ok = False
            else:
                try:
                    kdf.derive(poset, tree, bundle, y)
                    refusal_ok = False
                except AuthorizationError:
                    pass
    results["derive-correctness"].record(derive_ok, payload)
    results["derive-refusal"].record(refusal_ok, payload)

    coalition_ok = True
    for coalition in _sample_coalitions(poset, seed):
        reachable = coalition_reachability(poset, tree, allocation, coalition)
        expected: set[str] = set()
        for v in coalition:
            expected |= poset.down_set(v)
        if reachable != frozenset(expected):
            coalition_ok = False
            break
    results["coalition-reachability"].record(coalition_ok, payload)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _examine_block(
    block: range, base_seed: int, results: dict[str, CheckResult] | None = None
) -> dict[str, CheckResult]:
    """Examine the random instances ``base_seed + i`` for i in ``block``,
    in order, recording into ``results`` (fresh ones if not given)."""
    if results is None:
        results = {name: CheckResult(name=name) for name in _CHECK_NAMES}
    for i in block:
        seed = base_seed + i
        element_count, edge_density = 4 + i % 4, 0.15 + 0.08 * (i % 5)
        instance = random_poset(element_count, edge_density, seed)
        instance_users = random_users(instance, seed + 10_000)
        payload = {
            "instance": "random",
            "seed": seed,
            "element_count": element_count,
            "edge_density": round(edge_density, 3),
        }
        _examine_instance(instance, instance_users, seed, results, payload)
    return results


def _fork_worker(block: range, base_seed: int) -> int:
    """Fork a process that examines ``block`` and return its pid. The
    child's exit status is its report: 0 only when every check passed on
    all of ``block``, 1 after a failure or an exception, which the caller
    finds again by examining the block itself. The child leaves through
    ``os._exit`` whatever happens, so it never returns into the caller's
    stack."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        results = _examine_block(block, base_seed)
        if all(c.passed and c.instances == len(block) for c in results.values()):
            code = 0
    finally:
        os._exit(code)


def run_suite(
    poset: Poset,
    users: Mapping[str, int],
    *,
    seeds: int = 0,
    base_seed: int = 0,
) -> VerificationReport:
    """Run the battery on the given policy, then on ``seeds`` random instances.

    Random instances stay small enough (at most 8 labels) for exhaustive
    enumeration to act as the reference. A larger policy is not examined,
    so with no random instances every check is skipped and none passes.

    Each instance depends on its index alone, so ``range(seeds)`` is cut
    into one contiguous block per usable CPU. One forked worker per block
    but the first examines its block while this process examines the
    policy and the first block. A worker reports only whether its block
    passed, through its exit status; this process examines again, in
    block order, every block that did not pass, so a failure's
    counterexample, an exception, or a worker that died is met here just
    as a single process would meet it. Workers are forked, not spawned, so
    they start with every module already imported; the command-line
    process runs no other thread for a fork to copy mid-lock.
    """
    start = time.perf_counter()
    k = max(1, min(_usable_cpus(), seeds)) if hasattr(os, "fork") else 1
    cuts = [seeds * b // k for b in range(k + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    results = {name: CheckResult(name=name) for name in _CHECK_NAMES}
    report = VerificationReport(checks=[results[name] for name in _CHECK_NAMES])
    workers: list[int] = []  # pids not yet reaped
    try:
        for block in blocks[1:]:
            workers.append(_fork_worker(block, base_seed))
        n = len(poset.labels)
        if n <= TREE_ENUMERATION_MAX_LABELS:
            _examine_instance(poset, users, base_seed, results, {"instance": "policy"})
        else:
            limit = TREE_ENUMERATION_MAX_LABELS
            report.skip_reason = f"{n} labels, over the enumeration limit of {limit}"
        _examine_block(blocks[0], base_seed, results)
        for block in blocks[1:]:
            _, status = os.waitpid(workers.pop(0), 0)
            if status == 0:
                for result in results.values():
                    result.instances += len(block)
            else:
                _examine_block(block, base_seed, results)
    finally:
        for pid in workers:  # only after an error: let the rest finish
            os.waitpid(pid, 0)
    report.elapsed_seconds = time.perf_counter() - start
    return report
