"""Brute-force references and randomized self-checks.

Everything in this module favors obviousness over speed: trees are
enumerated outright, start-point sets are evaluated straight from their
set-builder definitions, and reachability is walked explicitly. The
optimized code paths are certified against these references at small
scale, and ``run_suite`` packages the whole battery behind one report.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import string
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from . import kdf
from .allocation import KeyAllocation, canonical_allocation, validate_enforcement
from .errors import AuthorizationError, PolicyError
from .matching import max_bipartite_matching
from .poset import (
    Arc,
    Poset,
    UserAssignment,
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

#: Hard cap on how many spanning out-trees an enumeration may visit.
TREE_ENUMERATION_LIMIT = 10**6

#: Largest label count enumeration accepts.
TREE_ENUMERATION_MAX_LABELS = 9


class EnumerationBudgetError(RuntimeError):
    """The instance has too many spanning out-trees to enumerate."""


@dataclass(frozen=True)
class RandomPosetSpec:
    """Deterministic recipe for a random rooted poset."""

    element_count: int
    edge_density: float
    seed: int


def random_poset(spec: RandomPosetSpec) -> Poset:
    """A random rooted poset, deterministic in the spec's seed.

    Labels are the first ``element_count`` lowercase letters ordered so
    later letters sit higher; a virtual root may be added on top.
    """
    if not 1 <= spec.element_count <= 12:
        raise PolicyError("element_count must be between 1 and 12")
    rng = random.Random(spec.seed)
    labels = list(string.ascii_lowercase[: spec.element_count])
    arcs = []
    for i in range(spec.element_count):
        for j in range(i + 1, spec.element_count):
            if rng.random() < spec.edge_density:
                arcs.append((labels[j], labels[i]))
    return Poset.from_arcs(labels, arcs)


def random_users(poset: Poset, seed: int, *, low: int = 0, high: int = 3) -> UserAssignment:
    """Random per-label user counts, deterministic in ``seed``."""
    rng = random.Random(seed)
    counts = {x: rng.randint(low, high) for x in poset.sorted_elements}
    if poset.virtual_root:
        counts[poset.root] = 0
    return UserAssignment.from_counts(poset, counts)


def _in_arc_lists(poset: Poset, candidate_arcs: Iterable[Arc] | None) -> dict[str, list[str]]:
    arcs = poset.covers if candidate_arcs is None else frozenset(candidate_arcs)
    stray = arcs - poset.closure
    if stray:
        raise PolicyError(f"candidate arcs outside the strict order: {sorted(stray)[:3]}")
    by_child: dict[str, list[str]] = {x: [] for x in poset.sorted_elements if x != poset.root}
    for y, z in arcs:
        if z != poset.root:
            by_child[z].append(y)
    for child, parents in by_child.items():
        if not parents:
            raise PolicyError(f"label {child!r} has no candidate in-arc; tree cannot span it")
        parents.sort()
    return by_child


def _parent_tuples(
    poset: Poset, candidate_arcs: Iterable[Arc] | None
) -> tuple[list[str], Iterator[tuple[str, ...]]]:
    """The non-root labels, sorted, and every spanning out-tree as a tuple
    of their parents in that order.

    Each non-root label independently picks one candidate in-arc; the
    Cartesian product of those picks ranges over exactly the spanning
    out-trees. Refuses instances beyond the enumeration budget before
    the first tuple.
    """
    if len(poset.elements) > TREE_ENUMERATION_MAX_LABELS:
        raise EnumerationBudgetError(
            f"instance has {len(poset.elements)} labels; limit is {TREE_ENUMERATION_MAX_LABELS}"
        )
    by_child = _in_arc_lists(poset, candidate_arcs)
    children = sorted(by_child)
    count = math.prod(len(by_child[c]) for c in children)
    if count > TREE_ENUMERATION_LIMIT:
        raise EnumerationBudgetError(f"{count} spanning out-trees exceed the enumeration budget")
    return children, itertools.product(*(by_child[c] for c in children))


def enumerate_out_trees(
    poset: Poset, candidate_arcs: Iterable[Arc] | None = None
) -> Iterator[DerivationOutTree]:
    """Yield every spanning out-tree exactly once (see ``_parent_tuples``)."""
    children, combos = _parent_tuples(poset, candidate_arcs)
    for combo in combos:
        yield DerivationOutTree(root=poset.root, parent=dict(zip(children, combo)))


def _literal_arc_weights(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None
) -> dict[Arc, int]:
    arcs = poset.covers if candidate_arcs is None else frozenset(candidate_arcs)
    weights: dict[Arc, int] = {}
    for y, z in arcs:
        total = 0
        for x in poset.elements:
            if (x == z or (x, z) in poset.closure) and not (x == y or (x, y) in poset.closure):
                total += users.count(x)
        weights[(y, z)] = total
    return weights


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
    return frozenset(
        x
        for x in poset.elements
        if (x == z or (x, z) in poset.closure) and not (x == y or (x, y) in poset.closure)
    )


def _tuple_weights(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None
) -> tuple[list[str], Iterator[tuple[int, tuple[str, ...]]]]:
    """Every spanning out-tree as ``_parent_tuples`` gives it, paired with
    its total literal arc cost."""
    if candidate_arcs is not None:
        candidate_arcs = frozenset(candidate_arcs)  # read twice below
    children, combos = _parent_tuples(poset, candidate_arcs)
    column: dict[str, dict[str, int]] = {c: {} for c in children}
    for (y, z), w in _literal_arc_weights(poset, users, candidate_arcs).items():
        column[z][y] = w
    tables = [column[c] for c in children]
    return children, (
        (sum(table[p] for table, p in zip(tables, combo)), combo) for combo in combos
    )


def brute_min_weight(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None = None
) -> tuple[int, DerivationOutTree]:
    """Exhaustive minimum total arc cost over all spanning out-trees; the
    tree is the first cheapest one in enumeration order."""
    children, weighted = _tuple_weights(poset, users, candidate_arcs)
    best_weight, best = min(weighted, key=lambda pair: pair[0])
    return best_weight, DerivationOutTree(root=poset.root, parent=dict(zip(children, best)))


def brute_min_leaf_count(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None = None
) -> int:
    """Fewest leaves among minimum-cost spanning out-trees, by enumeration.

    A tree's leaves are the labels that are nobody's parent."""
    _, weighted = _tuple_weights(poset, users, candidate_arcs)
    n = len(poset.elements)
    return min((total, n - len(set(combo))) for total, combo in weighted)[1]


def rematching_min_leaf_tree(
    poset: Poset, users: UserAssignment, candidate_arcs: Iterable[Arc] | None = None
) -> DerivationOutTree:
    """The min-leaf tree by a fresh maximum matching for every candidate.

    The reference for ``trees.min_leaf_out_tree``, which repairs one
    matching instead: the same greedy over each label's cheapest parents
    (from the literal arc weights) fixes the lexicographically smallest
    parent whose residual matching still reaches the maximum.
    """
    weights = _literal_arc_weights(poset, users, candidate_arcs)
    cheapest: dict[str, list[str]] = {}
    for child, parents in _in_arc_lists(poset, candidate_arcs).items():
        least = min(weights[(p, child)] for p in parents)
        cheapest[child] = [p for p in parents if weights[(p, child)] == least]
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
        else:
            raise AssertionError("no feasible parent choice; matching invariant broken")
    return DerivationOutTree(root=poset.root, parent=chosen)


def allocation_by_definition(poset: Poset, tree: DerivationOutTree) -> KeyAllocation:
    """Start points transcribed literally from their set-builder definition."""
    arcs = [(p, c) for c, p in tree.parent.items()]
    phi: dict[str, frozenset[str]] = {}
    for x in poset.elements:
        if x == tree.root:
            phi[x] = frozenset({x})
        else:
            phi[x] = frozenset(
                z
                for y, z in arcs
                if (x == z or (x, z) in poset.closure) and not (x, y) in poset.closure and x != y
            )
    return KeyAllocation(phi=phi)


def brute_width(poset: Poset) -> int:
    """Maximum antichain size by subset enumeration (12 labels or fewer)."""
    order = poset.sorted_elements
    if len(order) > 12:
        raise EnumerationBudgetError("brute-force width limited to 12 labels")
    best = 0
    for size in range(len(order), best, -1):
        for combo in itertools.combinations(order, size):
            if all(
                (a, b) not in poset.closure and (b, a) not in poset.closure
                for a, b in itertools.combinations(combo, 2)
            ):
                best = size
                break
        if best:
            break
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
    allocation: KeyAllocation,
    coalition: Iterable[str],
) -> frozenset[str]:
    """Labels whose secrets a coalition can compute from its pooled bundles.

    Walks the tree explicitly: start from every member's start points and
    close under tree children. For a sound scheme this equals the union of
    the members' down-sets.
    """
    members = sorted(set(coalition))
    for v in members:
        poset.require(v)
    kids = tree.children_map()
    reached: set[str] = set()
    frontier: list[str] = []
    for v in members:
        frontier.extend(allocation.phi[v])
    while frontier:
        z = frontier.pop()
        if z in reached:
            continue
        reached.add(z)
        frontier.extend(kids[z])
    return frozenset(reached)


# -- randomized battery -------------------------------------------------------


@dataclass
class CheckResult:
    """Aggregated outcome of one named check across all instances."""

    name: str
    passed: bool = True
    instances: int = 0
    counterexample: dict[str, Any] | None = None

    @property
    def skipped(self) -> bool:  # no instance reached it: not a pass
        return self.instances == 0

    def record(self, ok: bool, payload: dict[str, Any]) -> None:
        self.instances += 1
        if not ok and self.passed:
            self.passed = False
            self.counterexample = payload

    def merge(self, later: "CheckResult") -> None:
        """Fold in the result of instances examined after this one's, by
        ``record``'s rules: the counts add up and the first failure wins."""
        self.instances += later.instances
        if not later.passed and self.passed:
            self.passed = False
            self.counterexample = later.counterexample


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    skip_reason: str | None = None  # why the policy itself was not examined

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


def _charge_set_algebra_ok(poset: Poset) -> bool:
    # stacked arcs charge disjoint label sets, and a shortcut arc charges
    # exactly their union
    for x, y in poset.closure:
        for z in poset.elements:
            if (y, z) in poset.closure:
                upper = extra_key_labels(poset, (x, y))
                lower = extra_key_labels(poset, (y, z))
                outer = extra_key_labels(poset, (x, z))
                if upper & lower or outer != upper | lower:
                    return False
    return True


def _path_superadditivity_ok(poset: Poset, users: UserAssignment) -> bool:
    # a shortcut arc costs exactly the sum of the arcs along any path below it
    weights = _literal_arc_weights(poset, users, poset.closure)
    succ: dict[str, list[str]] = {x: [] for x in poset.elements}
    for x, y in poset.closure:
        succ[x].append(y)

    def walk(path: list[str], total: int) -> bool:
        head, tail = path[0], path[-1]
        if len(path) > 2 and weights[(head, tail)] != total:
            return False
        for nxt in succ[tail]:
            if not walk(path + [nxt], total + weights[(tail, nxt)]):
                return False
        return True

    return all(walk([x], 0) for x in poset.elements)


def _sample_coalitions(poset: Poset, seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    singles = [(x,) for x in poset.sorted_elements]
    extra = []
    pool = list(poset.sorted_elements)
    for size in (2, 3):
        if len(pool) >= size:
            extra.append(tuple(sorted(rng.sample(pool, size))))
    return singles + extra


def _examine_instance(
    poset: Poset,
    users: UserAssignment,
    seed: int,
    results: dict[str, CheckResult],
    payload: dict[str, Any],
) -> None:
    """Run the full battery on one instance, recording into ``results``."""
    ok = (
        transitive_closure(poset.covers, poset.elements) == poset.closure
        and transitive_reduction(poset.closure, poset.elements) == poset.covers
        and brute_reduction(poset.closure, poset.elements) == poset.covers
    )
    results["closure-reduction-roundtrip"].record(ok, payload)

    results["width-vs-bruteforce"].record(width(poset) == brute_width(poset), payload)

    tree = min_weight_out_tree(poset, users)
    wf = weight_function(poset, users, poset.covers)
    optimized = sum(wf[a] for a in tree.arcs())
    brute_weight, _ = brute_min_weight(poset, users)
    results["tree-weight-vs-enumeration"].record(optimized == brute_weight, payload)

    closure_tree = min_weight_out_tree(poset, users, closure=True)
    closure_wf = weight_function(poset, users, poset.closure)
    closure_optimized = sum(closure_wf[a] for a in closure_tree.arcs())
    closure_brute, _ = brute_min_weight(poset, users, poset.closure)
    results["cover-vs-closure-minimum"].record(
        optimized == closure_brute == closure_optimized == brute_weight, payload
    )

    few_leaves = min_leaf_out_tree(poset, users)
    results["min-leaf-vs-enumeration"].record(
        sum(wf[a] for a in few_leaves.arcs()) == brute_weight
        and len(few_leaves.leaves()) == brute_min_leaf_count(poset, users),
        payload,
    )

    allocation = canonical_allocation(poset, tree)
    results["allocation-vs-definition"].record(
        allocation.phi == allocation_by_definition(poset, tree).phi, payload
    )
    report = validate_enforcement(poset, tree, allocation)
    results["allocation-enforces-policy"].record(report.ok, payload)

    # a broken allocation must be flagged: strip a non-trivial start point,
    # or (for trees where every set is a singleton) inflate one instead
    tampered = {x: set(points) for x, points in allocation.phi.items()}
    stripped = False
    for x in sorted(tampered):
        extras = sorted(tampered[x] - {x})
        if extras:
            tampered[x].discard(extras[0])
            stripped = True
            break
    if not stripped:
        for x in sorted(tampered):
            outside = sorted(poset.elements - poset.down_set(x))
            if outside:
                tampered[x].add(outside[0])
                break
    bad = KeyAllocation(phi={x: frozenset(v) for x, v in tampered.items()})
    detected = (
        bad.phi == allocation.phi or not validate_enforcement(poset, tree, bad).ok
    )
    results["invalid-allocation-detected"].record(detected, payload)

    results["charge-set-algebra"].record(_charge_set_algebra_ok(poset), payload)
    results["path-weight-superadditivity"].record(
        _path_superadditivity_ok(poset, users), payload
    )

    # the per-user key total must equal the tree's total arc cost, for any
    # tree, not just the optimal one
    identity_ok = True
    sampled = 0
    for other in enumerate_out_trees(poset):
        other_alloc = allocation_by_definition(poset, other)
        lhs = sum(
            users.count(x) * len(other_alloc.phi[x]) for x in poset.elements if x != poset.root
        )
        rhs = sum(closure_wf[a] for a in other.arcs())
        if lhs != rhs:
            identity_ok = False
            break
        sampled += 1
        if sampled >= 20:
            break
    results["weighted-key-identity"].record(identity_ok, payload)

    store, bundles = kdf.setup(poset, tree, rng=kdf.seeded_bytes(seed.to_bytes(8, "big")))
    values = list(store.secrets.values()) + list(store.keys.values())
    results["secret-key-distinctness"].record(len(set(values)) == len(values), payload)
    derive_ok = True
    refusal_ok = True
    for x in poset.sorted_elements:
        for y in poset.sorted_elements:
            if y == x or (x, y) in poset.closure:
                if kdf.derive(poset, tree, bundles[x], y) != store.keys[y]:
                    derive_ok = False
            else:
                try:
                    kdf.derive(poset, tree, bundles[x], y)
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
        spec = RandomPosetSpec(
            element_count=4 + i % 4,
            edge_density=0.15 + 0.08 * (i % 5),
            seed=seed,
        )
        instance = random_poset(spec)
        instance_users = random_users(instance, seed + 10_000)
        payload = {
            "instance": "random",
            "seed": seed,
            "element_count": spec.element_count,
            "edge_density": round(spec.edge_density, 3),
        }
        _examine_instance(instance, instance_users, seed, results, payload)
    return results


def _fork_worker(block: range, base_seed: int) -> tuple[int, int]:
    """Fork a process that writes ``_examine_block``'s results for
    ``block``, or the exception it raised, pickled to a pipe. Returns the
    pid and the pipe's read end. The child leaves through ``os._exit``
    whatever happens, so it never returns into the caller's stack."""
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        try:
            outcome: object = _examine_block(block, base_seed)
        except Exception as exc:  # sent with its traceback, which pickling drops
            import traceback

            trace = traceback.format_exc()
            try:
                pickle.dumps(exc)
            except Exception as why:  # an exception that does not pickle
                exc = RuntimeError(f"worker failed with {exc!r}: {why}")
            outcome = exc, trace
        data = pickle.dumps(outcome)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _collect_worker(pid: int, read_end: int) -> dict[str, CheckResult]:
    """Read a forked worker's pipe to its end and reap the worker; return
    its results, or raise its exception with the worker's traceback as its
    cause, or RuntimeError if it ended without writing either."""
    import pickle

    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(
            f"verify worker {pid} ended with status {os.waitstatus_to_exitcode(status)} "
            "before writing its results"
        )
    outcome = pickle.loads(data)  # written by this program's own fork
    if isinstance(outcome, tuple):  # the worker's exception and traceback
        exc, trace = outcome
        raise exc from RuntimeError(f"in verify worker {pid}:\n{trace}")
    return outcome


def run_suite(
    poset: Poset,
    users: UserAssignment,
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
    policy and the first block; each worker returns its results over its
    own pipe, and the blocks are merged in order, so the report is the one
    a single process would give. Workers are forked, not spawned, so they
    start with every module already imported; the command-line process
    runs no other thread for a fork to copy mid-lock.
    """
    start = time.perf_counter()
    k = max(1, min(_usable_cpus(), seeds)) if hasattr(os, "fork") else 1
    cuts = [seeds * b // k for b in range(k + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    results = {name: CheckResult(name=name) for name in _CHECK_NAMES}
    report = VerificationReport(checks=[results[name] for name in _CHECK_NAMES])
    workers: list[tuple[int, int]] = []  # (pid, pipe read end), not yet collected
    try:
        for block in blocks[1:]:
            workers.append(_fork_worker(block, base_seed))
        n = len(poset.elements)
        if n <= TREE_ENUMERATION_MAX_LABELS:
            _examine_instance(poset, users, base_seed, results, {"instance": "policy"})
        else:
            limit = TREE_ENUMERATION_MAX_LABELS
            report.skip_reason = f"{n} labels, over the enumeration limit of {limit}"
        _examine_block(blocks[0], base_seed, results)
        while workers:
            for name, later in _collect_worker(*workers.pop(0)).items():
                results[name].merge(later)
    finally:
        if workers:  # only after an error: stop the rest
            import signal
        for pid, read_end in workers:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    report.elapsed_seconds = time.perf_counter() - start
    return report
