"""Start-point allocation over a derivation out-tree, plus scheme metrics.

Once a derivation tree is fixed, each label x needs a set of tree
positions ("start points") from which exactly the labels at or below x
remain reachable. The canonical allocation is pointwise minimal: any
allocation that enforces the policy on the same tree contains it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

from .poset import Poset, UserAssignment
from .trees import DerivationOutTree, validate_tree


@dataclass(frozen=True)
class KeyAllocation:
    """Per-label start-point sets. Serialized under the "phi" key."""

    phi: Mapping[str, frozenset[str]]

    def to_json_dict(self) -> dict[str, Any]:
        return {"phi": {label: sorted(points) for label, points in sorted(self.phi.items())}}


def start_points(poset: Poset, tree: DerivationOutTree, x: str) -> frozenset[str]:
    """The pointwise-minimal start points of ``x`` on a validated ``tree``.

    The root's only start point is itself. Any other label needs every z
    at or below it whose tree parent it does not dominate: the tree arc
    into z is the only way to reach z, and it comes from outside x's
    down-set.
    """
    if x == tree.root:
        return frozenset({x})
    down = poset.down_set(x)
    return frozenset(z for z in down if tree.parent[z] not in down)


def canonical_allocation(poset: Poset, tree: DerivationOutTree) -> KeyAllocation:
    """The pointwise-minimal allocation for ``tree``: every label's start
    points, in time linear in the size of the order."""
    validate_tree(poset, tree)
    return KeyAllocation(phi={x: start_points(poset, tree, x) for x in poset.sorted_elements})


@dataclass(frozen=True)
class Violation:
    kind: str  # "membership" | "unreachable" | "overreach" | "unknown"
    label: str
    detail: str


@dataclass(frozen=True)
class EnforcementReport:
    """Outcome of checking an allocation against a tree and policy."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_enforcement(
    poset: Poset,
    tree: DerivationOutTree,
    allocation: KeyAllocation,
) -> EnforcementReport:
    """Check the three enforcement conditions by explicit tree reachability.

    Every label must be its own start point, every authorized label must be
    reachable from some start point, and no start point may reach an
    unauthorized label. Violations are reported, not raised.
    """
    validate_tree(poset, tree)
    reach = tree.descendant_sets()
    violations: list[Violation] = []
    for x in poset.sorted_elements:
        points = allocation.phi.get(x, frozenset())
        unknown = sorted(points - poset.elements)
        for z in unknown:
            violations.append(Violation("unknown", x, f"start point {z!r} is not a label"))
        points = points & poset.elements
        if x not in points:
            violations.append(Violation("membership", x, "label is not among its own start points"))
        covered: set[str] = set()
        for z in points:
            covered |= reach[z]
        down = poset.down_set(x)
        for u in sorted(down - covered):
            violations.append(
                Violation("unreachable", x, f"authorized label {u!r} unreachable from start points")
            )
        for u in sorted(covered - down):
            violations.append(
                Violation("overreach", x, f"start points reach unauthorized label {u!r}")
            )
    return EnforcementReport(violations=tuple(violations))


@dataclass(frozen=True)
class SchemeMetrics:
    """Size parameters of an enforcement scheme.

    K_total counts start points over labels, K_hat weights them by users,
    k_max is the largest per-label count, d_max the longest derivation walk
    (PRF steps along the tree; the final key step is not included), and p
    the number of public helper items (always zero for tree schemes).
    """

    K_total: int
    K_hat: int
    k_max: int
    d_max: int
    p: int

    def to_json_dict(self) -> dict[str, int]:
        return asdict(self)


def scheme_metrics(poset: Poset, users: UserAssignment, tree: DerivationOutTree) -> SchemeMetrics:
    """Metrics of the tree scheme: ``tree`` with its canonical allocation.

    The root's only start point is the root, so its walks are the tree
    depths, and no label's walk to u is longer than the depth of u.
    """
    sizes = {x: len(points) for x, points in canonical_allocation(poset, tree).phi.items()}
    return SchemeMetrics(
        K_total=sum(sizes.values()),
        K_hat=sum(users.count(x) * sizes[x] for x in sizes),
        k_max=max(sizes.values()),
        d_max=max(tree.depths().values()),
        p=0,
    )
