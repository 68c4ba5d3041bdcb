"""Start-point allocation over a derivation forest, plus scheme metrics.

Once a derivation forest is fixed, each label x needs a set of forest
positions ("start points") from which exactly the labels at or below x
remain reachable. The canonical allocation is pointwise minimal: any
allocation that enforces the policy on the same forest contains it. The
tree scheme's forest is one out-tree; the chain scheme's is the chain
partition, each entry under its chain predecessor.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .poset import Poset, masked_sums
from .trees import DerivationOutTree


def start_points(poset: Poset, parent: Mapping[str, str], x: str) -> frozenset[str]:
    """The pointwise-minimal start points of ``x`` on a derivation forest.

    ``parent`` maps each label with a forest parent to it; every other
    label starts a tree of the forest. ``x`` needs every z at or below it
    whose parent, if z has one, it does not dominate: the forest arc into
    z is the only way to reach z, and it comes from outside x's down-set.
    """
    down = poset.down_set(x)
    return frozenset(z for z in down if parent.get(z) not in down)


def forest_start_points(poset: Poset, parent: Mapping[str, str]) -> dict[str, tuple[str, ...]]:
    """Every label's ``start_points`` on a derivation forest in label order,
    in time linear in the labels plus the start points handed out.

    By ``start_points``, z is a start point of x exactly when x is at or
    above z but not at or above z's forest parent y, so each forest arc
    (y, z) hands z to the labels of ``up(z) - up(y)`` and to no others. A
    label with no parent goes to every label at or above it.
    """
    points: dict[str, list[str]] = {x: [] for x in poset.labels}
    up = poset.strict_up
    for i, z in enumerate(poset.labels):
        mask = up[i] | 1 << i
        if z in parent:
            j = poset.index(parent[z])
            mask &= ~(up[j] | 1 << j)
        for x in poset.members(mask):
            points[x].append(z)
    return {x: tuple(zs) for x, zs in points.items()}


def forest_sizes(poset: Poset, parent: Mapping[str, str]) -> dict[str, int]:
    """Every label's number of ``start_points`` on a derivation forest, by
    popcount: x has |down(x)| of them less the out-degrees summed over down(x),
    as its members' forest children are the labels of down(x) with a parent in it."""
    out_degree = [0] * len(poset.labels)
    for y in parent.values():
        out_degree[poset.index(y)] += 1
    downs = [down | 1 << i for i, down in enumerate(poset.strict_down)]
    inner = masked_sums(out_degree, downs)
    return {x: down.bit_count() - k for x, down, k in zip(poset.labels, downs, inner)}


def canonical_allocation(poset: Poset, tree: DerivationOutTree) -> dict[str, tuple[str, ...]]:
    """The pointwise-minimal allocation for ``tree``: the start points of
    every label on the tree, whose only parentless label is the root.
    ``tree`` must be a validated derivation tree for ``poset``."""
    return forest_start_points(poset, tree.parent)


class Violation(NamedTuple):
    kind: str  # "membership" | "unreachable" | "overreach" | "unknown"
    label: str
    detail: str


def validate_enforcement(
    poset: Poset,
    tree: DerivationOutTree,
    allocation: Mapping[str, Iterable[str]],
) -> tuple[Violation, ...]:
    """Check the three enforcement conditions by explicit tree reachability.

    Every label must be its own start point, every authorized label must be
    reachable from some start point, and no start point may reach an
    unauthorized label. Violations are returned, not raised: none means
    the allocation enforces the policy. ``tree`` must be a validated
    derivation tree for ``poset``.
    """
    reach = tree.descendant_sets()
    labels = frozenset(poset.labels)
    violations: list[Violation] = []
    for x in poset.labels:
        points = frozenset(allocation.get(x, ()))
        unknown = sorted(points - labels)
        for z in unknown:
            violations.append(Violation("unknown", x, f"start point {z!r} is not a label"))
        points = points & labels
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
    return tuple(violations)


class SchemeMetrics(NamedTuple):
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

    @classmethod
    def from_sizes(
        cls, users: Mapping[str, int], sizes: Mapping[str, int], d_max: int, p: int = 0
    ) -> "SchemeMetrics":
        """The metrics of a scheme that hands ``sizes[x]`` keys to each
        user at label x."""
        return cls(
            K_total=sum(sizes.values()),
            K_hat=sum(users.get(x, 0) * k for x, k in sizes.items()),
            k_max=max(sizes.values()),
            d_max=d_max,
            p=p,
        )

    def to_json_dict(self) -> dict[str, int]:
        return self._asdict()


def scheme_metrics(
    poset: Poset, users: Mapping[str, int], tree: DerivationOutTree
) -> SchemeMetrics:
    """Metrics of the tree scheme: ``tree`` with its canonical allocation.

    The root's only start point is the root, so its walks are the tree
    depths, and no label's walk to u is longer than the depth of u.
    ``tree`` must be a validated derivation tree for ``poset``.
    """
    return SchemeMetrics.from_sizes(
        users, forest_sizes(poset, tree.parent), max(tree.depths().values())
    )
