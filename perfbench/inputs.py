"""Seeded input generators for the treekeys benchmark.

Everything here is a pure function of the benchmark seed, so the same
seed always yields byte-identical policy files, corpora and command
streams. The order helpers are written independently of ``treekeys`` (one
bitmask per label) so the checks never trust the code under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

#: Labels of the deploy-sparse policy, and the number of recorded
#: reference policies its seed selects from.
SPARSE_LABELS = 1000
SPARSE_POOL = 32

#: The holders lattice: security levels × subsets of these categories.
MLS_LEVELS = 4
MLS_CATEGORIES = "abcdef"

CORPUS_OBJECTS = 64
MIN_OBJECT_BYTES = 1 << 10
MAX_OBJECT_BYTES = 1 << 20
BATCH_OBJECTS = 4

#: The README's 8-label sample policy, run by the verify workload.
SAMPLE_POLICY = {
    "elements": list("abcdefgh"),
    "arcs": [
        ["b", "a"], ["c", "a"], ["d", "b"], ["d", "c"], ["e", "c"],
        ["f", "d"], ["g", "d"], ["g", "e"], ["h", "f"], ["h", "g"],
    ],
    "users": {label: 1 for label in "abcdefgh"},
}


def policy_bytes(document: dict) -> bytes:
    return (json.dumps(document, indent=1, sort_keys=True) + "\n").encode("utf-8")


def sparse_policy(seed: int, n: int = SPARSE_LABELS) -> dict:
    """The sparse random DAG: label i draws two parents uniformly from
    i+1..n, and a draw of n means "no parent". Users 0-5 per label.

    Tree depth is about 22, far below the ~1000 levels at which the
    recursive tree walks in treekeys hit RecursionError.
    """
    rng = random.Random(f"deploy-sparse/{seed}")
    labels = [f"L{i:04d}" for i in range(n)]
    arcs = []
    for i in range(n):
        for parent in sorted({rng.randint(i + 1, n) for _ in range(2)}):
            if parent < n:
                arcs.append([labels[parent], labels[i]])
    users = {label: rng.randint(0, 5) for label in labels}
    return {"elements": labels, "arcs": arcs, "users": users}


def mls_label(level: int, cats: int) -> str:
    return f"s{level}." + "".join(c for i, c in enumerate(MLS_CATEGORIES) if cats >> i & 1)


def mls_policy(seed: int) -> dict:
    """An MLS lattice: (l, S) >= (l', S') iff l >= l' and S ⊇ S'.

    Given by its cover arcs; tree depth is about 9.
    """
    rng = random.Random(f"holders/policy/{seed}")
    k = len(MLS_CATEGORIES)
    labels, arcs = [], []
    for level in range(MLS_LEVELS):
        for cats in range(1 << k):
            labels.append(mls_label(level, cats))
            if level:
                arcs.append([mls_label(level, cats), mls_label(level - 1, cats)])
            for i in range(k):
                if cats >> i & 1:
                    arcs.append([mls_label(level, cats), mls_label(level, cats & ~(1 << i))])
    users = {label: rng.randint(0, 5) for label in labels}
    return {"elements": labels, "arcs": arcs, "users": users}


# -- order helpers (independent of treekeys) --------------------------------


@dataclass(frozen=True)
class Order:
    """A finite order as one down-set bitmask per label (label included)."""

    labels: tuple[str, ...]
    down: tuple[int, ...]

    @classmethod
    def from_policy(cls, document: dict) -> "Order":
        labels = tuple(document["elements"])
        index = {label: i for i, label in enumerate(labels)}
        kids: list[list[int]] = [[] for _ in labels]
        indegree = [0] * len(labels)
        for upper, lower in document["arcs"]:
            kids[index[upper]].append(index[lower])
            indegree[index[lower]] += 1
        # Kahn's algorithm top-down, then OR the children's masks bottom-up
        order = [i for i, d in enumerate(indegree) if d == 0]
        for v in order:
            for w in kids[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    order.append(w)
        down = [1 << i for i in range(len(labels))]
        for v in reversed(order):
            for w in kids[v]:
                down[v] |= down[w]
        return cls(labels=labels, down=tuple(down))

    def rooted(self, root_label: str = "⊤") -> "Order":
        """The order with a top label added when it has several maximal
        labels, as treekeys normalizes every policy."""
        below = 0
        for x, mask in enumerate(self.down):
            below |= mask & ~(1 << x)
        full = (1 << len(self.labels)) - 1
        if bin(full & ~below).count("1") == 1:
            return self
        top = full | 1 << len(self.labels)
        return Order(labels=self.labels + (root_label,), down=self.down + (top,))

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def leq(self, x: int, y: int) -> bool:
        """True iff label x is at or below label y."""
        return bool(self.down[y] >> x & 1)

    def down_list(self, y: int) -> list[int]:
        mask, out, i = self.down[y], [], 0
        while mask:
            if mask & 1:
                out.append(i)
            mask >>= 1
            i += 1
        return out

    def closure_pairs(self) -> int:
        return sum(bin(m).count("1") - 1 for m in self.down)

    def cover_arcs(self) -> int:
        """Pairs x > y with nothing strictly between them."""
        total = 0
        for x, mask in enumerate(self.down):
            below = mask & ~(1 << x)
            implied = 0
            for z in _bits(below):
                implied |= self.down[z] & ~(1 << z)
            total += bin(below & ~implied).count("1")
        return total

    def width(self) -> int:
        """Largest antichain, as labels minus a maximum matching of the
        strict order (Dilworth), by iterative augmenting-path search."""
        succ = [list(_bits(mask & ~(1 << x))) for x, mask in enumerate(self.down)]
        owner: dict[int, int] = {}
        for root in range(len(succ)):
            seen: set[int] = set()
            stack, via = [(root, iter(succ[root]))], []
            while stack:
                u, options = stack[-1]
                for v in options:
                    if v in seen:
                        continue
                    seen.add(v)
                    if v in owner:
                        via.append(v)
                        stack.append((owner[v], iter(succ[owner[v]])))
                        break
                    owner[v] = u
                    for (w, _), x in zip(stack, via):
                        owner[x] = w
                    stack = []
                    break
                else:
                    stack.pop()
                    if via:
                        via.pop()
        return len(succ) - len(owner)


def _bits(mask: int):
    i = 0
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        yield i
        mask ^= low


# -- holders corpus and command stream ---------------------------------------


def object_sizes(rng: random.Random, count: int) -> list[int]:
    lo, hi = math.log(MIN_OBJECT_BYTES), math.log(MAX_OBJECT_BYTES)
    return [int(math.exp(rng.uniform(lo, hi))) for _ in range(count)]


def corpus(seed: int, labels: list[str]) -> list[tuple[str, str, bytes]]:
    """(name, label, plaintext) for the holders corpus.

    Sizes are log-uniform, drawn one per equal stratum of the log range
    and then shuffled, so every seed's corpus spans 1 KiB to 1 MiB alike.
    """
    rng = random.Random(f"holders/corpus/{seed}")
    lo, hi = math.log(MIN_OBJECT_BYTES), math.log(MAX_OBJECT_BYTES)
    step = (hi - lo) / CORPUS_OBJECTS
    sizes = [int(math.exp(lo + step * (i + rng.random()))) for i in range(CORPUS_OBJECTS)]
    rng.shuffle(sizes)
    out = []
    for i, size in enumerate(sizes):
        out.append((f"obj{i:03d}.bin", rng.choice(labels), rng.randbytes(size)))
    return out


#: One block of the holders command stream; blocks repeat until the run
#: has measured for its full time.
STREAM_MIX = {"derive": 100, "decrypt": 15, "encrypt": 15, "refuse": 10}


def command_stream(seed: int, order: Order, objects: list[tuple[str, str, bytes]]):
    """Yield holders commands forever, one shuffled STREAM_MIX block at a time.

    Each item is a tuple: ("derive", holder, target), ("decrypt", holder,
    [object indices]), ("encrypt", [(name, label, plaintext)]), or
    ("refuse", kind, holder, target-or-object-index) for a request the
    holder is not authorized for.
    """
    rng = random.Random(f"holders/stream/{seed}")
    labels = order.labels
    n = len(labels)
    object_at = [order.index(label) for _, label, _ in objects]
    readable = [[j for j, x in enumerate(object_at) if order.leq(x, h)] for h in range(n)]
    readers = [h for h in range(n) if len(readable[h]) >= BATCH_OBJECTS]
    block = 0
    while True:
        kinds = [kind for kind, count in STREAM_MIX.items() for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "derive":
                h = rng.randrange(n)
                yield ("derive", labels[h], labels[rng.choice(order.down_list(h))])
            elif kind == "decrypt":
                h = rng.choice(readers)
                yield ("decrypt", labels[h], sorted(rng.sample(readable[h], BATCH_OBJECTS)))
            elif kind == "encrypt":
                batch = []
                for size in object_sizes(rng, BATCH_OBJECTS):
                    name = f"new{block:03d}-{len(batch)}-{rng.randrange(1 << 30):08x}.bin"
                    batch.append((name, labels[rng.randrange(n)], rng.randbytes(size)))
                yield ("encrypt", batch)
            else:
                while True:
                    h = rng.randrange(n)
                    if order.down[h] != (1 << n) - 1:
                        break
                outside = [x for x in range(n) if not order.leq(x, h)]
                if rng.random() < 0.5:
                    yield ("refuse", "derive", labels[h], labels[rng.choice(outside)])
                else:
                    unreadable = [j for j, x in enumerate(object_at) if not order.leq(x, h)]
                    if unreadable:
                        yield ("refuse", "decrypt", labels[h], rng.choice(unreadable))
                    else:
                        yield ("refuse", "derive", labels[h], labels[rng.choice(outside)])
        block += 1
