"""Traced launcher and self-time arithmetic for the treekeys benchmark.

As a script, it runs one treekeys command with timing wrappers installed
around the public functions of every layer, then calls
``treekeys.cli.main``:

    python3 perfbench/tracing.py --out spans.json --id CMD -- derive policy.json ...

Each wrapped call records a span: name, start, end and the span that
called it. The spans of one command share the command's id and are kept
in memory until the command ends, then written to ``--out``. Functions
hot enough that a span per call would swamp the command (the PRF, and
each step of the brute-force tree enumeration) are counted instead.
Nothing in ``treekeys`` itself changes: the wrappers replace the
function in every ``treekeys.*`` namespace that binds it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

#: Functions timed with a span per call, by module. "Class.method" names a method.
SPANNED = {
    "cli": ("main",),
    "poset": (
        "parse_policy",
        "transitive_closure",
        "transitive_reduction",
        "ensure_root",
        "min_chain_partition",
    ),
    "matching": ("max_bipartite_matching",),
    "trees": (
        "weight_function",
        "min_weight_out_tree",
        "min_leaf_out_tree",
        "validate_tree",
        "DerivationOutTree.descendant_sets",
    ),
    "allocation": ("canonical_allocation", "validate_enforcement", "scheme_metrics"),
    "kdf": ("setup", "derive", "SigmaBundle.from_json_dict", "SecretStore.from_json_dict"),
    "sealing": ("seal", "unseal"),
    "baselines": ("chain_scheme_build", "chain_metrics", "classic_scheme_metrics"),
    "oracles": ("run_suite", "brute_min_weight", "brute_reduction", "coalition_reachability"),
}

#: Functions only counted: calls, or for generators the items they yield.
COUNTED = {"kdf": ("prf",), "oracles": ("enumerate_out_trees",)}

#: Bytes passed through the sealing layer: the plaintext, or the sealed blob.
BYTE_ARGUMENT = {"sealing.seal": 2, "sealing.unseal": 1}


class Tracer:
    """Spans kept in memory as [name id, parent index, start, end]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def spanned(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        arg = BYTE_ARGUMENT.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if arg is not None:
                counts[name + ".bytes"] = counts.get(name + ".bytes", 0) + len(args[arg])
            record = [nid, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"
        counts[key] = 0
        if inspect.isgeneratorfunction(fn):

            def generator(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[key] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json_dict(self, command_id: str, import_s: float, exit_code: int) -> dict:
        return {
            "id": command_id,
            "import_s": import_s,
            "exit": exit_code,
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
        }


def install(tracer: Tracer) -> None:
    """Wrap every listed function wherever a ``treekeys`` module binds it."""
    import treekeys.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n == "treekeys" or n.startswith("treekeys.")]
    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for module_name, functions in table.items():
            module = sys.modules[f"treekeys.{module_name}"]
            for function in functions:
                name = f"{module_name}.{function}"
                if "." in function:
                    cls_name, attr = function.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(make(name, raw.__func__)))
                    else:
                        setattr(cls, attr, make(name, raw))
                    continue
                original = getattr(module, function)
                wrapped = make(name, original)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapped)


# -- self-time arithmetic ------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        end - start - _covered(children[i], start, end)
        for i, (_, _, start, end) in enumerate(spans)
    ]


def summarize(record: dict) -> tuple[dict[str, list], float]:
    """Per-function [calls, self seconds] of one traced command, and the
    command's traced time (the duration of its root spans)."""
    names = record["names"]
    spans = record["spans"]
    out: dict[str, list] = {}
    for (nid, _, _, _), own in zip(spans, self_times(spans)):
        entry = out.setdefault(names[nid], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    traced = sum(end - start for _, parent, start, end in spans if parent < 0)
    return out, traced


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    split = argv.index("--")
    options = dict(zip(argv[:split:2], argv[1:split:2]))
    import treekeys.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = treekeys.cli.main(argv[split + 1 :])
    finally:
        with open(options["--out"], "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json_dict(options["--id"], import_s, code), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
