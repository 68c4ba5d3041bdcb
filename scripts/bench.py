#!/usr/bin/env python3
"""Stage timings of treekeys on seeded policy families, written as JSON.

Each case is one policy: a family and its size. For every case a fresh
interpreter runs the stages below in order, each on what the ones before
produced, and times each with ``time.process_time``, best of
``REPEAT``. With ``--src DIR`` the same cases are timed again from
``DIR/src`` (another checkout, say the parent commit), the two source
trees alternating process by process. A stage call over ``BUDGET_S``
seconds of wall time records ``timeout``, one that raises records
``error``, and so does every later stage that needs what it would have
made: every (case, source, stage) cell is written, none dropped.

    python scripts/bench.py --out BENCH.json [--src OTHER_CHECKOUT] [--case sparse:1000 ...]

Standard library only; the families are written out below.
"""

import argparse
import inspect
import io
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Calls per stage; the least CPU time counts.
REPEAT = 3

#: Seconds of wall time one stage call may take.
BUDGET_S = 60.0

#: The stages, in the order they run.
STAGES = (
    "parse_policy",
    "_cheapest_parents",
    "min_leaf_out_tree[covers]",
    "min_leaf_out_tree[closure]",
    "min_chain_partition",
    "min_weight_out_tree",
    "canonical_allocation",
    "forest_sizes",
    "kdf.setup",
    "derive",
    "seal[1MiB]",
    "unseal[1MiB]",
)

#: The object that the seal and unseal stages time.
SEALED_BYTES = 1 << 20

#: The two sizes of each family that ROADMAP's baseline table uses.
DEFAULT_CASES = (
    "sparse:1000", "sparse:10000", "lattice:12", "lattice:13",
    "grid:50", "grid:100", "chain:3000", "chain:10000",
)


def sparse(n):
    """``tests/conftest.py``'s ``sparse_policy_doc(n, 1)``: label i draws two
    parents uniformly from labels i+1..n (n meaning none); 0-5 users each."""
    rng = random.Random("sparse/1")
    labels = [f"L{i:04d}" for i in range(n)]
    arcs = []
    for i in range(n):
        for parent in sorted({rng.randint(i + 1, n) for _ in range(2)}):
            if parent < n:
                arcs.append([labels[parent], labels[i]])
    users = {label: rng.randint(0, 5) for label in labels}
    return {"elements": labels, "arcs": arcs, "users": users}


def lattice(k):
    """The Boolean lattice on k atoms: 2^k labels, one user each."""
    labels = [f"b{s:0{k}b}" for s in range(1 << k)]
    arcs = [[labels[s], labels[s & ~(1 << i)]]
            for s in range(1 << k) for i in range(k) if s >> i & 1]
    return {"elements": labels, "arcs": arcs}


def grid(n):
    """The product of two n-chains: n^2 labels, one user each."""
    label = "g{:03d}.{:03d}".format
    arcs = [[label(i, j), label(i - 1, j)] for i in range(1, n) for j in range(n)]
    arcs += [[label(i, j), label(i, j - 1)] for i in range(n) for j in range(1, n)]
    return {"elements": [label(i, j) for i in range(n) for j in range(n)], "arcs": arcs}


def chain(n):
    """A chain of n labels, one user each."""
    labels = [f"c{i:05d}" for i in range(n)]
    return {"elements": labels, "arcs": [list(arc) for arc in zip(labels, labels[1:])]}


FAMILIES = {"sparse": sparse, "lattice": lattice, "grid": grid, "chain": chain}


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _stages(document):
    """Yield ``(stage, call)`` in ``STAGES`` order. The code between two
    yields runs untimed, after the call before has been timed; it raises
    when a later stage needs what a stage that did not finish would have made."""
    import treekeys
    from treekeys import allocation, kdf, poset, sealing, trees

    if Path(treekeys.__file__).parents[1] != Path(os.environ["PYTHONPATH"]):
        raise ImportError(f"treekeys was imported from {treekeys.__file__}")
    made = {}
    yield "parse_policy", lambda: made.update(policy=poset.parse_policy(document))
    p, users = made["policy"]
    yield "_cheapest_parents", lambda: trees._cheapest_parents(p, users)
    yield "min_leaf_out_tree[covers]", lambda: trees.min_leaf_out_tree(p, users)
    yield "min_leaf_out_tree[closure]", lambda: trees.min_leaf_out_tree(p, users, closure=True)
    yield "min_chain_partition", lambda: poset.min_chain_partition(p)
    yield "min_weight_out_tree", lambda: made.update(tree=trees.min_weight_out_tree(p, users))
    tree = made["tree"]
    yield "canonical_allocation", lambda: made.update(
        allocation=allocation.canonical_allocation(p, tree))
    yield "forest_sizes", lambda: allocation.forest_sizes(p, tree.parent)
    yield "kdf.setup", lambda: made.update(store=kdf.setup(tree, rng=kdf.seeded_bytes(b"bench")))
    # what the derive command does past parsing: read the root's bundle, which
    # checks its start points, then walk down to the deepest label of the tree
    secrets = made["store"].secrets
    document = {"holder": p.root,
                "secrets": {z: secrets[z].hex() for z in made["allocation"][p.root]}}
    read = kdf.SigmaBundle.from_json_dict
    # a reader that takes the document alone leaves the check to derive
    checked = (p, tree) if len(inspect.signature(read).parameters) > 1 else ()
    target = max(p.labels, key=tree.depths().get)
    yield "derive", lambda: kdf.derive(p, tree, read(document, *checked), target)
    # what encrypt and decrypt do with an object once it is read: seal it, or
    # authenticate and open it, and write what comes out
    key, plaintext = made["store"].keys[target], bytes(range(256)) * (SEALED_BYTES // 256)
    container = io.BytesIO()
    _write(container, sealing.seal(key, target, plaintext))
    blob = container.getvalue()
    with open(os.devnull, "wb") as sink:
        yield "seal[1MiB]", lambda: _write(sink, sealing.seal(key, target, plaintext))
        yield "unseal[1MiB]", lambda: _write(sink, sealing.unseal(key, blob)[1])


def _write(sink, output):
    """Write what ``seal`` or ``unseal`` gives: its pieces, or the one buffer
    that a tree from before piecewise sealing returns."""
    if isinstance(output, (bytes, bytearray)):
        sink.write(output)
    else:
        sink.writelines(output)


def _best_of(call):
    """The least CPU time of ``REPEAT`` calls, in milliseconds; raises
    ``_Timeout`` if a call runs over ``BUDGET_S`` seconds."""
    best = float("inf")
    for _ in range(REPEAT):
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        started = time.process_time()
        try:
            call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        best = min(best, time.process_time() - started)
    return round(best * 1000, 3)


def run_child(case):
    """Time every stage of ``case`` in this process, from the treekeys on
    ``PYTHONPATH``, printing each stage's row as a JSON line once it ends."""
    family, size = case.split(":")
    stages = _stages(FAMILIES[family](int(size)))
    signal.signal(signal.SIGALRM, _alarm)
    failed = []  # "stage (status)" for each stage timed that did not finish
    broken = None  # why no later stage can run, once one cannot
    for name in STAGES:
        row = {"stage": name, "ms": None}
        if broken is None:
            try:
                stage, call = next(stages)
            except Exception as exc:  # treekeys cannot be imported, or an input is missing
                broken = (f"{', '.join(failed)} did not finish" if failed
                          else f"{type(exc).__name__}: {exc}")
        if broken is not None:
            row.update(status="error", detail=broken)
        else:
            assert stage == name, (stage, name)
            try:
                row.update(status="ok", ms=_best_of(call))
            except _Timeout:
                row.update(status="timeout", detail=f"a call took over {BUDGET_S} s")
            except Exception as exc:  # recorded, not raised
                row.update(status="error", detail=f"{type(exc).__name__}: {exc}")
            if row["status"] != "ok":
                failed.append(f"{name} ({row['status']})")
        print(json.dumps(row), flush=True)


def time_case(case, source, src):
    """The rows of ``case`` timed from ``src``, one per stage, whatever
    becomes of the process that times them."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, __file__, "--child", case]
    try:
        done = subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=BUDGET_S * REPEAT * len(STAGES) + 60)
        out, ending = done.stdout, f"exit {done.returncode}: {done.stderr.strip()[-200:]}"
        lost = "error"
    except subprocess.TimeoutExpired as exc:  # its output so far comes undecoded
        out, ending, lost = (exc.stdout or b"").decode(), "the process ran out of time", "timeout"
    rows = {row["stage"]: row for row in map(json.loads, out.splitlines())}
    family, size = case.split(":")
    return [
        {"family": family, "size": int(size), "source": source,
         **rows.get(stage, {"stage": stage, "ms": None, "status": lost, "detail": ending})}
        for stage in STAGES
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="the JSON file to write (required)")
    parser.add_argument("--src", help="a second checkout to time against this one")
    parser.add_argument("--case", action="append", metavar="FAMILY:SIZE",
                        help=f"a case to time, repeatable (default: {' '.join(DEFAULT_CASES)}); "
                             f"families: {', '.join(FAMILIES)}; a lattice's size is its atoms")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        run_child(args.child)
        return 0
    if not args.out:
        parser.error("--out is required")
    cases = args.case or list(DEFAULT_CASES)
    for case in cases:
        family, _, size = case.partition(":")
        if family not in FAMILIES or not size.isdigit():
            parser.error(f"--case {case!r} is not FAMILY:SIZE with FAMILY one of {list(FAMILIES)}")
    sources = [("current", ROOT / "src")]
    if args.src:
        sources.append(("other", Path(args.src).resolve() / "src"))
    rows = []
    for i, case in enumerate(cases):
        order = sources if i % 2 == 0 else sources[::-1]  # alternate which runs first
        for source, src in order:
            rows.extend(time_case(case, source, src))
            print(f"{case} {source}: " + " ".join(
                f"{r['stage']}={r['ms'] if r['status'] == 'ok' else r['status']}"
                for r in rows[-len(STAGES):]), file=sys.stderr)
    report = {
        "method": f"time.process_time in-process, best of {REPEAT}; milliseconds",
        "python": platform.python_version(),
        "host": {"system": platform.system(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "budget_s": BUDGET_S,
        "sources": [source for source, _ in sources],
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
