#!/usr/bin/env python3
"""The treekeys benchmark: three workloads against the treekeys CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload holders --seed 1 --seconds 12 --trace 0

Every treekeys command runs as a fresh process, as a user would run it:
one client, sequential, closed loop, so one command runs at a time (each
started by ``spawn.py``, which only waits on it and reports its wall time
and peak resident set). Every command's output is checked; a wrong
output, an unexpected exit code, a traceback or a command over its time
budget counts as a failed operation, with the reason printed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace
1`` runs each command a second time through ``tracing.py``, which wraps
the public functions of every layer, and reports the per-layer metrics.
A run measures for at least ``--seconds`` and at least its workload's
minimum command mix. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. ``--workload all``
runs every workload in turn and prints each one's lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: A command that runs longer than this is stopped and counted as failed,
#: and so is any command the run has no time left for.
COMMAND_BUDGET_S = 150
RUN_BUDGET_S = 165
#: Fresh-interpreter imports of treekeys.cli timed for setup_s before the
#: first timed command; one more follows each timed step, so the median
#: spans the whole run.
IMPORT_PROBES = 3
#: Times the holders deployment (build-tree, keygen, corpus encrypt) is set
#: up: once before the command stream, the rest after it.
HOLDERS_SETUPS = 3
#: Least deploy-sparse iterations (build-tree, keygen, compare) per run.
DEPLOY_ITERATIONS = 3
#: Random instances per verify command, and the least commands per run.
VERIFY_INSTANCES = 1000
VERIFY_COMMANDS = 3
#: Holders commands traced per traced run (a prefix of the seeded stream).
TRACED_HOLDERS_COMMANDS = 40

WORKLOADS = ("deploy-sparse", "holders", "verify")


@dataclass
class Outcome:
    code: int
    wall: float
    stdout: str
    stderr: str


class Session:
    """Runs treekeys commands one at a time and tallies what they did.

    In trace mode each command runs twice, plain and traced, in an order
    that alternates, so the tracing overhead can be measured.
    """

    def __init__(self, work: Path, spans_dir: Path, trace: bool) -> None:
        self.work = work
        self.spans_dir = spans_dir
        self.trace = trace
        self.attempted = 0
        self.failures: list[str] = []
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.layers: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.import_s: list[float] = []
        self.traced_commands = 0
        self.structure: dict = {}
        self.peak_rss_kib = 0
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def write(self, name: str, data: bytes) -> Path:
        path = self.work / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        return path

    def _spawn(self, argv: list) -> Outcome | str:
        budget = min(COMMAND_BUDGET_S, self.deadline - time.perf_counter())
        if budget <= 0:
            return f"no time left in the run's {RUN_BUDGET_S}s budget"
        report = self.work / "spawn.report"
        report.unlink(missing_ok=True)
        command = [sys.executable, "-S", str(HERE / "spawn.py"), str(report), "--",
                   *(str(a) for a in argv)]
        with subprocess.Popen(command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, start_new_session=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=budget)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                return f"over its {budget:.0f}s budget"
        if not report.exists():
            return f"spawn.py wrote no report: {stderr.strip()[-200:]}"
        wall, peak_kib = report.read_text(encoding="ascii").split()
        self.peak_rss_kib = max(self.peak_rss_kib, int(peak_kib))
        return Outcome(child.returncode, float(wall), stdout, stderr)

    def _judge(self, outcome: Outcome | str, expect: int) -> str | None:
        if isinstance(outcome, str):
            return outcome
        if "Traceback" in outcome.stderr:
            return "traceback: " + outcome.stderr.strip().splitlines()[-1]
        if outcome.code != expect:
            return f"exit {outcome.code}, expected {expect}: {outcome.stderr.strip()[-200:]}"
        return None

    def python(self, code: str) -> Outcome | None:
        """Run ``python -c code`` in a fresh interpreter."""
        self.attempted += 1
        outcome = self._spawn([sys.executable, "-c", code])
        reason = self._judge(outcome, 0)
        if reason:
            return self.fail(f"python -c {code!r}", [reason])
        return outcome

    def treekeys(self, args: list, *, expect: int = 0) -> Outcome | None:
        """Run one treekeys command; None if it failed (already recorded)."""
        self.attempted += 1
        args = [str(a) for a in args]
        plain = [sys.executable, "-m", "treekeys", *args]
        if not self.trace:
            outcome = self._spawn(plain)
            reason = self._judge(outcome, expect)
            return self.fail(args[0], [reason]) if reason else outcome
        spans_file = self.spans_dir / f"{self.attempted:05d}.json"
        traced = [sys.executable, str(HERE / "tracing.py"), "--out", spans_file,
                  "--id", str(self.attempted), "--", *args]
        runs = [(plain, False), (traced, True)]
        if self.attempted % 2:
            runs.reverse()
        for argv, is_traced in runs:
            outcome = self._spawn(argv)
            reason = self._judge(outcome, expect)
            if reason:
                return self.fail(args[0] + (" (traced)" if is_traced else ""), [reason])
            if is_traced:
                self.traced_s += outcome.wall
                traced_outcome = outcome
            else:
                self.plain_s += outcome.wall
        reasons = self._add_spans(spans_file)
        return self.fail(args[0] + " (traced)", reasons) if reasons else traced_outcome

    def _add_spans(self, spans_file: Path) -> list[str]:
        try:
            record = checks.load(spans_file)
        except (OSError, ValueError) as exc:
            return [f"no spans: {exc}"]
        per_function, traced = tracing.summarize(record)
        self_total = sum(own for _, own in per_function.values())
        if abs(self_total - traced) > 1e-6 * max(1.0, traced):
            return [f"self times add to {self_total:.6f}s, not the traced {traced:.6f}s"]
        for name, (calls, own) in per_function.items():
            entry = self.layers.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
        for name, value in record["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.import_s.append(record["import_s"])
        self.traced_commands += 1
        return []

    def fail(self, what: str, reasons: list[str]) -> None:
        """Record one failed operation (the first reason) and return None."""
        if reasons:
            self.failures.append(f"{what}: {reasons[0]}")
            print(f"FAILED {what}: {reasons[0]}", flush=True)
        return None

    def accept(self, what: str, outcome: Outcome | None, reasons: list[str]) -> bool:
        """True if the command ran and its output checks passed; a command
        that ran but failed a check is recorded as failed."""
        if outcome is None:
            return False
        self.fail(what, reasons)
        return not reasons

    def peak_rss_mb(self) -> float:
        """The largest resident set of any one command run so far."""
        return self.peak_rss_kib / 1024


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile; needs enough values for 100-q of them to lie beyond."""
    if len(values) < 2:
        return float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_import(s: Session, walls: list[float], count: int = 1) -> None:
    """Time a cold ``import treekeys.cli`` in a fresh interpreter (untraced runs only)."""
    for _ in range(0 if s.trace else count):
        outcome = s.python("import treekeys.cli")
        if outcome:
            walls.append(outcome.wall)


def hex_seed(*parts) -> str:
    return hashlib.sha256("/".join(map(str, parts)).encode()).hexdigest()


def structure(s: Session, name: str, order: inputs.Order, **extra) -> None:
    """Print a workload's structure counts and keep those the layers report."""
    s.structure = {"labels": len(order.labels), "cover_arcs": order.cover_arcs(),
                   "closure_pairs": order.closure_pairs()}
    counts = {**s.structure, "width": order.width(), **extra}
    print(f"structure {name}: " + " ".join(f"{k}={v}" for k, v in counts.items()))


# -- deploy-sparse -----------------------------------------------------------


def deploy_iteration(s: Session, policy: Path, out: Path, key_seed: str, labels, reference):
    """build-tree --min-leaves, keygen and compare on one policy, each checked.

    Returns (deploy seconds, compare seconds, record): a time is None if its
    commands failed, and record, the reference-comparable outputs, is None
    unless all three passed. With reference None the outputs are only
    checked for form, which is how the reference is recorded.
    """
    build, keys = out / "build", out / "keys"
    deploy_s = compare_s = record = None
    bt = s.treekeys(["build-tree", policy, "--min-leaves", "--out-dir", build])
    built = bt and checks.deploy_record(build)
    if s.accept("build-tree", bt, bt and checks.differences(built, reference, "build")):
        kg = s.treekeys(["keygen", policy, "--tree", build / "tree.json",
                         "--seed", key_seed, "--out-dir", keys])
        if s.accept("keygen", kg, kg and checks.check_keys(build, keys, key_seed, labels)):
            deploy_s = bt.wall + kg.wall
    cmp = s.treekeys(["compare", policy, "--json"])
    rows = cmp and checks.compare_rows(cmp.stdout)
    if s.accept("compare", cmp, cmp and checks.differences(rows, reference, "compare")):
        compare_s = cmp.wall
    if deploy_s and compare_s:
        record = {**built, **rows}
    return deploy_s, compare_s, record


def load_reference() -> dict:
    return checks.load(HERE / "reference.json")


def deploy_sparse(s: Session, seed: int, seconds: float) -> dict[str, Metric]:
    """The large-policy regime: 1000-label sparse DAG, administrator commands."""
    pool = seed % inputs.SPARSE_POOL
    document = inputs.sparse_policy(pool)
    policy = s.write("policy.json", inputs.policy_bytes(document))
    reference = load_reference()["deploy-sparse"][str(pool)]
    key_seed = hex_seed("deploy-sparse", seed)
    order = inputs.Order.from_policy(document).rooted()
    imports: list[float] = []
    probe_import(s, imports, IMPORT_PROBES)
    deploys, compares, record = [], [], None
    complete, busy = 0, 0.0  # iterations where every command passed, and their time
    start = time.perf_counter()
    i = 0
    while i < (1 if s.trace else DEPLOY_ITERATIONS) or (
        not s.trace and time.perf_counter() - start < seconds
    ):
        out = s.work / f"iteration{i}"
        deploy_s, compare_s, got = deploy_iteration(s, policy, out, key_seed, order.labels, reference)
        shutil.rmtree(out, ignore_errors=True)
        deploys += [deploy_s] if deploy_s else []
        compares += [compare_s] if compare_s else []
        if deploy_s and compare_s:
            complete += 1
            busy += deploy_s + compare_s
        record = record or got
        probe_import(s, imports)
        i += 1
    structure(s, "deploy-sparse", order, policy=pool,
              tree_depth=record["depth"] if record else "n/a",
              K_total=record["metrics"]["K_total"] if record else "n/a")
    if s.trace:
        return {}
    return {
        "setup_s": Metric(median(imports), "s", len(imports)),
        "deploy_s": Metric(median(deploys), "s", len(deploys)),
        "compare_s": Metric(median(compares), "s", len(compares)),
        "latency_ms": Metric(1000 * median(deploys), "ms", len(deploys)),
        "throughput_per_s": Metric(
            3 * len(order.labels) * complete / busy if busy else 0.0, "1/s", 3 * complete),
    }


# -- holders -------------------------------------------------------------------


def sealed_path(path: Path) -> Path:
    return path.with_name(path.name + ".sealed")


def manifest_bytes(objects) -> bytes:
    entries = [{"path": str(path), "label": label} for path, label, _ in objects]
    return json.dumps({"objects": entries}).encode()


def holders_setup(s: Session, policy: Path, out: Path, manifest: Path, key_seed: str, order, objects):
    """build-tree, keygen and an encrypt of the corpus; returns (seconds, keys) or None."""
    build, keys_dir = out / "build", out / "keys"
    walls = []
    for args in (
        ["build-tree", policy, "--out-dir", build],
        ["keygen", policy, "--tree", build / "tree.json", "--seed", key_seed, "--out-dir", keys_dir],
        ["encrypt", policy, "--tree", build / "tree.json", "--keystore",
         keys_dir / "keystore.json", "--manifest", manifest],
    ):
        outcome = s.treekeys(args)
        if not outcome:
            return None
        walls.append(outcome.wall)
        if args[0] == "keygen":
            reasons = checks.check_keys(build, keys_dir, key_seed, order.labels)
            if reasons:
                return s.fail("keygen", reasons)
    store = checks.load(keys_dir / "keystore.json")
    keys = {label: bytes.fromhex(v) for label, v in store["keys"].items()}
    for path, label, plaintext in objects:
        reasons = checks.check_sealed(sealed_path(path), label, plaintext, keys)
        if reasons:
            return s.fail("encrypt", reasons)
    return sum(walls), keys


def holders(s: Session, seed: int, seconds: float) -> dict[str, Metric]:
    """The many-small-commands regime: holders derive and decrypt, the
    administrator seals new objects, on a 256-label MLS lattice."""
    document = inputs.mls_policy(seed)
    order = inputs.Order.from_policy(document).rooted()
    policy = s.write("policy.json", inputs.policy_bytes(document))
    objects = [(s.write(f"corpus/{name}", data), label, data)
               for name, label, data in inputs.corpus(seed, list(order.labels))]
    manifest = s.write("corpus.json", manifest_bytes(objects))
    key_seed = hex_seed("holders", seed)
    deployment = s.work / "setup0"
    ready = holders_setup(s, policy, deployment, manifest, key_seed, order, objects)
    if not ready:
        s.fail("holders setup", ["no deployment to run the command stream on"])
        return {}
    setups, keys = [ready[0]], ready[1]
    stream = Stream(s, policy, deployment, keys, objects)
    block = sum(inputs.STREAM_MIX.values())
    start = time.perf_counter()
    for n, command in enumerate(inputs.command_stream(seed, order, objects)):
        if n >= (TRACED_HOLDERS_COMMANDS if s.trace else block) and (
            s.trace or time.perf_counter() - start >= seconds
        ):
            break
        stream.run(command)
    for k in range(1, 1 if s.trace else HOLDERS_SETUPS):
        again = holders_setup(s, policy, s.work / f"setup{k}", manifest, key_seed, order, objects)
        setups += [again[0]] if again else []
    structure(s, "holders", order,
              tree_depth=checks.tree_depth(checks.load(deployment / "build" / "tree.json")),
              K_total=checks.load(deployment / "build" / "metrics.json")["K_total"],
              corpus_bytes=sum(len(data) for _, _, data in objects))
    if s.trace:
        return {}
    derives, moved, busy = stream.derives, stream.opened + stream.sealed, stream.open_s + stream.seal_s
    return {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "derive_p50_ms": Metric(1000 * median(derives), "ms", len(derives)),
        "derive_p90_ms": Metric(1000 * percentile(derives, 90), "ms", len(derives)),
        "open_objects_per_s": Metric(stream.opened / stream.open_s if stream.open_s else 0.0,
                                     "1/s", stream.opened),
        "seal_objects_per_s": Metric(stream.sealed / stream.seal_s if stream.seal_s else 0.0,
                                     "1/s", stream.sealed),
        "latency_ms": Metric(1000 * median(derives), "ms", len(derives)),
        "throughput_per_s": Metric(moved / busy if busy else 0.0, "1/s", moved),
    }


class Stream:
    """Runs and checks the holders command stream against one deployment."""

    def __init__(self, s: Session, policy: Path, deployment: Path, keys: dict, objects) -> None:
        self.s, self.policy, self.keys, self.objects = s, policy, keys, objects
        self.tree = deployment / "build" / "tree.json"
        self.keys_dir = deployment / "keys"
        self.derives: list[float] = []
        self.opened = self.sealed = 0
        self.open_s = self.seal_s = 0.0

    def _holder(self, command: str, holder: str, *args, expect: int = 0) -> Outcome | None:
        return self.s.treekeys([command, self.policy, "--tree", self.tree, "--bundle",
                                checks.bundle_path(self.keys_dir, holder), *args], expect=expect)

    def run(self, command: tuple) -> None:
        s, objects = self.s, self.objects
        scratch = s.work / "command"
        shutil.rmtree(scratch, ignore_errors=True)
        kind = command[0]
        if kind == "derive":
            _, holder, target = command
            outcome = self._holder("derive", holder, target)
            reasons = outcome and checks.check_derived(outcome.stdout, self.keys[target])
            if s.accept("derive", outcome, reasons):
                self.derives.append(outcome.wall)
        elif kind == "decrypt":
            _, holder, picked = command
            outcome = self._holder("decrypt", holder, *(sealed_path(objects[j][0]) for j in picked),
                                   "--out-dir", scratch)
            reasons = outcome and [reason for j in picked for reason in
                                   checks.check_opened(scratch / objects[j][0].name, objects[j][2])]
            if s.accept("decrypt", outcome, reasons):
                self.opened += len(picked)
                self.open_s += outcome.wall
        elif kind == "encrypt":
            batch = [(s.write(f"command/{name}", data), label, data)
                     for name, label, data in command[1]]
            outcome = s.treekeys(["encrypt", self.policy, "--tree", self.tree, "--keystore",
                                  self.keys_dir / "keystore.json", "--manifest",
                                  s.write("command/manifest.json", manifest_bytes(batch))])
            reasons = outcome and [reason for path, label, data in batch for reason in
                                   checks.check_sealed(sealed_path(path), label, data, self.keys)]
            if s.accept("encrypt", outcome, reasons):
                self.sealed += len(batch)
                self.seal_s += outcome.wall
        elif command[1] == "derive":
            outcome = self._holder("derive", command[2], command[3], expect=2)
            printed = outcome and outcome.stdout.strip()
            s.accept("refused derive", outcome, ["printed a key"] if printed else [])
        else:
            outcome = self._holder("decrypt", command[2], sealed_path(objects[command[3]][0]),
                                   "--out-dir", scratch, expect=2)
            s.accept("refused decrypt", outcome, ["wrote output"] if scratch.exists() else [])


# -- verify --------------------------------------------------------------------


def verify(s: Session, seed: int, seconds: float) -> dict[str, Metric]:
    """The tiny-input regime: the oracle battery on thousands of 4-7 label posets."""
    policy = s.write("policy.json", inputs.policy_bytes(inputs.SAMPLE_POLICY))
    imports: list[float] = []
    probe_import(s, imports, IMPORT_PROBES)
    walls, rates = [], []
    start = time.perf_counter()
    j = 0
    while j < (1 if s.trace else VERIFY_COMMANDS) or (
        not s.trace and time.perf_counter() - start < seconds
    ):
        base = seed * 1_000_000 + j * VERIFY_INSTANCES
        outcome = s.treekeys(["verify", policy, "--seeds", VERIFY_INSTANCES,
                              "--base-seed", base, "--json"])
        if s.accept("verify", outcome, outcome and checks.check_verify_report(outcome.stdout)):
            walls.append(outcome.wall)
            rates.append(VERIFY_INSTANCES / outcome.wall)
        probe_import(s, imports)
        j += 1
    structure(s, "verify", inputs.Order.from_policy(inputs.SAMPLE_POLICY).rooted(),
              instances_per_command=VERIFY_INSTANCES)
    if s.trace:
        return {}
    return {
        "setup_s": Metric(median(imports), "s", len(imports)),
        "verify_instances_per_s": Metric(median(rates), "1/s", len(rates)),
        "latency_ms": Metric(1000 * median(walls), "ms", len(walls)),
        "throughput_per_s": Metric(median(rates), "1/s", len(rates)),
    }


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(s: Session) -> dict[str, Metric]:
    """Every per-layer figure the traced run measured, by name."""
    out: dict[str, Metric] = {}
    n = s.traced_commands
    for name, (calls, own) in s.layers.items():
        out[f"{name}.calls"] = Metric(calls, "count", n)
        out[f"{name}.self_s"] = Metric(own, "s", n)
    for module, functions in tracing.SPANNED.items():
        for function in functions:
            name = f"{module}.{function}"
            out.setdefault(f"{name}.calls", Metric(0, "count", n))
            out.setdefault(f"{name}.self_s", Metric(0.0, "s", n))
    for name, value in s.counts.items():
        out[name] = Metric(value, "bytes" if name.endswith(".bytes") else "count", n)
    for name in ("sealing.seal.bytes", "sealing.unseal.bytes"):
        out.setdefault(name, Metric(0, "bytes", n))
    out["cli.import_s"] = Metric(median(s.import_s), "s", n)
    out["poset.closure_pairs"] = Metric(s.structure["closure_pairs"], "count", 1)
    out["poset.cover_arcs"] = Metric(s.structure["cover_arcs"], "count", 1)
    matching = out["matching.max_bipartite_matching.calls"].value
    out["matching.calls_per_label"] = Metric(matching / s.structure["labels"], "ratio", n)
    allocations = out["allocation.canonical_allocation.calls"].value
    out["allocation.canonical_allocation.calls_per_command"] = Metric(
        allocations / n if n else 0.0, "ratio", n)
    out["trace.overhead_ratio"] = Metric(
        s.traced_s / s.plain_s if s.plain_s else float("nan"), "ratio", n)
    return out


# -- entry point ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    work, spans = WORK / name, WORK / "spans" / name
    for directory in (work, spans):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    s = Session(work, spans, trace)
    try:
        measured = {"deploy-sparse": deploy_sparse, "holders": holders, "verify": verify}[name](
            s, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        measured = layer_metrics(s)
        print(f"{name} per-layer (traced; {s.traced_commands} commands):")
        rows = sorted(measured.items(), key=lambda kv: (kv[1].unit != "s", -kv[1].value, kv[0]))
    else:
        measured["peak_rss_mb"] = Metric(s.peak_rss_mb(), "MiB", s.attempted)
        measured["fail_ratio"] = Metric(len(s.failures) / max(s.attempted, 1), "ratio", s.attempted)
        print(f"{name} end-to-end ({len(s.failures)} failed of {s.attempted} attempted):")
        rows = list(measured.items())
    for metric, m in rows:
        print(f"  {metric:<48} {m.value:>14.6g} {m.unit:<6} n={m.samples}")
    metrics = {}
    for metric, unit in declared.items():
        m = measured.get(metric)
        if m is None or m.unit != unit or not math.isfinite(m.value):
            s.fail("benchmark", [f"metric {metric} was not measured in {unit}"])
            m = Metric(0.0, unit, 0)
        metrics[metric] = {"value": m.value, "unit": unit}
    return {
        "correct": not s.failures,
        "attempted": max(s.attempted, 1),
        "failed": len(s.failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treekeys" / "cli.py").is_file():
        print(f"treekeys sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = checks.load(ROOT / "BENCHMARK.json")
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), declared) for w in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
