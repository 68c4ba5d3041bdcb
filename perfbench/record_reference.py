#!/usr/bin/env python3
"""Record the deploy-sparse reference outputs into reference.json.

The references are the seed commit's outputs: run this once on that
commit, from the root of a checkout, and commit the file. The benchmark
then fails any deploy-sparse output that differs from them:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import inputs
import run


def record(pool: int) -> dict:
    work = run.WORK / f"reference{pool}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = run.Session(work, work, trace=False)
    try:
        document = inputs.sparse_policy(pool)
        policy = session.write("policy.json", inputs.policy_bytes(document))
        labels = inputs.Order.from_policy(document).rooted().labels
        _, _, got = run.deploy_iteration(
            session, policy, work / "out", run.hex_seed("reference", pool), labels, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if session.failures or got is None:
        raise SystemExit(f"policy {pool}: {session.failures}")
    del got["depth"]
    print(f"policy {pool}: K_total={got['metrics']['K_total']}", flush=True)
    return got


def main() -> int:
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = list(pool.map(record, range(inputs.SPARSE_POOL)))
    reference = {"deploy-sparse": {str(i): r for i, r in enumerate(records)}}
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
