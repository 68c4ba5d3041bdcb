"""Every deploy-sparse policy of the benchmark gives its recorded outputs.

The benchmark draws one of ``inputs.SPARSE_POOL`` policies per seed and
refuses any build-tree or compare output that differs from
``perfbench/reference.json``. Here every pool policy is computed in
process and digested by the benchmark's own ``checks.digest``, so an
output change on any of them fails the tests. Maximum matchings decide
both the min-leaf tree and the chain row.
"""

import json

import pytest
from treekeys import (
    SchemeMetrics,
    baselines,
    canonical_allocation,
    min_chain_partition,
    min_leaf_out_tree,
    min_weight_out_tree,
    parse_policy,
    scheme_metrics,
)

from conftest import PERFBENCH, load_perfbench

inputs, checks = load_perfbench("inputs"), load_perfbench("checks")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["deploy-sparse"]


def recorded(metrics):
    return {field: getattr(metrics, field) for field in checks.METRIC_FIELDS}


@pytest.mark.parametrize("pool", range(inputs.SPARSE_POOL))
def test_pool_policy_matches_the_reference(pool):
    poset, users = parse_policy(inputs.sparse_policy(pool))
    # what build-tree --min-leaves writes
    tree = min_leaf_out_tree(poset, users)
    allocation = canonical_allocation(poset, tree)
    sizes = {x: len(points) for x, points in allocation.items()}
    metrics = SchemeMetrics.from_sizes(users, sizes, max(tree.depths().values()))
    # the rows compare prints
    rows = baselines.classic_scheme_metrics(poset, users)
    rows["chain"] = baselines.chain_metrics(poset, users, min_chain_partition(poset))
    rows["tree"] = scheme_metrics(poset, users, min_weight_out_tree(poset, users))
    assert {
        "tree": checks.digest(tree.to_json_dict()),
        "allocation": checks.digest({"phi": allocation}),
        "metrics": recorded(metrics),
        "compare": {name: recorded(m) for name, m in rows.items()},
    } == REFERENCE[str(pool)]
