import gc
import itertools
import os
import traceback

import pytest

from treekeys import (
    DerivationOutTree,
    Poset,
    canonical_allocation,
    oracles,
)
from treekeys.errors import PolicyError
from treekeys.oracles import (
    EnumerationBudgetError,
    allocation_by_definition,
    brute_min_leaf_count,
    brute_min_weight,
    charged_sets,
    closure,
    coalition_reachability,
    covers,
    enumerate_out_trees,
    extra_key_labels,
    random_poset,
    random_users,
    rematching_min_leaf_tree,
    run_suite,
)

from conftest import one_user_each


class TestEnumeration:
    def test_sample_has_eight_trees(self, poset8):
        trees = list(enumerate_out_trees(poset8, covers(poset8)))
        assert len(trees) == 8  # in-degree product 2*1*2*2*1*1*1
        assert len({tuple(sorted(t.parent.items())) for t in trees}) == 8

    def test_total_order_has_one_tree(self):
        labels = list("abcd")
        poset = Poset.from_arcs(labels, [(labels[i + 1], labels[i]) for i in range(3)])
        assert sum(1 for _ in enumerate_out_trees(poset, covers(poset))) == 1

    def test_rooted_antichain_has_one_tree(self):
        poset = Poset.from_arcs(["x", "y"], [])  # gains a virtual root
        trees = list(enumerate_out_trees(poset, covers(poset)))
        assert len(trees) == 1
        assert trees[0].parent == {"x": poset.root, "y": poset.root}

    def test_too_many_labels_refused(self):
        labels = [f"v{i}" for i in range(10)]
        poset = Poset.from_arcs(labels + ["r"], [("r", lab) for lab in labels])
        with pytest.raises(EnumerationBudgetError):
            list(enumerate_out_trees(poset, covers(poset)))

    def test_nine_label_chain_closure_reaches_the_bound(self):
        # the k-th label below the root has k candidate parents: 8! trees in
        # all, the most any poset within the 9-label limit can give
        labels = [f"v{i}" for i in range(9)]
        chain = Poset.from_arcs(labels, [(labels[i + 1], labels[i]) for i in range(8)])
        assert len(chain.labels) == oracles.TREE_ENUMERATION_MAX_LABELS
        assert sum(1 for _ in enumerate_out_trees(chain, closure(chain))) == 40_320
        users = one_user_each(chain)
        weight, tree = brute_min_weight(chain, users, charged_sets(chain, closure(chain)))
        assert weight == 8  # each label's cover charges only the label itself
        assert tree.parent == {labels[i]: labels[i + 1] for i in range(8)}

    def test_every_enumerated_tree_is_valid(self, poset8):
        from treekeys import validate_tree

        for tree in enumerate_out_trees(poset8, closure(poset8)):
            validate_tree(poset8, tree)


class TestBruteMinWeight:
    def test_sample_minimum_is_ten(self, poset8, users8):
        weight, tree = brute_min_weight(poset8, users8, charged_sets(poset8, covers(poset8)))
        assert weight == 10
        assert tree.parent["a"] == "c" and tree.parent["c"] == "d"

    def test_no_users_no_cost(self, poset8):
        nobody = {}
        weight, _ = brute_min_weight(poset8, nobody, charged_sets(poset8, covers(poset8)))
        assert weight == 0

    def test_closure_candidates_same_minimum(self, poset8, users8):
        weight, _ = brute_min_weight(poset8, users8, charged_sets(poset8, closure(poset8)))
        assert weight == 10

    def test_sample_min_leaf_count(self, poset8, users8):
        cover_charged = charged_sets(poset8, covers(poset8))
        assert brute_min_leaf_count(poset8, users8, cover_charged) == (10, 3)

    def test_rematching_reads_its_arcs_once(self, poset8, users8):
        # an iterator of arcs is empty by a second read
        arcs = list(covers(poset8))
        got = rematching_min_leaf_tree(poset8, users8, iter(arcs))
        assert got == rematching_min_leaf_tree(poset8, users8, arcs)

    @pytest.mark.parametrize("use_closure", [False, True], ids=["covers", "closure"])
    def test_parent_tuples_match_a_loop_over_enumerated_trees(self, use_closure):
        for seed in range(300):
            poset = random_poset(3 + seed % 5, 0.2 + 0.1 * (seed % 6), seed)
            users = random_users(poset, seed + 1)
            arcs = closure(poset) if use_closure else covers(poset)
            best = fewest = None
            for tree in enumerate_out_trees(poset, arcs):
                total = sum(
                    users[x] for arc in tree.arcs() for x in extra_key_labels(poset, arc)
                )
                if best is None or total < best[0]:
                    best = (total, tree)
                if fewest is None or (total, len(tree.leaves())) < fewest:
                    fewest = (total, len(tree.leaves()))
            assert brute_min_weight(poset, users, charged_sets(poset, arcs)) == best, seed
            leaf_count = brute_min_leaf_count(poset, users, charged_sets(poset, arcs))
            assert leaf_count == (best[0], fewest[1]), seed

    @pytest.mark.parametrize("brute", [brute_min_weight, brute_min_leaf_count])
    def test_budgets_are_enforced_before_any_tree(self, poset8, users8, monkeypatch, brute):
        products = []
        real = itertools.product
        monkeypatch.setattr(itertools, "product", lambda *a: products.append(a) or real(*a))
        labels = [f"v{i}" for i in range(10)]
        wide = Poset.from_arcs(labels, [])
        with pytest.raises(EnumerationBudgetError, match="limit is 9"):
            brute(wide, one_user_each(wide), charged_sets(wide, covers(wide)))
        assert products == []
        brute(poset8, users8, charged_sets(poset8, covers(poset8)))  # the spy sees a product
        assert len(products) == 1


class TestAllocationByDefinition:
    def test_matches_optimized_on_sample(self, poset8, users8, tree8_gd):
        literal = allocation_by_definition(poset8, tree8_gd, charged_sets(poset8, tree8_gd.arcs()))
        assert literal == canonical_allocation(poset8, tree8_gd)
        assert sum(len(v) for v in literal.values()) == 11

    def test_root_only(self):
        poset = Poset.from_arcs(["r"], [])
        tree = DerivationOutTree(root="r", parent={})
        assert allocation_by_definition(poset, tree, {}) == {"r": ("r",)}


class TestCoalitions:
    def test_pair_coalition(self, poset8, users8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        reached = coalition_reachability(poset8, tree8_gd, allocation, ["b", "e"])
        assert reached == {"a", "b", "c", "e"}

    def test_root_coalition_reaches_everything(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        assert coalition_reachability(poset8, tree8_gd, allocation, ["h"]) == set(poset8.labels)

    def test_empty_coalition(self, poset8, tree8_gd):
        allocation = canonical_allocation(poset8, tree8_gd)
        assert coalition_reachability(poset8, tree8_gd, allocation, []) == frozenset()

    def test_matches_down_set_union_on_sample(self, poset8, tree8_gd):
        import itertools

        allocation = canonical_allocation(poset8, tree8_gd)
        for members in itertools.combinations(poset8.labels, 2):
            reached = coalition_reachability(poset8, tree8_gd, allocation, members)
            expected = poset8.down_set(members[0]) | poset8.down_set(members[1])
            assert reached == expected


class TestRandomInstances:
    def test_deterministic_in_seed(self):
        assert random_poset(6, 0.4, 77) == random_poset(6, 0.4, 77)
        poset = random_poset(6, 0.4, 77)
        assert random_users(poset, 5) == random_users(poset, 5)

    def test_respects_bounds(self):
        for seed in range(30):
            poset = random_poset(5, 0.5, seed)
            assert 5 <= len(poset.labels) <= 6  # virtual root may be added
            users = random_users(poset, seed)
            assert all(0 <= c <= 3 for c in users.values())

    def test_rejects_oversized_request(self):
        with pytest.raises(Exception):
            random_poset(13, 0.5, 0)


class TestSuite:
    def test_policy_only_run(self, poset8, users8):
        report = run_suite(poset8, users8, seeds=0)
        assert report.passed
        assert all(check.instances == 1 for check in report.checks)

    def test_random_seeds_run(self, poset8, users8):
        report = run_suite(poset8, users8, seeds=8)
        assert report.passed
        assert all(check.instances == 9 for check in report.checks)
        names = {check.name for check in report.checks}
        assert "tree-weight-vs-enumeration" in names
        assert "derive-refusal" in names

    def test_report_serializes(self, poset8, users8):
        report = run_suite(poset8, users8, seeds=2)
        doc = report.to_json_dict()
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {c.name for c in report.checks}
        assert all(c["counterexample"] is None for c in doc["checks"])

    def test_counterexamples_are_recorded(self):
        from treekeys.oracles import CheckResult

        check = CheckResult(name="demo")
        check.record(True, {"seed": 1})
        check.record(False, {"seed": 2})
        check.record(False, {"seed": 3})
        assert not check.passed
        assert check.instances == 3
        assert check.counterexample == {"seed": 2}  # first failure wins

    def test_examined_instances_leave_no_cyclic_garbage(self):
        # each instance's tables must be freed by reference counting alone:
        # a self-referencing closure, say, would hold them for the collector
        gc.collect()
        gc.disable()
        try:
            oracles._examine_block(range(5, 45), 1_000_000)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSplitSuite:
    """``run_suite`` cuts the random instances into one block per usable CPU."""

    def test_report_does_not_depend_on_the_cpu_count(self, poset8, users8, monkeypatch):
        docs = []
        for cpus in (1, 3):
            monkeypatch.setattr(oracles, "_usable_cpus", lambda: cpus)
            doc = run_suite(poset8, users8, seeds=50).to_json_dict()
            del doc["elapsed_seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["passed"] and all(c["instances"] == 51 for c in docs[0]["checks"])

    def test_lowest_failing_seed_wins_across_blocks(self, poset8, users8, monkeypatch):
        # three blocks of 20 seeds; seeds 25 and 45 fail in the two worker blocks
        real = oracles.brute_width
        monkeypatch.setattr(oracles, "brute_width", real)
        examine = oracles._examine_instance

        def failing_at(poset, users, seed, results, payload):
            oracles.brute_width = (lambda p: -1) if payload.get("seed") in (25, 45) else real
            examine(poset, users, seed, results, payload)

        monkeypatch.setattr(oracles, "_examine_instance", failing_at)
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 3)
        report = run_suite(poset8, users8, seeds=60)
        assert all(c.instances == 61 for c in report.checks)
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["width-vs-bruteforce"]
        assert failed[0].counterexample["seed"] == 25

    def test_worker_error_reaches_the_caller_as_its_type(self, poset8, users8, monkeypatch):
        real = oracles.random_poset

        def broken(element_count, edge_density, seed):
            if seed == 40:  # in the second of two blocks
                raise PolicyError(f"raised in process {os.getpid()}")
            return real(element_count, edge_density, seed)

        monkeypatch.setattr(oracles, "random_poset", broken)
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 2)
        with pytest.raises(PolicyError, match="raised in process") as caught:
            run_suite(poset8, users8, seeds=50)
        # the caller met the error again in its own run of the failed block
        assert int(str(caught.value).rsplit(" ", 1)[1]) == os.getpid()
        frames = "".join(traceback.format_tb(caught.value.__traceback__))
        assert ", in broken\n" in frames and ", in _examine_block\n" in frames

    @pytest.mark.parametrize("seeds", [0, 1])
    def test_zero_or_one_seed_starts_no_worker(self, poset8, users8, monkeypatch, seeds):
        forks = []
        real = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return real()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 3)
        report = run_suite(poset8, users8, seeds=seeds)
        assert report.passed and all(c.instances == 1 + seeds for c in report.checks)
        assert forks == []
        report = run_suite(poset8, users8, seeds=2)
        assert report.passed and all(c.instances == 3 for c in report.checks)
        assert forks == [os.getpid()]

    def test_dying_workers_block_is_examined_by_the_caller(self, poset8, users8, monkeypatch):
        caller = os.getpid()
        real = oracles._examine_block
        examined = []

        def dying(block, base_seed, results=None):
            if os.getpid() != caller:
                os._exit(1)
            examined.append(block)
            return real(block, base_seed, results)

        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 1)
        alone = run_suite(poset8, users8, seeds=30).to_json_dict()
        monkeypatch.setattr(oracles, "_examine_block", dying)
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 3)
        forked = run_suite(poset8, users8, seeds=30).to_json_dict()
        del alone["elapsed_seconds"], forked["elapsed_seconds"]
        assert forked == alone
        assert examined == [range(0, 10), range(10, 20), range(20, 30)]

    def test_passing_workers_block_is_not_examined_again(self, poset8, users8, monkeypatch):
        caller = os.getpid()
        seen = []
        examine = oracles._examine_instance

        def noting(poset, users, seed, results, payload):
            if os.getpid() == caller:
                seen.append(payload.get("seed", "policy"))
            examine(poset, users, seed, results, payload)

        monkeypatch.setattr(oracles, "_examine_instance", noting)
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 2)
        report = run_suite(poset8, users8, seeds=40)
        assert report.passed and all(c.instances == 41 for c in report.checks)
        assert seen == ["policy", *range(20)]

    def test_error_in_the_callers_block_leaves_no_child(self, poset8, users8, monkeypatch):
        real = oracles.random_poset

        def broken(element_count, edge_density, seed):
            if seed == 5:  # in the caller's own block
                raise PolicyError("raised in the caller")
            return real(element_count, edge_density, seed)

        monkeypatch.setattr(oracles, "random_poset", broken)
        monkeypatch.setattr(oracles, "_usable_cpus", lambda: 3)
        with pytest.raises(PolicyError, match="raised in the caller"):
            run_suite(poset8, users8, seeds=30)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert oracles._usable_cpus() == 5
