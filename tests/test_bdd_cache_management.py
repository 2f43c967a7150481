"""Operation-cache bounding, clearing and accounting of :class:`BDDManager`.

Long campaigns reuse one manager across many verification runs, so the
operation caches must be bounded (or at least clearable) without ever
changing results: the unique table holds the canonical functions, the
caches only memoise recomputation.  These tests pin down that clearing
and bounding are invisible to semantics, and that the size/hit-rate
accounting used by campaign reports is consistent.
"""

import random

import pytest

from repro.bdd import BDDManager
from repro.core import VSMArchitecture, all_normal, verify_beta_relation

from test_bdd_random_properties import VARIABLES, make_cases


def build_workload(manager, cases=120):
    """Elaborate a deterministic batch of random expressions."""
    return [build(manager) for build, _ in make_cases(cases, depth=4)]


class TestClearCaches:
    def test_results_identical_before_and_after_clearing(self):
        manager = BDDManager(variables=VARIABLES)
        first = build_workload(manager)
        assert manager.cache_size() > 0
        manager.clear_caches()
        assert manager.cache_size() == 0
        second = build_workload(manager)
        # Canonicity: recomputation after a clear reproduces the same nodes.
        for before, after in zip(first, second):
            assert before is after

    def test_clearing_is_counted(self):
        manager = BDDManager(variables=VARIABLES)
        build_workload(manager, cases=20)
        evicted_expected = manager.cache_size()
        assert evicted_expected > 0
        manager.clear_caches()
        stats = manager.cache_statistics()
        assert stats["clears"] >= 1
        assert stats["evicted_entries"] == evicted_expected
        assert stats["total_entries"] == 0

    def test_quantification_cache_cleared_too(self):
        manager = BDDManager(variables=VARIABLES)
        f = manager.apply_or(
            manager.apply_and(manager.var("a"), manager.var("b")), manager.var("c")
        )
        smoothed = manager.exists(["a"], f)
        assert manager.cache_statistics()["quantify_entries"] > 0
        manager.clear_caches()
        assert manager.cache_statistics()["quantify_entries"] == 0
        assert manager.exists(["a"], f) is smoothed


class TestBoundedCaches:
    def test_bounded_manager_computes_identical_nodes(self):
        unbounded = BDDManager(variables=VARIABLES)
        bounded = BDDManager(variables=VARIABLES, cache_limit=64)
        free = build_workload(unbounded)
        tight = build_workload(bounded)
        for a, b in zip(free, tight):
            # Distinct managers, so compare semantics via truth tables.
            assert unbounded.sat_count(a, VARIABLES) == bounded.sat_count(b, VARIABLES)
            assert unbounded.support(a) == bounded.support(b)

    def test_cache_size_stays_bounded(self):
        limit = 50
        manager = BDDManager(variables=VARIABLES, cache_limit=limit)
        build_workload(manager, cases=120)
        stats = manager.cache_statistics()
        # A cache may exceed the limit by at most nothing after a drop:
        # every insertion past the limit clears that cache.
        assert len(manager._ite_cache) <= limit
        assert stats["clears"] >= 1
        assert stats["evicted_entries"] > 0

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            BDDManager(cache_limit=0)
        manager = BDDManager()
        with pytest.raises(ValueError):
            manager.cache_limit = -5

    def test_limit_can_be_tightened_later(self):
        manager = BDDManager(variables=VARIABLES)
        build_workload(manager, cases=40)
        assert manager.cache_size() > 10
        manager.cache_limit = 10
        assert manager.cache_size() <= 10
        assert manager.cache_limit == 10

    def test_bounded_verification_verdict_unchanged(self):
        """A full verification run is unaffected by a tiny cache bound."""
        reference = verify_beta_relation(VSMArchitecture(), all_normal(1))
        squeezed = verify_beta_relation(
            VSMArchitecture(), all_normal(1), manager=BDDManager(cache_limit=256)
        )
        assert squeezed.passed is reference.passed is True
        assert squeezed.specification_filter == reference.specification_filter
        assert squeezed.implementation_filter == reference.implementation_filter
        assert squeezed.bdd_nodes == reference.bdd_nodes


class TestAccounting:
    def test_hit_and_miss_counters_move(self):
        manager = BDDManager(variables=VARIABLES)
        a, b = manager.var("a"), manager.var("b")
        base = manager.cache_statistics()
        assert base["lookups"] == base["hits"] + base["misses"]
        manager.apply_and(a, b)
        after_miss = manager.cache_statistics()
        assert after_miss["misses"] > base["misses"]
        manager.apply_and(a, b)
        after_hit = manager.cache_statistics()
        assert after_hit["hits"] > after_miss["hits"]
        assert 0.0 <= after_hit["hit_rate"] <= 1.0

    def test_statistics_report_all_caches(self):
        manager = BDDManager(variables=VARIABLES)
        build_workload(manager, cases=10)
        manager.exists(["a"], manager.apply_and(manager.var("a"), manager.var("b")))
        stats = manager.cache_statistics()
        assert stats["total_entries"] == (
            stats["ite_entries"] + stats["quantify_entries"]
        )
        assert stats["ite_entries"] > 0 and stats["quantify_entries"] > 0
        assert stats["lookups"] == stats["hits"] + stats["misses"] > 0

    def test_random_identity_checks_with_aggressive_bounding(self):
        """Stress: tiny caches + periodic clears never change node identity."""
        rng = random.Random(99)
        manager = BDDManager(variables=VARIABLES, cache_limit=16)
        reference = BDDManager(variables=VARIABLES)
        for index, (build, _) in enumerate(make_cases(60, depth=3)):
            if index % 7 == 0:
                manager.clear_caches()
            bounded_node = build(manager)
            reference_node = build(reference)
            assert manager.sat_count(bounded_node, VARIABLES) == reference.sat_count(
                reference_node, VARIABLES
            )
