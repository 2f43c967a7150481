"""Engine integration of the relational subsystem.

Covers the scenario-level policy knob (serialisation, memoisation and
pooling keys), the pool's retire-on-reorder contract, and the headline
invariant: campaign verdicts are byte-identical with and without
dynamic reordering.
"""

import pytest

from repro.bdd import BDDManager, swap_adjacent
from repro.engine import (
    CampaignRunner,
    ManagerPool,
    RelationalPolicy,
    Scenario,
)
from repro.relational.policy import MONOLITHIC_POLICY
from repro.strings import CONTROL, NORMAL

#: A policy that always sifts (threshold 0) — small scenarios only.
SIFT_ALWAYS = RelationalPolicy(reorder="sift", reorder_threshold=0)


class TestPolicyOnScenario:
    def test_round_trip_through_dict(self):
        scenario = Scenario(
            name="t/policy",
            slots=(NORMAL, CONTROL),
            relational=RelationalPolicy(reorder="converge", max_cluster_size=4),
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.relational.reorder == "converge"
        assert rebuilt.relational.max_cluster_size == 4
        # Older payloads still carry the retired kernel-backend and
        # beta-product knobs.
        legacy = scenario.to_dict()
        legacy["relational"] = dict(legacy["relational"], kernel_backend=None)
        assert Scenario.from_dict(legacy) == scenario
        legacy["relational"] = dict(legacy["relational"], beta_product="schedule")
        assert Scenario.from_dict(legacy) == scenario

    def test_dict_payload_accepted_directly(self):
        scenario = Scenario(
            name="t/policy-dict",
            slots=(NORMAL,),
            relational={"reorder": "sift", "reorder_threshold": 5},
        )
        assert isinstance(scenario.relational, RelationalPolicy)
        assert scenario.relational.reorder_threshold == 5

    def test_policy_joins_cache_key(self):
        plain = Scenario(name="t/a", slots=(NORMAL,))
        tuned = Scenario(name="t/a", slots=(NORMAL,), relational=SIFT_ALWAYS)
        assert plain.cache_key() != tuned.cache_key()

    def test_order_signature_isolates_reordering_scenarios(self):
        plain = Scenario(name="t/a", slots=(NORMAL,))
        partition_only = Scenario(
            name="t/b", slots=(NORMAL,), relational=RelationalPolicy()
        )
        reordering = Scenario(name="t/c", slots=(NORMAL,), relational=SIFT_ALWAYS)
        # Partitioning knobs never change the variable order -> shared pool.
        assert plain.order_signature() == partition_only.order_signature()
        # A reordering scenario must not share a manager with the others.
        assert reordering.order_signature() != plain.order_signature()

    def test_invalid_policy_values_rejected(self):
        with pytest.raises(ValueError):
            RelationalPolicy(reorder="shuffle")
        with pytest.raises(ValueError):
            RelationalPolicy(max_cluster_size=0)
        with pytest.raises(TypeError):
            Scenario(name="t/bad", slots=(NORMAL,), relational="sift")

    def test_policy_rejected_on_superscalar_scenarios(self):
        from repro.isa import vsm as vsm_isa

        program = (vsm_isa.VSMInstruction("add", False, 1, 2, 3).encode(),)
        with pytest.raises(ValueError):
            Scenario(
                name="t/super",
                kind="superscalar",
                program=program,
                relational=RelationalPolicy(),
            )


class TestPoolRetireOnReorder:
    def test_reordered_manager_is_not_handed_out_again(self):
        pool = ManagerPool()
        signature = ("sig",)
        manager = pool.acquire(signature)
        manager.declare_all(["x", "y", "z"])
        manager.apply_and(manager.var("x"), manager.var("y"))
        swap_adjacent(manager, 0)  # dynamic reorder fires the hook
        assert pool.reorder_evictions == 1
        replacement = pool.acquire(signature)
        assert replacement is not manager
        assert pool.statistics()["reorder_evictions"] == 1

    def test_unreordered_manager_is_reused(self):
        pool = ManagerPool()
        signature = ("sig",)
        manager = pool.acquire(signature)
        assert pool.acquire(signature) is manager
        assert pool.reorder_evictions == 0

    def test_statistics_keep_counters_of_evicted_managers(self):
        """Retired managers' cache activity stays in the aggregate."""
        pool = ManagerPool()
        manager = pool.acquire(("sig",))
        manager.declare_all(["x", "y", "z"])
        f = manager.apply_and(manager.var("x"), manager.var("y"))
        manager.exists(["y"], f)
        before = pool.statistics()["cache"]
        assert before["misses"] > 0
        swap_adjacent(manager, 0)  # evicts the manager, retiring its counters
        after = pool.statistics()["cache"]
        assert after["hits"] >= before["hits"]
        assert after["misses"] >= before["misses"]
        assert after["clears"] >= before["clears"]

    def test_eviction_is_scoped_to_the_right_manager(self):
        pool = ManagerPool()
        signature = ("sig",)
        first = pool.acquire(signature)
        first.declare_all(["x", "y"])
        swap_adjacent(first, 0)  # evicts `first`
        second = pool.acquire(signature)
        second.declare_all(["x", "y"])
        # A late reorder of the *old* manager must not evict the new one.
        swap_adjacent(first, 0)
        assert pool.acquire(signature) is second
        assert pool.reorder_evictions == 1


class TestVerdictsUnderReordering:
    """Reordering mutates every node mid-campaign; verdicts must not move."""

    def verdicts(self, scenario):
        runner = CampaignRunner()
        return runner.run([scenario]).verdict_json()

    def test_late_branch_verdict_byte_identical_with_reordering(self):
        # Late-branch window at k=2 keeps the test fast; the full k=4
        # comparison lives in benchmarks/bench_relational.py.
        plain = Scenario(name="t/late-branch", slots=(NORMAL, CONTROL))
        sifted = Scenario(
            name="t/late-branch", slots=(NORMAL, CONTROL), relational=SIFT_ALWAYS
        )
        assert self.verdicts(plain) == self.verdicts(sifted)

    def test_partition_policy_verdict_byte_identical(self):
        plain = Scenario(name="t/late-branch", slots=(NORMAL, CONTROL))
        partitioned = Scenario(
            name="t/late-branch",
            slots=(NORMAL, CONTROL),
            relational=RelationalPolicy(),
        )
        monolithic = Scenario(
            name="t/late-branch",
            slots=(NORMAL, CONTROL),
            relational=MONOLITHIC_POLICY,
        )
        reference = self.verdicts(plain)
        assert self.verdicts(partitioned) == reference
        assert self.verdicts(monolithic) == reference

    def test_failing_scenario_still_fails_identically(self):
        plain = Scenario(
            name="t/no-annul", slots=(CONTROL, NORMAL), bug="no_annul"
        )
        sifted = Scenario(
            name="t/no-annul",
            slots=(CONTROL, NORMAL),
            bug="no_annul",
            relational=SIFT_ALWAYS,
        )
        runner_a, runner_b = CampaignRunner(), CampaignRunner()
        out_a = runner_a.run_one(plain)
        out_b = runner_b.run_one(sifted)
        assert not out_a.passed and not out_b.passed
        # The same observables mismatch at the same samples; witnesses may
        # legitimately differ (minimal assignments follow the order).
        keys = lambda out: sorted(  # noqa: E731
            (m["sample_index"], m["observable"]) for m in out.mismatches
        )
        assert keys(out_a) == keys(out_b)

    def test_reorder_activity_is_recorded_as_measurement(self):
        sifted = Scenario(
            name="t/late-branch", slots=(NORMAL, CONTROL), relational=SIFT_ALWAYS
        )
        runner = CampaignRunner()
        outcome = runner.run_one(sifted)
        assert outcome.passed
        assert outcome.reorder  # sifting ran...
        assert outcome.reorder["phase"] == "post-specification"
        assert "reorder" not in outcome.verdict()  # ...but is not a verdict
        # A zero-threshold sifting scenario sifts unconditionally with an
        # exact root metric, so it may run on a pooled manager; the pool
        # retires that manager at the first swap, leaving it empty again.
        assert len(runner.pool) == 0
        assert runner.pool.statistics()["reorder_evictions"] == 1

    def test_thresholded_reordering_scenario_stays_private(self):
        """A size-triggered sift depends on pool history -> private manager."""
        thresholded = Scenario(
            name="t/thresholded",
            slots=(NORMAL, CONTROL),
            relational=RelationalPolicy(reorder="sift", reorder_threshold=10),
        )
        runner = CampaignRunner()
        outcome = runner.run_one(thresholded)
        assert outcome.passed
        assert len(runner.pool) == 0
        assert runner.pool.statistics()["acquisitions"] == 0
        assert runner.pool.statistics()["reorder_evictions"] == 0

    def test_campaign_with_reordering_scenario_keeps_pool_stats_sane(self):
        """Mixed campaign: the reordering scenario must not corrupt pool stats."""
        runner = CampaignRunner(memoize=False)
        runner.run_one(Scenario(name="t/warm", slots=(NORMAL, CONTROL)))
        report = runner.run(
            [
                Scenario(
                    name="t/sifted",
                    slots=(NORMAL, CONTROL),
                    relational=SIFT_ALWAYS,
                ),
                Scenario(name="t/after", slots=(NORMAL, CONTROL)),
            ]
        )
        cache = report.pool["cache"]
        assert cache["hits"] >= 0 and cache["misses"] >= 0
        assert cache["clears"] >= 0 and cache["evicted_entries"] >= 0
        # The sifted scenario's pooled manager was retired at its first
        # swap; the plain one reused the warm manager.
        assert report.pool["reorder_evictions"] == 1
        assert report.pool["reuses"] == 1


class TestDefaultSiftingCampaignStatistics:
    """Pool retirement accounting under a campaign that sifts by default.

    Zero-threshold sifting scenarios run on pooled managers and retire
    them at their first swap, so one campaign can retire several
    managers.  Every pool counter — ``reorder_evictions`` and the folded
    cache counters of retired managers — must stay monotonic throughout,
    and the verdicts must match fresh-runner runs byte for byte.
    """

    SCENARIOS = [
        Scenario(name="t/sift-a", slots=(NORMAL, CONTROL), relational=SIFT_ALWAYS),
        Scenario(name="t/sift-b", slots=(CONTROL, NORMAL), relational=SIFT_ALWAYS),
        Scenario(name="t/sift-c", slots=(NORMAL, NORMAL), relational=SIFT_ALWAYS),
    ]

    MONOTONIC_COUNTERS = ("hits", "misses", "evicted_entries", "clears")

    def test_multiple_retirements_keep_counters_monotonic(self):
        runner = CampaignRunner(memoize=False)
        previous = runner.pool.statistics()
        evictions_seen = previous["reorder_evictions"]
        for scenario in self.SCENARIOS:
            outcome = runner.run_one(scenario)
            assert outcome.passed
            assert outcome.reorder["swaps"] > 0  # sifting really ran
            stats = runner.pool.statistics()
            assert stats["reorder_evictions"] >= evictions_seen
            for counter in self.MONOTONIC_COUNTERS:
                assert stats["cache"][counter] >= previous["cache"][counter], counter
            previous, evictions_seen = stats, stats["reorder_evictions"]
        # Every sifting scenario's manager was acquired from the pool and
        # retired again by its first swap.
        assert previous["acquisitions"] == len(self.SCENARIOS)
        assert previous["reorder_evictions"] == len(self.SCENARIOS)
        assert previous["managers"] == 0
        # Folded counters survive a full pool clear, still monotonic.
        runner.pool.clear()
        final = runner.pool.statistics()
        for counter in self.MONOTONIC_COUNTERS:
            assert final["cache"][counter] >= previous["cache"][counter], counter

    def test_pooled_sifting_verdicts_match_fresh_runs(self):
        campaign = CampaignRunner(memoize=False).run(self.SCENARIOS)
        fresh = [CampaignRunner().run([scenario]) for scenario in self.SCENARIOS]
        for outcome, single in zip(campaign.outcomes, fresh):
            assert [outcome.verdict()] == [o.verdict() for o in single.outcomes]
        assert campaign.pool["reorder_evictions"] == len(self.SCENARIOS)

    def test_same_signature_scenarios_each_get_a_fresh_manager(self):
        """After a retirement the next acquisition must not see the old order."""
        runner = CampaignRunner(memoize=False)
        first = runner.run_one(self.SCENARIOS[0])
        second = runner.run_one(self.SCENARIOS[0].renamed("t/sift-a2"))
        assert first.verdict()["passed"] and second.verdict()["passed"]
        stats = runner.pool.statistics()
        assert stats["acquisitions"] == 2
        assert stats["reuses"] == 0
        assert stats["reorder_evictions"] == 2

    def test_events_scenario_with_reordering(self):
        plain = Scenario(
            name="t/event", kind="events", slots=(NORMAL,) * 3, event_slots=(1,)
        )
        sifted = Scenario(
            name="t/event",
            kind="events",
            slots=(NORMAL,) * 3,
            event_slots=(1,),
            relational=SIFT_ALWAYS,
        )
        verdicts = lambda s: CampaignRunner().run([s]).verdict_json()  # noqa: E731
        assert verdicts(plain) == verdicts(sifted)
