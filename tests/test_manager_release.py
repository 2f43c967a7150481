"""Pooled managers are freed as soon as no later scenario can reuse them.

A serial campaign releases each order signature's manager right after
the signature's last scenario, whatever that scenario's outcome; a
parallel worker releases its managers when a unit ends; the fuzz
minimizer releases its candidates' managers when a witness's walk
ends.  A release frees the manager at once (no cyclic-collector pass
needed), its counters fold into the pool's, and verdicts stay
byte-identical to a fresh runner per scenario.
"""

import gc
import json
import os
import weakref

import pytest

from repro.campaigns import run_fuzz_campaign
from repro.engine import CampaignReport, CampaignRunner, ManagerPool, Scenario
from repro.engine import runner as runner_module
from repro.resilience import FaultPlan, FaultSpec, SupervisionPolicy, faults
from repro.strings import CONTROL, NORMAL

#: (A, B, A, C): A's manager is reused across B, then released.
CAMPAIGN = [
    Scenario(name="a/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="b/golden", slots=(CONTROL, NORMAL)),
    Scenario(name="a/bug", slots=(NORMAL, NORMAL), bug="no_bypass"),
    Scenario(name="c/golden", slots=(NORMAL, CONTROL)),
]

#: Two workers, fair share 3: the (N,N) shard of four splits into units
#: of 3 and 1, so some worker meets a signature in a second unit.
PARALLEL_CAMPAIGN = [
    Scenario(name="nn/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="nn/no_bypass", slots=(NORMAL, NORMAL), bug="no_bypass"),
    Scenario(name="nn/and_or", slots=(NORMAL, NORMAL), bug="and_becomes_or"),
    Scenario(name="nn/drop_r3", slots=(NORMAL, NORMAL), bug="drop_write_r3"),
    Scenario(name="cn/golden", slots=(CONTROL, NORMAL)),
    Scenario(name="cn/no_bypass", slots=(CONTROL, NORMAL), bug="no_bypass"),
]


@pytest.fixture(autouse=True)
def _injection_off():
    faults.configure(None)
    yield
    faults.configure(None)


def _fresh_verdicts(scenarios):
    """The verdict JSON of one fresh runner per scenario."""
    outcomes = [CampaignRunner().run_one(scenario) for scenario in scenarios]
    return CampaignReport(outcomes=outcomes, mode="serial").verdict_json()


class _RecordingPool(ManagerPool):
    """Notes the pooled signatures at every acquire and a weak reference
    to every manager it creates."""

    def __init__(self):
        super().__init__()
        self.pooled_at_acquire = []
        self.created_refs = []

    def acquire(self, signature):
        self.pooled_at_acquire.append(set(self._managers))
        fresh = signature not in self._managers
        manager = super().acquire(signature)
        if fresh:
            self.created_refs.append(weakref.ref(manager))
        return manager


def _run_without_collector(runner, scenarios, **kwargs):
    """Run with the cyclic collector off; returns (report, managers alive)."""
    gc.collect()
    gc.disable()
    try:
        report = runner.run(scenarios, **kwargs)
        alive = [ref for ref in runner.pool.created_refs if ref() is not None]
    finally:
        gc.enable()
    return report, alive


class TestSerialRelease:
    def test_each_manager_lives_until_its_signatures_last_scenario(self):
        pool = _RecordingPool()
        runner = CampaignRunner(pool=pool, memoize=False)
        report, alive = _run_without_collector(runner, CAMPAIGN)

        signatures = [scenario.order_signature() for scenario in CAMPAIGN]
        expected = [
            {signatures[j] for j in range(i) if signatures[j] in signatures[i:]}
            for i in range(len(CAMPAIGN))
        ]
        assert expected == [set(), {signatures[0]}, {signatures[0]}, set()]
        assert pool.pooled_at_acquire == expected
        assert report.pool["reuses"] == 1
        assert report.pool["managers"] == 3  # created, not still pooled
        assert len(pool) == 0
        # Freed by reference counting alone, with the collector off.
        assert alive == []
        assert report.verdict_json() == _fresh_verdicts(CAMPAIGN)

    @pytest.mark.parametrize("supervised", [False, True], ids=["error", "retry"])
    def test_failed_and_retried_scenarios_release_too(self, supervised):
        # Scenario 2 is A's last use; its first attempt raises.
        plan = FaultPlan(sites={"scenario.run": FaultSpec(kind="error", at=(2,))})
        policy = SupervisionPolicy(max_attempts=2, backoff_base=0.0) if supervised else None
        pool = _RecordingPool()
        runner = CampaignRunner(pool=pool, memoize=False)
        with faults.active(plan):
            report, alive = _run_without_collector(runner, CAMPAIGN, supervision=policy)
        failed = report.outcome("a/bug")
        assert (failed.error is None) == supervised
        assert len(pool) == 0 and alive == []
        assert pool.pooled_at_acquire[-1] == set()

    def test_release_keeps_the_counters(self):
        runner = CampaignRunner(memoize=False)
        report = runner.run(CAMPAIGN)
        stats = runner.pool.statistics()
        assert stats["managers"] == 0 and stats["created"] == 3
        assert stats["total_nodes"] == 0 and stats["arena"]["live"] == 0
        # Folded in at release, not lost with the managers.
        assert report.pool["arena"]["allocated_total"] > 0
        assert report.pool["arena"]["peak_live"] > 0
        assert report.pool["cache"]["hits"] > 0
        assert "3 manager(s) created" in report.summary()


class TestPoolRelease:
    def test_peak_live_folds_over_released_managers(self):
        pool = ManagerPool()
        small, large = pool.acquire(("small",)), pool.acquire(("large",))
        small.apply_and(small.var("a"), small.var("b"))
        large.conjoin([large.var(f"x{i}") for i in range(20)])
        peaks = small.arena_statistics()["peak_live"] + large.arena_statistics()["peak_live"]
        allocated = pool.statistics()["arena"]["allocated_total"]

        pool.release(("large",))
        assert large.arena_statistics()["capacity"] == 2  # storage dropped at once
        assert pool.statistics()["arena"]["peak_live"] == peaks
        pool.release(("small",))
        pool.release(("small",))  # nothing pooled: no-op
        stats = pool.statistics()
        assert (stats["managers"], stats["created"]) == (0, 2)
        assert stats["arena"]["peak_live"] == peaks
        assert stats["arena"]["allocated_total"] == allocated

    def test_released_manager_leaves_no_cycle(self):
        pool = ManagerPool()
        manager = pool.acquire(("order",))
        kept = manager.apply_or(manager.var("a"), manager.var("b"))
        ref = weakref.ref(manager)
        del manager
        gc.collect()
        gc.disable()
        try:
            pool.release(("order",))
            assert ref() is not None  # ``kept`` still names it
            assert len(ref()._level) == 2
            del kept
            assert ref() is None
        finally:
            gc.enable()

    def test_absorb_keeps_the_shared_templates(self):
        worker = ManagerPool()
        worker.relation_templates._templates[("chain",)] = object()
        job = ManagerPool()
        job.relation_templates = worker.relation_templates
        job.acquire(("order",))
        worker.absorb(job)
        assert len(worker.relation_templates) == 1
        assert len(job) == 0 and worker.statistics()["created"] == 1


def _borrowing_job(argument, runner):
    argument.append(runner.pool.relation_templates)
    runner.pool.acquire(("order",))


class TestSpeculativeJobs:
    def test_job_borrows_the_worker_templates(self):
        worker = ManagerPool()
        seen = []
        runner_module._run_job(0, (_borrowing_job, seen), worker, None)
        assert len(seen) == 1 and seen[0] is worker.relation_templates
        stats = worker.statistics()
        assert (stats["managers"], stats["created"], stats["acquisitions"]) == (0, 1, 1)


def _minimized_hunt(runner):
    """A serial hunt whose two witnesses are minimized: one collapses
    onto a known record, the other is new."""
    result = run_fuzz_campaign(
        2, 6, runner=runner, classes=("bypass_drop", "branch_skew")
    )
    assert result.minimization["runs"] == 2
    assert [d.get("minimized") for d in result.duplicates] == [True]
    assert len(result.new_records) == 1
    return json.dumps(
        [result.duplicates, result.new_records, result.minimization],
        sort_keys=True,
        default=str,
    )


class TestMinimizerRelease:
    def test_minimization_leaves_no_manager_pooled(self):
        pool = _RecordingPool()
        runner = CampaignRunner(pool=pool)
        records = _minimized_hunt(runner)
        # The minimizer's candidates did take managers, and freed them.
        assert runner.pool.statistics()["created"] > 0
        assert len(runner.pool) == 0
        assert all(ref() is None for ref in pool.created_refs)
        assert records == _minimized_hunt(CampaignRunner())


class TestParallelRelease:
    def test_every_unit_starts_on_an_empty_pool(self, tmp_path, monkeypatch):
        # Forked workers inherit the patched acquire and append one line
        # per acquisition: the worker's pid, the signature, and the
        # signatures already pooled.
        log = tmp_path / "acquires.jsonl"
        original = ManagerPool.acquire

        def logged(self, signature):
            with open(log, "a") as handle:
                handle.write(
                    json.dumps([os.getpid(), repr(signature), sorted(map(repr, self._managers))])
                    + "\n"
                )
            return original(self, signature)

        monkeypatch.setattr(ManagerPool, "acquire", logged)
        plan = FaultPlan(sites={"worker.crash": FaultSpec(kind="crash", at=(0,), max_fires=1)})
        with faults.active(plan):
            report = CampaignRunner(memoize=False).run(
                PARALLEL_CAMPAIGN, parallel=True, max_workers=2, mp_context="fork"
            )
        monkeypatch.undo()
        assert report.resilience["workers"]["respawned"] == 1
        assert report.pool["units"] == 3
        assert report.verdict_json() == _fresh_verdicts(PARALLEL_CAMPAIGN)

        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) == len(PARALLEL_CAMPAIGN)
        for _, signature, pooled in entries:
            assert set(pooled) <= {signature}
        records = report.pool["per_worker"]
        assert sum(worker["units"] for worker in records) == 3
        for worker in records:
            pool = worker["pool"]
            # Units are single-signature, so one fresh manager per unit.
            assert pool["managers"] == 0
            assert pool["created"] == worker["units"]
