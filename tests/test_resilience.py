"""The resilience layer: fault injection, supervision and resume.

The engine's standing invariant — byte-identical verdicts on every
path — must extend to the *failure* paths.  This suite pins it
differentially: a campaign run under a seeded, quiescent fault
schedule (store I/O errors, record corruption, worker crashes, hangs,
scenario exceptions) reports verdicts byte-identical to the fault-free
run, serially and in parallel; a campaign interrupted mid-run and run
again against the same store replays only the finished scenarios and
still reproduces the fault-free bytes.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    CampaignRunner,
    FaultPlan,
    FaultSpec,
    Scenario,
    SupervisionPolicy,
)
from repro.resilience import (
    CRASH_EXIT_CODE,
    FaultInjector,
    InjectedError,
    InjectedFault,
    InjectedIOError,
    faults,
    transient,
)
from repro.strings import CONTROL, NORMAL

#: A small mixed campaign: two variable-order signatures, a shared
#: golden specification and a bug, so the parallel scheduler builds at
#: least two work units (each of two workers receives one).
CAMPAIGN = [
    Scenario(name="vsm/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="vsm/bug", slots=(NORMAL, NORMAL), bug="no_bypass"),
    Scenario(name="vsm/branchy", slots=(CONTROL, NORMAL)),
]


@pytest.fixture(autouse=True)
def _injection_off():
    """Every test starts and ends with fault injection disabled."""
    faults.configure(None)
    yield
    faults.configure(None)


@pytest.fixture(scope="module")
def baseline_verdicts():
    """The fault-free serial verdict bytes every faulted run must match."""
    return CampaignRunner().run(CAMPAIGN).verdict_json()


# ----------------------------------------------------------------------
# The fault plan: pure, seeded, budgeted
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decisions_are_pure_and_seeded(self):
        plan = FaultPlan(seed=7, sites={"scenario.run": FaultSpec(kind="error", rate=0.5)})
        first = [plan.should_fire("scenario.run", i) for i in range(64)]
        second = [plan.should_fire("scenario.run", i) for i in range(64)]
        assert first == second
        assert any(first) and not all(first)
        other = FaultPlan(seed=8, sites={"scenario.run": FaultSpec(kind="error", rate=0.5)})
        assert [other.should_fire("scenario.run", i) for i in range(64)] != first

    def test_explicit_indices_union_with_rate(self):
        plan = FaultPlan(seed=0, sites={"scenario.run": FaultSpec(kind="error", at=(3,))})
        assert plan.should_fire("scenario.run", 3)
        assert not plan.should_fire("scenario.run", 2)

    def test_unknown_site_and_kind_are_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(sites={"store.read.nonsense": FaultSpec()})
        with pytest.raises(ValueError):
            FaultSpec(kind="meltdown")
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)

    def test_round_trips_through_dict(self):
        plan = FaultPlan(
            seed=11,
            sites={
                "store.read.results": FaultSpec(kind="io", rate=0.25, at=(1, 5)),
                "worker.hang": FaultSpec(kind="hang", payload=2.5),
            },
        )
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan

    def test_max_fires_budget_makes_plans_quiescent(self):
        injector = FaultInjector(
            FaultPlan(sites={"scenario.run": FaultSpec(kind="error", rate=1.0, max_fires=2)})
        )
        fired = 0
        for _ in range(10):
            try:
                injector.fire("scenario.run")
            except InjectedError:
                fired += 1
        assert fired == 2
        stats = injector.statistics()
        assert stats["fires"] == 2
        assert stats["sites"]["scenario.run"]["invocations"] == 10

    def test_mangle_is_deterministic_and_budgeted(self):
        spec = FaultSpec(kind="corrupt", at=(0,), max_fires=1)
        data = b"0123456789abcdef"
        one = FaultInjector(FaultPlan(sites={"store.corrupt.results": spec}))
        two = FaultInjector(FaultPlan(sites={"store.corrupt.results": spec}))
        assert one.mangle("store.corrupt.results", data) == two.mangle(
            "store.corrupt.results", data
        )
        assert one.mangle("store.corrupt.results", data) == data  # budget spent

    def test_disabled_injection_is_a_no_op(self):
        faults.configure(None)
        faults.fire("scenario.run")  # must not raise
        assert faults.mangle("store.corrupt.results", b"data") == b"data"
        assert faults.statistics() is None

    def test_active_scope_restores_previous_injector(self):
        plan = FaultPlan(sites={"scenario.run": FaultSpec(kind="error", at=(0,))})
        assert faults.get_injector() is None
        with faults.active(plan) as injector:
            assert faults.get_injector() is injector
        assert faults.get_injector() is None

    def test_injected_exception_taxonomy(self):
        assert issubclass(InjectedIOError, OSError)
        assert issubclass(InjectedIOError, InjectedFault)
        assert issubclass(InjectedError, InjectedFault)
        assert not issubclass(InjectedError, OSError)


# ----------------------------------------------------------------------
# The supervision policy: seeded backoff, transient classification
# ----------------------------------------------------------------------
class TestSupervisionPolicy:
    def test_transient_classification(self):
        assert transient(InjectedError("x"))
        assert transient(InjectedIOError("x"))
        assert transient(OSError("disk"))
        assert transient(TimeoutError("slow"))
        assert not transient(KeyboardInterrupt())
        assert not transient(SystemExit())
        assert not transient(ValueError("deterministic bug"))

    def test_backoff_is_exponential_bounded_and_pure(self):
        policy = SupervisionPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0
        )
        assert policy.backoff_seconds("k", 1) == pytest.approx(0.1)
        assert policy.backoff_seconds("k", 2) == pytest.approx(0.2)
        assert policy.backoff_seconds("k", 3) == pytest.approx(0.3)  # capped
        assert policy.backoff_seconds("k", 9) == pytest.approx(0.3)

    def test_jitter_is_seeded_not_random(self):
        policy = SupervisionPolicy(jitter=0.5, seed=3)
        values = {policy.backoff_seconds("key", 1) for _ in range(5)}
        assert len(values) == 1  # pure function, no live RNG
        raw = SupervisionPolicy(jitter=0.0).backoff_seconds("key", 1)
        jittered = policy.backoff_seconds("key", 1)
        assert raw * 0.5 <= jittered <= raw
        assert policy.with_seed(4).backoff_seconds("key", 1) != jittered

    def test_retryable_requires_budget_and_transience(self):
        assert SupervisionPolicy(max_attempts=3).retryable(OSError("x"))
        assert not SupervisionPolicy(max_attempts=1).retryable(OSError("x"))
        assert not SupervisionPolicy(max_attempts=3).retryable(ValueError("x"))

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            SupervisionPolicy(soft_timeout=0.0)

    def test_round_trips_through_dict(self):
        policy = SupervisionPolicy(max_attempts=5, soft_timeout=2.0, seed=9)
        assert SupervisionPolicy.from_dict(policy.to_dict()) == policy


# ----------------------------------------------------------------------
# Differential: byte-identical verdicts under seeded fault schedules
# ----------------------------------------------------------------------
#: The acceptance schedules: every plan is quiescent (finite budgets),
#: so bounded retries/respawns must fully absorb it.
SCHEDULES = {
    "store-io-and-corruption": FaultPlan(
        seed=101,
        sites={
            "store.read.results": FaultSpec(kind="io", at=(0,), max_fires=1),
            "store.write.results": FaultSpec(kind="io", at=(1,), max_fires=1),
            "store.corrupt.snapshots": FaultSpec(kind="corrupt", at=(0,), max_fires=1),
        },
    ),
    "scenario-errors-retried": FaultPlan(
        seed=202,
        sites={"scenario.run": FaultSpec(kind="error", at=(0, 2), max_fires=2)},
    ),
    "worker-crash-respawned": FaultPlan(
        seed=303,
        sites={"worker.crash": FaultSpec(kind="crash", at=(0,), max_fires=1)},
    ),
}

POLICY = SupervisionPolicy(max_attempts=3, backoff_base=0.001, backoff_max=0.01)


class TestDifferentialFaultSchedules:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_serial_verdicts_survive_the_schedule(
        self, name, tmp_path, baseline_verdicts
    ):
        with faults.active(SCHEDULES[name]):
            report = CampaignRunner(store_path=tmp_path / "store").run(
                CAMPAIGN, supervision=POLICY
            )
        assert report.verdict_json() == baseline_verdicts
        assert report.resilience.get("faults", {}).get("seed") == SCHEDULES[name].seed

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_parallel_verdicts_survive_the_schedule(
        self, name, tmp_path, baseline_verdicts
    ):
        with faults.active(SCHEDULES[name]):
            report = CampaignRunner(store_path=tmp_path / "store").run(
                CAMPAIGN, parallel=True, max_workers=2, supervision=POLICY
            )
        assert report.verdict_json() == baseline_verdicts

    def test_store_faults_leave_the_store_consistent(self, tmp_path, baseline_verdicts):
        with faults.active(SCHEDULES["store-io-and-corruption"]):
            CampaignRunner(store_path=tmp_path / "store").run(
                CAMPAIGN, supervision=POLICY
            )
        # A clean re-run against the surviving store replays warm.
        report = CampaignRunner(store_path=tmp_path / "store").run(CAMPAIGN)
        assert report.verdict_json() == baseline_verdicts
        assert not list((tmp_path / "store").rglob("*.tmp"))


# ----------------------------------------------------------------------
# Supervised retry (serial)
# ----------------------------------------------------------------------
class TestSupervisedRetry:
    def test_transient_error_is_retried_and_counted(self, baseline_verdicts):
        plan = FaultPlan(sites={"scenario.run": FaultSpec(kind="error", at=(1,))})
        with faults.active(plan):
            report = CampaignRunner().run(CAMPAIGN, supervision=POLICY)
        assert report.verdict_json() == baseline_verdicts
        assert report.resilience["retries"] == 1
        assert report.resilience["policy"]["max_attempts"] == 3

    def test_without_supervision_the_fault_is_a_failure_outcome(self):
        plan = FaultPlan(sites={"scenario.run": FaultSpec(kind="error", at=(1,))})
        with faults.active(plan):
            report = CampaignRunner().run(CAMPAIGN)
        assert not report.passed
        failed = report.outcomes[1]
        assert failed.error is not None and "InjectedError" in failed.error
        # The other scenarios were isolated from the failure.
        assert report.outcomes[0].passed

    def test_retry_budget_exhaustion_fails_the_scenario(self):
        plan = FaultPlan(
            sites={"scenario.run": FaultSpec(kind="error", rate=1.0, max_fires=100)}
        )
        with faults.active(plan):
            report = CampaignRunner().run(
                CAMPAIGN[:1], supervision=SupervisionPolicy(max_attempts=2, backoff_base=0.0)
            )
        assert report.outcomes[0].error is not None
        assert report.resilience["retries"] == 1  # one retry, then it stood

    def test_store_write_failure_degrades_to_unpublished(self, tmp_path, baseline_verdicts):
        plan = FaultPlan(
            sites={"store.write.results": FaultSpec(kind="io", rate=1.0, max_fires=100)}
        )
        with faults.active(plan):
            report = CampaignRunner(store_path=tmp_path / "store").run(
                CAMPAIGN, supervision=POLICY
            )
        assert report.verdict_json() == baseline_verdicts
        assert all(o.store.get("status") == "write_failed" for o in report.outcomes)
        assert report.resilience["write_failures"] == len(CAMPAIGN)
        assert report.resilience["write_retries"] > 0


# ----------------------------------------------------------------------
# Worker supervision (parallel affinity)
# ----------------------------------------------------------------------
class TestWorkerSupervision:
    def test_crashed_worker_is_respawned_and_unit_redispatched(
        self, baseline_verdicts
    ):
        plan = FaultPlan(
            sites={"worker.crash": FaultSpec(kind="crash", at=(0,), max_fires=1)}
        )
        with faults.active(plan):
            report = CampaignRunner().run(CAMPAIGN, parallel=True, max_workers=2)
        assert report.verdict_json() == baseline_verdicts
        workers = report.resilience["workers"]
        assert workers["respawned"] == 1
        assert workers["redispatched_units"] == 1

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 47

    def test_hung_worker_is_terminated_and_unit_redispatched(
        self, baseline_verdicts
    ):
        plan = FaultPlan(
            sites={"worker.hang": FaultSpec(kind="hang", at=(0,), payload=60.0)}
        )
        policy = SupervisionPolicy(max_attempts=1, soft_timeout=1.0)
        with faults.active(plan):
            report = CampaignRunner().run(
                CAMPAIGN, parallel=True, max_workers=2, supervision=policy
            )
        assert report.verdict_json() == baseline_verdicts
        workers = report.resilience["workers"]
        assert workers["hung_terminated"] == 1
        assert workers["respawned"] == 1

    def test_exhausted_respawn_budget_fails_instead_of_hanging(self):
        # Both initial workers crash and the budget allows no replacement:
        # the campaign must complete with failure outcomes, not deadlock.
        plan = FaultPlan(
            sites={"worker.crash": FaultSpec(kind="crash", at=(0, 1), max_fires=2)}
        )
        policy = SupervisionPolicy(max_attempts=1, max_respawns=0, max_redispatches=0)
        with faults.active(plan):
            report = CampaignRunner().run(
                CAMPAIGN, parallel=True, max_workers=2, supervision=policy
            )
        assert not report.passed
        assert any(
            outcome.error is not None and "worker" in outcome.error
            for outcome in report.outcomes
        )

    def test_respawned_worker_does_not_inherit_the_crash_schedule(self):
        # rate=1.0 keyed by worker id would crash every worker including
        # replacements if decisions used invocation counts; keying by
        # worker id plus the fire budget keeps the campaign finishable.
        plan = FaultPlan(
            sites={"worker.crash": FaultSpec(kind="crash", at=(0, 1), max_fires=2)}
        )
        with faults.active(plan):
            report = CampaignRunner().run(CAMPAIGN, parallel=True, max_workers=2)
        assert report.passed or all(o.error is None for o in report.outcomes)
        assert report.resilience["workers"]["respawned"] == 2


#: A campaign run in a child interpreter whose worker 0 misbehaves as
#: ``{action}`` says.  The child is its own session, so a hung parent
#: and its workers are killed together.
CHANNEL_SCRIPT = """
import os, time
from repro.engine import CampaignRunner, Scenario
from repro.engine import runner as runner_module
from repro.strings import CONTROL, NORMAL

CAMPAIGN = [
    Scenario(name="vsm/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="vsm/bug", slots=(NORMAL, NORMAL), bug="no_bypass"),
    Scenario(name="vsm/branchy", slots=(CONTROL, NORMAL)),
]
original = runner_module._affinity_worker

def worker(worker_id, tasks, results, *args):
    if worker_id == 0:
        {action}
    return original(worker_id, tasks, results, *args)

runner_module._affinity_worker = worker
runner_module.READY_TIMEOUT = 2.0
report = CampaignRunner().run(CAMPAIGN, parallel=True, max_workers=2, mp_context="fork")
print(report.verdict_json())
"""


def _run_bounded(action, timeout=120.0):
    """Run ``CHANNEL_SCRIPT`` with ``action``; fail (not hang) past ``timeout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    child = subprocess.Popen(
        [sys.executable, "-c", CHANNEL_SCRIPT.format(action=action)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"the parallel campaign hung for {timeout:.0f} s")
    assert child.returncode == 0, stderr
    return stdout.strip()


class TestWorkerChannels:
    """A worker can poison only its own result channel."""

    def test_worker_killed_holding_a_write_lock_does_not_hang(self, baseline_verdicts):
        # Worker 0 dies holding its result channel's cross-process write
        # lock.  On a channel shared by all workers that lock guards
        # every other worker's sends, so nothing arrives again; a
        # private pipe has no such lock.
        action = (
            "lock = getattr(results, '_wlock', None)\n"
            "        if lock is not None:\n"
            "            lock.acquire()\n"
            "        os._exit(47)"
        )
        assert _run_bounded(action) == baseline_verdicts.strip()

    def test_worker_silent_before_ready_is_replaced(self, baseline_verdicts):
        # A worker that never announces itself is judged dead after the
        # ready bound instead of being waited on forever.
        assert _run_bounded("time.sleep(3600)") == baseline_verdicts.strip()


# ----------------------------------------------------------------------
# Resume: run the campaign again against the same store
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_interrupted_campaign_resumes_with_identical_bytes(
        self, tmp_path, baseline_verdicts
    ):
        store = tmp_path / "store"
        # Injected KeyboardInterrupt mid-campaign: scenario index 2 of 3.
        plan = FaultPlan(
            sites={"scenario.run": FaultSpec(kind="interrupt", at=(2,), max_fires=1)}
        )
        with faults.active(plan):
            with pytest.raises(KeyboardInterrupt):
                CampaignRunner(store_path=store).run(CAMPAIGN)
        # The kill left no partial records.
        assert not list(store.rglob("*.tmp"))
        resumed = CampaignRunner(store_path=store).run(CAMPAIGN)
        assert resumed.verdict_json() == baseline_verdicts
        # Only the unfinished scenario was re-executed; the two that
        # finished before the kill replayed from the store.
        hits = sum(1 for o in resumed.outcomes if o.store.get("status") == "hit")
        assert hits == 2
        assert resumed.store["results"]["hits"] == 2

    def test_completed_journal_replays_everything(self, tmp_path, baseline_verdicts):
        store = tmp_path / "store"
        CampaignRunner(store_path=store).run(CAMPAIGN)
        replayed = CampaignRunner(store_path=store).run(CAMPAIGN)
        assert replayed.verdict_json() == baseline_verdicts
        assert all(o.store.get("status") == "hit" for o in replayed.outcomes)

    def test_parallel_campaign_journals_and_resumes(self, tmp_path, baseline_verdicts):
        store = tmp_path / "store"
        CampaignRunner(store_path=store).run(CAMPAIGN, parallel=True, max_workers=2)
        resumed = CampaignRunner(store_path=store).run(
            CAMPAIGN, parallel=True, max_workers=2
        )
        assert resumed.verdict_json() == baseline_verdicts
        assert resumed.store["results"]["hits"] == len(CAMPAIGN)
        assert all(o.store.get("status") == "hit" for o in resumed.outcomes)


# ----------------------------------------------------------------------
# Report integration
# ----------------------------------------------------------------------
class TestResilienceReporting:
    def test_fault_free_unsupervised_run_keeps_an_empty_section(self):
        report = CampaignRunner().run(CAMPAIGN[:1])
        assert report.resilience == {}
        assert json.loads(report.to_json())["resilience"] == {}

    def test_supervised_retries_flag_in_telemetry_anomalies(self):
        from repro import telemetry

        plan = FaultPlan(sites={"scenario.run": FaultSpec(kind="error", at=(0,))})
        try:
            telemetry.enable()
            with faults.active(plan):
                report = CampaignRunner().run(CAMPAIGN[:1], supervision=POLICY)
        finally:
            telemetry.disable()
        anomalies = report.telemetry["trace"]["anomalies"]
        flags = [a for a in anomalies if a["kind"] == "supervised-retries"]
        assert len(flags) == 1
        assert flags[0]["count"] == 1

    def test_report_summary_mentions_resilience_activity(self):
        plan = FaultPlan(sites={"scenario.run": FaultSpec(kind="error", at=(0,))})
        with faults.active(plan):
            report = CampaignRunner().run(CAMPAIGN[:1], supervision=POLICY)
        assert "resilience" in report.summary()
        assert "1 scenario retry(ies)" in report.summary()
