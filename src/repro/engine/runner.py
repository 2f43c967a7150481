"""The campaign runner: many scenarios, one orchestrator.

:class:`CampaignRunner` executes lists of scenarios through
:func:`repro.engine.executor.execute_scenario` with

* **manager pooling** — scenarios sharing an
  :meth:`~repro.engine.scenario.Scenario.order_signature` share one
  :class:`~repro.bdd.BDDManager`, so a bug sweep re-derives the golden
  run's BDDs at cache speed instead of rebuilding them;
* **memoisation** — scenarios with identical
  :meth:`~repro.engine.scenario.Scenario.cache_key` (same job under a
  different name, or re-run in a later campaign on the same runner)
  reuse the previous outcome;
* an optional **persistent result store**
  (:class:`~repro.engine.store.ResultStore`) — verdicts are read and
  written by content fingerprint, so a repeated campaign is a cache
  read *across processes and invocations*, and the relational backend
  rehydrates its extracted beta relations from stored arena snapshots
  instead of re-extracting them;
* an optional **parallel mode** — scenarios are distributed over worker
  processes with per-worker manager isolation.  The default scheduler
  is *affinity-sharded work stealing*: scenarios are grouped by
  ``order_signature`` into shards (so each worker's pooled managers and
  session caches stay warm for a whole unit, and are freed when it
  ends), shards larger than a fair share are split into
  steal-granularity units, and the parent
  hands units out largest-first as workers ask, which keeps tails
  short without giving up warm-cache affinity.  Each worker reports
  over a pipe of its own, and a worker with no unit left may run a
  speculative job the caller handed in (fuzz campaigns warm the store
  with their minimizer's candidate verdicts).  It is the only parallel
  scheduler: every worker is supervised, traced and journalled as its
  outcomes arrive.  Because pooled results are bit-identical to
  fresh-manager results (see :mod:`repro.engine.pool`), every mode —
  serial, parallel, warm-store — carries the same verdicts, byte for
  byte;
* an optional **resilience layer** (:mod:`repro.resilience`) — a
  :class:`~repro.resilience.SupervisionPolicy` turns on bounded
  scenario retries with seeded backoff and store-write retry; the
  affinity scheduler *always* supervises its workers (a dead worker is
  respawned and its in-flight unit re-dispatched instead of failing
  its scenarios); a checkpoint journal
  (:class:`~repro.resilience.CampaignJournal`) makes an interrupted
  campaign resumable, re-executing only unfinished scenarios.  The
  standing invariant extends to the failure paths: under any quiescent
  injected-fault schedule (see :mod:`repro.resilience.faults`) the
  verdicts stay byte-identical to the fault-free run.
"""

from __future__ import annotations

import copy
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback as traceback_module
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .executor import execute_scenario
from .pool import ManagerPool
from .report import CampaignReport, ScenarioOutcome
from .scenario import (
    Scenario,
    ScenarioRegistry,
    campaign_fingerprint,
    default_registry,
)
from .store import ResultStore
from .. import telemetry
from ..resilience import CampaignJournal, SupervisionPolicy, faults
from ..telemetry import report as trace_report

ScenarioLike = Union[Scenario, str]

#: ``report.resilience`` key -> the registry counter that counts it.
_SUPERVISION_COUNTERS = (
    ("retries", "scenario.retries"),
    ("write_retries", "store.write_retries"),
    ("write_failures", "store.write_failures"),
)
#: ``report.resilience["workers"]`` key -> registry counter.
_WORKER_COUNTERS = (
    ("respawned", "workers.respawned"),
    ("redispatched_units", "workers.redispatched_units"),
    ("hung_terminated", "workers.hung_terminated"),
)


def _failed_outcome(
    scenario: Scenario, error: BaseException, trace: Optional[str] = None
) -> ScenarioOutcome:
    """An outcome recording that the scenario raised instead of completing."""
    return ScenarioOutcome(
        scenario=scenario.name,
        kind=scenario.kind,
        design=scenario.design,
        passed=False,
        error=f"{type(error).__name__}: {error}",
        traceback=trace,
    )


# ----------------------------------------------------------------------
# Persistent result records
# ----------------------------------------------------------------------
def _result_record(outcome: ScenarioOutcome) -> Dict[str, object]:
    """The persistent form of an outcome: its verdict, nothing else.

    Measurements (timings, cache activity) describe one process on one
    machine and are deliberately not stored; the scenario name is
    dropped because the fingerprint excludes it (same-content scenarios
    share a record under any name).
    """
    verdict = outcome.verdict()
    verdict.pop("scenario", None)
    return {"verdict": verdict, "backend": outcome.backend}


def _outcome_from_record(
    scenario: Scenario, record: Dict[str, object]
) -> Optional[ScenarioOutcome]:
    """Rebuild an outcome from a stored record (``None`` if misshapen)."""
    verdict = record.get("verdict")
    if not isinstance(verdict, dict):
        return None
    try:
        return ScenarioOutcome(
            scenario=scenario.name,
            kind=verdict["kind"],
            design=verdict["design"],
            passed=verdict["passed"],
            mismatches=verdict.get("mismatches", []),
            structure=verdict.get("structure", {}),
            error=verdict.get("error"),
            backend=record.get("backend", ""),
        )
    except KeyError:
        return None


def _execute_pooled(
    scenario: Scenario,
    pool: ManagerPool,
    memo: Optional[Dict[Tuple, ScenarioOutcome]],
    store: Optional[ResultStore] = None,
    supervision: Optional[SupervisionPolicy] = None,
) -> Tuple[ScenarioOutcome, bool]:
    """Run one scenario against a pool + memo + store; returns (outcome, memo_hit).

    With a :class:`SupervisionPolicy`, a scenario raising a *transient*
    error (an injected fault, a storage ``OSError``, a timeout) is
    retried up to ``max_attempts`` times with seeded backoff, and a
    failed store publish is retried up to ``max_write_attempts`` times
    before degrading to an unpublished outcome (``store["status"] ==
    "write_failed"``) — the verdict never depends on a write landing.
    Each retry and each abandoned write is counted once, in the
    metrics registry (``scenario.retries``, ``store.write_retries``,
    ``store.write_failures``), from which the campaign report reads
    them.
    """
    key = (scenario.order_signature(), scenario.cache_key()) if memo is not None else None
    if key is not None and key in memo:
        # Deep copy so memo hits never alias the containers of earlier
        # outcomes (a caller mutating one must not poison later hits).
        outcome = copy.deepcopy(memo[key])
        outcome.scenario = scenario.name
        outcome.memoized = True
        # Measurements describe *this* occurrence, which did no BDD work;
        # read the original outcome for the compute-time footprint.
        outcome.seconds = 0.0
        outcome.timings = {}
        outcome.cache = {}
        outcome.extraction_cache = {}
        outcome.store = {}
        outcome.snapshot = {}
        outcome.bdd_nodes = 0
        outcome.bdd_variables = 0
        return outcome, True
    fingerprint: Optional[str] = None
    lookup_status: Optional[str] = None
    dependencies = scenario.dependencies()
    if store is not None:
        started = time.perf_counter()
        fingerprint = scenario.fingerprint(store.salt)
        # A record whose verdict is misshapen counts (and is
        # quarantined) as corrupt, and recomputes.
        stored, lookup_status = store.load_result(
            fingerprint,
            dependencies,
            lambda record: _outcome_from_record(scenario, record),
        )
        if stored is not None:
            stored.store = {
                "status": "hit",
                "seconds": round(time.perf_counter() - started, 4),
            }
            if key is not None:
                # Seed the memo so in-process repeats skip the disk.
                memo[key] = copy.deepcopy(stored)
            return stored, False
    attempts = supervision.max_attempts if supervision is not None else 1
    outcome: Optional[ScenarioOutcome] = None
    for attempt in range(1, attempts + 1):
        # Acquire the manager per attempt: the pool hands back the same
        # warm manager (hash-consing keeps verdicts identical).
        manager = (
            pool.acquire(scenario.order_signature())
            if scenario.needs_manager()
            else None
        )
        try:
            faults.fire("scenario.run")
            outcome = execute_scenario(
                scenario,
                manager=manager,
                snapshot_store=pool.snapshot_store,
                relation_templates=pool.relation_templates,
            )
            break
        except (KeyboardInterrupt, SystemExit):
            # Campaign isolation must not swallow a user interrupt or an
            # orderly interpreter shutdown — only scenario-level failures.
            raise
        except Exception as error:  # noqa: BLE001 - campaign isolation
            if (
                supervision is not None
                and attempt < attempts
                and supervision.retryable(error)
            ):
                telemetry.get_registry().counter("scenario.retries").inc()
                delay = supervision.backoff_seconds(scenario.name, attempt)
                with telemetry.span(
                    "supervision.retry",
                    scenario=scenario.name,
                    attempt=attempt,
                    error=type(error).__name__,
                    backoff=round(delay, 4),
                ):
                    if delay > 0:
                        time.sleep(delay)
                continue
            return (
                _failed_outcome(scenario, error, traceback_module.format_exc()),
                False,
            )
    assert outcome is not None
    if store is not None and fingerprint is not None and outcome.error is None:
        started = time.perf_counter()
        write_attempts = (
            supervision.max_write_attempts if supervision is not None else 1
        )
        written: Optional[int] = None
        write_error: Optional[str] = None
        record_payload = _result_record(outcome)
        for write_attempt in range(1, write_attempts + 1):
            try:
                written = store.save_result(fingerprint, record_payload, dependencies)
                break
            except OSError as error:
                write_error = f"{type(error).__name__}: {error}"
                if write_attempt < write_attempts:
                    telemetry.get_registry().counter("store.write_retries").inc()
                    delay = (
                        supervision.backoff_seconds(
                            f"{scenario.name}/write", write_attempt
                        )
                        if supervision is not None
                        else 0.0
                    )
                    if delay > 0:
                        time.sleep(delay)
        if written is not None:
            outcome.store = {
                "status": lookup_status,
                "bytes_written": written,
                "seconds": round(time.perf_counter() - started, 4),
            }
        else:
            # Publishing is an optimisation, never part of the verdict:
            # a store that cannot be written degrades this scenario to
            # unpublished and the campaign carries on.
            telemetry.get_registry().counter("store.write_failures").inc()
            outcome.store = {
                "status": "write_failed",
                "error": write_error,
                "seconds": round(time.perf_counter() - started, 4),
            }
    if key is not None:
        # Store an isolated copy: the returned object stays caller-owned.
        memo[key] = copy.deepcopy(outcome)
    return outcome, False


# ----------------------------------------------------------------------
# Affinity-sharded work-stealing parallel mode
# ----------------------------------------------------------------------
def _store_from_spec(
    store_spec: Optional[Tuple[str, str, bool]]
) -> Optional[ResultStore]:
    """A worker's own handle on the shared store (``None`` without one)."""
    if store_spec is None:
        return None
    return ResultStore(store_spec[0], salt=store_spec[1], fsync=store_spec[2])


def _affinity_units(
    scenarios: Sequence[Scenario], max_workers: int
) -> List[List[int]]:
    """Steal-granularity work units grouped by variable-order affinity.

    Scenarios are sharded by ``order_signature`` — a worker that runs a
    whole shard re-derives every scenario after the first at warm
    unique-table and session-cache speed, which arbitrary chunking
    would throw away.  A shard bigger than a fair share
    (``ceil(n / workers)``) is split into fair-share units so one giant
    signature cannot serialise the campaign: the units sit adjacently in
    the queue, and only when other workers run dry do they steal them
    (paying one warm-up each, the classic stealing trade: a worker frees
    its managers when a unit ends, so every unit starts cold).  Units
    are ordered largest-first (LPT) so the long shards start
    immediately; the order is deterministic (stable sort over
    first-appearance grouping).
    """
    groups: Dict[Tuple, List[int]] = {}
    appearance: List[Tuple] = []
    for index, scenario in enumerate(scenarios):
        signature = scenario.order_signature()
        bucket = groups.get(signature)
        if bucket is None:
            bucket = groups[signature] = []
            appearance.append(signature)
        bucket.append(index)
    fair_share = max(1, -(-len(scenarios) // max_workers))
    units: List[List[int]] = []
    for signature in appearance:
        shard = groups[signature]
        for start in range(0, len(shard), fair_share):
            units.append(shard[start : start + fair_share])
    units.sort(key=len, reverse=True)
    return units


#: A job is ``(function, argument)``: a module-level function the
#: worker calls as ``function(argument, runner)`` on a runner of the
#: job's own (fresh pool and memo, the worker's store handle and
#: relation templates).  Jobs only warm the shared store; no result
#: comes back.
Job = Tuple[Callable[[object, "CampaignRunner"], None], object]

#: Seconds a spawned worker may take to send its first ``ready`` before
#: the parent judges it dead (a start-up that wedged, not a slow unit).
READY_TIMEOUT = 60.0


def _run_job(
    worker_id: int, job: Job, pool: ManagerPool, store: Optional[ResultStore]
) -> None:
    """Run one speculative job with fault injection off.

    The ``job.crash`` seam fires first, keyed by worker id like
    ``worker.crash``; the job itself then runs with no injector, so it
    advances no seam's invocation counter and a fault schedule fires
    where it would without jobs.  The job's pool borrows the relation
    templates of ``pool`` (the worker's), so it adopts the relations
    its worker already restored instead of restoring them again, and
    ``pool`` absorbs the job's pool afterwards.  A job's failure is
    never a verdict: whatever it raises is dropped with it.
    """
    faults.fire("job.crash", index=worker_id)
    function, argument = job
    job_pool = ManagerPool(cache_limit=pool.cache_limit)
    job_pool.relation_templates = pool.relation_templates
    runner = CampaignRunner(pool=job_pool, store=store)
    with faults.active(None), telemetry.span("worker.speculate"):
        try:
            function(argument, runner)
        except Exception:  # noqa: BLE001 - speculation never fails a campaign
            telemetry.get_registry().counter("workers.job_errors").inc()
        finally:
            pool.absorb(runner.pool)


def _affinity_worker(
    worker_id: int,
    tasks,
    results,
    cache_limit: Optional[int],
    memoize: bool,
    store_spec: Optional[Tuple[str, str, bool]],
    telemetry_state: Optional[Dict[str, object]] = None,
    fault_state: Optional[Dict[str, object]] = None,
    supervision_state: Optional[Dict[str, object]] = None,
) -> None:
    """One affinity worker: take tasks off a private queue until the sentinel.

    The parent is the scheduler of record: the worker announces
    ``("ready", id)`` on ``results``, the write end of its own pipe;
    the parent pushes one task (a ``("unit", unit)``, a ``("job",
    job)`` or the ``None`` sentinel) onto this worker's private
    ``tasks`` queue, and every completed scenario ships back as
    ``("outcome", id, index, outcome)``.  Dispatch bookkeeping lives
    entirely parent-side and the channel is this worker's alone, so a
    worker that dies at any instant — even mid-message — costs only
    its own channel, which the parent reads to EOF and drops; it knows
    exactly which unit was in flight and which indices are still
    uncollected, so respawn and re-dispatch need no worker cooperation.

    Owns an isolated :class:`ManagerPool` (plus its own handle on the
    shared result store), so pooled determinism gives byte-identical
    verdicts to serial mode.  The pool's managers are released when a
    unit ends, so every unit starts on an empty pool (its relation
    templates stay); the final ``("close", id, record)`` message
    carries the worker's pool and store statistics and its registry
    counters for the campaign report — and, when the parent traced the
    campaign, this worker's in-memory trace events and registry
    snapshot, which the parent merges keyed by the ``w<id>`` worker tag.
    """
    telemetry.configure(telemetry_state, worker=f"w{worker_id}")
    # A forked worker inherits the parent registry's counts; start from
    # zero so the shipped counters are this worker's own work.
    telemetry.get_registry().clear()
    faults.configure_from_state(fault_state)
    policy = (
        SupervisionPolicy.from_dict(supervision_state) if supervision_state else None
    )
    pool = ManagerPool(cache_limit=cache_limit)
    store = _store_from_spec(store_spec)
    pool.attach_store(store)
    memo: Optional[Dict[Tuple, ScenarioOutcome]] = {} if memoize else None
    units_run = 0
    try:
        results.send(("ready", worker_id))
        while True:
            message = tasks.get()
            if message is None:
                break
            kind, payload = message
            if kind == "job":
                _run_job(worker_id, payload, pool, store)
                results.send(("ready", worker_id))
                continue
            units_run += 1
            # The worker fault seams key by worker id, not invocation
            # count: a respawned replacement gets a fresh id and so
            # never inherits its predecessor's crash/hang schedule.
            faults.fire("worker.crash", index=worker_id)
            faults.fire("worker.hang", index=worker_id)
            with telemetry.span("worker.drain", unit_size=len(payload)):
                for index, scenario in payload:
                    outcome, _ = _execute_pooled(
                        scenario, pool, memo, store=store, supervision=policy
                    )
                    results.send(("outcome", worker_id, index, outcome))
            pool.release_all()
            results.send(("ready", worker_id))
    finally:
        record: Dict[str, object] = {
            "worker": worker_id,
            "units": units_run,
            "pool": pool.statistics(),
            "store": store.statistics() if store is not None else None,
            "counters": telemetry.get_registry().snapshot()["counters"],
        }
        tracer = telemetry.get_tracer()
        if tracer is not None:
            record["telemetry"] = {
                "events": tracer.drain(),
                "registry": telemetry.get_registry().snapshot(),
            }
        results.send(("close", worker_id, record))


class CampaignRunner:
    """Executes scenario campaigns with pooling, memoisation and a store."""

    def __init__(
        self,
        pool: Optional[ManagerPool] = None,
        registry: Optional[ScenarioRegistry] = None,
        memoize: bool = True,
        cache_limit: Optional[int] = None,
        store: Optional[ResultStore] = None,
        store_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if pool is not None and cache_limit is not None:
            raise ValueError(
                "pass cache_limit either to the runner or to the explicit pool, not both"
            )
        if store is not None and store_path is not None:
            raise ValueError("pass either store or store_path, not both")
        self.pool = pool if pool is not None else ManagerPool(cache_limit=cache_limit)
        self._registry = registry
        self.memoize = memoize
        #: Persistent result store (``None`` = in-process reuse only).
        self.store = store if store is not None else (
            ResultStore(store_path) if store_path is not None else None
        )
        # Attach only when this runner actually owns a store: a caller
        # who passed an explicit pool with its own snapshot_store keeps
        # that attachment.
        if self.store is not None:
            self.pool.attach_store(self.store)
        self._memo: Dict[Tuple, ScenarioOutcome] = {}

    @property
    def registry(self) -> ScenarioRegistry:
        """The scenario registry used to resolve names (built lazily)."""
        if self._registry is None:
            self._registry = default_registry()
        return self._registry

    def resolve(self, scenarios: Iterable[ScenarioLike]) -> List[Scenario]:
        """Resolve scenario names through the registry; pass objects through."""
        return [self.registry.resolve(item) for item in scenarios]

    def clear_memo(self) -> None:
        """Forget memoised scenario outcomes."""
        self._memo.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_one(
        self,
        scenario: ScenarioLike,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> ScenarioOutcome:
        """Run a single scenario through the shared pool (and store)."""
        resolved = self.registry.resolve(scenario)
        outcome, _ = _execute_pooled(
            resolved,
            self.pool,
            self._memo if self.memoize else None,
            store=self.store,
            supervision=supervision,
        )
        return outcome

    def run(
        self,
        scenarios: Iterable[ScenarioLike],
        parallel: bool = False,
        max_workers: Optional[int] = None,
        mp_context: Optional[str] = None,
        supervision: Optional[SupervisionPolicy] = None,
        journal: Optional[Union[str, Path]] = None,
        _jobs: Sequence[Job] = (),
    ) -> CampaignReport:
        """Execute a campaign and return its report.

        Serial mode runs on this runner's manager pool, memo and store.
        Scenarios of one order signature share a pooled manager, and
        the manager is released right after the signature's last
        scenario in the list (whatever its outcome), so at most the
        managers that a later scenario will reuse are held at once.
        Parallel mode distributes scenarios over worker processes, each
        owning an isolated :class:`ManagerPool` (and its own handle on
        the shared store) that it empties after every unit, under the
        affinity-sharded work-stealing scheduler.  The resulting
        verdicts are byte-identical to serial mode.

        ``supervision`` turns on bounded scenario retries with seeded
        backoff (and, in parallel mode, overrides the worker respawn /
        re-dispatch caps and enables the hung-worker watchdog via
        ``soft_timeout``).  ``journal`` names a checkpoint-journal file:
        completed scenarios are marked as the campaign progresses, and
        re-running the same campaign against the same journal (after an
        interrupt or crash) re-executes only unfinished work — the
        persistent store replays the finished verdicts byte-identically.
        A journal therefore requires the runner to have a store.

        ``_jobs`` (internal) hands parallel mode speculative work for
        idle workers (see :data:`Job`): the campaign layer uses it to
        warm the store with the candidate verdicts its minimizer will
        ask for.  Serial mode, and a runner without a store, ignore it.
        """
        resolved = self.resolve(scenarios)
        if not resolved:
            return CampaignReport(outcomes=[], mode="serial")
        if journal is not None and self.store is None:
            raise ValueError(
                "a checkpoint journal needs a persistent store "
                "(pass store= or store_path= to the runner)"
            )
        tracer = telemetry.get_tracer()
        trace_start = tracer.event_count() if tracer is not None else 0
        started = time.perf_counter()
        registry = telemetry.get_registry()
        counters_before = registry.snapshot()["counters"]
        store_before = self.store.statistics() if self.store is not None else None
        if self.store is not None:
            # One opportunistic orphan sweep per campaign: a store that
            # keeps being used never accumulates dead ``*.tmp`` litter,
            # even in fan-out directories no current scenario writes to.
            self.store.sweep_stale_tmp()
        journal_obj: Optional[CampaignJournal] = None
        fingerprints: Optional[List[str]] = None
        journal_replayed = 0
        if journal is not None:
            fingerprints = [
                scenario.fingerprint(self.store.salt) for scenario in resolved
            ]
            journal_obj = CampaignJournal(
                journal,
                key=campaign_fingerprint(resolved, self.store.salt),
                total=len(resolved),
                fsync=self.store.fsync,
            )
            journal_replayed = len(journal_obj.completed)
        worker_records: List[Dict[str, object]] = []
        try:
            with telemetry.span(
                "campaign.run",
                scenarios=len(resolved),
                parallel=parallel,
            ):
                if parallel:
                    outcomes, pool_stats, worker_records = self._run_parallel_affinity(
                        resolved,
                        max_workers,
                        mp_context,
                        supervision,
                        journal_obj,
                        fingerprints,
                        _jobs if self.store is not None else (),
                    )
                    if self.memoize:
                        # Leave the memo as a serial run would, so later
                        # run_one calls (the minimizer's) see the same
                        # hits in either mode.
                        for scenario, outcome in zip(resolved, outcomes):
                            if outcome.error is None:
                                self._memo.setdefault(
                                    (scenario.order_signature(), scenario.cache_key()),
                                    copy.deepcopy(outcome),
                                )
                    mode = "parallel"
                else:
                    before = self.pool.statistics()
                    last_use = {
                        scenario.order_signature(): index
                        for index, scenario in enumerate(resolved)
                    }
                    outcomes = []
                    for index, scenario in enumerate(resolved):
                        outcome, _ = _execute_pooled(
                            scenario,
                            self.pool,
                            self._memo if self.memoize else None,
                            store=self.store,
                            supervision=supervision,
                        )
                        outcomes.append(outcome)
                        signature = scenario.order_signature()
                        if last_use[signature] == index:
                            # No later scenario can reuse this manager.
                            self.pool.release(signature)
                        if journal_obj is not None and outcome.error is None:
                            # Mark as we go: a campaign killed at any
                            # instant has journalled exactly the work
                            # that completed before the kill.
                            journal_obj.mark(index, fingerprints[index])
                    pool_stats = telemetry.delta(before, self.pool.statistics())
                    # The report counts the managers the campaign created.
                    pool_stats["managers"] = pool_stats.pop("created")
                    mode = "serial"
        finally:
            if journal_obj is not None:
                journal_obj.close()
        store_stats: Dict[str, object] = {}
        if store_before is not None:
            store_stats = telemetry.total(
                [telemetry.delta(store_before, self.store.statistics())]
                + [record.get("store") for record in worker_records]
            )
        counters = telemetry.total(
            [telemetry.delta(counters_before, registry.snapshot()["counters"])]
            + [record.get("counters") for record in worker_records]
        )
        report = CampaignReport(
            outcomes=outcomes,
            mode=mode,
            pool=pool_stats,
            memo_hits=sum(int(outcome.memoized) for outcome in outcomes),
            total_seconds=time.perf_counter() - started,
            store=store_stats,
        )
        report.resilience = self._resilience_section(
            supervision, counters, journal_obj, journal_replayed
        )
        if tracer is not None:
            report.telemetry = self._telemetry_section(
                tracer, trace_start, worker_records
            )
            tracer.flush()
        return report

    @staticmethod
    def _resilience_section(
        supervision: Optional[SupervisionPolicy],
        counters: Dict[str, object],
        journal_obj: Optional[CampaignJournal],
        journal_replayed: int,
    ) -> Dict[str, object]:
        """The report's ``resilience`` section (empty when nothing to say).

        Present exactly when the campaign was supervised, journalled,
        fault-injected, or saw any retry/respawn activity — the plain
        fault-free unsupervised run keeps an empty section and an
        unchanged report.  ``counters`` are the registry counters the
        campaign moved, in this process and in its workers.
        """
        section: Dict[str, object] = {}
        if supervision is not None:
            section["policy"] = supervision.to_dict()
        supervised = {key: counters.get(name, 0) for key, name in _SUPERVISION_COUNTERS}
        if any(supervised.values()):
            section.update(supervised)
        workers = {key: counters.get(name, 0) for key, name in _WORKER_COUNTERS}
        if any(workers.values()):
            section["workers"] = workers
        if journal_obj is not None:
            stats = journal_obj.statistics()
            stats["replayed"] = journal_replayed
            section["journal"] = stats
        fault_stats = faults.statistics()
        if fault_stats is not None:
            section["faults"] = fault_stats
        return section

    @staticmethod
    def _telemetry_section(
        tracer, trace_start: int, worker_records: Sequence[Dict[str, object]]
    ) -> Dict[str, object]:
        """The report's ``telemetry`` section for one traced campaign.

        Summarises the campaign's slice of the trace (the events
        recorded since ``trace_start``, worker events already merged)
        and carries this process's registry snapshot, plus each traced
        worker's under ``workers.registries``.  The pool and store
        counts are in ``report.pool`` and ``report.store``.
        """
        section: Dict[str, object] = {
            "trace": trace_report.summarize(tracer.events_from(trace_start)),
            "registry": telemetry.get_registry().snapshot(),
        }
        registries = {
            f"w{record.get('worker')}": record["telemetry"]["registry"]
            for record in worker_records
            if record.get("telemetry")
        }
        if registries:
            section["workers"] = {"registries": registries}
        return section

    # ------------------------------------------------------------------
    # Parallel mode
    # ------------------------------------------------------------------
    def _worker_count(
        self, scenarios: Sequence[Scenario], max_workers: Optional[int]
    ) -> int:
        if max_workers is None:
            max_workers = min(len(scenarios), max(2, os.cpu_count() or 1))
        return max(1, min(max_workers, len(scenarios)))

    def _store_spec(self) -> Optional[Tuple[str, str, bool]]:
        if self.store is None:
            return None
        return (str(self.store.root), self.store.salt, self.store.fsync)

    def _run_parallel_affinity(
        self,
        scenarios: Sequence[Scenario],
        max_workers: Optional[int],
        mp_context: Optional[str],
        supervision: Optional[SupervisionPolicy] = None,
        journal: Optional[CampaignJournal] = None,
        fingerprints: Optional[List[str]] = None,
        jobs: Sequence[Job] = (),
    ) -> Tuple[List[ScenarioOutcome], Dict[str, object], List[Dict[str, object]]]:
        """The supervised affinity scheduler (parent-side dispatch).

        The parent owns all dispatch bookkeeping: each worker gets a
        private task queue and a private result pipe, and asks for work
        with a ``ready`` message, so at any instant the parent knows
        exactly which unit every worker holds.  A worker that dies
        (crash: its pipe reads EOF), sends no first ``ready`` within
        :data:`READY_TIMEOUT`, or stops reporting progress past
        ``soft_timeout`` (hang — terminated) is replaced: a fresh
        worker is spawned (up to ``max_respawns`` per campaign) and the
        dead worker's in-flight unit — minus any outcomes that already
        arrived — is re-dispatched (up to ``max_redispatches`` per
        unit).  Only when both caps are exhausted do the remaining
        scenarios fail with a worker-termination outcome.  Worker
        supervision always runs; the ``supervision`` argument
        additionally ships scenario-retry policy into the workers and
        overrides the respawn caps.

        ``jobs`` go, in order, to workers that ask for work while no
        unit is pending, so a job never delays a verdict.  The watchdog
        judges a worker in a job like one in a unit.  Once every verdict
        is in, a worker finishes the job in hand and stops; undispatched
        jobs are dropped, and so is the job of a worker that dies.

        Returns the outcomes, the report's pool section and the
        workers' closing records (their store statistics and registry
        counters); the traced workers' events are merged into this
        process's tracer.
        """
        context = multiprocessing.get_context(mp_context)
        workers = self._worker_count(scenarios, max_workers)
        policy = supervision if supervision is not None else SupervisionPolicy(max_attempts=1)
        total = len(scenarios)
        units = _affinity_units(scenarios, workers)
        #: Unit table: id -> uncollected indices + per-unit redispatch count.
        unit_table: Dict[int, Dict[str, object]] = {
            uid: {"indices": list(unit), "redispatches": 0}
            for uid, unit in enumerate(units)
        }
        pending: List[int] = list(range(len(units)))
        next_unit_id = len(units)
        jobs_left = list(reversed(jobs))
        fault_state = faults.config_state()
        supervision_state = (
            supervision.to_dict() if supervision is not None else None
        )
        telemetry_state = telemetry.config_state()

        worker_states: Dict[int, Dict[str, object]] = {}
        #: Read end of each live worker's result pipe -> worker id.
        channels: Dict[object, int] = {}
        next_worker_id = 0

        def spawn() -> int:
            nonlocal next_worker_id
            wid = next_worker_id
            next_worker_id += 1
            tasks = context.Queue()
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_affinity_worker,
                args=(
                    wid,
                    tasks,
                    writer,
                    self.pool.cache_limit,
                    self.memoize,
                    self._store_spec(),
                    telemetry_state,
                    fault_state,
                    supervision_state,
                ),
                daemon=True,
            )
            now = time.monotonic()
            worker_states[wid] = {
                "process": process,
                "tasks": tasks,
                "unit": None,
                "job": False,
                "greeted": False,
                "spawned": now,
                "last_seen": now,
                "state": "running",
                "stop_sent": False,
            }
            process.start()
            # The worker holds the only write end: its exit reads as EOF.
            writer.close()
            channels[reader] = wid
            return wid

        for _ in range(workers):
            spawn()

        collected: Dict[int, ScenarioOutcome] = {}
        worker_records: List[Dict[str, object]] = []
        idle: List[int] = []
        respawned = 0

        def dispatch(wid: int) -> bool:
            """Hand worker ``wid`` the next unit, else a job (False: neither)."""
            state = worker_states[wid]
            while pending:
                uid = pending.pop(0)
                remaining = [
                    index
                    for index in unit_table[uid]["indices"]
                    if index not in collected
                ]
                if not remaining:
                    continue
                unit_table[uid]["indices"] = remaining
                state["unit"] = uid
                state["last_seen"] = time.monotonic()
                state["tasks"].put(
                    ("unit", [(index, scenarios[index]) for index in remaining])
                )
                return True
            if jobs_left and len(collected) < total:
                state["job"] = True
                state["last_seen"] = time.monotonic()
                state["tasks"].put(("job", jobs_left.pop()))
                return True
            return False

        def handle_gone(wid: int, cause: str) -> None:
            """A worker died or was terminated: re-dispatch, then respawn."""
            nonlocal respawned, next_unit_id
            state = worker_states[wid]
            state["state"] = "dead"
            if wid in idle:
                idle.remove(wid)
            uid = state["unit"]
            if uid is not None:
                entry = unit_table[uid]
                remaining = [
                    index for index in entry["indices"] if index not in collected
                ]
                if remaining and entry["redispatches"] < policy.max_redispatches:
                    new_uid = next_unit_id
                    next_unit_id += 1
                    unit_table[new_uid] = {
                        "indices": remaining,
                        "redispatches": entry["redispatches"] + 1,
                    }
                    pending.insert(0, new_uid)
                    telemetry.get_registry().counter("workers.redispatched_units").inc()
                elif remaining:
                    for index in remaining:
                        collected[index] = _failed_outcome(
                            scenarios[index],
                            RuntimeError(
                                f"parallel worker {cause} running this scenario; "
                                "re-dispatch cap reached"
                            ),
                        )
            live = sum(
                1 for record in worker_states.values() if record["state"] == "running"
            )
            if (
                len(collected) < total
                and respawned < policy.max_respawns
                and live < workers
            ):
                spawn()
                respawned += 1
                telemetry.get_registry().counter("workers.respawned").inc()

        def terminate(wid: int, cause: str) -> None:
            process = worker_states[wid]["process"]
            process.terminate()
            process.join(timeout=5.0)
            handle_gone(wid, cause)

        def absorb(message: Tuple) -> None:
            kind = message[0]
            if kind == "ready":
                wid = message[1]
                state = worker_states.get(wid)
                if state is None or state["state"] != "running":
                    return
                state["unit"] = None
                state["job"] = False
                state["greeted"] = True
                state["last_seen"] = time.monotonic()
                if state["stop_sent"]:
                    return
                if not dispatch(wid) and wid not in idle:
                    idle.append(wid)
            elif kind == "outcome":
                _, wid, index, outcome = message
                collected[index] = outcome
                state = worker_states.get(wid)
                if state is not None:
                    state["last_seen"] = time.monotonic()
                if (
                    journal is not None
                    and fingerprints is not None
                    and outcome.error is None
                ):
                    journal.mark(index, fingerprints[index])
            else:  # "close"
                _, wid, record = message
                worker_records.append(record)
                state = worker_states.get(wid)
                if state is not None:
                    state["state"] = "closed"

        try:
            while True:
                if len(collected) >= total:
                    # Every verdict is in: stop the surviving workers and
                    # wait for their closing records.
                    for state in worker_states.values():
                        if state["state"] == "running" and not state["stop_sent"]:
                            state["tasks"].put(None)
                            state["stop_sent"] = True
                    if all(
                        state["state"] != "running"
                        for state in worker_states.values()
                    ):
                        break
                elif pending and idle:
                    # A re-dispatched unit and an idle worker: pair them
                    # (idle workers sent their ready before the unit
                    # re-entered the queue, so the parent must push).
                    still_idle = [wid for wid in idle if not dispatch(wid)]
                    idle[:] = still_idle
                for reader in multiprocessing.connection.wait(list(channels), timeout=0.2):
                    wid = channels[reader]
                    try:
                        absorb(reader.recv())
                    except (EOFError, OSError):
                        # The worker is gone and everything it sent has
                        # been read: judge what is left of its unit.
                        del channels[reader]
                        reader.close()
                        worker_states[wid]["process"].join(timeout=5.0)
                        if worker_states[wid]["state"] == "running":
                            handle_gone(wid, "died")
                # Watchdog: silent starters and hung workers.
                now = time.monotonic()
                for wid, state in list(worker_states.items()):
                    if state["state"] != "running":
                        continue
                    if not state["greeted"] and now - state["spawned"] > READY_TIMEOUT:
                        terminate(wid, "sent no ready")
                    elif (
                        policy.soft_timeout is not None
                        and (state["unit"] is not None or state["job"])
                        and now - state["last_seen"] > policy.soft_timeout
                    ):
                        telemetry.get_registry().counter("workers.hung_terminated").inc()
                        terminate(wid, "hung (terminated by watchdog)")
                if len(collected) < total and not any(
                    state["state"] == "running" for state in worker_states.values()
                ):
                    # No workers left and the respawn budget is spent:
                    # fail every uncollected scenario instead of hanging.
                    for index in range(total):
                        if index not in collected:
                            collected[index] = _failed_outcome(
                                scenarios[index],
                                RuntimeError(
                                    "parallel worker terminated before completing "
                                    "this scenario"
                                ),
                            )
        finally:
            for state in worker_states.values():
                if state["state"] == "running" and not state["stop_sent"]:
                    try:
                        state["tasks"].put_nowait(None)
                    except (OSError, ValueError):  # pragma: no cover - shutdown race
                        pass
            for state in worker_states.values():
                process = state["process"]
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
            for reader in channels:
                reader.close()

        outcomes = [collected[index] for index in range(total)]
        pool_stats = {
            "managers": None,
            "workers": workers,
            "units": len(units),
            "note": "parallel mode: per-worker manager pools, affinity-sharded queue",
            "per_worker": [
                {
                    "worker": record.get("worker"),
                    "units": record.get("units"),
                    "pool": record.get("pool"),
                }
                for record in sorted(
                    worker_records, key=lambda record: record.get("worker", 0)
                )
            ],
        }
        # Merge the workers' in-memory traces into the parent tracer —
        # (worker, id) stays globally unique thanks to the w<id> tags.
        tracer = telemetry.get_tracer()
        if tracer is not None:
            for record in worker_records:
                tracer.absorb((record.get("telemetry") or {}).get("events", []))
        return outcomes, pool_stats, worker_records


def run_campaign(
    scenarios: Iterable[ScenarioLike],
    parallel: bool = False,
    max_workers: Optional[int] = None,
    cache_limit: Optional[int] = None,
    store_path: Optional[Union[str, Path]] = None,
    supervision: Optional[SupervisionPolicy] = None,
    journal: Optional[Union[str, Path]] = None,
) -> CampaignReport:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    runner = CampaignRunner(cache_limit=cache_limit, store_path=store_path)
    return runner.run(
        scenarios,
        parallel=parallel,
        max_workers=max_workers,
        supervision=supervision,
        journal=journal,
    )
