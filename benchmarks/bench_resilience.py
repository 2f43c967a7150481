"""Resilience layer overhead + resume benchmark.

The resilience layer's contract mirrors telemetry's: *off means free,
on means cheap, and never a changed verdict*.  The engine seams are
wrapped unconditionally (a disabled fault site is one module-global
read; an unsupervised run takes the one-attempt path), so this
benchmark pins the "on means cheap" half and the recovery story:

* **Overhead** — run the smoke campaign plain and under a
  :class:`~repro.resilience.SupervisionPolicy` (no faults injected:
  this measures the supervision plumbing itself — the per-attempt
  loop, the policy checks, the store-write retry wrapper), alternating
  order, best-of-N each, fresh runner per run.  Verdicts must stay
  byte-identical; the supervised/plain wall-clock ratio targets the
  issue's <= 1.05, recorded honestly in ``BENCH_resilience.json``,
  with a 1.25 hard ceiling asserted so a pathological regression
  (backoff sleeping on the happy path, per-call policy rebuilds) fails
  CI outright while a noisy-box near-miss does not.

* **Resume** — run the same campaign against a store, kill it halfway
  with an injected ``KeyboardInterrupt``, then run it again against
  the same store: the rerun must replay the finished prefix from the
  store's result records (no re-execution) and produce a verdict
  byte-identical to an uninterrupted baseline.

* **Fault differential** (CLI) — seeded fault schedules (store I/O
  faults, record corruption, retried scenario errors) run under
  supervision and must still produce byte-identical verdicts; the
  faulted stores' quarantine listing lands in ``--artifacts`` as a CI
  artifact.

The CLI writes its full record to ``BENCH_resilience.json`` next to
this file; the ``bench_smoke`` tests write theirs under pytest's
``tmp_path`` and never touch the committed record.
"""

import argparse
import gc
import json
import pathlib
import tempfile
import time

import pytest

from repro.engine import CampaignRunner, ResultStore
from repro.resilience import FaultPlan, FaultSpec, SupervisionPolicy, faults

from _bench_utils import record_paper_comparison

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_resilience.json"

#: The issue's overhead target (supervised wall clock / plain).
OVERHEAD_TARGET = 1.05
#: The asserted ceiling: catches pathological supervision regressions
#: without making CI flaky over measurement noise.
OVERHEAD_CEILING = 1.25

#: The smoke campaign (the telemetry benchmark's set): beta cycles,
#: relational extraction, events, an injected bug.
SMOKE_SCENARIOS = (
    "vsm/default",
    "vsm/bug/no_bypass",
    "vsm/event/slot0",
)

ROUNDS = 3

#: The supervision policy measured and used by every faulted regime.
#: Backoff is floored low so retry waits measure the plumbing, not
#: sleeps (the byte-identity asserts don't care either way).
POLICY = SupervisionPolicy(max_attempts=3, backoff_base=0.001, backoff_max=0.01)

#: The hang schedule's policy: a soft timeout so the parent terminates
#: the oversleeping worker instead of waiting out the payload.
HANG_POLICY = SupervisionPolicy(
    max_attempts=3, backoff_base=0.001, backoff_max=0.01, soft_timeout=2.0
)

#: Seeded fault schedules for the differential regime (the satellite's
#: store I/O errors + one worker kill + one timeout, plus corruption
#: and retried scenario errors).  Each must be quiescent (finite
#: ``at`` schedules / fire budgets) so the bounded retries and respawn
#: budgets are guaranteed to outlast it.  ``run`` selects the
#: execution mode (worker faults need the affinity scheduler);
#: ``seed_store`` warms the store first so read/corrupt faults have
#: records to refuse.
FAULT_SCHEDULES = {
    "store-read-io": {
        "plan": FaultPlan(
            seed=1101,
            sites={"store.read.results": FaultSpec(kind="io", at=(0,))},
        ),
        "seed_store": True,
    },
    "record-corruption": {
        "plan": FaultPlan(
            seed=1102,
            sites={
                "store.corrupt.results": FaultSpec(kind="corrupt", at=(0,)),
                "store.corrupt.snapshots": FaultSpec(
                    kind="corrupt", at=(0,)
                ),
            },
        ),
        "seed_store": True,
    },
    "scenario-errors-retried": {
        "plan": FaultPlan(
            seed=1103,
            sites={
                "scenario.run": FaultSpec(kind="error", at=(0, 2), max_fires=2)
            },
        ),
    },
    "worker-crash": {
        "plan": FaultPlan(
            seed=1104,
            sites={"worker.crash": FaultSpec(kind="crash", at=(0,))},
        ),
        "run": {"parallel": True, "max_workers": 2},
    },
    "worker-hang-timeout": {
        "plan": FaultPlan(
            seed=1105,
            sites={
                "worker.hang": FaultSpec(kind="hang", at=(0,), payload=30.0)
            },
        ),
        "run": {"parallel": True, "max_workers": 2},
        "policy": HANG_POLICY,
        # Warm the store first: served scenarios complete in
        # milliseconds, so the soft timeout can only ever catch the
        # genuinely hung worker, not one legitimately computing a
        # cold multi-second scenario.
        "seed_store": True,
    },
}


def _run_campaign(names, supervision=None, **kwargs):
    """One cold campaign run; returns (wall seconds, report).

    A full collection runs first so the previous run's dead managers
    don't bill their collection cost to whichever run the collector
    happens to fire in (see bench_telemetry).
    """
    gc.collect()
    runner = CampaignRunner(**kwargs)
    started = time.perf_counter()
    report = runner.run(list(names), supervision=supervision)
    seconds = time.perf_counter() - started
    return seconds, report


def measure_overhead(names=SMOKE_SCENARIOS, rounds=ROUNDS) -> dict:
    """Best-of-``rounds`` supervised vs plain wall clock, alternating.

    No faults are injected: both modes run the identical happy path,
    so the ratio isolates the supervision plumbing (attempt loop,
    retryability checks, write-retry wrapper) from recovery work.
    """
    plain: list = []
    supervised: list = []
    verdicts: set = set()

    def run_plain() -> None:
        seconds, report = _run_campaign(names)
        plain.append(seconds)
        verdicts.add(report.verdict_json())

    def run_supervised() -> None:
        seconds, report = _run_campaign(names, supervision=POLICY)
        supervised.append(seconds)
        verdicts.add(report.verdict_json())
        assert report.resilience.get("policy"), "supervised run lost its policy"

    for round_index in range(rounds):
        first, second = (
            (run_plain, run_supervised)
            if round_index % 2 == 0
            else (run_supervised, run_plain)
        )
        first()
        second()
    best_plain = min(plain)
    best_supervised = min(supervised)
    ratio = (best_supervised / best_plain) if best_plain else 1.0
    return {
        "scenarios": list(names),
        "rounds": rounds,
        "plain_seconds": [round(s, 4) for s in plain],
        "supervised_seconds": [round(s, 4) for s in supervised],
        "best_plain_seconds": round(best_plain, 4),
        "best_supervised_seconds": round(best_supervised, 4),
        "overhead_ratio": round(ratio, 4),
        "overhead_target": OVERHEAD_TARGET,
        "overhead_ceiling": OVERHEAD_CEILING,
        # Honest record: did the measured ratio meet the issue's 5%
        # target on this host?  (The assert uses the ceiling.)
        "bar_met": ratio <= OVERHEAD_TARGET,
        "verdicts_identical": len(verdicts) == 1,
        "policy": POLICY.to_dict(),
    }


def measure_resume(names=SMOKE_SCENARIOS) -> dict:
    """Kill a campaign halfway, rerun it on the same store, compare verdicts.

    ``replayed`` is the rerun's result-store hits: the scenarios that
    finished before the kill and were not executed again.
    """
    names = list(names)
    kill_at = len(names) // 2 or 1
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        baseline = CampaignRunner(store_path=root / "baseline-store").run(names)
        store_path = root / "store"
        interrupt = FaultPlan(
            seed=1110,
            sites={"scenario.run": FaultSpec(kind="interrupt", at=(kill_at,))},
        )
        interrupted = False
        with faults.active(interrupt):
            try:
                CampaignRunner(store_path=store_path).run(names)
            except KeyboardInterrupt:
                interrupted = True
        started = time.perf_counter()
        resumed = CampaignRunner(store_path=store_path).run(names)
        resume_seconds = time.perf_counter() - started
        replayed = resumed.store["results"]["hits"]
        return {
            "scenarios": names,
            "killed_at_index": kill_at,
            "interrupted": interrupted,
            "resume_seconds": round(resume_seconds, 4),
            "replayed": replayed,
            "re_executed": len(names) - replayed,
            "verdicts_identical": (
                resumed.verdict_json() == baseline.verdict_json()
            ),
        }


def measure_fault_differential(names=SMOKE_SCENARIOS, workdir=None) -> dict:
    """Seeded fault schedules under supervision vs a fault-free baseline.

    Every schedule must converge to byte-identical verdicts; the
    quarantine listing of the faulted store lands in ``workdir``.
    """
    names = list(names)
    schedules = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        baseline = CampaignRunner(store_path=root / "baseline-store").run(names)
        quarantine_listing: list = []
        for label, schedule in sorted(FAULT_SCHEDULES.items()):
            plan = schedule["plan"]
            store_root = root / f"store-{label}"
            # Store-site schedules need a warm store so read/corrupt
            # faults have records to refuse; execution-site schedules
            # must run cold or the warm hits would skip the seam.
            if schedule.get("seed_store"):
                CampaignRunner(store_path=store_root).run(names)
            gc.collect()
            runner = CampaignRunner(store_path=store_root)
            with faults.active(plan):
                started = time.perf_counter()
                report = runner.run(
                    names,
                    supervision=schedule.get("policy", POLICY),
                    **schedule.get("run", {}),
                )
                seconds = time.perf_counter() - started
            fault_stats = report.resilience.get("faults", {})
            workers = report.resilience.get("workers", {})
            schedules[label] = {
                "seed": plan.seed,
                "seconds": round(seconds, 4),
                "fires": fault_stats.get("fires", 0),
                "retries": report.resilience.get("retries", 0),
                "workers_respawned": workers.get("respawned", 0),
                "workers_hung_terminated": workers.get("hung_terminated", 0),
                "quarantined": report.store["results"]["quarantined"]
                + report.store["snapshots"]["quarantined"],
                "verdicts_identical": (
                    report.verdict_json() == baseline.verdict_json()
                ),
            }
            quarantine_listing.extend(
                f"{label}/{path.name}"
                for path in ResultStore(store_root).quarantined_records()
            )
        if workdir is not None:
            workdir.mkdir(parents=True, exist_ok=True)
            (workdir / "quarantine-listing.txt").write_text(
                "\n".join(quarantine_listing) + "\n"
            )
    return {
        "scenarios": names,
        "schedules": schedules,
        "total_fires": sum(r["fires"] for r in schedules.values()),
        "verdicts_identical": all(
            r["verdicts_identical"] for r in schedules.values()
        ),
    }


def _write_json(payload: dict, path: pathlib.Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ======================================================================
# Tiers
# ======================================================================
@pytest.mark.bench_smoke
def test_resilience_overhead_smoke(benchmark, tmp_path):
    """Supervised vs plain smoke campaign; its record goes to ``tmp_path``
    (the committed BENCH_resilience.json is the CLI's full record)."""
    payload = benchmark.pedantic(measure_overhead, rounds=1, iterations=1)
    _write_json({"overhead": payload}, tmp_path / JSON_PATH.name)
    assert payload["verdicts_identical"], "supervision changed a verdict"
    assert payload["overhead_ratio"] <= OVERHEAD_CEILING, payload
    record_paper_comparison(
        benchmark,
        experiment="supervision overhead (smoke)",
        paper="fault recovery must not perturb the verification verdicts",
        measured=(
            f"supervised/plain ratio {payload['overhead_ratio']} "
            f"(target <= {OVERHEAD_TARGET}, met: {payload['bar_met']}; "
            f"ceiling {OVERHEAD_CEILING} asserted)"
        ),
    )


@pytest.mark.bench_smoke
def test_resilience_resume_smoke(benchmark):
    """An interrupted campaign rerun on its store stays byte-identical."""
    payload = benchmark.pedantic(measure_resume, rounds=1, iterations=1)
    assert payload["interrupted"], "the injected interrupt never fired"
    assert payload["verdicts_identical"], "resume changed a verdict"
    assert payload["replayed"] == payload["killed_at_index"]
    record_paper_comparison(
        benchmark,
        experiment="resume from the store (smoke)",
        paper="an interrupted campaign must be resumable without recomputation",
        measured=(
            f"killed at {payload['killed_at_index']}, replayed "
            f"{payload['replayed']} from the store, re-executed "
            f"{payload['re_executed']}, verdicts byte-identical"
        ),
    )


# ======================================================================
# CLI (CI artifact step)
# ======================================================================
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument(
        "--artifacts",
        type=pathlib.Path,
        default=None,
        help="directory receiving the faulted stores' quarantine listing",
    )
    args = parser.parse_args()
    payload = {
        "overhead": measure_overhead(rounds=args.rounds),
        "resume": measure_resume(),
        "fault_differential": measure_fault_differential(
            workdir=args.artifacts
        ),
    }
    _write_json(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    failures = []
    if not payload["overhead"]["verdicts_identical"]:
        failures.append("supervision changed a verdict")
    if payload["overhead"]["overhead_ratio"] > OVERHEAD_CEILING:
        failures.append(
            f"overhead ratio {payload['overhead']['overhead_ratio']} "
            f"above ceiling"
        )
    if not payload["resume"]["verdicts_identical"]:
        failures.append("resume changed a verdict")
    if payload["resume"]["replayed"] != payload["resume"]["killed_at_index"]:
        failures.append("resume re-executed finished work")
    if not payload["fault_differential"]["verdicts_identical"]:
        failures.append("a fault schedule changed a verdict")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures and not payload["overhead"]["bar_met"]:
        print(
            f"NOTE: {OVERHEAD_TARGET} target missed on this host "
            f"(ratio {payload['overhead']['overhead_ratio']}); "
            f"recorded honestly."
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
