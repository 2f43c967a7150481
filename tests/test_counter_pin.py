"""The counts of a campaign report's pool, store and resilience sections.

Every count-valued key of ``report.pool``, ``report.store`` and
``report.resilience`` is pinned for three campaigns: a serial campaign
with a store, run cold and then warm on one runner; a 2-worker parallel
campaign; and a supervised campaign with one injected ``scenario.run``
retry and failing result writes.  Seconds and rates stay out of the pin
(rates are derived from the pinned counts).  Result-record byte counts
are in it: a record is plain JSON whose size repeats run to run.
Snapshot byte counts are not: a snapshot is compressed together with
the source hashes of the components it depends on, so its size moves
with any edit to those sources.

The parallel campaign's units carry disjoint relations (the events
check takes no relation snapshot), so no count depends on which worker
reaches the store first.  Which worker runs which unit does depend on
timing, so the per-worker pool records are pinned as their sum.
"""

import pytest

from repro.engine import CampaignRunner, FaultPlan, FaultSpec, Scenario, SupervisionPolicy
from repro.resilience import faults
from repro.strings import CONTROL, NORMAL

#: Two order signatures, a shared golden specification and one bug.
SERIAL = [
    Scenario(name="vsm/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="vsm/bug", slots=(NORMAL, NORMAL), bug="no_bypass"),
    Scenario(name="vsm/branchy", slots=(CONTROL, NORMAL)),
]

#: Two units: the (N,N) beta pair and a one-slot interrupt check.
PARALLEL = [
    Scenario(name="vsm/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="vsm/bug", slots=(NORMAL, NORMAL), bug="no_bypass"),
    Scenario(name="vsm/event", kind="events", slots=(NORMAL,), event_slots=(0,)),
]


#: Compressed sizes, which move with the sources' hashes.
UNPINNED = ("snapshots.bytes_read", "snapshots.bytes_written")


def _counts(section, prefix=""):
    """``{dotted.path: int}`` over the integer leaves of ``section``."""
    flat = {}
    for key, value in (section or {}).items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_counts(value, f"{name}."))
        elif isinstance(value, int) and not isinstance(value, bool) and name not in UNPINNED:
            flat[name] = value
    return flat


def _summed(records):
    """The per-key sum of several ``_counts`` dicts."""
    summed = {}
    for record in records:
        for key, value in record.items():
            summed[key] = summed.get(key, 0) + value
    return summed


def _sections(report):
    return {
        "pool": _counts(report.pool),
        "store": _counts(report.store),
        "resilience": _counts(report.resilience),
    }


def observed_counts(tmp_path):
    """The pinned counts of the three campaigns, run under ``tmp_path``."""
    observed = {}
    runner = CampaignRunner(store_path=tmp_path / "serial")
    observed["cold"] = _sections(runner.run(SERIAL))
    runner.clear_memo()
    observed["warm"] = _sections(runner.run(SERIAL))

    report = CampaignRunner(store_path=tmp_path / "parallel").run(
        PARALLEL, parallel=True, max_workers=2
    )
    parallel = _sections(report)
    parallel["per_worker"] = _summed(
        _counts({"units": record["units"], "pool": record["pool"]})
        for record in report.pool["per_worker"]
    )
    observed["parallel"] = parallel

    plan = FaultPlan(
        sites={
            "scenario.run": FaultSpec(kind="error", at=(0,), max_fires=1),
            "store.write.results": FaultSpec(kind="io", rate=1.0, max_fires=100),
        }
    )
    with faults.active(plan):
        report = CampaignRunner(store_path=tmp_path / "supervised").run(
            SERIAL, supervision=SupervisionPolicy(max_attempts=3, backoff_base=0.0)
        )
    observed["supervised"] = _sections(report)
    return observed


EXPECTED = {
    "cold": {
        "pool": {
            "acquisitions": 3,
            "arena.allocated_total": 15616,
            "arena.capacity": 0,
            "arena.free": 0,
            "arena.gc_reclaimed": 0,
            "arena.gc_runs": 0,
            "arena.live": 0,
            "arena.peak_live": 11100,
            "cache.clears": 0,
            "cache.evicted_entries": 0,
            "cache.hits": 9685,
            "cache.misses": 12631,
            "cache.total_entries": 0,
            "managers": 2,
            "reuses": 1,
            "templates.captures": 2,
            "templates.clones": 0,
            "templates.held": 2,
            "total_nodes": 0,
        },
        "resilience": {},
        "store": {
            "results.bytes_read": 0,
            "results.bytes_written": 7866,
            "results.corrupt": 0,
            "results.hits": 0,
            "results.invalidated": 0,
            "results.misses": 3,
            "results.quarantined": 0,
            "results.stale": 0,
            "results.writes": 3,
            "snapshots.corrupt": 0,
            "snapshots.hits": 2,
            "snapshots.invalidated": 0,
            "snapshots.misses": 3,
            "snapshots.quarantined": 0,
            "snapshots.stale": 0,
            "snapshots.writes": 3,
            "tmp_swept": 0,
        },
    },
    "parallel": {
        "per_worker": {
            "pool.acquisitions": 3,
            "pool.arena.allocated_total": 11220,
            "pool.arena.capacity": 0,
            "pool.arena.free": 0,
            "pool.arena.gc_reclaimed": 0,
            "pool.arena.gc_runs": 0,
            "pool.arena.live": 0,
            "pool.arena.peak_live": 11224,
            "pool.cache.clears": 0,
            "pool.cache.evicted_entries": 0,
            "pool.cache.hits": 9593,
            "pool.cache.misses": 12618,
            "pool.cache.total_entries": 0,
            "pool.created": 2,
            "pool.managers": 0,
            "pool.reuses": 1,
            "pool.templates.captures": 0,
            "pool.templates.clones": 0,
            "pool.templates.held": 0,
            "pool.total_nodes": 0,
            "units": 2,
        },
        "pool": {
            "units": 2,
            "workers": 2,
        },
        "resilience": {},
        "store": {
            "results.bytes_read": 0,
            "results.bytes_written": 7957,
            "results.corrupt": 0,
            "results.hits": 0,
            "results.invalidated": 0,
            "results.misses": 3,
            "results.quarantined": 0,
            "results.stale": 0,
            "results.writes": 3,
            "snapshots.corrupt": 0,
            "snapshots.hits": 0,
            "snapshots.invalidated": 0,
            "snapshots.misses": 3,
            "snapshots.quarantined": 0,
            "snapshots.stale": 0,
            "snapshots.writes": 3,
            "tmp_swept": 0,
        },
    },
    "supervised": {
        "pool": {
            "acquisitions": 4,
            "arena.allocated_total": 15616,
            "arena.capacity": 0,
            "arena.free": 0,
            "arena.gc_reclaimed": 0,
            "arena.gc_runs": 0,
            "arena.live": 0,
            "arena.peak_live": 11100,
            "cache.clears": 0,
            "cache.evicted_entries": 0,
            "cache.hits": 9685,
            "cache.misses": 12631,
            "cache.total_entries": 0,
            "managers": 2,
            "reuses": 2,
            "templates.captures": 2,
            "templates.clones": 0,
            "templates.held": 2,
            "total_nodes": 0,
        },
        "resilience": {
            "faults.fires": 10,
            "faults.seed": 0,
            "faults.sites.scenario.run.fires": 1,
            "faults.sites.scenario.run.invocations": 4,
            "faults.sites.store.corrupt.snapshots.fires": 0,
            "faults.sites.store.corrupt.snapshots.invocations": 2,
            "faults.sites.store.read.results.fires": 0,
            "faults.sites.store.read.results.invocations": 3,
            "faults.sites.store.read.snapshots.fires": 0,
            "faults.sites.store.read.snapshots.invocations": 5,
            "faults.sites.store.write.results.fires": 9,
            "faults.sites.store.write.results.invocations": 9,
            "faults.sites.store.write.snapshots.fires": 0,
            "faults.sites.store.write.snapshots.invocations": 3,
            "policy.max_attempts": 3,
            "policy.max_redispatches": 2,
            "policy.max_respawns": 3,
            "policy.max_write_attempts": 3,
            "policy.seed": 0,
            "retries": 1,
            "write_failures": 3,
            "write_retries": 6,
        },
        "store": {
            "results.bytes_read": 0,
            "results.bytes_written": 0,
            "results.corrupt": 0,
            "results.hits": 0,
            "results.invalidated": 0,
            "results.misses": 3,
            "results.quarantined": 0,
            "results.stale": 0,
            "results.writes": 0,
            "snapshots.corrupt": 0,
            "snapshots.hits": 2,
            "snapshots.invalidated": 0,
            "snapshots.misses": 3,
            "snapshots.quarantined": 0,
            "snapshots.stale": 0,
            "snapshots.writes": 3,
            "tmp_swept": 0,
        },
    },
    "warm": {
        "pool": {
            "acquisitions": 0,
            "arena.allocated_total": 0,
            "arena.capacity": 0,
            "arena.free": 0,
            "arena.gc_reclaimed": 0,
            "arena.gc_runs": 0,
            "arena.live": 0,
            "arena.peak_live": 11100,
            "cache.clears": 0,
            "cache.evicted_entries": 0,
            "cache.hits": 0,
            "cache.misses": 0,
            "cache.total_entries": 0,
            "managers": 0,
            "reuses": 0,
            "templates.captures": 0,
            "templates.clones": 0,
            "templates.held": 2,
            "total_nodes": 0,
        },
        "resilience": {},
        "store": {
            "results.bytes_read": 7866,
            "results.bytes_written": 0,
            "results.corrupt": 0,
            "results.hits": 3,
            "results.invalidated": 0,
            "results.misses": 0,
            "results.quarantined": 0,
            "results.stale": 0,
            "results.writes": 0,
            "snapshots.corrupt": 0,
            "snapshots.hits": 0,
            "snapshots.invalidated": 0,
            "snapshots.misses": 0,
            "snapshots.quarantined": 0,
            "snapshots.stale": 0,
            "snapshots.writes": 0,
            "tmp_swept": 0,
        },
    },
}


@pytest.fixture(autouse=True)
def _injection_off():
    faults.configure(None)
    yield
    faults.configure(None)


def test_campaign_report_counts_are_pinned(tmp_path):
    observed = observed_counts(tmp_path)
    for campaign, sections in EXPECTED.items():
        for section, counts in sections.items():
            assert observed[campaign][section] == counts, (campaign, section)
    assert observed.keys() == EXPECTED.keys()
