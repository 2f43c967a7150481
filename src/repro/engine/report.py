"""Structured results of campaign runs.

A :class:`ScenarioOutcome` is the engine's view of one scenario run; a
:class:`CampaignReport` aggregates a whole campaign.  Both are plain
data and JSON-serialisable.

Outcomes deliberately separate the *verdict* — everything that is a
deterministic function of the scenario (pass/fail, mismatch records,
decoded counterexamples, cycle counts, filter sequences) — from the
*measurement* (wall-clock times, node counts, cache hit rates), which
depends on pooling, process placement and hardware.  The campaign
engine's parallel mode is required to reproduce the serial verdicts
byte for byte; :meth:`CampaignReport.verdict_json` is that byte string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Version of the :meth:`CampaignReport.to_dict` schema.  v2 added
#: ``schema_version``/``generated_at`` themselves plus the ``telemetry``
#: section (trace summary and metrics-registry snapshot).  v3 added the
#: ``resilience`` section (supervision policy, retry/respawn/
#: redispatch activity and fault-injection statistics).
REPORT_SCHEMA_VERSION = 3


@dataclass
class ScenarioOutcome:
    """Result of executing one scenario."""

    scenario: str
    kind: str
    design: str
    passed: bool
    #: Deterministic mismatch records (sorted counterexample assignments,
    #: decoded instruction sequences and raw instruction words).
    mismatches: List[Dict[str, object]] = field(default_factory=list)
    #: Deterministic structural facts (cycle counts, filters, coverage).
    structure: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0
    #: Phase timings (measurement, not verdict): specification /
    #: implementation simulation and comparison seconds where applicable.
    timings: Dict[str, float] = field(default_factory=dict)
    bdd_nodes: int = 0
    bdd_variables: int = 0
    #: Operation-cache activity attributable to this run: the
    #: :func:`~repro.telemetry.registry.delta` of the manager's
    #: ``cache_statistics()`` (counters subtracted, sizes as after).
    cache: Dict[str, object] = field(default_factory=dict)
    #: Relational-extraction cache activity (measurement, not verdict):
    #: hit/miss of the session-cached beta relations plus session
    #: totals; empty for non-relational scenarios.
    extraction_cache: Dict[str, object] = field(default_factory=dict)
    #: Which beta backend executed the scenario (measurement, not
    #: verdict — verdicts are byte-identical across backends): empty for
    #: non-beta scenarios.
    backend: str = ""
    #: Persistent-store activity for this scenario (measurement, not
    #: verdict): ``{"status": "hit"|"miss", "bytes_read"/"bytes_written",
    #: "seconds"}``; empty when the campaign ran without a store.
    store: Dict[str, object] = field(default_factory=dict)
    #: Arena-snapshot activity (measurement, not verdict): per-role
    #: relation restore/save timings from the persistent store; empty
    #: without a store or for non-relational scenarios.
    snapshot: Dict[str, object] = field(default_factory=dict)
    #: Whether the outcome was served from the campaign memo.
    memoized: bool = False
    #: Error string when the scenario raised instead of completing.
    error: Optional[str] = None
    #: Full traceback of the error (measurement, not verdict: traceback
    #: text carries file paths and line numbers that vary by machine and
    #: code version, so it must never enter the byte-identical verdict;
    #: it exists so a crashed scenario is diagnosable from the report).
    traceback: Optional[str] = None

    def verdict(self) -> Dict[str, object]:
        """The deterministic portion of the outcome.

        Identical between serial (pooled) and parallel (per-worker)
        execution, and between fresh and memoised runs.
        """
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "design": self.design,
            "passed": self.passed,
            "mismatches": self.mismatches,
            "structure": self.structure,
            "error": self.error,
        }

    def to_dict(self) -> Dict[str, object]:
        """Full JSON-serialisable outcome (verdict plus measurements)."""
        payload = self.verdict()
        payload.update(
            {
                "seconds": round(self.seconds, 4),
                "timings": {name: round(value, 4) for name, value in self.timings.items()},
                "bdd_nodes": self.bdd_nodes,
                "bdd_variables": self.bdd_variables,
                "cache": self.cache,
                "extraction_cache": self.extraction_cache,
                "backend": self.backend,
                "store": self.store,
                "snapshot": self.snapshot,
                "memoized": self.memoized,
                "traceback": self.traceback,
            }
        )
        return payload


@dataclass
class CampaignReport:
    """Aggregated outcome of a campaign run."""

    outcomes: List[ScenarioOutcome]
    mode: str = "serial"
    pool: Dict[str, object] = field(default_factory=dict)
    memo_hits: int = 0
    total_seconds: float = 0.0
    #: Persistent-store activity over the whole campaign (hit/miss/
    #: stale/invalidated/corrupt counts, byte volumes and the component
    #: ``survival_rate`` for result records and relation snapshots);
    #: empty when the campaign ran without a store.
    store: Dict[str, object] = field(default_factory=dict)
    #: Telemetry section (measurement, not verdict): the campaign's
    #: trace summary (per-scenario phase breakdown, top spans by
    #: self-time, anomaly flags), the metrics-registry snapshot and —
    #: in affinity-parallel mode — per-worker registry snapshots.
    #: Empty when tracing was disabled for the run.
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: Resilience section (measurement, not verdict): the supervision
    #: policy in force, scenario retry / store-write retry counts,
    #: worker respawn/redispatch/hang activity and fault-injector
    #: statistics.  Empty for an unsupervised, fault-free campaign —
    #: the overwhelmingly common case pays nothing.
    resilience: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every scenario completed and passed."""
        return all(outcome.passed and outcome.error is None for outcome in self.outcomes)

    @property
    def scenario_count(self) -> int:
        return len(self.outcomes)

    def failures(self) -> List[ScenarioOutcome]:
        """Outcomes that failed verification or errored."""
        return [o for o in self.outcomes if not o.passed or o.error is not None]

    def outcome(self, scenario: str) -> ScenarioOutcome:
        """The outcome of a scenario by name."""
        for candidate in self.outcomes:
            if candidate.scenario == scenario:
                return candidate
        raise KeyError(f"no outcome for scenario {scenario!r}")

    def counterexamples(self) -> Dict[str, List[Dict[str, object]]]:
        """Mismatch records of every failing scenario, keyed by name."""
        return {o.scenario: o.mismatches for o in self.outcomes if o.mismatches}

    # ------------------------------------------------------------------
    # Deterministic verdicts
    # ------------------------------------------------------------------
    def verdicts(self) -> List[Dict[str, object]]:
        """Per-scenario verdicts in campaign order (deterministic)."""
        return [outcome.verdict() for outcome in self.outcomes]

    def verdict_json(self) -> str:
        """Canonical JSON of :meth:`verdicts` — byte-identical across modes."""
        return json.dumps(self.verdicts(), indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    # Serialisation / presentation
    # ------------------------------------------------------------------
    def to_dict(self, generated_at: Optional[str] = None) -> Dict[str, object]:
        """Full JSON-serialisable report.

        ``generated_at`` is caller-injected (an ISO-8601 string or any
        opaque stamp) rather than sampled here: the report itself stays
        a pure function of the campaign, so two runs of the same
        campaign serialise identically unless the caller opts into a
        timestamp.
        """
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "generated_at": generated_at,
            "mode": self.mode,
            "passed": self.passed,
            "scenario_count": self.scenario_count,
            "failures": [o.scenario for o in self.failures()],
            "memo_hits": self.memo_hits,
            "total_seconds": round(self.total_seconds, 4),
            "pool": self.pool,
            "store": self.store,
            "telemetry": self.telemetry,
            "resilience": self.resilience,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }

    def to_json(self, generated_at: Optional[str] = None) -> str:
        return json.dumps(
            self.to_dict(generated_at=generated_at), indent=2, sort_keys=True
        )

    def summary(self) -> str:
        """Multi-line human-readable campaign summary."""
        lines = [
            f"campaign: {self.scenario_count} scenario(s), mode={self.mode}, "
            f"{'PASSED' if self.passed else 'FAILED'} in {self.total_seconds:.2f} s"
        ]
        for outcome in self.outcomes:
            marker = "ok " if outcome.passed and outcome.error is None else "FAIL"
            note = " [memo]" if outcome.memoized else ""
            if outcome.error is not None:
                detail = f"error: {outcome.error}"
            elif outcome.mismatches:
                detail = f"{len(outcome.mismatches)} mismatching observable(s)"
            else:
                detail = "verified"
            lines.append(
                f"  [{marker}] {outcome.scenario} ({outcome.kind}/{outcome.design}): "
                f"{detail} in {outcome.seconds:.2f} s{note}"
            )
        pool = self.pool or {}
        if pool.get("managers") is not None:
            cache = pool.get("cache", {})
            lines.append(
                f"  pool: {pool.get('managers')} manager(s) created for "
                f"{pool.get('acquisitions', 0)} acquisition(s) "
                f"({pool.get('reuses', 0)} reuse(s)), "
                f"peak {pool.get('arena', {}).get('peak_live', 0)} live nodes, "
                f"cache hit rate {cache.get('hit_rate', 0.0):.1%}"
            )
        if self.memo_hits:
            lines.append(f"  memo: {self.memo_hits} scenario result(s) reused")
        store = self.store or {}
        results = store.get("results")
        if results:
            invalidated = results.get("invalidated", 0)
            invalidation = (
                f", {invalidated} invalidated by code changes" if invalidated else ""
            )
            lines.append(
                f"  store: {results.get('hits', 0)} hit(s) / "
                f"{results.get('misses', 0)} miss(es){invalidation} "
                f"({results.get('bytes_read', 0)} B read, "
                f"{results.get('bytes_written', 0)} B written), "
                f"snapshots {store.get('snapshots', {}).get('hits', 0)} hit(s)"
            )
        resilience = self.resilience or {}
        if resilience:
            parts = []
            if resilience.get("retries"):
                parts.append(f"{resilience['retries']} scenario retry(ies)")
            if resilience.get("write_failures"):
                parts.append(f"{resilience['write_failures']} store write(s) abandoned")
            workers = resilience.get("workers") or {}
            if workers.get("respawned"):
                parts.append(f"{workers['respawned']} worker(s) respawned")
            if workers.get("hung_terminated"):
                parts.append(f"{workers['hung_terminated']} hung worker(s) terminated")
            if parts:
                lines.append("  resilience: " + ", ".join(parts))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.summary()
