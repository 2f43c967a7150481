"""Trace analysis and the campaign profile CLI.

``python -m repro.telemetry.report trace.jsonl`` renders a self-time
tree of a recorded campaign trace and flags anomalies; the same
analysis functions feed the ``telemetry`` section of a
:class:`~repro.engine.report.CampaignReport`, so the report and the
CLI can never disagree about what a trace means.

Self time is the profiling primitive: a span's wall time minus the
wall time of its direct children, i.e. the cost attributable to the
span's own code rather than to a deeper instrumented phase.  Because
every event carries ``(worker, id, parent)``, merged multi-worker
traces analyse per worker and aggregate across them.

Anomaly heuristics (deterministic, threshold-based — streamable later
by the campaign daemon):

* **Cache hit-rate drop** — a span whose arena-delta cache hit rate
  sits well below its campaign's mean suggests an eviction storm or a
  cold manager where a warm one was expected.
* **GC churn** — spans whose delta shows repeated arena collections;
  mark-and-sweep inside a hot phase means the free-list is thrashing.
* **Shard imbalance** — per-worker busy time (the ``worker.drain``
  spans) spread beyond a factor bound; the affinity scheduler aims for
  LPT fairness, so heavy skew means a shard split bound needs tuning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .registry import with_rates

#: Spans with fewer cache lookups than this are ignored by the
#: hit-rate anomaly (tiny denominators make rates meaningless).
HIT_RATE_MIN_LOOKUPS = 1000
#: Flag a span whose hit rate sits this far below the campaign mean.
HIT_RATE_DROP = 0.2
#: Flag a span whose delta shows at least this many arena collections.
GC_CHURN_RUNS = 3
#: Flag worker busy-time spread beyond ``max > factor * min``.
SHARD_IMBALANCE_FACTOR = 1.5


def load_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Parse a JSONL trace file (unparseable lines are skipped, counted)."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if isinstance(event, dict):
                events.append(event)
    return events


def _span_events(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    return [e for e in events if e.get("type") == "span"]


def _key(event: Dict[str, object]) -> Tuple[object, object]:
    return (event.get("worker", "main"), event.get("id"))


def _parent_key(event: Dict[str, object]) -> Optional[Tuple[object, object]]:
    parent = event.get("parent")
    if parent is None:
        return None
    return (event.get("worker", "main"), parent)


def children_index(
    events: Sequence[Dict[str, object]]
) -> Dict[Optional[Tuple[object, object]], List[Dict[str, object]]]:
    """Direct children of every span key (``None`` key = roots).

    A span whose recorded parent never closed (crash, or an analysis
    over a sliced event window) is treated as a root rather than lost.
    """
    spans = _span_events(events)
    known = {_key(e) for e in spans}
    index: Dict[Optional[Tuple[object, object]], List[Dict[str, object]]] = {}
    for event in spans:
        parent = _parent_key(event)
        if parent is not None and parent not in known:
            parent = None
        index.setdefault(parent, []).append(event)
    for bucket in index.values():
        bucket.sort(key=lambda e: (str(e.get("worker", "main")), e.get("start", 0.0)))
    return index


def self_seconds(
    events: Sequence[Dict[str, object]]
) -> Dict[Tuple[object, object], float]:
    """Self time of every span: wall seconds minus direct children's."""
    index = children_index(events)
    selfs: Dict[Tuple[object, object], float] = {}
    for event in _span_events(events):
        key = _key(event)
        child_total = sum(
            child.get("seconds", 0.0) for child in index.get(key, [])
        )
        selfs[key] = max(0.0, float(event.get("seconds", 0.0)) - child_total)
    return selfs


def aggregate_by_name(
    events: Sequence[Dict[str, object]], top: Optional[int] = None
) -> List[Dict[str, object]]:
    """Per-span-name totals sorted by self time, descending."""
    selfs = self_seconds(events)
    totals: Dict[str, Dict[str, float]] = {}
    for event in _span_events(events):
        name = str(event.get("name", "?"))
        bucket = totals.setdefault(
            name, {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
        )
        bucket["count"] += 1
        bucket["total_seconds"] += float(event.get("seconds", 0.0))
        bucket["self_seconds"] += selfs[_key(event)]
    rows = [
        {
            "name": name,
            "count": int(bucket["count"]),
            "total_seconds": round(bucket["total_seconds"], 6),
            "self_seconds": round(bucket["self_seconds"], 6),
        }
        for name, bucket in totals.items()
    ]
    rows.sort(key=lambda row: (-row["self_seconds"], row["name"]))
    return rows[:top] if top is not None else rows


def phase_breakdown(
    events: Sequence[Dict[str, object]]
) -> Dict[str, Dict[str, float]]:
    """Per-scenario phase seconds: children of each ``scenario.execute``.

    Keyed by the scenario name attribute; phases are the child span
    names with their wall seconds summed (a scenario run twice — e.g.
    once per store state — accumulates).
    """
    index = children_index(events)
    breakdown: Dict[str, Dict[str, float]] = {}
    for event in _span_events(events):
        if event.get("name") != "scenario.execute":
            continue
        attrs = event.get("attrs") or {}
        scenario = str(attrs.get("scenario", "?"))
        phases = breakdown.setdefault(scenario, {})
        phases["total"] = round(
            phases.get("total", 0.0) + float(event.get("seconds", 0.0)), 6
        )
        for child in index.get(_key(event), []):
            name = str(child.get("name", "?"))
            phases[name] = round(
                phases.get(name, 0.0) + float(child.get("seconds", 0.0)), 6
            )
    return breakdown


# ----------------------------------------------------------------------
# Anomaly detection
# ----------------------------------------------------------------------
def find_anomalies(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Deterministic anomaly records over one trace (possibly merged)."""
    anomalies: List[Dict[str, object]] = []
    spans = _span_events(events)

    # Cache hit-rate drops.
    rated: List[Tuple[Dict[str, object], float]] = []
    for event in spans:
        deltas = event.get("deltas") or {}
        cache = {"hits": deltas.get("cache_hits", 0), "misses": deltas.get("cache_misses", 0)}
        if cache["hits"] + cache["misses"] >= HIT_RATE_MIN_LOOKUPS:
            rated.append((event, with_rates(cache)["hit_rate"]))
    if rated:
        mean = sum(rate for _event, rate in rated) / len(rated)
        for event, rate in rated:
            if rate < mean - HIT_RATE_DROP:
                anomalies.append(
                    {
                        "kind": "cache-hit-rate-drop",
                        "span": event.get("name"),
                        "worker": event.get("worker", "main"),
                        "id": event.get("id"),
                        "hit_rate": round(rate, 4),
                        "campaign_mean": round(mean, 4),
                        "detail": (
                            f"span {event.get('name')!r} hit rate {rate:.1%} "
                            f"vs campaign mean {mean:.1%}"
                        ),
                    }
                )

    # GC churn.
    for event in spans:
        deltas = event.get("deltas") or {}
        runs = deltas.get("gc_runs", 0)
        if runs >= GC_CHURN_RUNS:
            anomalies.append(
                {
                    "kind": "gc-churn",
                    "span": event.get("name"),
                    "worker": event.get("worker", "main"),
                    "id": event.get("id"),
                    "gc_runs": runs,
                    "reclaimed": deltas.get("gc_reclaimed", 0),
                    "detail": (
                        f"span {event.get('name')!r} ran the arena collector "
                        f"{runs} times ({deltas.get('gc_reclaimed', 0)} nodes reclaimed)"
                    ),
                }
            )

    # Shard imbalance across parallel workers.
    busy: Dict[object, float] = {}
    for event in spans:
        if event.get("name") == "worker.drain":
            worker = event.get("worker", "main")
            busy[worker] = busy.get(worker, 0.0) + float(event.get("seconds", 0.0))
    if len(busy) >= 2:
        slowest = max(busy.values())
        fastest = min(busy.values())
        if slowest > SHARD_IMBALANCE_FACTOR * fastest:
            anomalies.append(
                {
                    "kind": "shard-imbalance",
                    "busy_seconds": {str(w): round(s, 4) for w, s in sorted(busy.items(), key=lambda kv: str(kv[0]))},
                    "factor": round(slowest / fastest, 4) if fastest else None,
                    "detail": (
                        f"worker busy time spread {fastest:.3f}s..{slowest:.3f}s "
                        f"exceeds the {SHARD_IMBALANCE_FACTOR}x fairness bound"
                    ),
                }
            )

    # Supervised retries: each supervision.retry span is a scenario
    # attempt that failed transiently and was re-run.  One anomaly
    # record aggregates the campaign (retries are by design bounded and
    # rare; any non-zero count is worth a flag, not an alarm per event).
    retries = [event for event in spans if event.get("name") == "supervision.retry"]
    if retries:
        attrs = [event.get("attrs") or {} for event in retries]
        backoff = sum(float(record.get("backoff", 0.0)) for record in attrs)
        anomalies.append(
            {
                "kind": "supervised-retries",
                "count": len(retries),
                "backoff_seconds": round(backoff, 4),
                "scenarios": sorted(
                    {str(record.get("scenario", "?")) for record in attrs}
                ),
                "detail": (
                    f"{len(retries)} supervised scenario retry(ies) "
                    f"({backoff:.3f}s total backoff) — transient failures "
                    "were absorbed; verdicts are unaffected"
                ),
            }
        )
    return anomalies


def summarize(
    events: Sequence[Dict[str, object]], top: int = 10
) -> Dict[str, object]:
    """The ``telemetry`` trace summary embedded in campaign reports."""
    return {
        "span_count": len(_span_events(events)),
        "phases": phase_breakdown(events),
        "top_spans": aggregate_by_name(events, top=top),
        "anomalies": find_anomalies(events),
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_tree(events: Sequence[Dict[str, object]]) -> str:
    """Human-readable per-worker self-time tree of one trace."""
    index = children_index(events)
    selfs = self_seconds(events)
    lines: List[str] = []

    def walk(event: Dict[str, object], depth: int) -> None:
        key = _key(event)
        attrs = event.get("attrs") or {}
        note = ""
        if attrs:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            note = f"  [{inner}]"
        error = f"  !{event['error']}" if event.get("error") else ""
        lines.append(
            f"{'  ' * depth}{event.get('name')}: "
            f"{float(event.get('seconds', 0.0)):.4f}s "
            f"(self {selfs[key]:.4f}s){note}{error}"
        )
        for child in index.get(key, []):
            walk(child, depth + 1)

    roots = index.get(None, [])
    workers = sorted({str(e.get("worker", "main")) for e in roots})
    for worker in workers:
        lines.append(f"-- worker {worker} --")
        for event in roots:
            if str(event.get("worker", "main")) == worker:
                walk(event, 1)
    return "\n".join(lines)


def render_report(events: Sequence[Dict[str, object]], top: int = 10) -> str:
    """Full CLI report: tree, top self-time table, anomalies."""
    lines = [render_tree(events), "", f"top {top} spans by self time:"]
    for row in aggregate_by_name(events, top=top):
        lines.append(
            f"  {row['name']:<28} x{row['count']:<5} "
            f"self {row['self_seconds']:.4f}s / total {row['total_seconds']:.4f}s"
        )
    anomalies = find_anomalies(events)
    lines.append("")
    if anomalies:
        lines.append(f"{len(anomalies)} anomaly flag(s):")
        for anomaly in anomalies:
            lines.append(f"  [{anomaly['kind']}] {anomaly['detail']}")
    else:
        lines.append("no anomalies flagged")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Render the self-time tree and anomaly flags of a campaign trace.",
    )
    parser.add_argument("trace", help="JSONL trace file (see repro.telemetry.tracing)")
    parser.add_argument("--top", type=int, default=10, help="rows in the self-time table")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary instead of the rendered tree",
    )
    args = parser.parse_args(argv)
    events = load_events(args.trace)
    try:
        if args.json:
            print(json.dumps(summarize(events, top=args.top), indent=2, sort_keys=True))
        else:
            print(render_report(events, top=args.top))
    except BrokenPipeError:
        # Piping into ``head`` closes stdout early; that is not an
        # error.  Point stdout at devnull so the interpreter's exit
        # flush does not raise the same thing again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
