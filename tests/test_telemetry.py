"""Tests of the unified telemetry subsystem.

Covers the three layers and their engine integration:

* registry — instrument semantics, name-collision detection, nested
  statistics absorption, thread safety under concurrent increments;
* tracing — span nesting/parenting (including under exceptions and
  ``KeyboardInterrupt``), the disabled-mode no-op singleton fast path,
  kernel delta attribution, worker config propagation, JSONL round-trip;
* report — self-time attribution, per-scenario phase breakdown, anomaly
  heuristics, the CLI entry point;
* engine — the campaign report's ``telemetry`` section, the report
  schema version / caller-injected timestamp, and the store's
  normalized per-family rates.

Verdict byte-identity traced vs untraced lives in the differential
suite (``test_engine_differential.py``).
"""

import json
import threading

import pytest

from repro import telemetry
from repro.bdd import BDDManager
from repro.engine import CampaignRunner, Scenario, execute_scenario
from repro.engine.report import REPORT_SCHEMA_VERSION, CampaignReport, ScenarioOutcome
from repro.engine.store import ResultStore
from repro.telemetry import report as trace_report
from repro.telemetry.registry import MetricsRegistry, delta, total, with_rates
from repro.telemetry.tracing import Tracer


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with tracing disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == [[0.1, 1], [1.0, 2], ["+Inf", 1]]
        assert snap["min"] == 0.05 and snap["max"] == 5.0
        assert snap["sum"] == pytest.approx(6.05)

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_cross_kind_name_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_delta_subtracts_counters_and_keeps_levels(self):
        before = {
            "acquisitions": 2,
            "note": "not numeric",
            "cache": {"hits": 10, "misses": 10, "total_entries": 50, "hit_rate": 0.5},
        }
        after = {
            "acquisitions": 5,
            "note": "not numeric",
            "per_worker": [1, 2],
            "cache": {"hits": 13, "misses": 11, "total_entries": 40, "hit_rate": 0.55},
            "arena": {"live": 7, "allocated_total": 9},
        }
        assert delta(before, after) == {
            "acquisitions": 3,
            "cache": {"hits": 3, "misses": 1, "total_entries": 40, "hit_rate": 0.75},
            "arena": {"live": 7, "allocated_total": 9},
        }

    def test_total_sums_records_and_derives_rates_again(self):
        workers = [
            {"results": {"hits": 1, "misses": 3, "invalidated": 0, "hit_rate": 0.25}},
            None,
            {"results": {"hits": 3, "misses": 1, "invalidated": 2, "hit_rate": 0.5}},
            {"tmp_swept": 2, "root": "/somewhere"},
        ]
        assert total(workers) == {
            "tmp_swept": 2,
            "results": {
                "hits": 4,
                "misses": 4,
                "invalidated": 2,
                "hit_rate": 0.4,
                "survival_rate": 4 / 6,
            },
        }

    def test_rates_of_records_without_lookups(self):
        assert with_rates({"hits": 0, "misses": 0}) == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
        }
        assert with_rates({"hits": 0, "invalidated": 0})["survival_rate"] == 1.0
        assert with_rates({"live": 3}) == {"live": 3}

    def test_snapshot_is_json_serialisable_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        snap = registry.snapshot()
        json.dumps(snap)
        assert list(snap["counters"]) == ["a", "b"]

    def test_thread_safety_under_concurrent_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("shared")
        histogram = registry.histogram("h")

        def work():
            for _ in range(2000):
                counter.inc()
                histogram.observe(0.01)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 16000
        assert histogram.snapshot()["count"] == 16000


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_disabled_span_is_the_shared_singleton(self):
        assert not telemetry.enabled()
        first = telemetry.span("anything", attr=1)
        second = telemetry.span("else")
        assert first is telemetry.NULL_SPAN
        assert second is telemetry.NULL_SPAN
        with first as live:
            live.set(ignored=True)

    def test_span_nesting_records_parent_ids(self):
        tracer = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        with telemetry.span("sibling"):
            pass
        events = {event["name"]: event for event in tracer.events}
        assert events["inner"]["parent"] == events["outer"]["id"]
        assert events["outer"]["parent"] is None
        assert events["sibling"]["parent"] is None

    def test_exception_exit_records_event_and_unwinds(self):
        tracer = telemetry.enable()
        with pytest.raises(ValueError):
            with telemetry.span("outer"):
                with telemetry.span("failing"):
                    raise ValueError("boom")
        with telemetry.span("after"):
            pass
        events = {event["name"]: event for event in tracer.events}
        assert events["failing"]["error"] == "ValueError"
        assert events["failing"]["parent"] == events["outer"]["id"]
        assert events["outer"]["error"] == "ValueError"
        # The stack unwound fully: a later span is a root again.
        assert events["after"]["parent"] is None

    def test_keyboard_interrupt_still_yields_parseable_trace(self):
        tracer = telemetry.enable()
        with pytest.raises(KeyboardInterrupt):
            with telemetry.span("campaign"):
                with telemetry.span("scenario"):
                    raise KeyboardInterrupt()
        events = {event["name"]: event for event in tracer.events}
        assert set(events) == {"campaign", "scenario"}
        assert events["scenario"]["error"] == "KeyboardInterrupt"
        assert events["scenario"]["parent"] == events["campaign"]["id"]

    def test_manager_deltas_attributed_to_span(self):
        tracer = telemetry.enable()
        manager = BDDManager()
        with telemetry.span("build", manager=manager):
            a = manager.var("a")
            b = manager.var("b")
            manager.apply_and(a, b)
        (event,) = tracer.events
        deltas = event["deltas"]
        assert deltas["nodes_allocated"] >= 3
        assert deltas["cache_misses"] >= 1

    def test_span_feeds_registry_histogram_and_counter(self):
        telemetry.enable()
        before = telemetry.get_registry().counter("span.fed.count").value
        with telemetry.span("fed"):
            pass
        registry = telemetry.get_registry()
        assert registry.counter("span.fed.count").value == before + 1
        assert registry.histogram("span.fed.seconds").snapshot()["count"] >= 1

    def test_jsonl_flush_and_load_round_trip(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        tracer = telemetry.enable(trace_path=trace_path)
        with telemetry.span("one", role="spec"):
            pass
        assert tracer.flush() == 1
        assert tracer.flush() == 0  # nothing new
        events = trace_report.load_events(trace_path)
        assert events[0]["name"] == "one"
        assert events[0]["attrs"] == {"role": "spec"}

    def test_worker_config_round_trip(self):
        assert telemetry.config_state() == {"enabled": False}
        telemetry.enable()
        state = telemetry.config_state()
        assert state == {"enabled": True}
        telemetry.configure(state, worker="w7")
        tracer = telemetry.get_tracer()
        assert tracer.worker == "w7"
        telemetry.configure({"enabled": False})
        assert not telemetry.enabled()

    def test_absorb_merges_foreign_worker_events(self):
        parent = telemetry.enable()
        with telemetry.span("parent.work"):
            pass
        worker = Tracer(worker="w0")
        with worker.span("worker.work"):
            pass
        parent.absorb(worker.drain())
        workers = {event["worker"] for event in parent.events}
        assert workers == {"main", "w0"}
        assert worker.events == []


# ----------------------------------------------------------------------
# Report analysis
# ----------------------------------------------------------------------
def _span(id, name, seconds, parent=None, worker="main", start=0.0, **extra):
    event = {
        "type": "span",
        "id": id,
        "parent": parent,
        "worker": worker,
        "name": name,
        "start": start,
        "seconds": seconds,
    }
    event.update(extra)
    return event


class TestReportAnalysis:
    def test_self_time_subtracts_direct_children(self):
        events = [
            _span(1, "outer", 1.0),
            _span(2, "inner", 0.6, parent=1, start=0.1),
            _span(3, "leaf", 0.2, parent=2, start=0.2),
        ]
        selfs = trace_report.self_seconds(events)
        assert selfs[("main", 1)] == pytest.approx(0.4)
        assert selfs[("main", 2)] == pytest.approx(0.4)
        assert selfs[("main", 3)] == pytest.approx(0.2)

    def test_orphaned_parent_treated_as_root(self):
        events = [_span(5, "lost", 0.3, parent=99)]
        index = trace_report.children_index(events)
        assert index[None][0]["name"] == "lost"

    def test_phase_breakdown_keys_by_scenario(self):
        events = [
            _span(1, "scenario.execute", 1.0, attrs={"scenario": "s1"}),
            _span(2, "beta.extract", 0.7, parent=1, start=0.1),
            _span(3, "beta.compare", 0.2, parent=1, start=0.8),
        ]
        phases = trace_report.phase_breakdown(events)
        assert phases["s1"]["total"] == pytest.approx(1.0)
        assert phases["s1"]["beta.extract"] == pytest.approx(0.7)
        assert phases["s1"]["beta.compare"] == pytest.approx(0.2)

    def test_gc_churn_anomaly(self):
        events = [
            _span(1, "hot", 0.5, deltas={"gc_runs": 4, "gc_reclaimed": 900})
        ]
        anomalies = trace_report.find_anomalies(events)
        assert [a["kind"] for a in anomalies] == ["gc-churn"]

    def test_cache_hit_rate_drop_anomaly(self):
        ok = {"cache_hits": 900, "cache_misses": 100}
        bad = {"cache_hits": 100, "cache_misses": 900}
        events = [
            _span(1, "warm", 0.1, deltas=ok),
            _span(2, "warm", 0.1, deltas=ok),
            _span(3, "cold", 0.1, deltas=bad),
        ]
        anomalies = trace_report.find_anomalies(events)
        assert [a["kind"] for a in anomalies] == ["cache-hit-rate-drop"]
        assert anomalies[0]["span"] == "cold"

    def test_shard_imbalance_anomaly(self):
        events = [
            _span(1, "worker.drain", 10.0, worker="w0"),
            _span(1, "worker.drain", 1.0, worker="w1"),
        ]
        anomalies = trace_report.find_anomalies(events)
        assert [a["kind"] for a in anomalies] == ["shard-imbalance"]

    def test_balanced_workers_not_flagged(self):
        events = [
            _span(1, "worker.drain", 1.0, worker="w0"),
            _span(1, "worker.drain", 1.2, worker="w1"),
        ]
        assert trace_report.find_anomalies(events) == []

    def test_cli_renders_tree_and_json(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        telemetry.write_events(
            trace_path, [_span(1, "root", 1.0), _span(2, "leaf", 0.4, parent=1)]
        )
        assert trace_report.main([str(trace_path)]) == 0
        rendered = capsys.readouterr().out
        assert "root" in rendered and "leaf" in rendered
        assert trace_report.main([str(trace_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["span_count"] == 2


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_untraced_campaign_report_has_empty_telemetry(self):
        report = CampaignRunner().run(["vsm/default"])
        assert report.telemetry == {}

    def test_traced_campaign_report_carries_trace_and_registry(self, tmp_path):
        telemetry.enable(trace_path=tmp_path / "trace.jsonl")
        runner = CampaignRunner(store_path=tmp_path / "store")
        report = runner.run(["vsm/default"])
        telemetry.disable()
        section = report.telemetry
        trace = section["trace"]
        assert trace["span_count"] > 0
        assert "vsm/default" in trace["phases"]
        names = {row["name"] for row in trace["top_spans"]}
        assert "scenario.execute" in names or "campaign.run" in names
        assert "span.campaign.run.seconds" in section["registry"]["histograms"]
        # The pool and store counts live in their own report sections.
        assert "pool.acquisitions" not in section["registry"]["gauges"]
        assert report.pool["acquisitions"] == 1
        assert report.store["results"]["misses"] == 1
        events = trace_report.load_events(tmp_path / "trace.jsonl")
        assert any(event["name"] == "campaign.run" for event in events)
        assert any(event["name"] == "store.write" for event in events)

    def test_report_schema_version_and_generated_at(self):
        report = CampaignReport(outcomes=[])
        payload = report.to_dict(generated_at="2026-08-08T00:00:00Z")
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["generated_at"] == "2026-08-08T00:00:00Z"
        assert payload["telemetry"] == {}
        assert report.to_dict()["generated_at"] is None

    def test_outcome_verdict_never_contains_telemetry(self):
        outcome = ScenarioOutcome(
            scenario="s", kind="k", design="d", passed=True
        )
        assert "telemetry" not in outcome.verdict()

    def test_store_statistics_normalized_rates(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.load_result("00" * 32)[0] is None
        store.save_result("00" * 32, {"verdict": {}})
        assert store.load_result("00" * 32)[0] is not None
        stats = store.statistics()
        for family in ("results", "snapshots"):
            assert "hit_rate" in stats[family]
            assert "survival_rate" in stats[family]
        assert stats["results"]["hit_rate"] == pytest.approx(0.5)
        assert stats["results"]["survival_rate"] == 1.0
        assert stats["snapshots"]["survival_rate"] == 1.0

    def test_store_reads_and_writes_traced(self, tmp_path):
        tracer = telemetry.enable()
        store = ResultStore(tmp_path / "store")
        store.load_result("11" * 32)
        store.save_result("11" * 32, {"verdict": {}})
        store.load_result("11" * 32)
        events = [(e["name"], (e.get("attrs") or {}).get("status")) for e in tracer.events]
        assert ("store.read", "miss") in events
        assert ("store.write", None) in events
        assert ("store.read", "hit") in events

    def test_traced_parallel_campaign_merges_worker_events(self, tmp_path):
        telemetry.enable()
        runner = CampaignRunner(store_path=tmp_path / "store")
        report = runner.run(
            ["vsm/default", "vsm/event/slot0"], parallel=True, max_workers=2
        )
        tracer = telemetry.disable()
        workers = {event["worker"] for event in tracer.events}
        assert "main" in workers
        assert any(worker.startswith("w") for worker in workers - {"main"})
        assert any(
            event["name"] == "worker.drain" for event in tracer.events
        )
        registries = report.telemetry["workers"]["registries"]
        assert registries  # one snapshot per traced worker
        for snapshot in registries.values():
            assert "counters" in snapshot

    def test_clean_campaign_raises_no_anomaly_flags(self):
        telemetry.enable()
        report = CampaignRunner().run(
            ["vsm/default", "vsm/bug/no_bypass", "vsm/event/slot0"]
        )
        telemetry.disable()
        assert report.telemetry["trace"]["anomalies"] == []

    def test_plain_refutation_has_no_fallback(self):
        tracer = telemetry.enable()
        outcome = execute_scenario(Scenario(name="bug", bug="and_becomes_or"))
        telemetry.disable()
        assert outcome.backend == "relational"
        backends = {
            (event.get("attrs") or {}).get("backend")
            for event in tracer.events
            if event["name"].startswith("beta.")
        }
        assert "compose" not in backends
        assert not any(event["name"] == "beta.fallback" for event in tracer.events)
