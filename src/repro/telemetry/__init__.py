"""Unified telemetry: metrics registry, structured tracing, profiling.

This package is the observability substrate of the campaign engine —
the common schema behind what used to be per-layer statistics islands
(kernel arena counters, pool cache stats, store hit rates and
extraction-cache records).  It is deliberately zero-dependency and
knows nothing about BDDs or scenarios: the engine layers import *it*,
never the reverse.

Three pieces:

* :mod:`repro.telemetry.registry` — process-local, thread-safe
  instruments (counters, gauges, fixed-bucket histograms) with a
  JSON-serialisable :meth:`~repro.telemetry.registry.MetricsRegistry.snapshot`.
* :mod:`repro.telemetry.tracing` — nestable spans emitted as JSONL
  trace events with parent/child ids and per-span arena/cache deltas.
  Off by default; a disabled :func:`span` is one global read returning
  a shared no-op singleton, and verdicts are byte-identical with
  tracing on or off (differential-asserted).
* :mod:`repro.telemetry.report` — the profile analysis (self-time
  tree, per-scenario phase breakdown, anomaly flags) behind both the
  ``telemetry`` section of a campaign report and the CLI::

      python -m repro.telemetry.report trace.jsonl

Typical use::

    from repro import telemetry

    telemetry.enable(trace_path="trace.jsonl")
    report = run_campaign([...], store_path=".store")
    telemetry.get_tracer().flush()
    print(report.telemetry["trace"]["top_spans"])
    telemetry.disable()

The ROADMAP's campaign daemon (item 1) and distributed fabric (item 2)
stream from exactly this layer: the registry snapshot is the metrics
endpoint payload, the JSONL events are the progress stream.
"""

from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    config_state,
    configure,
    disable,
    enable,
    enabled,
    get_tracer,
    span,
    write_events,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "config_state",
    "configure",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "span",
    "write_events",
]
