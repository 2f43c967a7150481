"""Unified telemetry: metrics registry, structured tracing, profiling.

This package is the observability substrate of the campaign engine:
the one counter arithmetic behind every layer's statistics (kernel
arena and cache counters, pool and store counters), the registry of
events no instance owns, and tracing.  It is deliberately
zero-dependency and knows nothing about BDDs or scenarios: the kernel
and the engine layers import *it*, never the reverse.

Three pieces:

* :mod:`repro.telemetry.registry` — process-local, thread-safe
  counters with a JSON-serialisable :meth:`~repro.telemetry.registry.MetricsRegistry.snapshot`,
  and the counter arithmetic every layer's statistics share
  (:func:`~repro.telemetry.registry.delta`,
  :func:`~repro.telemetry.registry.total`,
  :func:`~repro.telemetry.registry.with_rates`).
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
    LEVEL_KEYS,
    Counter,
    MetricsRegistry,
    delta,
    get_registry,
    total,
    with_rates,
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
    "LEVEL_KEYS",
    "Counter",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "config_state",
    "configure",
    "delta",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "span",
    "total",
    "with_rates",
    "write_events",
]
