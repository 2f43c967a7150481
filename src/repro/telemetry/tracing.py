"""Structured tracing: nestable spans emitted as JSONL trace events.

A *span* covers one timed region of engine work — an extraction, a
simulation phase, a store read.  Spans nest: entering a span pushes it
on a per-thread stack, so every event records its parent's id and the
report layer (:mod:`repro.telemetry.report`) can rebuild the call tree
and attribute *self time* (a span's wall time minus its children's).

Design constraints, in priority order:

1. **Off means free.**  Tracing is disabled by default; a disabled
   :func:`span` call returns one shared no-op singleton — no event, no
   allocation beyond the call itself, no lock.  The engine is
   instrumented unconditionally and pays only a global read plus a
   no-op context-manager protocol when tracing is off; the differential
   suite asserts verdict byte-identity on/off.
2. **Verdicts stay untouched.**  Spans observe — they never feed back
   into any computation.  Everything recorded is measurement.
3. **Crash-safe accounting.**  ``__exit__`` records the event and pops
   the stack for *any* exit — normal, ``Exception``, and
   ``KeyboardInterrupt``/``SystemExit`` (the error type rides along on
   the event) — so an interrupted campaign still yields a parseable,
   properly parented trace.

Event schema (one JSON object per line in the trace file)::

    {"type": "span", "id": 7, "parent": 3, "worker": "main",
     "name": "beta.extract", "start": 0.1234, "seconds": 2.5,
     "attrs": {"role": "spec"}, "deltas": {"nodes_allocated": 51234,
     "cache_hits": 9000, "cache_misses": 4100, "gc_runs": 0,
     "gc_reclaimed": 0}, "error": null}

``start`` is seconds since the tracer's epoch (its enable time) —
relative, so traces are comparable within a run; cross-run diffing goes
through the campaign report, whose ``generated_at`` is caller-injected.
``deltas`` appears when the span was given a manager to watch: the
kernel's monotonic arena/cache counters are read at entry and exit and
the difference attributed to the span.  ``worker`` keys merged traces:
each parallel worker traces into its own in-memory tracer and the
parent absorbs the events, so one JSONL file carries the whole
campaign with (worker, id) as the globally unique span key.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "configure",
    "config_state",
    "disable",
    "enable",
    "enabled",
    "get_tracer",
    "span",
    "write_events",
]


class _NullSpan:
    """The shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (the enabled span records them)."""


NULL_SPAN = _NullSpan()

#: Monotonic arena/cache counters attributed to spans as deltas.
_ARENA_KEYS = ("allocated_total", "gc_runs", "gc_reclaimed")
_CACHE_KEYS = ("hits", "misses")
_DELTA_NAMES = {
    "allocated_total": "nodes_allocated",
    "gc_runs": "gc_runs",
    "gc_reclaimed": "gc_reclaimed",
    "hits": "cache_hits",
    "misses": "cache_misses",
}


class Span:
    """One live traced region (use via ``with tracer.span(...)``)."""

    __slots__ = (
        "_tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "_manager",
        "_before",
        "_start",
        "_epoch_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        manager,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._manager = manager
        self._before: Optional[Dict[str, int]] = None
        self._start = 0.0
        self._epoch_start = 0.0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)

    def _sample(self) -> Optional[Dict[str, int]]:
        manager = self._manager
        if manager is None:
            return None
        arena = manager.arena_statistics()
        cache = manager.cache_statistics()
        sample = {key: arena[key] for key in _ARENA_KEYS}
        for key in _CACHE_KEYS:
            sample[key] = cache[key]
        return sample

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id, self.parent_id = tracer._push()
        self._before = self._sample()
        now = time.perf_counter()
        self._epoch_start = now - tracer.epoch
        self._start = now
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._start
        deltas: Optional[Dict[str, int]] = None
        if self._before is not None:
            after = self._sample()
            deltas = {
                _DELTA_NAMES[key]: after[key] - self._before[key] for key in after
            }
        self._tracer._pop(
            self,
            seconds,
            deltas,
            error=exc_type.__name__ if exc_type is not None else None,
        )
        return False


class Tracer:
    """Collects span events for one process (or one parallel worker).

    Events accumulate in memory; :meth:`flush` appends the unflushed
    tail to the configured JSONL path (if any).  ``worker`` tags every
    event so merged multi-worker traces stay distinguishable.
    """

    def __init__(
        self,
        trace_path: Optional[Union[str, Path]] = None,
        worker: str = "main",
    ) -> None:
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.worker = worker
        self.epoch = time.perf_counter()
        self.events: List[Dict[str, object]] = []
        self._flushed = 0
        self._next_id = 1
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # ------------------------------------------------------------------
    # Span lifecycle (called by Span)
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _push(self):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _pop(
        self,
        span: Span,
        seconds: float,
        deltas: Optional[Dict[str, int]],
        error: Optional[str],
    ) -> None:
        stack = self._stack()
        # The span being closed is the top of this thread's stack by
        # construction (context managers unwind LIFO even under
        # exceptions); remove defensively anyway so a pathological exit
        # order can never corrupt later parenting.
        if stack and stack[-1] == span.span_id:
            stack.pop()
        elif span.span_id in stack:  # pragma: no cover - defensive
            stack.remove(span.span_id)
        event: Dict[str, object] = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "worker": self.worker,
            "name": span.name,
            "start": round(span._epoch_start, 6),
            "seconds": round(seconds, 6),
        }
        if span.attrs:
            event["attrs"] = span.attrs
        if deltas is not None:
            event["deltas"] = deltas
        if error is not None:
            event["error"] = error
        with self._lock:
            self.events.append(event)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def span(self, name: str, manager=None, attrs: Optional[Dict[str, object]] = None) -> Span:
        return Span(self, name, manager, attrs if attrs is not None else {})

    def event_count(self) -> int:
        with self._lock:
            return len(self.events)

    def events_from(self, index: int) -> List[Dict[str, object]]:
        """The events recorded at or after position ``index``."""
        with self._lock:
            return list(self.events[index:])

    def absorb(self, events: List[Dict[str, object]]) -> None:
        """Merge foreign (worker) events into this tracer's stream.

        The events keep their own ``worker`` tag and span ids — (worker,
        id) is the globally unique key — so merged traces parse into
        per-worker trees.
        """
        with self._lock:
            self.events.extend(events)

    def drain(self) -> List[Dict[str, object]]:
        """Remove and return all collected events (worker shipping)."""
        with self._lock:
            events, self.events = self.events, []
            self._flushed = 0
            return events

    def flush(self) -> int:
        """Append unflushed events to ``trace_path``; returns how many."""
        with self._lock:
            pending = self.events[self._flushed :]
            self._flushed = len(self.events)
        if not pending or self.trace_path is None:
            return 0
        write_events(self.trace_path, pending, append=True)
        return len(pending)


def write_events(
    path: Union[str, Path], events: List[Dict[str, object]], append: bool = False
) -> None:
    """Write ``events`` to ``path`` as JSONL (one compact object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Module-level switch
# ----------------------------------------------------------------------
#: The active tracer, or ``None`` while tracing is disabled.  A plain
#: module global: the disabled fast path is one load and one ``is None``.
_TRACER: Optional[Tracer] = None


def enabled() -> bool:
    """Whether tracing is currently on."""
    return _TRACER is not None


def get_tracer() -> Optional[Tracer]:
    """The active tracer (``None`` when disabled)."""
    return _TRACER


def enable(
    trace_path: Optional[Union[str, Path]] = None, worker: str = "main"
) -> Tracer:
    """Turn tracing on (idempotent: re-enabling replaces the tracer).

    ``trace_path`` is where :meth:`Tracer.flush` appends JSONL events;
    ``None`` keeps events in memory only (the campaign report still
    summarises them).
    """
    global _TRACER
    _TRACER = Tracer(trace_path=trace_path, worker=worker)
    return _TRACER


def disable() -> Optional[Tracer]:
    """Turn tracing off; flushes and returns the outgoing tracer."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is not None:
        tracer.flush()
    return tracer


def span(name: str, manager=None, **attrs):
    """A traced region, or the shared no-op singleton when disabled.

    The call is safe on every path of the engine: when tracing is off
    it returns :data:`NULL_SPAN` immediately (no event, no per-call
    state), when on it opens a real :class:`Span` under the current
    thread's innermost open span.  ``manager`` (a
    :class:`~repro.bdd.BDDManager`) opts the span into arena/cache
    delta attribution.
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, manager, attrs)


# ----------------------------------------------------------------------
# Worker propagation
# ----------------------------------------------------------------------
def config_state() -> Dict[str, object]:
    """Picklable tracing configuration for parallel workers.

    Workers never write the parent's trace file — they collect events
    in memory and ship them back in their closing record, so the state
    carries only the switch (the parent merges by worker id).
    """
    return {"enabled": _TRACER is not None}


def configure(state: Optional[Dict[str, object]], worker: str = "main") -> None:
    """Apply a :func:`config_state` dict in a worker process."""
    if state and state.get("enabled"):
        enable(trace_path=None, worker=worker)
    else:
        global _TRACER
        _TRACER = None
