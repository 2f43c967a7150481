"""Process-local metrics registry: counters, gauges, histograms.

The verification engine grew five performance-critical layers — the BDD
kernel, the relational products, the snapshot store, the affinity
sharded runner and the component invalidation — and each grew its own
ad-hoc statistics island (``arena_statistics()``, ``outcome.store``,
``extraction_cache``) with its own key spellings.
This module is the common substrate those islands are re-exposed
through: a zero-dependency, thread-safe registry of named instruments
whose :meth:`MetricsRegistry.snapshot` is one JSON-serialisable dict.

Three instrument kinds, deliberately minimal:

* :class:`Counter` — a monotonically increasing integer
  (``inc(n)``).  Use for event counts (spans entered, records read).
* :class:`Gauge` — a point-in-time number (``set(v)``).  Use for sizes
  and snapshots of other layers' counters (see
  :meth:`MetricsRegistry.absorb`).
* :class:`Histogram` — fixed bucket boundaries chosen at registration,
  per-bucket counts plus count/sum/min/max (``observe(v)``).
  Use for durations; the tracer feeds one histogram per span name.

Instrument names are dotted paths (``store.results.hits``,
``span.beta.extract.seconds``).  The canonical spellings of the stats
absorbed from the existing layers are exactly the source dict keys,
flattened with ``.`` — the registry is the single place where
``pool.arena.gc_runs`` and ``store.results.hit_rate`` live side by
side under one schema.

Thread safety: one re-entrant lock per registry guards instrument
creation and snapshots; each instrument carries its own lock for
updates, so two threads hammering different counters never contend on
the registry.  Registries are process-local by design — the parallel
campaign runner's worker *processes* each build their own and ship
snapshots back to the parent (see ``CampaignReport.telemetry``).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds (seconds).  Spans range from
#: sub-millisecond store reads to minute-scale extractions; a fixed
#: geometric-ish ladder keeps snapshots diffable across runs (bucket
#: boundaries never depend on the data).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
)


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A point-in-time numeric instrument."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: Number) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def snapshot(self) -> Number:
        return self._value


class Histogram:
    """Fixed-boundary histogram with per-bucket counts.

    ``buckets`` are the upper bounds (inclusive) of each bucket; an
    implicit ``+Inf`` bucket catches the overflow.  Boundaries are fixed
    at registration so two snapshots of the same instrument are always
    structurally comparable.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a non-empty sorted sequence")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        value = float(value)
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "buckets": [
                    [bound, count]
                    for bound, count in zip(self.buckets, self._counts)
                ]
                + [["+Inf", self._counts[-1]]],
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": self._min,
                "max": self._max,
            }


class MetricsRegistry:
    """A named collection of instruments with one snapshot schema.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call registers the instrument, later calls return the same object
    (with a kind check, so one name never silently serves two kinds).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _check_free(self, name: str, own: Mapping[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(f"instrument {name!r} already registered with another kind")

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name, self._counters)
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name, self._gauges)
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, self._histograms)
                instrument = self._histograms[name] = Histogram(name, buckets)
            return instrument

    # ------------------------------------------------------------------
    # Absorption of foreign statistics dicts
    # ------------------------------------------------------------------
    def absorb(self, prefix: str, stats: Mapping[str, object]) -> None:
        """Mirror a nested statistics dict into gauges under ``prefix``.

        This is how the existing per-layer ``statistics()`` APIs are
        unified without being rewritten: the campaign runner absorbs
        ``pool.statistics()`` as ``pool.*``, the store counters as
        ``store.*`` and so on.  Numeric leaves become gauges named by
        the flattened dotted path; non-numeric leaves (strings, notes)
        are skipped.  Nested dicts recurse; lists are skipped (per-item
        records belong in traces, not gauges).
        """
        for key, value in stats.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, Mapping):
                self.absorb(name, value)
            elif isinstance(value, bool):
                self.gauge(name).set(int(value))
            elif isinstance(value, (int, float)):
                self.gauge(name).set(value)

    # ------------------------------------------------------------------
    # Snapshot / reset
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable view of every registered instrument."""
        with self._lock:
            return {
                "counters": {
                    name: instrument.snapshot()
                    for name, instrument in sorted(self._counters.items())
                },
                "gauges": {
                    name: instrument.snapshot()
                    for name, instrument in sorted(self._gauges.items())
                },
                "histograms": {
                    name: instrument.snapshot()
                    for name, instrument in sorted(self._histograms.items())
                },
            }

    def names(self) -> List[str]:
        """Sorted names of every registered instrument (the catalog)."""
        with self._lock:
            return sorted(
                list(self._counters) + list(self._gauges) + list(self._histograms)
            )

    def clear(self) -> None:
        """Drop every instrument (tests and fresh campaign sessions)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-local default registry.  Layers that want to register
#: instruments without threading a registry handle use this one; the
#: parallel runner's workers each get their own process, hence their
#: own default registry.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _DEFAULT
