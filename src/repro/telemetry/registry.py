"""Process-local metrics registry, and the one home of counter arithmetic.

Two things live here.

**Counter arithmetic.**  Every layer keeps its counters on its own
instances — the BDD kernel (``cache_statistics()``,
``arena_statistics()``), the manager pool, each store handle — because
those counts are per instance and the kernel's sit on its hot path.
What the layers share is the arithmetic over the nested numeric dicts
their ``statistics()`` return, and that is written once, here:

* :data:`LEVEL_KEYS` names the keys that are levels (sizes, high-water
  marks); every other numeric key is a monotonic counter.
* :func:`delta` is what a campaign or a scenario did: counters are
  subtracted, levels are taken from ``after``.
* :func:`total` sums records, such as the parallel workers' closing
  records.
* :func:`with_rates` derives ``hit_rate`` (and ``survival_rate``).
  Rates are never summed or subtracted; :func:`delta` and
  :func:`total` skip them and derive them again.

**The registry.**  A zero-dependency, thread-safe registry of named
instruments whose :meth:`MetricsRegistry.snapshot` is one
JSON-serialisable dict.  It holds the events no instance owns:
supervision retries and abandoned writes, worker respawns, quarantined
records, fuzz-campaign totals and the tracer's span histograms.  Three
instrument kinds, deliberately minimal:

* :class:`Counter` — a monotonically increasing integer
  (``inc(n)``).  Use for event counts (spans entered, records read).
* :class:`Gauge` — a point-in-time number (``set(v)``).  Use for sizes.
* :class:`Histogram` — fixed bucket boundaries chosen at registration,
  per-bucket counts plus count/sum/min/max (``observe(v)``).
  Use for durations; the tracer feeds one histogram per span name.

Instrument names are dotted paths (``scenario.retries``,
``span.beta.extract.seconds``).  A campaign's supervision counts are
the :func:`delta` of the registry's counters over the run, plus the
:func:`total` of the counters each parallel worker ships back.

Thread safety: one re-entrant lock per registry guards instrument
creation and snapshots; each instrument carries its own lock for
updates, so two threads hammering different counters never contend on
the registry.  Registries are process-local by design — the parallel
campaign runner's worker *processes* each build their own and ship
their counters back to the parent (see ``CampaignReport.resilience``
and ``CampaignReport.telemetry``).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Keys of a statistics dict that hold levels (sizes, high-water marks,
#: bounds) rather than monotonic counters: a :func:`delta` takes them
#: from ``after``.
LEVEL_KEYS = frozenset(
    {
        "live",
        "capacity",
        "free",
        "peak_live",
        "total_nodes",
        "total_entries",
        "ite_entries",
        "quantify_entries",
        "limit",
        "held",
        "managers",
    }
)

#: Derived ratios: :func:`with_rates` sets them, nothing sums them.
RATE_KEYS = frozenset({"hit_rate", "survival_rate"})

#: The counters a lookup bumps exactly one of.
_LOOKUP_KEYS = ("hits", "misses", "stale", "invalidated", "corrupt")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def with_rates(record: Dict[str, object]) -> Dict[str, object]:
    """Set ``record``'s rates from its counters and return it.

    ``hit_rate`` is hits over every lookup (a hit, miss, stale,
    invalidated or corrupt read; an absent counter is 0), and 0.0
    without lookups.  Where ``invalidated`` exists,
    ``survival_rate`` is the fraction of the records subject to the
    component check (served plus invalidated) that survived the
    current code, and 1.0 when none was checked.  A record without
    ``hits`` gets no rate.
    """
    if "hits" not in record:
        return record
    hits = record["hits"]
    lookups = sum(record.get(key, 0) for key in _LOOKUP_KEYS)
    record["hit_rate"] = hits / lookups if lookups else 0.0
    if "invalidated" in record:
        checked = hits + record["invalidated"]
        record["survival_rate"] = hits / checked if checked else 1.0
    return record


def delta(
    before: Mapping[str, object], after: Mapping[str, object]
) -> Dict[str, object]:
    """What happened between two snapshots of one nested statistics dict.

    Counters are ``after - before`` (a key new in ``after`` counts from
    0), levels (:data:`LEVEL_KEYS`) are ``after``'s, nested dicts
    recurse, and non-numeric leaves (names, notes, lists) and rates are
    skipped; the rates are derived again from the deltas.
    """
    out: Dict[str, object] = {}
    for key, value in after.items():
        if isinstance(value, Mapping):
            out[key] = delta(before.get(key) or {}, value)
        elif key in RATE_KEYS or not _is_number(value):
            continue
        elif key in LEVEL_KEYS:
            out[key] = value
        else:
            out[key] = value - before.get(key, 0)
    return with_rates(out)


def total(records: Iterable[Optional[Mapping[str, object]]]) -> Dict[str, object]:
    """The key-by-key sum of nested statistics dicts (``None`` skipped).

    Non-numeric leaves and rates are skipped; the rates are derived
    again from the sums.
    """
    out: Dict[str, object] = {}
    nested: Dict[str, List[Mapping[str, object]]] = {}
    for record in records:
        for key, value in (record or {}).items():
            if isinstance(value, Mapping):
                nested.setdefault(key, []).append(value)
            elif key not in RATE_KEYS and _is_number(value):
                out[key] = out.get(key, 0) + value
    for key, values in nested.items():
        out[key] = total(values)
    return with_rates(out)

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
