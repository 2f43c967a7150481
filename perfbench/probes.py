"""Per-layer probes of a traced rep: timing wrappers and trace attribution.

Two sources, as the program offers them:

* :class:`Probes` -- wrappers the benchmark places, for traced reps
  only, around the program's public calls: ``MachineStepper.extract``
  and ``.advance``, ``BDDManager.restore`` and ``.snapshot``,
  ``ResultStore.load_*`` and ``.save_*``, and the bug hunt's
  ``generate_scenarios`` and ``minimize_witness``.  They count calls and
  time them with the benchmark's own clock, so a renamed or misplaced
  span inside the program cannot skew them (``BDDManager.restore`` is
  timed itself; the program books part of it under
  ``snapshot.validate``).  The accumulators live in shared memory, so
  the workers the parallel campaign forks add to them too; under a
  start method other than ``fork`` only the parent's calls count.
* :func:`attribute` -- the program's own :mod:`repro.telemetry` spans,
  for what has no public seam: the relational-to-compose fallback, the
  interrupt driver's ``events.*`` phases and the merged ``worker.drain``
  spans of the parallel scheduler.

Counts that the program keeps itself (pool acquisitions, arena and
cache counters, store lookups, writes and bytes) come from its
``statistics()`` records, summed over the parent and every worker.
"""

from __future__ import annotations

import base64
import binascii
import functools
import multiprocessing
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

#: The wrapped calls, by probe name.
PROBED = (
    "extract",
    "advance",
    "restore",
    "snapshot",
    "load_result",
    "load_snapshot",
    "save_result",
    "save_snapshot",
    "generate",
    "minimize",
)

#: Spans that only hold other work: their self time is dispatch and
#: waiting, attributed to no layer.
CONTAINERS = frozenset({"campaign.run", "campaign.batched", "fuzz.campaign", "worker.drain"})
BETA_PHASES = frozenset({"beta.spec", "beta.impl", "beta.compare"})
EVENT_PHASES = frozenset({"events.spec", "events.impl", "events.compare"})
#: Span name -> layer of the traced split.  A span's self time goes to
#: the layer of its nearest ancestor-or-self named here; the compose
#: phases of a fallback go to ``fallback``; the rest is ``other``.
LAYER_OF_SPAN = {
    "beta.extract_role": "extract",
    "beta.advance": "advance",
    "snapshot.restore": "restore",
    "snapshot.pack": "pack",
    "store.read": "store",
    "store.write": "store",
    "events.spec": "events",
    "events.impl": "events",
    "events.compare": "events",
    "fuzz.minimize": "minimize",
}
SPLIT = ("extract", "advance", "restore", "pack", "fallback", "events", "store", "minimize", "other")


def payload_nodes(payload: object) -> int:
    """Node count of an arena snapshot payload (packed or plain lists)."""
    levels = payload.get("levels", ()) if isinstance(payload, dict) else ()
    if isinstance(levels, str):
        try:
            return len(base64.b64decode(levels)) // 4
        except (binascii.Error, ValueError):
            return 0
    return len(levels)


class Probes:
    """Shared-memory call counts and seconds behind the wrappers."""

    def __init__(self) -> None:
        names = [f"{probe}.{kind}" for probe in PROBED for kind in ("calls", "seconds")]
        names.append("restore.nodes")
        self._index = {name: index for index, name in enumerate(names)}
        self._values = multiprocessing.Array("d", len(names))

    def add(self, probe: str, seconds: float, nodes: int = 0) -> None:
        with self._values.get_lock():
            self._values[self._index[f"{probe}.calls"]] += 1
            self._values[self._index[f"{probe}.seconds"]] += seconds
            self._values[self._index["restore.nodes"]] += nodes

    def values(self) -> Dict[str, float]:
        with self._values.get_lock():
            return {name: self._values[index] for name, index in self._index.items()}

    def _timed(self, probe: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(probe, time.perf_counter() - started)

        return wrapper

    def _timed_restore(self, func):
        @functools.wraps(func)
        def restore(manager, payload, *args, **kwargs):
            started = time.perf_counter()
            try:
                return func(manager, payload, *args, **kwargs)
            finally:
                self.add("restore", time.perf_counter() - started, payload_nodes(payload))

        return restore

    @contextmanager
    def installed(self) -> Iterator["Probes"]:
        """Wrap the probed calls for the duration of the block."""
        from repro.bdd import BDDManager
        from repro.campaigns import campaign
        from repro.engine import ResultStore
        from repro.relational.beta import MachineStepper

        extract = vars(MachineStepper)["extract"].__func__
        replacements = [
            (MachineStepper, "extract", classmethod(self._timed("extract", extract))),
            (MachineStepper, "advance", self._timed("advance", MachineStepper.advance)),
            (BDDManager, "restore", self._timed_restore(BDDManager.restore)),
            (BDDManager, "snapshot", self._timed("snapshot", BDDManager.snapshot)),
            (campaign, "generate_scenarios", self._timed("generate", campaign.generate_scenarios)),
            (campaign, "minimize_witness", self._timed("minimize", campaign.minimize_witness)),
        ]
        for name in ("load_result", "load_snapshot", "save_result", "save_snapshot"):
            replacements.append((ResultStore, name, self._timed(name, getattr(ResultStore, name))))
        originals = [(owner, name, vars(owner)[name]) for owner, name, _ in replacements]
        try:
            for owner, name, replacement in replacements:
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)


def _key(span: Dict[str, object]) -> Tuple[object, object]:
    return (span["process"], span.get("id"))


def _parent_key(span: Dict[str, object]) -> Tuple[object, object]:
    return (span["process"], span.get("parent"))


def _spans(events: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """The span events, each tagged with the process that recorded it.

    Every parallel campaign forks workers tagged ``w0``, ``w1``, ... anew,
    so a tag and a span id identify a span only within one campaign.  A
    campaign's worker events are merged just before its parallel
    ``campaign.run`` span closes, which numbers the campaigns.
    """
    spans = []
    campaigns = 0
    for event in events:
        if event.get("type") != "span":
            continue
        worker = event.get("worker", "main")
        process = "main" if worker == "main" else f"{worker}/{campaigns}"
        spans.append(dict(event, process=process))
        if worker == "main" and event.get("name") == "campaign.run" and (event.get("attrs") or {}).get("parallel"):
            campaigns += 1
    return spans


def attribute(events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """What the spans of one traced rep say about the fallback, events and workers.

    Worker spans are merged into the parent's trace but parented only
    within their own worker, so the parent's parallel ``campaign.run``
    span covers the whole parallel wall as self time; busy time is read
    from the workers' ``worker.drain`` spans instead.
    """
    spans = _spans(events)
    by_key = {_key(span): span for span in spans}
    children: Dict[Tuple[object, object], List[Dict[str, object]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None and _parent_key(span) in by_key:
            children[_parent_key(span)].append(span)

    def descendants(span: Dict[str, object]) -> Iterator[Dict[str, object]]:
        stack = list(children[_key(span)])
        while stack:
            current = stack.pop()
            yield current
            stack.extend(children[_key(current)])

    # A fallback scenario ran relational beta phases, refuted, and re-ran
    # the compose ones: its compose phases are the fallback's cost.
    fallback_keys = set()
    fallback_count = 0
    fallback_s = 0.0
    for span in spans:
        if span.get("name") != "scenario.execute":
            continue
        compose, relational = [], False
        for inner in descendants(span):
            if inner.get("name") in BETA_PHASES:
                backend = (inner.get("attrs") or {}).get("backend")
                if backend == "compose":
                    compose.append(inner)
                elif backend == "relational":
                    relational = True
        if compose and relational:
            fallback_count += 1
            fallback_s += sum(float(inner.get("seconds", 0.0)) for inner in compose)
            fallback_keys.update(_key(inner) for inner in compose)

    layers: Dict[Tuple[object, object], object] = {}

    def layer_of(span: Dict[str, object]):
        key = _key(span)
        if key not in layers:
            if key in fallback_keys:
                layers[key] = "fallback"
            elif span.get("name") in LAYER_OF_SPAN:
                layers[key] = LAYER_OF_SPAN[span["name"]]
            else:
                parent = by_key.get(_parent_key(span)) if span.get("parent") is not None else None
                layers[key] = layer_of(parent) if parent is not None else None
        return layers[key]

    split = dict.fromkeys(SPLIT, 0.0)
    drains: Dict[str, float] = defaultdict(float)
    parallel_wall = 0.0
    events_s = 0.0
    for span in spans:
        name = span.get("name")
        seconds = float(span.get("seconds", 0.0))
        own = seconds - sum(float(child.get("seconds", 0.0)) for child in children[_key(span)])
        layer = layer_of(span)
        if layer is None and name not in CONTAINERS:
            layer = "other"
        if layer is not None:
            split[layer] += max(0.0, own)
        if name == "worker.drain":
            drains[str(span.get("worker"))] += seconds  # summed over campaigns
        elif name == "campaign.run" and (span.get("attrs") or {}).get("parallel"):
            parallel_wall += seconds
        elif name in EVENT_PHASES:
            events_s += seconds
    return {
        "fallback_count": fallback_count,
        "fallback_s": fallback_s,
        "events_s": events_s,
        "drains": dict(drains),
        "parallel_wall": parallel_wall,
        "split": split,
    }


def _total(records: Sequence[Dict[str, object]], *path: str) -> float:
    """Sum of the number at ``path`` over ``records`` (missing counts 0)."""
    total = 0.0
    for record in records:
        value: object = record
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if isinstance(value, (int, float)):
            total += value
    return total


def layer_metrics(
    workload, rep, values: Dict[str, float], events
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of one traced rep, plus its traced split (seconds)."""
    report = rep.report
    outcomes = report.outcomes
    parallel = report.mode == "parallel"
    trace = attribute(events)
    pools = [rep.parent_pool]
    stores = [rep.parent_store]
    if parallel:
        pools += [worker.get("pool") or {} for worker in report.pool.get("per_worker", [])]
        stores.append(report.store or {})
    metrics: Dict[str, float] = {}

    metrics["relational.extract_s"] = values["extract.seconds"]
    metrics["relational.extract_calls"] = values["extract.calls"]
    metrics["relational.advance_s"] = values["advance.seconds"]
    metrics["relational.advance_calls"] = values["advance.calls"]
    metrics["bdd.restore_s"] = values["restore.seconds"]
    metrics["bdd.restore_calls"] = values["restore.calls"]
    metrics["bdd.restore_nodes"] = values["restore.nodes"]
    metrics["bdd.restore_us_per_node"] = (
        values["restore.seconds"] * 1e6 / values["restore.nodes"] if values["restore.nodes"] else 0.0
    )
    metrics["bdd.snapshot_s"] = values["snapshot.seconds"]
    # The report's snapshot record times a relation's whole publish:
    # arena snapshot, packing and the store write.
    metrics["relational.pack_s"] = sum(
        float(record.get("seconds", 0.0))
        for outcome in outcomes
        for record in (outcome.snapshot or {}).values()
        if isinstance(record, dict) and record.get("status") == "saved"
    )

    metrics["bdd.nodes_allocated"] = _total(pools, "arena", "allocated_total")
    metrics["bdd.peak_live"] = _total(pools, "arena", "peak_live")
    metrics["bdd.gc_runs"] = _total(pools, "arena", "gc_runs")
    hits, misses = _total(pools, "cache", "hits"), _total(pools, "cache", "misses")
    metrics["bdd.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0

    metrics["executor.fallback_count"] = trace["fallback_count"]
    metrics["executor.fallback_s"] = trace["fallback_s"]
    metrics["executor.refutations"] = sum(
        not outcome.passed and outcome.error is None for outcome in outcomes
    )
    metrics["executor.events_s"] = trace["events_s"]

    for family, load, save in (
        ("results", "load_result", "save_result"),
        ("snapshots", "load_snapshot", "save_snapshot"),
    ):
        lookups = sum(
            _total(stores, family, key)
            for key in ("hits", "misses", "stale", "invalidated", "corrupt")
        )
        metrics[f"store.{family}.read_calls"] = lookups
        metrics[f"store.{family}.read_s"] = values[f"{load}.seconds"]
        metrics[f"store.{family}.bytes_read"] = _total(stores, family, "bytes_read")
        metrics[f"store.{family}.hit_rate"] = (
            _total(stores, family, "hits") / lookups if lookups else 0.0
        )
        metrics[f"store.{family}.write_calls"] = _total(stores, family, "writes")
        metrics[f"store.{family}.write_s"] = values[f"{save}.seconds"]
        metrics[f"store.{family}.bytes_written"] = _total(stores, family, "bytes_written")

    acquisitions = _total(pools, "acquisitions")
    metrics["pool.acquisitions"] = acquisitions
    metrics["pool.reuse_rate"] = _total(pools, "reuses") / acquisitions if acquisitions else 0.0

    busy = trace["drains"]
    for worker in ("w0", "w1"):
        metrics[f"runner.worker_busy_s.{worker}"] = busy.get(worker, 0.0)
    slowest = max(busy.values(), default=0.0)
    mean = statistics.fmean(busy.values()) if busy else 0.0
    metrics["runner.parent_wait_s"] = max(0.0, trace["parallel_wall"] - slowest)
    metrics["runner.imbalance"] = slowest / mean if mean else 1.0
    metrics["runner.units"] = report.pool.get("units", 0) if parallel else 0
    metrics["runner.memo_hits"] = report.memo_hits
    metrics["runner.errors"] = sum(outcome.error is not None for outcome in outcomes)
    metrics["runner.retries"] = (report.resilience or {}).get("retries", 0)

    minimization = rep.fuzz.minimization if rep.fuzz is not None else {}
    attempts = minimization.get("attempts", 0)
    metrics["campaigns.minimize_s"] = values["minimize.seconds"]
    metrics["campaigns.minimize_runs"] = minimization.get("runs", 0)
    metrics["campaigns.minimize_attempts"] = attempts
    metrics["campaigns.minimize_accept_ratio"] = (
        minimization.get("accepted", 0) / attempts if attempts else 0.0
    )
    metrics["campaigns.generate_s"] = (
        values["generate.seconds"] if rep.fuzz is not None else workload.generate_s
    )

    # Busy wall: the rep's wall with the parent's parallel wait replaced
    # by the workers' busy time.
    busy_wall = rep.wall_s - trace["parallel_wall"] + sum(busy.values())
    metrics["trace.coverage"] = sum(trace["split"].values()) / busy_wall if busy_wall > 0 else 0.0
    return metrics, trace["split"]
