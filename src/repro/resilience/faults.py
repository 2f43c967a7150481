"""Deterministic, seeded fault injection for the campaign engine.

The engine's resilience machinery — supervised retries, worker respawn,
store quarantine, resume from the store — is failure-handling code, and
failure-handling code that is never exercised rots silently.  This
module makes failures *first-class test inputs*: a :class:`FaultPlan`
describes, as a pure function of ``(seed, site, invocation_index)``,
exactly which invocations of which engine seams fail and how, so a
campaign run under an injected fault schedule is as reproducible as a
fault-free one.  The standing invariant the differential suite pins:
under **any** plan whose per-site fire budgets are finite, the
campaign report's verdicts are byte-identical to the fault-free run —
faults cause retries and recomputes, never wrong answers.

Design rules (mirroring :mod:`repro.telemetry`):

1. **Off means free.**  Injection is disabled by default; the engine's
   seams call :func:`fire` / :func:`mangle` unconditionally, and the
   disabled path is one module-global read returning immediately — no
   plan lookup, no lock, no allocation.
2. **Deterministic.**  Whether invocation ``index`` of ``site`` fires
   is ``hash(seed, site, index)`` against the site's rate, unioned with
   an explicit ``at`` index set — the same decision in every process
   and on every platform (the hash is SHA-256, not Python's salted
   ``hash``).  Per-site budgets (``max_fires``) make every plan
   quiescent: after the budget is spent the site never fires again in
   that process, which is what lets bounded retries drain any schedule.
3. **Faults are exceptions (or process actions), never wrong data on
   the success path.**  An ``io`` fault raises
   :class:`InjectedIOError` (an ``OSError``, so the store's existing
   total read paths degrade to a miss); a ``corrupt`` fault mangles the
   bytes a reader is about to parse (exercising the corrupt-record +
   quarantine path); ``error`` raises :class:`InjectedError` into the
   scenario isolation; ``interrupt`` raises ``KeyboardInterrupt`` (the
   resume tests' mid-campaign kill); ``crash`` hard-exits the
   worker process; ``hang`` sleeps past the supervisor's soft timeout.

Site catalog (the engine seams that are wrapped):

====================  =====================================================
``store.read.results``     result-record read I/O (``io``)
``store.read.snapshots``   snapshot-record read I/O (``io``)
``store.write.results``    result-record publish (``io``)
``store.write.snapshots``  snapshot-record publish (``io``)
``store.corrupt.results``  result bytes mangled before parse (``corrupt``)
``store.corrupt.snapshots`` snapshot bytes mangled before parse (``corrupt``)
``scenario.run``           scenario execution raises (``error``/``interrupt``)
``worker.crash``           affinity worker hard-exits (``crash``);
                           invocation index = worker id
``worker.hang``            affinity worker sleeps (``hang``);
                           invocation index = worker id
``job.crash``              affinity worker hard-exits as it starts a
                           speculative job (``crash``); invocation
                           index = worker id
====================  =====================================================
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedError",
    "InjectedFault",
    "InjectedIOError",
    "active",
    "config_state",
    "configure",
    "fire",
    "get_injector",
    "mangle",
    "statistics",
]

#: Fault kinds a site can be scheduled with.
FAULT_KINDS = ("io", "corrupt", "error", "interrupt", "crash", "hang")

#: The seams the engine wraps (see module docstring).
FAULT_SITES = (
    "store.read.results",
    "store.read.snapshots",
    "store.write.results",
    "store.write.snapshots",
    "store.corrupt.results",
    "store.corrupt.snapshots",
    "scenario.run",
    "worker.crash",
    "worker.hang",
    "job.crash",
)

#: Exit code of an injected worker crash (distinguishable from real
#: failures in process-status forensics).
CRASH_EXIT_CODE = 47


class InjectedFault(Exception):
    """Marker base of every injected failure (supervision retries these)."""


class InjectedIOError(InjectedFault, OSError):
    """An injected storage I/O failure (caught wherever OSError is)."""


class InjectedError(InjectedFault):
    """An injected scenario-level exception (transient by construction)."""


@dataclass(frozen=True)
class FaultSpec:
    """Schedule of one fault site.

    ``rate`` fires probabilistically (decided by the plan's seeded hash,
    not a live RNG); ``at`` fires at explicit invocation indices; the
    two are unioned.  ``max_fires`` bounds total fires per process so
    every plan is quiescent.  ``payload`` parameterises the kind
    (``hang`` sleep seconds; ignored elsewhere).
    """

    kind: str = "io"
    rate: float = 0.0
    at: Tuple[int, ...] = ()
    max_fires: int = 1
    payload: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be a probability in [0, 1]")
        if self.max_fires < 0:
            raise ValueError("max_fires must be >= 0")
        object.__setattr__(self, "at", tuple(sorted(set(int(i) for i in self.at))))

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "at": list(self.at),
            "max_fires": self.max_fires,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        return cls(
            kind=payload.get("kind", "io"),
            rate=payload.get("rate", 0.0),
            at=tuple(payload.get("at", ())),
            max_fires=payload.get("max_fires", 1),
            payload=payload.get("payload", 0.0),
        )


def _decision_hash(seed: int, site: str, index: int) -> float:
    """A uniform [0, 1) value that is a pure function of its arguments.

    SHA-256 rather than ``random.Random``: one hash per decision keeps
    the per-invocation cost flat (no stream state), and the value is
    identical across processes, platforms and Python versions.
    """
    blob = f"{seed}:{site}:{index}".encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic per-campaign fault schedule.

    ``should_fire(site, index)`` is a pure function of
    ``(seed, site, index)`` — no injector state enters the decision
    (budgets are enforced by the :class:`FaultInjector`, which tracks
    how many decisions have actually fired in its process).
    """

    seed: int = 0
    sites: Dict[str, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for site, spec in self.sites.items():
            if site not in FAULT_SITES:
                raise ValueError(f"unknown fault site {site!r}; valid: {FAULT_SITES}")
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"site {site!r} needs a FaultSpec, got {type(spec).__name__}")

    def should_fire(self, site: str, index: int) -> bool:
        spec = self.sites.get(site)
        if spec is None:
            return False
        if index in spec.at:
            return True
        if spec.rate <= 0.0:
            return False
        return _decision_hash(self.seed, site, index) < spec.rate

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "sites": {site: spec.to_dict() for site, spec in sorted(self.sites.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        return cls(
            seed=payload.get("seed", 0),
            sites={
                site: FaultSpec.from_dict(spec)
                for site, spec in payload.get("sites", {}).items()
            },
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` against the engine's seams.

    Tracks per-site invocation indices and fire counts (thread-safe:
    the serial runner and any embedding daemon may hit the store from
    several threads).  The *decision* stays the plan's pure function;
    the injector only supplies the per-process invocation numbering and
    enforces the ``max_fires`` budget.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = Lock()
        self._invocations: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}

    def _decide(self, site: str, index: Optional[int]) -> Tuple[bool, Optional[FaultSpec]]:
        spec = self.plan.sites.get(site)
        with self._lock:
            if index is None:
                index = self._invocations.get(site, 0)
                self._invocations[site] = index + 1
            if spec is None:
                return False, None
            if self._fires.get(site, 0) >= spec.max_fires:
                return False, spec
            if not self.plan.should_fire(site, index):
                return False, spec
            self._fires[site] = self._fires.get(site, 0) + 1
        return True, spec

    def fire(self, site: str, index: Optional[int] = None) -> None:
        """Count one invocation of ``site``; act if the plan fires.

        ``index`` overrides the per-process invocation counter (the
        worker seams key decisions by worker id so a respawned
        replacement — which gets a fresh id — does not inherit its
        predecessor's crash schedule).
        """
        fired, spec = self._decide(site, index)
        if not fired:
            return
        assert spec is not None
        if spec.kind == "io":
            raise InjectedIOError(f"injected I/O fault at {site}")
        if spec.kind == "error":
            raise InjectedError(f"injected fault at {site}")
        if spec.kind == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt at {site}")
        if spec.kind == "crash":
            # A hard exit, not an exception: models a segfaulted/killed
            # worker. Nothing downstream (finally blocks, closing
            # records) runs — which is exactly the failure the parent's
            # respawn path must survive.
            os._exit(CRASH_EXIT_CODE)
        if spec.kind == "hang":
            time.sleep(spec.payload if spec.payload > 0 else 3600.0)
            return
        raise InjectedError(f"injected fault at {site} (kind {spec.kind!r})")

    def mangle(self, site: str, data: bytes, index: Optional[int] = None) -> bytes:
        """Return ``data``, corrupted when the plan fires at ``site``.

        The corruption is deterministic (truncate to half and flip the
        leading bytes) so a quarantined artefact is reproducible.
        """
        fired, _spec = self._decide(site, index)
        if not fired:
            return data
        keep = len(data) // 2
        mangled = bytearray(data[:keep] if keep else b"\x00")
        for position in range(min(4, len(mangled))):
            mangled[position] ^= 0xFF
        return bytes(mangled)

    def statistics(self) -> Dict[str, object]:
        """Per-site invocation/fire counts (measurement, not verdict)."""
        with self._lock:
            sites = {
                site: {
                    "invocations": self._invocations.get(site, 0),
                    "fires": self._fires.get(site, 0),
                }
                for site in sorted(set(self._invocations) | set(self._fires))
            }
        return {
            "seed": self.plan.seed,
            "fires": sum(record["fires"] for record in sites.values()),
            "sites": sites,
        }


# ----------------------------------------------------------------------
# Module-level switch (telemetry's NULL_SPAN pattern: off means free)
# ----------------------------------------------------------------------
#: The active injector, or ``None`` while injection is disabled.  A
#: plain module global: the disabled fast path is one load + ``is None``.
_INJECTOR: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    """The active injector (``None`` when injection is disabled)."""
    return _INJECTOR


def configure(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Install ``plan`` (fresh counters); ``None`` disables injection."""
    global _INJECTOR
    _INJECTOR = FaultInjector(plan) if plan is not None else None
    return _INJECTOR


def fire(site: str, index: Optional[int] = None) -> None:
    """Engine seam: maybe raise/act per the active plan (no-op when off)."""
    injector = _INJECTOR
    if injector is None:
        return
    injector.fire(site, index)


def mangle(site: str, data: bytes) -> bytes:
    """Engine seam: maybe corrupt ``data`` per the active plan."""
    injector = _INJECTOR
    if injector is None:
        return data
    return injector.mangle(site, data)


def statistics() -> Optional[Dict[str, object]]:
    """The active injector's per-site counts, or ``None`` when off."""
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.statistics()


@contextmanager
def active(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultInjector]]:
    """Scope a plan to a ``with`` block, restoring the previous injector."""
    global _INJECTOR
    previous = _INJECTOR
    injector = configure(plan)
    try:
        yield injector
    finally:
        _INJECTOR = previous


def config_state() -> Optional[Dict[str, object]]:
    """Picklable injection configuration for parallel workers.

    Workers rebuild the plan with fresh per-process counters — fire
    budgets are per-process, and the worker seams key their decisions
    by worker id precisely so that stays deterministic.
    """
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.plan.to_dict()


def configure_from_state(state: Optional[Dict[str, object]]) -> None:
    """Apply a :func:`config_state` dict in a worker process."""
    configure(FaultPlan.from_dict(state) if state else None)
