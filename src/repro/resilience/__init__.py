"""Resilience layer: fault injection and supervised retry.

The campaign engine's standing invariant is *byte-identical verdicts on
every path*; this package extends "every path" to the failure paths.
Two pieces, both deterministic:

* :mod:`repro.resilience.faults` — a seeded fault-injection harness
  wrapping the engine's seams (store read/write I/O, record corruption,
  worker crash/hang, scenario exceptions).  A :class:`FaultPlan` is a
  pure function of ``(seed, site, invocation_index)``; disabled
  injection costs one module-global read (telemetry's NULL_SPAN
  pattern).
* :mod:`repro.resilience.supervision` — the :class:`SupervisionPolicy`
  behind the runner's bounded retries with seeded exponential backoff,
  store-write retry, affinity-worker respawn and the hung-worker
  watchdog.

Resuming needs no piece of its own: an interrupted campaign run again
against the same content-addressed store replays its finished verdicts
byte-identically and executes only the unfinished scenarios.

The engine imports this package; this package imports nothing from the
engine (plain data crosses the boundary), mirroring how
:mod:`repro.telemetry` stays a leaf dependency.
"""

from .faults import (
    CRASH_EXIT_CODE,
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedError,
    InjectedFault,
    InjectedIOError,
)
from .supervision import SupervisionPolicy, transient
from . import faults

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedError",
    "InjectedFault",
    "InjectedIOError",
    "SupervisionPolicy",
    "faults",
    "transient",
]
