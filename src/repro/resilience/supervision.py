"""Supervision policy: bounded retries, seeded backoff, worker respawn.

One :class:`SupervisionPolicy` configures every resilience decision the
campaign runner makes:

* **Scenario retries** — a scenario that fails with a *transient* error
  (an injected fault, an ``OSError`` from storage, a timeout) is re-run
  up to ``max_attempts`` times with exponential backoff before its
  failure outcome stands.  Deterministic verification failures (a real
  counterexample, a model bug) are not errors at all — they are
  verdicts — and deterministic *crashes* re-raise the same exception on
  every attempt, so retrying them costs bounded time and changes
  nothing: the surviving outcome is byte-identical either way.
* **Backoff** — ``backoff_seconds(key, attempt)`` is exponential with
  *seeded* jitter: a pure function of ``(seed, key, attempt)``, so two
  runs of the same campaign sleep identically (no live RNG enters the
  engine; determinism is the house rule even for failure paths).
* **Worker supervision** — the affinity scheduler respawns dead
  workers (``max_respawns`` per campaign) and re-dispatches their
  in-flight work units (``max_redispatches`` per unit); with
  ``soft_timeout`` set, a worker that stops reporting progress for that
  long is presumed hung, terminated, and treated as dead.

The policy is plain data (picklable) so parallel workers apply the
same retry rules as the serial path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

from .faults import InjectedFault

__all__ = ["SupervisionPolicy", "transient"]


def transient(error: BaseException) -> bool:
    """Whether ``error`` is worth retrying.

    Injected faults are transient by construction (their plans are
    budgeted); ``OSError`` covers real storage hiccups (the seam the
    ``io`` fault kind models); ``TimeoutError`` covers supervised
    timeouts.  ``KeyboardInterrupt``/``SystemExit`` are never retried —
    they propagate (campaign isolation must not swallow a user
    interrupt), so an interrupted campaign stops at once and a rerun
    against the same store resumes it from the verdicts it recorded.
    """
    if isinstance(error, (KeyboardInterrupt, SystemExit)):
        return False
    return isinstance(error, (InjectedFault, OSError, TimeoutError))


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry/backoff/respawn configuration of one campaign run."""

    #: Total attempts per scenario (1 = no retries).
    max_attempts: int = 3
    #: First backoff sleep; attempt ``n`` waits ``base * factor**(n-1)``.
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff sleep.
    backoff_max: float = 1.0
    #: Jitter fraction: the seeded hash scales the sleep within
    #: ``[1 - jitter, 1]`` (decorrelates retry convoys without an RNG).
    jitter: float = 0.5
    #: Seed of the backoff jitter (pure function, see module docstring).
    seed: int = 0
    #: Store-write publish attempts (verdicts never depend on a write
    #: succeeding, so exhausting these degrades to an unpublished record).
    max_write_attempts: int = 3
    #: Parallel mode: dead/hung workers respawned per campaign.
    max_respawns: int = 3
    #: Parallel mode: times one work unit may be re-dispatched before
    #: its remaining scenarios are failed outright.
    max_redispatches: int = 2
    #: Parallel mode: seconds without progress before a live worker is
    #: presumed hung and terminated (``None`` disables the watchdog).
    soft_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_write_attempts < 1:
            raise ValueError("max_write_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff times must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")
        if self.max_respawns < 0 or self.max_redispatches < 0:
            raise ValueError("respawn/redispatch caps must be >= 0")
        if self.soft_timeout is not None and self.soft_timeout <= 0:
            raise ValueError("soft_timeout must be positive (or None)")

    def retryable(self, error: BaseException) -> bool:
        """Whether the policy retries ``error`` (see :func:`transient`)."""
        return self.max_attempts > 1 and transient(error)

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based) of the work item ``key``.

        Exponential in ``attempt`` with seeded jitter — a pure function
        of ``(seed, key, attempt)``, identical in every process.
        """
        if attempt < 1:
            return 0.0
        raw = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        raw = min(raw, self.backoff_max)
        if self.jitter <= 0.0:
            return raw
        blob = f"{self.seed}:{key}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(blob).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return raw * (1.0 - self.jitter * fraction)

    def with_seed(self, seed: int) -> "SupervisionPolicy":
        """A copy of the policy jittered under a different seed."""
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "jitter": self.jitter,
            "seed": self.seed,
            "max_write_attempts": self.max_write_attempts,
            "max_respawns": self.max_respawns,
            "max_redispatches": self.max_redispatches,
            "soft_timeout": self.soft_timeout,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SupervisionPolicy":
        return cls(**payload)
