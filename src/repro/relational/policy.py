"""Declarative knobs for the relational subsystem.

A :class:`RelationalPolicy` is hashable pure data, so it can live on a
:class:`~repro.engine.scenario.Scenario`, take part in memoisation keys
and cross process boundaries.  It bundles the three families of knobs
the subsystem exposes:

* **partitioning** — whether image computation runs over a conjunctively
  partitioned transition relation with early quantification (the fast
  path) or over the monolithic conjunction (the classical
  build-then-smooth baseline), plus the greedy clustering bounds;
* **reordering** — whether, and how aggressively, the BDD manager's
  variable order is re-sifted during a verification run;
* **beta backend** — whether BETA scenarios run on the relational
  formulation or on the classical compose path.

Beta-relation extraction and the relational advance take no policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Valid reordering modes.
REORDER_NONE = "none"
REORDER_SIFT = "sift"
REORDER_CONVERGE = "converge"
REORDER_MODES = (REORDER_NONE, REORDER_SIFT, REORDER_CONVERGE)

#: Beta-relation verification backends (see :mod:`repro.relational.beta`).
#: ``relational`` drives both machines through per-bit transition
#: relations extracted via the state-injection protocol; ``compose`` is
#: the classical functional-simulation path, kept as the differential
#: reference.
BETA_RELATIONAL = "relational"
BETA_COMPOSE = "compose"
BETA_BACKENDS = (BETA_RELATIONAL, BETA_COMPOSE)


@dataclass(frozen=True)
class RelationalPolicy:
    """Partitioning and reordering policy for one verification job."""

    #: Use the conjunctively partitioned path (false = monolithic baseline).
    partition: bool = True
    #: Greedy clustering: maximum conjuncts merged into one cluster.
    max_cluster_size: int = 8
    #: Greedy clustering: a cluster stops growing once its BDD has this
    #: many nodes (``None`` = unbounded).
    cluster_node_limit: Optional[int] = 5000
    #: Dynamic reordering mode: ``none``, ``sift`` (one pass) or
    #: ``converge`` (repeat passes until the size stops improving).
    reorder: str = REORDER_NONE
    #: Reordering only triggers once the manager holds at least this many
    #: live unique-table nodes (keeps small runs swap-free).
    reorder_threshold: int = 10000
    #: Which backend executes BETA scenarios: the relational formulation
    #: (default) or the classical compose path (the differential
    #: reference).  Ignored by the events and superscalar drivers.
    beta_backend: str = BETA_RELATIONAL

    def __post_init__(self) -> None:
        if self.max_cluster_size < 1:
            raise ValueError("max_cluster_size must be at least 1")
        if self.cluster_node_limit is not None and self.cluster_node_limit < 1:
            raise ValueError("cluster_node_limit must be positive or None")
        if self.reorder not in REORDER_MODES:
            raise ValueError(
                f"unknown reorder mode {self.reorder!r}; valid: {REORDER_MODES}"
            )
        if self.reorder_threshold < 0:
            raise ValueError("reorder_threshold must be non-negative")
        if self.beta_backend not in BETA_BACKENDS:
            raise ValueError(
                f"unknown beta backend {self.beta_backend!r}; valid: {BETA_BACKENDS}"
            )

    @property
    def reorders(self) -> bool:
        """Whether this policy may change the variable order at run time."""
        return self.reorder != REORDER_NONE

    def pool_signature(self) -> Tuple:
        """The part of the policy that affects BDD-manager pooling.

        Scenarios that may reorder their manager must not share it with
        scenarios expecting the declared order, so the reorder mode joins
        the :meth:`~repro.engine.scenario.Scenario.order_signature`;
        partitioning never changes the variable order, so its knobs are
        deliberately absent.
        """
        return ("reorder", self.reorder) if self.reorders else ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "partition": self.partition,
            "max_cluster_size": self.max_cluster_size,
            "cluster_node_limit": self.cluster_node_limit,
            "reorder": self.reorder,
            "reorder_threshold": self.reorder_threshold,
            "beta_backend": self.beta_backend,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RelationalPolicy":
        return cls(
            partition=payload.get("partition", True),
            max_cluster_size=payload.get("max_cluster_size", 8),
            cluster_node_limit=payload.get("cluster_node_limit", 5000),
            reorder=payload.get("reorder", REORDER_NONE),
            reorder_threshold=payload.get("reorder_threshold", 10000),
            beta_backend=payload.get("beta_backend", BETA_RELATIONAL),
        )


#: The classical baseline: one monolithic conjunction, smoothed at the end.
MONOLITHIC_POLICY = RelationalPolicy(partition=False)
#: The default fast path.
PARTITIONED_POLICY = RelationalPolicy()
#: The classical functional-simulation beta path (differential reference).
COMPOSE_BETA_POLICY = RelationalPolicy(beta_backend=BETA_COMPOSE)


def effective_beta_backend(policy: Optional["RelationalPolicy"]) -> str:
    """The beta backend a (possibly absent) policy selects.

    ``None`` — no policy on the scenario — selects the default relational
    backend, so plain :func:`repro.core.verify_beta_relation` calls and
    policy-free campaign scenarios take the fast path.
    """
    return policy.beta_backend if policy is not None else BETA_RELATIONAL

