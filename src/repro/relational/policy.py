"""Declarative knobs for the relational subsystem.

A :class:`RelationalPolicy` is hashable pure data, so it can live on a
:class:`~repro.engine.scenario.Scenario`, take part in memoisation keys
and cross process boundaries.  It bundles the two families of knobs
the subsystem exposes:

* **partitioning** — whether image computation runs over a conjunctively
  partitioned transition relation with early quantification (the fast
  path) or over the monolithic conjunction (the classical
  build-then-smooth baseline), plus the greedy clustering bounds;
* **beta backend** — whether BETA scenarios run on the relational
  formulation or on the classical compose path.

Beta-relation extraction and the relational advance take no policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

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
    """Partitioning and beta-backend policy for one verification job."""

    #: Use the conjunctively partitioned path (false = monolithic baseline).
    partition: bool = True
    #: Greedy clustering: maximum conjuncts merged into one cluster.
    max_cluster_size: int = 8
    #: Greedy clustering: a cluster stops growing once its BDD has this
    #: many nodes (``None`` = unbounded).
    cluster_node_limit: Optional[int] = 5000
    #: Which backend executes BETA scenarios: the relational formulation
    #: (default) or the classical compose path (the differential
    #: reference).  Ignored by the events and superscalar drivers.
    beta_backend: str = BETA_RELATIONAL

    def __post_init__(self) -> None:
        if self.max_cluster_size < 1:
            raise ValueError("max_cluster_size must be at least 1")
        if self.cluster_node_limit is not None and self.cluster_node_limit < 1:
            raise ValueError("cluster_node_limit must be positive or None")
        if self.beta_backend not in BETA_BACKENDS:
            raise ValueError(
                f"unknown beta backend {self.beta_backend!r}; valid: {BETA_BACKENDS}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "partition": self.partition,
            "max_cluster_size": self.max_cluster_size,
            "cluster_node_limit": self.cluster_node_limit,
            "beta_backend": self.beta_backend,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RelationalPolicy":
        # Payloads written before the variable order became static may
        # carry retired "reorder"/"reorder_threshold" keys; like every
        # other key this reader does not know, they are dropped.
        return cls(
            partition=payload.get("partition", True),
            max_cluster_size=payload.get("max_cluster_size", 8),
            cluster_node_limit=payload.get("cluster_node_limit", 5000),
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

