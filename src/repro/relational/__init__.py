"""Partitioned transition relations, early quantification, image computation.

The relational subsystem attacks the cost centre named in ROADMAP.md:
smoothing (existential quantification) out of one monolithic
conjunction.  It is layered:

* :mod:`repro.relational.relation` — :class:`TransitionRelation`, the
  relation kept as per-bit conjuncts instead of one BDD;
* :mod:`repro.relational.partition` — :class:`ConjunctivePartition`,
  greedy bounded clustering of the conjuncts;
* :mod:`repro.relational.schedule` — :class:`QuantificationSchedule`,
  cluster ordering plus earliest-dead-point smoothing sets;
* :mod:`repro.relational.image` — :class:`ImageComputer`, the scheduled
  relational product (with the monolithic baseline kept for
  measurement);
* :mod:`repro.relational.models` — per-bit relation extraction from the
  symbolic processor models;
* :mod:`repro.relational.beta` — the relational beta backend:
  :class:`MachineStepper` extracts each machine's per-bit relation once
  (no policy involved) and advances it by cofactoring and composing in
  one shared-memo walk per machine per cycle;
* :mod:`repro.relational.policy` — :class:`RelationalPolicy`, the pure-
  data knob bundle that campaign :class:`~repro.engine.scenario.Scenario`
  objects carry.
"""

from .beta import (
    MachineStepper,
    beta_stimulus_order,
    cached_extract_steppers,
    extract_steppers,
    extraction_cache_statistics,
    supports_state_injection,
)
from .image import ImageComputer, ImageStats
from .models import pipelined_vsm_relation, unpipelined_vsm_relation
from .partition import Cluster, ConjunctivePartition
from .policy import (
    BETA_BACKENDS,
    BETA_COMPOSE,
    BETA_RELATIONAL,
    COMPOSE_BETA_POLICY,
    MONOLITHIC_POLICY,
    PARTITIONED_POLICY,
    RelationalPolicy,
    effective_beta_backend,
)
from .relation import NEXT_SUFFIX, TransitionRelation
from .schedule import QuantificationSchedule, ScheduleStep

__all__ = [
    "BETA_BACKENDS",
    "BETA_COMPOSE",
    "BETA_RELATIONAL",
    "COMPOSE_BETA_POLICY",
    "Cluster",
    "ConjunctivePartition",
    "ImageComputer",
    "ImageStats",
    "MONOLITHIC_POLICY",
    "MachineStepper",
    "NEXT_SUFFIX",
    "PARTITIONED_POLICY",
    "QuantificationSchedule",
    "RelationalPolicy",
    "ScheduleStep",
    "TransitionRelation",
    "beta_stimulus_order",
    "effective_beta_backend",
    "cached_extract_steppers",
    "extract_steppers",
    "extraction_cache_statistics",
    "pipelined_vsm_relation",
    "supports_state_injection",
    "unpipelined_vsm_relation",
]
