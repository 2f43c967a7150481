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
  and advances it by cofactoring and composing in one shared-memo walk
  per machine per cycle.  It also names the two beta backends
  (:data:`BETA_BACKENDS`): the relational formulation, which is the
  default, and the classical compose path, kept as the differential
  reference.  A campaign :class:`~repro.engine.scenario.Scenario`
  carries its choice as ``beta_backend``.
"""

from .beta import (
    BETA_BACKENDS,
    BETA_COMPOSE,
    BETA_RELATIONAL,
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
from .relation import NEXT_SUFFIX, TransitionRelation
from .schedule import QuantificationSchedule, ScheduleStep

__all__ = [
    "BETA_BACKENDS",
    "BETA_COMPOSE",
    "BETA_RELATIONAL",
    "Cluster",
    "ConjunctivePartition",
    "ImageComputer",
    "ImageStats",
    "MachineStepper",
    "NEXT_SUFFIX",
    "QuantificationSchedule",
    "ScheduleStep",
    "TransitionRelation",
    "beta_stimulus_order",
    "cached_extract_steppers",
    "extract_steppers",
    "extraction_cache_statistics",
    "pipelined_vsm_relation",
    "supports_state_injection",
    "unpipelined_vsm_relation",
]
