"""The relational beta backend (paper Figure 8).

:mod:`repro.relational.beta` holds the whole subsystem:
:class:`MachineStepper` extracts each machine's per-bit relation once,
through the state-injection protocol, and advances it by cofactoring
and composing in one shared-memo walk per machine per cycle.  It also
names the two beta backends (:data:`BETA_BACKENDS`): the relational
formulation, which is the default, and the classical compose path,
kept as the differential reference.  A campaign
:class:`~repro.engine.scenario.Scenario` carries its choice as
``beta_backend``.

The product-machine image computation of the Section 3.4 baseline is
:mod:`repro.fsm.transition`'s monolithic relation.
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

__all__ = [
    "BETA_BACKENDS",
    "BETA_COMPOSE",
    "BETA_RELATIONAL",
    "MachineStepper",
    "beta_stimulus_order",
    "cached_extract_steppers",
    "extract_steppers",
    "extraction_cache_statistics",
    "supports_state_injection",
]
