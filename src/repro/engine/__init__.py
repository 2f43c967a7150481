"""The verification campaign engine.

One orchestrator for every verification workload of the reproduction:

* :mod:`repro.engine.scenario` — declarative :class:`Scenario`
  descriptions, the :class:`ScenarioRegistry` and the standard
  catalogue (headline runs, bug sweeps, variable-k, interrupts).
* :mod:`repro.engine.pool` — per-variable-order
  :class:`~repro.bdd.BDDManager` pooling.
* :mod:`repro.engine.executor` — the single execution path behind
  :func:`repro.core.verifier.verify_beta_relation` and friends.
* :mod:`repro.engine.runner` — :class:`CampaignRunner`: serial
  campaigns over a shared pool, memoised re-runs, and a parallel mode
  with per-worker manager isolation and byte-identical verdicts.
* :mod:`repro.engine.report` — :class:`ScenarioOutcome` /
  :class:`CampaignReport`, JSON-serialisable with a deterministic
  verdict view.
* :mod:`repro.engine.codehash` — per-component content hashes of the
  code a verdict depends on; the store records them per record so a
  source edit invalidates only the records whose own components
  changed.

The engine is supervised by :mod:`repro.resilience`: a
:class:`~repro.resilience.SupervisionPolicy` configures bounded
scenario retries and worker respawn, a
:class:`~repro.resilience.CampaignJournal` checkpoint makes campaigns
resumable, and :mod:`repro.resilience.faults` injects deterministic
failures into the engine's seams for testing — re-exported here for
convenience.
"""

from ..resilience import CampaignJournal, FaultPlan, FaultSpec, SupervisionPolicy
from . import codehash
from .executor import execute_scenario, run_beta, run_events, run_superscalar
from .pool import ManagerPool
from .report import CampaignReport, ScenarioOutcome
from .runner import CampaignRunner, run_campaign
from .store import CODE_SALT, ResultStore, content_fingerprint
from .scenario import (
    ALPHA0,
    BETA,
    EVENTS,
    SUPERSCALAR,
    VSM,
    VSM_BUG_WORKLOADS,
    Alpha0Spec,
    Scenario,
    ScenarioRegistry,
    campaign_fingerprint,
    alpha0_bug_scenarios,
    alpha0_memory_scenario,
    alpha0_operate_scenario,
    default_registry,
    event_scenarios,
    mixed_campaign,
    superscalar_scenario,
    variable_k_scenarios,
    vsm_bug_scenarios,
    vsm_verification_scenario,
)

__all__ = [
    "ALPHA0",
    "Alpha0Spec",
    "BETA",
    "CODE_SALT",
    "CampaignJournal",
    "CampaignReport",
    "CampaignRunner",
    "EVENTS",
    "FaultPlan",
    "FaultSpec",
    "ManagerPool",
    "ResultStore",
    "SupervisionPolicy",
    "SUPERSCALAR",
    "Scenario",
    "ScenarioOutcome",
    "ScenarioRegistry",
    "VSM",
    "codehash",
    "content_fingerprint",
    "VSM_BUG_WORKLOADS",
    "alpha0_bug_scenarios",
    "alpha0_memory_scenario",
    "alpha0_operate_scenario",
    "campaign_fingerprint",
    "default_registry",
    "event_scenarios",
    "execute_scenario",
    "mixed_campaign",
    "run_beta",
    "run_campaign",
    "run_events",
    "run_superscalar",
    "superscalar_scenario",
    "variable_k_scenarios",
    "vsm_bug_scenarios",
    "vsm_verification_scenario",
]
