"""Dynamic beta-relation verification (paper Sections 5.5 - 5.7).

The ordinary beta-relation fixes the output filtering functions before
simulation starts.  Events that are only known *during* execution —
interrupts and exceptions, dynamically scheduled completion, multiple
retirements per cycle in a superscalar machine — require the filtering
functions to be edited on the fly; the paper calls the result the
*dynamic* beta-relation.

This module provides two entry points (both thin adapters over the
campaign engine's execution path in :mod:`repro.engine.executor`, so
standalone calls and :class:`repro.engine.CampaignRunner` campaigns
measure the same code):

* :func:`verify_with_events` — symbolic verification of the
  interrupt-capable VSM (``repro.processors.interrupts``): the event
  schedule (which instruction slots coincide with an interrupt) is part
  of the workload, the instructions remain fully symbolic, and the
  output filtering function of the implementation is re-derived from the
  event schedule exactly as Section 5.5 describes (zeros are inserted
  while the trap squashes the slot behind it).

* :func:`verify_superscalar_schedule` — a dynamic-beta check of a
  dual-issue (superscalar) VSM at the concrete level
  (``repro.processors.superscalar``): the implementation reports how
  many instructions retire each cycle, the specification is sampled
  after the same cumulative instruction counts
  (:func:`repro.strings.superscalar_specification_filter`), and the
  architectural observations are compared at those dynamically
  determined points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..bdd import BDDManager
from .observation import ObservationSpec
from .report import VerificationReport
from .siminfo import SimulationInfo


def verify_with_events(
    siminfo: SimulationInfo,
    event_slots: Sequence[int],
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
    symbolic_initial_state: bool = False,
) -> VerificationReport:
    """Verify the interrupt-capable pipelined VSM with the dynamic beta-relation.

    ``event_slots`` lists the instruction-slot indices at which an
    external event (interrupt) arrives.  The affected slot behaves like
    a forced trap: the specification performs the trap atomically, the
    implementation must squash the following fetch and redirect to the
    handler, and the filtering function treats the slot like a
    control-transfer slot (its delay slot is irrelevant).
    """
    from ..engine.executor import run_events

    return run_events(
        siminfo,
        event_slots,
        manager=manager,
        impl_kwargs=impl_kwargs,
        observation=observation,
        symbolic_initial_state=symbolic_initial_state,
    )


@dataclass
class SuperscalarCheckResult:
    """Outcome of a concrete dynamic-beta check of the dual-issue VSM."""

    passed: bool
    instructions_executed: int
    implementation_cycles: int
    completions_per_cycle: Tuple[int, ...]
    specification_filter: Tuple[int, ...]
    implementation_filter: Tuple[int, ...]
    mismatches: List[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Instructions per implementation cycle (upper-bounded by the issue width)."""
        if self.implementation_cycles == 0:
            return 0.0
        return self.instructions_executed / self.implementation_cycles


def verify_superscalar_schedule(program, issue_width: int = 2) -> SuperscalarCheckResult:
    """Dynamic-beta check of the dual-issue VSM on a concrete program.

    The implementation (``repro.processors.superscalar.SuperscalarVSM``)
    retires a variable number of instructions per cycle; the
    specification is the architectural VSM executor.  The observation
    points are derived *from the execution* (the dynamic beta-relation):
    the specification is sampled after the same cumulative number of
    retired instructions as the implementation at each of its retirement
    cycles, and the architectural states must agree at every such point.
    """
    from ..engine.executor import run_superscalar

    return run_superscalar(program, issue_width=issue_width)
