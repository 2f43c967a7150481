"""The beta-relation verification entry point (paper Figure 8 and Section 5.3).

The engine verifies a pipelined implementation against its unpipelined
specification in four phases:

1. **Stimulus construction.**  For every instruction slot of the
   simulation-information file a fresh vector of symbolic instruction
   variables is created, with the bits fixed by the slot's instruction
   class held constant (the paper's "cofactor the transition relation
   with respect to the inputs" step).  Both machines receive the *same*
   variables for the same slot, and the shared symbolic initial
   architectural state seeds both register files.

2. **Specification simulation.**  The unpipelined machine executes the
   slots one after another, ``k`` cycles per instruction
   (``k**2 + r`` cycles for ``k`` slots); its observables are sampled
   after each instruction per the SH1 filtering function.

3. **Implementation simulation.**  The pipelined machine receives one
   instruction per cycle, with ``d`` fully symbolic (smoothed) delay-slot
   instructions after every control-transfer slot — the machine must
   annul these by itself — and is drained for the final ``k - 1`` cycles
   (``2k - 1 + r + c*d`` cycles in total); its observables are sampled
   per the SH2 filtering function, which skips the delay-slot cycles.

4. **Comparison.**  The sampled observable formulae are compared
   pairwise as canonical ROBDDs.  Any difference yields a mismatch
   record with a concrete counterexample: an assignment of the
   instruction variables and the initial state, decoded back into
   assembly for the report.

This module keeps the public stimulus API (:class:`StimulusPlan`,
:func:`build_stimulus`); the simulation orchestration itself lives in
:mod:`repro.engine.executor`, and :func:`verify_beta_relation` is a thin
adapter over that single engine code path — the same one that campaigns
(:class:`repro.engine.CampaignRunner`) execute and measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bdd import BDDManager
from ..logic import BitVec
from ..relational.beta import BETA_RELATIONAL
from ..strings import CONTROL
from .architectures import Architecture
from .observation import ObservationSpec
from .report import VerificationReport
from .siminfo import SimulationInfo


@dataclass
class StimulusPlan:
    """The symbolic instructions fed to both machines."""

    slot_instructions: List[BitVec] = field(default_factory=list)
    delay_instructions: Dict[int, List[BitVec]] = field(default_factory=dict)
    free_variable_count: int = 0

    def labelled_vectors(self) -> List[Tuple[str, BitVec]]:
        """``(label, vector)`` pairs: every slot, then the delay words by slot."""
        labelled = [
            (f"instr{index}", vector) for index, vector in enumerate(self.slot_instructions)
        ]
        for index, delay_list in sorted(self.delay_instructions.items()):
            labelled.extend(
                (f"delay{index}.{slot}", vector) for slot, vector in enumerate(delay_list)
            )
        return labelled


def build_stimulus(
    manager: BDDManager, architecture: Architecture, siminfo: SimulationInfo
) -> StimulusPlan:
    """Create the per-slot symbolic instruction vectors.

    Slot ``i`` gets variables ``instr{i}[bit]`` for the unconstrained
    bits and constants for the bits fixed by its instruction class.
    Control-transfer slots additionally get ``d`` fully symbolic delay
    slot instructions named ``delay{i}.{j}[bit]``.
    """
    plan = StimulusPlan()
    width = architecture.instruction_width
    for index, kind in enumerate(siminfo.slots):
        cube = architecture.instruction_class_cube(kind)
        bits = []
        for bit in range(width):
            if bit in cube:
                bits.append(manager.constant(cube[bit]))
            else:
                bits.append(manager.var(f"instr{index}[{bit}]"))
                plan.free_variable_count += 1
        plan.slot_instructions.append(BitVec.from_bits(manager, bits))
        if kind == CONTROL and architecture.delay_slots:
            delay_list = []
            for slot in range(architecture.delay_slots):
                vector = BitVec.inputs(manager, f"delay{index}.{slot}", width)
                plan.free_variable_count += width
                delay_list.append(vector)
            plan.delay_instructions[index] = delay_list
    return plan


def verify_beta_relation(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
    beta_backend: str = BETA_RELATIONAL,
) -> VerificationReport:
    """Verify the pipelined implementation against the unpipelined specification.

    This is the top-level entry point of the reproduction: the Figure-8
    algorithm generalised to variable ``k`` (delay slots) per Section 5.3.
    Thin adapter over :func:`repro.engine.executor.run_beta` — the
    campaign engine's code path — so standalone calls and campaign runs
    measure identical work.  By default the check runs on the relational
    backend (:mod:`repro.relational.beta`: per-bit beta-correspondence
    relations, cofactor-specialised products, selector-above-data
    stimulus order); ``beta_backend="compose"`` selects the classical
    compose path, kept as the differential reference.  Verdicts are
    byte-identical across backends: passing reports carry no witnesses,
    and a refuting relational run walks its witnesses in the compose
    path's variable order on its own manager.
    """
    from ..engine.executor import run_beta

    return run_beta(
        architecture,
        siminfo,
        manager=manager,
        impl_kwargs=impl_kwargs,
        observation=observation,
        beta_backend=beta_backend,
    )
