"""Architecture adapters binding the symbolic processor models to the verifier.

The beta-relation verification engine (:mod:`repro.core.verifier`) is
generic; everything design-specific — which symbolic models to build,
how to seed their shared initial architectural state, which instruction
encodings belong to the "ordinary" and "control transfer" classes of the
simulation-information file, which observables to compare and how to
pretty-print counterexample instructions — is provided by an
:class:`Architecture` adapter.  Two adapters are provided, one per
experimental design of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Optional, Tuple

from ..bdd import BDDManager
from ..isa import alpha0 as alpha0_isa
from ..isa import vsm as vsm_isa
from ..logic import BitVec
from ..processors import (
    SymbolicAlpha0Options,
    SymbolicPipelinedAlpha0,
    SymbolicPipelinedVSM,
    SymbolicUnpipelinedAlpha0,
    SymbolicUnpipelinedVSM,
    symbolic_memory,
    symbolic_register_file,
)
from ..strings import CONTROL, NORMAL
from .observation import ObservationSpec, alpha0_observables, vsm_observables


class Architecture:
    """Design-specific bindings for the beta-relation verifier."""

    name: str = "architecture"
    order_k: int = 1
    delay_slots: int = 0
    instruction_width: int = 0
    #: The ISA's decode-first BDD order of instruction bits, a
    #: permutation of ``range(instruction_width)`` (see
    #: :data:`repro.isa.vsm.INSTRUCTION_BIT_ORDER`).  An architecture
    #: run on the relational beta backend must set it.
    instruction_bit_order: ClassVar[Tuple[int, ...]] = ()

    def make_models(self, manager: BDDManager, impl_kwargs: Optional[dict] = None):
        """Build the (specification, implementation) symbolic models."""
        raise NotImplementedError

    def make_initial_state(self, manager: BDDManager) -> Dict[str, object]:
        """Shared reset-state keyword arguments for both models."""
        raise NotImplementedError

    def instruction_class_cube(self, kind: str) -> Dict[int, bool]:
        """Bit constraints (bit index -> value) of an instruction class."""
        raise NotImplementedError

    def observation_spec(self) -> ObservationSpec:
        """Default observables compared at each sampled cycle."""
        raise NotImplementedError

    def disassemble(self, word: int) -> str:
        """Human-readable rendering of a counterexample instruction word."""
        raise NotImplementedError

    def scenario(self, name, siminfo, bug=None, tags=()):
        """Describe one verification job on this design as an engine Scenario.

        The declarative form is what the campaign engine pools, memoises
        and ships to workers; architecture adapters are otherwise only
        the *resolution* of a scenario (``Scenario.architecture()``).
        Delegates to :meth:`repro.engine.Scenario.from_architecture`
        (imported lazily: core does not depend on the engine at import
        time), which rejects custom adapters it cannot describe.
        """
        from ..engine.scenario import Scenario

        return Scenario.from_architecture(self, name, siminfo, bug=bug, tags=tags)


@dataclass
class VSMArchitecture(Architecture):
    """The VSM design of Section 6.2 (k = 4, one delay slot).

    ``symbolic_initial_state`` seeds the register file with fully symbolic
    values so the check covers every initial architectural state.  The
    default is the paper's setting — simulation starts from the reset
    state (a reset cycle precedes the instruction slots) — because a
    fully symbolic register file combined with several nested symbolic
    instructions pushes the ROBDDs past what is practical, the very
    capacity wall Section 6.2 works around by condensing the design.
    """

    symbolic_initial_state: bool = False

    name: str = "VSM"
    order_k: int = vsm_isa.PIPELINE_DEPTH
    delay_slots: int = vsm_isa.DELAY_SLOTS
    instruction_width: int = vsm_isa.INSTRUCTION_WIDTH
    instruction_bit_order: ClassVar[Tuple[int, ...]] = vsm_isa.INSTRUCTION_BIT_ORDER

    def make_models(self, manager: BDDManager, impl_kwargs: Optional[dict] = None):
        impl_kwargs = impl_kwargs or {}
        specification = SymbolicUnpipelinedVSM(manager)
        implementation = SymbolicPipelinedVSM(manager, **impl_kwargs)
        return specification, implementation

    def make_initial_state(self, manager: BDDManager) -> Dict[str, object]:
        if self.symbolic_initial_state:
            registers = symbolic_register_file(
                manager, vsm_isa.NUM_REGISTERS, vsm_isa.DATA_WIDTH
            )
        else:
            registers = None
        return {"initial_registers": registers} if registers is not None else {}

    def instruction_class_cube(self, kind: str) -> Dict[int, bool]:
        # Bit 12 is the opcode MSB; VSM control transfers are exactly opcode 100.
        if kind == NORMAL:
            return {12: False}
        if kind == CONTROL:
            return {12: True, 11: False, 10: False}
        raise ValueError(f"unknown instruction class {kind!r}")

    def observation_spec(self) -> ObservationSpec:
        return vsm_observables()

    def disassemble(self, word: int) -> str:
        try:
            return str(vsm_isa.decode(word))
        except vsm_isa.VSMEncodingError:
            return f"<invalid VSM word {word:#06x}>"


@dataclass
class Alpha0Architecture(Architecture):
    """The Alpha0 design of Section 6.3 (k = 5, one delay slot).

    ``options`` chooses the datapath condensation of the symbolic models
    (the paper's condensed configuration by default).  ``normal_opcode``
    selects the instruction class simulated in the ``0`` slots of the
    simulation-information file — the paper cofactors the transition
    relation to one class per run, so different opcode classes (operate,
    memory) are covered by separate runs.
    """

    options: SymbolicAlpha0Options = field(
        default_factory=lambda: SymbolicAlpha0Options(
            data_width=4, num_registers=8, memory_words=4, alu_subset=("and", "or", "cmpeq")
        )
    )
    normal_opcode: int = 0x11
    control_opcode: int = 0x30
    symbolic_initial_state: bool = False

    name: str = "Alpha0"
    order_k: int = alpha0_isa.PIPELINE_DEPTH
    delay_slots: int = alpha0_isa.DELAY_SLOTS
    instruction_width: int = alpha0_isa.INSTRUCTION_WIDTH
    instruction_bit_order: ClassVar[Tuple[int, ...]] = alpha0_isa.INSTRUCTION_BIT_ORDER

    def make_models(self, manager: BDDManager, impl_kwargs: Optional[dict] = None):
        impl_kwargs = impl_kwargs or {}
        specification = SymbolicUnpipelinedAlpha0(manager, options=self.options)
        implementation = SymbolicPipelinedAlpha0(manager, options=self.options, **impl_kwargs)
        return specification, implementation

    def make_initial_state(self, manager: BDDManager) -> Dict[str, object]:
        if not self.symbolic_initial_state:
            return {}
        registers = symbolic_register_file(
            manager, self.options.num_registers, self.options.data_width
        )
        memory = symbolic_memory(manager, self.options.memory_words, self.options.data_width)
        return {"initial_registers": registers, "initial_memory": memory}

    def _opcode_cube(self, opcode: int) -> Dict[int, bool]:
        return {26 + bit: bool((opcode >> bit) & 1) for bit in range(6)}

    def instruction_class_cube(self, kind: str) -> Dict[int, bool]:
        if kind == NORMAL:
            return self._opcode_cube(self.normal_opcode)
        if kind == CONTROL:
            return self._opcode_cube(self.control_opcode)
        raise ValueError(f"unknown instruction class {kind!r}")

    def observation_spec(self) -> ObservationSpec:
        return alpha0_observables(
            num_registers=self.options.num_registers,
            memory_words=self.options.memory_words,
        )

    def disassemble(self, word: int) -> str:
        try:
            return str(alpha0_isa.decode(word))
        except alpha0_isa.Alpha0EncodingError:
            return f"<invalid Alpha0 word {word:#010x}>"
