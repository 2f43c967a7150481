"""Symbolic (BDD) models of the unpipelined and pipelined VSM.

These mirror :class:`~repro.processors.vsm_unpipelined.UnpipelinedVSM`
and :class:`~repro.processors.vsm_pipelined.PipelinedVSM` bit for bit,
but operate on :class:`~repro.logic.bitvec.BitVec` values so that one
symbolic simulation covers every instruction encoding and every initial
register file at once (Chapter 5 of the paper).

Both models share :func:`decode_fields` and :func:`alu_result`, so the
specification and the implementation interpret instruction encodings —
including undefined opcodes — identically; the verification therefore
never reports spurious mismatches on encodings that the simulation
information file has not constrained away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd import BDDManager, BDDNode
from ..isa import vsm as isa
from ..logic import BitVec
from .symbolic import constant_register_file, read_register, write_register

DATA_WIDTH = isa.DATA_WIDTH
PC_WIDTH = isa.PC_WIDTH
NUM_REGISTERS = isa.NUM_REGISTERS


@dataclass
class DecodedFields:
    """Symbolic instruction fields of the single VSM format."""

    opcode: BitVec
    literal_flag: BDDNode
    ra: BitVec
    rb: BitVec
    rc: BitVec

    @property
    def displacement(self) -> BitVec:
        return self.ra

    @property
    def literal(self) -> BitVec:
        return self.rb


def decode_fields(instruction: BitVec) -> DecodedFields:
    """Split a 13-bit instruction BitVec into its fields."""
    if instruction.width != isa.INSTRUCTION_WIDTH:
        raise ValueError(f"VSM instructions are {isa.INSTRUCTION_WIDTH} bits wide")
    return DecodedFields(
        opcode=instruction.slice(10, 12),
        literal_flag=instruction[9],
        ra=instruction.slice(6, 8),
        rb=instruction.slice(3, 5),
        rc=instruction.slice(0, 2),
    )


def is_control_transfer(fields: DecodedFields) -> BDDNode:
    """Function that is 1 exactly for the ``br`` opcode."""
    return fields.opcode.eq(isa.OPCODES["br"])


def alu_result(
    fields: DecodedFields, operand_a: BitVec, operand_b: BitVec, swap_and_to_or: bool = False
) -> BitVec:
    """Symbolic VSM ALU: result selected by the opcode.

    ``swap_and_to_or`` implements the ``and_becomes_or`` injected bug.
    Undefined opcodes fall through to the OR result; the same convention
    is used by both machines, so it can never cause a spurious mismatch.
    """
    manager = operand_a.manager
    right = BitVec.mux(fields.literal_flag, fields.literal, operand_b)
    add = operand_a + right
    xor = operand_a ^ right
    and_ = (operand_a | right) if swap_and_to_or else (operand_a & right)
    or_ = operand_a | right
    return BitVec.case(
        or_,
        [
            (fields.opcode.eq(isa.OPCODES["add"]), add),
            (fields.opcode.eq(isa.OPCODES["xor"]), xor),
            (fields.opcode.eq(isa.OPCODES["and"]), and_),
        ],
    )


class SymbolicUnpipelinedVSM:
    """Symbolic model of the unpipelined VSM specification."""

    def __init__(
        self,
        manager: BDDManager,
        cycles_per_instruction: int = isa.PIPELINE_DEPTH,
    ) -> None:
        self.manager = manager
        self.cycles_per_instruction = cycles_per_instruction
        self.cycle_count = 0
        self.instructions_retired = 0
        self._stage = 0
        self._pending: Optional[BitVec] = None
        self.reset()

    def reset(self, initial_registers: Optional[List[BitVec]] = None) -> None:
        """Restore the reset state, optionally seeding the register file."""
        manager = self.manager
        if initial_registers is None:
            self.registers = constant_register_file(manager, NUM_REGISTERS, DATA_WIDTH)
        else:
            if len(initial_registers) != NUM_REGISTERS:
                raise ValueError(f"VSM has {NUM_REGISTERS} registers")
            self.registers = list(initial_registers)
        self.pc = BitVec.constant(manager, 0, PC_WIDTH)
        self.retired_op = BitVec.constant(manager, 0, 3)
        self.retired_dest = BitVec.constant(manager, 0, 3)
        self.cycle_count = 0
        self.instructions_retired = 0
        self._stage = 0
        self._pending = None

    @property
    def accepts_instruction(self) -> bool:
        """Whether the next :meth:`step` latches a new instruction."""
        return self._stage == 0

    def step(self, instruction: Optional[BitVec] = None) -> Dict[str, BitVec]:
        """Advance one clock cycle (instruction required at the fetch cycle)."""
        self.cycle_count += 1
        if self._stage == 0:
            if instruction is None:
                raise ValueError("an instruction is required at the fetch cycle")
            self._pending = instruction
        self._stage += 1
        if self._stage == self.cycles_per_instruction:
            self._retire(self._pending)
            self._stage = 0
            self._pending = None
        return self.observe()

    def _retire(self, instruction: BitVec) -> None:
        manager = self.manager
        fields = decode_fields(instruction)
        branch = is_control_transfer(fields)
        operand_a = read_register(self.registers, fields.ra)
        operand_b = read_register(self.registers, fields.rb)
        alu = alu_result(fields, operand_a, operand_b)
        value = BitVec.mux(branch, self.pc.truncate(DATA_WIDTH), alu)
        self.registers = write_register(self.registers, fields.rc, value, manager.one)
        branch_target = self.pc + fields.displacement.zero_extend(PC_WIDTH)
        sequential = self.pc + BitVec.constant(manager, 1, PC_WIDTH)
        self.pc = BitVec.mux(branch, branch_target, sequential)
        self.retired_op = fields.opcode
        self.retired_dest = fields.rc
        self.instructions_retired += 1

    def execute_instruction(self, instruction: BitVec) -> Dict[str, BitVec]:
        """Run a full instruction window (k cycles) and return the final observation."""
        observation = self.step(instruction)
        for _ in range(self.cycles_per_instruction - 1):
            observation = self.step(None)
        return observation

    def observe(self) -> Dict[str, BitVec]:
        """Observation dictionary (same names as the concrete model)."""
        observation = {f"reg{i}": value for i, value in enumerate(self.registers)}
        observation["pc_next"] = self.pc
        observation["retired_op"] = self.retired_op
        observation["retired_dest"] = self.retired_dest
        return observation

    # ------------------------------------------------------------------
    # State injection (relational subsystem protocol)
    # ------------------------------------------------------------------
    def state_layout(self) -> List[tuple]:
        """Flattened architectural state as ``(field, width)`` pairs.

        The unpipelined machine's symbolic state is purely architectural;
        the fetch-stage bookkeeping (``_stage``/``_pending``) is concrete
        scheduling metadata, so its instruction-level transition relation
        is taken over one :meth:`execute_instruction` window.
        """
        layout = [(f"reg{i}", DATA_WIDTH) for i in range(NUM_REGISTERS)]
        layout += [("pc", PC_WIDTH), ("retired_op", 3), ("retired_dest", 3)]
        return layout

    def state_formulae(self) -> Dict[str, BitVec]:
        """Current latch contents, keyed by :meth:`state_layout` field name."""
        state = {f"reg{i}": value for i, value in enumerate(self.registers)}
        state["pc"] = self.pc
        state["retired_op"] = self.retired_op
        state["retired_dest"] = self.retired_dest
        return state

    def load_state(self, state: Dict[str, BitVec]) -> None:
        """Overwrite every latch with caller-supplied formulae.

        Used by :mod:`repro.relational.beta` to drive the machine from
        a fully symbolic state when extracting its transition relation.
        """
        self.registers = [state[f"reg{i}"] for i in range(NUM_REGISTERS)]
        self.pc = state["pc"]
        self.retired_op = state["retired_op"]
        self.retired_dest = state["retired_dest"]
        self._stage = 0
        self._pending = None

    def observable_fields(self) -> Dict[str, str]:
        """Observation name -> :meth:`state_layout` field carrying it."""
        mapping = {f"reg{i}": f"reg{i}" for i in range(NUM_REGISTERS)}
        mapping.update(
            {"pc_next": "pc", "retired_op": "retired_op", "retired_dest": "retired_dest"}
        )
        return mapping

    def datapath_fields(self) -> List[str]:
        """The :meth:`state_layout` fields that hold datapath words."""
        return [f"reg{i}" for i in range(NUM_REGISTERS)]

    def instruction_fields(self) -> List[str]:
        """The :meth:`state_layout` fields that latch instruction words: none."""
        return []

    def state_guards(self) -> Dict[str, Tuple[str, ...]]:
        """No validity-gated state: the architectural machine is all live."""
        return {}


@dataclass
class _SymFetchLatch:
    word: BitVec
    pc: BitVec
    valid: BDDNode


@dataclass
class _SymDecodeLatch:
    fields: DecodedFields
    pc: BitVec
    operand_a: BitVec
    operand_b: BitVec
    valid: BDDNode


@dataclass
class _SymExecuteLatch:
    destination: BitVec
    value: BitVec
    opcode: BitVec
    next_pc: BitVec
    valid: BDDNode


class SymbolicPipelinedVSM:
    """Symbolic model of the 4-stage pipelined VSM implementation."""

    def __init__(
        self,
        manager: BDDManager,
        enable_bypassing: bool = True,
        enable_annulment: bool = True,
        bug: Optional[str] = None,
        bypass_operands: str = "ab",
        branch_offset: int = 0,
    ) -> None:
        from .vsm_pipelined import BUG_CODES, validate_mutation_knobs

        if bug is not None and bug not in BUG_CODES:
            raise ValueError(f"unknown bug code {bug!r}; valid codes: {BUG_CODES}")
        validate_mutation_knobs(bypass_operands, branch_offset)
        self.manager = manager
        self.enable_bypassing = enable_bypassing and bug != "no_bypass"
        self.enable_annulment = enable_annulment and bug != "no_annul"
        self.bug = bug
        #: Mutation knobs (fuzz campaigns): which operands the forwarding
        #: network covers, and a constant skew on every branch target.
        #: At their identity values ("ab", 0) the step function builds
        #: exactly the stock formulae — the gates below skip, no extra
        #: node is constructed, verdicts are byte-identical.
        self.bypass_operands = bypass_operands
        self.branch_offset = branch_offset
        self.cycle_count = 0
        self.reset()

    def reset(self, initial_registers: Optional[List[BitVec]] = None) -> None:
        """Flush the pipeline, optionally seeding the register file."""
        manager = self.manager
        if initial_registers is None:
            self.registers = constant_register_file(manager, NUM_REGISTERS, DATA_WIDTH)
        else:
            if len(initial_registers) != NUM_REGISTERS:
                raise ValueError(f"VSM has {NUM_REGISTERS} registers")
            self.registers = list(initial_registers)
        zero3 = BitVec.constant(manager, 0, 3)
        zero5 = BitVec.constant(manager, 0, PC_WIDTH)
        zero13 = BitVec.constant(manager, 0, isa.INSTRUCTION_WIDTH)
        self.fetch_pc = zero5
        self.arch_pc = zero5
        self.retired_op = zero3
        self.retired_dest = zero3
        self.if_id = _SymFetchLatch(word=zero13, pc=zero5, valid=manager.zero)
        self.id_ex = _SymDecodeLatch(
            fields=decode_fields(zero13),
            pc=zero5,
            operand_a=zero3,
            operand_b=zero3,
            valid=manager.zero,
        )
        self.ex_wb = _SymExecuteLatch(
            destination=zero3, value=zero3, opcode=zero3, next_pc=zero5, valid=manager.zero
        )
        self.cycle_count = 0

    # ------------------------------------------------------------------
    def step(
        self, instruction: BitVec, fetch_valid: Optional[BDDNode] = None
    ) -> Dict[str, BitVec]:
        """Advance one clock cycle with a (symbolic) instruction on the input port."""
        manager = self.manager
        if fetch_valid is None:
            fetch_valid = manager.one
        self.cycle_count += 1

        # ---- WB ---------------------------------------------------------
        retiring = self.ex_wb
        write_enable = retiring.valid
        if self.bug == "drop_write_r3":
            write_enable = manager.apply_and(
                write_enable, manager.apply_not(retiring.destination.eq(3))
            )
        self.registers = write_register(
            self.registers, retiring.destination, retiring.value, write_enable
        )
        self.retired_op = BitVec.mux(retiring.valid, retiring.opcode, self.retired_op)
        self.retired_dest = BitVec.mux(retiring.valid, retiring.destination, self.retired_dest)
        self.arch_pc = BitVec.mux(retiring.valid, retiring.next_pc, self.arch_pc)

        # ---- EX ---------------------------------------------------------
        decoded = self.id_ex
        fields = decoded.fields
        branch = is_control_transfer(fields)
        operand_a = decoded.operand_a
        operand_b = decoded.operand_b
        if self.enable_bypassing:
            forwardable = manager.apply_and(retiring.valid, manager.apply_not(branch))
            # Mutation hook: the knob narrows which operands the
            # forwarding network covers; at the identity value "ab" both
            # gates pass and the stock formulae are built verbatim.
            if "a" in self.bypass_operands:
                bypass_a = manager.apply_and(
                    forwardable, fields.ra.eq(retiring.destination)
                )
            if "b" in self.bypass_operands:
                bypass_b = manager.conjoin(
                    [
                        forwardable,
                        manager.apply_not(fields.literal_flag),
                        fields.rb.eq(retiring.destination),
                    ]
                )
            if "a" in self.bypass_operands:
                operand_a = BitVec.mux(bypass_a, retiring.value, operand_a)
            if "b" in self.bypass_operands:
                operand_b = BitVec.mux(bypass_b, retiring.value, operand_b)
        alu = alu_result(fields, operand_a, operand_b, swap_and_to_or=self.bug == "and_becomes_or")
        branch_value = decoded.pc.truncate(DATA_WIDTH)
        value = BitVec.mux(branch, branch_value, alu)
        target = decoded.pc + fields.displacement.zero_extend(PC_WIDTH)
        if self.bug == "wrong_branch_target":
            target = target + BitVec.constant(manager, 1, PC_WIDTH)
        if self.branch_offset:
            target = target + BitVec.constant(manager, self.branch_offset, PC_WIDTH)
        sequential = decoded.pc + BitVec.constant(manager, 1, PC_WIDTH)
        next_pc = BitVec.mux(branch, target, sequential)
        new_ex_wb = _SymExecuteLatch(
            destination=fields.rc,
            value=value,
            opcode=fields.opcode,
            next_pc=next_pc,
            valid=decoded.valid,
        )

        # ---- ID ---------------------------------------------------------
        fetched = self.if_id
        fetched_fields = decode_fields(fetched.word)
        new_id_ex = _SymDecodeLatch(
            fields=fetched_fields,
            pc=fetched.pc,
            operand_a=read_register(self.registers, fetched_fields.ra),
            operand_b=read_register(self.registers, fetched_fields.rb),
            valid=fetched.valid,
        )
        redirect = manager.apply_and(fetched.valid, is_control_transfer(fetched_fields))
        redirect_target = fetched.pc + fetched_fields.displacement.zero_extend(PC_WIDTH)
        if self.bug == "wrong_branch_target":
            redirect_target = redirect_target + BitVec.constant(manager, 1, PC_WIDTH)
        if self.branch_offset:
            redirect_target = redirect_target + BitVec.constant(
                manager, self.branch_offset, PC_WIDTH
            )

        # ---- IF ---------------------------------------------------------
        annul = redirect if self.enable_annulment else manager.zero
        new_if_id = _SymFetchLatch(
            word=instruction,
            pc=self.fetch_pc,
            valid=manager.apply_and(fetch_valid, manager.apply_not(annul)),
        )
        incremented = self.fetch_pc + BitVec.constant(manager, 1, PC_WIDTH)
        self.fetch_pc = BitVec.mux(redirect, redirect_target, incremented)

        # ---- Commit ------------------------------------------------------
        self.if_id = new_if_id
        self.id_ex = new_id_ex
        self.ex_wb = new_ex_wb
        return self.observe()

    def observe(self) -> Dict[str, BitVec]:
        """Observation dictionary (same names as the concrete model)."""
        observation = {f"reg{i}": value for i, value in enumerate(self.registers)}
        observation["pc_next"] = self.arch_pc
        observation["retired_op"] = self.retired_op
        observation["retired_dest"] = self.retired_dest
        return observation

    # ------------------------------------------------------------------
    # State injection (relational subsystem protocol)
    # ------------------------------------------------------------------
    def state_layout(self) -> List[tuple]:
        """Flattened machine state — architectural plus every pipeline latch.

        Field order is the layout order
        :func:`repro.relational.beta.relation_declares` reads the
        control fields in.
        """
        layout = [(f"reg{i}", DATA_WIDTH) for i in range(NUM_REGISTERS)]
        layout += [
            ("fetch_pc", PC_WIDTH),
            ("arch_pc", PC_WIDTH),
            ("retired_op", 3),
            ("retired_dest", 3),
            ("if.word", isa.INSTRUCTION_WIDTH),
            ("if.pc", PC_WIDTH),
            ("if.valid", 1),
            ("id.opcode", 3),
            ("id.lit", 1),
            ("id.ra", 3),
            ("id.rb", 3),
            ("id.rc", 3),
            ("id.pc", PC_WIDTH),
            ("id.a", DATA_WIDTH),
            ("id.b", DATA_WIDTH),
            ("id.valid", 1),
            ("ex.dest", 3),
            ("ex.value", DATA_WIDTH),
            ("ex.opcode", 3),
            ("ex.pc", PC_WIDTH),
            ("ex.valid", 1),
        ]
        return layout

    def state_formulae(self) -> Dict[str, BitVec]:
        """Current latch contents, keyed by :meth:`state_layout` field name.

        Single-bit control signals are wrapped as 1-wide BitVecs so every
        field has a uniform shape.
        """
        manager = self.manager
        one_bit = lambda node: BitVec.from_bits(manager, [node])  # noqa: E731
        state = {f"reg{i}": value for i, value in enumerate(self.registers)}
        state.update(
            {
                "fetch_pc": self.fetch_pc,
                "arch_pc": self.arch_pc,
                "retired_op": self.retired_op,
                "retired_dest": self.retired_dest,
                "if.word": self.if_id.word,
                "if.pc": self.if_id.pc,
                "if.valid": one_bit(self.if_id.valid),
                "id.opcode": self.id_ex.fields.opcode,
                "id.lit": one_bit(self.id_ex.fields.literal_flag),
                "id.ra": self.id_ex.fields.ra,
                "id.rb": self.id_ex.fields.rb,
                "id.rc": self.id_ex.fields.rc,
                "id.pc": self.id_ex.pc,
                "id.a": self.id_ex.operand_a,
                "id.b": self.id_ex.operand_b,
                "id.valid": one_bit(self.id_ex.valid),
                "ex.dest": self.ex_wb.destination,
                "ex.value": self.ex_wb.value,
                "ex.opcode": self.ex_wb.opcode,
                "ex.pc": self.ex_wb.next_pc,
                "ex.valid": one_bit(self.ex_wb.valid),
            }
        )
        return state

    def load_state(self, state: Dict[str, BitVec]) -> None:
        """Overwrite every latch with caller-supplied formulae.

        The inverse of :meth:`state_formulae`; used by
        :mod:`repro.relational.beta` to step the machine from a fully
        symbolic state when extracting its per-bit transition relation.
        """
        self.registers = [state[f"reg{i}"] for i in range(NUM_REGISTERS)]
        self.fetch_pc = state["fetch_pc"]
        self.arch_pc = state["arch_pc"]
        self.retired_op = state["retired_op"]
        self.retired_dest = state["retired_dest"]
        self.if_id = _SymFetchLatch(
            word=state["if.word"], pc=state["if.pc"], valid=state["if.valid"][0]
        )
        self.id_ex = _SymDecodeLatch(
            fields=DecodedFields(
                opcode=state["id.opcode"],
                literal_flag=state["id.lit"][0],
                ra=state["id.ra"],
                rb=state["id.rb"],
                rc=state["id.rc"],
            ),
            pc=state["id.pc"],
            operand_a=state["id.a"],
            operand_b=state["id.b"],
            valid=state["id.valid"][0],
        )
        self.ex_wb = _SymExecuteLatch(
            destination=state["ex.dest"],
            value=state["ex.value"],
            opcode=state["ex.opcode"],
            next_pc=state["ex.pc"],
            valid=state["ex.valid"][0],
        )

    def observable_fields(self) -> Dict[str, str]:
        """Observation name -> :meth:`state_layout` field carrying it."""
        mapping = {f"reg{i}": f"reg{i}" for i in range(NUM_REGISTERS)}
        mapping.update(
            {
                "pc_next": "arch_pc",
                "retired_op": "retired_op",
                "retired_dest": "retired_dest",
            }
        )
        return mapping

    def datapath_fields(self) -> List[str]:
        """The :meth:`state_layout` fields that hold datapath words.

        Everything else in the layout is control: the instruction word,
        register specifiers, opcodes, program counters and valid bits
        that select over these words.
        """
        return [f"reg{i}" for i in range(NUM_REGISTERS)] + ["id.a", "id.b", "ex.value"]

    def instruction_fields(self) -> List[str]:
        """The :meth:`state_layout` fields that latch instruction words.

        The relation declares their bits in the ISA's decode-first order
        (:data:`repro.isa.vsm.INSTRUCTION_BIT_ORDER`); the decode latch
        already holds its fields apart.
        """
        return ["if.word"]

    def state_guards(self) -> Dict[str, Tuple[str, ...]]:
        """Validity bits and the latch fields they gate.

        Every downstream read of a gated field — operand bypass, register
        writeback, retirement bookkeeping, branch redirect — is muxed by
        the named guard in :meth:`step`, so when a guard's next value is
        the constant-0 function the gated fields' values are
        unobservable: a relational stepper may replace them with any
        function (canonically: constant 0) without changing a single
        observable formula.  ``tests/test_beta_relational.py`` pins the
        invariant down per machine.
        """
        return {
            "if.valid": ("if.word", "if.pc"),
            "id.valid": (
                "id.opcode",
                "id.lit",
                "id.ra",
                "id.rb",
                "id.rc",
                "id.pc",
                "id.a",
                "id.b",
            ),
            "ex.valid": ("ex.dest", "ex.value", "ex.opcode", "ex.pc"),
        }
