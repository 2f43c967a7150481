"""Symbolic (BDD) models of the unpipelined and pipelined Alpha0.

These mirror the concrete models of
:mod:`repro.processors.alpha0_unpipelined` and
:mod:`repro.processors.alpha0_pipelined` on
:class:`~repro.logic.bitvec.BitVec` values.

Condensation.  The paper (Section 6.3) condenses the Alpha0 datapath to
fit BDD capacity: 4-bit registers and ALU, a restricted ALU subset
(``and``, ``or``, ``cmpeq``) and a single modelled general-purpose
register with the read/write addresses observed instead.  The symbolic
models expose the same knobs through :class:`SymbolicAlpha0Options`:
``data_width``, ``alu_subset`` and ``num_registers`` (the register file
is folded onto ``num_registers`` entries by using the low index bits;
32 gives the exact architecture).  Both the specification and the
implementation model must be built with the *same* options, which keeps
the comparison sound with respect to the condensed machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bdd import BDDManager, BDDNode
from ..isa import alpha0 as isa
from ..logic import BitVec
from .symbolic import constant_register_file, read_register, write_register

PC_WIDTH = isa.PC_WIDTH


@dataclass(frozen=True)
class SymbolicAlpha0Options:
    """Datapath condensation knobs for the symbolic Alpha0 models."""

    data_width: int = 4
    num_registers: int = 8
    memory_words: int = 4
    alu_subset: Optional[Tuple[str, ...]] = ("and", "or", "cmpeq", "add", "xor")

    def __post_init__(self) -> None:
        if self.num_registers & (self.num_registers - 1):
            raise ValueError("num_registers must be a power of two")
        if self.memory_words & (self.memory_words - 1):
            raise ValueError("memory_words must be a power of two")

    @property
    def register_index_width(self) -> int:
        return max(1, (self.num_registers - 1).bit_length())

    @property
    def memory_index_width(self) -> int:
        return max(1, (self.memory_words - 1).bit_length())


#: Exact (non-condensed) options: the full architecture at 4-bit data width.
EXACT_OPTIONS = SymbolicAlpha0Options(
    data_width=4, num_registers=32, memory_words=8, alu_subset=None
)
#: The paper-style condensation used by the headline benchmark.
CONDENSED_OPTIONS = SymbolicAlpha0Options(
    data_width=4, num_registers=8, memory_words=4, alu_subset=("and", "or", "cmpeq")
)


@dataclass
class DecodedAlpha0Fields:
    """Symbolic instruction fields shared by every Alpha0 format."""

    opcode: BitVec
    ra: BitVec
    rb: BitVec
    rc: BitVec
    literal_flag: BDDNode
    literal: BitVec
    function: BitVec
    memory_displacement: BitVec
    branch_displacement: BitVec


def decode_fields(instruction: BitVec) -> DecodedAlpha0Fields:
    """Split a 32-bit instruction BitVec into its fields."""
    if instruction.width != isa.INSTRUCTION_WIDTH:
        raise ValueError(f"Alpha0 instructions are {isa.INSTRUCTION_WIDTH} bits wide")
    return DecodedAlpha0Fields(
        opcode=instruction.slice(26, 31),
        ra=instruction.slice(21, 25),
        rb=instruction.slice(16, 20),
        rc=instruction.slice(0, 4),
        literal_flag=instruction[12],
        literal=instruction.slice(13, 20),
        function=instruction.slice(5, 11),
        memory_displacement=instruction.slice(0, 15),
        branch_displacement=instruction.slice(0, 20),
    )


def encode_fields(manager: BDDManager, fields: DecodedAlpha0Fields) -> BitVec:
    """Reassemble the 32-bit word whose :func:`decode_fields` is ``fields``.

    The decoded fields are overlapping slices of one word; the
    non-redundant covering is ``rc`` (0-4), ``function`` (5-11),
    ``literal_flag`` (12), ``literal`` (13-20, containing ``rb``),
    ``ra`` (21-25) and ``opcode`` (26-31).  Used by the state-injection
    protocol, whose flattened layout stores the decode latch as the
    latched word rather than as redundant field slices.
    """
    bits = (
        list(fields.rc.bits)
        + list(fields.function.bits)
        + [fields.literal_flag]
        + list(fields.literal.bits)
        + list(fields.ra.bits)
        + list(fields.opcode.bits)
    )
    return BitVec.from_bits(manager, bits)


@dataclass
class InstructionClass:
    """One-hot symbolic classification of an instruction."""

    is_alu: BDDNode
    is_load: BDDNode
    is_store: BDDNode
    is_br: BDDNode
    is_bf: BDDNode
    is_bt: BDDNode
    is_jmp: BDDNode


def classify(
    manager: BDDManager, fields: DecodedAlpha0Fields, options: SymbolicAlpha0Options
) -> InstructionClass:
    """Symbolic instruction classification by opcode (and ALU subset)."""
    opcode = fields.opcode
    alu_specs = [
        spec
        for spec in isa.SPECS.values()
        if spec.format == "operate"
        and (options.alu_subset is None or spec.mnemonic in options.alu_subset)
    ]
    is_alu = manager.disjoin(
        [
            manager.apply_and(opcode.eq(spec.opcode), fields.function.eq(spec.function))
            for spec in alu_specs
        ]
    )
    classification = InstructionClass(
        is_alu=is_alu,
        is_load=opcode.eq(isa.SPECS["ld"].opcode),
        is_store=opcode.eq(isa.SPECS["st"].opcode),
        is_br=opcode.eq(isa.SPECS["br"].opcode),
        is_bf=opcode.eq(isa.SPECS["bf"].opcode),
        is_bt=opcode.eq(isa.SPECS["bt"].opcode),
        is_jmp=opcode.eq(isa.SPECS["jmp"].opcode),
    )
    return classification


def control_transfer_of(manager: BDDManager, classification: InstructionClass) -> BDDNode:
    """Disjunction of the control-transfer classes."""
    return manager.disjoin(
        [classification.is_br, classification.is_bf, classification.is_bt, classification.is_jmp]
    )


def alu_result(
    manager: BDDManager,
    fields: DecodedAlpha0Fields,
    operand_a: BitVec,
    operand_b: BitVec,
    options: SymbolicAlpha0Options,
    invert_cmpeq: bool = False,
) -> BitVec:
    """Symbolic Alpha0 ALU restricted to the configured subset.

    The result for opcode/function combinations outside the subset is the
    OR result; both machines share this convention, so unconstrained
    encodings cannot cause spurious mismatches.
    """
    width = options.data_width
    right = BitVec.mux(fields.literal_flag, fields.literal.resize(width), operand_b)
    subset = options.alu_subset
    branches = []

    def enabled(mnemonic: str) -> bool:
        return subset is None or mnemonic in subset

    def key(mnemonic: str) -> BDDNode:
        spec = isa.SPECS[mnemonic]
        return manager.apply_and(
            fields.opcode.eq(spec.opcode), fields.function.eq(spec.function)
        )

    one = BitVec.constant(manager, 1, width)
    zero = BitVec.constant(manager, 0, width)
    if enabled("add"):
        branches.append((key("add"), operand_a + right))
    if enabled("sub"):
        branches.append((key("sub"), operand_a - right))
    if enabled("and"):
        branches.append((key("and"), operand_a & right))
    if enabled("xor"):
        branches.append((key("xor"), operand_a ^ right))
    if enabled("cmpeq"):
        equal = operand_a.eq(right)
        if invert_cmpeq:
            equal = manager.apply_not(equal)
        branches.append((key("cmpeq"), BitVec.mux(equal, one, zero)))
    if enabled("cmplt"):
        branches.append((key("cmplt"), BitVec.mux(operand_a.slt(right), one, zero)))
    if enabled("cmple"):
        branches.append((key("cmple"), BitVec.mux(operand_a.sle(right), one, zero)))
    if enabled("sll"):
        branches.append((key("sll"), operand_a.shift_left(right)))
    if enabled("srl"):
        branches.append((key("srl"), operand_a.shift_right(right)))
    default = operand_a | right
    return BitVec.case(default, branches)


class _Alpha0SymbolicBase:
    """State and helpers shared by both symbolic Alpha0 models."""

    def __init__(self, manager: BDDManager, options: SymbolicAlpha0Options) -> None:
        self.manager = manager
        self.options = options
        self.cycle_count = 0
        self.instructions_retired = 0

    def _reset_architectural(
        self,
        initial_registers: Optional[List[BitVec]],
        initial_memory: Optional[List[BitVec]],
    ) -> None:
        manager = self.manager
        options = self.options
        if initial_registers is None:
            self.registers = constant_register_file(
                manager, options.num_registers, options.data_width
            )
        else:
            if len(initial_registers) != options.num_registers:
                raise ValueError(f"expected {options.num_registers} initial registers")
            self.registers = list(initial_registers)
        if initial_memory is None:
            self.memory = constant_register_file(manager, options.memory_words, options.data_width)
        else:
            if len(initial_memory) != options.memory_words:
                raise ValueError(f"expected {options.memory_words} initial memory words")
            self.memory = list(initial_memory)
        self.pc = BitVec.constant(manager, 0, PC_WIDTH)
        self.retired_op = BitVec.constant(manager, 0, 6)
        self.retired_dest = BitVec.constant(manager, 0, 5)
        self.cycle_count = 0
        self.instructions_retired = 0

    def _register_index(self, field_value: BitVec) -> BitVec:
        """Fold a 5-bit register specifier onto the modelled register file."""
        return field_value.truncate(self.options.register_index_width)

    def _memory_word_index(self, effective_address: BitVec) -> BitVec:
        """Data-memory word index of a byte effective address."""
        return effective_address.shift_right_const(2).truncate(self.options.memory_index_width)

    def _effective_address(self, base: BitVec, fields: DecodedAlpha0Fields) -> BitVec:
        """EA = base + SEXT(disp.m), truncated to the data width."""
        return base + fields.memory_displacement.truncate(self.options.data_width)

    def _branch_offset(self, fields: DecodedAlpha0Fields) -> BitVec:
        """4 * SEXT(disp.b), truncated to the PC width."""
        return (
            fields.branch_displacement.truncate(PC_WIDTH - 2)
            .zero_extend(PC_WIDTH)
            .shift_left_const(2)
        )

    def observe(self) -> Dict[str, BitVec]:
        """Observation dictionary (same names as the concrete models)."""
        observation = {f"reg{i}": value for i, value in enumerate(self.registers)}
        observation.update({f"mem{i}": value for i, value in enumerate(self.memory)})
        observation["pc_next"] = self.pc
        observation["retired_op"] = self.retired_op
        observation["retired_dest"] = self.retired_dest
        return observation


class SymbolicUnpipelinedAlpha0(_Alpha0SymbolicBase):
    """Symbolic model of the unpipelined Alpha0 specification."""

    def __init__(
        self,
        manager: BDDManager,
        options: SymbolicAlpha0Options = CONDENSED_OPTIONS,
        cycles_per_instruction: int = isa.PIPELINE_DEPTH,
    ) -> None:
        super().__init__(manager, options)
        self.cycles_per_instruction = cycles_per_instruction
        self._stage = 0
        self._pending: Optional[BitVec] = None
        self.reset()

    def reset(
        self,
        initial_registers: Optional[List[BitVec]] = None,
        initial_memory: Optional[List[BitVec]] = None,
    ) -> None:
        """Restore the reset state, optionally seeding registers and memory."""
        self._reset_architectural(initial_registers, initial_memory)
        self._stage = 0
        self._pending = None

    @property
    def accepts_instruction(self) -> bool:
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

    def execute_instruction(self, instruction: BitVec) -> Dict[str, BitVec]:
        """Run a full instruction window (k cycles) and return the final observation."""
        observation = self.step(instruction)
        for _ in range(self.cycles_per_instruction - 1):
            observation = self.step(None)
        return observation

    def _retire(self, instruction: BitVec) -> None:
        manager = self.manager
        options = self.options
        width = options.data_width
        fields = decode_fields(instruction)
        classes = classify(manager, fields, options)
        ra_index = self._register_index(fields.ra)
        rb_index = self._register_index(fields.rb)
        rc_index = self._register_index(fields.rc)
        operand_a = read_register(self.registers, ra_index)
        operand_b = read_register(self.registers, rb_index)

        sequential = self.pc + BitVec.constant(manager, 4, PC_WIDTH)
        branch_target = sequential + self._branch_offset(fields)
        jump_target = (operand_b.resize(PC_WIDTH)) & BitVec.constant(
            manager, (1 << PC_WIDTH) - 1 - 0b11, PC_WIDTH
        )

        alu = alu_result(manager, fields, operand_a, operand_b, options)
        address = self._effective_address(operand_b, fields)
        word_index = self._memory_word_index(address)
        loaded = read_register(self.memory, word_index)
        link = sequential.truncate(width)

        # Destination register and write value / enable.
        dest = BitVec.case(
            rc_index,
            [
                (classes.is_load, ra_index),
                (classes.is_br, ra_index),
                (classes.is_jmp, ra_index),
            ],
        )
        value = BitVec.case(
            alu,
            [
                (classes.is_load, loaded),
                (classes.is_br, link),
                (classes.is_jmp, link),
            ],
        )
        writes_register = manager.disjoin(
            [classes.is_alu, classes.is_load, classes.is_br, classes.is_jmp]
        )
        self.registers = write_register(self.registers, dest, value, writes_register)
        self.memory = write_register(self.memory, word_index, operand_a, classes.is_store)

        condition_zero = operand_a.is_zero()
        taken_bf = manager.apply_and(classes.is_bf, condition_zero)
        taken_bt = manager.apply_and(classes.is_bt, manager.apply_not(condition_zero))
        conditional_taken = manager.apply_or(taken_bf, taken_bt)
        new_pc = BitVec.case(
            sequential,
            [
                (classes.is_br, branch_target),
                (classes.is_jmp, jump_target),
                (conditional_taken, branch_target),
            ],
        )
        self.pc = new_pc
        self.retired_op = fields.opcode
        self.retired_dest = BitVec.case(
            fields.rc,
            [
                (classes.is_load, fields.ra),
                (classes.is_br, fields.ra),
                (classes.is_jmp, fields.ra),
                (classes.is_store, BitVec.constant(manager, 0, 5)),
                (classes.is_bf, BitVec.constant(manager, 0, 5)),
                (classes.is_bt, BitVec.constant(manager, 0, 5)),
            ],
        )
        self.instructions_retired += 1

    # ------------------------------------------------------------------
    # State injection (relational subsystem protocol)
    # ------------------------------------------------------------------
    def state_layout(self) -> List[tuple]:
        """Flattened architectural state as ``(field, width)`` pairs."""
        options = self.options
        layout = [(f"reg{i}", options.data_width) for i in range(options.num_registers)]
        layout += [(f"mem{i}", options.data_width) for i in range(options.memory_words)]
        layout += [("pc", PC_WIDTH), ("retired_op", 6), ("retired_dest", 5)]
        return layout

    def state_formulae(self) -> Dict[str, BitVec]:
        """Current latch contents, keyed by :meth:`state_layout` field name."""
        state = {f"reg{i}": value for i, value in enumerate(self.registers)}
        state.update({f"mem{i}": value for i, value in enumerate(self.memory)})
        state["pc"] = self.pc
        state["retired_op"] = self.retired_op
        state["retired_dest"] = self.retired_dest
        return state

    def load_state(self, state: Dict[str, BitVec]) -> None:
        """Overwrite every latch with caller-supplied formulae."""
        options = self.options
        self.registers = [state[f"reg{i}"] for i in range(options.num_registers)]
        self.memory = [state[f"mem{i}"] for i in range(options.memory_words)]
        self.pc = state["pc"]
        self.retired_op = state["retired_op"]
        self.retired_dest = state["retired_dest"]
        self._stage = 0
        self._pending = None

    def observable_fields(self) -> Dict[str, str]:
        """Observation name -> :meth:`state_layout` field carrying it."""
        options = self.options
        mapping = {f"reg{i}": f"reg{i}" for i in range(options.num_registers)}
        mapping.update({f"mem{i}": f"mem{i}" for i in range(options.memory_words)})
        mapping.update(
            {"pc_next": "pc", "retired_op": "retired_op", "retired_dest": "retired_dest"}
        )
        return mapping

    def datapath_fields(self) -> List[str]:
        """The :meth:`state_layout` fields that hold datapath words."""
        options = self.options
        return [f"reg{i}" for i in range(options.num_registers)] + [
            f"mem{i}" for i in range(options.memory_words)
        ]

    def state_guards(self) -> Dict[str, Tuple[str, ...]]:
        """No validity-gated state: the architectural machine is all live."""
        return {}


@dataclass
class _SymAlphaFetchLatch:
    word: BitVec
    pc: BitVec
    valid: BDDNode


@dataclass
class _SymAlphaDecodeLatch:
    fields: DecodedAlpha0Fields
    pc: BitVec
    operand_a: BitVec
    operand_b: BitVec
    valid: BDDNode


@dataclass
class _SymAlphaResultLatch:
    destination: BitVec
    value: BitVec
    writes_register: BDDNode
    opcode: BitVec
    retired_dest_field: BitVec
    next_pc: BitVec
    valid: BDDNode


class SymbolicPipelinedAlpha0(_Alpha0SymbolicBase):
    """Symbolic model of the 5-stage pipelined Alpha0 implementation."""

    def __init__(
        self,
        manager: BDDManager,
        options: SymbolicAlpha0Options = CONDENSED_OPTIONS,
        enable_bypassing: bool = True,
        enable_annulment: bool = True,
        bug: Optional[str] = None,
    ) -> None:
        from .alpha0_pipelined import BUG_CODES

        if bug is not None and bug not in BUG_CODES:
            raise ValueError(f"unknown bug code {bug!r}; valid codes: {BUG_CODES}")
        super().__init__(manager, options)
        self.enable_bypassing = enable_bypassing and bug != "no_bypass"
        self.enable_annulment = enable_annulment and bug != "no_annul"
        self.bug = bug
        self.reset()

    def reset(
        self,
        initial_registers: Optional[List[BitVec]] = None,
        initial_memory: Optional[List[BitVec]] = None,
    ) -> None:
        """Flush the pipeline, optionally seeding registers and memory."""
        manager = self.manager
        options = self.options
        self._reset_architectural(initial_registers, initial_memory)
        zero_word = BitVec.constant(manager, 0, isa.INSTRUCTION_WIDTH)
        zero_pc = BitVec.constant(manager, 0, PC_WIDTH)
        zero_data = BitVec.constant(manager, 0, options.data_width)
        zero_reg_index = BitVec.constant(manager, 0, options.register_index_width)
        self.fetch_pc = zero_pc
        self.arch_pc = zero_pc
        self.if_id = _SymAlphaFetchLatch(word=zero_word, pc=zero_pc, valid=manager.zero)
        self.id_ex = _SymAlphaDecodeLatch(
            fields=decode_fields(zero_word),
            pc=zero_pc,
            operand_a=zero_data,
            operand_b=zero_data,
            valid=manager.zero,
        )
        empty_result = _SymAlphaResultLatch(
            destination=zero_reg_index,
            value=zero_data,
            writes_register=manager.zero,
            opcode=BitVec.constant(manager, 0, 6),
            retired_dest_field=BitVec.constant(manager, 0, 5),
            next_pc=zero_pc,
            valid=manager.zero,
        )
        self.ex_mem = empty_result
        self.mem_wb = _SymAlphaResultLatch(**vars(empty_result))

    # ------------------------------------------------------------------
    def _forward(
        self, index: BitVec, stale: BitVec, *sources: _SymAlphaResultLatch
    ) -> BitVec:
        """Nearest-match bypass of a register read (sources ordered near to far)."""
        if not self.enable_bypassing:
            return stale
        manager = self.manager
        value = stale
        for source in reversed(sources):
            match = manager.conjoin(
                [source.valid, source.writes_register, index.eq(source.destination)]
            )
            value = BitVec.mux(match, source.value, value)
        return value

    def step(
        self, instruction: BitVec, fetch_valid: Optional[BDDNode] = None
    ) -> Dict[str, BitVec]:
        """Advance one clock cycle with a (symbolic) instruction on the input port."""
        manager = self.manager
        options = self.options
        width = options.data_width
        if fetch_valid is None:
            fetch_valid = manager.one
        self.cycle_count += 1

        # ---- WB ---------------------------------------------------------
        retiring = self.mem_wb
        write_enable = manager.apply_and(retiring.valid, retiring.writes_register)
        self.registers = write_register(
            self.registers, retiring.destination, retiring.value, write_enable
        )
        self.retired_op = BitVec.mux(retiring.valid, retiring.opcode, self.retired_op)
        self.retired_dest = BitVec.mux(
            retiring.valid, retiring.retired_dest_field, self.retired_dest
        )
        self.arch_pc = BitVec.mux(retiring.valid, retiring.next_pc, self.arch_pc)

        # ---- MEM (pass-through) ------------------------------------------
        new_mem_wb = self.ex_mem

        # ---- EX -----------------------------------------------------------
        decoded = self.id_ex
        fields = decoded.fields
        classes = classify(manager, fields, options)
        ra_index = self._register_index(fields.ra)
        rb_index = self._register_index(fields.rb)
        rc_index = self._register_index(fields.rc)
        operand_a = self._forward(ra_index, decoded.operand_a, self.ex_mem, retiring)
        operand_b = self._forward(rb_index, decoded.operand_b, self.ex_mem, retiring)

        sequential = decoded.pc + BitVec.constant(manager, 4, PC_WIDTH)
        branch_target = sequential + self._branch_offset(fields)
        jump_target = operand_b.resize(PC_WIDTH) & BitVec.constant(
            manager, (1 << PC_WIDTH) - 1 - 0b11, PC_WIDTH
        )
        alu = alu_result(
            manager, fields, operand_a, operand_b, options,
            invert_cmpeq=self.bug == "cmpeq_inverted",
        )
        address = self._effective_address(operand_b, fields)
        word_index = self._memory_word_index(address)
        if self.bug == "store_wrong_word":
            store_index = word_index + BitVec.constant(manager, 1, word_index.width)
        else:
            store_index = word_index
        loaded = read_register(self.memory, word_index)
        link = sequential.truncate(width)

        store_enable = manager.apply_and(decoded.valid, classes.is_store)
        self.memory = write_register(self.memory, store_index, operand_a, store_enable)

        dest = BitVec.case(
            rc_index,
            [
                (classes.is_load, ra_index),
                (classes.is_br, ra_index),
                (classes.is_jmp, ra_index),
            ],
        )
        value = BitVec.case(
            alu,
            [
                (classes.is_load, loaded),
                (classes.is_br, link),
                (classes.is_jmp, link),
            ],
        )
        writes_register = manager.disjoin(
            [classes.is_alu, classes.is_load, classes.is_br, classes.is_jmp]
        )
        condition_zero = operand_a.is_zero()
        taken_bf = manager.apply_and(classes.is_bf, condition_zero)
        taken_bt = manager.apply_and(classes.is_bt, manager.apply_not(condition_zero))
        conditional_taken = manager.apply_or(taken_bf, taken_bt)
        next_pc = BitVec.case(
            sequential,
            [
                (classes.is_br, branch_target),
                (classes.is_jmp, jump_target),
                (conditional_taken, branch_target),
            ],
        )
        retired_dest_field = BitVec.case(
            fields.rc,
            [
                (classes.is_load, fields.ra),
                (classes.is_br, fields.ra),
                (classes.is_jmp, fields.ra),
                (classes.is_store, BitVec.constant(manager, 0, 5)),
                (classes.is_bf, BitVec.constant(manager, 0, 5)),
                (classes.is_bt, BitVec.constant(manager, 0, 5)),
            ],
        )
        new_ex_mem = _SymAlphaResultLatch(
            destination=dest,
            value=value,
            writes_register=writes_register,
            opcode=fields.opcode,
            retired_dest_field=retired_dest_field,
            next_pc=next_pc,
            valid=decoded.valid,
        )

        # ---- ID -----------------------------------------------------------
        fetched = self.if_id
        fetched_fields = decode_fields(fetched.word)
        fetched_classes = classify(manager, fetched_fields, options)
        fetched_ra = self._register_index(fetched_fields.ra)
        fetched_rb = self._register_index(fetched_fields.rb)
        read_a = read_register(self.registers, fetched_ra)
        read_b = read_register(self.registers, fetched_rb)
        new_id_ex = _SymAlphaDecodeLatch(
            fields=fetched_fields,
            pc=fetched.pc,
            operand_a=read_a,
            operand_b=read_b,
            valid=fetched.valid,
        )
        is_transfer = control_transfer_of(manager, fetched_classes)
        redirect = manager.apply_and(fetched.valid, is_transfer)
        id_sequential = fetched.pc + BitVec.constant(manager, 4, PC_WIDTH)
        id_branch_target = id_sequential + self._branch_offset(fetched_fields)
        condition_a = self._forward(fetched_ra, read_a, new_ex_mem, new_mem_wb)
        target_b = self._forward(fetched_rb, read_b, new_ex_mem, new_mem_wb)
        id_jump_target = target_b.resize(PC_WIDTH) & BitVec.constant(
            manager, (1 << PC_WIDTH) - 1 - 0b11, PC_WIDTH
        )
        id_condition_zero = condition_a.is_zero()
        id_taken_bf = manager.apply_and(fetched_classes.is_bf, id_condition_zero)
        id_taken_bt = manager.apply_and(
            fetched_classes.is_bt, manager.apply_not(id_condition_zero)
        )
        id_conditional_taken = manager.apply_or(id_taken_bf, id_taken_bt)
        redirect_target = BitVec.case(
            id_sequential,
            [
                (fetched_classes.is_br, id_branch_target),
                (fetched_classes.is_jmp, id_jump_target),
                (id_conditional_taken, id_branch_target),
            ],
        )
        if self.bug == "wrong_branch_target":
            redirect_target = redirect_target + BitVec.constant(manager, 4, PC_WIDTH)

        # ---- IF -----------------------------------------------------------
        annul = redirect if self.enable_annulment else manager.zero
        new_if_id = _SymAlphaFetchLatch(
            word=instruction,
            pc=self.fetch_pc,
            valid=manager.apply_and(fetch_valid, manager.apply_not(annul)),
        )
        incremented = self.fetch_pc + BitVec.constant(manager, 4, PC_WIDTH)
        self.fetch_pc = BitVec.mux(redirect, redirect_target, incremented)

        # ---- Commit --------------------------------------------------------
        self.if_id = new_if_id
        self.id_ex = new_id_ex
        self.ex_mem = new_ex_mem
        self.mem_wb = new_mem_wb
        return self.observe()

    def observe(self) -> Dict[str, BitVec]:
        """Observation dictionary (same names as the concrete models)."""
        observation = {f"reg{i}": value for i, value in enumerate(self.registers)}
        observation.update({f"mem{i}": value for i, value in enumerate(self.memory)})
        observation["pc_next"] = self.arch_pc
        observation["retired_op"] = self.retired_op
        observation["retired_dest"] = self.retired_dest
        return observation

    # ------------------------------------------------------------------
    # State injection (relational subsystem protocol)
    # ------------------------------------------------------------------
    def state_layout(self) -> List[tuple]:
        """Flattened machine state — architectural plus every pipeline latch.

        The decode latch is stored as the *latched word* (its decoded
        fields are overlapping slices, reassembled by
        :func:`encode_fields` / re-split by :func:`decode_fields`), so
        the layout stays a redundancy-free bit partition.
        """
        options = self.options
        width = options.data_width
        result_latch = [
            ("dest", options.register_index_width),
            ("value", width),
            ("wr", 1),
            ("opcode", 6),
            ("rdest", 5),
            ("pc", PC_WIDTH),
            ("valid", 1),
        ]
        layout = [(f"reg{i}", width) for i in range(options.num_registers)]
        layout += [(f"mem{i}", width) for i in range(options.memory_words)]
        layout += [
            ("fetch_pc", PC_WIDTH),
            ("arch_pc", PC_WIDTH),
            ("retired_op", 6),
            ("retired_dest", 5),
            ("if.word", isa.INSTRUCTION_WIDTH),
            ("if.pc", PC_WIDTH),
            ("if.valid", 1),
            ("id.word", isa.INSTRUCTION_WIDTH),
            ("id.pc", PC_WIDTH),
            ("id.a", width),
            ("id.b", width),
            ("id.valid", 1),
        ]
        layout += [(f"ex.{field}", bits) for field, bits in result_latch]
        layout += [(f"wb.{field}", bits) for field, bits in result_latch]
        return layout

    def state_formulae(self) -> Dict[str, BitVec]:
        """Current latch contents, keyed by :meth:`state_layout` field name."""
        manager = self.manager
        one_bit = lambda node: BitVec.from_bits(manager, [node])  # noqa: E731
        state = {f"reg{i}": value for i, value in enumerate(self.registers)}
        state.update({f"mem{i}": value for i, value in enumerate(self.memory)})
        state.update(
            {
                "fetch_pc": self.fetch_pc,
                "arch_pc": self.arch_pc,
                "retired_op": self.retired_op,
                "retired_dest": self.retired_dest,
                "if.word": self.if_id.word,
                "if.pc": self.if_id.pc,
                "if.valid": one_bit(self.if_id.valid),
                "id.word": encode_fields(manager, self.id_ex.fields),
                "id.pc": self.id_ex.pc,
                "id.a": self.id_ex.operand_a,
                "id.b": self.id_ex.operand_b,
                "id.valid": one_bit(self.id_ex.valid),
            }
        )
        for prefix, latch in (("ex", self.ex_mem), ("wb", self.mem_wb)):
            state.update(
                {
                    f"{prefix}.dest": latch.destination,
                    f"{prefix}.value": latch.value,
                    f"{prefix}.wr": one_bit(latch.writes_register),
                    f"{prefix}.opcode": latch.opcode,
                    f"{prefix}.rdest": latch.retired_dest_field,
                    f"{prefix}.pc": latch.next_pc,
                    f"{prefix}.valid": one_bit(latch.valid),
                }
            )
        return state

    def load_state(self, state: Dict[str, BitVec]) -> None:
        """Overwrite every latch with caller-supplied formulae."""
        options = self.options
        self.registers = [state[f"reg{i}"] for i in range(options.num_registers)]
        self.memory = [state[f"mem{i}"] for i in range(options.memory_words)]
        self.fetch_pc = state["fetch_pc"]
        self.arch_pc = state["arch_pc"]
        self.retired_op = state["retired_op"]
        self.retired_dest = state["retired_dest"]
        self.if_id = _SymAlphaFetchLatch(
            word=state["if.word"], pc=state["if.pc"], valid=state["if.valid"][0]
        )
        self.id_ex = _SymAlphaDecodeLatch(
            fields=decode_fields(state["id.word"]),
            pc=state["id.pc"],
            operand_a=state["id.a"],
            operand_b=state["id.b"],
            valid=state["id.valid"][0],
        )
        latches = {}
        for prefix in ("ex", "wb"):
            latches[prefix] = _SymAlphaResultLatch(
                destination=state[f"{prefix}.dest"],
                value=state[f"{prefix}.value"],
                writes_register=state[f"{prefix}.wr"][0],
                opcode=state[f"{prefix}.opcode"],
                retired_dest_field=state[f"{prefix}.rdest"],
                next_pc=state[f"{prefix}.pc"],
                valid=state[f"{prefix}.valid"][0],
            )
        self.ex_mem = latches["ex"]
        self.mem_wb = latches["wb"]

    def observable_fields(self) -> Dict[str, str]:
        """Observation name -> :meth:`state_layout` field carrying it."""
        options = self.options
        mapping = {f"reg{i}": f"reg{i}" for i in range(options.num_registers)}
        mapping.update({f"mem{i}": f"mem{i}" for i in range(options.memory_words)})
        mapping.update(
            {
                "pc_next": "arch_pc",
                "retired_op": "retired_op",
                "retired_dest": "retired_dest",
            }
        )
        return mapping

    def datapath_fields(self) -> List[str]:
        """The :meth:`state_layout` fields that hold datapath words (see
        the VSM twin)."""
        options = self.options
        return (
            [f"reg{i}" for i in range(options.num_registers)]
            + [f"mem{i}" for i in range(options.memory_words)]
            + ["id.a", "id.b", "ex.value", "wb.value"]
        )

    def state_guards(self) -> Dict[str, Tuple[str, ...]]:
        """Validity bits and the latch fields they gate (see the VSM twin)."""
        result_fields = ("dest", "value", "wr", "opcode", "rdest", "pc")
        return {
            "if.valid": ("if.word", "if.pc"),
            "id.valid": ("id.word", "id.pc", "id.a", "id.b"),
            "ex.valid": tuple(f"ex.{field}" for field in result_fields),
            "wb.valid": tuple(f"wb.{field}" for field in result_fields),
        }
