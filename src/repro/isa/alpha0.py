"""The Alpha0 instruction set (paper Table 2).

Alpha0 is the condensed DEC-Alpha subset of Section 6.3: a load/store
RISC architecture with 32-bit fixed-format instructions, thirty-two
registers, a 5-bit instruction address register and one delay slot
after each control-transfer instruction.  The paper condenses the
datapath to 4-bit registers/ALU to stay within BDD capacity; the data
width is a parameter here (:class:`Alpha0Config`), with the paper's
condensation as the default.

Instruction formats (bit 31 is the MSB)::

    Operate             opcode<31:26> Ra<25:21> Rb<20:16> 000<15:13> 0<12> function<11:5> Rc<4:0>
    Operate w/ literal   opcode<31:26> Ra<25:21> literal<20:13>       1<12> function<11:5> Rc<4:0>
    Memory              opcode<31:26> Ra<25:21> Rb<20:16> disp.m<15:0>
    Branch              opcode<31:26> Ra<25:21> disp.b<20:0>

The PC convention follows the table: a control-transfer instruction
first updates the PC to the next sequential instruction (PC + 4); the
link register receives that updated PC and branch targets are computed
relative to it (``EA = PC + 4 + 4 * SEXT(disp.b)``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

INSTRUCTION_WIDTH = 32
NUM_REGISTERS = 32
REGISTER_INDEX_WIDTH = 5
PC_WIDTH = 5
DELAY_SLOTS = 1
#: Pipeline depth of the pipelined implementation (order of definiteness k).
PIPELINE_DEPTH = 5

LITERAL_WIDTH = 8
FUNCTION_WIDTH = 7
MEMORY_DISP_WIDTH = 16
BRANCH_DISP_WIDTH = 21

#: The decode-first BDD order of an instruction word's bits: the opcode
#: (31..26), the function code (11..5), the literal flag (12), Rc
#: (4..0), Ra (25..21) and Rb/literal (20..13), each MSB-first.  The
#: symbolic checks declare every instruction word in this order (the
#: beta relations' input word and instruction latches, every stimulus
#: word).
INSTRUCTION_BIT_ORDER: Tuple[int, ...] = (
    tuple(range(31, 25, -1))
    + tuple(range(11, 4, -1))
    + (12,)
    + tuple(range(4, -1, -1))
    + tuple(range(25, 20, -1))
    + tuple(range(20, 12, -1))
)


class Alpha0EncodingError(ValueError):
    """Raised for malformed Alpha0 instructions or encodings."""


@dataclass(frozen=True)
class Alpha0Config:
    """Datapath condensation parameters (Section 6.3).

    ``data_width`` is the register/ALU width (4 in the paper's condensed
    experiments, 32 for the full architecture).  ``memory_words`` is the
    number of data-memory words modelled.  ``alu_subset`` optionally
    restricts the ALU to the operations retained in the paper's
    condensation (``and``, ``or``, ``cmpeq``); ``None`` means the full
    instruction set.
    """

    data_width: int = 4
    memory_words: int = 8
    alu_subset: Optional[Tuple[str, ...]] = None

    @property
    def data_mask(self) -> int:
        return (1 << self.data_width) - 1

    @property
    def memory_index_width(self) -> int:
        return max(1, (self.memory_words - 1).bit_length())


FULL_CONFIG = Alpha0Config(data_width=32, memory_words=64)
CONDENSED_CONFIG = Alpha0Config(data_width=4, memory_words=8, alu_subset=("and", "or", "cmpeq"))


# ----------------------------------------------------------------------
# Instruction catalogue (Table 2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one Alpha0 instruction."""

    mnemonic: str
    opcode: int
    function: Optional[int]
    format: str  # "operate", "memory", "branch", "jump"


SPECS: Dict[str, InstructionSpec] = {
    spec.mnemonic: spec
    for spec in (
        InstructionSpec("add", 0x10, 0x20, "operate"),
        InstructionSpec("sub", 0x10, 0x29, "operate"),
        InstructionSpec("cmpeq", 0x10, 0x2D, "operate"),
        InstructionSpec("cmplt", 0x10, 0x4D, "operate"),
        InstructionSpec("cmple", 0x10, 0x6D, "operate"),
        InstructionSpec("and", 0x11, 0x00, "operate"),
        InstructionSpec("or", 0x11, 0x20, "operate"),
        InstructionSpec("xor", 0x11, 0x40, "operate"),
        InstructionSpec("sll", 0x12, 0x39, "operate"),
        InstructionSpec("srl", 0x12, 0x34, "operate"),
        InstructionSpec("ld", 0x29, None, "memory"),
        InstructionSpec("st", 0x2D, None, "memory"),
        InstructionSpec("br", 0x30, None, "branch"),
        InstructionSpec("bf", 0x39, None, "branch"),
        InstructionSpec("bt", 0x3D, None, "branch"),
        InstructionSpec("jmp", 0x36, None, "jump"),
    )
}

OPERATE_BY_KEY: Dict[Tuple[int, int], str] = {
    (spec.opcode, spec.function): spec.mnemonic
    for spec in SPECS.values()
    if spec.format == "operate"
}
NON_OPERATE_BY_OPCODE: Dict[int, str] = {
    spec.opcode: spec.mnemonic for spec in SPECS.values() if spec.format != "operate"
}

ALU_MNEMONICS = tuple(spec.mnemonic for spec in SPECS.values() if spec.format == "operate")
CONTROL_TRANSFER_MNEMONICS = ("br", "bf", "bt", "jmp")
MEMORY_MNEMONICS = ("ld", "st")


def sign_extend(value: int, width: int) -> int:
    """Interpret ``value`` as a ``width``-bit two's complement number."""
    value &= (1 << width) - 1
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


@dataclass(frozen=True)
class Alpha0Instruction:
    """A decoded Alpha0 instruction.

    Field usage depends on the format: operate instructions use
    ``ra``/``rb``/``rc`` (or ``literal`` when ``literal_flag`` is set),
    memory instructions use ``ra`` (data), ``rb`` (base) and
    ``displacement``, branches use ``ra`` and ``displacement``, and
    ``jmp`` uses ``ra`` (link) and ``rb`` (target).
    """

    mnemonic: str
    ra: int = 0
    rb: int = 0
    rc: int = 0
    literal_flag: bool = False
    literal: int = 0
    displacement: int = 0

    def __post_init__(self) -> None:
        if self.mnemonic not in SPECS:
            raise Alpha0EncodingError(f"unknown Alpha0 mnemonic {self.mnemonic!r}")
        for name in ("ra", "rb", "rc"):
            value = getattr(self, name)
            if not 0 <= value < NUM_REGISTERS:
                raise Alpha0EncodingError(f"register field {name} = {value} out of range")
        if not 0 <= self.literal < (1 << LITERAL_WIDTH):
            raise Alpha0EncodingError(f"literal {self.literal} does not fit in 8 bits")
        spec = SPECS[self.mnemonic]
        if spec.format == "memory":
            limit = 1 << (MEMORY_DISP_WIDTH - 1)
            if not -limit <= self.displacement < limit:
                raise Alpha0EncodingError("memory displacement out of range")
        if spec.format == "branch":
            limit = 1 << (BRANCH_DISP_WIDTH - 1)
            if not -limit <= self.displacement < limit:
                raise Alpha0EncodingError("branch displacement out of range")

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def spec(self) -> InstructionSpec:
        return SPECS[self.mnemonic]

    @property
    def format(self) -> str:
        return self.spec.format

    @property
    def is_control_transfer(self) -> bool:
        return self.mnemonic in CONTROL_TRANSFER_MNEMONICS

    @property
    def is_memory(self) -> bool:
        return self.mnemonic in MEMORY_MNEMONICS

    @property
    def is_alu(self) -> bool:
        return self.format == "operate"

    def destination(self) -> Optional[int]:
        """Register written by the instruction, if any."""
        if self.is_alu:
            return self.rc
        if self.mnemonic in ("ld", "br", "jmp"):
            return self.ra
        return None

    def sources(self) -> Tuple[int, ...]:
        """Registers read by the instruction."""
        if self.is_alu:
            return (self.ra,) if self.literal_flag else (self.ra, self.rb)
        if self.mnemonic == "ld":
            return (self.rb,)
        if self.mnemonic == "st":
            return (self.ra, self.rb)
        if self.mnemonic in ("bf", "bt"):
            return (self.ra,)
        if self.mnemonic == "jmp":
            return (self.rb,)
        return ()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self) -> int:
        """Encode to the 32-bit instruction word."""
        spec = self.spec
        word = spec.opcode << 26
        if spec.format == "operate":
            word |= self.ra << 21
            if self.literal_flag:
                word |= (self.literal & 0xFF) << 13
                word |= 1 << 12
            else:
                word |= self.rb << 16
            word |= (spec.function & 0x7F) << 5
            word |= self.rc
        elif spec.format in ("memory", "jump"):
            word |= self.ra << 21
            word |= self.rb << 16
            word |= self.displacement & 0xFFFF
        else:  # branch
            word |= self.ra << 21
            word |= self.displacement & ((1 << BRANCH_DISP_WIDTH) - 1)
        return word

    def __str__(self) -> str:
        if self.is_alu:
            operand = f"#{self.literal}" if self.literal_flag else f"r{self.rb}"
            return f"{self.mnemonic} r{self.rc}, r{self.ra}, {operand}"
        if self.is_memory:
            return f"{self.mnemonic} r{self.ra}, {self.displacement}(r{self.rb})"
        if self.mnemonic == "jmp":
            return f"jmp r{self.ra}, (r{self.rb})"
        return f"{self.mnemonic} r{self.ra}, {self.displacement}"


def decode(word: int) -> Alpha0Instruction:
    """Decode a 32-bit instruction word."""
    if not 0 <= word < (1 << INSTRUCTION_WIDTH):
        raise Alpha0EncodingError(f"instruction word {word:#x} does not fit in 32 bits")
    opcode = (word >> 26) & 0x3F
    ra = (word >> 21) & 0x1F
    if opcode in (0x10, 0x11, 0x12):
        literal_flag = bool((word >> 12) & 1)
        function = (word >> 5) & 0x7F
        mnemonic = OPERATE_BY_KEY.get((opcode, function))
        if mnemonic is None:
            raise Alpha0EncodingError(
                f"unknown operate function {function:#x} for opcode {opcode:#x}"
            )
        return Alpha0Instruction(
            mnemonic=mnemonic,
            ra=ra,
            rb=0 if literal_flag else (word >> 16) & 0x1F,
            rc=word & 0x1F,
            literal_flag=literal_flag,
            literal=(word >> 13) & 0xFF if literal_flag else 0,
        )
    mnemonic = NON_OPERATE_BY_OPCODE.get(opcode)
    if mnemonic is None:
        raise Alpha0EncodingError(f"unknown Alpha0 opcode {opcode:#x}")
    spec = SPECS[mnemonic]
    if spec.format in ("memory", "jump"):
        return Alpha0Instruction(
            mnemonic=mnemonic,
            ra=ra,
            rb=(word >> 16) & 0x1F,
            displacement=sign_extend(word & 0xFFFF, MEMORY_DISP_WIDTH),
        )
    return Alpha0Instruction(
        mnemonic=mnemonic,
        ra=ra,
        displacement=sign_extend(word & ((1 << BRANCH_DISP_WIDTH) - 1), BRANCH_DISP_WIDTH),
    )


def is_valid_encoding(word: int) -> bool:
    """Whether the word decodes to a defined Alpha0 instruction."""
    try:
        decode(word)
    except Alpha0EncodingError:
        return False
    return True


# ----------------------------------------------------------------------
# Reference (architectural) semantics
# ----------------------------------------------------------------------
def alu_operation(mnemonic: str, left: int, right: int, config: Alpha0Config) -> int:
    """Result of an Alpha0 operate instruction on ``data_width``-bit operands."""
    mask = config.data_mask
    left &= mask
    right &= mask
    if mnemonic == "add":
        return (left + right) & mask
    if mnemonic == "sub":
        return (left - right) & mask
    if mnemonic == "and":
        return left & right
    if mnemonic == "or":
        return left | right
    if mnemonic == "xor":
        return left ^ right
    if mnemonic == "cmpeq":
        return 1 if left == right else 0
    if mnemonic == "cmplt":
        return 1 if sign_extend(left, config.data_width) < sign_extend(right, config.data_width) else 0
    if mnemonic == "cmple":
        return 1 if sign_extend(left, config.data_width) <= sign_extend(right, config.data_width) else 0
    if mnemonic == "sll":
        amount = right & 0x3F
        return (left << amount) & mask if amount < config.data_width else 0
    if mnemonic == "srl":
        amount = right & 0x3F
        return (left >> amount) & mask if amount < config.data_width else 0
    raise Alpha0EncodingError(f"{mnemonic!r} is not an operate instruction")


def memory_index(effective_address: int, config: Alpha0Config) -> int:
    """Data-memory word index for a byte effective address."""
    return (effective_address >> 2) % config.memory_words


def execute(
    instruction: Alpha0Instruction,
    registers: List[int],
    pc: int,
    memory: List[int],
    config: Alpha0Config = CONDENSED_CONFIG,
) -> Tuple[List[int], int, List[int]]:
    """Architectural execution of one Alpha0 instruction.

    Returns ``(new_registers, new_pc, new_memory)``; inputs are not
    modified in place.  The PC is a byte address truncated to
    ``PC_WIDTH`` bits and advances by 4 per instruction.
    """
    if len(registers) != NUM_REGISTERS:
        raise Alpha0EncodingError(f"Alpha0 has {NUM_REGISTERS} registers, got {len(registers)}")
    if len(memory) != config.memory_words:
        raise Alpha0EncodingError(
            f"memory must have {config.memory_words} words, got {len(memory)}"
        )
    mask = config.data_mask
    pc_mask = (1 << PC_WIDTH) - 1
    new_registers = list(registers)
    new_memory = list(memory)
    next_pc = (pc + 4) & pc_mask
    new_pc = next_pc

    if instruction.is_alu:
        if config.alu_subset is not None and instruction.mnemonic not in config.alu_subset:
            raise Alpha0EncodingError(
                f"{instruction.mnemonic!r} is outside the condensed ALU subset"
            )
        left = registers[instruction.ra] & mask
        right = (instruction.literal if instruction.literal_flag else registers[instruction.rb]) & mask
        new_registers[instruction.rc] = alu_operation(instruction.mnemonic, left, right, config)
    elif instruction.mnemonic == "ld":
        address = (registers[instruction.rb] + instruction.displacement) & mask
        new_registers[instruction.ra] = memory[memory_index(address, config)] & mask
    elif instruction.mnemonic == "st":
        address = (registers[instruction.rb] + instruction.displacement) & mask
        new_memory[memory_index(address, config)] = registers[instruction.ra] & mask
    elif instruction.mnemonic == "br":
        new_registers[instruction.ra] = next_pc & mask
        new_pc = (next_pc + 4 * instruction.displacement) & pc_mask
    elif instruction.mnemonic in ("bf", "bt"):
        target = (next_pc + 4 * instruction.displacement) & pc_mask
        taken = (registers[instruction.ra] & mask) == 0
        if instruction.mnemonic == "bt":
            taken = not taken
        if taken:
            new_pc = target
    elif instruction.mnemonic == "jmp":
        new_registers[instruction.ra] = next_pc & mask
        new_pc = registers[instruction.rb] & ~0b11 & pc_mask
    else:  # pragma: no cover - the catalogue is exhaustive
        raise Alpha0EncodingError(f"unhandled mnemonic {instruction.mnemonic!r}")
    return new_registers, new_pc, new_memory


# ----------------------------------------------------------------------
# Random instruction generation (for co-simulation tests)
# ----------------------------------------------------------------------
def random_instruction(
    rng: random.Random,
    config: Alpha0Config = CONDENSED_CONFIG,
    allow_control_transfer: bool = True,
    allow_memory: bool = True,
    mnemonics: Optional[Iterable[str]] = None,
) -> Alpha0Instruction:
    """A random well-formed Alpha0 instruction honouring the config subset."""
    if mnemonics is not None:
        choices = list(mnemonics)
    else:
        alu = list(config.alu_subset) if config.alu_subset is not None else list(ALU_MNEMONICS)
        choices = alu[:]
        if allow_memory:
            choices.extend(MEMORY_MNEMONICS)
        if allow_control_transfer:
            choices.extend(CONTROL_TRANSFER_MNEMONICS)
    mnemonic = rng.choice(choices)
    spec = SPECS[mnemonic]
    if spec.format == "operate":
        literal_flag = bool(rng.getrandbits(1))
        return Alpha0Instruction(
            mnemonic=mnemonic,
            ra=rng.randrange(NUM_REGISTERS),
            rb=0 if literal_flag else rng.randrange(NUM_REGISTERS),
            rc=rng.randrange(NUM_REGISTERS),
            literal_flag=literal_flag,
            literal=rng.randrange(1 << LITERAL_WIDTH) if literal_flag else 0,
        )
    if spec.format in ("memory", "jump"):
        return Alpha0Instruction(
            mnemonic=mnemonic,
            ra=rng.randrange(NUM_REGISTERS),
            rb=rng.randrange(NUM_REGISTERS),
            displacement=rng.randrange(-8, 8) if spec.format == "memory" else 0,
        )
    return Alpha0Instruction(
        mnemonic=mnemonic,
        ra=rng.randrange(NUM_REGISTERS),
        displacement=rng.randrange(-4, 4),
    )


def random_program(
    rng: random.Random,
    length: int,
    config: Alpha0Config = CONDENSED_CONFIG,
    allow_control_transfer: bool = False,
    allow_memory: bool = True,
) -> List[Alpha0Instruction]:
    """A list of random Alpha0 instructions."""
    return [
        random_instruction(
            rng,
            config=config,
            allow_control_transfer=allow_control_transfer,
            allow_memory=allow_memory,
        )
        for _ in range(length)
    ]
