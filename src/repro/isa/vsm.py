"""The VSM instruction set (paper Table 1).

VSM is the simple experimental RISC processor of Section 6.2:

* 13-bit single-format instructions,
* eight 3-bit general purpose registers,
* a 5-bit instruction address register (PC),
* five instructions: ``add``, ``xor``, ``and``, ``or`` and ``br``,
* one delay slot after the branch.

Instruction format (bit 12 is the MSB)::

    <12:10>  opcode
    <9>      L        (literal flag for ALU operations)
    <8:6>    Ra / Disp
    <5:3>    Rb / Lit
    <2:0>    Rc

Semantics (Table 1):

========  ======  =========================================================
add       000     if L=0, Rc <- <Ra> + <Rb>  else Rc <- <Ra> + Lit
xor       001     if L=0, Rc <- <Ra> XOR <Rb> else Rc <- <Ra> XOR Lit
and       010     if L=0, Rc <- <Ra> AND <Rb> else Rc <- <Ra> AND Lit
or        011     if L=0, Rc <- <Ra> OR <Rb>  else Rc <- <Ra> OR Lit
br        100     Rc <- PC, PC <- PC + Disp
========  ======  =========================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Architectural parameters of VSM.
INSTRUCTION_WIDTH = 13
NUM_REGISTERS = 8
REGISTER_WIDTH = 3
DATA_WIDTH = 3
PC_WIDTH = 5
DELAY_SLOTS = 1
#: Pipeline depth of the pipelined implementation (order of definiteness k).
PIPELINE_DEPTH = 4
#: The decode-first BDD order of an instruction word's bits: Rc, the
#: opcode MSB-first, L, then Rb/Lit and Ra/Disp.  The symbolic checks
#: declare every instruction word in this order (the beta relations'
#: input word and instruction latches, every stimulus word).
INSTRUCTION_BIT_ORDER: Tuple[int, ...] = (0, 1, 2, 12, 11, 10, 9, 3, 4, 5, 6, 7, 8)

#: Opcode encodings (Table 1).
OPCODES: Dict[str, int] = {
    "add": 0b000,
    "xor": 0b001,
    "and": 0b010,
    "or": 0b011,
    "br": 0b100,
}

MNEMONICS: Dict[int, str] = {code: name for name, code in OPCODES.items()}

#: Opcodes of control-transfer instructions.
CONTROL_TRANSFER_OPCODES: Tuple[int, ...] = (OPCODES["br"],)

_DATA_MASK = (1 << DATA_WIDTH) - 1
_PC_MASK = (1 << PC_WIDTH) - 1
_FIELD_MASK = 0b111


class VSMEncodingError(ValueError):
    """Raised for malformed VSM instructions or encodings."""


@dataclass(frozen=True)
class VSMInstruction:
    """A decoded VSM instruction.

    ``ra`` doubles as the branch displacement field and ``rb`` as the
    literal field, exactly as in the shared instruction format.
    """

    mnemonic: str
    literal_flag: bool = False
    ra: int = 0
    rb: int = 0
    rc: int = 0

    def __post_init__(self) -> None:
        if self.mnemonic not in OPCODES:
            raise VSMEncodingError(f"unknown VSM mnemonic {self.mnemonic!r}")
        for field_name in ("ra", "rb", "rc"):
            value = getattr(self, field_name)
            if not 0 <= value <= _FIELD_MASK:
                raise VSMEncodingError(
                    f"field {field_name} = {value} out of range 0..{_FIELD_MASK}"
                )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def opcode(self) -> int:
        """Numeric opcode."""
        return OPCODES[self.mnemonic]

    @property
    def is_control_transfer(self) -> bool:
        """Whether the instruction can change the PC non-sequentially."""
        return self.opcode in CONTROL_TRANSFER_OPCODES

    @property
    def is_alu(self) -> bool:
        """Whether the instruction is a register-writing ALU operation."""
        return not self.is_control_transfer

    @property
    def displacement(self) -> int:
        """Branch displacement (the Ra field reused)."""
        return self.ra

    @property
    def literal(self) -> int:
        """ALU literal operand (the Rb field reused)."""
        return self.rb

    def destination(self) -> int:
        """Destination register index (every VSM instruction writes Rc)."""
        return self.rc

    def sources(self) -> Tuple[int, ...]:
        """Register indices the instruction reads."""
        if self.is_control_transfer:
            return ()
        if self.literal_flag:
            return (self.ra,)
        return (self.ra, self.rb)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self) -> int:
        """Encode to the 13-bit instruction word."""
        word = self.opcode << 10
        word |= (1 if self.literal_flag else 0) << 9
        word |= self.ra << 6
        word |= self.rb << 3
        word |= self.rc
        return word

    def __str__(self) -> str:
        if self.is_control_transfer:
            return f"br r{self.rc}, {self.displacement}"
        operand = f"#{self.literal}" if self.literal_flag else f"r{self.rb}"
        return f"{self.mnemonic} r{self.rc}, r{self.ra}, {operand}"


def decode(word: int) -> VSMInstruction:
    """Decode a 13-bit instruction word."""
    if not 0 <= word < (1 << INSTRUCTION_WIDTH):
        raise VSMEncodingError(f"instruction word {word:#x} does not fit in 13 bits")
    opcode = (word >> 10) & 0b111
    if opcode not in MNEMONICS:
        raise VSMEncodingError(f"unknown VSM opcode {opcode:#05b}")
    return VSMInstruction(
        mnemonic=MNEMONICS[opcode],
        literal_flag=bool((word >> 9) & 1),
        ra=(word >> 6) & _FIELD_MASK,
        rb=(word >> 3) & _FIELD_MASK,
        rc=word & _FIELD_MASK,
    )


def is_valid_encoding(word: int) -> bool:
    """Whether the word decodes to a defined VSM instruction."""
    try:
        decode(word)
    except VSMEncodingError:
        return False
    return True


# ----------------------------------------------------------------------
# Reference (architectural) semantics
# ----------------------------------------------------------------------
def alu_operation(mnemonic: str, left: int, right: int) -> int:
    """Result of a VSM ALU operation on DATA_WIDTH-bit operands."""
    if mnemonic == "add":
        return (left + right) & _DATA_MASK
    if mnemonic == "xor":
        return (left ^ right) & _DATA_MASK
    if mnemonic == "and":
        return left & right & _DATA_MASK
    if mnemonic == "or":
        return (left | right) & _DATA_MASK
    raise VSMEncodingError(f"{mnemonic!r} is not an ALU operation")


def execute(
    instruction: VSMInstruction, registers: List[int], pc: int
) -> Tuple[List[int], int]:
    """Architectural execution of one instruction.

    Returns the new register file contents and the new PC.  ``registers``
    is not modified in place.  The branch semantics follow Table 1:
    ``Rc <- PC`` (the address of the branch itself) and
    ``PC <- PC + Disp``; all other instructions advance the PC by one.
    """
    if len(registers) != NUM_REGISTERS:
        raise VSMEncodingError(f"VSM has {NUM_REGISTERS} registers, got {len(registers)}")
    new_registers = list(registers)
    if instruction.is_control_transfer:
        new_registers[instruction.rc] = pc & _DATA_MASK
        new_pc = (pc + instruction.displacement) & _PC_MASK
    else:
        left = registers[instruction.ra] & _DATA_MASK
        right = (
            instruction.literal if instruction.literal_flag else registers[instruction.rb]
        ) & _DATA_MASK
        new_registers[instruction.rc] = alu_operation(instruction.mnemonic, left, right)
        new_pc = (pc + 1) & _PC_MASK
    return new_registers, new_pc


# ----------------------------------------------------------------------
# Random instruction generation (for co-simulation tests)
# ----------------------------------------------------------------------
def random_instruction(
    rng: random.Random,
    allow_control_transfer: bool = True,
    mnemonics: Optional[Iterable[str]] = None,
) -> VSMInstruction:
    """A random well-formed VSM instruction."""
    choices = list(mnemonics) if mnemonics is not None else list(OPCODES)
    if not allow_control_transfer:
        choices = [name for name in choices if OPCODES[name] not in CONTROL_TRANSFER_OPCODES]
    mnemonic = rng.choice(choices)
    return VSMInstruction(
        mnemonic=mnemonic,
        literal_flag=bool(rng.getrandbits(1)) and mnemonic != "br",
        ra=rng.randrange(NUM_REGISTERS),
        rb=rng.randrange(NUM_REGISTERS),
        rc=rng.randrange(NUM_REGISTERS),
    )


def random_program(
    rng: random.Random, length: int, allow_control_transfer: bool = False
) -> List[VSMInstruction]:
    """A list of random instructions (control transfer disabled by default)."""
    return [
        random_instruction(rng, allow_control_transfer=allow_control_transfer)
        for _ in range(length)
    ]
