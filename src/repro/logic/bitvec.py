"""Symbolic bit-vectors over BDDs.

The paper enters designs in BDS (a word-level behavioural language) and
synthesises them to bit-level logic with BDSYN.  In this reproduction
the same role is played by :class:`BitVec`: a fixed-width little-endian
vector of BDD functions with the usual word-level operators (addition,
subtraction, comparisons, shifts, multiplexing, concatenation).  The
symbolic processor models in :mod:`repro.processors` are written
entirely in terms of ``BitVec`` operations, which elaborate directly to
BDDs managed by a single :class:`~repro.bdd.BDDManager`.

All operators are purely combinational and side-effect free; registers
and sequencing live in the symbolic simulator, not here.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Union

from ..bdd import BDDManager, BDDNode, bit_names, bits_to_int

IntOrVec = Union[int, "BitVec"]


class BitVec:
    """A fixed-width vector of Boolean functions (bit 0 = LSB)."""

    __slots__ = ("manager", "bits")

    def __init__(self, manager: BDDManager, bits: Sequence[BDDNode]) -> None:
        self.manager = manager
        self.bits = list(bits)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, manager: BDDManager, value: int, width: int) -> "BitVec":
        """A constant bit-vector of the given width."""
        masked = value & ((1 << width) - 1)
        return cls(manager, [manager.constant(bool((masked >> i) & 1)) for i in range(width)])

    @classmethod
    def inputs(cls, manager: BDDManager, prefix: str, width: int) -> "BitVec":
        """Fresh symbolic input variables named ``prefix[i]``."""
        return cls(manager, [manager.var(name) for name in bit_names(prefix, width)])

    @classmethod
    def from_bits(cls, manager: BDDManager, bits: Sequence[BDDNode]) -> "BitVec":
        """Wrap an existing list of BDD functions."""
        return cls(manager, bits)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of bits."""
        return len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, index) -> Union[BDDNode, "BitVec"]:
        if isinstance(index, slice):
            return BitVec(self.manager, self.bits[index])
        return self.bits[index]

    def slice(self, low: int, high: int) -> "BitVec":
        """Bits ``low`` .. ``high`` inclusive (like a Verilog part-select)."""
        if low < 0 or high >= self.width or low > high:
            raise IndexError(f"slice [{high}:{low}] out of range for width {self.width}")
        return BitVec(self.manager, self.bits[low : high + 1])

    def concat(self, upper: "BitVec") -> "BitVec":
        """Concatenate ``upper`` above self (self keeps the low bits)."""
        return BitVec(self.manager, self.bits + upper.bits)

    def zero_extend(self, width: int) -> "BitVec":
        """Zero-extend to ``width`` bits (no-op if already wide enough)."""
        if width < self.width:
            raise ValueError("cannot zero-extend to a smaller width")
        extra = [self.manager.zero] * (width - self.width)
        return BitVec(self.manager, self.bits + extra)

    def sign_extend(self, width: int) -> "BitVec":
        """Sign-extend to ``width`` bits using the current MSB."""
        if width < self.width:
            raise ValueError("cannot sign-extend to a smaller width")
        if not self.bits:
            return BitVec(self.manager, [self.manager.zero] * width)
        extra = [self.bits[-1]] * (width - self.width)
        return BitVec(self.manager, self.bits + extra)

    def truncate(self, width: int) -> "BitVec":
        """Keep only the ``width`` least significant bits."""
        return BitVec(self.manager, self.bits[:width])

    def resize(self, width: int) -> "BitVec":
        """Zero-extend or truncate to exactly ``width`` bits."""
        if width <= self.width:
            return self.truncate(width)
        return self.zero_extend(width)

    # ------------------------------------------------------------------
    # Bitwise logic
    # ------------------------------------------------------------------
    def _coerce(self, other: IntOrVec) -> "BitVec":
        if isinstance(other, BitVec):
            if other.width != self.width:
                raise ValueError(f"width mismatch: {self.width} vs {other.width}")
            return other
        return BitVec.constant(self.manager, other, self.width)

    def __invert__(self) -> "BitVec":
        return BitVec(self.manager, [self.manager.apply_not(bit) for bit in self.bits])

    def __and__(self, other: IntOrVec) -> "BitVec":
        rhs = self._coerce(other)
        return BitVec(
            self.manager,
            [self.manager.apply_and(a, b) for a, b in zip(self.bits, rhs.bits)],
        )

    def __or__(self, other: IntOrVec) -> "BitVec":
        rhs = self._coerce(other)
        return BitVec(
            self.manager,
            [self.manager.apply_or(a, b) for a, b in zip(self.bits, rhs.bits)],
        )

    def __xor__(self, other: IntOrVec) -> "BitVec":
        rhs = self._coerce(other)
        return BitVec(
            self.manager,
            [self.manager.apply_xor(a, b) for a, b in zip(self.bits, rhs.bits)],
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(self, other: IntOrVec, carry_in: Optional[BDDNode] = None) -> "BitVec":
        """Modular addition (result has the same width as the operands)."""
        rhs = self._coerce(other)
        manager = self.manager
        carry = carry_in if carry_in is not None else manager.zero
        out: List[BDDNode] = []
        for a, b in zip(self.bits, rhs.bits):
            partial = manager.apply_xor(a, b)
            out.append(manager.apply_xor(partial, carry))
            carry = manager.apply_or(
                manager.apply_and(a, b), manager.apply_and(carry, partial)
            )
        return BitVec(manager, out)

    def __add__(self, other: IntOrVec) -> "BitVec":
        return self.add(other)

    def negate(self) -> "BitVec":
        """Two's-complement negation."""
        return (~self).add(BitVec.constant(self.manager, 1, self.width))

    def sub(self, other: IntOrVec) -> "BitVec":
        """Modular subtraction: ``self - other``."""
        rhs = self._coerce(other)
        return self.add(~rhs, carry_in=self.manager.one)

    def __sub__(self, other: IntOrVec) -> "BitVec":
        return self.sub(other)

    # ------------------------------------------------------------------
    # Comparisons (all return a single BDD function)
    # ------------------------------------------------------------------
    def eq(self, other: IntOrVec) -> BDDNode:
        """Equality comparison."""
        rhs = self._coerce(other)
        manager = self.manager
        result = manager.one
        for a, b in zip(self.bits, rhs.bits):
            result = manager.apply_and(result, manager.apply_xnor(a, b))
        return result

    def ne(self, other: IntOrVec) -> BDDNode:
        """Inequality comparison."""
        return self.manager.apply_not(self.eq(other))

    def ult(self, other: IntOrVec) -> BDDNode:
        """Unsigned less-than."""
        rhs = self._coerce(other)
        manager = self.manager
        result = manager.zero
        # Scan from LSB to MSB so higher bits dominate.
        for a, b in zip(self.bits, rhs.bits):
            a_lt_b = manager.apply_and(manager.apply_not(a), b)
            a_eq_b = manager.apply_xnor(a, b)
            result = manager.apply_or(a_lt_b, manager.apply_and(a_eq_b, result))
        return result

    def ule(self, other: IntOrVec) -> BDDNode:
        """Unsigned less-or-equal."""
        rhs = self._coerce(other)
        return self.manager.apply_or(self.ult(rhs), self.eq(rhs))

    def slt(self, other: IntOrVec) -> BDDNode:
        """Signed (two's complement) less-than."""
        rhs = self._coerce(other)
        manager = self.manager
        if not self.bits:
            return manager.zero
        sign_a, sign_b = self.bits[-1], rhs.bits[-1]
        signs_differ = manager.apply_xor(sign_a, sign_b)
        # If signs differ, a < b iff a is negative.
        return manager.ite(signs_differ, sign_a, self.ult(rhs))

    def sle(self, other: IntOrVec) -> BDDNode:
        """Signed less-or-equal."""
        rhs = self._coerce(other)
        return self.manager.apply_or(self.slt(rhs), self.eq(rhs))

    def is_zero(self) -> BDDNode:
        """Function that is 1 exactly when the vector is all-zero."""
        manager = self.manager
        any_bit = manager.disjoin(self.bits)
        return manager.apply_not(any_bit)

    def is_nonzero(self) -> BDDNode:
        """Function that is 1 exactly when at least one bit is 1."""
        return self.manager.disjoin(self.bits)

    def reduce_and(self) -> BDDNode:
        """AND of all bits."""
        return self.manager.conjoin(self.bits)

    def reduce_xor(self) -> BDDNode:
        """XOR (parity) of all bits."""
        result = self.manager.zero
        for bit in self.bits:
            result = self.manager.apply_xor(result, bit)
        return result

    # ------------------------------------------------------------------
    # Shifts
    # ------------------------------------------------------------------
    def shift_left_const(self, amount: int) -> "BitVec":
        """Logical left shift by a constant amount."""
        manager = self.manager
        amount = min(amount, self.width)
        bits = [manager.zero] * amount + self.bits[: self.width - amount]
        return BitVec(manager, bits)

    def shift_right_const(self, amount: int) -> "BitVec":
        """Logical right shift by a constant amount."""
        manager = self.manager
        amount = min(amount, self.width)
        bits = self.bits[amount:] + [manager.zero] * amount
        return BitVec(manager, bits)

    def shift_left(self, amount: "BitVec") -> "BitVec":
        """Logical left shift by a symbolic amount (barrel shifter)."""
        return self._barrel(amount, lambda vec, distance: vec.shift_left_const(distance))

    def shift_right(self, amount: "BitVec") -> "BitVec":
        """Logical right shift by a symbolic amount (barrel shifter)."""
        return self._barrel(amount, lambda vec, distance: vec.shift_right_const(distance))

    def _barrel(self, amount: "BitVec", shifter) -> "BitVec":
        result = self
        for stage, select in enumerate(amount.bits):
            distance = 1 << stage
            if distance >= self.width and stage > 0:
                # Shifting by >= width always yields zero when selected.
                shifted = BitVec.constant(self.manager, 0, self.width)
            else:
                shifted = shifter(result, distance)
            result = BitVec.mux(select, shifted, result)
        return result

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    @staticmethod
    def mux(select: BDDNode, when_true: "BitVec", when_false: "BitVec") -> "BitVec":
        """Two-way multiplexer on a single select function."""
        if when_true.width != when_false.width:
            raise ValueError("mux operands must have the same width")
        manager = when_true.manager
        return BitVec(
            manager,
            [manager.ite(select, t, f) for t, f in zip(when_true.bits, when_false.bits)],
        )

    @staticmethod
    def case(
        default: "BitVec", branches: Sequence[tuple]
    ) -> "BitVec":
        """Priority selector: the first branch whose condition holds wins.

        ``branches`` is a sequence of ``(condition, value)`` pairs, earliest
        having highest priority; ``default`` applies when none hold.
        """
        result = default
        for condition, value in reversed(list(branches)):
            result = BitVec.mux(condition, value, result)
        return result

    @staticmethod
    def select_word(index: "BitVec", words: Sequence["BitVec"]) -> "BitVec":
        """Select ``words[index]`` symbolically (used for register files)."""
        if not words:
            raise ValueError("select_word needs at least one word")
        manager = index.manager
        result = BitVec.constant(manager, 0, words[0].width)
        for position, word in enumerate(words):
            matches = index.eq(position)
            result = BitVec.mux(matches, word, result)
        return result

    # ------------------------------------------------------------------
    # Evaluation / restriction
    # ------------------------------------------------------------------
    def restrict(self, assignment: Mapping[str, bool]) -> "BitVec":
        """Cofactor every bit by the same assignment."""
        return BitVec(self.manager, [self.manager.restrict(bit, assignment) for bit in self.bits])

    def compose(self, substitution: Mapping[str, BDDNode]) -> "BitVec":
        """Compose every bit with the same substitution (one walk)."""
        return BitVec(self.manager, self.manager.compose_all(self.bits, substitution))

    def evaluate(self, assignment: Mapping[str, bool]) -> int:
        """Evaluate to an integer under a concrete assignment."""
        return bits_to_int([self.manager.evaluate(bit, assignment) for bit in self.bits])

    def as_constant(self) -> Optional[int]:
        """The integer value if every bit is constant, else ``None``."""
        value = 0
        for i, bit in enumerate(self.bits):
            if bit is self.manager.one:
                value |= 1 << i
            elif bit is not self.manager.zero:
                return None
        return value

    def identical(self, other: "BitVec") -> bool:
        """Canonical equality: every bit is the same BDD node."""
        return self.width == other.width and all(a is b for a, b in zip(self.bits, other.bits))

    def node_count(self) -> int:
        """Number of distinct BDD nodes in the shared DAG of all bits."""
        seen = set()

        def walk(node: BDDNode) -> None:
            if node.node_id in seen:
                return
            seen.add(node.node_id)
            if not node.is_terminal:
                walk(node.low)
                walk(node.high)

        for bit in self.bits:
            walk(bit)
        return len(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        constant = self.as_constant()
        if constant is not None:
            return f"BitVec(width={self.width}, value={constant})"
        return f"BitVec(width={self.width}, symbolic)"
