"""Word-level and gate-level logic substrates.

* :mod:`repro.logic.bitvec` — symbolic bit-vectors over BDDs (the word-level
  design-entry layer used by the processor models).
* :mod:`repro.logic.expr` — single-bit behavioural expressions (the "BDS"
  analogue) that synthesise to gates or BDDs.
* :mod:`repro.logic.netlist` / :mod:`repro.logic.gates` — sequential
  gate-level netlists (the "slif" analogue) with concrete simulation and
  BDD extraction.
* :mod:`repro.logic.generators` — parametric circuits used in tests and
  benchmarks (counters, shift registers, adders, the Figure-2 serial
  datapath).
"""

from .bitvec import BitVec
from .expr import Const, Expr, Op, Signal, mux, signals
from .gates import GATE_TYPES, evaluate_gate, symbolic_gate, validate_gate
from .netlist import Gate, Latch, Netlist, NetlistError
from .generators import (
    counter,
    equality_comparator,
    inverted_shift_register,
    parity_shift_register,
    random_netlist,
    ripple_adder,
    serial_accumulator,
    shift_register,
    toggle_machine,
)

__all__ = [
    "BitVec",
    "Const",
    "Expr",
    "GATE_TYPES",
    "Gate",
    "Latch",
    "Netlist",
    "NetlistError",
    "Op",
    "Signal",
    "counter",
    "equality_comparator",
    "evaluate_gate",
    "inverted_shift_register",
    "mux",
    "parity_shift_register",
    "random_netlist",
    "ripple_adder",
    "serial_accumulator",
    "shift_register",
    "signals",
    "symbolic_gate",
    "toggle_machine",
    "validate_gate",
]
