"""Reduced ordered binary decision diagrams (ROBDDs).

This package is the Boolean-function substrate of the reproduction
(paper Chapter 3): canonical ROBDDs with the apply/ite operation,
cofactoring, the smoothing operator, relational products, composition
and counting queries, plus static variable-ordering helpers.  The order
is fixed when variables are declared (paper Section 3.2); nothing
changes it afterwards.

Representation: one array-backed integer-handle kernel
(:mod:`repro.bdd.kernel` — struct-of-arrays node storage, per-level
unique subtables mapping the packed int ``lo << 32 | hi`` to a handle,
int-packed cache keys that keep every table off the cyclic collector,
one iterative ITE core, mark-and-sweep arena GC) beneath the
:class:`~repro.bdd.manager.BDDManager` facade; consumers see immutable
:class:`~repro.bdd.node.BDD` wrappers (``BDDNode`` is the same class).
There is no backend choice: every caller constructs ``BDDManager(...)``
directly.
"""

from .kernel import BDDKernel
from .manager import BDDManager, BDDOrderError
from .node import BDD, BDDNode, TERMINAL_LEVEL
from .ops import (
    bits_to_int,
    compose_vector,
    distinguisher,
    encode_value,
    evaluate_vector,
    find_distinguishing_assignment,
    int_to_bits,
    restrict_vector,
    vector_equal,
    vector_node_count,
    vector_support,
    vectors_identical,
)
from .ordering import (
    bit_names,
    cycle_major_order,
    first_use_order,
    interleave,
    state_then_inputs,
)

__all__ = [
    "BDD",
    "BDDKernel",
    "BDDManager",
    "BDDNode",
    "BDDOrderError",
    "TERMINAL_LEVEL",
    "bit_names",
    "bits_to_int",
    "compose_vector",
    "cycle_major_order",
    "distinguisher",
    "encode_value",
    "evaluate_vector",
    "find_distinguishing_assignment",
    "first_use_order",
    "int_to_bits",
    "interleave",
    "restrict_vector",
    "state_then_inputs",
    "vector_equal",
    "vector_node_count",
    "vector_support",
    "vectors_identical",
]
