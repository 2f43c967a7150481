"""Derived BDD operations used throughout the verification flow.

These helpers sit on top of :class:`repro.bdd.manager.BDDManager` and
provide the few higher-level idioms that the FSM and processor layers
need repeatedly: building cubes for integer-valued signals, comparing
vectors of functions, and summarising BDDs for reports.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .manager import BDDManager
from .node import BDDNode


def int_to_bits(value: int, width: int) -> List[bool]:
    """Little-endian bit expansion of ``value`` on ``width`` bits."""
    if value < 0:
        value &= (1 << width) - 1
    return [bool((value >> i) & 1) for i in range(width)]


def bits_to_int(bits: Sequence[bool]) -> int:
    """Integer value of a little-endian bit sequence."""
    result = 0
    for i, bit in enumerate(bits):
        if bit:
            result |= 1 << i
    return result


def encode_value(manager: BDDManager, names: Sequence[str], value: int) -> BDDNode:
    """Cube asserting that the bit-vector ``names`` equals ``value``.

    ``names`` are little-endian: ``names[0]`` is the least significant bit.
    """
    assignment = {name: bit for name, bit in zip(names, int_to_bits(value, len(names)))}
    return manager.cube(assignment)

def vector_equal(
    manager: BDDManager, left: Sequence[BDDNode], right: Sequence[BDDNode]
) -> BDDNode:
    """Function that is 1 exactly when the two function vectors agree."""
    if len(left) != len(right):
        raise ValueError("vectors must have the same width")
    result = manager.one
    for a, b in zip(left, right):
        result = manager.apply_and(result, manager.apply_xnor(a, b))
    return result


def vectors_identical(left: Sequence[BDDNode], right: Sequence[BDDNode]) -> bool:
    """Canonical equality of two function vectors (node identity per bit)."""
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


def restrict_vector(
    manager: BDDManager, vector: Sequence[BDDNode], assignment: Mapping[str, bool]
) -> List[BDDNode]:
    """Cofactor every bit of a function vector by the same assignment."""
    return [manager.restrict(bit, assignment) for bit in vector]


def compose_vector(
    manager: BDDManager, vector: Sequence[BDDNode], substitution: Mapping[str, BDDNode]
) -> List[BDDNode]:
    """Compose every bit of a function vector with the same substitution."""
    return manager.compose_all(vector, substitution)


def vector_support(manager: BDDManager, vector: Sequence[BDDNode]) -> Tuple[str, ...]:
    """Union of the supports of all bits, in variable order."""
    levels = set()
    for bit in vector:
        for name in manager.support(bit):
            levels.add(manager.level(name))
    return tuple(manager.name_at_level(level) for level in sorted(levels))


def vector_node_count(manager: BDDManager, vector: Sequence[BDDNode]) -> int:
    """Number of distinct nodes in the (shared) DAG of a function vector."""
    seen = set()

    def walk(node: BDDNode) -> None:
        if node.node_id in seen:
            return
        seen.add(node.node_id)
        if not node.is_terminal:
            walk(node.low)
            walk(node.high)

    for bit in vector:
        walk(bit)
    return len(seen)


def evaluate_vector(
    manager: BDDManager, vector: Sequence[BDDNode], assignment: Mapping[str, bool]
) -> int:
    """Evaluate a function vector under an assignment to an integer."""
    return bits_to_int([manager.evaluate(bit, assignment) for bit in vector])


def find_distinguishing_assignment(
    manager: BDDManager,
    left: Sequence[BDDNode],
    right: Sequence[BDDNode],
    order: Optional[Sequence[str]] = None,
) -> Optional[Dict[str, bool]]:
    """An assignment on which the two function vectors differ, if any.

    Used to produce counterexamples when a verification run fails: the
    assignment gives concrete instruction encodings and initial register
    values exhibiting the divergence.  The minimal witness follows
    ``order`` when given (see
    :meth:`~repro.bdd.manager.BDDManager.pick_assignment_in_order`),
    the manager's own variable order otherwise.
    """
    return distinguisher(manager, order)(left, right)


def distinguisher(
    manager: BDDManager, order: Optional[Sequence[str]] = None
) -> Callable[[Sequence[BDDNode], Sequence[BDDNode]], Optional[Dict[str, bool]]]:
    """:func:`find_distinguishing_assignment` for many vector pairs.

    Each pair's equality function is walked to its 0-terminal: the walk
    of its negation to 1, without building the negation.  With
    ``order``, all pairs share one
    :meth:`~repro.bdd.manager.BDDManager.walker_in_order`, so shared
    logic is walked once.  A witness depends only on the difference
    function and the walk order, so each equals an independent call's.
    """
    if order is not None:
        walk = manager.walker_in_order(order, value=False)
    else:
        walk = functools.partial(manager.pick_assignment, value=False)

    def find(
        left: Sequence[BDDNode], right: Sequence[BDDNode]
    ) -> Optional[Dict[str, bool]]:
        return walk(vector_equal(manager, left, right))

    return find
