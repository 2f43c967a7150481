"""Static variable-ordering heuristics.

Section 3.2 of the paper notes that ROBDD size is critically dependent
on the variable order, and gives the classic example: for an adder the
two operand vectors should be *interleaved* and ordered from least to
most significant bit.  The verification flow in this reproduction uses
static orders built with the helpers below:

* operand interleaving for datapath words,
* cycle-major ordering for the per-cycle instruction variables of the
  symbolic simulator (instruction ``i``'s bits are adjacent and earlier
  instructions come first, matching the order in which they influence
  the machine state),
* a simple greedy arrangement of declared groups by first use, used
  when building BDDs from netlists.

The order these heuristics pick is final: a manager never moves a
variable once it is declared.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def bit_names(prefix: str, width: int) -> List[str]:
    """Names of the bits of a ``width``-bit signal, little-endian."""
    return [f"{prefix}[{i}]" for i in range(width)]


def interleave(*groups: Sequence[str]) -> List[str]:
    """Interleave several equally long (or ragged) name groups.

    ``interleave(a_bits, b_bits)`` yields ``a[0], b[0], a[1], b[1], ...``,
    the order recommended for word-level arithmetic operands.
    """
    order: List[str] = []
    longest = max((len(group) for group in groups), default=0)
    for position in range(longest):
        for group in groups:
            if position < len(group):
                order.append(group[position])
    return order


def cycle_major_order(
    cycle_prefixes: Sequence[str], widths: Dict[str, int], cycles: int
) -> List[str]:
    """Order for per-cycle input variables of a symbolic simulation.

    For every cycle ``c`` (earliest first), the bits of each input signal
    in ``cycle_prefixes`` are listed contiguously.  Signal bits within a
    cycle are interleaved least-significant first.
    """
    order: List[str] = []
    for cycle in range(cycles):
        groups = [bit_names(f"{prefix}@{cycle}", widths[prefix]) for prefix in cycle_prefixes]
        order.extend(interleave(*groups))
    return order


def state_then_inputs(state_bits: Sequence[str], input_bits: Sequence[str]) -> List[str]:
    """Order with initial-state variables above input variables.

    Initial architectural state (register file, memory) is shared between
    the specification and implementation runs and appears in most
    sampled formulae, so it is placed at the top of the order.
    """
    order = list(state_bits)
    order.extend(name for name in input_bits if name not in set(state_bits))
    return order


def first_use_order(uses: Iterable[Sequence[str]]) -> List[str]:
    """Order variables by their first appearance in a sequence of uses.

    ``uses`` is typically the gate list of a netlist in topological
    order; each element lists the variable names the gate reads.  This
    mirrors the common DFS-from-outputs static ordering heuristic.
    """
    seen: Dict[str, None] = {}
    for group in uses:
        for name in group:
            if name not in seen:
                seen[name] = None
    return list(seen.keys())
