"""Product machine construction (paper Section 3.4).

The product of two machines shares the primary inputs, runs both
component machines in lock-step and produces a single output ``equal``
that is 1 exactly when all paired outputs agree.  Input/output
equivalence of the components is then the statement that ``equal`` is a
tautology over every reachable product state and every input.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd import BDDNode
from .machine import SymbolicFSM

#: Name of the single output of a product machine.
EQUAL_OUTPUT = "equal"


def build_product(
    left: SymbolicFSM,
    right: SymbolicFSM,
    output_pairs: Optional[Sequence[Tuple[str, str]]] = None,
    input_mapping: Optional[Mapping[str, str]] = None,
) -> SymbolicFSM:
    """Build the product machine of two symbolic FSMs.

    Both machines must live in the same BDD manager.  Their state
    variable names must already be disjoint (use distinct prefixes when
    extracting them from netlists).  ``output_pairs`` names the outputs
    to compare (defaults to the common output names).  ``input_mapping``
    maps the right machine's input names onto the left machine's, for
    designs whose ports are named differently; identity by default.
    """
    if left.manager is not right.manager:
        raise ValueError("both machines must share one BDD manager")
    overlap = set(left.state_names) & set(right.state_names)
    if overlap:
        raise ValueError(f"state variable names collide: {sorted(overlap)}")
    manager = left.manager

    if output_pairs is None:
        common = [name for name in left.outputs if name in right.outputs]
        if not common:
            raise ValueError("the machines have no common output names to compare")
        output_pairs = [(name, name) for name in common]

    if input_mapping is None:
        input_mapping = {}
    rename: Dict[str, BDDNode] = {}
    for right_input in right.input_names:
        target = input_mapping.get(right_input, right_input)
        rename[right_input] = manager.var(target)

    renamed = manager.compose_all(
        list(right.outputs.values()) + list(right.next_state.values()), rename
    )
    right_outputs = dict(zip(right.outputs, renamed))
    right_next = dict(zip(right.next_state, renamed[len(right.outputs):]))

    equal = manager.one
    for left_name, right_name in output_pairs:
        if left_name not in left.outputs:
            raise ValueError(f"unknown output {left_name!r} on the left machine")
        if right_name not in right.outputs:
            raise ValueError(f"unknown output {right_name!r} on the right machine")
        equal = manager.apply_and(
            equal, manager.apply_xnor(left.outputs[left_name], right_outputs[right_name])
        )

    inputs: List[str] = list(left.input_names)
    for right_input in right.input_names:
        mapped = input_mapping.get(right_input, right_input)
        if mapped not in inputs:
            inputs.append(mapped)

    state_names = list(left.state_names) + list(right.state_names)
    next_state = dict(left.next_state)
    next_state.update(right_next)
    reset = dict(left.reset_state)
    reset.update(right.reset_state)

    return SymbolicFSM(
        manager=manager,
        input_names=inputs,
        state_names=state_names,
        next_state=next_state,
        outputs={EQUAL_OUTPUT: equal},
        reset_state=reset,
        name=f"product({left.name},{right.name})",
    )
