"""Input/output equivalence of FSMs by product-machine traversal.

This is the classical procedure of Section 3.4: build the product
machine, compute its reachable state set, and check that the ``equal``
output is a tautology on every reachable state under every input.  The
paper's contribution is precisely that pipelined-processor verification
does **not** need this exhaustive traversal; the procedure is kept as
the baseline of comparison and as a general-purpose substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..bdd import BDDNode
from .machine import SymbolicFSM
from .product import EQUAL_OUTPUT, build_product
from .reachability import ReachabilityResult, reachable_states


@dataclass
class EquivalenceResult:
    """Outcome of a product-machine equivalence check."""

    equivalent: bool
    iterations: int
    reachable_state_count: int
    counterexample: Optional[Dict[str, bool]] = None
    reachability: Optional[ReachabilityResult] = None


def check_equivalence(
    left: SymbolicFSM,
    right: SymbolicFSM,
    max_iterations: Optional[int] = None,
) -> EquivalenceResult:
    """Check strict input/output equivalence of two machines.

    The traversal runs over one monolithic transition relation of the
    product machine (see :func:`~repro.fsm.reachability.reachable_states`).

    Returns an :class:`EquivalenceResult`; when the machines differ, the
    counterexample gives a reachable product state and an input
    assignment on which the outputs disagree (the state is reachable by
    construction, though the witness input string is not reconstructed).
    """
    product = build_product(left, right)
    reach = reachable_states(product, max_iterations=max_iterations)
    manager = product.manager
    equal = product.outputs[EQUAL_OUTPUT]
    # Outputs must agree for every reachable state and every input:
    # reachable(state) -> equal(state, input) must be a tautology.
    violation = manager.apply_and(reach.reachable, manager.apply_not(equal))
    if manager.is_contradiction(violation):
        return EquivalenceResult(
            equivalent=True,
            iterations=reach.iterations,
            reachable_state_count=reach.reachable_state_count,
            reachability=reach,
        )
    witness = manager.pick_assignment(violation)
    return EquivalenceResult(
        equivalent=False,
        iterations=reach.iterations,
        reachable_state_count=reach.reachable_state_count,
        counterexample=witness,
        reachability=reach,
    )
