"""Breadth-first symbolic reachability analysis (paper Section 3.4).

Starting from a machine's reset state, the set of reachable states is
computed by repeated image computation until a fixpoint:

    C_0     = {s_0}
    C_{i+1} = C_i  union  image(C_i)

This is the exhaustive state-transition-graph traversal that the
paper's definite-machine formulation avoids; it is retained here both
as a substrate (it is still the standard FSM equivalence procedure) and
as the baseline that the benchmarks compare against.  Every image is
computed over one monolithic transition relation
(:mod:`repro.fsm.transition`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..bdd import BDDNode
from .machine import SymbolicFSM
from .transition import build_transition_relation

__all__ = ["ReachabilityResult", "reachable_states"]


@dataclass
class ReachabilityResult:
    """Outcome of a reachability fixpoint computation."""

    reachable: BDDNode
    iterations: int
    state_counts: List[int] = field(default_factory=list)
    bdd_sizes: List[int] = field(default_factory=list)

    @property
    def reachable_state_count(self) -> int:
        """Number of reachable states (last entry of ``state_counts``)."""
        return self.state_counts[-1] if self.state_counts else 0


def reachable_states(
    machine: SymbolicFSM,
    input_constraint: Optional[BDDNode] = None,
    max_iterations: Optional[int] = None,
) -> ReachabilityResult:
    """Fixpoint of breadth-first image computation from the reset state.

    Images are taken over the machine's monolithic transition relation
    (:func:`~repro.fsm.transition.build_transition_relation`), the
    classical build-then-smooth route of Section 3.3.

    ``input_constraint`` limits the inputs considered at every step;
    ``max_iterations`` aborts long traversals (used by benchmarks to
    bound the baseline).  The per-iteration state counts and BDD sizes
    are recorded for reporting.
    """
    manager = machine.manager
    relation = build_transition_relation(machine)
    current = machine.reset_cube()
    counts = [manager.sat_count(current, machine.state_names)]
    sizes = [manager.count_nodes(current)]
    iterations = 0
    while True:
        if max_iterations is not None and iterations >= max_iterations:
            break
        frontier_image = relation.image(current, input_constraint)
        new = manager.apply_or(current, frontier_image)
        iterations += 1
        counts.append(manager.sat_count(new, machine.state_names))
        sizes.append(manager.count_nodes(new))
        if new is current:
            break
        current = new
    return ReachabilityResult(
        reachable=current,
        iterations=iterations,
        state_counts=counts,
        bdd_sizes=sizes,
    )
