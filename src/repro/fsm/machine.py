"""Symbolic finite state machines.

A :class:`SymbolicFSM` is a synchronous machine whose next-state and
output functions are held as BDDs over *current-state* and *input*
variables.  Machines are usually extracted from a gate-level
:class:`~repro.logic.netlist.Netlist`, but can also be assembled
directly (the processor models do the latter through the symbolic
simulator).

Two complementary ways of rolling a machine forward are provided:

* :meth:`SymbolicFSM.unroll` — functional symbolic simulation: fresh
  input variables are created for every cycle and the state formulae are
  composed forward.  This is the engine behind the definite-machine
  verification of Chapter 4 and the processor verification of Chapter 5.
* the transition-relation route (:mod:`repro.fsm.transition`,
  :mod:`repro.fsm.reachability`) — implicit state enumeration by image
  computation, the classical procedure of Chapter 3 that the paper's
  method is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd import BDDManager, BDDNode
from ..logic.netlist import Netlist


@dataclass
class UnrolledTrace:
    """Result of functional symbolic simulation of an FSM.

    ``states[t]`` holds the state-bit formulae *before* cycle ``t`` is
    executed (so ``states[0]`` is the reset state) and ``outputs[t]``
    holds the output formulae produced during cycle ``t``; both are maps
    from signal name to BDD.  ``input_names[t]`` lists the fresh input
    variable names created for cycle ``t``.
    """

    states: List[Dict[str, BDDNode]] = field(default_factory=list)
    outputs: List[Dict[str, BDDNode]] = field(default_factory=list)
    input_names: List[Dict[str, str]] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        """Number of simulated cycles."""
        return len(self.outputs)


class SymbolicFSM:
    """A synchronous machine with BDD next-state and output functions."""

    def __init__(
        self,
        manager: BDDManager,
        input_names: Sequence[str],
        state_names: Sequence[str],
        next_state: Mapping[str, BDDNode],
        outputs: Mapping[str, BDDNode],
        reset_state: Mapping[str, bool],
        name: str = "fsm",
    ) -> None:
        self.manager = manager
        self.name = name
        self.input_names = list(input_names)
        self.state_names = list(state_names)
        self.next_state = dict(next_state)
        self.outputs = dict(outputs)
        self.reset_state = {bit: bool(reset_state.get(bit, False)) for bit in state_names}
        missing = [bit for bit in state_names if bit not in self.next_state]
        if missing:
            raise ValueError(f"missing next-state functions for {missing}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_netlist(
        cls, netlist: Netlist, manager: BDDManager, prefix: str = ""
    ) -> "SymbolicFSM":
        """Extract a symbolic FSM from a gate-level netlist.

        ``prefix`` is prepended to every input and state variable name,
        which keeps two machines (e.g. specification and implementation)
        apart inside one shared manager.
        """
        netlist.validate()
        output_functions, next_state_functions = netlist.build_bdds(manager, prefix=prefix)
        input_names = [prefix + name for name in netlist.primary_inputs]
        state_names = [prefix + latch.output for latch in netlist.latches]
        next_state = {
            prefix + name: node for name, node in next_state_functions.items()
        }
        outputs = {name: node for name, node in output_functions.items()}
        reset = {prefix + latch.output: bool(latch.reset_value) for latch in netlist.latches}
        return cls(
            manager,
            input_names,
            state_names,
            next_state,
            outputs,
            reset,
            name=prefix.rstrip(".") or netlist.name,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def reset_cube(self) -> BDDNode:
        """Characteristic function of the reset state."""
        return self.manager.cube(self.reset_state)

    def reset_formulae(self) -> Dict[str, BDDNode]:
        """Reset state as constant formulae per state bit."""
        return {
            name: self.manager.constant(value) for name, value in self.reset_state.items()
        }

    def output_names(self) -> Tuple[str, ...]:
        """Names of the machine outputs."""
        return tuple(self.outputs)

    def state_count_bound(self) -> int:
        """Upper bound on the number of states (2**state bits)."""
        return 1 << len(self.state_names)

    # ------------------------------------------------------------------
    # Functional symbolic simulation
    # ------------------------------------------------------------------
    def unroll(
        self,
        cycles: int,
        input_prefix: str = "",
        input_constraints: Optional[Sequence[Optional[Mapping[str, BDDNode]]]] = None,
        initial_state: Optional[Mapping[str, BDDNode]] = None,
    ) -> UnrolledTrace:
        """Simulate ``cycles`` cycles with fresh symbolic inputs per cycle.

        ``input_constraints`` optionally gives, per cycle, a map from
        input name to the BDD formula to use for that input *instead of*
        a fresh variable (e.g. a constant for a reset line, or a shared
        instruction variable also fed to the other machine).  Inputs not
        mentioned get a fresh variable named
        ``{input_prefix}{input}@{cycle}``.

        ``initial_state`` optionally overrides the reset state with
        arbitrary formulae (used by the definite-machine procedures,
        which start from a fully symbolic state).
        """
        manager = self.manager
        if initial_state is None:
            state = self.reset_formulae()
        else:
            state = {name: initial_state[name] for name in self.state_names}
        trace = UnrolledTrace()
        trace.states.append(dict(state))
        for cycle in range(cycles):
            constraint = None
            if input_constraints is not None and cycle < len(input_constraints):
                constraint = input_constraints[cycle]
            substitution: Dict[str, BDDNode] = {}
            created: Dict[str, str] = {}
            for name in self.input_names:
                if constraint is not None and name in constraint:
                    substitution[name] = constraint[name]
                else:
                    fresh = f"{input_prefix}{name}@{cycle}"
                    substitution[name] = manager.var(fresh)
                    created[name] = fresh
            substitution.update(state)
            # Outputs and next state in one walk, so they share one memo.
            images = manager.compose_all(
                list(self.outputs.values()) + list(self.next_state.values()),
                substitution,
            )
            outputs = dict(zip(self.outputs, images))
            next_state = dict(zip(self.next_state, images[len(self.outputs):]))
            trace.outputs.append(outputs)
            trace.input_names.append(created)
            state = next_state
            trace.states.append(dict(state))
        return trace

    # ------------------------------------------------------------------
    # Concrete execution (for cross-checking)
    # ------------------------------------------------------------------
    def run(
        self, input_sequence: Sequence[Mapping[str, bool]]
    ) -> List[Dict[str, bool]]:
        """Concrete simulation from reset; returns the output trace."""
        manager = self.manager
        state = {name: bool(value) for name, value in self.reset_state.items()}
        trace: List[Dict[str, bool]] = []
        for inputs in input_sequence:
            assignment: Dict[str, bool] = dict(state)
            for name in self.input_names:
                assignment[name] = bool(inputs[name])
            trace.append(
                {name: manager.evaluate(fn, assignment) for name, fn in self.outputs.items()}
            )
            state = {
                name: manager.evaluate(fn, assignment) for name, fn in self.next_state.items()
            }
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SymbolicFSM {self.name!r} inputs={len(self.input_names)} "
            f"state_bits={len(self.state_names)} outputs={len(self.outputs)}>"
        )
