#!/usr/bin/env python
"""Bring your own machine: the definite-machine toolkit on a custom design.

The verification methodology is not tied to the two bundled processors.
This example builds a small custom synchronous design twice — once as a
"specification" netlist and once as a re-pipelined "implementation" —
then:

1. detects the order of definiteness of both machines,
2. verifies them with the Theorem-4.3.1.1 procedure (k cycles of
   symbolic simulation instead of product-machine traversal),
3. runs the classical product-machine traversal as the baseline and
   compares the effort,
4. checks a concrete beta-relation between a serially-scheduled
   implementation and its combinational specification (Figure 2 style).

Run with:  python examples/custom_processor.py
"""

from repro.bdd import BDDManager
from repro.fsm import (
    SymbolicFSM,
    build_product,
    canonical_realization,
    definiteness_order,
    reachable_states,
    verify_definite_equivalence,
)
from repro.logic import Signal, serial_accumulator, shift_register
from repro.strings import MachineFunction, beta_holds_everywhere, periodic_filter


def align_inputs(manager, template, machine):
    """Rename the machine's inputs to the template's (shared stimulus)."""
    mapping = dict(zip(sorted(machine.input_names), sorted(template.input_names)))
    return SymbolicFSM(
        manager,
        input_names=list(template.input_names),
        state_names=list(machine.state_names),
        next_state={n: manager.rename(f, mapping) for n, f in machine.next_state.items()},
        outputs={n: manager.rename(f, mapping) for n, f in machine.outputs.items()},
        reset_state=machine.reset_state,
        name=machine.name,
    )


def main() -> int:
    manager = BDDManager()

    # A 4-cycle "pipeline" (delay line) and its canonical re-realization.
    specification = SymbolicFSM.from_netlist(shift_register(4), manager, prefix="spec.")
    implementation_netlist = canonical_realization(4, lambda stages: Signal(stages[3]))
    implementation = align_inputs(
        manager, specification, SymbolicFSM.from_netlist(implementation_netlist, manager, prefix="impl.")
    )

    spec_order = definiteness_order(specification, max_order=8)
    impl_order = definiteness_order(implementation, max_order=8)
    print(f"Specification is {spec_order}-definite; implementation is {impl_order}-definite.")

    result = verify_definite_equivalence(
        specification, implementation, spec_order, output_pairs=[("stage3", "out")]
    )
    print(
        f"Theorem 4.3.1.1 check: {'EQUIVALENT' if result.equivalent else 'DIFFERENT'} "
        f"after {result.cycles_simulated} symbolic cycles "
        f"(covering {result.sequences_covered} input sequences)."
    )

    product = build_product(
        specification, implementation, output_pairs=[("stage3", "out")]
    )
    reach = reachable_states(product)
    print(
        f"Baseline product-machine traversal: {reach.iterations} image iterations, "
        f"{reach.reachable_state_count} reachable product states."
    )

    # Figure-2 style beta-relation on a serially scheduled datapath.
    netlist = serial_accumulator(stages=6)

    class SerialFunction:
        def __call__(self, x):
            state = netlist.reset_state()
            out = []
            for char in x:
                observed, state = netlist.step({"x": bool(char)}, state)
                out.append(int(observed["acc"]))
            return tuple(out)

    serial_ok = beta_holds_everywhere(
        SerialFunction(),
        MachineFunction(lambda state, u: (state ^ u, state ^ u), 0),
        periodic_filter(6, offset=0),
        5,
        alphabet=(0, 1),
        max_length=12,
    )
    print(f"Serial datapath beta-relation (Figure 2 style): {'holds' if serial_ok else 'violated'}.")

    ok = result.equivalent and serial_ok
    print("Overall verdict:", "PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
