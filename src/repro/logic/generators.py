"""Parametric netlist generators used by tests and benchmarks.

These mirror the small circuits that appear throughout the paper:
counters (the modulo-2 counter filter of Figure 1), shift registers (the
canonical realization of a definite machine, Figure 4), ripple-carry
adders (the variable-ordering example of Section 3.2), word
comparators, and the serially-scheduled datapath of Figure 2.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .netlist import Netlist


def counter(width: int, name: str = "counter") -> Netlist:
    """A free-running modulo-2**width counter with the count as output.

    With ``width == 1`` this is the modulo-2 counter used as the
    filtering function H in Figure 1 of the paper.
    """
    netlist = Netlist(name)
    state = [f"q{i}" for i in range(width)]
    for net in state:
        netlist.add_latch(net, f"{net}_next", reset_value=False)
    carry = None
    for i, net in enumerate(state):
        if i == 0:
            netlist.add_gate(f"{net}_next", "NOT", [net])
            carry = net
        else:
            netlist.add_gate(f"{net}_next", "XOR", [net, carry])
            new_carry = f"carry{i}"
            netlist.add_gate(new_carry, "AND", [net, carry])
            carry = new_carry
    netlist.set_outputs(state)
    return netlist


def shift_register(length: int, name: str = "shift_register") -> Netlist:
    """A 1-bit-wide shift register of the given length.

    This is the canonical realization of a ``length``-definite machine
    (Figure 4): the state is exactly the last ``length`` inputs.
    """
    netlist = Netlist(name)
    netlist.add_input("din")
    previous = "din"
    for i in range(length):
        stage = f"stage{i}"
        netlist.add_latch(stage, previous, reset_value=False)
        previous = stage
    netlist.set_outputs([previous])
    return netlist


def parity_shift_register(length: int, name: str = "parity_shift_register") -> Netlist:
    """A shift register whose output is the parity of the last ``length`` inputs.

    A second, functionally equivalent realization of a definite machine;
    used to exercise FSM equivalence checks.
    """
    netlist = Netlist(name)
    netlist.add_input("din")
    previous = "din"
    stages: List[str] = []
    for i in range(length):
        stage = f"stage{i}"
        netlist.add_latch(stage, previous, reset_value=False)
        stages.append(stage)
        previous = stage
    parity = stages[0]
    for i, stage in enumerate(stages[1:], start=1):
        next_parity = f"parity{i}"
        netlist.add_gate(next_parity, "XOR", [parity, stage])
        parity = next_parity
    netlist.set_outputs([parity])
    return netlist


def inverted_shift_register(length: int, name: str = "inverted_shift_register") -> Netlist:
    """A shift register that stores every stage inverted.

    Behaviourally equal to :func:`shift_register` — same input ``din``,
    same output ``stage{length-1}`` — over latches ``neg{i}`` that reset
    to 1; the structurally different partner of the product-machine
    equivalence baseline.
    """
    netlist = Netlist(name)
    netlist.add_input("din")
    previous = "din"
    for i in range(length):
        netlist.add_gate(f"inv_in{i}", "NOT", [previous])
        netlist.add_latch(f"neg{i}", f"inv_in{i}", reset_value=True)
        netlist.add_gate(f"pos{i}", "NOT", [f"neg{i}"])
        previous = f"pos{i}"
    netlist.add_gate(f"stage{length - 1}", "BUF", [previous])
    netlist.set_outputs([f"stage{length - 1}"])
    return netlist


def ripple_adder(width: int, name: str = "ripple_adder", registered: bool = False) -> Netlist:
    """A ``width``-bit ripple-carry adder (optionally with registered output).

    Inputs ``a{i}`` and ``b{i}``, outputs ``s{i}`` plus carry-out ``cout``.
    """
    netlist = Netlist(name)
    a = [netlist.add_input(f"a{i}") for i in range(width)]
    b = [netlist.add_input(f"b{i}") for i in range(width)]
    carry = None
    outputs = []
    for i in range(width):
        axb = f"axb{i}"
        netlist.add_gate(axb, "XOR", [a[i], b[i]])
        if carry is None:
            sum_net = f"sum{i}"
            netlist.add_gate(sum_net, "BUF", [axb])
            carry_net = f"c{i}"
            netlist.add_gate(carry_net, "AND", [a[i], b[i]])
        else:
            sum_net = f"sum{i}"
            netlist.add_gate(sum_net, "XOR", [axb, carry])
            and1 = f"and1_{i}"
            and2 = f"and2_{i}"
            netlist.add_gate(and1, "AND", [a[i], b[i]])
            netlist.add_gate(and2, "AND", [axb, carry])
            carry_net = f"c{i}"
            netlist.add_gate(carry_net, "OR", [and1, and2])
        carry = carry_net
        if registered:
            reg = f"s{i}"
            netlist.add_latch(reg, sum_net, reset_value=False)
            outputs.append(reg)
        else:
            outputs.append(sum_net)
    if registered:
        netlist.add_latch("cout", carry, reset_value=False)
        outputs.append("cout")
    else:
        netlist.add_gate("cout", "BUF", [carry])
        outputs.append("cout")
    netlist.set_outputs(outputs)
    return netlist


def equality_comparator(width: int, name: str = "comparator") -> Netlist:
    """Combinational equality comparator of two ``width``-bit words."""
    netlist = Netlist(name)
    terms = []
    for i in range(width):
        a = netlist.add_input(f"a{i}")
        b = netlist.add_input(f"b{i}")
        term = f"eq{i}"
        netlist.add_gate(term, "XNOR", [a, b])
        terms.append(term)
    netlist.add_gate("equal", "AND", terms)
    netlist.set_outputs(["equal"])
    return netlist


def random_netlist(
    seed: int,
    num_inputs: int = 3,
    num_latches: int = 4,
    num_gates: int = 12,
    name: str = "random",
) -> Netlist:
    """A seeded pseudo-random sequential netlist.

    Used by the property tests: image computation is checked against
    machines with no hand-designed structure.  The same seed always
    produces the same netlist.
    """
    rng = random.Random(seed)
    netlist = Netlist(f"{name}{seed}")
    readable: List[str] = []
    for i in range(num_inputs):
        netlist.add_input(f"in{i}")
        readable.append(f"in{i}")
    for i in range(num_latches):
        netlist.add_latch(f"state{i}", f"state{i}_next", reset_value=rng.random() < 0.5)
        readable.append(f"state{i}")
    gates: List[str] = []
    for i in range(num_gates):
        net = f"g{i}"
        kind = rng.choice(["AND", "OR", "XOR", "XNOR", "NOT", "BUF"])
        arity = 1 if kind in ("NOT", "BUF") else 2
        netlist.add_gate(net, kind, [rng.choice(readable) for _ in range(arity)])
        readable.append(net)
        gates.append(net)
    for i in range(num_latches):
        netlist.add_gate(f"state{i}_next", "BUF", [rng.choice(gates)])
    outputs = rng.sample(gates, k=min(2, len(gates)))
    netlist.set_outputs(outputs)
    return netlist


def toggle_machine(name: str = "toggle") -> Netlist:
    """A machine whose single output toggles whenever the input is 1."""
    netlist = Netlist(name)
    netlist.add_input("enable")
    netlist.add_latch("state", "state_next", reset_value=False)
    netlist.add_gate("state_next", "XOR", ["state", "enable"])
    netlist.set_outputs(["state"])
    return netlist


def serial_accumulator(name: str = "serial_accumulator", stages: int = 6) -> Netlist:
    """The Figure-2 style serial implementation skeleton.

    A controller sequences through ``stages`` states; the single data
    latch accumulates the XOR of the sampled inputs taken in state 0.
    The output is only meaningful in the last state, so the machine is
    in beta-relation with a purely combinational specification that
    produces a result every cycle.
    """
    netlist = Netlist(name)
    netlist.add_input("x")
    # One-hot controller over `stages` states.
    for i in range(stages):
        netlist.add_latch(f"ctrl{i}", f"ctrl{i}_next", reset_value=(i == 0))
    for i in range(stages):
        previous = (i - 1) % stages
        netlist.add_gate(f"ctrl{i}_next", "BUF", [f"ctrl{previous}"])
    # Data path: sample x in state 0, hold otherwise.
    netlist.add_latch("acc", "acc_next", reset_value=False)
    netlist.add_gate("sampled", "AND", ["x", "ctrl0"])
    netlist.add_gate("acc_next", "XOR", ["acc", "sampled"])
    netlist.add_gate("valid", "BUF", [f"ctrl{stages - 1}"])
    netlist.set_outputs(["acc", "valid"])
    return netlist
