"""Property tests for the Section 3.4 baseline's image computation.

The load-bearing invariant: the monolithic transition relation of
:mod:`repro.fsm.transition` returns **pointwise identical** results —
the same canonical node — to the naive ``exists(vars, AND(frontier,
parts...))`` route, on seeded random netlists, machines with no
hand-designed structure.  The test names are those of the partitioned
engine these checks were first written against; that engine is gone
and the monolithic relation is the only image engine.
"""

import itertools
import random

import pytest

from repro.bdd import BDDManager
from repro.fsm import SymbolicFSM, build_transition_relation
from repro.logic import random_netlist

SEEDS = [0, 1, 2, 3, 4, 5, 6, 7]


def machine_for_seed(seed: int):
    manager = BDDManager()
    machine = SymbolicFSM.from_netlist(random_netlist(seed), manager)
    return manager, machine


def naive_parts(manager, machine):
    """One ``s#next XNOR next_state(s)`` conjunct per state bit."""
    next_of = {name: name + "#next" for name in machine.state_names}
    parts = [
        manager.apply_xnor(manager.var(next_of[name]), machine.next_state[name])
        for name in machine.state_names
    ]
    return next_of, parts


def naive_image(manager, machine, states, constraint=None):
    """Reference implementation: conjoin everything, smooth once, rename."""
    next_of, parts = naive_parts(manager, machine)
    current = states
    if constraint is not None:
        current = manager.apply_and(current, constraint)
    for part in parts:
        current = manager.apply_and(current, part)
    smoothed = manager.exists(
        list(machine.input_names) + list(machine.state_names), current
    )
    return manager.rename(smoothed, {nxt: name for name, nxt in next_of.items()})


def naive_preimage(manager, machine, target):
    """Reference inverse image: rename to next-state, conjoin, smooth once."""
    next_of, parts = naive_parts(manager, machine)
    current = manager.rename(target, next_of)
    for part in parts:
        current = manager.apply_and(current, part)
    return manager.exists(list(machine.input_names) + list(next_of.values()), current)


def some_frontiers(manager, machine, seed):
    """A few interesting state sets: reset cube, a partial cube, everything."""
    rng = random.Random(seed + 1000)
    yield machine.reset_cube()
    partial = {
        name: rng.random() < 0.5
        for name in machine.state_names
        if rng.random() < 0.6
    }
    yield manager.cube(partial) if partial else manager.one
    yield manager.one


def assignments(names):
    for values in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, values))


@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_image_identical_to_naive_smoothing(seed):
    manager, machine = machine_for_seed(seed)
    relation = build_transition_relation(machine)
    for frontier in some_frontiers(manager, machine, seed):
        assert relation.image(frontier) is naive_image(manager, machine, frontier)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_partitioned_image_with_input_constraint(seed):
    manager, machine = machine_for_seed(seed)
    relation = build_transition_relation(machine)
    constraint = manager.cube({machine.input_names[0]: True})
    for frontier in some_frontiers(manager, machine, seed):
        expected = naive_image(manager, machine, frontier, constraint)
        assert relation.image(frontier, constraint) is expected


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_preimage_identical_to_naive(seed):
    manager, machine = machine_for_seed(seed)
    relation = build_transition_relation(machine)
    for target in some_frontiers(manager, machine, seed):
        assert relation.preimage(target) is naive_preimage(manager, machine, target)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_partitioned_matches_monolithic_fsm_relation(seed):
    """The monolithic relation agrees with concrete simulation of the
    machine's next-state functions, state by state and input by input."""
    manager, machine = machine_for_seed(seed)
    relation = build_transition_relation(machine)
    reset = machine.reset_state
    reaches_reset = manager.zero
    for state in assignments(machine.state_names):
        for inputs in assignments(machine.input_names):
            point = {**state, **inputs}
            successor = {
                name: manager.evaluate(machine.next_state[name], point)
                for name in machine.state_names
            }
            image = relation.image(manager.cube(state), manager.cube(inputs))
            assert image is manager.cube(successor)
            if successor == reset:
                reaches_reset = manager.apply_or(reaches_reset, manager.cube(state))
    assert relation.preimage(machine.reset_cube()) is reaches_reset
