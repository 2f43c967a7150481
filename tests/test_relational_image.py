"""Property tests for the relational subsystem.

The load-bearing invariant: the partitioned, early-quantification image
computation must be **pointwise identical** — the same canonical node —
to the naive ``exists(vars, AND(frontier, parts...))`` route, on
machines with no hand-designed structure (seeded random netlists) and
on the extracted processor relations.
"""

import pytest

from repro.bdd import BDDManager
from repro.fsm import SymbolicFSM, build_transition_relation, reachable_states
from repro.logic import random_netlist
from repro.relational import (
    ConjunctivePartition,
    ImageComputer,
    QuantificationSchedule,
    TransitionRelation,
)

SEEDS = [0, 1, 2, 3, 4, 5, 6, 7]


def machine_for_seed(seed: int):
    manager = BDDManager()
    netlist = random_netlist(seed)
    machine = SymbolicFSM.from_netlist(netlist, manager)
    return manager, machine


def naive_image(manager, relation, states, constraint=None):
    """Reference implementation: conjoin everything, smooth once, rename."""
    current = states
    if constraint is not None:
        current = manager.apply_and(current, constraint)
    for part in relation.parts:
        current = manager.apply_and(current, part)
    smoothed = manager.exists(relation.input_names + relation.state_names, current)
    return manager.rename(smoothed, relation.present_of)


def some_frontiers(manager, machine, seed):
    """A few interesting state sets: reset cube, a partial cube, everything."""
    import random

    rng = random.Random(seed + 1000)
    yield machine.reset_cube()
    partial = {
        name: rng.random() < 0.5
        for name in machine.state_names
        if rng.random() < 0.6
    }
    yield manager.cube(partial) if partial else manager.one
    yield manager.one


@pytest.mark.parametrize("seed", SEEDS)
def test_partitioned_image_identical_to_naive_smoothing(seed):
    manager, machine = machine_for_seed(seed)
    relation = TransitionRelation.from_fsm(machine)
    computer = ImageComputer(relation, max_cluster_size=3, cluster_node_limit=200)
    for frontier in some_frontiers(manager, machine, seed):
        expected = naive_image(manager, relation, frontier)
        assert computer.image(frontier) is expected
        assert computer.monolithic_image(frontier) is expected


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_partitioned_image_with_input_constraint(seed):
    manager, machine = machine_for_seed(seed)
    relation = TransitionRelation.from_fsm(machine)
    computer = ImageComputer(relation)
    constraint = manager.cube({machine.input_names[0]: True})
    frontier = machine.reset_cube()
    expected = naive_image(manager, relation, frontier, constraint)
    assert computer.image(frontier, constraint) is expected


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_preimage_identical_to_naive(seed):
    manager, machine = machine_for_seed(seed)
    relation = TransitionRelation.from_fsm(machine)
    computer = ImageComputer(relation)
    target = machine.reset_cube()
    renamed = manager.rename(target, relation.next_of)
    current = renamed
    for part in relation.parts:
        current = manager.apply_and(current, part)
    expected = manager.exists(relation.input_names + relation.next_names, current)
    assert computer.preimage(target) is expected


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_partitioned_matches_monolithic_fsm_relation(seed):
    """The subsystem agrees with the legacy fsm.transition route."""
    manager, machine = machine_for_seed(seed)
    legacy = build_transition_relation(machine)
    computer = ImageComputer(TransitionRelation.from_fsm(machine))
    frontier = machine.reset_cube()
    assert computer.image(frontier) is legacy.image(frontier)
    assert computer.preimage(frontier) is legacy.preimage(frontier)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_reachability_default_engine_matches_monolithic(seed):
    manager, machine = machine_for_seed(seed)
    partitioned = reachable_states(machine)
    monolithic = reachable_states(machine, build_transition_relation(machine))
    assert partitioned.reachable is monolithic.reachable
    assert partitioned.state_counts == monolithic.state_counts
    assert partitioned.iterations == monolithic.iterations


def test_partition_respects_bounds():
    manager, machine = machine_for_seed(11)
    relation = TransitionRelation.from_fsm(machine)
    partition = ConjunctivePartition.build(
        manager, relation.parts, max_cluster_size=2, cluster_node_limit=50
    )
    members = sorted(index for cluster in partition for index in cluster.members)
    assert members == list(range(len(relation.parts)))  # exact cover
    for cluster in partition:
        assert len(cluster.members) <= 2


def test_schedule_quantifies_each_variable_exactly_once():
    manager, machine = machine_for_seed(12)
    relation = TransitionRelation.from_fsm(machine)
    partition = ConjunctivePartition.build(manager, relation.parts, max_cluster_size=3)
    schedule = QuantificationSchedule.build(
        partition,
        quantify=relation.input_names + relation.state_names,
        keep=relation.next_names,
    )
    schedule.validate()
    # Early quantification must be sound: a variable quantified at step i
    # may not appear in the support of any later cluster.
    for index, step in enumerate(schedule.steps):
        later = set()
        for other in schedule.steps[index + 1 :]:
            later |= other.cluster.support
        assert not (set(step.quantify) & later)


def test_image_stats_report_peak_and_strategy():
    manager, machine = machine_for_seed(3)
    relation = TransitionRelation.from_fsm(machine)
    computer = ImageComputer(relation)
    computer.image(machine.reset_cube())
    stats = computer.last_stats
    assert stats.strategy == "partitioned"
    assert stats.steps == len(computer.partition)
    assert stats.peak_live_nodes >= stats.result_nodes
    computer.monolithic_image(machine.reset_cube())
    assert computer.last_stats.strategy == "monolithic"


class TestProcessorRelations:
    """Relation extraction from the symbolic VSM models."""

    def test_pipelined_relation_images_match_both_paths(self):
        from repro.core.architectures import VSMArchitecture
        from repro.relational import pipelined_vsm_relation
        from repro.relational.models import FETCH_VALID
        from repro.strings import NORMAL

        manager = BDDManager()
        relation, reset = pipelined_vsm_relation(manager)
        computer = ImageComputer(relation)
        arch = VSMArchitecture()
        cube = {
            f"in.word[{bit}]": value
            for bit, value in arch.instruction_class_cube(NORMAL).items()
        }
        cube[FETCH_VALID] = True
        constraint = manager.cube(cube)
        frontier = manager.cube(reset)
        fast = computer.image(frontier, constraint)
        baseline = computer.monolithic_image(frontier, constraint)
        assert fast is baseline
        assert computer.last_stats.strategy == "monolithic"

    def test_pipelined_relation_agrees_with_functional_step(self):
        """A concrete transition of the model satisfies the relation image."""
        from repro.logic import BitVec
        from repro.processors.sym_vsm import SymbolicPipelinedVSM
        from repro.relational import pipelined_vsm_relation
        from repro.relational.models import FETCH_VALID

        manager = BDDManager()
        relation, reset = pipelined_vsm_relation(manager)
        computer = ImageComputer(relation)

        word = 0b0000_1_001_010_011  # add-ish encoding, arbitrary concrete word
        cube = {f"in.word[{bit}]": bool(word >> bit & 1) for bit in range(13)}
        cube[FETCH_VALID] = True
        image = computer.image(manager.cube(reset), manager.cube(cube))

        # Drive the functional model through the same concrete transition.
        model = SymbolicPipelinedVSM(manager)
        model.step(BitVec.constant(manager, word, 13))
        after = model.state_formulae()
        assignment = {}
        for field, vector in after.items():
            for bit in range(vector.width):
                value = vector[bit]
                assert value.is_terminal  # concrete machine state stays concrete
                assignment[f"ps.{field}[{bit}]"] = bool(value.value)
        assert manager.evaluate(image, assignment)
        # The image of a concrete state under a concrete input is that
        # single next state.
        assert manager.sat_count(image, relation.state_names) == 1

    def test_unpipelined_relation_single_successor(self):
        from repro.relational import unpipelined_vsm_relation

        manager = BDDManager()
        relation, reset = unpipelined_vsm_relation(manager)
        computer = ImageComputer(relation)
        word = 0b0000_0_000_000_001
        cube = {f"in.word[{bit}]": bool(word >> bit & 1) for bit in range(13)}
        image = computer.image(manager.cube(reset), manager.cube(cube))
        assert manager.sat_count(image, relation.state_names) == 1
