"""Tests for transition relations, reachability, product machines and equivalence."""

import pytest

from repro.bdd import BDDManager
from repro.fsm import (
    SymbolicFSM,
    build_product,
    build_transition_relation,
    check_equivalence,
    reachable_states,
)
from repro.logic import (
    Netlist,
    counter,
    inverted_shift_register,
    parity_shift_register,
    shift_register,
    toggle_machine,
)


class TestTransitionRelation:
    def test_counter_relation_encodes_increments(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(counter(2), manager)
        relation = build_transition_relation(fsm)
        # 0 -> 1 is a transition; 0 -> 3 is not.
        def transition(present, nxt):
            env = {
                "q0": bool(present & 1),
                "q1": bool(present & 2),
                "q0#next": bool(nxt & 1),
                "q1#next": bool(nxt & 2),
            }
            return manager.evaluate(relation.relation, env)

        assert transition(0, 1) is True
        assert transition(1, 2) is True
        assert transition(3, 0) is True
        assert transition(0, 3) is False

    def test_image_of_reset_state(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(counter(2), manager)
        relation = build_transition_relation(fsm)
        image = relation.image(fsm.reset_cube())
        assert manager.evaluate(image, {"q0": True, "q1": False}) is True
        assert manager.evaluate(image, {"q0": False, "q1": False}) is False

    def test_image_with_input_constraint(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(toggle_machine(), manager)
        relation = build_transition_relation(fsm)
        stay = relation.image(fsm.reset_cube(), input_constraint=manager.nvar("enable"))
        toggle = relation.image(fsm.reset_cube(), input_constraint=manager.var("enable"))
        assert manager.evaluate(stay, {"state": False}) is True
        assert manager.evaluate(stay, {"state": True}) is False
        assert manager.evaluate(toggle, {"state": True}) is True

    def test_preimage_inverts_image(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(counter(2), manager)
        relation = build_transition_relation(fsm)
        # States that reach state 2 in one step: exactly state 1.
        target = manager.cube({"q0": False, "q1": True})
        pre = relation.preimage(target)
        assert manager.evaluate(pre, {"q0": True, "q1": False}) is True
        assert manager.evaluate(pre, {"q0": False, "q1": False}) is False


class TestReachability:
    def test_counter_reaches_all_states(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(counter(3), manager)
        result = reachable_states(fsm)
        assert result.reachable_state_count == 8
        assert result.iterations >= 7

    def test_toggle_machine_reaches_both_states(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(toggle_machine(), manager)
        result = reachable_states(fsm)
        assert result.reachable_state_count == 2

    def test_constrained_inputs_limit_reachability(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(toggle_machine(), manager)
        result = reachable_states(fsm, input_constraint=manager.nvar("enable"))
        assert result.reachable_state_count == 1

    def test_max_iterations_bounds_the_traversal(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(counter(3), manager)
        result = reachable_states(fsm, max_iterations=2)
        assert result.iterations == 2
        assert result.reachable_state_count <= 3

    def test_state_counts_are_monotone(self):
        manager = BDDManager()
        fsm = SymbolicFSM.from_netlist(counter(3), manager)
        result = reachable_states(fsm)
        assert result.state_counts == sorted(result.state_counts)
        assert len(result.bdd_sizes) == len(result.state_counts)


class TestProductAndEquivalence:
    def test_shift_register_equivalent_to_itself(self):
        manager = BDDManager()
        left = SymbolicFSM.from_netlist(shift_register(3), manager, prefix="L.")
        right = SymbolicFSM.from_netlist(shift_register(3), manager, prefix="R.")
        # Ports are prefixed, so map the right inputs onto the left ones.
        product = build_product(
            left,
            right,
            output_pairs=[("stage2", "stage2")],
            input_mapping={"R.din": "L.din"},
        )
        assert product.output_names() == ("equal",)
        result = check_equivalence_with_mapping(left, right, manager)
        assert result.equivalent

    def test_different_lengths_not_equivalent(self):
        manager = BDDManager()
        left = SymbolicFSM.from_netlist(shift_register(2), manager, prefix="L.")
        right = SymbolicFSM.from_netlist(shift_register(3), manager, prefix="R.")
        result = check_equivalence_with_mapping(
            left, right, manager, outputs=[("stage1", "stage2")]
        )
        assert not result.equivalent
        assert result.counterexample is not None

    def test_product_rejects_different_managers(self):
        left = SymbolicFSM.from_netlist(toggle_machine(), BDDManager(), prefix="L.")
        right = SymbolicFSM.from_netlist(toggle_machine(), BDDManager(), prefix="R.")
        with pytest.raises(ValueError):
            build_product(left, right)

    def test_product_rejects_state_collisions(self):
        manager = BDDManager()
        left = SymbolicFSM.from_netlist(toggle_machine(), manager)
        right = SymbolicFSM.from_netlist(toggle_machine(), manager)
        with pytest.raises(ValueError):
            build_product(left, right)

    def test_product_requires_common_outputs(self):
        manager = BDDManager()
        left = SymbolicFSM.from_netlist(shift_register(1), manager, prefix="L.")
        right = SymbolicFSM.from_netlist(shift_register(2), manager, prefix="R.")
        with pytest.raises(ValueError):
            build_product(left, right, output_pairs=None)

    def test_equivalence_of_behaviourally_equal_machines(self):
        """A two-stage shift register vs. an explicit re-implementation."""
        manager = BDDManager()
        left = SymbolicFSM.from_netlist(shift_register(2), manager, prefix="L.")

        other = Netlist("alt")
        other.add_input("din")
        other.add_latch("a", "din")
        other.add_latch("b", "a")
        other.add_gate("stage1", "BUF", ["b"])
        other.set_outputs(["stage1"])
        right = SymbolicFSM.from_netlist(other, manager, prefix="R.")

        result = check_equivalence_with_mapping(left, right, manager)
        assert result.equivalent
        assert result.reachable_state_count <= 16

    def test_parity_vs_plain_shift_register_differ(self):
        manager = BDDManager()
        left = SymbolicFSM.from_netlist(shift_register(3), manager, prefix="L.")
        right = SymbolicFSM.from_netlist(parity_shift_register(3), manager, prefix="R.")
        result = check_equivalence_with_mapping(
            left, right, manager, outputs=[("stage2", "parity2")]
        )
        assert not result.equivalent


def check_equivalence_with_mapping(left, right, manager, outputs=None):
    """Helper: equivalence check for prefixed machines sharing one input."""
    from repro.fsm.product import build_product
    from repro.fsm.reachability import reachable_states
    from repro.fsm.equivalence import EquivalenceResult

    if outputs is None:
        common = [name for name in left.outputs if name in right.outputs]
        outputs = [(name, name) for name in common]
    input_mapping = {
        right_name: left_name
        for right_name, left_name in zip(sorted(right.input_names), sorted(left.input_names))
    }
    product = build_product(left, right, output_pairs=outputs, input_mapping=input_mapping)
    reach = reachable_states(product)
    equal = product.outputs["equal"]
    violation = manager.apply_and(reach.reachable, manager.apply_not(equal))
    if manager.is_contradiction(violation):
        return EquivalenceResult(True, reach.iterations, reach.reachable_state_count)
    return EquivalenceResult(
        False,
        reach.iterations,
        reach.reachable_state_count,
        counterexample=manager.pick_assignment(violation),
    )


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
def test_delay_line_baseline_counts(length):
    """Section 3.4 baseline: the product of two delay lines reaches its
    2**length states in length + 1 image iterations."""
    manager = BDDManager()
    left = SymbolicFSM.from_netlist(shift_register(length), manager)
    right = SymbolicFSM.from_netlist(inverted_shift_register(length), manager)
    result = check_equivalence(left, right)
    assert result.equivalent
    assert result.iterations == length + 1
    assert result.reachable_state_count == 2**length


class TestCheckEquivalenceDirect:
    def test_same_port_names_path(self):
        """check_equivalence() works directly when port names already differ per machine."""
        manager = BDDManager()
        left_netlist = toggle_machine()
        right_netlist = Netlist("toggle_alt")
        right_netlist.add_input("enable")
        right_netlist.add_latch("alt_state", "alt_next", reset_value=False)
        right_netlist.add_gate("alt_next", "XOR", ["alt_state", "enable"])
        right_netlist.add_gate("state", "BUF", ["alt_state"])
        right_netlist.set_outputs(["state"])
        left = SymbolicFSM.from_netlist(left_netlist, manager)
        right = SymbolicFSM.from_netlist(right_netlist, manager)
        result = check_equivalence(left, right)
        assert result.equivalent
        assert result.reachable_state_count >= 2

    def test_detects_inequivalence(self):
        manager = BDDManager()
        left = SymbolicFSM.from_netlist(toggle_machine(), manager)
        broken = Netlist("broken")
        broken.add_input("enable")
        broken.add_latch("bstate", "bnext", reset_value=False)
        broken.add_gate("bnext", "OR", ["bstate", "enable"])  # sticks at 1 instead of toggling
        broken.add_gate("state", "BUF", ["bstate"])
        broken.set_outputs(["state"])
        right = SymbolicFSM.from_netlist(broken, manager)
        result = check_equivalence(left, right)
        assert not result.equivalent
        assert result.counterexample is not None
