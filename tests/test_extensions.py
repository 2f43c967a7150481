"""Tests for the advanced-pipeline extensions: events/interrupts (Section 5.5),
dynamic scheduling (5.6), superscalar issue (5.7) and the Burch-Dill style
flushing comparison point."""

import hashlib
import json
import random

import pytest

from repro.bdd import BDDManager
from repro.core import SimulationInfo, VSMArchitecture, all_normal, vsm_default
from repro.core.dynamic_beta import verify_superscalar_schedule, verify_with_events
from repro.core.flushing import verify_by_flushing
from repro.engine import Scenario, execute_scenario
from repro.engine.executor import run_events
from repro.engine.scenario import EVENTS, VSM
from repro.isa import VSMInstruction, assemble_vsm
from repro.isa import vsm as isa
from repro.logic import BitVec
from repro.processors.interrupts import (
    INTERRUPT_HANDLER_ADDRESS,
    INTERRUPT_LINK_REGISTER,
    SymbolicPipelinedVSMWithEvents,
    SymbolicUnpipelinedVSMWithEvents,
)
from repro.processors.scoreboard import ScoreboardVSM
from repro.processors.superscalar import SuperscalarVSM
from repro.processors.vsm_unpipelined import UnpipelinedVSM
from repro.relational.beta import beta_stimulus_order
from repro.strings import CONTROL, NORMAL


def constant_instruction(manager, instruction):
    return BitVec.constant(manager, instruction.encode(), isa.INSTRUCTION_WIDTH)


class TestInterruptModels:
    def test_specification_trap_semantics(self):
        manager = BDDManager()
        machine = SymbolicUnpipelinedVSMWithEvents(manager)
        add = VSMInstruction("add", literal_flag=True, ra=0, rb=5, rc=1)
        machine.execute_instruction(constant_instruction(manager, add))
        observation = machine.execute_instruction(constant_instruction(manager, add), event=True)
        # The trapped instruction did not execute; the link holds its PC.
        assert observation[f"reg{INTERRUPT_LINK_REGISTER}"].as_constant() == 1
        assert observation["pc_next"].as_constant() == INTERRUPT_HANDLER_ADDRESS
        assert observation["reg1"].as_constant() == 5  # from the first instruction only

    def test_pipelined_trap_matches_specification(self):
        report = verify_with_events(vsm_default(), event_slots=[1])
        assert report.passed, report.summary()
        assert report.extra["event_slots"] == [1]

    def test_event_on_every_slot_passes(self):
        for slot in range(4):
            report = verify_with_events(all_normal(4), event_slots=[slot])
            assert report.passed, f"event at slot {slot}: {report.summary()}"

    def test_broken_link_save_is_caught(self):
        report = verify_with_events(
            all_normal(4), event_slots=[2], impl_kwargs={"break_event_link": True}
        )
        assert not report.passed
        assert any(m.observable == f"reg{INTERRUPT_LINK_REGISTER}" for m in report.mismatches)

    def test_event_slot_bounds_checked(self):
        with pytest.raises(ValueError):
            verify_with_events(all_normal(4), event_slots=[9])

    def test_dynamic_filter_marks_event_slot_like_control(self):
        report = verify_with_events(all_normal(4), event_slots=[0])
        assert report.slot_kinds[0] == CONTROL
        assert report.implementation_cycles == len(report.implementation_filter)


def storm(slots, event_slots, symbolic_initial_state=False):
    return Scenario(
        name="storm",
        kind=EVENTS,
        design=VSM,
        slots=slots,
        event_slots=event_slots,
        break_event_link=True,
        symbolic_initial_state=symbolic_initial_state,
    )


N, C = NORMAL, CONTROL

#: Failing interrupt storms and the SHA-256 of their canonical verdict
#: JSON, recorded when ``run_events`` still declared its stimulus
#: slot-major and walked witnesses in its manager's order.  The
#: selector-first order must not move a witness byte.
STORM_VERDICT_PINS = [
    ((N, N, N, N), (3,), False, "492cabd825b65afcfc94d6e604957f8047fc237db781393a6fcf76075978d9f1"),
    ((N, N, N, N), (1,), False, "37632fb13597f5134dadbb1c4efe5adf741fca68ad4cfe5d7068807fc558c2d3"),
    ((N, N, N, C), (1,), False, "b8ca9cd1a42f87d407b517e9db5104dc18fe45eca3d88afed9c551f1fbc6d9c1"),
    ((N, C, N, N), (3,), False, "ba2501833fe80b38ea400ca7d94f4d6ada34046fa4b0f1e3b4e479f47501878a"),
    ((N, C, N), (2,), False, "dfbb8555e603c79331e5417abb26e6897f06f0a1400032d859b2f6b6a266e217"),
    ((N, N, N), (1,), True, "9713ad81f309989018bda336ff2f491cdb99872d9a0e370338fccadf283dd1c2"),
    ((C, N, N), (1,), True, "4e4578157d43f1e22dc6a731631b18a8de8d3fef5eca7dca780b0bc261e13f81"),
]


class TestEventsOnTheBetaPath:
    """``run_events`` builds under the beta stimulus order and compares
    through the beta path's shared distinguisher."""

    @pytest.mark.parametrize("slots,event_slots,symbolic,digest", STORM_VERDICT_PINS)
    def test_storm_witness_bytes_are_pinned(self, slots, event_slots, symbolic, digest):
        outcome = execute_scenario(storm(slots, event_slots, symbolic))
        assert not outcome.passed and outcome.mismatches
        verdict = json.dumps(outcome.verdict(), sort_keys=True).encode()
        assert hashlib.sha256(verdict).hexdigest() == digest

    def test_four_slot_storm_stays_small(self):
        """Slot-major, this storm built 1,471,088 nodes."""
        outcome = execute_scenario(storm((N, N, N, N), (3,)))
        assert not outcome.passed
        assert outcome.bdd_nodes < 100_000

    def test_stimulus_is_declared_selector_first(self):
        siminfo = SimulationInfo(reset_cycles=1, slots=(N, C, N))
        squashed = {1: ["squashed1.0"], 2: ["squashed2.0", "squashed2.1"]}
        manager = BDDManager()
        run_events(siminfo, event_slots=[2], manager=manager, symbolic_initial_state=True)
        order = beta_stimulus_order(VSMArchitecture(), siminfo, squashed)
        assert manager.variables[: len(order)] == tuple(order)
        assert all(name.startswith("init.") for name in manager.variables[len(order):])

    def test_witnesses_do_not_follow_the_manager_order(self):
        """Witnesses walk the stimulus in build order, so a manager that
        declared the same variables upside down yields the same bytes."""
        scenario = storm((C, N, N), (1,))
        fresh_manager = BDDManager()
        fresh = execute_scenario(scenario, manager=fresh_manager)
        manager = BDDManager()
        manager.declare_all(reversed(fresh_manager.variables))
        assert execute_scenario(scenario, manager=manager).verdict() == fresh.verdict()


class TestSuperscalarVSM:
    def test_independent_instructions_pair_up(self):
        program = assemble_vsm(
            """
            add r1, r0, #1
            add r2, r0, #2
            add r3, r0, #3
            add r4, r0, #4
            """
        )
        machine = SuperscalarVSM(issue_width=2)
        completions, _ = machine.run(program)
        assert completions == [2, 2]
        assert machine.instructions_retired == 4

    def test_dependent_instructions_split_groups(self):
        program = assemble_vsm("add r1, r0, #1\nadd r2, r1, #2")
        completions, _ = SuperscalarVSM(issue_width=2).run(program)
        assert completions == [1, 1]

    def test_branch_ends_group(self):
        program = assemble_vsm("add r1, r0, #1\nbr r7, 2\nadd r2, r0, #2")
        completions, _ = SuperscalarVSM(issue_width=2).run(program)
        assert completions[0] == 1 or completions[0] == 2
        assert sum(completions) == 3

    def test_issue_width_validation(self):
        with pytest.raises(ValueError):
            SuperscalarVSM(issue_width=0)

    def test_dynamic_beta_check_passes(self):
        rng = random.Random(11)
        program = isa.random_program(rng, 12, allow_control_transfer=False)
        result = verify_superscalar_schedule(program, issue_width=2)
        assert result.passed, result.mismatches
        assert result.instructions_executed == 12
        assert 1.0 <= result.speedup <= 2.0
        assert sum(result.completions_per_cycle) == 12

    def test_dynamic_beta_check_with_branches(self):
        program = assemble_vsm(
            """
            add r1, r0, #1
            add r2, r0, #2
            br r7, 3
            xor r3, r1, r2
            """
        )
        result = verify_superscalar_schedule(program, issue_width=2)
        assert result.passed, result.mismatches


class TestScoreboardVSM:
    def test_out_of_order_completion_happens(self):
        # A two-cycle add followed by an independent one-cycle or: the or
        # completes first.
        program = assemble_vsm("add r1, r0, #1\nor r2, r0, #2")
        trace = ScoreboardVSM(functional_units=2).run(program)
        assert trace.completion_order == [1, 0]

    def test_dependent_instructions_stay_in_order(self):
        program = assemble_vsm("add r1, r0, #1\nor r2, r1, #2")
        trace = ScoreboardVSM(functional_units=2).run(program)
        assert trace.completion_order == [0, 1]

    def test_final_state_matches_specification(self):
        rng = random.Random(3)
        for _ in range(10):
            program = isa.random_program(rng, 8, allow_control_transfer=False)
            scoreboard = ScoreboardVSM(functional_units=3)
            trace = scoreboard.run(program)
            spec = UnpipelinedVSM()
            for instruction in program:
                spec.execute_instruction(instruction.encode())
            assert scoreboard.state.registers == spec.state.registers
            assert scoreboard.state.pc == spec.state.pc

    def test_in_order_points_allow_dynamic_beta_comparison(self):
        program = assemble_vsm(
            """
            add r1, r0, #1
            or  r2, r0, #2
            add r3, r2, #3
            """
        )
        scoreboard = ScoreboardVSM(functional_units=2)
        trace = scoreboard.run(program)
        spec = UnpipelinedVSM()
        spec_states = [spec.observe()]
        for instruction in program:
            spec_states.append(spec.execute_instruction(instruction.encode()))
        points = trace.in_order_points()
        assert points  # at least the final state is comparable
        for cycle, completed in points:
            impl_obs = trace.observations[cycle]
            spec_obs = spec_states[completed]
            for name, value in spec_obs.items():
                if name.startswith("reg") or name == "pc_next":
                    assert impl_obs[name] == value

    def test_functional_unit_validation(self):
        with pytest.raises(ValueError):
            ScoreboardVSM(functional_units=0)


class TestFlushingCheck:
    def test_correct_vsm_passes(self):
        report = verify_by_flushing(VSMArchitecture(), warmup_instructions=2)
        assert report.passed, report.summary()
        assert report.flush_cycles == 4

    def test_bypass_bug_is_caught(self):
        report = verify_by_flushing(
            VSMArchitecture(), warmup_instructions=2, impl_kwargs={"bug": "no_bypass"}
        )
        assert not report.passed

    def test_branch_probe_passes(self):
        report = verify_by_flushing(
            VSMArchitecture(), warmup_instructions=1, step_kind=CONTROL
        )
        assert report.passed, report.summary()

    def test_summary_text(self):
        report = verify_by_flushing(VSMArchitecture(), warmup_instructions=1)
        assert "flushing" in report.summary()
