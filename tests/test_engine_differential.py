"""Differential tests: symbolic engine verdicts vs concrete simulation.

The campaign engine's symbolic verdicts are checked against the concrete
(integer, cycle-accurate) processor models on random short programs:

* **golden agreement** — where the engine proves the beta-relation,
  concrete co-simulation of the specification and implementation on
  random programs must agree at every sampled cycle (VSM and Alpha0,
  with and without interrupts);
* **counterexample replay** — where the engine refutes the relation for
  an injected bug, the decoded counterexample instruction sequence must
  concretely distinguish the two machines at the reported sample;
* **backend agreement** — the relational beta backend (the default) and
  the classical compose path must produce byte-identical verdicts —
  pass/fail, mismatch records, counterexample assignments, decoded
  instruction sequences, structure — on every scenario shape: VSM and
  Alpha0, windows of 1, 2 and 4 slots, early and late branch placement,
  golden and injected-bug implementations.

All randomness is seeded; the suite is deterministic.
"""

import json
import random

import pytest

from repro.engine import Alpha0Spec, Scenario, execute_scenario
from repro.relational import BETA_COMPOSE
from repro.isa import alpha0 as alpha0_isa
from repro.isa import vsm as vsm_isa
from repro.processors import (
    PipelinedAlpha0,
    PipelinedVSM,
    UnpipelinedAlpha0,
    UnpipelinedVSM,
)
from repro.processors.interrupts import (
    INTERRUPT_HANDLER_ADDRESS,
    INTERRUPT_LINK_REGISTER,
    SymbolicPipelinedVSMWithEvents,
    SymbolicUnpipelinedVSMWithEvents,
)
from repro.bdd import BDDManager
from repro.logic import BitVec
from repro.strings import CONTROL, NORMAL, pipelined_filter, sample_cycles

SEED = 424242
_PC_MASK = (1 << vsm_isa.PC_WIDTH) - 1
_DATA_MASK = (1 << vsm_isa.DATA_WIDTH) - 1


# ----------------------------------------------------------------------
# Concrete VSM co-simulation (mirrors the engine's feeding schedule)
# ----------------------------------------------------------------------
def canonicalize_vsm_word(word: int) -> int:
    """Map undefined opcodes onto their symbolic-model semantics.

    The symbolic models treat undefined opcodes (101, 110, 111) as OR —
    both machines use the same convention, so it never causes spurious
    mismatches — while the concrete decoder rejects them.  Counterexample
    delay-slot words are fully symbolic and may pick such encodings;
    rewrite them to the OR opcode the symbolic ALU falls through to.
    """
    opcode = (word >> 10) & 0b111
    if opcode > vsm_isa.OPCODES["br"]:
        return (word & ~(0b111 << 10)) | (vsm_isa.OPCODES["or"] << 10)
    return word


def cosimulate_vsm(slots, slot_words, delay_words, bug=None):
    """Run spec and impl concretely on one instruction sequence.

    ``slot_words[i]`` is the instruction of slot ``i``; ``delay_words``
    maps a control-transfer slot index to its (to-be-annulled) delay-slot
    word.  Returns ``(spec_samples, impl_samples)`` aligned the way the
    beta-relation aligns them (initial observation plus one sample per
    retired slot).
    """
    k = vsm_isa.PIPELINE_DEPTH
    specification = UnpipelinedVSM()
    implementation = PipelinedVSM(bug=bug)

    spec_samples = [specification.observe()]
    for word in slot_words:
        spec_samples.append(specification.execute_instruction(word))

    filter_values = pipelined_filter(k, slots, vsm_isa.DELAY_SLOTS, 1)
    wanted = set(sample_cycles(filter_values))
    observations = {0: implementation.observe()}
    cycle = 0

    def advance(word: int, fetch_valid: bool) -> None:
        nonlocal cycle
        observed = implementation.step(word, fetch_valid=fetch_valid)
        cycle += 1
        if cycle in wanted:
            observations[cycle] = observed

    for index, kind in enumerate(slots):
        advance(canonicalize_vsm_word(slot_words[index]), True)
        if kind == CONTROL:
            advance(canonicalize_vsm_word(delay_words[index]), True)
    for _ in range(k - 1):
        advance(0, False)

    impl_samples = [observations[c] for c in sorted(observations)]
    assert len(impl_samples) == len(spec_samples)
    return spec_samples, impl_samples


def random_slot_words(rng, slots):
    """Random concrete instruction words honouring the slot classes."""
    slot_words = []
    delay_words = {}
    for index, kind in enumerate(slots):
        if kind == CONTROL:
            instruction = vsm_isa.VSMInstruction(
                "br", ra=rng.randrange(8), rc=rng.randrange(8)
            )
            delay_words[index] = vsm_isa.random_instruction(
                rng, allow_control_transfer=False
            ).encode()
        else:
            instruction = vsm_isa.random_instruction(rng, allow_control_transfer=False)
        slot_words.append(instruction.encode())
    return slot_words, delay_words


class TestVSMGoldenDifferential:
    """Symbolic PASS verdicts agree with concrete co-simulation."""

    WORKLOADS = [
        (NORMAL,),
        (NORMAL, NORMAL),
        (CONTROL, NORMAL),
        (NORMAL, CONTROL, NORMAL),
        (NORMAL, NORMAL, NORMAL),
    ]

    @pytest.mark.parametrize("slots", WORKLOADS)
    def test_engine_verdict_and_concrete_agreement(self, slots):
        outcome = execute_scenario(Scenario(name="golden", slots=slots))
        assert outcome.passed, outcome.mismatches

        rng = random.Random(SEED + len(slots))
        for _ in range(12):
            slot_words, delay_words = random_slot_words(rng, slots)
            spec_samples, impl_samples = cosimulate_vsm(slots, slot_words, delay_words)
            for index, (spec_obs, impl_obs) in enumerate(
                zip(spec_samples, impl_samples)
            ):
                assert spec_obs == impl_obs, (
                    f"slots={slots} sample={index} words={slot_words}"
                )


class TestVSMBugCounterexampleReplay:
    """Symbolic FAIL verdicts replay concretely: the decoded sequence
    distinguishes the buggy implementation from the specification."""

    @pytest.mark.parametrize(
        "bug,slots",
        [
            ("no_bypass", (NORMAL, NORMAL)),
            ("no_annul", (CONTROL, NORMAL)),
            ("wrong_branch_target", (CONTROL, NORMAL)),
            ("and_becomes_or", (NORMAL,)),
            ("drop_write_r3", (NORMAL,)),
        ],
    )
    def test_counterexample_distinguishes_concretely(self, bug, slots):
        outcome = execute_scenario(Scenario(name=f"bug/{bug}", slots=slots, bug=bug))
        assert not outcome.passed
        mismatch = outcome.mismatches[0]
        words = mismatch["words"]
        slot_words = [words[f"instr{i}"] for i in range(len(slots))]
        delay_words = {
            index: words[f"delay{index}.0"]
            for index, kind in enumerate(slots)
            if kind == CONTROL
        }
        spec_samples, impl_samples = cosimulate_vsm(
            slots, slot_words, delay_words, bug=bug
        )
        sample = mismatch["sample_index"]
        assert spec_samples[sample] != impl_samples[sample], (
            f"counterexample for {bug} did not reproduce concretely: "
            f"{mismatch['decoded']}"
        )
        # And the golden implementation agrees on the same stimulus.
        spec_samples, impl_samples = cosimulate_vsm(slots, slot_words, delay_words)
        for spec_obs, impl_obs in zip(spec_samples, impl_samples):
            assert spec_obs == impl_obs


# ----------------------------------------------------------------------
# Relational-beta vs compose-beta backend agreement
# ----------------------------------------------------------------------
def verdict_bytes(outcome) -> str:
    """Canonical JSON of the deterministic portion of an outcome."""
    return json.dumps(outcome.verdict(), indent=2, sort_keys=True)


def run_both_backends(**scenario_kwargs):
    """One scenario through each beta backend; returns the two outcomes."""
    relational = execute_scenario(
        Scenario(name="backend-diff", **scenario_kwargs)
    )
    compose = execute_scenario(
        Scenario(name="backend-diff", beta_backend=BETA_COMPOSE, **scenario_kwargs)
    )
    return relational, compose


class TestBetaBackendDifferential:
    """The relational backend's verdicts are byte-identical to compose.

    The expensive k=4 late-branch window is covered by
    ``benchmarks/bench_beta_relational.py`` (its compose side alone costs
    minutes); tier-1 pins the equivalence on every other shape — window
    lengths 1, 2 and 4, early and late branch placement, both designs,
    golden and buggy implementations, symbolic initial state.
    """

    VSM_GOLDEN_WINDOWS = [
        (NORMAL,),
        (CONTROL,),
        (NORMAL, CONTROL),  # late branch, k=2 window
        (CONTROL, NORMAL),  # early branch, k=2 window
        (CONTROL, NORMAL, NORMAL, NORMAL),  # early branch, k=4 window
    ]

    @pytest.mark.parametrize("slots", VSM_GOLDEN_WINDOWS)
    def test_vsm_golden_windows(self, slots):
        relational, compose = run_both_backends(slots=slots)
        assert relational.passed and compose.passed
        assert verdict_bytes(relational) == verdict_bytes(compose)
        assert relational.backend == "relational"
        assert compose.backend == "compose"

    @pytest.mark.parametrize(
        "bug,slots",
        [
            ("and_becomes_or", (NORMAL,)),
            ("drop_write_r3", (NORMAL,)),
            ("no_bypass", (NORMAL, NORMAL)),
            ("no_annul", (CONTROL, NORMAL)),
            ("wrong_branch_target", (NORMAL, CONTROL)),
        ],
    )
    def test_vsm_injected_bugs(self, bug, slots):
        """Refuting verdicts match byte for byte: same mismatch records,
        same counterexample assignments, same decoded sequences."""
        relational, compose = run_both_backends(slots=slots, bug=bug)
        assert not relational.passed and not compose.passed
        assert verdict_bytes(relational) == verdict_bytes(compose)
        assert relational.backend == "relational"

    def test_legacy_reorder_keys_change_no_refutation(self):
        """A payload that still carries the retired reordering keys loads
        as the plain scenario: same fingerprint, and a refuting window
        reports the relational backend's verdict, byte-equal to compose."""
        kwargs = {"name": "backend-diff", "slots": (NORMAL, NORMAL), "bug": "no_bypass"}
        payload = Scenario(**kwargs).to_dict()
        legacy = dict(payload)
        legacy["relational"] = {
            "partition": True,
            "max_cluster_size": 8,
            "cluster_node_limit": 5000,
            "beta_backend": "relational",
            "reorder": "sift",
            "reorder_threshold": 0,
        }
        scenario = Scenario.from_dict(legacy)
        assert scenario.fingerprint("") == Scenario.from_dict(payload).fingerprint("")
        relational = execute_scenario(scenario)
        plain = execute_scenario(Scenario(**kwargs))
        compose = execute_scenario(Scenario(beta_backend=BETA_COMPOSE, **kwargs))
        assert not relational.passed
        assert relational.backend == "relational"
        assert verdict_bytes(relational) == verdict_bytes(plain)
        assert verdict_bytes(relational) == verdict_bytes(compose)

    def test_vsm_symbolic_initial_state(self):
        relational, compose = run_both_backends(
            slots=(NORMAL, NORMAL), symbolic_initial_state=True
        )
        assert relational.passed
        assert verdict_bytes(relational) == verdict_bytes(compose)

    SMALL_ALPHA0 = Alpha0Spec(data_width=3, num_registers=4, memory_words=2)

    @pytest.mark.parametrize(
        "slots", [(NORMAL,), (NORMAL, NORMAL), (CONTROL, NORMAL)]
    )
    def test_alpha0_golden_windows(self, slots):
        relational, compose = run_both_backends(
            design="alpha0", slots=slots, alpha0=self.SMALL_ALPHA0
        )
        assert relational.passed and compose.passed
        assert verdict_bytes(relational) == verdict_bytes(compose)

    def test_alpha0_injected_bug(self):
        relational, compose = run_both_backends(
            design="alpha0",
            slots=(NORMAL,),
            bug="cmpeq_inverted",
            alpha0=Alpha0Spec(
                data_width=3, num_registers=4, memory_words=2, normal_opcode=0x10
            ),
        )
        assert not relational.passed
        assert verdict_bytes(relational) == verdict_bytes(compose)

    def test_backend_choice_never_leaks_into_the_verdict(self):
        """The backend marker lives outside the deterministic verdict."""
        relational, compose = run_both_backends(slots=(NORMAL,))
        assert "backend" not in relational.verdict()
        assert relational.backend != compose.backend


# ----------------------------------------------------------------------
# Alpha0 (no interrupts)
# ----------------------------------------------------------------------
class TestAlpha0Differential:
    SMALL = Alpha0Spec(data_width=3, num_registers=4, memory_words=2)

    def test_engine_golden_and_bug_verdicts(self):
        golden = execute_scenario(
            Scenario(name="a0", design="alpha0", slots=(NORMAL, NORMAL), alpha0=self.SMALL)
        )
        assert golden.passed, golden.mismatches
        bugged = execute_scenario(
            Scenario(
                name="a0bug",
                design="alpha0",
                slots=(NORMAL,),
                bug="cmpeq_inverted",
                alpha0=Alpha0Spec(
                    data_width=3, num_registers=4, memory_words=2, normal_opcode=0x10
                ),
            )
        )
        assert not bugged.passed
        assert bugged.mismatches[0]["decoded"]  # decodes to assembly

    def test_concrete_cosimulation_on_random_programs(self):
        """Concrete Alpha0 spec and impl agree at every retirement sample."""
        k = alpha0_isa.PIPELINE_DEPTH
        rng = random.Random(SEED)
        for round_index in range(10):
            length = rng.randrange(1, 5)
            program = [
                instruction.encode()
                for instruction in alpha0_isa.random_program(
                    rng, length, allow_control_transfer=False
                )
            ]
            specification = UnpipelinedAlpha0()
            implementation = PipelinedAlpha0()
            spec_samples = [specification.observe()]
            for word in program:
                spec_samples.append(specification.execute_instruction(word))

            slots = (NORMAL,) * length
            wanted = set(sample_cycles(pipelined_filter(k, slots, 1, 1)))
            observations = {0: implementation.observe()}
            cycle = 0
            for word in program:
                observed = implementation.step(word, fetch_valid=True)
                cycle += 1
                if cycle in wanted:
                    observations[cycle] = observed
            for _ in range(k - 1):
                observed = implementation.step(0, fetch_valid=False)
                cycle += 1
                if cycle in wanted:
                    observations[cycle] = observed

            impl_samples = [observations[c] for c in sorted(observations)]
            assert len(impl_samples) == len(spec_samples)
            for index, (spec_obs, impl_obs) in enumerate(
                zip(spec_samples, impl_samples)
            ):
                assert spec_obs == impl_obs, (round_index, index, program)


# ----------------------------------------------------------------------
# VSM with interrupts (dynamic beta-relation)
# ----------------------------------------------------------------------
def reference_trap_step(registers, pc, word, event):
    """Architectural reference of one VSM slot with an optional event.

    Returns ``(registers, pc, retired_op, retired_dest)`` — the trap
    semantics of Section 5.5: the interrupted instruction is suppressed,
    the link register receives its PC, fetch redirects to the handler.
    """
    if event:
        registers = list(registers)
        registers[INTERRUPT_LINK_REGISTER] = pc & _DATA_MASK
        return registers, INTERRUPT_HANDLER_ADDRESS, 0b111, INTERRUPT_LINK_REGISTER
    instruction = vsm_isa.decode(word)
    registers, pc = vsm_isa.execute(instruction, registers, pc)
    return registers, pc, instruction.opcode, instruction.destination()


def bitvec_int(vector: BitVec) -> int:
    """Integer value of a constant BitVec (all bits terminal)."""
    word = 0
    for bit in range(vector.width):
        node = vector[bit]
        assert node.is_terminal, "expected a constant observation"
        if node.value:
            word |= 1 << bit
    return word


def observation_ints(observation) -> dict:
    return {name: bitvec_int(value) for name, value in observation.items()}


class TestInterruptDifferential:
    """The symbolic event machines match the architectural trap reference
    when driven with concrete instruction words."""

    def test_unpipelined_spec_matches_reference(self):
        rng = random.Random(SEED + 1)
        for _ in range(10):
            length = rng.randrange(1, 5)
            event_slot = rng.randrange(length)
            words = [
                vsm_isa.random_instruction(rng, allow_control_transfer=False).encode()
                for _ in range(length)
            ]
            manager = BDDManager()
            machine = SymbolicUnpipelinedVSMWithEvents(manager)
            machine.reset()
            registers, pc = [0] * vsm_isa.NUM_REGISTERS, 0
            for index, word in enumerate(words):
                event = index == event_slot
                observed = machine.execute_instruction(
                    BitVec.constant(manager, word, vsm_isa.INSTRUCTION_WIDTH),
                    event=event,
                )
                registers, pc, op, dest = reference_trap_step(
                    registers, pc, word, event
                )
                values = observation_ints(observed)
                for i, value in enumerate(registers):
                    assert values[f"reg{i}"] == value, (index, words)
                assert values["pc_next"] == pc
                assert values["retired_op"] == op
                assert values["retired_dest"] == dest

    def test_pipelined_impl_matches_reference(self):
        """Drive the pipelined event machine on the engine's feeding
        schedule with concrete words; retired state must track the
        atomic reference at every retirement cycle."""
        k = vsm_isa.PIPELINE_DEPTH
        rng = random.Random(SEED + 2)
        for _ in range(6):
            length = rng.randrange(1, 4)
            event_slot = rng.randrange(length)
            words = [
                vsm_isa.random_instruction(rng, allow_control_transfer=False).encode()
                for _ in range(length)
            ]
            squashed = {
                event_slot: [
                    vsm_isa.random_instruction(rng, allow_control_transfer=False).encode()
                    for _ in range(2)
                ]
            }

            manager = BDDManager()
            implementation = SymbolicPipelinedVSMWithEvents(manager)
            implementation.reset()

            wanted = set()
            feed_cursor = 1
            for index in range(length):
                wanted.add(feed_cursor + k - 1)
                feed_cursor += 1 + len(squashed.get(index, []))

            observations = {}
            cycle = 0

            def advance(word: int, fetch_valid, event: bool) -> None:
                nonlocal cycle
                observed = implementation.step(
                    BitVec.constant(manager, word, vsm_isa.INSTRUCTION_WIDTH),
                    fetch_valid=fetch_valid,
                    event=event,
                )
                cycle += 1
                if cycle in wanted:
                    observations[cycle] = observation_ints(observed)

            for index, word in enumerate(words):
                advance(word, manager.one, event=False)
                extras = squashed.get(index, [])
                for position, extra in enumerate(extras):
                    advance(
                        extra,
                        manager.one,
                        event=(index == event_slot and position == len(extras) - 1),
                    )
            while cycle < max(wanted):
                advance(0, manager.zero, event=False)

            registers, pc = [0] * vsm_isa.NUM_REGISTERS, 0
            samples = [observations[c] for c in sorted(observations)]
            for index, word in enumerate(words):
                registers, pc, op, dest = reference_trap_step(
                    registers, pc, word, index == event_slot
                )
                values = samples[index]
                for i, value in enumerate(registers):
                    assert values[f"reg{i}"] == value, (index, words, event_slot)
                assert values["pc_next"] == pc
                assert values["retired_op"] == op
                assert values["retired_dest"] == dest

    def test_engine_event_verdicts_bracket_the_bug(self):
        """Golden events pass; the broken link register is refuted with a
        counterexample that names the link observable."""
        golden = execute_scenario(
            Scenario(name="e", kind="events", slots=(NORMAL,) * 3, event_slots=(1,))
        )
        assert golden.passed
        broken = execute_scenario(
            Scenario(
                name="eb",
                kind="events",
                slots=(NORMAL,) * 3,
                event_slots=(1,),
                break_event_link=True,
            )
        )
        assert not broken.passed
        observables = {mismatch["observable"] for mismatch in broken.mismatches}
        assert f"reg{INTERRUPT_LINK_REGISTER}" in observables


# ----------------------------------------------------------------------
# Identity-mutation differential: identity knobs are byte-transparent
# ----------------------------------------------------------------------
class TestIdentityMutationDifferential:
    """Every mutation knob at its identity value yields verdict bytes
    identical to the stock scenario.

    The generative fuzz campaigns perturb the implementation models
    through these knobs; the identity values are the contract that the
    knob plumbing itself is invisible — a mutated model at the identity
    point takes the stock code path and produces the same mismatch
    records, counterexample assignments and structure, byte for byte.
    """

    #: Identity values per knob (see ``repro.engine.scenario.MUTATION_KNOBS``).
    BETA_IDENTITY = (("branch_offset", 0), ("bypass_operands", "ab"))

    def _pair(self, identity_mutations, **kwargs):
        stock = execute_scenario(Scenario(name="identity-diff", **kwargs))
        mutated = execute_scenario(
            Scenario(name="identity-diff", mutations=identity_mutations, **kwargs)
        )
        return stock, mutated

    @pytest.mark.parametrize(
        "slots", [(NORMAL, NORMAL), (CONTROL, NORMAL), (NORMAL, CONTROL)]
    )
    def test_beta_identity_is_transparent(self, slots):
        stock, mutated = self._pair(self.BETA_IDENTITY, slots=slots)
        assert stock.passed
        assert verdict_bytes(mutated) == verdict_bytes(stock)

    def test_beta_identity_preserves_bug_counterexamples(self):
        """Identity knobs on a buggy model reproduce the refutation
        byte for byte — same decoded counterexamples."""
        stock, mutated = self._pair(
            self.BETA_IDENTITY, slots=(NORMAL, NORMAL), bug="no_bypass"
        )
        assert not stock.passed
        assert verdict_bytes(mutated) == verdict_bytes(stock)

    def test_events_identity_is_transparent(self):
        stock, mutated = self._pair(
            self.BETA_IDENTITY,
            kind="events",
            slots=(NORMAL,) * 3,
            event_slots=(1,),
        )
        assert stock.passed
        assert verdict_bytes(mutated) == verdict_bytes(stock)

    def test_superscalar_identity_is_transparent(self):
        rng = random.Random(SEED + 3)
        program = tuple(
            instruction.encode()
            for instruction in vsm_isa.random_program(rng, 6)
        )
        stock, mutated = self._pair(
            (("hazard_checks", "full"), ("pipeline", "superscalar")),
            kind="superscalar",
            program=program,
            issue_width=2,
        )
        assert stock.passed
        assert verdict_bytes(mutated) == verdict_bytes(stock)

    def test_scoreboard_identity_knobs_are_transparent(self):
        """The scoreboard's own knobs at identity match the bare
        ``pipeline: scoreboard`` selection byte for byte."""
        rng = random.Random(SEED + 4)
        program = tuple(
            instruction.encode()
            for instruction in vsm_isa.random_program(rng, 6)
        )
        base = execute_scenario(
            Scenario(
                name="identity-diff",
                kind="superscalar",
                program=program,
                mutations=(("pipeline", "scoreboard"),),
            )
        )
        expanded = execute_scenario(
            Scenario(
                name="identity-diff",
                kind="superscalar",
                program=program,
                mutations=(
                    ("functional_units", 2),
                    ("issue_raw_check", "full"),
                    ("latency_profile", "default"),
                    ("pipeline", "scoreboard"),
                ),
            )
        )
        assert base.passed
        assert verdict_bytes(expanded) == verdict_bytes(base)


# ----------------------------------------------------------------------
# Telemetry differential: tracing must never touch a verdict
# ----------------------------------------------------------------------
class TestTelemetryDifferential:
    """Verdicts are byte-identical with tracing enabled and disabled.

    The telemetry layer's contract is observe-only (spans sample the
    kernel's monotonic counters; nothing feeds back).  This pins it the
    same way the backend and scheduling differentials are pinned: run
    the identical scenario set traced and untraced and compare the
    canonical verdict JSON byte for byte.
    """

    SCENARIOS = [
        dict(slots=(NORMAL, NORMAL)),
        dict(slots=(CONTROL, NORMAL), bug="no_annul"),
        dict(kind="events", slots=(NORMAL,) * 3, event_slots=(1,)),
    ]

    def _run_all(self):
        return [
            verdict_bytes(
                execute_scenario(Scenario(name="telemetry-diff", **kwargs))
            )
            for kwargs in self.SCENARIOS
        ]

    def test_traced_verdicts_byte_identical_to_untraced(self, tmp_path):
        from repro import telemetry

        telemetry.disable()
        untraced = self._run_all()
        telemetry.enable(trace_path=tmp_path / "trace.jsonl")
        try:
            traced = self._run_all()
            tracer = telemetry.get_tracer()
            assert tracer.event_count() > 0  # the runs really were traced
        finally:
            telemetry.disable()
        assert traced == untraced

    def test_traced_campaign_verdict_json_byte_identical(self, tmp_path):
        from repro import telemetry
        from repro.engine import CampaignRunner

        names = ["vsm/default", "vsm/bug/no_bypass"]
        telemetry.disable()
        baseline = CampaignRunner(store_path=tmp_path / "s1").run(names)
        telemetry.enable()
        try:
            traced = CampaignRunner(store_path=tmp_path / "s2").run(names)
        finally:
            telemetry.disable()
        assert traced.verdict_json() == baseline.verdict_json()
        assert baseline.telemetry == {} and traced.telemetry != {}
