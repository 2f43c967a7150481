"""Unit and property tests for the relational beta backend.

``repro.relational.beta`` rests on three claims, each pinned here:

* **Extraction fidelity** — advancing a machine through its extracted
  per-bit beta-correspondence relation yields observables that are
  *node identical* (same canonical ROBDD objects on one manager) to
  functional simulation;
* **Guard soundness** — zeroing latch fields whose validity guard is
  the constant-0 function never changes an observable formula;
* **Protocol completeness** — the four bundled symbolic processor
  models expose a coherent state-injection protocol (layout partitions
  the state, observables map onto layout fields, guards name real
  fields, the Alpha0 decode-latch word round-trips).

All scenarios are tiny and deterministic; the backend-vs-backend
verdict byte-identity at engine level lives in
``tests/test_engine_differential.py``.
"""

import pytest

from repro import telemetry
from repro.bdd import BDDManager
from repro.campaigns import FUZZ_ALPHA0_SPEC
from repro.core.architectures import Alpha0Architecture, VSMArchitecture
from repro.core.siminfo import SimulationInfo
from repro.core.verifier import build_stimulus, verify_beta_relation
from repro.engine.executor import _compose_variable_order, _run_beta_compose
from repro.logic import BitVec
from repro.processors import SymbolicAlpha0Options
from repro.processors.sym_alpha0 import decode_fields, encode_fields
from repro.relational import (
    BETA_COMPOSE,
    MachineStepper,
    beta_stimulus_order,
    extract_steppers,
    supports_state_injection,
)
from repro.relational.beta import IMPL_PREFIX, SPEC_PREFIX
from repro.strings import CONTROL, NORMAL

SMALL_ALPHA0 = Alpha0Architecture(
    options=SymbolicAlpha0Options(
        data_width=3, num_registers=4, memory_words=2, alu_subset=("and", "or", "cmpeq")
    )
)


def functional_samples(architecture, siminfo, manager, observation):
    """Reference run: functional simulation on ``manager`` (classic loop)."""
    from repro.strings import pipelined_filter, sample_cycles

    specification, implementation = architecture.make_models(manager)
    plan = build_stimulus(manager, architecture, siminfo)
    specification.reset()
    implementation.reset()
    samples = [observation.select(specification.observe())]
    for instruction in plan.slot_instructions:
        samples.append(observation.select(specification.execute_instruction(instruction)))

    wanted = set(
        sample_cycles(
            pipelined_filter(
                architecture.order_k,
                siminfo.slots,
                architecture.delay_slots,
                siminfo.reset_cycles,
            )
        )
    )
    cycle = siminfo.reset_cycles - 1
    by_cycle = {cycle: observation.select(implementation.observe())}
    nop = BitVec.constant(manager, 0, architecture.instruction_width)

    def advance(word, fetch_valid):
        nonlocal cycle
        observed = implementation.step(word, fetch_valid=fetch_valid)
        cycle += 1
        if cycle in wanted:
            by_cycle[cycle] = observation.select(observed)

    for index, instruction in enumerate(plan.slot_instructions):
        advance(instruction, manager.one)
        for delay in plan.delay_instructions.get(index, []):
            advance(delay, manager.one)
    for _ in range(architecture.order_k - 1):
        advance(nop, manager.zero)
    return samples, [by_cycle[c] for c in sorted(by_cycle)], plan


def relational_samples(
    architecture, siminfo, manager, observation, plan, strip_guards=False
):
    """The backend's stepping, replayed manually on the same manager."""
    from repro.strings import pipelined_filter, sample_cycles

    specification, implementation = architecture.make_models(manager)
    spec_stepper, impl_stepper = extract_steppers(
        manager, specification, implementation, architecture.instruction_bit_order
    )
    if strip_guards:
        for stepper in (spec_stepper, impl_stepper):
            stepper.guards = {}
            stepper._gated_by = {}
    specification.reset()
    implementation.reset()

    samples = [observation.select(specification.observe())]
    state = spec_stepper.initial_state()
    for instruction in plan.slot_instructions:
        state = spec_stepper.advance(state, instruction)
        spec_stepper.install(state)
        samples.append(observation.select(specification.observe()))

    wanted = set(
        sample_cycles(
            pipelined_filter(
                architecture.order_k,
                siminfo.slots,
                architecture.delay_slots,
                siminfo.reset_cycles,
            )
        )
    )
    cycle = siminfo.reset_cycles - 1
    by_cycle = {cycle: observation.select(implementation.observe())}
    impl_state = impl_stepper.initial_state()
    nop = BitVec.constant(manager, 0, architecture.instruction_width)

    def advance(word, fetch_valid):
        nonlocal cycle, impl_state
        impl_state = impl_stepper.advance(impl_state, word, fetch_valid)
        cycle += 1
        if cycle in wanted:
            impl_stepper.install(impl_state)
            by_cycle[cycle] = observation.select(implementation.observe())

    for index, instruction in enumerate(plan.slot_instructions):
        advance(instruction, manager.one)
        for delay in plan.delay_instructions.get(index, []):
            advance(delay, manager.one)
    for _ in range(architecture.order_k - 1):
        advance(nop, manager.zero)
    return samples, [by_cycle[c] for c in sorted(by_cycle)], impl_stepper


def assert_node_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for index, (left, right) in enumerate(zip(reference, candidate)):
        for name in left:
            assert left[name].identical(right[name]), (index, name)


class TestExtractionFidelity:
    """Stepper observables are node identical to functional simulation."""

    @pytest.mark.parametrize("slots", [(NORMAL,), (NORMAL, CONTROL), (CONTROL, NORMAL)])
    def test_vsm_windows(self, slots):
        architecture = VSMArchitecture()
        siminfo = SimulationInfo(reset_cycles=1, slots=slots)
        observation = architecture.observation_spec()
        manager = BDDManager()
        spec_ref, impl_ref, plan = functional_samples(
            architecture, siminfo, manager, observation
        )
        spec_rel, impl_rel, _ = relational_samples(
            architecture, siminfo, manager, observation, plan
        )
        assert_node_identical(spec_ref, spec_rel)
        assert_node_identical(impl_ref, impl_rel)

    def test_alpha0_window(self):
        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL, NORMAL))
        observation = SMALL_ALPHA0.observation_spec()
        manager = BDDManager()
        spec_ref, impl_ref, plan = functional_samples(
            SMALL_ALPHA0, siminfo, manager, observation
        )
        spec_rel, impl_rel, _ = relational_samples(
            SMALL_ALPHA0, siminfo, manager, observation, plan
        )
        assert_node_identical(spec_ref, spec_rel)
        assert_node_identical(impl_ref, impl_rel)


class TestGuardSoundness:
    """Annulment short-circuits fire and never touch an observable."""

    def test_guards_fire_on_annulled_delay_slots(self):
        architecture = VSMArchitecture()
        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL, CONTROL))
        observation = architecture.observation_spec()
        manager = BDDManager()
        _, _, plan = functional_samples(architecture, siminfo, manager, observation)
        _, _, impl_stepper = relational_samples(
            architecture, siminfo, manager, observation, plan
        )
        # The control slot's annulled delay instruction makes if.valid a
        # constant 0, so the gated fetch/decode fields must be skipped.
        assert impl_stepper.gated_skips > 0

    def test_disabling_guards_changes_no_observable(self):
        architecture = VSMArchitecture()
        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL, CONTROL))
        observation = architecture.observation_spec()
        manager = BDDManager()
        _, _, plan = functional_samples(architecture, siminfo, manager, observation)
        spec_a, impl_a, _ = relational_samples(
            architecture, siminfo, manager, observation, plan
        )

        # Re-run with guards stripped from the steppers: every latch bit
        # is computed in full.  The observables must not move by a node.
        spec_b, impl_b, stepper_b = relational_samples(
            architecture, siminfo, manager, observation, plan, strip_guards=True
        )
        assert stepper_b.gated_skips == 0
        assert_node_identical(spec_a, spec_b)
        assert_node_identical(impl_a, impl_b)


def reference_advance(stepper, state, instruction, fetch_valid=None):
    """One per-bit advance through the public restrict/support/compose API.

    Returns the next state and how many bits a constant-0 guard zeroed.
    """
    manager = stepper.manager
    sources = {name: instruction[bit] for bit, name in enumerate(stepper.input_names)}
    if stepper.fetch_valid_name is not None:
        sources[stepper.fetch_valid_name] = (
            fetch_valid if fetch_valid is not None else manager.one
        )
    for field, width in stepper.layout:
        for bit in range(width):
            sources[f"{stepper.prefix}{field}[{bit}]"] = state[(field, bit)]
    constants = {
        name: bool(function.value)
        for name, function in sources.items()
        if function.is_terminal
    }

    def product(field, bit):
        function = stepper.next_functions[(field, bit)]
        fixed = {
            name: constants[name]
            for name in manager.support(function)
            if name in constants
        }
        function = manager.restrict(function, fixed)
        return manager.compose(
            function, {name: sources[name] for name in manager.support(function)}
        )

    guard_next = {guard: product(guard, 0) for guard in stepper.guards}
    gated_by = {
        field: guard for guard, fields in stepper.guards.items() for field in fields
    }
    new_state, skips = {}, 0
    for field, width in stepper.layout:
        guard = gated_by.get(field)
        for bit in range(width):
            if field in guard_next:
                new_state[(field, bit)] = guard_next[field]
            elif guard is not None and guard_next[guard] is manager.zero:
                new_state[(field, bit)] = manager.zero
                skips += 1
            else:
                new_state[(field, bit)] = product(field, bit)
    return new_state, skips


class TestFusedAdvance:
    """The one-walk advance equals the per-bit cofactor-then-compose one."""

    @pytest.mark.parametrize(
        "architecture",
        [VSMArchitecture(), Alpha0Architecture(options=FUZZ_ALPHA0_SPEC.options())],
        ids=["vsm", "alpha0"],
    )
    def test_every_advance_matches_the_per_bit_reference(self, architecture, monkeypatch):
        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL, CONTROL))
        manager = BDDManager()
        plan = build_stimulus(manager, architecture, siminfo)
        fused_advance = MachineStepper.advance
        checked = {SPEC_PREFIX: 0, IMPL_PREFIX: 0}

        def checked_advance(stepper, state, instruction, fetch_valid=None):
            expected, skips = reference_advance(stepper, state, instruction, fetch_valid)
            before = stepper.gated_skips
            result = fused_advance(stepper, state, instruction, fetch_valid)
            assert list(result) == list(expected)
            assert [f.node_id for f in result.values()] == [
                f.node_id for f in expected.values()
            ]
            assert stepper.gated_skips - before == skips
            checked[stepper.prefix] += 1
            return result

        monkeypatch.setattr(MachineStepper, "advance", checked_advance)
        relational_samples(
            architecture, siminfo, manager, architecture.observation_spec(), plan
        )
        assert checked[SPEC_PREFIX] == 2
        assert checked[IMPL_PREFIX] > 2

    def test_advance_span_records_products_and_gated(self):
        architecture = VSMArchitecture()
        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL, CONTROL))
        manager = BDDManager()
        plan = build_stimulus(manager, architecture, siminfo)
        tracer = telemetry.enable()
        try:
            _, _, impl_stepper = relational_samples(
                architecture, siminfo, manager, architecture.observation_spec(), plan
            )
        finally:
            telemetry.disable()
        bits = sum(width for _, width in impl_stepper.layout)
        advances = [
            event["attrs"]
            for event in tracer.events
            if event["name"] == "beta.advance" and event["attrs"]["role"] == IMPL_PREFIX
        ]
        assert advances
        for attrs in advances:
            assert attrs["products"] + attrs["gated"] == bits
        assert any(attrs["gated"] > 0 for attrs in advances)
        assert sum(attrs["gated"] for attrs in advances) == impl_stepper.gated_skips


class TestProtocolCompleteness:
    """Static coherence of the state-injection protocol on every model."""

    def models(self):
        manager = BDDManager()
        vsm_spec, vsm_impl = VSMArchitecture().make_models(manager)
        a0_spec, a0_impl = SMALL_ALPHA0.make_models(manager)
        return [vsm_spec, vsm_impl, a0_spec, a0_impl]

    def test_all_bundled_models_support_the_protocol(self):
        for model in self.models():
            assert supports_state_injection(model), type(model).__name__

    def test_layout_formulae_and_guards_are_coherent(self):
        for model in self.models():
            layout = dict(model.state_layout())
            formulae = model.state_formulae()
            assert set(layout) == set(formulae), type(model).__name__
            for field, width in layout.items():
                assert formulae[field].width == width, (type(model).__name__, field)
            for name, field in model.observable_fields().items():
                assert field in layout, (type(model).__name__, name)
            for guard, gated in model.state_guards().items():
                assert layout.get(guard) == 1, (type(model).__name__, guard)
                observables = set(model.observable_fields().values())
                for field in gated:
                    assert field in layout, (type(model).__name__, field)
                    assert field not in observables, (type(model).__name__, field)

    def test_load_state_round_trips(self):
        for model in self.models():
            before = model.state_formulae()
            model.load_state(before)
            after = model.state_formulae()
            for field, vector in before.items():
                assert vector.identical(after[field]), (type(model).__name__, field)

    def test_alpha0_decode_latch_word_round_trips(self):
        manager = BDDManager()
        word = BitVec.inputs(manager, "w", 32)
        fields = decode_fields(word)
        assert encode_fields(manager, fields).identical(word)

    def test_object_without_protocol_is_rejected(self):
        assert not supports_state_injection(object())


class TestBackendDispatch:
    """run_beta routes, refuses protocol-less models and marks backends."""

    def test_custom_architecture_without_the_protocol_raises(self):
        """A relational run on models that lack the state-injection
        protocol raises instead of falling through to the compose path;
        the compose backend still runs them when asked for."""

        class Stripped(VSMArchitecture):
            def make_models(self, manager, impl_kwargs=None):
                specification, implementation = super().make_models(
                    manager, impl_kwargs=impl_kwargs
                )

                class Opaque:
                    def __init__(self, inner):
                        self._inner = inner

                    def __getattr__(self, name):
                        if name in ("state_layout", "load_state"):
                            raise AttributeError(name)
                        return getattr(self._inner, name)

                return Opaque(specification), Opaque(implementation)

        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL,))
        with pytest.raises(TypeError, match="state-injection protocol"):
            verify_beta_relation(Stripped(), siminfo)
        report = verify_beta_relation(Stripped(), siminfo, beta_backend=BETA_COMPOSE)
        assert report.passed
        assert report.backend == "compose"

    def test_backend_markers(self):
        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL,))
        relational = verify_beta_relation(VSMArchitecture(), siminfo)
        assert relational.backend == "relational"
        compose = verify_beta_relation(
            VSMArchitecture(), siminfo, beta_backend=BETA_COMPOSE
        )
        assert compose.backend == "compose"
        failing = verify_beta_relation(
            VSMArchitecture(), siminfo, impl_kwargs={"bug": "and_becomes_or"}
        )
        assert not failing.passed
        assert failing.backend == "relational"

    @pytest.mark.parametrize(
        "architecture,slots",
        [
            (VSMArchitecture(), (NORMAL, CONTROL)),
            (VSMArchitecture(symbolic_initial_state=True), (CONTROL, NORMAL)),
            (SMALL_ALPHA0, (NORMAL, CONTROL)),
            (
                Alpha0Architecture(
                    options=SMALL_ALPHA0.options, symbolic_initial_state=True
                ),
                (CONTROL, NORMAL),
            ),
        ],
    )
    def test_compose_variable_order_replays_the_compose_manager(
        self, architecture, slots
    ):
        """Refutation witnesses are walked in exactly the order a real
        compose run declares, through its whole simulation."""
        siminfo = SimulationInfo(reset_cycles=1, slots=slots)
        manager = BDDManager()
        _run_beta_compose(
            architecture, siminfo, manager, None, architecture.observation_spec()
        )
        assert _compose_variable_order(architecture, siminfo) == tuple(manager._name_of)

    def test_stimulus_order_matches_the_stimulus_plan(self):
        """Pre-declared names are exactly the plan's variable families."""
        architecture = VSMArchitecture()
        siminfo = SimulationInfo(reset_cycles=1, slots=(NORMAL, CONTROL, NORMAL))
        names = beta_stimulus_order(architecture, siminfo)
        assert len(names) == len(set(names))
        # Later slots strictly precede earlier slots; delay words sit
        # directly above their control slot.
        first_of = {}
        for position, name in enumerate(names):
            label = name.split("[")[0]
            first_of.setdefault(label, position)
        assert first_of["instr2"] < first_of["delay1.0"] < first_of["instr1"] < first_of["instr0"]
        # Every free variable build_stimulus creates is pre-declared.
        manager = BDDManager()
        manager.declare_all(names)
        declared = set(manager.variables)
        plan = build_stimulus(manager, architecture, siminfo)
        assert set(manager.variables) == declared  # nothing new appeared
        assert plan.free_variable_count > 0