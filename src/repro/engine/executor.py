"""Scenario execution: the single code path behind every verification driver.

This module owns the simulation orchestration that used to be duplicated
across :func:`repro.core.verifier.verify_beta_relation`,
:func:`repro.core.dynamic_beta.verify_with_events` and
:func:`repro.core.dynamic_beta.verify_superscalar_schedule`; those entry
points are now thin adapters over the functions here, so examples,
benchmarks and campaigns all measure the same code.

* :func:`run_beta` — the Figure-8 beta-relation check (static filters).
* :func:`run_events` — the Section 5.5 dynamic beta-relation with an
  external event (interrupt) schedule.
* :func:`run_superscalar` — the Section 5.7 concrete dynamic-beta check
  of the dual-issue VSM.
* :func:`execute_scenario` — the campaign entry: resolves a
  :class:`~repro.engine.scenario.Scenario`, runs the right driver on a
  (possibly pooled) manager and wraps the result in a deterministic
  :class:`~repro.engine.report.ScenarioOutcome`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd import BDDManager, distinguisher
from ..isa import vsm as vsm_isa
from ..logic import BitVec
from ..strings import (
    CONTROL,
    NORMAL,
    pipelined_cycle_count,
    pipelined_filter,
    sample_cycles,
    superscalar_specification_filter,
    unpipelined_filter,
)
from ..core.architectures import Architecture, VSMArchitecture
from ..core.observation import ObservationSpec, vsm_observables
from ..core.report import Mismatch, VerificationReport
from ..core.siminfo import SimulationInfo
from ..relational.beta import BETA_BACKENDS, BETA_COMPOSE, BETA_RELATIONAL
from .. import telemetry
from . import codehash
from .report import ScenarioOutcome
from .scenario import BETA, EVENTS, SUPERSCALAR, Scenario


# ----------------------------------------------------------------------
# Counterexample decoding
# ----------------------------------------------------------------------
def _word_from_vector(vector: BitVec, label: str, assignment: Mapping[str, bool]) -> int:
    """Concrete instruction word of a stimulus vector under ``assignment``.

    Stimulus bits are either constants (class-cube bits) or single
    positive literals named ``{label}[{bit}]``; unassigned free bits
    default to 0, matching :meth:`BDDManager.pick_assignment`'s minimal
    witnesses.
    """
    word = 0
    for bit in range(vector.width):
        bit_function = vector[bit]
        if bit_function.is_terminal:
            value = bool(bit_function.value)
        else:
            value = assignment.get(f"{label}[{bit}]", False)
        if value:
            word |= 1 << bit
    return word


def decode_counterexample(
    architecture: Architecture,
    labelled_vectors: Sequence[Tuple[str, BitVec]],
    assignment: Mapping[str, bool],
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Decode a witness assignment into per-slot assembly and raw words."""
    decoded: Dict[str, str] = {}
    words: Dict[str, int] = {}
    for label, vector in labelled_vectors:
        word = _word_from_vector(vector, label, assignment)
        words[label] = word
        decoded[label] = architecture.disassemble(word)
    relevant_state = {
        name: value for name, value in assignment.items() if name.startswith("init.")
    }
    if relevant_state:
        names = sorted(relevant_state)
        decoded["initial_state"] = ", ".join(
            f"{name}={'1' if relevant_state[name] else '0'}" for name in names
        )
    return decoded, words


# ----------------------------------------------------------------------
# Static beta-relation (paper Figure 8, Section 5.3)
# ----------------------------------------------------------------------
def _drive_specification(
    plan,
    siminfo: SimulationInfo,
    cycles_per_instruction: int,
    step,
    sample,
) -> Tuple[List[Dict[str, BitVec]], List[int], int]:
    """Drive the unpipelined machine's instruction schedule.

    ``step(instruction)`` advances one instruction window;
    ``sample()`` reads the selected observation of the current state.
    Shared by the functional and relational beta backends so the
    sampling schedule — and with it the verdict alignment — has exactly
    one definition.
    """
    samples = [sample()]
    cycles = [siminfo.reset_cycles - 1]
    cycle = siminfo.reset_cycles - 1
    for instruction in plan.slot_instructions:
        step(instruction)
        cycle += cycles_per_instruction
        samples.append(sample())
        cycles.append(cycle)
    total = siminfo.reset_cycles + cycles_per_instruction * len(plan.slot_instructions)
    return samples, cycles, total


def _drive_implementation(
    manager: BDDManager,
    architecture: Architecture,
    plan,
    siminfo: SimulationInfo,
    step,
    sample,
) -> Tuple[List[Dict[str, BitVec]], List[int], int]:
    """Drive the pipelined machine's feeding schedule (SH2 sampling).

    ``step(instruction, fetch_valid)`` advances one pipeline cycle;
    ``sample()`` reads the selected observation of the current state
    (called only at sampled cycles, so a relational stepper installs its
    state lazily).  Shared by both beta backends.
    """
    filter_values = pipelined_filter(
        architecture.order_k, siminfo.slots, architecture.delay_slots, siminfo.reset_cycles
    )
    wanted = set(sample_cycles(filter_values))
    observations_by_cycle: Dict[int, Dict[str, BitVec]] = {}
    cycle = siminfo.reset_cycles - 1
    observations_by_cycle[cycle] = sample()

    nop = BitVec.constant(manager, 0, architecture.instruction_width)

    def advance(instruction: BitVec, fetch_valid) -> None:
        nonlocal cycle
        step(instruction, fetch_valid)
        cycle += 1
        if cycle in wanted:
            observations_by_cycle[cycle] = sample()

    for index, instruction in enumerate(plan.slot_instructions):
        advance(instruction, manager.one)
        for delay_vector in plan.delay_instructions.get(index, []):
            advance(delay_vector, manager.one)
    for _ in range(architecture.order_k - 1):
        advance(nop, manager.zero)

    ordered_cycles = sorted(observations_by_cycle)
    samples = [observations_by_cycle[c] for c in ordered_cycles]
    total = pipelined_cycle_count(
        architecture.order_k, siminfo.slots, architecture.delay_slots, siminfo.reset_cycles
    )
    return samples, ordered_cycles, total


def run_beta(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
    beta_backend: str = BETA_RELATIONAL,
    snapshot_store=None,
    relation_templates=None,
) -> VerificationReport:
    """Verify a pipelined implementation against its unpipelined specification.

    This is the Figure-8 algorithm generalised to variable ``k`` (delay
    slots) per Section 5.3 — the code path behind
    :func:`repro.core.verifier.verify_beta_relation` and every BETA
    campaign scenario.  ``beta_backend`` selects which backend runs the
    check: the relational formulation by default, or ``"compose"``, the
    classical path kept as the differential reference.  Verdicts are
    byte-identical either way (see :mod:`repro.relational.beta`).
    ``snapshot_store`` lets the relational backend rehydrate its beta
    relations from persistent arena snapshots instead of re-extracting,
    and ``relation_templates`` lets a fresh manager clone relations an
    earlier manager restored (see
    :func:`repro.relational.beta.cached_extract_steppers`).
    """
    from ..relational.beta import supports_state_injection

    if beta_backend not in BETA_BACKENDS:
        raise ValueError(f"unknown beta backend {beta_backend!r}; valid: {BETA_BACKENDS}")
    manager = manager if manager is not None else BDDManager()
    observation = observation if observation is not None else architecture.observation_spec()
    if beta_backend == BETA_COMPOSE:
        return _run_beta_compose(architecture, siminfo, manager, impl_kwargs, observation)
    models = architecture.make_models(manager, impl_kwargs=impl_kwargs)
    if not all(supports_state_injection(model) for model in models):
        raise TypeError(
            f"{architecture.name}: the models lack the state-injection protocol; "
            'run them with beta_backend="compose"'
        )
    return _run_beta_relational(
        architecture,
        siminfo,
        manager,
        impl_kwargs,
        observation,
        models,
        snapshot_store=snapshot_store,
        relation_templates=relation_templates,
    )


def _declare_stimulus(
    manager: BDDManager, architecture: Architecture, siminfo: SimulationInfo
):
    """Build the stimulus plan, then the shared initial state, on ``manager``.

    Variable-ordering note: the instruction variables act as selectors
    into the register file, so they must sit *above* the initial-state
    data variables in the BDD order (Section 3.2's ordering discussion).
    The stimulus is therefore built before the initial state.  On a
    declaration-free manager this fixes the classical path's variable
    order, which :func:`_compose_variable_order` replays.
    """
    from ..core.verifier import build_stimulus

    plan = build_stimulus(manager, architecture, siminfo)
    return plan, architecture.make_initial_state(manager)


def _compose_variable_order(
    architecture: Architecture, siminfo: SimulationInfo
) -> Tuple[str, ...]:
    """The variable order :func:`_run_beta_compose` declares, replayed.

    The relational backend walks its refutation witnesses in this order
    (:meth:`~repro.bdd.BDDManager.pick_assignment_in_order`), so they
    equal the compose backend's bit for bit.
    """
    scratch = BDDManager()
    _declare_stimulus(scratch, architecture, siminfo)
    return scratch.variables


def _run_beta_compose(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: BDDManager,
    impl_kwargs: Optional[dict],
    observation: ObservationSpec,
) -> VerificationReport:
    """The classical beta path: functional simulation by composition."""
    specification, implementation = architecture.make_models(
        manager, impl_kwargs=impl_kwargs
    )
    plan, initial_state = _declare_stimulus(manager, architecture, siminfo)
    specification.reset(**initial_state)
    implementation.reset(**initial_state)

    started = time.perf_counter()
    with telemetry.span("beta.spec", manager=manager, backend=BETA_COMPOSE):
        spec_samples, spec_cycles, spec_total = _drive_specification(
            plan,
            siminfo,
            specification.cycles_per_instruction,
            step=specification.execute_instruction,
            sample=lambda: observation.select(specification.observe()),
        )
    spec_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with telemetry.span("beta.impl", manager=manager, backend=BETA_COMPOSE):
        impl_samples, impl_cycles, impl_total = _drive_implementation(
            manager,
            architecture,
            plan,
            siminfo,
            step=lambda instruction, fetch_valid: implementation.step(
                instruction, fetch_valid=fetch_valid
            ),
            sample=lambda: observation.select(implementation.observe()),
        )
    impl_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with telemetry.span("beta.compare", manager=manager, backend=BETA_COMPOSE):
        mismatches = _compare_samples(
            manager,
            architecture,
            observation,
            plan.labelled_vectors(),
            spec_samples,
            impl_samples,
            spec_cycles,
            impl_cycles,
        )
    comparison_seconds = time.perf_counter() - started

    return _beta_report(
        architecture,
        siminfo,
        manager,
        observation,
        plan,
        mismatches,
        spec_total,
        impl_total,
        len(spec_samples),
        spec_seconds,
        impl_seconds,
        comparison_seconds,
        backend=BETA_COMPOSE,
    )


def _run_beta_relational(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: BDDManager,
    impl_kwargs: Optional[dict],
    observation: ObservationSpec,
    models,
    snapshot_store=None,
    relation_templates=None,
) -> VerificationReport:
    """The relational beta backend (see :mod:`repro.relational.beta`).

    ``models`` is the (specification, implementation) pair the
    dispatcher already built and protocol-checked.

    The relation is proved or refuted under the backend's own
    (selector-above-data) variable order.  Canonicity makes the
    refuted (sample, observable) pairs the compose backend's, and the
    witnesses are walked in the compose path's declaration order
    (:func:`_compose_variable_order`), so failing records are
    byte-identical to it as well; the golden counterexample suite pins
    them down.
    """
    from ..relational.beta import beta_stimulus_order, cached_extract_steppers

    specification, implementation = models

    # Relations first: their variables and nodes then sit at the same
    # levels and handles on every manager of a design, whatever the
    # slot shape, which is what lets a fresh manager adopt a relation
    # template.  The relation and the stimulus/initial-state functions
    # use disjoint variables, so declaring the relation block above the
    # stimulus block changes no diagram's shape.
    #
    # Extraction cache keys: the relation is a pure function of the
    # model construction (architecture dataclass repr covers the design
    # and its condensation options; the implementation additionally
    # depends on the injected-bug kwargs), per manager — and the pool
    # keys managers by order signature, so this is exactly the
    # (model, order_signature) cache of a campaign session.
    arch_sig = repr(architecture)
    kwargs_sig = repr(sorted((impl_kwargs or {}).items()))
    started = time.perf_counter()
    with telemetry.span("beta.extract", manager=manager, arch=architecture.name):
        spec_stepper, impl_stepper, extraction_record = cached_extract_steppers(
            manager,
            specification,
            implementation,
            architecture.instruction_width,
            spec_key=("beta_spec_relation", arch_sig),
            impl_key=("beta_impl_relation", arch_sig, kwargs_sig),
            snapshot_store=snapshot_store,
            dependencies=codehash.components_for_architecture(architecture),
            templates=relation_templates,
        )
    extraction_seconds = time.perf_counter() - started
    extraction_record["seconds"] = round(extraction_seconds, 4)
    # Snapshot activity is its own measurement family on the report;
    # the extraction record keeps only the cache-level hit/miss story.
    snapshot_record = extraction_record.pop("snapshot", {})

    manager.declare_all(beta_stimulus_order(architecture, siminfo))
    plan, initial_state = _declare_stimulus(manager, architecture, siminfo)
    specification.reset(**initial_state)
    implementation.reset(**initial_state)

    # --- Specification: one relation step per instruction slot ---------
    started = time.perf_counter()
    spec_state = spec_stepper.initial_state()

    def spec_step(instruction: BitVec) -> None:
        nonlocal spec_state
        spec_state = spec_stepper.advance(spec_state, instruction)

    def spec_sample() -> Dict[str, BitVec]:
        spec_stepper.install(spec_state)
        return observation.select(specification.observe())

    with telemetry.span("beta.spec", manager=manager, backend=BETA_RELATIONAL):
        spec_samples, spec_cycles, spec_total = _drive_specification(
            plan,
            siminfo,
            specification.cycles_per_instruction,
            step=spec_step,
            sample=spec_sample,
        )
    spec_seconds = time.perf_counter() - started

    # --- Implementation: one relation step per pipeline cycle ----------
    started = time.perf_counter()
    impl_state = impl_stepper.initial_state()

    def impl_step(instruction: BitVec, fetch_valid) -> None:
        nonlocal impl_state
        impl_state = impl_stepper.advance(impl_state, instruction, fetch_valid)

    def impl_sample() -> Dict[str, BitVec]:
        impl_stepper.install(impl_state)
        return observation.select(implementation.observe())

    with telemetry.span("beta.impl", manager=manager, backend=BETA_RELATIONAL):
        impl_samples, ordered_cycles, impl_total = _drive_implementation(
            manager, architecture, plan, siminfo, step=impl_step, sample=impl_sample
        )
    impl_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with telemetry.span("beta.compare", manager=manager, backend=BETA_RELATIONAL):
        mismatches = _compare_samples(
            manager,
            architecture,
            observation,
            plan.labelled_vectors(),
            spec_samples,
            impl_samples,
            spec_cycles,
            ordered_cycles,
            witness_order=lambda: _compose_variable_order(architecture, siminfo),
        )
    comparison_seconds = time.perf_counter() - started

    report = _beta_report(
        architecture,
        siminfo,
        manager,
        observation,
        plan,
        mismatches,
        spec_total,
        impl_total,
        len(spec_samples),
        spec_seconds + extraction_seconds,
        impl_seconds,
        comparison_seconds,
        backend=BETA_RELATIONAL,
    )
    report.extraction_cache = dict(extraction_record)
    report.snapshot = dict(snapshot_record)
    return report


def _compare_samples(
    manager: BDDManager,
    architecture: Architecture,
    observation: ObservationSpec,
    labelled_vectors: Sequence[Tuple[str, BitVec]],
    spec_samples: Sequence[Dict[str, BitVec]],
    impl_samples: Sequence[Dict[str, BitVec]],
    spec_cycles: Sequence[int],
    impl_cycles: Sequence[int],
    witness_order: Optional[Callable[[], Sequence[str]]] = None,
) -> List[Mismatch]:
    """Pairwise canonical comparison of the sampled observables.

    Shared by the beta and events checks: the samples are canonical ROBDDs of
    the same Boolean functions, so the mismatch *set* cannot depend on
    the backend or the variable order — only witness don't-cares can,
    since the minimal witness follows the walk order.  Witnesses are
    walked in the order ``witness_order()`` returns when given (called
    at the first mismatch, so passing runs never build it), in
    ``manager``'s own order otherwise, and decoded against the
    ``(label, stimulus vector)`` pairs of ``labelled_vectors``.  All
    witnesses of one comparison share one :func:`~repro.bdd.distinguisher`,
    so they walk shared logic once.
    """
    mismatches: List[Mismatch] = []
    if len(spec_samples) != len(impl_samples):
        raise RuntimeError(
            "internal error: the sampling schedules of the two machines disagree "
            f"({len(spec_samples)} vs {len(impl_samples)} samples)"
        )
    find = None
    for index, (spec_obs, impl_obs) in enumerate(zip(spec_samples, impl_samples)):
        for name in observation:
            spec_value = spec_obs[name]
            impl_value = impl_obs[name]
            if spec_value.identical(impl_value):
                continue
            if find is None:
                find = distinguisher(
                    manager, witness_order() if witness_order is not None else None
                )
            witness = find(spec_value.bits, impl_value.bits)
            decoded, words = decode_counterexample(
                architecture, labelled_vectors, witness or {}
            )
            mismatches.append(
                Mismatch(
                    sample_index=index,
                    observable=name,
                    specification_cycle=spec_cycles[index],
                    implementation_cycle=impl_cycles[index],
                    counterexample=witness or {},
                    decoded_instructions=decoded,
                    instruction_words=words,
                )
            )
    return mismatches


def _beta_report(
    architecture: Architecture,
    siminfo: SimulationInfo,
    manager: BDDManager,
    observation: ObservationSpec,
    plan,
    mismatches: List[Mismatch],
    spec_total: int,
    impl_total: int,
    samples_compared: int,
    spec_seconds: float,
    impl_seconds: float,
    comparison_seconds: float,
    backend: str,
) -> VerificationReport:
    """Assemble the beta report (structure identical across backends)."""
    spec_filter = unpipelined_filter(
        architecture.order_k, siminfo.num_slots, siminfo.reset_cycles
    )
    impl_filter = pipelined_filter(
        architecture.order_k, siminfo.slots, architecture.delay_slots, siminfo.reset_cycles
    )
    return VerificationReport(
        design=architecture.name,
        passed=not mismatches,
        order_k=architecture.order_k,
        delay_slots=architecture.delay_slots,
        reset_cycles=siminfo.reset_cycles,
        slot_kinds=siminfo.slots,
        specification_cycles=spec_total,
        implementation_cycles=impl_total,
        specification_filter=spec_filter,
        implementation_filter=impl_filter,
        samples_compared=samples_compared,
        observables_compared=len(observation),
        sequences_covered=2 ** plan.free_variable_count,
        mismatches=mismatches,
        specification_seconds=spec_seconds,
        implementation_seconds=impl_seconds,
        comparison_seconds=comparison_seconds,
        bdd_nodes=manager.size(),
        bdd_variables=manager.num_vars(),
        backend=backend,
    )


# ----------------------------------------------------------------------
# Dynamic beta-relation with events (paper Section 5.5)
# ----------------------------------------------------------------------
def run_events(
    siminfo: SimulationInfo,
    event_slots: Sequence[int],
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
    symbolic_initial_state: bool = False,
) -> VerificationReport:
    """Verify the interrupt-capable pipelined VSM with the dynamic beta-relation.

    ``event_slots`` lists the instruction-slot indices at which an
    external event (interrupt) arrives.  The affected slot behaves like
    a forced trap: the specification performs the trap atomically, the
    implementation must squash the following fetch and redirect to the
    handler, and the filtering function treats the slot like a
    control-transfer slot (its delay slot is irrelevant).

    The diagrams are built under the beta backend's selector-first
    order (:func:`~repro.relational.beta.beta_stimulus_order`, each
    slot's squashed fetches directly above it) and compared by
    :func:`_compare_samples`, which walks the witnesses in stimulus build
    order: every slot's free instruction bits, then the squashed words
    by slot, then the register file.
    """
    from ..processors import symbolic_register_file
    from ..processors.interrupts import (
        SymbolicPipelinedVSMWithEvents,
        SymbolicUnpipelinedVSMWithEvents,
    )
    from ..relational.beta import beta_stimulus_order

    manager = manager if manager is not None else BDDManager()
    observation = observation if observation is not None else vsm_observables()
    impl_kwargs = impl_kwargs or {}
    event_set = set(event_slots)
    for slot in event_set:
        if not 0 <= slot < siminfo.num_slots:
            raise ValueError(f"event slot {slot} outside 0..{siminfo.num_slots - 1}")
        if siminfo.slots[slot] == CONTROL:
            raise ValueError(
                f"slot {slot} is a control-transfer slot; events are modelled on "
                "ordinary instruction slots"
            )

    k = vsm_isa.PIPELINE_DEPTH
    delay_slots = vsm_isa.DELAY_SLOTS
    architecture = VSMArchitecture()
    width = architecture.instruction_width

    # Effective slot kinds for the filtering functions: an event slot
    # squashes the fetch behind it exactly like a control transfer.
    effective_kinds = tuple(
        CONTROL if (kind == CONTROL or index in event_set) else NORMAL
        for index, kind in enumerate(siminfo.slots)
    )

    # Squashed (smoothed) words behind every control-transfer or event slot.
    # Events are taken when the affected instruction reaches the execute
    # stage, so two younger fetch slots are squashed; ordinary branches
    # squash one (the architectural delay slot).
    squashed_labels = {
        index: [f"squashed{index}.{j}" for j in range(2 if index in event_set else 1)]
        for index, kind in enumerate(effective_kinds)
        if kind == CONTROL
    }
    manager.declare_all(beta_stimulus_order(architecture, siminfo, squashed_labels))
    instructions: List[BitVec] = []
    for index, kind in enumerate(siminfo.slots):
        cube = architecture.instruction_class_cube(kind)
        instructions.append(
            BitVec.from_bits(
                manager,
                [
                    manager.constant(cube[bit]) if bit in cube
                    else manager.var(f"instr{index}[{bit}]")
                    for bit in range(width)
                ],
            )
        )
    squashed = {
        index: [BitVec.inputs(manager, label, width) for label in labels]
        for index, labels in squashed_labels.items()
    }
    labelled_vectors = [
        (f"instr{index}", vector) for index, vector in enumerate(instructions)
    ]
    for index, labels in squashed_labels.items():
        labelled_vectors.extend(zip(labels, squashed[index]))
    # The witness walk order: the stimulus literals, then the register
    # file, in build order (slot-major, squashed words below every
    # instruction bit), whatever order the manager declared them in.
    literals = [
        bit for _, vector in labelled_vectors for bit in vector.bits if not bit.is_terminal
    ]
    free_bits = len(literals)

    registers = None
    if symbolic_initial_state:
        registers = symbolic_register_file(manager, vsm_isa.NUM_REGISTERS, vsm_isa.DATA_WIDTH)
        literals.extend(bit for word in registers for bit in word.bits)

    specification = SymbolicUnpipelinedVSMWithEvents(manager)
    implementation = SymbolicPipelinedVSMWithEvents(manager, **impl_kwargs)
    specification.reset(initial_registers=registers)
    implementation.reset(initial_registers=registers)

    # --- Specification -----------------------------------------------------
    started = time.perf_counter()
    with telemetry.span("events.spec", manager=manager):
        spec_samples = [observation.select(specification.observe())]
        for index, instruction in enumerate(instructions):
            observed = specification.execute_instruction(
                instruction, event=index in event_set
            )
            spec_samples.append(observation.select(observed))
    spec_seconds = time.perf_counter() - started
    spec_total = siminfo.reset_cycles + k * siminfo.num_slots

    # --- Implementation ----------------------------------------------------
    # The sampling schedule is derived from the feeding schedule (this is the
    # dynamic beta-relation): a slot fed at cycle c retires, and is sampled,
    # at cycle c + k - 1; squashed fetches never retire.
    started = time.perf_counter()
    cycle = siminfo.reset_cycles - 1
    observations_by_cycle = {cycle: observation.select(implementation.observe())}
    nop = BitVec.constant(manager, 0, vsm_isa.INSTRUCTION_WIDTH)
    wanted = set()
    feed_cursor = cycle + 1
    for index, kind in enumerate(siminfo.slots):
        wanted.add(feed_cursor + k - 1)
        feed_cursor += 1 + len(squashed.get(index, []))

    def advance(word: BitVec, fetch_valid, event: bool) -> None:
        nonlocal cycle
        observed = implementation.step(word, fetch_valid=fetch_valid, event=event)
        cycle += 1
        if cycle in wanted:
            observations_by_cycle[cycle] = observation.select(observed)

    with telemetry.span("events.impl", manager=manager):
        for index, instruction in enumerate(instructions):
            advance(instruction, manager.one, event=False)
            extras = squashed.get(index, [])
            for position, word in enumerate(extras):
                # For an event slot the event line is asserted while the
                # affected instruction sits in the execute stage, i.e. two
                # cycles after it was fetched (the second squashed fetch).
                is_event_cycle = index in event_set and position == len(extras) - 1
                advance(word, manager.one, event=is_event_cycle)
        while cycle < max(wanted):
            advance(nop, manager.zero, event=False)
    impl_seconds = time.perf_counter() - started
    ordered = sorted(observations_by_cycle)
    impl_samples = [observations_by_cycle[c] for c in ordered]
    impl_total = cycle + 1
    impl_filter = tuple(1 if c in wanted or c == siminfo.reset_cycles - 1 else 0
                        for c in range(impl_total))

    started = time.perf_counter()
    spec_cycles = [siminfo.reset_cycles - 1 + k * i for i in range(siminfo.num_slots + 1)]
    with telemetry.span("events.compare", manager=manager):
        mismatches = _compare_samples(
            manager,
            architecture,
            observation,
            labelled_vectors,
            spec_samples,
            impl_samples,
            spec_cycles,
            ordered,
            witness_order=lambda: [manager.name_at_level(bit.level) for bit in literals],
        )
    comparison_seconds = time.perf_counter() - started

    return VerificationReport(
        design="VSM+events",
        passed=not mismatches,
        order_k=k,
        delay_slots=delay_slots,
        reset_cycles=siminfo.reset_cycles,
        slot_kinds=effective_kinds,
        specification_cycles=spec_total,
        implementation_cycles=impl_total,
        specification_filter=unpipelined_filter(k, siminfo.num_slots, siminfo.reset_cycles),
        implementation_filter=impl_filter,
        samples_compared=len(spec_samples),
        observables_compared=len(observation),
        sequences_covered=2 ** free_bits,
        mismatches=mismatches,
        specification_seconds=spec_seconds,
        implementation_seconds=impl_seconds,
        comparison_seconds=comparison_seconds,
        bdd_nodes=manager.size(),
        bdd_variables=manager.num_vars(),
        extra={"event_slots": sorted(event_set)},
    )


# ----------------------------------------------------------------------
# Concrete superscalar dynamic beta-relation (paper Section 5.7)
# ----------------------------------------------------------------------
def run_superscalar(program, issue_width: int = 2, impl_kwargs: Optional[dict] = None):
    """Dynamic-beta check of the dual-issue VSM on a concrete program.

    The implementation (``repro.processors.superscalar.SuperscalarVSM``)
    retires a variable number of instructions per cycle; the
    specification is the architectural VSM executor.  The observation
    points are derived *from the execution* (the dynamic beta-relation):
    the specification is sampled after the same cumulative number of
    retired instructions as the implementation at each of its retirement
    cycles, and the architectural states must agree at every such point.

    ``impl_kwargs`` carries the mutation knobs.  ``pipeline="scoreboard"``
    swaps the implementation for the Section 5.6 out-of-order-completion
    :class:`~repro.processors.scoreboard.ScoreboardVSM`, compared at its
    in-order points; the remaining knobs select the hazard/latency
    perturbations of the chosen pipeline.
    """
    from ..core.dynamic_beta import SuperscalarCheckResult
    from ..processors.superscalar import SuperscalarVSM
    from ..processors.vsm_unpipelined import UnpipelinedVSM

    knobs = dict(impl_kwargs or {})
    if knobs.pop("pipeline", "superscalar") == "scoreboard":
        return _run_scoreboard(program, knobs)
    hazard_checks = knobs.pop("hazard_checks", "full")
    if knobs:
        raise ValueError(f"unknown superscalar impl kwargs: {sorted(knobs)}")

    implementation = SuperscalarVSM(issue_width=issue_width, hazard_checks=hazard_checks)
    specification = UnpipelinedVSM()

    completions, impl_states = implementation.run(program)
    mismatches: List[str] = []
    spec_observation = specification.observe()
    spec_states = [spec_observation]
    for instruction in program:
        spec_observation = specification.execute_instruction(instruction.encode())
        spec_states.append(spec_observation)

    cumulative = 0
    for cycle, retired in enumerate(completions):
        if retired == 0:
            continue
        cumulative += retired
        impl_obs = impl_states[cycle]
        spec_obs = spec_states[cumulative]
        for name in spec_obs:
            if name in ("retired_op", "retired_dest"):
                continue
            if impl_obs[name] != spec_obs[name]:
                mismatches.append(
                    f"cycle {cycle} (after {cumulative} instructions): {name} "
                    f"impl={impl_obs[name]} spec={spec_obs[name]}"
                )
    impl_filter = tuple(1 if retired else 0 for retired in completions)
    spec_filter = superscalar_specification_filter(
        completions, k=vsm_isa.PIPELINE_DEPTH
    )
    return SuperscalarCheckResult(
        passed=not mismatches,
        instructions_executed=len(program),
        implementation_cycles=len(completions),
        completions_per_cycle=tuple(completions),
        specification_filter=spec_filter,
        implementation_filter=impl_filter,
        mismatches=mismatches,
    )


def _run_scoreboard(program, knobs: dict):
    """Dynamic-beta check of the scoreboarded VSM (paper Section 5.6).

    The scoreboard completes out of order, so the comparison happens only
    at its *in-order points* — cycles where the completed set is a prefix
    of program order (:meth:`ScoreboardTrace.in_order_points`); in the
    worst case only at the end of the program, exactly as the paper
    notes.  The per-cycle completion counts that drive the filters come
    from the recorded completion cycles.
    """
    from ..core.dynamic_beta import SuperscalarCheckResult
    from ..processors.scoreboard import LATENCY_PROFILES, ScoreboardVSM
    from ..processors.vsm_unpipelined import UnpipelinedVSM

    functional_units = knobs.pop("functional_units", 2)
    profile = knobs.pop("latency_profile", "default")
    raw_check = knobs.pop("issue_raw_check", "full")
    if knobs:
        raise ValueError(f"unknown scoreboard impl kwargs: {sorted(knobs)}")
    if profile not in LATENCY_PROFILES:
        raise ValueError(
            f"unknown latency profile {profile!r}; valid: {sorted(LATENCY_PROFILES)}"
        )

    implementation = ScoreboardVSM(
        functional_units=functional_units,
        latencies=LATENCY_PROFILES[profile],
        raw_check=raw_check,
    )
    specification = UnpipelinedVSM()

    trace = implementation.run(program)
    spec_observation = specification.observe()
    spec_states = [spec_observation]
    for instruction in program:
        spec_observation = specification.execute_instruction(instruction.encode())
        spec_states.append(spec_observation)

    mismatches: List[str] = []
    previous_count = 0
    comparison_cycles = set()
    for cycle, count in trace.in_order_points():
        if count == previous_count:
            continue  # nothing new completed since the last in-order point
        previous_count = count
        comparison_cycles.add(cycle)
        impl_obs = trace.observations[cycle]
        spec_obs = spec_states[count]
        for name in spec_obs:
            if name in ("retired_op", "retired_dest"):
                continue
            if impl_obs[name] != spec_obs[name]:
                mismatches.append(
                    f"cycle {cycle} (after {count} instructions): {name} "
                    f"impl={impl_obs[name]} spec={spec_obs[name]}"
                )

    completions = [0] * trace.cycles
    for index, cycle in trace.completion_cycle.items():
        completions[cycle] += 1
    impl_filter = tuple(1 if cycle in comparison_cycles else 0 for cycle in range(trace.cycles))
    spec_filter = superscalar_specification_filter(completions, k=vsm_isa.PIPELINE_DEPTH)
    return SuperscalarCheckResult(
        passed=not mismatches,
        instructions_executed=len(program),
        implementation_cycles=trace.cycles,
        completions_per_cycle=tuple(completions),
        specification_filter=spec_filter,
        implementation_filter=impl_filter,
        mismatches=mismatches,
    )


# ----------------------------------------------------------------------
# Campaign entry point
# ----------------------------------------------------------------------
def _serialize_mismatch(mismatch: Mismatch) -> Dict[str, object]:
    """Deterministic JSON form of one mismatch record."""
    return {
        "sample_index": mismatch.sample_index,
        "observable": mismatch.observable,
        "specification_cycle": mismatch.specification_cycle,
        "implementation_cycle": mismatch.implementation_cycle,
        "counterexample": {
            name: bool(value) for name, value in sorted(mismatch.counterexample.items())
        },
        "decoded": dict(sorted(mismatch.decoded_instructions.items())),
        "words": dict(sorted(mismatch.instruction_words.items())),
    }


def execute_scenario(
    scenario: Scenario,
    manager: Optional[BDDManager] = None,
    snapshot_store=None,
    relation_templates=None,
) -> ScenarioOutcome:
    """Execute one scenario on ``manager`` (fresh if ``None``).

    ``snapshot_store`` and ``relation_templates`` flow to the relational
    beta backend, which uses them to rehydrate extracted relations from
    persistent arena snapshots or to clone them from earlier restores
    (see :func:`run_beta`); the other drivers ignore them.
    """
    if scenario.needs_manager() and manager is None:
        manager = BDDManager()
    cache_before = manager.cache_statistics() if manager is not None else None

    started = time.perf_counter()
    with telemetry.span(
        "scenario.execute",
        manager=manager,
        scenario=scenario.name,
        kind=scenario.kind,
        design=scenario.design,
    ):
        outcome = _dispatch_scenario(
            scenario, manager, snapshot_store, relation_templates
        )
    outcome.seconds = time.perf_counter() - started

    if cache_before is not None:
        outcome.cache = telemetry.delta(cache_before, manager.cache_statistics())
    return outcome


def _dispatch_scenario(
    scenario: Scenario,
    manager: Optional[BDDManager],
    snapshot_store,
    relation_templates=None,
) -> ScenarioOutcome:
    """Route one scenario to its driver and wrap the outcome."""
    if scenario.kind == BETA:
        report = run_beta(
            scenario.architecture(),
            scenario.siminfo(),
            manager=manager,
            impl_kwargs=scenario.impl_kwargs(),
            observation=scenario.observation(),
            beta_backend=scenario.beta_backend,
            snapshot_store=snapshot_store,
            relation_templates=relation_templates,
        )
        outcome = _outcome_from_verification(scenario, report)
    elif scenario.kind == EVENTS:
        report = run_events(
            scenario.siminfo(),
            scenario.event_slots,
            manager=manager,
            impl_kwargs=scenario.impl_kwargs(),
            observation=scenario.observation(),
            symbolic_initial_state=scenario.symbolic_initial_state,
        )
        outcome = _outcome_from_verification(scenario, report)
    elif scenario.kind == SUPERSCALAR:
        result = run_superscalar(
            scenario.decoded_program(),
            issue_width=scenario.issue_width,
            impl_kwargs=scenario.impl_kwargs(),
        )
        outcome = ScenarioOutcome(
            scenario=scenario.name,
            kind=scenario.kind,
            design=scenario.design,
            passed=result.passed,
            mismatches=[{"description": text} for text in result.mismatches],
            structure={
                "instructions_executed": result.instructions_executed,
                "implementation_cycles": result.implementation_cycles,
                "completions_per_cycle": list(result.completions_per_cycle),
                "specification_filter": list(result.specification_filter),
                "implementation_filter": list(result.implementation_filter),
                "issue_width": scenario.issue_width,
                "speedup": round(result.speedup, 6),
            },
        )
    else:  # pragma: no cover - Scenario.__post_init__ rejects unknown kinds
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    return outcome


def _outcome_from_verification(
    scenario: Scenario, report: VerificationReport
) -> ScenarioOutcome:
    """Wrap a :class:`VerificationReport` into a deterministic outcome."""
    structure = {
        "design": report.design,
        "k": report.order_k,
        "delay_slots": report.delay_slots,
        "reset_cycles": report.reset_cycles,
        "slot_kinds": list(report.slot_kinds),
        "specification_cycles": report.specification_cycles,
        "implementation_cycles": report.implementation_cycles,
        "specification_filter": list(report.specification_filter),
        "implementation_filter": list(report.implementation_filter),
        "samples_compared": report.samples_compared,
        "observables_compared": report.observables_compared,
        "sequences_covered": report.sequences_covered,
    }
    if report.extra:
        structure["extra"] = report.extra
    return ScenarioOutcome(
        scenario=scenario.name,
        kind=scenario.kind,
        design=scenario.design,
        passed=report.passed,
        mismatches=[_serialize_mismatch(mismatch) for mismatch in report.mismatches],
        structure=structure,
        timings={
            "specification_seconds": report.specification_seconds,
            "implementation_seconds": report.implementation_seconds,
            "comparison_seconds": report.comparison_seconds,
        },
        bdd_nodes=report.bdd_nodes,
        bdd_variables=report.bdd_variables,
        extraction_cache=dict(report.extraction_cache),
        backend=report.backend,
        snapshot=dict(report.snapshot),
    )
