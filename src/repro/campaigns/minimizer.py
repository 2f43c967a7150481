"""Witness minimizer: shrink refuting scenarios into golden records.

A raw fuzz witness carries incidental complexity — jitter slots the
generator appended, mutation knobs that are not load-bearing, filler
instructions, a wider observation than the mismatch needs.  The
minimizer performs greedy delta debugging over the scenario's *fields*:
each pass proposes a strictly simpler candidate, the candidate is run
through the ordinary :class:`~repro.engine.runner.CampaignRunner`
(sharing the campaign's pool, memo and store — no bespoke driver), and
the candidate replaces the current witness **only if it still
refutes**.  A candidate that passes, errors, or fails validation is
discarded, so minimization can never flip a verdict by construction —
the output refutes because every accepted step was re-verified.

Shrink passes, in order (to fixpoint, under a run budget):

1. drop a mutation-knob pair (is the knob load-bearing?)
2. drop the trailing instruction slot, then each inner slot
3. drop an event slot, move an event one slot earlier (storms shrink
   to the canonical earliest single triggering event)
4. drop a program instruction; decrement register/literal fields to
   their smallest still-refuting values (superscalar/scoreboard
   witnesses converge on one canonical program across seeds)
5. reduce ``issue_width`` to 2
6. reduce ``reset_cycles`` to 1
7. concretize ``symbolic_initial_state``
8. (optional last phase) narrow ``observe`` to the mismatching
   observables — separated because it changes the witness *content*;
   the campaign dedupes against the corpus before and after it.

The minimized scenario is renamed ``fuzz/min/<fingerprint12>`` — a pure
function of its content — and tagged ``minimized``, so re-discovering
the same underlying defect from any seed converges to the same record.

Passes 1-7 depend only on the witness and on which candidates refute,
never on the starting scenario's own outcome, so
:func:`speculate_shrink` can run them ahead of time on an idle parallel
worker: every candidate verdict lands in the shared result store, and
the later :func:`minimize_witness` replays them as store hits.  A store
hit counts as an attempt like a computed run, so the replayed result —
attempt counts included — equals the cold one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional

from ..engine.report import ScenarioOutcome
from ..engine.runner import CampaignRunner
from ..engine.scenario import SUPERSCALAR, Scenario
from ..isa import vsm as vsm_isa
from .. import telemetry
from .corpus import witness_key


def replace_instruction(
    instruction: "vsm_isa.VSMInstruction", field_name: str, value: int
) -> "vsm_isa.VSMInstruction":
    """One instruction with a single register/literal field replaced."""
    fields = {
        "mnemonic": instruction.mnemonic,
        "literal_flag": instruction.literal_flag,
        "ra": instruction.ra,
        "rb": instruction.rb,
        "rc": instruction.rc,
    }
    fields[field_name] = value
    return vsm_isa.VSMInstruction(**fields)

#: Default cap on (non-memoized) candidate runs per minimization.  The
#: concrete superscalar/scoreboard checks run in microseconds, so their
#: witnesses can afford the deep decrement fixpoint that makes programs
#: converge across seeds; symbolic (BDD) candidates cost seconds each.
DEFAULT_BUDGET_CONCRETE = 512
DEFAULT_BUDGET_SYMBOLIC = 48


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one witness minimization."""

    scenario: Scenario
    outcome: ScenarioOutcome
    initial_fingerprint: str
    fingerprint: str
    attempts: int = 0
    accepted: int = 0
    #: ``False`` when the run budget expired before the shrink fixpoint.
    converged: bool = True

    @property
    def reduced(self) -> bool:
        """Whether any shrink step was accepted."""
        return self.accepted > 0


def _refutes(outcome: ScenarioOutcome) -> bool:
    return not outcome.passed and outcome.error is None and bool(outcome.mismatches)


def _mismatch_observables(outcome: ScenarioOutcome) -> Optional[List[str]]:
    """The observable names a beta/events mismatch set touches."""
    names = set()
    for mismatch in outcome.mismatches:
        observable = mismatch.get("observable")
        if observable is None:
            return None  # superscalar mismatches carry no observable field
        names.add(str(observable))
    return sorted(names) if names else None


def _build(current: Scenario, **changes) -> Optional[Scenario]:
    """``replace`` that treats validation failures as "no candidate".

    Dropping one field can orphan another (e.g. removing the
    ``pipeline: scoreboard`` knob while scoreboard knobs remain) — such
    a candidate is simply not a well-formed scenario, not an error.
    """
    try:
        return replace(current, **changes)
    except (TypeError, ValueError):
        return None


def _structural_candidates(current: Scenario) -> Iterator[Scenario]:
    """Strictly simpler, well-formed variants of ``current``."""
    candidates: List[Optional[Scenario]] = []
    # 1. Drop one mutation pair.
    for index in range(len(current.mutations)):
        candidates.append(
            _build(
                current,
                mutations=current.mutations[:index] + current.mutations[index + 1 :],
            )
        )
    # 2. Drop slots: trailing first (cheapest shrink), then each inner.
    if len(current.slots) > 1:
        highest_event = max(current.event_slots, default=-1)
        for index in range(len(current.slots) - 1, -1, -1):
            if index <= highest_event:
                break  # keep the event schedule's slots aligned
            candidates.append(
                _build(current, slots=current.slots[:index] + current.slots[index + 1 :])
            )
    # 3. Drop one event slot.
    if len(current.event_slots) > 1:
        for index in range(len(current.event_slots)):
            candidates.append(
                _build(
                    current,
                    event_slots=current.event_slots[:index]
                    + current.event_slots[index + 1 :],
                )
            )
    # 3b. Move one event earlier (storms at late slots converge toward
    # the canonical earliest still-refuting schedule).
    for index, slot in enumerate(current.event_slots):
        if slot > 0 and slot - 1 not in current.event_slots:
            moved = tuple(
                sorted(
                    current.event_slots[:index]
                    + (slot - 1,)
                    + current.event_slots[index + 1 :]
                )
            )
            candidates.append(_build(current, event_slots=moved))
    # 4. Drop one program instruction, from the end backwards.
    if len(current.program) > 1:
        for index in range(len(current.program) - 1, -1, -1):
            candidates.append(
                _build(
                    current,
                    program=current.program[:index] + current.program[index + 1 :],
                )
            )
    # 4b. Decrement one register/literal field of one instruction.  At
    # the fixpoint every field sits at its smallest still-refuting value,
    # so equivalent witnesses from different seeds converge on one
    # canonical program (and one corpus fingerprint).
    for index, word in enumerate(current.program):
        instruction = vsm_isa.decode(word)
        for field_name in ("ra", "rb", "rc"):
            value = getattr(instruction, field_name)
            if value > 0:
                smaller = replace_instruction(instruction, field_name, value - 1)
                candidates.append(
                    _build(
                        current,
                        program=current.program[:index]
                        + (smaller.encode(),)
                        + current.program[index + 1 :],
                    )
                )
    # 4c. Rename register ``v`` to ``v - 1`` across the whole program.
    # Single-field decrements cannot shrink a register that couples a
    # producer's destination to a consumer's source; a global rename
    # moves the pair together (the acceptance re-run rejects renames
    # that collide with a live register).
    if current.program:
        decoded = [vsm_isa.decode(word) for word in current.program]
        register_values = set()
        for instruction in decoded:
            if instruction.is_control_transfer:
                register_values.add(instruction.rc)
                continue
            register_values.add(instruction.ra)
            register_values.add(instruction.rc)
            if not instruction.literal_flag:
                register_values.add(instruction.rb)
        for value in sorted(register_values):
            if value == 0:
                continue
            renamed = []
            for instruction in decoded:
                fields = ["ra", "rb", "rc"]
                if instruction.is_control_transfer:
                    fields = ["rc"]  # ra is the displacement, rb unused
                elif instruction.literal_flag:
                    fields = ["ra", "rc"]  # rb is the literal
                new_instruction = instruction
                for field_name in fields:
                    if getattr(new_instruction, field_name) == value:
                        new_instruction = replace_instruction(
                            new_instruction, field_name, value - 1
                        )
                renamed.append(new_instruction.encode())
            if tuple(renamed) != current.program:
                candidates.append(_build(current, program=tuple(renamed)))
    # 5-7. Scalar reductions.
    if current.issue_width > 2:
        candidates.append(_build(current, issue_width=2))
    if current.reset_cycles > 1:
        candidates.append(_build(current, reset_cycles=1))
    if current.symbolic_initial_state:
        candidates.append(_build(current, symbolic_initial_state=False))
    return iter(candidate for candidate in candidates if candidate is not None)


def _default_budget(scenario: Scenario) -> int:
    if scenario.kind == SUPERSCALAR:
        return DEFAULT_BUDGET_CONCRETE
    return DEFAULT_BUDGET_SYMBOLIC


@dataclass
class _Walk:
    """The greedy walk's state: the current witness and its run counts."""

    current: Scenario
    outcome: Optional[ScenarioOutcome]
    attempts: int = 0
    accepted: int = 0
    converged: bool = True

    def attempt(self, runner: CampaignRunner, candidate: Scenario) -> bool:
        """Run ``candidate``; adopt it if it still refutes."""
        candidate_outcome = runner.run_one(candidate)
        # Memo-served re-evaluations (the greedy loop revisits rejected
        # candidates after every accepted shrink) cost nothing — only
        # real runs (store hits included) draw down the budget.
        if not candidate_outcome.memoized:
            self.attempts += 1
        if _refutes(candidate_outcome):
            self.current, self.outcome = candidate, candidate_outcome
            self.accepted += 1
            return True
        return False

    def shrink(self, runner: CampaignRunner, budget: int) -> None:
        """Structural passes to fixpoint, restarting after every accept."""
        improving = True
        while improving:
            improving = False
            for candidate in _structural_candidates(self.current):
                if self.attempts >= budget:
                    self.converged = False
                    return
                if self.attempt(runner, candidate):
                    improving = True
                    break


def speculate_shrink(scenario: Scenario, runner: CampaignRunner) -> None:
    """Run the structural walk of ``scenario`` ahead of its minimization.

    A job for an idle parallel worker (see
    :meth:`~repro.engine.runner.CampaignRunner.run`): the walk's
    candidates depend on each other's verdicts, never on the scenario's
    own, so it can start before the scenario has run.  ``runner`` is
    the job's own, over the campaign's store, so the walk's only effect
    is publishing candidate verdicts; the campaign's later
    :func:`minimize_witness` replays them as store hits.
    """
    _Walk(scenario, None).shrink(runner, _default_budget(scenario))


def minimize_witness(
    scenario: Scenario,
    runner: CampaignRunner,
    outcome: Optional[ScenarioOutcome] = None,
    budget: Optional[int] = None,
    narrow_observe: bool = True,
) -> MinimizationResult:
    """Shrink a refuting ``scenario`` while preserving its refutation.

    ``outcome`` is the scenario's known refuting outcome (re-run through
    ``runner`` when omitted).  Raises :class:`ValueError` when the
    scenario does not refute — minimizing a passing scenario is a
    ground-truth violation upstream, not a shrink job.
    """
    if budget is None:
        budget = _default_budget(scenario)
    if outcome is None:
        outcome = runner.run_one(scenario)
    if not _refutes(outcome):
        raise ValueError(
            f"scenario {scenario.name!r} does not refute; nothing to minimize"
        )
    initial_fingerprint = witness_key(scenario)
    walk = _Walk(scenario, outcome)
    with telemetry.span("fuzz.minimize", scenario=scenario.name):
        walk.shrink(runner, budget)
        if narrow_observe and walk.converged:
            names = _mismatch_observables(walk.outcome)
            narrower = names is not None and (
                walk.current.observe is None or len(names) < len(walk.current.observe)
            )
            if narrower and walk.attempts < budget:
                walk.attempt(runner, replace(walk.current, observe=tuple(names)))

    final = replace(
        walk.current,
        name=f"fuzz/min/{witness_key(walk.current)[:12]}",
        tags=tuple(tag for tag in scenario.tags if not tag.startswith("seed:"))
        + ("minimized",),
    )
    registry = telemetry.get_registry()
    registry.counter("fuzz.minimize_attempts").inc(walk.attempts)
    registry.counter("fuzz.minimize_accepted").inc(walk.accepted)
    return MinimizationResult(
        scenario=final,
        outcome=walk.outcome,
        initial_fingerprint=initial_fingerprint,
        fingerprint=witness_key(final),
        attempts=walk.attempts,
        accepted=walk.accepted,
        converged=walk.converged,
    )
