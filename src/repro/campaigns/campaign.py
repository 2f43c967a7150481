"""Fuzz-campaign orchestration: generate → run → dedupe → minimize.

:func:`run_fuzz_campaign` is the one entry point the benchmarks, the CI
smoke step and the tests share.  It composes the existing machinery —
the seeded generator, the ordinary :class:`CampaignRunner` (pooling,
memoisation, persistent store, optional parallelism), the
fingerprint-deduplicated corpus and the witness minimizer — without any
bespoke driver loop, and audits every verdict against the generator's
planted ground truth.

A parallel campaign with minimization on hands the runner one
speculative job per planted bug whose raw witness the corpus does not
know: workers with no unit left run that bug's structural shrink walk
(:func:`~repro.campaigns.minimizer.speculate_shrink`) and publish the
candidate verdicts to the store, so the minimization pass after the
run — unchanged and authoritative — replays them as store hits instead
of computing them one at a time on the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..engine.report import CampaignReport, ScenarioOutcome
from ..engine.runner import CampaignRunner
from ..engine.scenario import Scenario
from .. import telemetry
from .corpus import CounterexampleCorpus, default_corpus_root, witness_key
from .generator import (
    EXPECT_FAIL,
    EXPECT_PASS,
    generate_scenarios,
    planted_class,
)
from .minimizer import minimize_witness, speculate_shrink


@dataclass
class FuzzCampaignResult:
    """Everything a fuzz campaign produced, audited against ground truth."""

    seed: int
    count: int
    report: CampaignReport
    scenarios: List[Scenario] = field(default_factory=list)
    #: Verdicts that contradict the generator's expectation tags (or
    #: errored).  An empty list is the campaign's acceptance signal.
    ground_truth_violations: List[Dict[str, object]] = field(default_factory=list)
    #: Per mutation class: did every planted bug of that class refute?
    planted_detected: Dict[str, bool] = field(default_factory=dict)
    #: Refuting witnesses whose (minimized) fingerprint was already in
    #: the corpus: ``{"scenario", "fingerprint", "matches"}``.
    duplicates: List[Dict[str, object]] = field(default_factory=list)
    #: Corpus records for genuinely new witnesses (post-minimization).
    new_records: List[Dict[str, object]] = field(default_factory=list)
    #: Aggregate minimizer activity.
    minimization: Dict[str, int] = field(
        default_factory=lambda: {"runs": 0, "attempts": 0, "accepted": 0}
    )
    corpus_stats: Dict[str, object] = field(default_factory=dict)
    store_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every verdict matched the planted ground truth."""
        return not self.ground_truth_violations

    @property
    def witnesses_found(self) -> int:
        return len(self.duplicates) + len(self.new_records)

    def summary(self) -> Dict[str, object]:
        """Flat JSON summary (benchmarks and the CI smoke step emit this)."""
        return {
            "seed": self.seed,
            "count": self.count,
            "scenarios": len(self.scenarios),
            "ok": self.ok,
            "violations": len(self.ground_truth_violations),
            "planted_classes": sorted(self.planted_detected),
            "planted_detected": all(self.planted_detected.values())
            if self.planted_detected
            else False,
            "witnesses": self.witnesses_found,
            "duplicates": len(self.duplicates),
            "new_records": len(self.new_records),
            "minimization": dict(self.minimization),
            "memo_hits": self.report.memo_hits,
            "mode": self.report.mode,
            "total_seconds": self.report.total_seconds,
            "corpus": dict(self.corpus_stats),
        }


def _audit_ground_truth(
    scenarios: Sequence[Scenario], outcomes: Sequence[ScenarioOutcome]
) -> Tuple[List[Dict[str, object]], Dict[str, bool]]:
    """Compare verdicts against expectation tags, per scenario and class."""
    violations: List[Dict[str, object]] = []
    detected: Dict[str, bool] = {}
    for scenario, outcome in zip(scenarios, outcomes):
        expect_fail = EXPECT_FAIL in scenario.tags
        expect_pass = EXPECT_PASS in scenario.tags
        if not (expect_fail or expect_pass):
            continue  # foreign scenario without ground truth
        if expect_fail:
            class_name = planted_class(scenario) or "unknown"
            refuted = (not outcome.passed) and outcome.error is None
            detected[class_name] = detected.get(class_name, True) and refuted
        if outcome.error is not None:
            violations.append(
                {
                    "scenario": scenario.name,
                    "expected": "fail" if expect_fail else "pass",
                    "got": "error",
                    "error": outcome.error,
                }
            )
        elif outcome.passed == expect_fail:
            violations.append(
                {
                    "scenario": scenario.name,
                    "expected": "fail" if expect_fail else "pass",
                    "got": "pass" if outcome.passed else "fail",
                }
            )
    return violations, detected


def run_fuzz_campaign(
    seed: int,
    count: int,
    runner: Optional[CampaignRunner] = None,
    store_path: Optional[Union[str, Path]] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    classes: Optional[Sequence[str]] = None,
    corpus: Optional[CounterexampleCorpus] = None,
    corpus_root: Optional[Union[str, Path]] = None,
    golden_path: Optional[Union[str, Path]] = None,
    minimize: bool = True,
    max_minimize: Optional[int] = None,
    write_corpus: bool = False,
) -> FuzzCampaignResult:
    """Run one seeded generative bug-hunt campaign end to end.

    Generates ``count`` scenarios from ``seed``, runs them through a
    (possibly supplied) :class:`CampaignRunner` — parallel when
    ``parallel`` — audits the verdicts against the planted ground
    truth, then processes every refuting witness: dedupe against the
    corpus, minimize if new, dedupe again (minimization often collapses
    a mutant onto a known golden record), and register/persist whatever
    is genuinely new.  ``max_minimize`` caps minimizer invocations;
    witnesses past the cap are recorded raw.  ``write_corpus`` persists
    new records under the corpus root (the committed
    ``tests/data/fuzz_corpus`` when no root is given); without it the
    corpus stays in-memory.  Parallel campaigns speculate (see the
    module docstring); their records equal a serial run's byte for
    byte.
    """
    runner = runner or CampaignRunner(store_path=store_path)
    scenarios = generate_scenarios(seed, count, classes=classes)
    corpus = corpus or CounterexampleCorpus(root=corpus_root, golden_path=golden_path)
    with telemetry.span(
        "fuzz.campaign", seed=seed, count=count, scenarios=len(scenarios)
    ):
        jobs = []
        if parallel and minimize:
            # Idle workers walk the planted bugs' structural shrinks
            # ahead of the minimizer below, which replays them from the
            # store.
            jobs = [
                (speculate_shrink, scenario)
                for scenario in scenarios
                if EXPECT_FAIL in scenario.tags and not corpus.is_known(scenario)
            ][:max_minimize]
        report = runner.run(
            scenarios, parallel=parallel, max_workers=max_workers, _jobs=jobs
        )

        violations, detected = _audit_ground_truth(scenarios, report.outcomes)

        result = FuzzCampaignResult(
            seed=seed,
            count=count,
            report=report,
            scenarios=scenarios,
            ground_truth_violations=violations,
            planted_detected=detected,
        )
        registry = telemetry.get_registry()
        for scenario, outcome in zip(scenarios, report.outcomes):
            if outcome.passed or outcome.error is not None:
                continue
            _process_witness(
                scenario,
                outcome,
                runner,
                corpus,
                result,
                minimize=minimize
                and (max_minimize is None or result.minimization["runs"] < max_minimize),
                write_corpus=write_corpus,
            )
        registry.counter("fuzz.witnesses").inc(result.witnesses_found)
        registry.counter("fuzz.duplicates").inc(len(result.duplicates))
        registry.counter("fuzz.new_records").inc(len(result.new_records))
        result.corpus_stats = corpus.statistics()
        if runner.store is not None:
            result.store_stats = runner.store.disk_statistics()
    return result


def _process_witness(
    scenario: Scenario,
    outcome: ScenarioOutcome,
    runner: CampaignRunner,
    corpus: CounterexampleCorpus,
    result: FuzzCampaignResult,
    minimize: bool,
    write_corpus: bool,
) -> None:
    """Dedupe → minimize → dedupe → record one refuting witness."""
    provenance: Dict[str, object] = {
        "seed": result.seed,
        "source": scenario.name,
        "class": planted_class(scenario),
    }
    source = corpus.source_of(scenario)
    if source is not None:
        result.duplicates.append(
            {
                "scenario": scenario.name,
                "fingerprint": witness_key(scenario),
                "matches": source,
            }
        )
        return
    final_scenario, final_outcome = scenario, outcome
    if minimize:
        # The minimizer's candidates run through ``run_one``, which pools
        # a manager per candidate signature; free them once this
        # witness's walk ends, however it ends.
        try:
            # Phase 1: structural shrinking only — it preserves comparability
            # with catalogue workloads, so a jittered planted bug collapses
            # onto the committed golden record and dedupes away here.
            structural = minimize_witness(
                scenario, runner, outcome=outcome, narrow_observe=False
            )
            result.minimization["runs"] += 1
            result.minimization["attempts"] += structural.attempts
            result.minimization["accepted"] += structural.accepted
            source = corpus.source_of(structural.scenario)
            if source is not None:
                result.duplicates.append(
                    {
                        "scenario": scenario.name,
                        "fingerprint": structural.fingerprint,
                        "matches": source,
                        "minimized": True,
                    }
                )
                return
            # Phase 2: the witness is genuinely new — narrow its observation
            # to the mismatching observables before committing it.
            narrowed = minimize_witness(
                structural.scenario,
                runner,
                outcome=structural.outcome,
                narrow_observe=True,
            )
            result.minimization["attempts"] += narrowed.attempts
            result.minimization["accepted"] += narrowed.accepted
            source = corpus.source_of(narrowed.scenario)
            if source is not None:
                result.duplicates.append(
                    {
                        "scenario": scenario.name,
                        "fingerprint": narrowed.fingerprint,
                        "matches": source,
                        "minimized": True,
                    }
                )
                return
            provenance["minimized_from"] = witness_key(scenario)
            provenance["minimize_attempts"] = structural.attempts + narrowed.attempts
            final_scenario, final_outcome = narrowed.scenario, narrowed.outcome
        finally:
            runner.pool.release_all()
    record = corpus.add(
        final_scenario, final_outcome, provenance=provenance, write=write_corpus
    )
    result.new_records.append(record)
