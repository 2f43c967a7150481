"""Seeded campaign workloads of the benchmark.

The benchmark seed is the only input.  Each workload turns it into a
fixed list of :class:`~repro.engine.Scenario` objects -- the program
under test sees nothing else -- and runs one campaign per *rep* through
the public engine API: :class:`~repro.engine.CampaignRunner` for the two
prove workloads, :func:`~repro.campaigns.run_fuzz_campaign` for the bug
hunt.  Result stores live in temporary directories under the benchmark's
scratch directory; the committed witness corpus is read, never written.
"""

from __future__ import annotations

import gc
import itertools
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaigns import (
    EXPECT_FAIL,
    FUZZ_ALPHA0_SPEC,
    CounterexampleCorpus,
    FuzzCampaignResult,
    generate_scenario,
    generate_scenarios,
    planted_class,
    run_fuzz_campaign,
)
from repro.engine import ALPHA0, VSM, CampaignReport, CampaignRunner, ResultStore, Scenario
from repro.strings import CONTROL, NORMAL

PROVE_COLD = "prove-cold"
PROVE_REHYDRATE = "prove-rehydrate"
BUG_HUNT = "bug-hunt"

#: Prove-list strata: ``(design, slots, control transfers, reset cycles)``,
#: one entry per scenario.  The seed picks where the control transfers
#: sit and the campaign order; the strata fix how many scenarios of each
#: shape a list holds, so every seed costs about the same.  Slot strings
#: stay at 2-3 slots: one 4-slot all-normal VSM draw alone costs more
#: than the rest of such a campaign.
PROVE_STRATA: Dict[str, Tuple[Tuple[str, int, int, int], ...]] = {
    "full": (
        (VSM, 2, 0, 1),
        (VSM, 2, 1, 1),
        (VSM, 2, 1, 2),
        (VSM, 2, 0, 2),
        (VSM, 3, 1, 1),
        (VSM, 3, 1, 1),
        (VSM, 3, 1, 2),
        (VSM, 3, 2, 1),
        (VSM, 3, 2, 2),
        (VSM, 3, 0, 2),
        (ALPHA0, 2, 1, 1),
        (ALPHA0, 3, 0, 1),
        (ALPHA0, 3, 1, 1),
    ),
    "tiny": ((VSM, 2, 0, 1), (VSM, 2, 1, 1)),
}

#: A bug-hunt rep runs this many fuzz campaigns of 10 scenarios (every
#: mutation class once) back to back on one runner and store.  The
#: tiny scale (harness self-test) keeps two cheap concrete classes.
BUG_HUNT_CAMPAIGNS = {"full": 3, "tiny": 1}
BUG_HUNT_COUNT = 10
BUG_HUNT_CLASSES = {"full": None, "tiny": ("superscalar_hazard", "scoreboard_raw")}
BUG_HUNT_WORKERS = 2


def _slot_strings(length: int, controls: int) -> List[Tuple[str, ...]]:
    """Every slot string of ``length`` slots with ``controls`` transfers."""
    return [
        tuple(CONTROL if index in positions else NORMAL for index in range(length))
        for positions in itertools.combinations(range(length), controls)
    ]


def prove_scenarios(seed: int, scale: str = "full") -> List[Scenario]:
    """The seeded list of distinct passing beta checks of the prove workloads.

    Scenarios of one stratum are sampled without replacement, so no two
    scenarios of a list share content (a duplicate would be a memo hit
    that runs in no time and silently shrinks the campaign).
    """
    rng = random.Random(f"perfbench:prove:{seed}")
    counts: Dict[Tuple[str, int, int, int], int] = {}
    for stratum in PROVE_STRATA[scale]:
        counts[stratum] = counts.get(stratum, 0) + 1
    drawn: List[Tuple[str, Tuple[str, ...], int]] = []
    for (design, length, controls, reset), count in counts.items():
        for slots in rng.sample(_slot_strings(length, controls), count):
            drawn.append((design, slots, reset))
    rng.shuffle(drawn)
    scenarios = []
    for index, (design, slots, reset) in enumerate(drawn):
        shape = "".join("c" if slot == CONTROL else "n" for slot in slots)
        extra = {"alpha0": FUZZ_ALPHA0_SPEC} if design == ALPHA0 else {}
        scenarios.append(
            Scenario(
                name=f"prove/{seed}/{index:02d}/{design}-{shape}-r{reset}",
                design=design,
                slots=slots,
                reset_cycles=reset,
                tags=("perfbench", "expect:pass"),
                **extra,
            )
        )
    return scenarios


#: Most slots a symbolic scenario of each mutation class may have.  The
#: generator's cost is heavy-tailed in the slot count: at 2 slots a
#: class costs a fraction of a second, while a 5-slot interrupt storm
#: took 163 s and a 3-slot bypass drop 10-18 s (its compose fallback
#: grows fastest).
BUG_HUNT_MAX_SLOTS = {
    "golden_slots": 2,
    "bypass_drop": 2,
    "branch_skew": 2,
    "planted_bug": 2,
    "alpha0_case": 2,
    "event_storm": 3,
}
#: The Alpha0 case of each campaign of a rep.  An Alpha0 scenario costs
#: seconds where a 2-slot VSM one costs tenths, so every rep runs the
#: same Alpha0 mix.
BUG_HUNT_ALPHA0_PICKS = ("no_bypass", "no_annul", "cmpeq_inverted")
#: The bypass drop of a rep's first campaign: 3 slots, operand ``a``.
#: Its compose fallback (about 8 s of a 9 s refutation) keeps the rep
#: dominated by refutation work, as real bug hunts are, while every
#: seed pays the same for it.
BUG_HUNT_ANCHOR = ((NORMAL,) * 3, (("bypass_operands", "a"),))


def bug_hunt_admissible(
    fuzz_seed: int, corpus: CounterexampleCorpus, alpha0_pick: Optional[str], anchored: bool
) -> bool:
    """Whether fuzz campaign ``fuzz_seed`` has the bug hunt's cost shape.

    A seed that drew one of the generator's heavy-tail scenarios (too
    many slots for its class, or the symbolic-initial-state Alpha0
    ``store_wrong_word`` case, 30 s alone) would swing the workload
    between cost modes, so such fuzz seeds are skipped, and so are
    seeds whose Alpha0 case is not ``alpha0_pick`` or, when
    ``anchored``, whose bypass drop is not :data:`BUG_HUNT_ANCHOR`.  The
    campaign must also hold a planted bug whose raw witness is not in
    the corpus, so the minimizer runs.
    """
    needs_minimizing = False
    for index in range(BUG_HUNT_COUNT):
        scenario = generate_scenario(fuzz_seed, index)
        kind = planted_class(scenario)
        if kind == "bypass_drop" and anchored:
            if (scenario.slots, scenario.mutations) != BUG_HUNT_ANCHOR:
                return False
        elif len(scenario.slots) > BUG_HUNT_MAX_SLOTS.get(kind, len(scenario.slots)):
            return False
        if kind == "alpha0_case" and scenario.bug != alpha0_pick:
            return False
        if EXPECT_FAIL in scenario.tags and not corpus.is_known(scenario):
            needs_minimizing = True
    return needs_minimizing


def bug_hunt_fuzz_seeds(seed: int, scale: str) -> List[int]:
    """The fuzz seeds a benchmark seed selects: one admissible seed per campaign.

    Choosing the inputs is the benchmark's work, not the program's, so
    it is not part of the set-up time.
    """
    if scale == "tiny":
        return [seed]
    corpus = CounterexampleCorpus()
    chosen: List[int] = []
    candidates = itertools.count(seed * 1_000_000)
    for campaign, alpha0_pick in enumerate(BUG_HUNT_ALPHA0_PICKS[: BUG_HUNT_CAMPAIGNS[scale]]):
        for candidate in candidates:
            if bug_hunt_admissible(candidate, corpus, alpha0_pick, anchored=campaign == 0):
                chosen.append(candidate)
                break
    return chosen


def merge_fuzz_results(results: Sequence[FuzzCampaignResult]) -> FuzzCampaignResult:
    """One result (and report) for fuzz campaigns run back to back."""
    reports = [result.report for result in results]
    store: Dict[str, Dict[str, float]] = {}
    for report in reports:
        for family in ("results", "snapshots"):
            merged = store.setdefault(family, {})
            for name, value in (report.store or {}).get(family, {}).items():
                if isinstance(value, (int, float)) and not name.endswith("_rate"):
                    merged[name] = merged.get(name, 0) + value
    report = CampaignReport(
        outcomes=[outcome for report in reports for outcome in report.outcomes],
        mode=reports[0].mode,
        pool={
            "per_worker": [
                worker for report in reports for worker in report.pool.get("per_worker", [])
            ],
            "units": sum(report.pool.get("units", 0) for report in reports),
        },
        memo_hits=sum(report.memo_hits for report in reports),
        total_seconds=sum(report.total_seconds for report in reports),
        store=store,
        resilience={
            "retries": sum((report.resilience or {}).get("retries", 0) for report in reports)
        },
    )
    detected: Dict[str, bool] = {}
    for result in results:
        for name, found in result.planted_detected.items():
            detected[name] = detected.get(name, True) and found
    minimization = {
        key: sum(result.minimization.get(key, 0) for result in results)
        for key in ("runs", "attempts", "accepted")
    }
    return FuzzCampaignResult(
        seed=results[0].seed,
        count=sum(result.count for result in results),
        report=report,
        scenarios=[scenario for result in results for scenario in result.scenarios],
        ground_truth_violations=[
            violation for result in results for violation in result.ground_truth_violations
        ],
        planted_detected=detected,
        duplicates=[entry for result in results for entry in result.duplicates],
        new_records=[record for result in results for record in result.new_records],
        minimization=minimization,
    )


def cpu_seconds() -> float:
    """User+system seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Rep:
    """One timed campaign and everything the checks and metrics read."""

    wall_s: float
    cpu_s: float
    report: object
    scenarios: List[Scenario]
    fuzz: Optional[object] = None
    #: Parent-side pool statistics after the campaign (the bug hunt's
    #: minimizer runs on the parent's pool; workers report their own).
    parent_pool: Dict[str, object] = field(default_factory=dict)
    #: Parent-side store-handle statistics after the campaign.
    parent_store: Dict[str, object] = field(default_factory=dict)


class Workload:
    """One seeded workload: its scenarios and how to run one campaign."""

    name = ""

    def __init__(self, seed: int, scale: str, scratch: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        started = time.perf_counter()
        self.scenarios = self.generate()
        self.generate_s = time.perf_counter() - started

    def generate(self) -> List[Scenario]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Once-per-process work before the reps (not set-up time)."""

    def close(self) -> None:
        """Remove what :meth:`prepare` left on disk."""

    def build(self) -> Dict[str, object]:
        """A fresh runner and empty store for one campaign (set-up time)."""
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        return {"store": store, "runner": CampaignRunner(store_path=store), "owned": True}

    def discard(self, state: Dict[str, object]) -> None:
        if state["owned"]:
            shutil.rmtree(state["store"], ignore_errors=True)

    def campaign(self, state: Dict[str, object]) -> Tuple[object, Optional[object]]:
        """Run the campaign; returns ``(report, fuzz result or None)``."""
        return state["runner"].run(self.scenarios), None

    def rep(self) -> Rep:
        """Build, time and tear down one campaign."""
        state = self.build()
        try:
            gc.collect()
            cpu_before = cpu_seconds()
            started = time.perf_counter()
            report, fuzz = self.campaign(state)
            wall = time.perf_counter() - started
            cpu = cpu_seconds() - cpu_before
            runner = state["runner"]
            return Rep(
                wall_s=wall,
                cpu_s=cpu,
                report=report,
                scenarios=list(fuzz.scenarios) if fuzz is not None else list(self.scenarios),
                fuzz=fuzz,
                parent_pool=runner.pool.statistics(),
                parent_store=runner.store.statistics(),
            )
        finally:
            self.discard(state)


class ProveCold(Workload):
    """Distinct passing beta checks, serial, fresh runner, empty store."""

    name = PROVE_COLD

    def generate(self) -> List[Scenario]:
        return prove_scenarios(self.seed, self.scale)


class ProveRehydrate(ProveCold):
    """The prove-cold list against a store holding only relation snapshots."""

    name = PROVE_REHYDRATE
    seeded: Optional[Path] = None

    def prepare(self) -> None:
        # One cold run publishes the relation snapshots (and results,
        # which every rep deletes again).  It is prove-cold's work, so
        # it is neither timed nor counted as set-up.
        self.seeded = Path(tempfile.mkdtemp(prefix="seeded-", dir=self.scratch))
        CampaignRunner(store_path=self.seeded).run(self.scenarios)

    def close(self) -> None:
        if self.seeded is not None:
            shutil.rmtree(self.seeded, ignore_errors=True)

    def build(self) -> Dict[str, object]:
        if self.seeded is None:
            # A set-up probe: seeding the store is not set-up time.
            return super().build()
        results_dir = ResultStore(self.seeded).result_path("0" * 64).parent.parent
        shutil.rmtree(results_dir, ignore_errors=True)
        return {
            "store": self.seeded,
            "runner": CampaignRunner(store_path=self.seeded),
            "owned": False,
        }


class BugHunt(Workload):
    """Seeded generative bug hunts: 2 workers, minimization on."""

    name = BUG_HUNT

    def __init__(
        self, seed: int, scale: str, scratch: Path, fuzz_seeds: Optional[List[int]] = None
    ) -> None:
        self.fuzz_seeds = fuzz_seeds if fuzz_seeds is not None else bug_hunt_fuzz_seeds(seed, scale)
        self.classes = BUG_HUNT_CLASSES[scale]
        super().__init__(seed, scale, scratch)

    def generate(self) -> List[Scenario]:
        return [
            scenario
            for fuzz_seed in self.fuzz_seeds
            for scenario in generate_scenarios(fuzz_seed, BUG_HUNT_COUNT, classes=self.classes)
        ]

    def build(self) -> Dict[str, object]:
        state = super().build()
        # Fresh per rep: a corpus remembers the witnesses it saw.
        state["corpus"] = CounterexampleCorpus()
        return state

    def campaign(self, state: Dict[str, object]) -> Tuple[object, Optional[object]]:
        results = [
            run_fuzz_campaign(
                fuzz_seed,
                BUG_HUNT_COUNT,
                runner=state["runner"],
                parallel=True,
                max_workers=BUG_HUNT_WORKERS,
                classes=self.classes,
                corpus=state["corpus"],
                minimize=True,
                write_corpus=False,
            )
            for fuzz_seed in self.fuzz_seeds
        ]
        result = merge_fuzz_results(results)
        return result.report, result


def make(
    name: str, seed: int, scale: str, scratch: Path, fuzz_seeds: Optional[List[int]] = None
) -> Workload:
    """The workload ``name`` for ``seed`` at ``scale`` (scenarios generated).

    ``fuzz_seeds`` hands a bug hunt the fuzz seeds already selected for
    ``seed``, so a set-up probe does not time the selection.
    """
    if name == BUG_HUNT:
        return BugHunt(seed, scale, scratch, fuzz_seeds)
    return {PROVE_COLD: ProveCold, PROVE_REHYDRATE: ProveRehydrate}[name](seed, scale, scratch)
