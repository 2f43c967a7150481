"""Tests of the generative bug-hunt campaign layer (:mod:`repro.campaigns`).

Covers the seed protocol (cross-process determinism, prefix stability),
the ground-truth audit, the counterexample corpus (golden anchoring,
fingerprint dedup, persistence), the witness minimizer (never flips a
verdict, strictly shrinks, converges across seeds) and the campaign
runner's batched execution mode the fuzz campaigns ride on.

The symbolic mutation classes are covered end to end by the golden
replay / differential suites; here the end-to-end campaigns restrict to
the concrete (superscalar/scoreboard) classes so the property tests
stay fast.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaigns import (
    CLASS_NAMES,
    CounterexampleCorpus,
    EXPECT_FAIL,
    EXPECT_PASS,
    MinimizationResult,
    generate_scenario,
    generate_scenarios,
    minimize_witness,
    planted_bug_catalog,
    planted_class,
    run_fuzz_campaign,
    witness_key,
    witness_record,
)
from repro.campaigns.minimizer import speculate_shrink
from repro.engine import CampaignRunner, FaultPlan, FaultSpec, ManagerPool, Scenario
from repro.engine import runner as runner_module
from repro.resilience import faults
from repro.strings import NORMAL

#: The concrete mutation classes — no BDD work, so campaigns over them
#: run in milliseconds.
FAST_CLASSES = (
    "superscalar_width",
    "superscalar_hazard",
    "scoreboard_variant",
    "scoreboard_raw",
)


# ----------------------------------------------------------------------
# Generator: seed protocol and ground-truth tagging
# ----------------------------------------------------------------------
class TestGenerator:
    def test_same_seed_same_scenarios(self):
        first = [scenario.to_dict() for scenario in generate_scenarios(11, 40)]
        second = [scenario.to_dict() for scenario in generate_scenarios(11, 40)]
        assert first == second

    def test_prefix_stability(self):
        long = generate_scenarios(5, 50)
        short = generate_scenarios(5, 20)
        assert [s.to_dict() for s in long[:20]] == [s.to_dict() for s in short]

    def test_different_seeds_differ(self):
        a = [scenario.to_dict() for scenario in generate_scenarios(1, 20)]
        b = [scenario.to_dict() for scenario in generate_scenarios(2, 20)]
        assert a != b

    def test_round_robin_classes_and_tags(self):
        scenarios = generate_scenarios(9, 25)
        for index, scenario in enumerate(scenarios):
            expected_class = CLASS_NAMES[index % len(CLASS_NAMES)]
            assert planted_class(scenario) == expected_class
            assert "fuzz" in scenario.tags
            assert f"seed:9" in scenario.tags
            assert (EXPECT_PASS in scenario.tags) != (EXPECT_FAIL in scenario.tags)
            if EXPECT_FAIL in scenario.tags:
                assert any(tag.startswith("planted:") for tag in scenario.tags)

    def test_class_filter_preserves_indices(self):
        everything = generate_scenarios(4, 30)
        filtered = generate_scenarios(4, 30, classes=("planted_bug",))
        expected = [s for s in everything if planted_class(s) == "planted_bug"]
        assert [s.to_dict() for s in filtered] == [s.to_dict() for s in expected]

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation classes"):
            generate_scenarios(0, 10, classes=("no_such_class",))

    def test_cross_process_determinism(self):
        """Same seed → byte-identical specs and fingerprints in a fresh
        interpreter (the seed protocol survives hash randomisation)."""
        code = (
            "import json\n"
            "from repro.campaigns import generate_scenarios\n"
            "scenarios = generate_scenarios(23, 30)\n"
            "print(json.dumps({\n"
            "    'specs': [s.to_dict() for s in scenarios],\n"
            "    'fingerprints': [s.fingerprint('') for s in scenarios],\n"
            "}, sort_keys=True))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def spawn():
            return subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.strip()

        remote_a, remote_b = spawn(), spawn()
        assert remote_a == remote_b
        local = generate_scenarios(23, 30)
        payload = json.loads(remote_a)
        assert payload["specs"] == [s.to_dict() for s in local]
        assert payload["fingerprints"] == [s.fingerprint("") for s in local]

    def test_planted_catalog_covers_every_failing_class(self):
        catalog = planted_bug_catalog()
        classes = {planted_class(scenario) for scenario in catalog}
        assert classes == {
            "planted_bug",
            "alpha0_case",
            "bypass_drop",
            "branch_skew",
            "event_storm",
            "superscalar_hazard",
            "scoreboard_raw",
        }
        for scenario in catalog:
            assert EXPECT_FAIL in scenario.tags

    def test_scenarios_round_trip_and_resolve(self):
        for scenario in generate_scenarios(2, 20):
            assert Scenario.from_dict(scenario.to_dict()) == scenario


# ----------------------------------------------------------------------
# Corpus: golden anchoring, dedup, persistence
# ----------------------------------------------------------------------
class TestCorpus:
    def test_goldens_are_known(self):
        corpus = CounterexampleCorpus()
        stats = corpus.statistics()
        assert stats["golden"] >= 10
        # A catalogue planted bug at its canonical workload is content-
        # identical to its golden record: the corpus must flag it.
        planted = [
            s for s in planted_bug_catalog() if planted_class(s) == "planted_bug"
        ]
        assert planted
        for scenario in planted:
            assert corpus.is_known(scenario)
            assert corpus.source_of(scenario).startswith("golden:")

    def test_witness_key_ignores_name_and_tags(self):
        a = Scenario(name="x", slots=(NORMAL, NORMAL), bug="no_bypass")
        b = Scenario(name="y", slots=(NORMAL, NORMAL), bug="no_bypass", tags=("t",))
        assert witness_key(a) == witness_key(b)

    def test_add_and_reload(self, tmp_path):
        runner = CampaignRunner()
        scenario = next(
            s
            for s in generate_scenarios(3, 40, classes=("superscalar_hazard",))
        )
        outcome = runner.run_one(scenario)
        assert not outcome.passed

        corpus = CounterexampleCorpus(root=tmp_path)
        assert not corpus.is_known(scenario)
        record = corpus.add(scenario, outcome, provenance={"seed": 3}, write=True)
        assert corpus.is_known(scenario)
        path = tmp_path / f"{record['fingerprint']}.json"
        assert path.is_file()
        assert json.loads(path.read_text()) == record

        reloaded = CounterexampleCorpus(root=tmp_path)
        assert reloaded.is_known(scenario)
        assert reloaded.source_of(scenario).startswith("corpus:")

    def test_duplicate_add_rejected(self, tmp_path):
        runner = CampaignRunner()
        scenario = generate_scenarios(3, 40, classes=("superscalar_hazard",))[0]
        outcome = runner.run_one(scenario)
        corpus = CounterexampleCorpus(root=tmp_path)
        corpus.add(scenario, outcome)
        with pytest.raises(ValueError, match="already known"):
            corpus.add(scenario, outcome)

    def test_passing_outcome_is_not_a_witness(self):
        runner = CampaignRunner()
        scenario = generate_scenarios(3, 40, classes=("superscalar_width",))[0]
        outcome = runner.run_one(scenario)
        assert outcome.passed
        with pytest.raises(ValueError, match="refuting"):
            witness_record(scenario, outcome)


# ----------------------------------------------------------------------
# Minimizer: verdict preservation, shrinking, convergence
# ----------------------------------------------------------------------
class TestMinimizer:
    def test_minimized_witness_still_refutes(self):
        runner = CampaignRunner()
        for scenario in generate_scenarios(
            7, 40, classes=("superscalar_hazard", "scoreboard_raw")
        ):
            result = minimize_witness(scenario, runner)
            assert isinstance(result, MinimizationResult)
            # The invariant the corpus depends on: minimization never
            # flips a verdict — the output still refutes, re-verified.
            check = runner.run_one(result.scenario)
            assert not check.passed and check.error is None
            assert result.fingerprint == witness_key(result.scenario)

    def test_minimizer_shrinks_jitter(self):
        runner = CampaignRunner()
        scenario = generate_scenarios(7, 40, classes=("superscalar_hazard",))[0]
        assert len(scenario.program) >= 2
        result = minimize_witness(scenario, runner)
        assert result.reduced
        assert len(result.scenario.program) == 2  # the bare RAW pair

    def test_minimizer_converges_across_seeds(self):
        """Equivalent planted defects from different seeds shrink to the
        same canonical witness (same content fingerprint)."""
        runner = CampaignRunner()
        fingerprints = set()
        for seed in (1, 2, 3):
            scenario = generate_scenarios(
                seed, 40, classes=("superscalar_hazard",)
            )[0]
            fingerprints.add(
                minimize_witness(scenario, runner, narrow_observe=False).fingerprint
            )
        assert len(fingerprints) == 1

    def test_passing_scenario_rejected(self):
        runner = CampaignRunner()
        scenario = generate_scenarios(3, 40, classes=("superscalar_width",))[0]
        with pytest.raises(ValueError, match="does not refute"):
            minimize_witness(scenario, runner)

    def test_minimized_name_is_content_addressed(self):
        runner = CampaignRunner()
        scenario = generate_scenarios(7, 40, classes=("scoreboard_raw",))[0]
        result = minimize_witness(scenario, runner)
        assert result.scenario.name == f"fuzz/min/{result.fingerprint[:12]}"
        assert "minimized" in result.scenario.tags


# ----------------------------------------------------------------------
# End-to-end campaign over the concrete classes
# ----------------------------------------------------------------------
class TestFuzzCampaign:
    def test_ground_truth_and_dedup(self, tmp_path):
        result = run_fuzz_campaign(
            3,
            80,
            classes=FAST_CLASSES,
            corpus_root=tmp_path / "corpus",
            write_corpus=True,
        )
        assert result.ok, result.ground_truth_violations
        assert result.planted_detected == {
            "superscalar_hazard": True,
            "scoreboard_raw": True,
        }
        assert result.witnesses_found == 16
        # Minimization collapses equivalent witnesses: only a handful of
        # canonical records survive, everything else dedupes.
        assert result.new_records
        assert result.duplicates
        assert len(result.new_records) + len(result.duplicates) == 16
        written = sorted((tmp_path / "corpus").glob("*.json"))
        assert len(written) == len(result.new_records)

        # Re-running the campaign against the now-populated corpus finds
        # nothing new: every witness is a known duplicate.
        rerun = run_fuzz_campaign(
            3, 80, classes=FAST_CLASSES, corpus_root=tmp_path / "corpus"
        )
        assert rerun.ok
        assert rerun.new_records == []
        assert len(rerun.duplicates) == 16

    def test_campaign_is_deterministic(self):
        first = run_fuzz_campaign(5, 40, classes=FAST_CLASSES, minimize=False)
        second = run_fuzz_campaign(5, 40, classes=FAST_CLASSES, minimize=False)
        assert first.report.verdict_json() == second.report.verdict_json()

    def test_batched_campaign_matches_unbatched(self, tmp_path):
        unbatched = run_fuzz_campaign(5, 40, classes=FAST_CLASSES, minimize=False)
        batched = run_fuzz_campaign(
            5, 40, classes=FAST_CLASSES, minimize=False, batch_size=3
        )
        assert batched.report.verdict_json() == unbatched.report.verdict_json()
        assert batched.report.pool["batches"] == 6  # ceil(16 / 3)

    def test_max_minimize_caps_runs(self):
        result = run_fuzz_campaign(
            3, 80, classes=FAST_CLASSES, max_minimize=2
        )
        assert result.minimization["runs"] == 2


# ----------------------------------------------------------------------
# Runner batching and store census (the engine support this PR added)
# ----------------------------------------------------------------------
class TestRunBatched:
    def test_verdicts_match_plain_run(self):
        scenarios = generate_scenarios(5, 30, classes=FAST_CLASSES)
        plain = CampaignRunner().run(scenarios)
        batched = CampaignRunner().run_batched(scenarios, batch_size=4)
        assert batched.verdict_json() == plain.verdict_json()
        assert batched.pool["batches"] == 3  # ceil(12 / 4)

    def test_parallel_verdicts_match_plain_run(self):
        scenarios = generate_scenarios(5, 30, classes=FAST_CLASSES)
        plain = CampaignRunner().run(scenarios)
        batched = CampaignRunner().run_batched(
            scenarios, batch_size=4, parallel=True, max_workers=2
        )
        assert batched.mode == "parallel"
        assert batched.verdict_json().encode("utf-8") == (
            plain.verdict_json().encode("utf-8")
        )
        assert batched.pool["batches"] == 3
        assert len(batched.pool["per_batch"]) == 3
        for record in batched.pool["per_batch"]:
            assert len(record["per_worker"]) == record["workers"]

    def test_traced_supervised_report_is_complete(self):
        """run_batched reports the same sections as run, verdicts equal."""
        from repro import telemetry
        from repro.resilience import FaultPlan, FaultSpec, SupervisionPolicy, faults

        scenarios = generate_scenarios(5, 30, classes=FAST_CLASSES)
        policy = SupervisionPolicy(max_attempts=2, backoff_base=0.0)
        plan = FaultPlan(sites={"scenario.run": FaultSpec(kind="error", at=(0,))})
        reports = []
        try:
            for batched in (False, True):
                telemetry.enable()
                runner = CampaignRunner()
                with faults.active(plan):
                    if batched:
                        reports.append(
                            runner.run_batched(scenarios, batch_size=4, supervision=policy)
                        )
                    else:
                        reports.append(runner.run(scenarios, supervision=policy))
                telemetry.disable()
        finally:
            telemetry.disable()
        plain, batched = reports
        assert batched.pool["batches"] == 3
        assert batched.to_dict().keys() == plain.to_dict().keys()
        for section in ("resilience", "telemetry"):
            ours, theirs = getattr(batched, section), getattr(plain, section)
            assert theirs and ours.keys() == theirs.keys(), section
        # One injected failure, retried once, on either path.
        assert batched.resilience["retries"] == plain.resilience["retries"] == 1
        assert batched.telemetry["trace"].keys() == plain.telemetry["trace"].keys()
        assert batched.verdict_json().encode("utf-8") == (
            plain.verdict_json().encode("utf-8")
        )

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            CampaignRunner().run_batched([], batch_size=0)

    def test_empty_campaign(self):
        report = CampaignRunner().run_batched([], batch_size=4)
        assert report.outcomes == []

    def test_disk_statistics(self, tmp_path):
        from repro.engine import ResultStore

        store = ResultStore(tmp_path / "store")
        empty = store.disk_statistics()
        assert empty["results"] == {"records": 0, "bytes": 0}
        runner = CampaignRunner(store=store)
        runner.run(generate_scenarios(5, 20, classes=("superscalar_width",)))
        census = store.disk_statistics()
        assert census["results"]["records"] == 2
        assert census["results"]["bytes"] > 0
        assert census["root"] == str(tmp_path / "store")


# ----------------------------------------------------------------------
# Speculative minimization: idle workers walk shrinks ahead of the parent
# ----------------------------------------------------------------------
#: The fuzz seeds of perfbench's seed-0 bug hunt: three 10-scenario
#: campaigns with a 3-slot bypass-drop anchor and new planted witnesses.
BUG_HUNT_SEEDS = (617, 1147, 1662)


def _hunt(tmp_path, parallel, seeds=BUG_HUNT_SEEDS):
    """The bug hunt's campaigns back to back on one runner, store and corpus."""
    runner = CampaignRunner(store_path=tmp_path / ("parallel" if parallel else "serial"))
    corpus = CounterexampleCorpus()
    return [
        run_fuzz_campaign(
            seed, 10, runner=runner, parallel=parallel, max_workers=2, corpus=corpus
        )
        for seed in seeds
    ]


def _witness_bytes(results):
    return json.dumps(
        [
            [result.duplicates, result.new_records, result.minimization]
            for result in results
        ],
        sort_keys=True,
        default=str,
    )


@pytest.fixture(scope="module")
def serial_hunt(tmp_path_factory):
    results = _hunt(tmp_path_factory.mktemp("hunt"), parallel=False)
    assert all(result.ok for result in results)
    assert sum(result.minimization["runs"] for result in results) > 0
    return results


class TestSpeculativeMinimization:
    def test_parallel_hunt_equals_serial(self, tmp_path, serial_hunt):
        # Duplicates, new records (provenance minimize_attempts included)
        # and minimization counts, byte for byte.
        parallel = _hunt(tmp_path, parallel=True)
        assert _witness_bytes(parallel) == _witness_bytes(serial_hunt)
        assert all(result.report.mode == "parallel" for result in parallel)

    def test_job_crash_keeps_the_hunt_exact(self, tmp_path):
        # Each first-generation worker hard-exits as it starts its first
        # job; the respawned workers run jobs unharmed.  The anchor
        # campaign leaves one worker idle for a second, so it takes jobs.
        seeds = BUG_HUNT_SEEDS[:1]
        serial = _hunt(tmp_path, parallel=False, seeds=seeds)
        plan = FaultPlan(
            sites={"job.crash": FaultSpec(kind="crash", at=(0, 1), max_fires=1)}
        )
        with faults.active(plan):
            crashed = _hunt(tmp_path, parallel=True, seeds=seeds)
        assert _witness_bytes(crashed) == _witness_bytes(serial)
        report = crashed[0].report
        assert all(outcome.error is None for outcome in report.outcomes)
        assert report.resilience["workers"]["respawned"] >= 1

    def test_jobs_advance_no_seam_counter(self, tmp_path):
        # A job runs with injection off: no seam's invocation counter
        # moves, so a fault schedule fires where it would without jobs.
        scenario = next(
            s
            for s in generate_scenarios(3, 10, classes=FAST_CLASSES)
            if EXPECT_FAIL in s.tags
        )
        runner = CampaignRunner(store_path=tmp_path / "store")
        outcome = runner.run_one(scenario)
        plan = FaultPlan(
            sites={
                "scenario.run": FaultSpec(kind="error", at=(10**6,)),
                "store.read.results": FaultSpec(kind="io", at=(10**6,)),
                "store.write.results": FaultSpec(kind="io", at=(10**6,)),
            }
        )
        with faults.active(plan) as injector:
            before = injector.statistics()
            runner_module._run_job(0, (speculate_shrink, scenario), runner.pool, runner.store)
            assert injector.statistics() == before
        # The job did run: the minimizer's walk now replays from the store.
        replay = CampaignRunner(store_path=tmp_path / "store")
        result = minimize_witness(scenario, replay, outcome=outcome, narrow_observe=False)
        lookups = replay.store.statistics()["results"]
        assert result.attempts > 0
        assert lookups["hits"] == result.attempts and lookups["misses"] == 0

    def test_worker_pool_absorbs_the_job_pool(self):
        # A job's pool is folded into its worker's, so the worker's
        # statistics count the speculative work too.
        worker, job = ManagerPool(), ManagerPool()
        manager = job.acquire(("order",))
        manager.apply_and(manager.var("a"), manager.var("b"))
        job.acquire(("order",))
        before = worker.statistics()
        worker.absorb(job)
        after = worker.statistics()
        assert (after["acquisitions"], after["reuses"], len(job)) == (2, 1, 0)
        assert after["arena"]["allocated_total"] > before["arena"]["allocated_total"]
        assert after["cache"]["misses"] > before["cache"]["misses"]
