"""The verification campaign engine: scenarios, pooling, memoisation, parallelism.

Covers the acceptance criteria of the campaign-engine issue:

* a mixed campaign (VSM, Alpha0, interrupts, one injected bug — six-plus
  scenarios) runs in one process over a shared manager pool;
* the multiprocessing parallel mode produces byte-identical
  ``CampaignReport`` verdicts to serial mode;
* pooled execution is bit-identical to fresh-manager execution
  (the invariant the parallel guarantee rests on);
* scenarios round-trip through JSON, resolve through the registry, and
  the thin core adapters (`verify_beta_relation`, `verify_with_events`,
  `verify_superscalar_schedule`) agree with the engine path.
"""

import json
import random

import pytest

from repro.bdd import BDDManager
from repro.core import (
    VSMArchitecture,
    all_normal,
    verify_beta_relation,
    verify_superscalar_schedule,
    verify_with_events,
    vsm_default,
)
from repro.engine import (
    Alpha0Spec,
    CampaignRunner,
    ManagerPool,
    Scenario,
    ScenarioRegistry,
    default_registry,
    execute_scenario,
    mixed_campaign,
    run_campaign,
    superscalar_scenario,
    variable_k_scenarios,
    vsm_bug_scenarios,
)
from repro.isa import vsm as vsm_isa
from repro.strings import CONTROL, NORMAL

#: Small Alpha0 condensation so the mixed campaign stays test-sized.
SMALL_ALPHA0 = Alpha0Spec(data_width=3, num_registers=4, memory_words=2)


class TestScenario:
    def test_rejects_unknown_kind_design_and_slots(self):
        with pytest.raises(ValueError):
            Scenario(name="x", kind="nope")
        with pytest.raises(ValueError):
            Scenario(name="x", design="nope")
        with pytest.raises(ValueError):
            Scenario(name="x", slots=("weird",))
        with pytest.raises(ValueError):
            Scenario(name="")

    def test_events_and_superscalar_are_vsm_only(self):
        with pytest.raises(ValueError):
            Scenario(name="x", kind="events", design="alpha0")
        with pytest.raises(ValueError):
            Scenario(name="x", kind="superscalar", design="alpha0")
        with pytest.raises(ValueError):
            Scenario(name="x", kind="superscalar")  # needs a program

    def test_fields_their_kind_never_reads_are_rejected(self):
        # Each would otherwise enter the fingerprint and split one job
        # into two store records.
        program = (0,)
        with pytest.raises(ValueError, match="issue_width"):
            Scenario(name="b", slots=(NORMAL,), issue_width=4)
        with pytest.raises(ValueError, match="issue_width"):
            Scenario(name="e", kind="events", event_slots=(0,), issue_width=3)
        with pytest.raises(ValueError, match="reset_cycles"):
            Scenario(name="s", kind="superscalar", program=program, reset_cycles=3)
        with pytest.raises(ValueError, match="symbolic_initial_state"):
            Scenario(
                name="s", kind="superscalar", program=program, symbolic_initial_state=True
            )
        Scenario(name="s", kind="superscalar", program=program, issue_width=4)
        Scenario(name="b", reset_cycles=2, symbolic_initial_state=True)

    def test_json_round_trip(self):
        scenarios = (
            mixed_campaign(alpha0=SMALL_ALPHA0)
            + vsm_bug_scenarios()
            + variable_k_scenarios()
        )
        for scenario in scenarios:
            rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
            assert rebuilt == scenario
            assert rebuilt.cache_key() == scenario.cache_key()
            assert rebuilt.order_signature() == scenario.order_signature()

    def test_cache_key_ignores_name_and_tags(self):
        a = Scenario(name="a", slots=(NORMAL,), tags=("x",))
        b = Scenario(name="b", slots=(NORMAL,), tags=("y",))
        assert a.cache_key() == b.cache_key()
        assert a.order_signature() == b.order_signature()

    def test_order_signature_separates_workload_shapes(self):
        plain = Scenario(name="a", slots=(NORMAL, NORMAL))
        branchy = Scenario(name="b", slots=(CONTROL, NORMAL))
        bugged = Scenario(name="c", slots=(NORMAL, NORMAL), bug="no_bypass")
        assert plain.order_signature() != branchy.order_signature()
        # A bug does not change the variable order: same pooled manager.
        assert plain.order_signature() == bugged.order_signature()

    def test_alpha0_signature_ignores_instruction_class(self):
        operate = Scenario(name="a", design="alpha0", slots=(NORMAL,) * 2,
                           alpha0=SMALL_ALPHA0)
        memory = Scenario(
            name="b", design="alpha0", slots=(NORMAL,) * 2,
            alpha0=Alpha0Spec(data_width=3, num_registers=4, memory_words=2,
                              normal_opcode=0x29),
        )
        condensed = Scenario(name="c", design="alpha0", slots=(NORMAL,) * 2)
        assert operate.order_signature() == memory.order_signature()
        assert operate.order_signature() != condensed.order_signature()

    def test_architecture_adapter_round_trip(self):
        architecture = VSMArchitecture()
        scenario = architecture.scenario("t", vsm_default(), bug="no_annul")
        assert scenario.slots == vsm_default().slots
        assert scenario.bug == "no_annul"
        assert isinstance(scenario.architecture(), VSMArchitecture)


class TestRegistry:
    def test_default_registry_catalogue(self):
        registry = default_registry()
        assert "vsm/default" in registry
        assert "vsm/bug/no_bypass" in registry
        assert "alpha0/operate" in registry
        assert "vsm/event/slot0" in registry
        assert len(registry) >= 16
        assert registry.get("vsm/default").kind == "beta"
        with pytest.raises(KeyError):
            registry.get("no/such/scenario")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        scenario = Scenario(name="dup", slots=(NORMAL,))
        registry.register(scenario)
        with pytest.raises(ValueError):
            registry.register(scenario)
        registry.register(scenario, replace_existing=True)

    def test_tag_selection(self):
        registry = default_registry()
        bugs = registry.tagged("bug-injection")
        assert len(bugs) >= 9
        assert all("bug-injection" in scenario.tags for scenario in bugs)

    def test_runner_resolves_names(self):
        runner = CampaignRunner()
        outcome = runner.run_one("vsm/bug/and_becomes_or")
        assert outcome.scenario == "vsm/bug/and_becomes_or"
        assert not outcome.passed
        assert outcome.mismatches


class TestPooledDeterminism:
    def test_pooled_run_is_bit_identical_to_fresh_run(self):
        """The invariant behind the parallel guarantee.

        Running a scenario on a manager warmed by *same-signature*
        scenarios must reproduce the fresh-manager outcome exactly,
        counterexample assignments included.
        """
        golden = Scenario(name="golden", slots=(NORMAL, NORMAL))
        bugged = Scenario(name="bugged", slots=(NORMAL, NORMAL), bug="no_bypass")

        fresh = execute_scenario(bugged, manager=BDDManager())

        pool = ManagerPool()
        execute_scenario(golden, manager=pool.acquire(golden.order_signature()))
        pooled = execute_scenario(bugged, manager=pool.acquire(bugged.order_signature()))

        assert pool.reuse_count == 1
        assert json.dumps(fresh.verdict(), sort_keys=True) == json.dumps(
            pooled.verdict(), sort_keys=True
        )

    def test_pool_reuses_managers_and_reports_statistics(self):
        runner = CampaignRunner(memoize=False)
        report = runner.run(
            [
                Scenario(name="g", slots=(NORMAL, NORMAL)),
                Scenario(name="b1", slots=(NORMAL, NORMAL), bug="no_bypass"),
                Scenario(name="b2", slots=(NORMAL, NORMAL), bug="and_becomes_or"),
                Scenario(name="other", slots=(CONTROL, NORMAL)),
            ]
        )
        stats = report.pool
        assert stats["managers"] == 2  # (N,N) shared three ways + (C,N)
        assert stats["reuses"] == 2
        assert stats["cache"]["hits"] > 0
        assert 0.0 < stats["cache"]["hit_rate"] <= 1.0
        # Sharing pays: the second (N,N) run hits the warmed unique table.
        warmed = report.outcome("b1").cache
        assert warmed["hit_rate"] > 0.3

    def test_memoisation_reuses_equivalent_scenarios(self):
        runner = CampaignRunner()
        report = runner.run(
            [
                Scenario(name="first", slots=(NORMAL,)),
                Scenario(name="alias", slots=(NORMAL,)),  # same cache key
            ]
        )
        assert report.memo_hits == 1
        first, alias = report.outcomes
        assert not first.memoized and alias.memoized
        assert alias.scenario == "alias"
        verdict_of = lambda o: {k: v for k, v in o.verdict().items() if k != "scenario"}
        assert verdict_of(first) == verdict_of(alias)


class TestMixedCampaign:
    """The issue's acceptance campaign, serial and parallel."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return mixed_campaign(alpha0=SMALL_ALPHA0)

    @pytest.fixture(scope="class")
    def serial_report(self, campaign):
        return CampaignRunner().run(campaign)

    def test_campaign_spans_the_required_workloads(self, campaign):
        assert len(campaign) >= 6
        designs = {scenario.design for scenario in campaign}
        kinds = {scenario.kind for scenario in campaign}
        assert {"vsm", "alpha0"} <= designs
        assert "events" in kinds
        assert any(scenario.bug for scenario in campaign)

    def test_serial_campaign_verdicts(self, serial_report):
        assert serial_report.scenario_count >= 6
        by_name = {o.scenario: o for o in serial_report.outcomes}
        assert by_name["vsm/default"].passed
        assert by_name["alpha0/operate"].passed
        assert by_name["alpha0/memory"].passed
        assert by_name["vsm/event/slot1"].passed
        assert not by_name["vsm/bug/no_bypass"].passed
        assert by_name["vsm/bug/no_bypass"].mismatches
        # Exactly the injected bug fails, nothing else.
        assert [o.scenario for o in serial_report.failures()] == ["vsm/bug/no_bypass"]

    def test_shared_pool_across_the_campaign(self, serial_report):
        stats = serial_report.pool
        assert stats["managers"] < serial_report.scenario_count
        assert stats["reuses"] >= 1

    def test_parallel_verdicts_byte_identical_to_serial(self, campaign, serial_report):
        parallel_report = CampaignRunner().run(campaign, parallel=True, max_workers=2)
        assert parallel_report.mode == "parallel"
        assert parallel_report.verdict_json() == serial_report.verdict_json()
        assert parallel_report.verdict_json().encode("utf-8") == (
            serial_report.verdict_json().encode("utf-8")
        )

    def test_affinity_sharded_parallel_matches_serial_with_three_workers(
        self, campaign, serial_report
    ):
        report = CampaignRunner().run(campaign, parallel=True, max_workers=3)
        assert report.mode == "parallel"
        assert report.pool.get("workers") == 3
        assert report.pool.get("units") >= 3
        assert report.verdict_json().encode("utf-8") == (
            serial_report.verdict_json().encode("utf-8")
        )
        # Every worker reported its closing statistics record.
        assert len(report.pool.get("per_worker", [])) == 3

    def test_report_serialises_to_json(self, serial_report):
        payload = json.loads(serial_report.to_json())
        assert payload["scenario_count"] == serial_report.scenario_count
        assert payload["failures"] == ["vsm/bug/no_bypass"]
        assert len(payload["outcomes"]) == serial_report.scenario_count
        counterexamples = serial_report.counterexamples()
        assert "vsm/bug/no_bypass" in counterexamples
        first = counterexamples["vsm/bug/no_bypass"][0]
        assert "decoded" in first and "words" in first and "counterexample" in first
        summary = serial_report.summary()
        assert "vsm/bug/no_bypass" in summary


class TestAffinityUnits:
    """The scheduler's sharding arithmetic (pure function, no processes)."""

    def units(self, scenarios, workers):
        from repro.engine.runner import _affinity_units

        return _affinity_units(scenarios, workers)

    def test_groups_by_order_signature(self):
        scenarios = [
            Scenario(name="g", slots=(NORMAL, NORMAL)),
            Scenario(name="b1", slots=(NORMAL, NORMAL), bug="no_bypass"),
            Scenario(name="other", slots=(CONTROL, NORMAL)),
            Scenario(name="b2", slots=(NORMAL, NORMAL), bug="and_becomes_or"),
        ]
        units = self.units(scenarios, 2)
        # (N,N) scenarios share a signature; with fair share ceil(4/2)=2
        # the shard of three splits into 2+1, the (C,N) shard stays one.
        assert sorted(len(unit) for unit in units) == [1, 1, 2]
        as_sets = [set(unit) for unit in units]
        assert {0, 1} in as_sets and {3} in as_sets and {2} in as_sets
        # Largest-first (LPT) so long shards start immediately.
        assert len(units[0]) == 2

    def test_single_worker_gets_whole_shards(self):
        scenarios = [
            Scenario(name=f"s{i}", slots=(NORMAL, NORMAL)) for i in range(5)
        ]
        units = self.units(scenarios, 1)
        assert [len(unit) for unit in units] == [5]

    def test_every_scenario_appears_exactly_once(self):
        scenarios = (
            [Scenario(name=f"a{i}", slots=(NORMAL,)) for i in range(7)]
            + [Scenario(name=f"b{i}", slots=(CONTROL, NORMAL)) for i in range(3)]
            + [Scenario(name=f"c{i}", slots=(NORMAL, NORMAL)) for i in range(2)]
        )
        units = self.units(scenarios, 4)
        flat = sorted(index for unit in units for index in unit)
        assert flat == list(range(len(scenarios)))
        assert max(len(unit) for unit in units) <= -(-len(scenarios) // 4)


class TestThinAdapters:
    """Core entry points and the engine execute the same code path."""

    def test_verify_beta_relation_matches_engine(self):
        scenario = Scenario(name="t", slots=vsm_default().slots)
        direct = verify_beta_relation(VSMArchitecture(), vsm_default())
        engine = execute_scenario(scenario)
        assert direct.passed == engine.passed is True
        assert direct.specification_cycles == engine.structure["specification_cycles"]
        assert list(direct.implementation_filter) == engine.structure["implementation_filter"]

    def test_verify_with_events_matches_engine(self):
        direct = verify_with_events(all_normal(3), event_slots=[1])
        scenario = Scenario(
            name="t", kind="events", slots=(NORMAL,) * 3, event_slots=(1,)
        )
        engine = execute_scenario(scenario)
        assert direct.passed == engine.passed is True
        assert list(direct.implementation_filter) == engine.structure["implementation_filter"]
        assert engine.structure["extra"] == {"event_slots": [1]}

    def test_superscalar_scenario_matches_direct_check(self):
        rng = random.Random(7)
        program = vsm_isa.random_program(rng, 8)
        direct = verify_superscalar_schedule(program, issue_width=2)
        outcome = execute_scenario(superscalar_scenario(program))
        assert direct.passed == outcome.passed is True
        assert outcome.structure["completions_per_cycle"] == list(
            direct.completions_per_cycle
        )
        assert outcome.structure["speedup"] == pytest.approx(direct.speedup)

    def test_run_campaign_convenience(self):
        report = run_campaign([Scenario(name="one", slots=(NORMAL,))])
        assert report.passed
        assert report.scenario_count == 1

    def test_campaign_isolates_scenario_errors(self):
        class Boom(Scenario):
            def architecture(self):
                raise RuntimeError("boom")

        report = run_campaign(
            [
                Boom(name="boom", slots=(NORMAL,)),
                Scenario(name="fine", slots=(NORMAL,)),
            ]
        )
        assert not report.passed
        boom = report.outcome("boom")
        assert boom.error == "RuntimeError: boom"
        assert report.outcome("fine").passed

    def test_crashed_scenario_keeps_its_traceback(self):
        """The isolation handler preserves the full traceback so a crash
        is diagnosable from the report — but keeps it out of the verdict
        (traceback text is machine- and code-version-specific)."""

        class Boom(Scenario):
            def architecture(self):
                raise RuntimeError("boom")

        report = run_campaign([Boom(name="boom", slots=(NORMAL,))])
        boom = report.outcome("boom")
        assert boom.traceback is not None
        assert "RuntimeError: boom" in boom.traceback
        assert "in architecture" in boom.traceback
        assert "traceback" not in boom.verdict()
        assert boom.to_dict()["traceback"] == boom.traceback
        healthy = run_campaign([Scenario(name="fine", slots=(NORMAL,))])
        assert healthy.outcome("fine").traceback is None

    def test_campaign_isolation_does_not_swallow_interrupts(self):
        """``KeyboardInterrupt``/``SystemExit`` must propagate — a user
        abort may not be converted into a failed scenario outcome."""

        class Interrupted(Scenario):
            def architecture(self):
                raise KeyboardInterrupt

        class Exiting(Scenario):
            def architecture(self):
                raise SystemExit(3)

        runner = CampaignRunner()
        with pytest.raises(KeyboardInterrupt):
            runner.run([Interrupted(name="interrupted", slots=(NORMAL,))])
        with pytest.raises(SystemExit):
            runner.run([Exiting(name="exiting", slots=(NORMAL,))])
