"""Session-scoped extraction cache + pool arena accounting (PR 4).

The relational beta backend's fixed per-run cost is extracting the
per-bit beta-correspondence relations.  On a pooled manager that cost
is now paid once per campaign session: the extracted relations live in
``manager.session_cache`` keyed by the model construction, re-bound to
each run's fresh model instances, with hits surfaced as
``outcome.extraction_cache``.  The pool's node accounting reads through
the kernel's arena statistics.  Verdicts must be byte-identical with
the cache in play — the relation payload is canonical nodes on the
shared manager, so a hit changes wall-clock only.
"""

import copy

from repro.engine import CampaignRunner, Scenario, execute_scenario
from repro.strings import NORMAL


def scenario(name, bug=None):
    return Scenario(name=name, slots=(NORMAL,), bug=bug)


class TestExtractionCache:
    def test_repeat_scenario_hits_the_session_cache(self):
        runner = CampaignRunner(memoize=False)
        first = runner.run_one(scenario("vsm/first"))
        again = runner.run_one(scenario("vsm/again"))
        assert first.passed and again.passed
        assert first.extraction_cache["spec"] == "miss"
        assert first.extraction_cache["impl"] == "miss"
        assert again.extraction_cache["spec"] == "hit"
        assert again.extraction_cache["impl"] == "hit"
        assert again.extraction_cache["session_hits"] == 2
        assert again.extraction_cache["session_misses"] == 2

    def test_bug_variant_shares_the_specification_relation(self):
        runner = CampaignRunner(memoize=False)
        golden = runner.run_one(scenario("vsm/golden"))
        buggy = runner.run_one(scenario("vsm/bug", bug="and_becomes_or"))
        assert golden.passed and not buggy.passed
        # Same architecture -> the specification relation is reused; the
        # injected bug changes the implementation model -> re-extracted.
        assert buggy.extraction_cache["spec"] == "hit"
        assert buggy.extraction_cache["impl"] == "miss"

    def test_cached_runs_keep_verdicts_byte_identical(self):
        runner = CampaignRunner(memoize=False)
        runner.run_one(scenario("vsm/warmup"))
        pooled = runner.run_one(scenario("vsm/check", bug="no_bypass"))
        fresh = execute_scenario(scenario("vsm/check", bug="no_bypass"))
        assert pooled.extraction_cache["spec"] == "hit"
        assert fresh.extraction_cache["spec"] == "miss"
        assert pooled.verdict() == fresh.verdict()

    def test_memoised_outcomes_report_no_extraction_activity(self):
        runner = CampaignRunner(memoize=True)
        first = runner.run_one(scenario("vsm/memo"))
        second = runner.run_one(scenario("vsm/memo"))
        assert first.extraction_cache and not second.extraction_cache
        assert second.memoized

    def test_classical_backend_reports_no_extraction(self):
        from repro.relational import BETA_COMPOSE

        outcome = execute_scenario(
            Scenario(name="vsm/compose", slots=(NORMAL,), beta_backend=BETA_COMPOSE)
        )
        assert outcome.passed
        assert outcome.extraction_cache == {}


class TestRelationSnapshots:
    """snapshot -> restore -> differential-check against fresh extraction.

    The persistent layer serialises an extracted beta relation as an
    arena snapshot and rehydrates it on another manager.  The check
    here is structural and total: the rehydrated relation's canonical
    form — node structure with levels mapped back to variable names —
    must be identical to a freshly extracted one's, for VSM and Alpha0.
    """

    @staticmethod
    def extract_payloads(architecture, slots):
        from repro.bdd import BDDManager
        from repro.core.siminfo import SimulationInfo
        from repro.relational.beta import (
            IMPL_PREFIX,
            SPEC_PREFIX,
            _stepper_payload,
            beta_stimulus_order,
            extract_steppers,
        )

        manager = BDDManager()
        siminfo = SimulationInfo(reset_cycles=1, slots=slots)
        specification, implementation = architecture.make_models(manager)
        manager.declare_all(beta_stimulus_order(architecture, siminfo))
        spec_stepper, impl_stepper = extract_steppers(
            manager, specification, implementation, architecture.instruction_width
        )
        return (
            manager,
            {
                SPEC_PREFIX: _stepper_payload(spec_stepper),
                IMPL_PREFIX: _stepper_payload(impl_stepper),
            },
        )

    @staticmethod
    def canonical(blob):
        from repro.bdd.kernel import unpack_snapshot

        arena = unpack_snapshot(blob["arena"])
        names = {level: name for level, name in arena["level_names"]}
        return {
            "layout": blob["layout"],
            "input_names": blob["input_names"],
            "fetch_valid_name": blob["fetch_valid_name"],
            "declares": arena["declares"],
            "levels": [names[level] for level in arena["levels"]],
            "lows": arena["lows"],
            "highs": arena["highs"],
            "roots": arena["roots"],
        }

    def roundtrip(self, architecture, slots):
        import json

        from repro.bdd import BDDManager
        from repro.relational.beta import (
            _deserialize_stepper_payload,
            _serialize_stepper_payload,
        )

        manager, payloads = self.extract_payloads(architecture, slots)
        for prefix, payload in payloads.items():
            blob = json.loads(
                json.dumps(_serialize_stepper_payload(manager, payload, prefix))
            )
            # Fresh manager: only the architecture's own declarations
            # precede the restore, exactly like a cold worker process.
            target = BDDManager()
            architecture.make_models(target)
            from repro.core.siminfo import SimulationInfo
            from repro.relational.beta import beta_stimulus_order

            target.declare_all(
                beta_stimulus_order(
                    architecture, SimulationInfo(reset_cycles=1, slots=slots)
                )
            )
            restored = _deserialize_stepper_payload(target, blob, prefix)
            reserialized = _serialize_stepper_payload(target, restored, prefix)
            assert self.canonical(blob) == self.canonical(reserialized), prefix

    def test_vsm_relation_survives_snapshot_round_trip(self):
        from repro.core import VSMArchitecture

        self.roundtrip(VSMArchitecture(), (NORMAL, NORMAL))

    def test_alpha0_relation_survives_snapshot_round_trip(self):
        from repro.core import Alpha0Architecture
        from repro.processors import SymbolicAlpha0Options

        architecture = Alpha0Architecture(
            options=SymbolicAlpha0Options(
                data_width=3, num_registers=4, memory_words=2,
                alu_subset=("and", "or", "cmpeq"),
            )
        )
        self.roundtrip(architecture, (NORMAL,))

    def test_corrupted_bookkeeping_is_refused_before_touching_the_manager(self):
        """A blob whose input_names disagree with the arena's recorded
        declarations must raise SnapshotError (fallback to extraction)
        rather than rehydrate a stepper bound to undeclared variables."""
        import json

        import pytest

        from repro.bdd import BDDManager
        from repro.bdd.kernel import SnapshotError
        from repro.core import VSMArchitecture
        from repro.relational.beta import (
            SPEC_PREFIX,
            _deserialize_stepper_payload,
            _serialize_stepper_payload,
        )

        architecture = VSMArchitecture()
        manager, payloads = self.extract_payloads(architecture, (NORMAL,))
        blob = json.loads(
            json.dumps(
                _serialize_stepper_payload(manager, payloads[SPEC_PREFIX], SPEC_PREFIX)
            )
        )
        blob["input_names"][0] = "beta.s.in[999]"  # envelope-valid corruption
        target = BDDManager()
        with pytest.raises(SnapshotError):
            _deserialize_stepper_payload(target, blob, SPEC_PREFIX)
        assert target.variables == ()

    def test_alpha0_rehydrated_campaign_verdicts_byte_identical(self, tmp_path):
        import shutil

        from repro.engine import Alpha0Spec, CampaignRunner

        small = Alpha0Spec(data_width=3, num_registers=4, memory_words=2)
        campaign = [
            Scenario(name="alpha0/golden", design="alpha0", slots=(NORMAL,), alpha0=small),
            Scenario(
                name="alpha0/bug",
                design="alpha0",
                slots=(NORMAL, NORMAL),
                bug="no_bypass",
                alpha0=small,
            ),
        ]
        cold = CampaignRunner(store_path=tmp_path / "store").run(campaign)
        shutil.rmtree(tmp_path / "store" / "results")
        rehydrated = CampaignRunner(store_path=tmp_path / "store").run(campaign)
        assert rehydrated.verdict_json() == cold.verdict_json()
        golden = rehydrated.outcome("alpha0/golden")
        assert golden.extraction_cache["spec"] == "snapshot"
        assert golden.snapshot["spec"]["status"] == "restored"


class TestPoolArenaAccounting:
    def test_statistics_read_through_the_arena(self):
        runner = CampaignRunner(memoize=False)
        runner.run_one(scenario("vsm/a"))
        stats = runner.pool.statistics()
        arena = stats["arena"]
        # live counts terminals (2 per pooled manager); total_nodes keeps
        # the historical non-terminal meaning.
        assert arena["live"] - 2 * stats["managers"] == stats["total_nodes"]
        assert arena["capacity"] == arena["live"] + arena["free"]
        assert arena["allocated_total"] >= arena["live"] - 2 * stats["managers"]

    def test_counters_stay_monotonic_across_runs_and_retirement(self):
        runner = CampaignRunner(memoize=False)
        runner.run_one(scenario("vsm/a"))
        before = copy.deepcopy(runner.pool.statistics())
        runner.run_one(scenario("vsm/b", bug="drop_write_r3"))
        after = runner.pool.statistics()
        assert after["arena"]["allocated_total"] >= before["arena"]["allocated_total"]
        assert after["cache"]["hits"] >= before["cache"]["hits"]
        # Retiring every manager folds its counters instead of losing them.
        runner.pool.clear()
        cleared = runner.pool.statistics()
        assert cleared["arena"]["allocated_total"] >= after["arena"]["allocated_total"]
        assert cleared["arena"]["live"] == 0
        assert cleared["cache"]["hits"] >= after["cache"]["hits"]
