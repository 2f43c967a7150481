"""The relation template tier of the relational beta backend.

A fresh manager that needs a relation an earlier fresh manager restored
from disk adopts a copy of that manager's arena instead of hash-consing
the snapshot again (:class:`repro.relational.beta.RelationTemplates`).
These tests pin down that the tier is invisible in verdicts — serial,
parallel and refuting scenarios stay byte-identical to running
each scenario on its own fresh runner — that it only captures clean
arenas (the eligibility rule), and how it is traced.
"""

import json
import shutil

import pytest

from repro import telemetry
from repro.bdd import BDDManager
from repro.core import VSMArchitecture
from repro.engine import Alpha0Spec, CampaignRunner, Scenario
from repro.relational.beta import RelationTemplates, cached_extract_steppers
from repro.strings import CONTROL, NORMAL

SMALL_ALPHA0 = Alpha0Spec(data_width=3, num_registers=4, memory_words=2)


def mixed_campaign():
    """Mixed slot shapes over both designs, plus a refutation."""
    return [
        Scenario(name="vsm/n", slots=(NORMAL,)),
        Scenario(name="vsm/nn", slots=(NORMAL, NORMAL)),
        Scenario(name="vsm/c", slots=(CONTROL,)),
        Scenario(name="vsm/nc", slots=(NORMAL, CONTROL)),
        Scenario(name="vsm/bug", slots=(NORMAL, NORMAL, NORMAL), bug="no_bypass"),
        Scenario(name="alpha0/n", design="alpha0", slots=(NORMAL,), alpha0=SMALL_ALPHA0),
        Scenario(
            name="alpha0/nn", design="alpha0", slots=(NORMAL, NORMAL), alpha0=SMALL_ALPHA0
        ),
        Scenario(name="alpha0/c", design="alpha0", slots=(CONTROL,), alpha0=SMALL_ALPHA0),
    ]


@pytest.fixture(scope="module")
def isolated_verdicts():
    """Every scenario on its own fresh runner (no store, no templates)."""
    verdicts = [CampaignRunner().run([s]).verdicts()[0] for s in mixed_campaign()]
    return json.dumps(verdicts, indent=2, sort_keys=True)


def statuses(report, status):
    return sum(
        1
        for outcome in report.outcomes
        for record in outcome.snapshot.values()
        if record.get("status") == status
    )


class TestCampaignDifferential:
    def test_serial_cold_and_rehydrated_campaigns_match_fresh_runners(
        self, tmp_path, isolated_verdicts
    ):
        store = tmp_path / "store"
        cold = CampaignRunner(store_path=store).run(mixed_campaign())
        assert cold.verdict_json() == isolated_verdicts
        assert not cold.outcome("vsm/bug").passed
        assert cold.pool["templates"]["clones"] > 0

        shutil.rmtree(store / "results")
        rehydrated = CampaignRunner(store_path=store).run(mixed_campaign())
        assert rehydrated.verdict_json() == isolated_verdicts
        templates = rehydrated.pool["templates"]
        assert templates["clones"] == statuses(rehydrated, "template") > 0
        # Each distinct relation is restored from disk once: the VSM
        # spec and impl, the buggy VSM impl, the Alpha0 spec and impl.
        assert statuses(rehydrated, "restored") == 5
        assert rehydrated.store["snapshots"]["hits"] == 5
        assert templates["captures"] == 5
        assert rehydrated.outcome("vsm/nn").extraction_cache["spec"] == "template"

    def test_parallel_campaign_matches_fresh_runners(self, tmp_path, isolated_verdicts):
        store = tmp_path / "store"
        CampaignRunner(store_path=store).run(mixed_campaign())
        shutil.rmtree(store / "results")
        report = CampaignRunner(store_path=store).run(
            mixed_campaign(), parallel=True, max_workers=2
        )
        assert report.verdict_json() == isolated_verdicts
        clones = sum(
            worker["pool"]["templates"]["clones"] for worker in report.pool["per_worker"]
        )
        assert clones > 0

    def test_clear_drops_the_templates(self, tmp_path):
        runner = CampaignRunner(store_path=tmp_path / "store")
        runner.run(mixed_campaign()[:4])
        assert len(runner.pool.relation_templates) > 0
        runner.pool.clear()
        assert len(runner.pool.relation_templates) == 0


class _DictSnapshotStore:
    """In-memory stand-in for the store's snapshot family."""

    def __init__(self, blobs=None):
        self.blobs = dict(blobs or {})

    def fingerprint_for(self, key):
        return repr(key)

    def load_snapshot(self, fingerprint, dependencies=None):
        blob = self.blobs.get(fingerprint)
        return None if blob is None else json.loads(json.dumps(blob))

    def save_snapshot(self, fingerprint, blob, dependencies=None):
        self.blobs[fingerprint] = blob
        return 1


class TestEligibility:
    SPEC_KEY = ("beta_spec_relation", "vsm")
    IMPL_KEY = ("beta_impl_relation", "vsm", "[]")

    def acquire(self, manager, store, templates):
        architecture = VSMArchitecture()
        specification, implementation = architecture.make_models(manager)
        _spec, _impl, info = cached_extract_steppers(
            manager,
            specification,
            implementation,
            architecture.instruction_width,
            spec_key=self.SPEC_KEY,
            impl_key=self.IMPL_KEY,
            snapshot_store=store,
            templates=templates,
        )
        return info

    @pytest.fixture
    def blobs(self):
        store = _DictSnapshotStore()
        self.acquire(BDDManager(), store, RelationTemplates())
        assert len(store.blobs) == 2
        return store.blobs

    def test_spec_extracted_then_impl_restored_captures_no_template(self, blobs):
        impl_only = _DictSnapshotStore(
            {key: blob for key, blob in blobs.items() if "impl" in key}
        )
        templates = RelationTemplates()
        info = self.acquire(BDDManager(), impl_only, templates)
        assert (info["spec"], info["impl"]) == ("miss", "snapshot")
        assert len(templates) == 0 and templates.captures == 0

    def test_restores_capture_and_fresh_managers_adopt(self, blobs):
        templates = RelationTemplates()
        restored = BDDManager()
        info = self.acquire(restored, _DictSnapshotStore(blobs), templates)
        assert (info["spec"], info["impl"]) == ("snapshot", "snapshot")
        assert templates.captures == 2
        cloned = BDDManager()
        info = self.acquire(cloned, _DictSnapshotStore(), templates)
        assert (info["spec"], info["impl"]) == ("template", "template")
        assert templates.clones == 2
        assert cloned.arena_image() == restored.arena_image()
        assert cloned.variables == restored.variables

    def test_a_manager_off_the_base_state_falls_through_to_disk(self, blobs):
        templates = RelationTemplates()
        self.acquire(BDDManager(), _DictSnapshotStore(blobs), templates)
        busy = BDDManager(["unrelated"])
        info = self.acquire(busy, _DictSnapshotStore(blobs), templates)
        assert (info["spec"], info["impl"]) == ("snapshot", "snapshot")
        assert templates.clones == 0 and templates.captures == 2


class TestTracing:
    def test_restore_and_adoption_spans(self, tmp_path):
        store = tmp_path / "store"
        campaign = mixed_campaign()[:3]
        CampaignRunner(store_path=store).run(campaign)
        shutil.rmtree(store / "results")
        tracer = telemetry.enable()
        try:
            CampaignRunner(store_path=store).run(campaign)
        finally:
            telemetry.disable()
        by_id = {event["id"]: event for event in tracer.events}
        restores = [e for e in tracer.events if e["name"] == "snapshot.restore"]
        from_disk = [e for e in restores if "source" not in (e.get("attrs") or {})]
        adopted = [
            e for e in restores if (e.get("attrs") or {}).get("source") == "template"
        ]
        assert len(from_disk) == 2 and len(adopted) == 4
        for name in ("snapshot.validate", "snapshot.build"):
            parents = [
                by_id[e["parent"]]["name"] for e in tracer.events if e["name"] == name
            ]
            assert parents == ["snapshot.restore"] * 2, name
        # An adoption hash-conses nothing: no build span under it.
        adopted_ids = {e["id"] for e in adopted}
        assert not any(e.get("parent") in adopted_ids for e in tracer.events)
