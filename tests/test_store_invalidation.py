"""Surgical store invalidation: per-component dependency vectors (PR 6).

The persistent store used to be invalidated by one monolithic code
salt — any bump cold-invalidated every verdict and snapshot, even for
scenarios whose inputs didn't change.  These tests lock down the
compositional replacement: every record envelope carries the
``{component: source-hash}`` vector of the code its verdict depends on
(:mod:`repro.engine.codehash`), and a lookup refuses the record — as
*invalidated*, degrading to recompute — exactly when one of *its own*
components changed.

The differential bar, from the paper's incremental-verification story:
after editing exactly one architecture model module, a warm-store re-run
recomputes only that architecture's scenarios, with byte-identical
verdicts throughout.  The safety direction stays absolute: stale always
degrades to recompute, never a wrong verdict.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    Alpha0Spec,
    CampaignRunner,
    ResultStore,
    Scenario,
    alpha0_operate_scenario,
    codehash,
    event_scenarios,
)
from repro.strings import NORMAL

SMALL_ALPHA0 = Alpha0Spec(data_width=3, num_registers=4, memory_words=2)

#: One scenario per dependency profile: two VSM beta runs (shared model),
#: one Alpha0 beta run, one interrupt run (VSM models + interrupt models).
MIXED = [
    Scenario(name="vsm/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="vsm/bug", slots=(NORMAL, NORMAL), bug="no_bypass"),
    alpha0_operate_scenario(alpha0=SMALL_ALPHA0),
    event_scenarios(num_slots=1)[0],
]

EVENTS_NAME = MIXED[3].name
ALPHA0_NAME = MIXED[2].name


@pytest.fixture(autouse=True)
def _clean_overrides():
    """Every test starts and ends with pristine component hashes."""
    codehash.clear_overrides()
    yield
    codehash.clear_overrides()


def run_with_store(tmp_path, scenarios=MIXED, **kwargs):
    # A fresh runner per call: each run is a separate "process" as far
    # as in-memory reuse goes, so only the on-disk store carries over.
    runner = CampaignRunner(store_path=tmp_path / "store", **kwargs)
    return runner.run(scenarios)


class TestComponentRegistry:
    def test_every_scenario_dependency_is_a_known_component(self):
        for scenario in MIXED:
            for name in scenario.dependencies():
                assert name in codehash.COMPONENTS

    def test_component_files_exist(self):
        for component in codehash.COMPONENTS:
            files = codehash.component_files(component)
            assert files, component
            for path in files:
                assert path.is_file(), f"{component}: {path}"

    def test_unknown_component_is_rejected(self):
        with pytest.raises(KeyError):
            codehash.component_hash("model:nonexistent")
        with pytest.raises(KeyError):
            codehash.set_override("model:nonexistent", "x")

    def test_override_changes_exactly_one_component(self):
        before = {name: codehash.component_hash(name) for name in codehash.COMPONENTS}
        codehash.set_override("model:vsm", "simulated edit")
        after = {name: codehash.component_hash(name) for name in codehash.COMPONENTS}
        changed = {name for name in before if before[name] != after[name]}
        assert changed == {"model:vsm"}
        codehash.clear_overrides()
        assert codehash.component_hash("model:vsm") == before["model:vsm"]


class TestSurgicalInvalidation:
    """Edit one component; exactly its dependents recompute."""

    def test_model_edit_invalidates_only_that_architectures_scenarios(self, tmp_path):
        cold = run_with_store(tmp_path)
        codehash.set_override("model:alpha0", "edited")
        warm = run_with_store(tmp_path)
        # Byte-identical verdicts: the running model objects are
        # unchanged, so the recomputed record must reproduce the cold one.
        assert warm.verdict_json().encode() == cold.verdict_json().encode()
        results = warm.store["results"]
        assert results["hits"] == len(MIXED) - 1
        assert results["invalidated"] == 1
        assert results["misses"] == 0 and results["stale"] == 0
        # The recompute republished the record in place.
        assert results["writes"] == 1
        by_status = {o.scenario: o.store.get("status") for o in warm.outcomes}
        assert by_status[ALPHA0_NAME] == "invalidated"
        assert all(
            status == "hit" for name, status in by_status.items() if name != ALPHA0_NAME
        )

    def test_interrupt_model_edit_invalidates_only_events(self, tmp_path):
        cold = run_with_store(tmp_path)
        codehash.set_override("model:interrupts", "edited")
        warm = run_with_store(tmp_path)
        assert warm.verdict_json() == cold.verdict_json()
        assert warm.store["results"]["invalidated"] == 1
        assert warm.store["results"]["hits"] == len(MIXED) - 1
        assert warm.outcome(EVENTS_NAME).store["status"] == "invalidated"

    def test_vsm_model_edit_invalidates_vsm_and_events(self, tmp_path):
        """The interrupt models subclass the VSM models, so a VSM edit
        takes the events scenario down with the two VSM beta runs."""
        cold = run_with_store(tmp_path)
        codehash.set_override("model:vsm", "edited")
        warm = run_with_store(tmp_path)
        assert warm.verdict_json() == cold.verdict_json()
        assert warm.store["results"]["invalidated"] == 3
        assert warm.store["results"]["hits"] == 1
        assert warm.outcome(ALPHA0_NAME).store["status"] == "hit"

    def test_relational_edit_invalidates_beta_and_events(self, tmp_path):
        """``run_events`` declares its stimulus through the relational
        subsystem's order function, so a relational edit takes the events
        record down with the three beta runs."""
        cold = run_with_store(tmp_path)
        codehash.set_override("relational", "edited")
        warm = run_with_store(tmp_path)
        assert warm.verdict_json() == cold.verdict_json()
        assert warm.store["results"]["invalidated"] == len(MIXED)
        assert warm.store["results"]["hits"] == 0
        assert warm.outcome(EVENTS_NAME).store["status"] == "invalidated"

    def test_unrelated_component_edit_keeps_every_record_warm(self, tmp_path):
        """The headline fix: the old monolithic salt would have lost
        everything here; the component vector loses nothing."""
        run_with_store(tmp_path)
        codehash.set_override("model:superscalar", "edited")
        warm = run_with_store(tmp_path)
        assert warm.store["results"]["hits"] == len(MIXED)
        assert warm.store["results"]["invalidated"] == 0
        assert warm.store["results"]["survival_rate"] == 1.0

    def test_invalidated_record_heals_after_recompute(self, tmp_path):
        run_with_store(tmp_path)
        codehash.set_override("model:alpha0", "edited")
        run_with_store(tmp_path)  # recomputes + republishes under new vector
        healed = run_with_store(tmp_path)  # override still active: must hit
        assert healed.store["results"]["hits"] == len(MIXED)
        assert healed.store["results"]["invalidated"] == 0

    def test_survival_stats_surface_in_campaign_report(self, tmp_path):
        run_with_store(tmp_path)
        codehash.set_override("model:alpha0", "edited")
        warm = run_with_store(tmp_path)
        results = warm.store["results"]
        assert results["survival_rate"] == pytest.approx(
            (len(MIXED) - 1) / len(MIXED)
        )
        payload = json.loads(warm.to_json())
        assert payload["store"]["results"]["invalidated"] == 1
        assert "invalidated by code changes" in warm.summary()


class TestRealOnDiskEdit:
    """The acceptance-criteria scenario: edit a model module on disk."""

    def test_editing_interrupts_module_recomputes_only_events(self, tmp_path):
        cold = run_with_store(tmp_path)
        module = Path(codehash.PACKAGE_ROOT) / "processors" / "interrupts.py"
        original = module.read_bytes()
        original_hash = codehash.component_hash("model:interrupts")
        try:
            module.write_bytes(original + b"\n# design edit under test\n")
            # Force a fresh stat signature even on coarse filesystem
            # timestamps (the size change alone would already do it).
            stat = module.stat()
            os.utime(module, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
            assert codehash.component_hash("model:interrupts") != original_hash
            warm = run_with_store(tmp_path)
        finally:
            module.write_bytes(original)
        # The loaded module objects are untouched by the on-disk edit, so
        # the recomputed verdicts are byte-identical to the cold run.
        assert warm.verdict_json().encode() == cold.verdict_json().encode()
        assert warm.store["results"]["invalidated"] == 1
        assert warm.store["results"]["hits"] == len(MIXED) - 1
        assert warm.outcome(EVENTS_NAME).store["status"] == "invalidated"
        # Restoring the file restores the hash; the events record was
        # republished under the *edited* hash, so it is invalidated once
        # more (content hashes, not version counters), and the store is
        # fully warm again on the run after that.
        assert codehash.component_hash("model:interrupts") == original_hash
        healed = run_with_store(tmp_path)
        assert healed.store["results"]["hits"] == len(MIXED) - 1
        assert healed.store["results"]["invalidated"] == 1
        settled = run_with_store(tmp_path)
        assert settled.store["results"]["hits"] == len(MIXED)


class TestSnapshotInvalidation:
    """Relation snapshots carry the same dependency vectors."""

    def test_snapshots_of_edited_model_are_refused(self, tmp_path):
        import shutil

        cold = run_with_store(tmp_path)
        assert cold.store["snapshots"]["writes"] >= 5
        codehash.set_override("model:alpha0", "edited")
        # Drop the result records so every scenario actually re-runs and
        # confronts the stored snapshots.
        shutil.rmtree(tmp_path / "store" / "results")
        warm = run_with_store(tmp_path)
        assert warm.verdict_json() == cold.verdict_json()
        snapshots = warm.store["snapshots"]
        # Alpha0's spec+impl relations were refused and re-extracted;
        # the VSM relations (spec + two impls) were served.
        assert snapshots["invalidated"] == 2
        assert snapshots["hits"] == 3
        alpha0 = warm.outcome(ALPHA0_NAME)
        assert alpha0.snapshot["spec"]["status"] == "saved"
        vsm = warm.outcome("vsm/golden")
        assert vsm.snapshot["spec"]["status"] == "restored"


class TestInvalidationVsStale:
    """Salt bumps and component edits are different failure classes."""

    def test_salt_bump_rekeys_component_edit_invalidates_in_place(self, tmp_path):
        run_with_store(tmp_path)
        store = ResultStore(tmp_path / "store")
        fingerprint = MIXED[0].fingerprint(store.salt)
        # A salt bump changes the fingerprint itself: old records become
        # unreachable (counted as plain misses), nothing is invalidated.
        bumped = CampaignRunner(
            store=ResultStore(tmp_path / "store", salt="bumped")
        ).run(MIXED)
        assert bumped.store["results"]["misses"] == len(MIXED)
        assert bumped.store["results"]["invalidated"] == 0
        assert MIXED[0].fingerprint("bumped") != fingerprint
        # A component edit keeps the address stable — same path, record
        # refused by its envelope, rewritten in place.
        path = store.result_path(fingerprint)
        assert path.is_file()
        codehash.set_override("model:vsm", "edited")
        warm = run_with_store(tmp_path)
        assert warm.store["results"]["invalidated"] == 3
        assert store.result_path(MIXED[0].fingerprint(store.salt)) == path

    def test_record_without_component_vector_is_invalidated(self, tmp_path):
        """A record predating dependency tracking (or with a stripped
        vector) must degrade to recompute, not serve."""
        cold = run_with_store(tmp_path)
        store = ResultStore(tmp_path / "store")
        path = store.result_path(MIXED[0].fingerprint(store.salt))
        envelope = json.loads(path.read_bytes())
        del envelope["components"]
        path.write_bytes(json.dumps(envelope).encode())
        warm = run_with_store(tmp_path)
        assert warm.verdict_json() == cold.verdict_json()
        assert warm.store["results"]["invalidated"] == 1
        assert warm.store["results"]["hits"] == len(MIXED) - 1

    def test_envelope_records_exactly_the_declared_dependencies(self, tmp_path):
        run_with_store(tmp_path)
        store = ResultStore(tmp_path / "store")
        for scenario in MIXED:
            path = store.result_path(scenario.fingerprint(store.salt))
            envelope = json.loads(path.read_bytes())
            assert set(envelope["components"]) == set(scenario.dependencies())
            assert envelope["components"] == store.component_vector(
                scenario.dependencies()
            )


class TestFingerprintStability:
    """Satellite: fingerprints must not depend on process or field order."""

    def test_fingerprint_is_stable_across_process_boundaries(self):
        scenario = MIXED[1]
        code = (
            "from repro.engine import Scenario\n"
            "from repro.strings import NORMAL\n"
            "s = Scenario(name='vsm/bug', slots=(NORMAL, NORMAL), bug='no_bypass')\n"
            "print(s.fingerprint('cross-process-salt'))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        remote = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert remote == scenario.fingerprint("cross-process-salt")

    def test_fingerprint_ignores_keyword_order(self):
        a = Scenario(name="x", slots=(NORMAL, NORMAL), bug="no_bypass")
        b = Scenario(bug="no_bypass", slots=(NORMAL, NORMAL), name="x")
        assert a.fingerprint("s") == b.fingerprint("s")

    def test_component_vector_is_order_insensitive_and_deduplicated(self):
        store_vector = codehash.component_vector(["relational", "bdd", "bdd"])
        assert list(store_vector) == ["bdd", "relational"]
        assert store_vector == codehash.component_vector(("bdd", "relational"))
