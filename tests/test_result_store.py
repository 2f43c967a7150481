"""The persistent verification store: cold/warm identity, robustness (PR 5).

The campaign throughput layer makes reuse survive the process: verdicts
live in a content-addressed :class:`~repro.engine.store.ResultStore`
keyed by :meth:`Scenario.fingerprint`, and extracted beta relations live
next to them as arena snapshots.  The hard bar is byte-identical
verdicts on every path — cold, warm, snapshot-rehydrated, affinity-
parallel — and *never a wrong verdict* from a stale or damaged store:
salt mismatches and corrupt or truncated records must silently degrade
to recomputation.
"""

import json

import pytest

from repro.engine import (
    CampaignRunner,
    ResultStore,
    Scenario,
    content_fingerprint,
)
from repro.strings import CONTROL, NORMAL

#: A small mixed campaign: two signatures, a shared golden spec, a bug.
CAMPAIGN = [
    Scenario(name="vsm/golden", slots=(NORMAL, NORMAL)),
    Scenario(name="vsm/bug", slots=(NORMAL, NORMAL), bug="no_bypass"),
    Scenario(name="vsm/branchy", slots=(CONTROL, NORMAL)),
]


def run_with_store(tmp_path, scenarios=CAMPAIGN, **kwargs):
    runner = CampaignRunner(store_path=tmp_path / "store", **kwargs)
    return runner.run(scenarios)


class TestFingerprint:
    def test_ignores_name_and_tags(self):
        a = Scenario(name="a", slots=(NORMAL,), tags=("x",))
        b = Scenario(name="b", slots=(NORMAL,), tags=("y",))
        assert a.fingerprint("s") == b.fingerprint("s")

    def test_separates_content_and_salt(self):
        a = Scenario(name="a", slots=(NORMAL,))
        b = Scenario(name="a", slots=(NORMAL, NORMAL))
        c = Scenario(name="a", slots=(NORMAL,), bug="no_bypass")
        assert len({a.fingerprint("s"), b.fingerprint("s"), c.fingerprint("s")}) == 3
        assert a.fingerprint("s1") != a.fingerprint("s2")

    def test_backend_choice_separates_fingerprints(self):
        from repro.relational import BETA_COMPOSE

        fast = Scenario(name="a", slots=(NORMAL,))
        compose = Scenario(name="a", slots=(NORMAL,), beta_backend=BETA_COMPOSE)
        assert fast.fingerprint("s") != compose.fingerprint("s")


class TestColdWarmIdentity:
    def test_warm_rerun_serves_byte_identical_verdicts(self, tmp_path):
        cold = run_with_store(tmp_path)
        warm = run_with_store(tmp_path)
        assert cold.verdict_json().encode() == warm.verdict_json().encode()
        assert cold.store["results"]["misses"] == len(CAMPAIGN)
        assert cold.store["results"]["writes"] == len(CAMPAIGN)
        assert warm.store["results"]["hits"] == len(CAMPAIGN)
        assert warm.store["results"]["misses"] == 0
        assert all(o.store.get("status") == "hit" for o in warm.outcomes)
        # Warm outcomes did no BDD work at all.
        assert all(o.bdd_nodes == 0 for o in warm.outcomes)

    def test_store_hit_is_indistinguishable_from_fresh_in_verdict(self, tmp_path):
        cold = run_with_store(tmp_path)
        warm = run_with_store(tmp_path)
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert before.verdict() == after.verdict()
        # The failing scenario's counterexample survives the round trip
        # byte for byte (bools stay bools, words stay ints).
        bug_cold = cold.outcome("vsm/bug")
        bug_warm = warm.outcome("vsm/bug")
        assert bug_cold.mismatches == bug_warm.mismatches
        assert not bug_warm.passed

    def test_renamed_scenario_shares_the_record(self, tmp_path):
        run_with_store(tmp_path, scenarios=[CAMPAIGN[0]])
        renamed = run_with_store(
            tmp_path, scenarios=[CAMPAIGN[0].renamed("vsm/other-name")]
        )
        assert renamed.store["results"]["hits"] == 1
        assert renamed.outcome("vsm/other-name").passed

    def test_memo_hits_take_precedence_and_zero_store_fields(self, tmp_path):
        runner = CampaignRunner(store_path=tmp_path / "store")
        report = runner.run([CAMPAIGN[0], CAMPAIGN[0].renamed("alias")])
        first, alias = report.outcomes
        assert not first.memoized and alias.memoized
        assert alias.store == {} and alias.snapshot == {}

    def test_parallel_warm_store_matches_serial(self, tmp_path):
        cold = run_with_store(tmp_path)
        runner = CampaignRunner(store_path=tmp_path / "store")
        warm = runner.run(CAMPAIGN, parallel=True, max_workers=2)
        assert warm.verdict_json() == cold.verdict_json()
        assert warm.store["results"]["hits"] == len(CAMPAIGN)


class TestRobustness:
    """A damaged or stale store must recompute — never a wrong verdict."""

    def salted_paths(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fingerprints = [s.fingerprint(store.salt) for s in CAMPAIGN]
        return store, fingerprints

    def test_salt_bump_degrades_to_a_cold_store(self, tmp_path):
        """A code-version bump re-keys everything: old records are unreachable."""
        cold = run_with_store(tmp_path)
        stale_runner = CampaignRunner(
            store=ResultStore(tmp_path / "store", salt="bumped-code-version")
        )
        stale = stale_runner.run(CAMPAIGN)
        assert stale.verdict_json() == cold.verdict_json()
        assert stale.store["results"]["hits"] == 0
        assert stale.store["results"]["misses"] == len(CAMPAIGN)
        # The run re-published records under its own salt.
        assert stale.store["results"]["writes"] == len(CAMPAIGN)

    def test_envelope_salt_mismatch_is_refused_as_stale(self, tmp_path):
        """Second line of defence: a record whose *envelope* carries the
        wrong salt (file copied across store versions) is refused even
        when it sits at the right path."""
        cold = run_with_store(tmp_path)
        store, fingerprints = self.salted_paths(tmp_path)
        path = store.result_path(fingerprints[0])
        envelope = json.loads(path.read_bytes())
        envelope["salt"] = "some-other-code-version"
        path.write_bytes(json.dumps(envelope).encode())
        recovered = run_with_store(tmp_path)
        assert recovered.verdict_json() == cold.verdict_json()
        assert recovered.store["results"]["stale"] == 1
        assert recovered.store["results"]["hits"] == len(CAMPAIGN) - 1

    def test_truncated_and_garbage_records_degrade_to_recompute(self, tmp_path):
        cold = run_with_store(tmp_path)
        store, fingerprints = self.salted_paths(tmp_path)
        store.result_path(fingerprints[0]).write_bytes(b"{ not json")
        truncated = store.result_path(fingerprints[1])
        truncated.write_bytes(truncated.read_bytes()[: 40])
        recovered = run_with_store(tmp_path)
        assert recovered.verdict_json() == cold.verdict_json()
        assert recovered.store["results"]["corrupt"] == 2
        assert recovered.store["results"]["hits"] == 1
        # The damaged records were rewritten and now serve again.
        healed = run_with_store(tmp_path)
        assert healed.store["results"]["hits"] == len(CAMPAIGN)

    def test_truncated_snapshot_falls_back_to_extraction(self, tmp_path):
        cold = run_with_store(tmp_path)
        store = ResultStore(tmp_path / "store")
        snapshot_paths = list((tmp_path / "store" / "snapshots").rglob("*.json.z"))
        assert snapshot_paths, "the cold run should have published relation snapshots"
        for path in snapshot_paths:
            path.write_bytes(path.read_bytes()[:-20])
        # Remove the result records so the scenarios actually re-run and
        # have to confront the damaged snapshots.
        import shutil

        shutil.rmtree(tmp_path / "store" / "results")
        recovered = run_with_store(tmp_path)
        assert recovered.verdict_json() == cold.verdict_json()
        # Every pre-existing snapshot was refused; the run re-extracted,
        # re-published, and later scenarios may hit the fresh records —
        # but none of the damaged ones.
        assert recovered.store["snapshots"]["corrupt"] >= len(snapshot_paths) - 2
        assert recovered.store["snapshots"]["writes"] > 0

    def test_interior_snapshot_corruption_is_rejected_structurally(self, tmp_path):
        """A snapshot that decompresses fine but lies about its nodes."""
        import zlib

        cold = run_with_store(tmp_path)
        store = ResultStore(tmp_path / "store")
        from repro.bdd.kernel import pack_snapshot, unpack_snapshot

        path = next((tmp_path / "store" / "snapshots").rglob("*.json.z"))
        envelope = json.loads(zlib.decompress(path.read_bytes()))
        arena = unpack_snapshot(envelope["payload"]["arena"])
        assert arena["lows"]
        arena["lows"][len(arena["lows"]) // 2] = 10 ** 9  # forward reference
        envelope["payload"]["arena"] = pack_snapshot(arena)
        path.write_bytes(zlib.compress(json.dumps(envelope).encode()))
        import shutil

        shutil.rmtree(tmp_path / "store" / "results")
        recovered = run_with_store(tmp_path)
        assert recovered.verdict_json() == cold.verdict_json()

    def test_content_fingerprint_salting(self):
        assert content_fingerprint("a", 1) != content_fingerprint("a", 2)
        assert content_fingerprint("a", salt="x") != content_fingerprint("a", salt="y")
        assert content_fingerprint("a", salt="x") == content_fingerprint("a", salt="x")


class TestContentFingerprintCanonicalisation:
    """Container-bearing keys must fingerprint by *content*, not by the
    insertion/iteration order ``repr`` would leak."""

    def test_dict_keys_are_order_insensitive(self):
        forward = {"alpha": 1, "beta": [2, 3], "gamma": {"x": True}}
        permuted = {"gamma": {"x": True}, "beta": [2, 3], "alpha": 1}
        assert repr(forward) != repr(permuted)  # repr would have split them
        assert content_fingerprint(forward) == content_fingerprint(permuted)
        changed = dict(forward, alpha=2)
        assert content_fingerprint(forward) != content_fingerprint(changed)

    def test_sets_are_order_insensitive(self):
        assert content_fingerprint({"b", "a", "c"}) == content_fingerprint(
            {"c", "a", "b"}
        )
        assert content_fingerprint(frozenset({1, 2})) == content_fingerprint(
            frozenset({2, 1})
        )
        assert content_fingerprint({1, 2}) != content_fingerprint({1, 3})

    def test_container_types_stay_distinct(self):
        assert content_fingerprint(("a",)) != content_fingerprint(["a"])
        assert content_fingerprint({"a"}) != content_fingerprint(["a"])
        assert content_fingerprint({"a": 1}) != content_fingerprint([("a", 1)])

    def test_nested_containers_canonicalise_recursively(self):
        a = ("key", {"outer": {"z": [1, {2, 3}], "a": None}})
        b = ("key", {"outer": {"a": None, "z": [1, {3, 2}]}})
        assert content_fingerprint(a) == content_fingerprint(b)

    def test_scalars_keep_their_types(self):
        assert content_fingerprint(1) != content_fingerprint("1")
        assert content_fingerprint(True) != content_fingerprint(1)
        assert content_fingerprint(None) != content_fingerprint("None")


class TestStatistics:
    def test_hit_rate_is_reported_for_both_families(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result_fp = content_fingerprint("result-key", salt=store.salt)
        snapshot_fp = content_fingerprint("snapshot-key", salt=store.salt)
        store.save_result(result_fp, {"verdict": {}})
        store.save_snapshot(snapshot_fp, {"arena": {}})
        assert store.load_result(result_fp)[0] is not None
        assert store.load_result("0" * 64)[0] is None
        for _ in range(3):
            assert store.load_snapshot(snapshot_fp) is not None
        assert store.load_snapshot("0" * 64) is None
        stats = store.statistics()
        assert stats["results"]["hit_rate"] == pytest.approx(0.5)
        assert stats["snapshots"]["hit_rate"] == pytest.approx(0.75)
        empty = ResultStore(tmp_path / "other").statistics()
        assert empty["results"]["hit_rate"] == 0.0
        assert empty["snapshots"]["hit_rate"] == 0.0

    def test_invalidated_lookups_count_against_the_hit_rate(self, tmp_path):
        from repro.engine import codehash

        store = ResultStore(tmp_path / "store")
        fingerprint = content_fingerprint("key", salt=store.salt)
        store.save_result(fingerprint, {"verdict": {}}, dependencies=("bdd",))
        codehash.set_override("bdd", "edited")
        try:
            fresh = ResultStore(tmp_path / "store")
            assert fresh.load_result(fingerprint, dependencies=("bdd",))[0] is None
            stats = fresh.statistics()
            assert stats["results"]["invalidated"] == 1
            assert stats["results"]["hit_rate"] == 0.0
        finally:
            codehash.clear_overrides()


class TestTmpSweep:
    """Orphaned ``*.tmp`` files (a writer died mid-publish) get swept."""

    def seed_orphans(self, tmp_path, count=3, age=7200.0):
        import os
        import time

        directory = tmp_path / "store" / "results" / "ab"
        directory.mkdir(parents=True)
        stamp = time.time() - age
        orphans = []
        for index in range(count):
            orphan = directory / f"record{index}.json.tmp"
            orphan.write_bytes(b"partial write")
            os.utime(orphan, (stamp, stamp))
            orphans.append(orphan)
        return directory, orphans

    def test_sweep_removes_only_aged_orphans(self, tmp_path):
        directory, orphans = self.seed_orphans(tmp_path)
        fresh = directory / "inflight.json.tmp"
        fresh.write_bytes(b"a live writer's file")
        keeper = directory / "kept.json"
        keeper.write_bytes(b"{}")
        store = ResultStore(tmp_path / "store")
        assert store.sweep_stale_tmp() == len(orphans)
        assert all(not orphan.exists() for orphan in orphans)
        assert fresh.exists()  # younger than tmp_max_age
        assert keeper.exists()  # not a temp file at all
        assert store.statistics()["tmp_swept"] == len(orphans)

    def test_writes_sweep_their_directory_opportunistically(self, tmp_path):
        directory, orphans = self.seed_orphans(tmp_path)
        store = ResultStore(tmp_path / "store")
        # Publish a record whose fan-out directory is the seeded one.
        store.save_result("ab" + "0" * 62, {"verdict": {}})
        assert all(not orphan.exists() for orphan in orphans)
        assert store.statistics()["tmp_swept"] == len(orphans)
        # The published record survived its own directory's sweep.
        assert store.load_result("ab" + "0" * 62)[0] is not None

    def test_campaign_reports_swept_orphans(self, tmp_path):
        self.seed_orphans(tmp_path)
        report = run_with_store(tmp_path)
        assert report.store["tmp_swept"] == 3

    def test_zero_max_age_sweeps_everything(self, tmp_path):
        directory, _ = self.seed_orphans(tmp_path, count=1, age=0.0)
        fresh = directory / "young.json.tmp"
        fresh.write_bytes(b"x")
        store = ResultStore(tmp_path / "store", tmp_max_age=0.0)
        assert store.sweep_stale_tmp() == 2
        assert not fresh.exists()


class TestQuarantine:
    """Refused records become forensic evidence instead of being
    silently overwritten: corrupt/stale files move to ``quarantine/``
    (atomic rename), capped in count and swept by age."""

    def corrupt_record(self, tmp_path, index=0, data=b"{ not json"):
        store = ResultStore(tmp_path / "store")
        fingerprint = CAMPAIGN[index].fingerprint(store.salt)
        store.result_path(fingerprint).write_bytes(data)
        return fingerprint

    def test_corrupt_record_is_quarantined_and_healed(self, tmp_path):
        cold = run_with_store(tmp_path)
        fingerprint = self.corrupt_record(tmp_path)
        recovered = run_with_store(tmp_path)
        assert recovered.verdict_json() == cold.verdict_json()
        assert recovered.store["results"]["corrupt"] == 1
        assert recovered.store["results"]["quarantined"] == 1
        quarantined = ResultStore(tmp_path / "store").quarantined_records()
        assert [p.name for p in quarantined] == [f"{fingerprint}.corrupt"]
        # The evidence survived verbatim while the record healed in place.
        assert quarantined[0].read_bytes() == b"{ not json"
        healed = run_with_store(tmp_path)
        assert healed.store["results"]["hits"] == len(CAMPAIGN)

    def test_misshapen_verdict_counts_as_corrupt_not_as_a_hit(self, tmp_path):
        """A valid envelope around a verdict the runner cannot read is
        counted once, as corrupt, and quarantined; the scenario recomputes."""
        scenario = Scenario(name="vsm/one", slots=(NORMAL,))
        cold = run_with_store(tmp_path, [scenario])
        store = ResultStore(tmp_path / "store")
        fingerprint = scenario.fingerprint(store.salt)
        path = store.result_path(fingerprint)
        envelope = json.loads(path.read_bytes())
        envelope["payload"] = {"verdict": {"kind": "beta"}}
        path.write_bytes(json.dumps(envelope).encode())
        recovered = run_with_store(tmp_path, [scenario])
        assert recovered.verdict_json() == cold.verdict_json()
        results = recovered.store["results"]
        assert (results["hits"], results["misses"], results["corrupt"]) == (0, 0, 1)
        assert (results["quarantined"], results["writes"]) == (1, 1)
        assert results["hit_rate"] == 0.0
        assert recovered.outcome("vsm/one").store["status"] == "corrupt"
        names = [p.name for p in ResultStore(tmp_path / "store").quarantined_records()]
        assert names == [f"{fingerprint}.corrupt"]
        healed = run_with_store(tmp_path, [scenario])
        assert healed.store["results"]["hits"] == 1

    def test_stale_envelope_is_quarantined_with_reason(self, tmp_path):
        run_with_store(tmp_path)
        store = ResultStore(tmp_path / "store")
        fingerprint = CAMPAIGN[0].fingerprint(store.salt)
        path = store.result_path(fingerprint)
        envelope = json.loads(path.read_bytes())
        envelope["salt"] = "some-other-code-version"
        path.write_bytes(json.dumps(envelope).encode())
        recovered = run_with_store(tmp_path)
        assert recovered.store["results"]["stale"] == 1
        names = [p.name for p in ResultStore(tmp_path / "store").quarantined_records()]
        assert names == [f"{fingerprint}.stale"]

    def test_quarantine_census_in_disk_statistics(self, tmp_path):
        run_with_store(tmp_path)
        self.corrupt_record(tmp_path)
        run_with_store(tmp_path)
        census = ResultStore(tmp_path / "store").disk_statistics()
        assert census["quarantine"]["records"] == 1

    def test_cap_falls_back_to_overwrite_in_place(self, tmp_path):
        cold = run_with_store(tmp_path)
        self.corrupt_record(tmp_path, index=0)
        self.corrupt_record(tmp_path, index=1)
        runner = CampaignRunner(
            store=ResultStore(tmp_path / "store", quarantine_limit=1)
        )
        recovered = runner.run(CAMPAIGN)
        assert recovered.verdict_json() == cold.verdict_json()
        assert recovered.store["results"]["corrupt"] == 2
        # Only one made the quarantine; the other healed the old way.
        assert recovered.store["results"]["quarantined"] == 1
        assert len(ResultStore(tmp_path / "store").quarantined_records()) == 1
        healed = run_with_store(tmp_path)
        assert healed.store["results"]["hits"] == len(CAMPAIGN)

    def test_disabled_quarantine_keeps_old_behaviour(self, tmp_path):
        run_with_store(tmp_path)
        self.corrupt_record(tmp_path)
        runner = CampaignRunner(
            store=ResultStore(tmp_path / "store", quarantine_limit=0)
        )
        recovered = runner.run(CAMPAIGN)
        assert recovered.store["results"]["corrupt"] == 1
        assert recovered.store["results"]["quarantined"] == 0
        assert ResultStore(tmp_path / "store").quarantined_records() == []

    def test_aged_forensics_are_swept(self, tmp_path):
        import os
        import time

        run_with_store(tmp_path)
        self.corrupt_record(tmp_path)
        run_with_store(tmp_path)
        [artefact] = ResultStore(tmp_path / "store").quarantined_records()
        stamp = time.time() - 3600.0
        os.utime(artefact, (stamp, stamp))
        keeper = ResultStore(tmp_path / "store", quarantine_max_age=7200.0)
        keeper.sweep_stale_tmp()
        assert keeper.quarantined_records() == [artefact]
        sweeper = ResultStore(tmp_path / "store", quarantine_max_age=1800.0)
        sweeper.sweep_stale_tmp()
        assert sweeper.quarantined_records() == []


class TestDurabilityAndInterrupt:
    """fsync publishes and interrupted campaigns leave a usable store."""

    def test_fsync_store_serves_byte_identical_verdicts(self, tmp_path):
        cold = run_with_store(tmp_path)
        durable_root = tmp_path / "durable"
        durable_cold = CampaignRunner(
            store=ResultStore(durable_root, fsync=True)
        ).run(CAMPAIGN)
        durable_warm = CampaignRunner(
            store=ResultStore(durable_root, fsync=True)
        ).run(CAMPAIGN)
        assert durable_cold.verdict_json() == cold.verdict_json()
        assert durable_warm.verdict_json() == cold.verdict_json()
        assert durable_warm.store["results"]["hits"] == len(CAMPAIGN)

    def test_injected_interrupt_leaves_no_partial_records(self, tmp_path):
        from repro.resilience import FaultPlan, FaultSpec, faults

        cold = run_with_store(tmp_path / "clean")
        plan = FaultPlan(
            seed=7,
            sites={"scenario.run": FaultSpec(kind="interrupt", at=(1,))},
        )
        with faults.active(plan):
            with pytest.raises(KeyboardInterrupt):
                run_with_store(tmp_path)
        # The kill published only whole records: no temp litter, and the
        # scenario that completed before the interrupt serves warm.
        assert list((tmp_path / "store").rglob("*.tmp")) == []
        resumed = run_with_store(tmp_path)
        assert resumed.verdict_json() == cold.verdict_json()
        assert resumed.store["results"]["hits"] == 1
        assert resumed.store["results"]["misses"] == len(CAMPAIGN) - 1


class TestReportPlumbing:
    def test_report_json_carries_store_and_snapshot_records(self, tmp_path):
        cold = run_with_store(tmp_path)
        payload = json.loads(cold.to_json())
        assert payload["store"]["results"]["writes"] == len(CAMPAIGN)
        by_name = {o["scenario"]: o for o in payload["outcomes"]}
        golden = by_name["vsm/golden"]
        assert golden["store"]["status"] == "miss"
        assert golden["store"]["bytes_written"] > 0
        assert golden["snapshot"]["spec"]["status"] == "saved"
        assert golden["snapshot"]["impl"]["status"] == "saved"
        assert golden["snapshot"]["spec"]["nodes"] > 0
        summary = cold.summary()
        assert "store:" in summary

    def test_snapshot_restores_are_timed_per_scenario(self, tmp_path):
        run_with_store(tmp_path)
        import shutil

        shutil.rmtree(tmp_path / "store" / "results")
        rehydrated = run_with_store(tmp_path)
        golden = rehydrated.outcome("vsm/golden")
        assert golden.snapshot["spec"]["status"] == "restored"
        assert golden.snapshot["impl"]["status"] == "restored"
        assert golden.snapshot["spec"]["seconds"] >= 0.0
        assert golden.extraction_cache["spec"] == "snapshot"
