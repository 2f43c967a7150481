"""Generative fuzz-campaign acceptance benchmark.

Runs seeded bug-hunt campaigns (:func:`repro.campaigns.run_fuzz_campaign`)
end to end through the ordinary campaign engine and asserts the
generative-campaign acceptance bars:

* **Ground truth** — every planted bug class is detected (the verifier
  refutes 100% of the ``expect:fail`` scenarios) and the stock/identity
  scenarios raise no false alarms.
* **Corpus dedup** — re-discovered witnesses dedupe against the
  committed golden counterexample records by content fingerprint; the
  campaign yields at least one *new* minimized witness record.
* **Warm re-run** — repeating the campaign against the persistent
  result store re-serves almost every verdict
  (``survival_rate >= 0.95``), so fuzz campaigns are cheap to keep in
  the loop.

Tiers: the full tier runs the 200-scenario acceptance campaign; the
``bench_smoke`` tier runs a 20-scenario pass in CI time.  The full tier and the CLI write ``BENCH_fuzz.json`` next to
this file (CI uploads it as an artifact); the smoke tier writes under
pytest's ``tmp_path`` and never touches the committed record.

CLI (the CI fuzz-smoke steps)::

    python bench_fuzz_campaign.py --store DIR --corpus-out DIR   # cold
    python bench_fuzz_campaign.py --store DIR --expect-warm      # warm

The first invocation populates the store and writes any new witness
records under ``--corpus-out`` (uploaded as a CI artifact); the second
asserts store survival across invocations.
"""

import argparse
import json
import pathlib
import tempfile
import time

import pytest

from repro.campaigns import run_fuzz_campaign
from repro.engine import CampaignRunner

from _bench_utils import record_paper_comparison

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_fuzz.json"

#: The acceptance campaign (one seed, fixed forever — the scenarios are
#: a pure function of it).
SEED = 0
FULL_COUNT = 200
SMOKE_COUNT = 20

#: Warm re-run store-survival floor (acceptance bar).
SURVIVAL_FLOOR = 0.95

#: Minimizer invocations per tier.  Minimization costs one small
#: sub-campaign per *new* witness; the caps keep the tiers' wall-clock
#: bounded while still committing canonical minimized records.
FULL_MAX_MINIMIZE = 12
SMOKE_MAX_MINIMIZE = 4

#: The planted (expect:fail) mutation classes the seeded full campaign
#: must flush out — all of them, or the verifier lost a bug class.
PLANTED_CLASSES = {
    "bypass_drop",
    "branch_skew",
    "planted_bug",
    "alpha0_case",
    "event_storm",
    "superscalar_hazard",
    "scoreboard_raw",
}


def _survival_rate(report) -> float:
    """Store hit fraction of a campaign report (0.0 without lookups)."""
    results = (report.store or {}).get("results", {})
    lookups = sum(
        results.get(key, 0) for key in ("hits", "misses", "stale", "invalidated")
    )
    return results.get("hits", 0) / lookups if lookups else 0.0


def run_tier(
    tier: str,
    store_path,
    corpus_root,
    seed: int = SEED,
    count: int = None,
    write_corpus: bool = False,
):
    """One cold + one warm campaign against a persistent store."""
    heavy = tier == "full"
    if count is None:
        count = FULL_COUNT if heavy else SMOKE_COUNT
    max_minimize = FULL_MAX_MINIMIZE if heavy else SMOKE_MAX_MINIMIZE

    started = time.perf_counter()
    cold = run_fuzz_campaign(
        seed,
        count,
        runner=CampaignRunner(store_path=store_path),
        corpus_root=corpus_root,
        write_corpus=write_corpus,
        max_minimize=max_minimize,
    )
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = run_fuzz_campaign(
        seed,
        count,
        runner=CampaignRunner(store_path=store_path),
        corpus_root=corpus_root,
        max_minimize=max_minimize,
    )
    warm_seconds = time.perf_counter() - started

    return {
        "tier": tier,
        "seed": seed,
        "count": count,
        "scenarios": len(cold.scenarios),
        "cold": cold.summary(),
        "warm": warm.summary(),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "survival_rate": round(_survival_rate(warm.report), 4),
        "new_record_fingerprints": [
            record["fingerprint"] for record in cold.new_records
        ],
        "_cold": cold,
        "_warm": warm,
    }


def _assert_acceptance(payload, require_all_classes: bool) -> None:
    cold, warm = payload["_cold"], payload["_warm"]
    assert cold.ok, cold.ground_truth_violations
    assert warm.ok, warm.ground_truth_violations
    # 100% of the planted bug classes present in the campaign detected.
    assert cold.planted_detected, "campaign planted no bugs at all"
    assert all(cold.planted_detected.values()), cold.planted_detected
    if require_all_classes:
        assert set(cold.planted_detected) == PLANTED_CLASSES, cold.planted_detected
    # Dedup against the committed golden corpus fired.
    golden_dups = [
        dup for dup in cold.duplicates if dup["matches"].startswith("golden:")
    ]
    assert golden_dups, cold.duplicates
    # At least one genuinely new *minimized* witness (witnesses past the
    # max_minimize cap are deliberately recorded raw).
    minimized = [
        record
        for record in cold.new_records
        if record["scenario"]["name"].startswith("fuzz/min/")
    ]
    assert minimized, [r["scenario"]["name"] for r in cold.new_records]
    # Warm re-run survives the store.
    assert payload["survival_rate"] >= SURVIVAL_FLOOR, payload["survival_rate"]
    assert warm.report.verdict_json() == cold.report.verdict_json()


def _write_json(payload, path: pathlib.Path = JSON_PATH) -> None:
    serialisable = {
        key: value for key, value in payload.items() if not key.startswith("_")
    }
    path.write_text(json.dumps(serialisable, indent=2, sort_keys=True) + "\n")


# ======================================================================
# Tiers
# ======================================================================
@pytest.mark.bench_smoke
def test_fuzz_campaign_smoke(benchmark, tmp_path):
    """CI tier: two scenarios per mutation class, cold + warm.

    Its record goes to ``tmp_path``; only the full tier writes the
    committed BENCH_fuzz.json."""
    payload = benchmark.pedantic(
        lambda: run_tier("smoke", tmp_path / "store", tmp_path / "corpus"),
        rounds=1,
        iterations=1,
    )
    _write_json(payload, tmp_path / JSON_PATH.name)
    _assert_acceptance(payload, require_all_classes=False)
    record_paper_comparison(
        benchmark,
        experiment="generative fuzz campaign (smoke)",
        paper="any incorrect change in state ... will be detected",
        measured=(
            f"{payload['scenarios']} scenarios, "
            f"{payload['cold']['witnesses']} witnesses "
            f"({payload['cold']['duplicates']} deduped, "
            f"{payload['cold']['new_records']} new minimized), "
            f"warm survival {payload['survival_rate']:.1%}"
        ),
    )


def test_fuzz_campaign_full(benchmark):
    """Acceptance tier: the seeded 200-scenario campaign."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        payload = benchmark.pedantic(
            lambda: run_tier("full", tmp / "store", tmp / "corpus"),
            rounds=1,
            iterations=1,
        )
        _write_json(payload)
        _assert_acceptance(payload, require_all_classes=True)
    record_paper_comparison(
        benchmark,
        experiment="generative fuzz campaign (200 scenarios)",
        paper="any incorrect change in state ... will be detected",
        measured=(
            f"{payload['scenarios']} scenarios in {payload['cold_seconds']}s cold / "
            f"{payload['warm_seconds']}s warm, all {len(payload['cold']['planted_classes'])} "
            f"planted classes detected, {payload['cold']['duplicates']} witnesses deduped, "
            f"{payload['cold']['new_records']} new minimized records, "
            f"warm survival {payload['survival_rate']:.1%}"
        ),
    )


# ======================================================================
# CLI (CI fuzz-smoke steps)
# ======================================================================
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", choices=("smoke", "full"), default="smoke")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument(
        "--store", default=None, help="persistent store directory (carried between steps)"
    )
    parser.add_argument(
        "--corpus-out",
        default=None,
        help="write new witness records to this directory (CI artifact)",
    )
    parser.add_argument(
        "--expect-warm",
        action="store_true",
        help=f"assert store survival >= {SURVIVAL_FLOOR} (the warm CI step)",
    )
    args = parser.parse_args()

    heavy = args.tier == "full"
    count = args.count if args.count is not None else (
        FULL_COUNT if heavy else SMOKE_COUNT
    )
    started = time.perf_counter()
    result = run_fuzz_campaign(
        args.seed,
        count,
        runner=CampaignRunner(store_path=args.store) if args.store else None,
        corpus_root=args.corpus_out,
        write_corpus=args.corpus_out is not None,
        max_minimize=FULL_MAX_MINIMIZE if heavy else SMOKE_MAX_MINIMIZE,
    )
    seconds = time.perf_counter() - started
    summary = result.summary()
    survival = _survival_rate(result.report)
    print(
        f"fuzz campaign: seed {args.seed}, {summary['scenarios']} scenario(s) "
        f"in {seconds:.2f}s; planted classes {summary['planted_classes']}; "
        f"witnesses={summary['witnesses']} duplicates={summary['duplicates']} "
        f"new={summary['new_records']}; store survival {survival:.1%}"
    )

    payload = {
        "cli": True,
        "tier": args.tier,
        "seed": args.seed,
        "count": count,
        "expect_warm": args.expect_warm,
        "seconds": round(seconds, 3),
        "summary": summary,
        "survival_rate": round(survival, 4),
        "violations": result.ground_truth_violations,
    }
    existing = {}
    if JSON_PATH.exists():
        try:
            existing = json.loads(JSON_PATH.read_text())
        except ValueError:
            existing = {}
    existing.setdefault("cli_runs", []).append(payload)
    JSON_PATH.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    if not result.ok:
        print(f"FAIL: {len(result.ground_truth_violations)} ground-truth violation(s):")
        for violation in result.ground_truth_violations:
            print(f"  {violation}")
        return 1
    if not result.planted_detected or not all(result.planted_detected.values()):
        print(f"FAIL: planted bug classes missed: {result.planted_detected}")
        return 1
    if not result.duplicates and not result.new_records:
        print("FAIL: the campaign found no witnesses at all")
        return 1
    if args.expect_warm:
        if survival < SURVIVAL_FLOOR:
            print(
                f"FAIL: warm survival {survival:.1%} below the "
                f"{SURVIVAL_FLOOR:.0%} floor"
            )
            return 1
        print(f"warm store OK: survival {survival:.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
