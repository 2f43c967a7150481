"""Telemetry overhead benchmark (PR 7).

The telemetry subsystem's contract is *off means free, on means cheap*:
the engine is instrumented unconditionally, a disabled span is one
module-global read returning a shared no-op singleton, and enabling
tracing may not meaningfully slow a campaign down.  This benchmark pins
the "on means cheap" half on the smoke campaign:

* run the same scenario set with tracing disabled and enabled
  (alternating, best-of-N wall clock each, fresh runner per run so
  every run does the full BDD work);
* assert verdict byte-identity between the two modes (the "observe
  only" contract, also differential-tested in tier 1);
* record the traced/untraced wall-clock ratio.  The issue's target is
  <= 1.05 (5% overhead); the measured ratio and whether the target was
  met are recorded honestly in ``BENCH_telemetry.json``, and a 1.25
  hard ceiling is asserted so a pathological regression (per-ITE-call
  tracing, accidental flushing in a hot loop) fails CI outright while
  a noisy-box near-miss of the 5% goal does not.

The CLI writes its record to ``BENCH_telemetry.json`` next to this
file (CI uploads it together with the smoke campaign's trace
artifacts); the ``bench_smoke`` test writes under pytest's
``tmp_path`` and never touches the committed record.
"""

import argparse
import gc
import json
import pathlib
import tempfile
import time

import pytest

from repro import telemetry
from repro.engine import CampaignRunner
from repro.telemetry import report as trace_report

from _bench_utils import record_paper_comparison

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_telemetry.json"

#: The issue's overhead target (traced wall clock / untraced).
OVERHEAD_TARGET = 1.05
#: The asserted ceiling: catches pathological instrumentation
#: regressions without making CI flaky over measurement noise.
OVERHEAD_CEILING = 1.25

#: The smoke campaign: representative of the instrument catalog —
#: beta cycles, relational extraction, events, an injected bug.
SMOKE_SCENARIOS = (
    "vsm/default",
    "vsm/bug/no_bypass",
    "vsm/event/slot0",
)

ROUNDS = 3


def _run_campaign(names) -> "tuple[float, str]":
    """One cold campaign run; returns (wall seconds, verdict JSON).

    A full collection runs first: the previous campaign's dead managers
    otherwise bill their collection cost to whichever run happens to be
    executing when the collector fires — a ~15% position-dependent skew
    that dwarfs the effect being measured.
    """
    gc.collect()
    runner = CampaignRunner()
    started = time.perf_counter()
    report = runner.run(list(names))
    seconds = time.perf_counter() - started
    return seconds, report.verdict_json()


def measure_overhead(names=SMOKE_SCENARIOS, rounds=ROUNDS) -> dict:
    """Best-of-``rounds`` traced vs untraced wall clock on one campaign.

    Each round runs both modes, and the order *alternates* per round:
    within one process, later runs drift slower (heap growth, allocator
    and GC state), so a fixed untraced-then-traced order would charge
    that drift entirely to the traced side.  Tracing writes a real
    JSONL file — the measured cost includes event assembly and the
    end-of-campaign flush, not a no-op tracer.
    """
    telemetry.disable()
    untraced: list = []
    traced: list = []
    verdicts: set = set()
    span_counts: list = []

    def run_untraced() -> None:
        seconds, verdict = _run_campaign(names)
        untraced.append(seconds)
        verdicts.add(verdict)

    with tempfile.TemporaryDirectory() as tmp:
        for round_index in range(rounds):
            def run_traced() -> None:
                trace_path = pathlib.Path(tmp) / f"trace-{round_index}.jsonl"
                telemetry.enable(trace_path=trace_path)
                try:
                    seconds, verdict = _run_campaign(names)
                finally:
                    telemetry.disable()
                traced.append(seconds)
                verdicts.add(verdict)
                span_counts.append(len(trace_report.load_events(trace_path)))

            first, second = (
                (run_untraced, run_traced)
                if round_index % 2 == 0
                else (run_traced, run_untraced)
            )
            first()
            second()
    best_untraced = min(untraced)
    best_traced = min(traced)
    ratio = (best_traced / best_untraced) if best_untraced else 1.0
    return {
        "scenarios": list(names),
        "rounds": rounds,
        "untraced_seconds": [round(s, 4) for s in untraced],
        "traced_seconds": [round(s, 4) for s in traced],
        "best_untraced_seconds": round(best_untraced, 4),
        "best_traced_seconds": round(best_traced, 4),
        "overhead_ratio": round(ratio, 4),
        "overhead_target": OVERHEAD_TARGET,
        "overhead_ceiling": OVERHEAD_CEILING,
        # Honest record: did the measured ratio meet the issue's 5%
        # target on this host?  (The assert uses the ceiling.)
        "bar_met": ratio <= OVERHEAD_TARGET,
        "verdicts_identical": len(verdicts) == 1,
        "trace_spans_per_run": span_counts,
    }


def _write_json(payload: dict, path: pathlib.Path = JSON_PATH) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_artifacts(directory: pathlib.Path, names=SMOKE_SCENARIOS) -> None:
    """One traced smoke campaign; leaves trace.jsonl + registry.json.

    This is the CI artifact step: the trace file and registry snapshot
    a consumer would actually look at land in ``directory`` (the
    overhead measurement above uses throwaway temp traces), and the
    rendered profile goes to stdout so the CI log shows the tree.
    """
    directory.mkdir(parents=True, exist_ok=True)
    trace_path = directory / "trace.jsonl"
    telemetry.enable(trace_path=trace_path)
    try:
        report = CampaignRunner().run(list(names))
    finally:
        telemetry.disable()
    registry_path = directory / "registry.json"
    registry_path.write_text(
        json.dumps(report.telemetry["registry"], indent=2, sort_keys=True) + "\n"
    )
    print(trace_report.render_report(trace_report.load_events(trace_path)))
    print(f"artifacts: {trace_path} {registry_path}")


# ======================================================================
# Tiers
# ======================================================================
@pytest.mark.bench_smoke
def test_telemetry_overhead_smoke(benchmark, tmp_path):
    """Traced vs untraced smoke campaign; its record goes to ``tmp_path``
    (the committed BENCH_telemetry.json is the CLI's record)."""
    payload = benchmark.pedantic(measure_overhead, rounds=1, iterations=1)
    _write_json(payload, tmp_path / JSON_PATH.name)
    assert payload["verdicts_identical"], "tracing changed a verdict"
    assert payload["trace_spans_per_run"][0] > 0, "traced run recorded no spans"
    assert payload["overhead_ratio"] <= OVERHEAD_CEILING, payload
    record_paper_comparison(
        benchmark,
        experiment="telemetry overhead (smoke)",
        paper="instrumentation must not perturb the measured verification runs",
        measured=(
            f"traced/untraced ratio {payload['overhead_ratio']} "
            f"(target <= {OVERHEAD_TARGET}, met: {payload['bar_met']}; "
            f"ceiling {OVERHEAD_CEILING} asserted)"
        ),
    )


# ======================================================================
# CLI (CI artifact step)
# ======================================================================
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument(
        "--artifacts",
        type=pathlib.Path,
        default=None,
        help="also run one traced smoke campaign and write "
        "trace.jsonl + registry.json into this directory",
    )
    args = parser.parse_args()
    payload = measure_overhead(rounds=args.rounds)
    _write_json(payload)
    if args.artifacts is not None:
        emit_artifacts(args.artifacts)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not payload["verdicts_identical"]:
        print("FAIL: tracing changed a verdict")
        return 1
    if payload["overhead_ratio"] > OVERHEAD_CEILING:
        print(f"FAIL: overhead ratio {payload['overhead_ratio']} above ceiling")
        return 1
    if not payload["bar_met"]:
        print(
            f"NOTE: {OVERHEAD_TARGET} target missed on this host "
            f"(ratio {payload['overhead_ratio']}); recorded honestly."
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
