"""ROADMAP perf target — the relational beta backend vs the compose path.

After PR 2 the functional (compose-based) beta path was the last slow
hot path: ~100 s per k=4 late-branch window while the relational image
engine did the same window's reachability in ~1.1 s.  This benchmark
measures the relational beta backend of PR 3 —
:mod:`repro.relational.beta`: per-bit beta-correspondence relations via
the state-injection protocol, cofactor-specialised relational products,
annulment guards and the selector-above-data stimulus order — against
the compose baseline on exactly that window, and pins the contract that
verdicts are byte-identical either way.

The acceptance bar is a >= 10x wall-clock improvement on the k=4
late-branch window; the measured gap on the development box is ~70x
(the compose side alone costs minutes, which is why the k=4 comparison
lives in the full tier and the smoke tier pins byte-identity at k=2).
"""

import time

import pytest

from repro.engine import CampaignRunner, Scenario
from repro.relational import BETA_COMPOSE, BETA_RELATIONAL
from repro.strings import CONTROL, NORMAL

from _bench_utils import record_paper_comparison

#: The ROADMAP bottleneck: branch in the last slot of the k=4 window.
LATE_BRANCH_K4 = (NORMAL, NORMAL, NORMAL, CONTROL)
#: Smoke-tier window: same shape, sub-second on both backends.
LATE_BRANCH_K2 = (NORMAL, CONTROL)


def run_backend(slots, beta_backend=BETA_RELATIONAL, bug=None):
    """One scenario through a fresh runner; returns (report, seconds)."""
    scenario = Scenario(
        name="beta-backend", slots=slots, bug=bug, beta_backend=beta_backend
    )
    runner = CampaignRunner()
    started = time.perf_counter()
    report = runner.run([scenario])
    return report, time.perf_counter() - started


def test_k4_late_branch_relational_vs_compose(benchmark):
    """The acceptance comparison: >= 10x on the k=4 late-branch window."""

    def relational_run():
        return run_backend(LATE_BRANCH_K4)

    relational_report, relational_seconds = benchmark.pedantic(
        relational_run, rounds=1, iterations=1
    )
    compose_report, compose_seconds = run_backend(LATE_BRANCH_K4, BETA_COMPOSE)

    assert relational_report.passed and compose_report.passed
    assert relational_report.verdict_json() == compose_report.verdict_json()
    assert relational_report.outcomes[0].backend == "relational"
    assert compose_report.outcomes[0].backend == "compose"
    speedup = compose_seconds / max(relational_seconds, 1e-9)
    assert speedup >= 10, (
        f"relational beta only {speedup:.1f}x faster "
        f"({relational_seconds:.1f}s vs {compose_seconds:.1f}s)"
    )
    record_paper_comparison(
        benchmark,
        experiment="k=4 late-branch beta window, relational vs compose backend",
        paper="the beta check is the paper's core result (Figure 8, Section 5.3)",
        measured=(
            f"relational {relational_seconds:.2f}s vs compose "
            f"{compose_seconds:.2f}s ({speedup:.0f}x), verdict JSON byte-identical"
        ),
    )


def test_refuting_window_byte_identical(benchmark):
    """A refuting k=2 window under each backend: records byte-identical.

    (The bug workloads are short by design — the exercise here is the
    relational backend deriving compose-order witnesses on its own
    manager, with no classical re-run.)
    """

    def both():
        relational_report, _ = run_backend((CONTROL, NORMAL), bug="no_annul")
        compose_report, _ = run_backend((CONTROL, NORMAL), BETA_COMPOSE, bug="no_annul")
        return relational_report, compose_report

    relational_report, compose_report = benchmark.pedantic(both, rounds=1, iterations=1)
    assert not relational_report.passed and not compose_report.passed
    assert relational_report.verdict_json() == compose_report.verdict_json()
    assert relational_report.outcomes[0].backend == "relational"
    record_paper_comparison(
        benchmark,
        experiment="refuting window under both beta backends",
        paper="counterexamples decode to concrete failing sequences",
        measured="mismatch records byte-identical, witnesses walked in compose order",
    )


# ----------------------------------------------------------------------
# Smoke tier
# ----------------------------------------------------------------------
@pytest.mark.bench_smoke
def test_smoke_backends_byte_identical_pass_and_fail():
    """Fast tier: k=2 late-branch verdicts byte-identical across backends."""
    relational_report, relational_seconds = run_backend(LATE_BRANCH_K2)
    compose_report, compose_seconds = run_backend(LATE_BRANCH_K2, BETA_COMPOSE)
    assert relational_report.passed
    assert relational_report.verdict_json() == compose_report.verdict_json()

    failing_rel, _ = run_backend((NORMAL,), bug="and_becomes_or")
    failing_comp, _ = run_backend((NORMAL,), BETA_COMPOSE, bug="and_becomes_or")
    assert not failing_rel.passed
    assert failing_rel.verdict_json() == failing_comp.verdict_json()


@pytest.mark.bench_smoke
def test_smoke_relational_backend_is_not_slower():
    """Fast tier: the default backend must not regress the k=2 window."""
    relational_report, relational_seconds = run_backend(LATE_BRANCH_K2)
    compose_report, compose_seconds = run_backend(LATE_BRANCH_K2, BETA_COMPOSE)
    assert relational_report.passed and compose_report.passed
    # Both are sub-second; guard only against gross regression (the k=4
    # 10x acceptance assertion lives in the full tier above).
    assert relational_seconds < max(4 * compose_seconds, 2.0)
