"""Correctness gate: recorded verdict digests, ground truth, workload validity.

Every rep is checked three ways:

* **ground truth** -- every prove scenario passes; a bug hunt's verdicts
  match the generator's planted expectations
  (``FuzzCampaignResult.ok``) and every planted class is detected;
* **digests** -- the SHA-256 of each scenario's verdict, of the whole
  ``verdict_json()`` and, for the bug hunt, of the sorted witness
  fingerprints equal the digests recorded for ``(scale, workload,
  seed)`` in ``digests.json`` (when recorded) and those of the run's
  first rep, so traced and untraced reps must agree byte for byte;
* **validity** -- the workload still exercises the layer it exists for.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

FALLBACK_BACKEND = "relational+fallback"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def witness_fingerprints(fuzz) -> List[str]:
    """Sorted fingerprints of a bug hunt's deduplicated, minimized witnesses."""
    return sorted(
        [entry["fingerprint"] for entry in fuzz.duplicates]
        + [record["fingerprint"] for record in fuzz.new_records]
    )


def digests(rep) -> Dict[str, object]:
    """The digests a rep is checked by (and recorded as)."""
    entry: Dict[str, object] = {
        "verdicts": _sha256(rep.report.verdict_json()),
        "scenarios": [
            _sha256(json.dumps(outcome.verdict(), sort_keys=True))[:16]
            for outcome in rep.report.outcomes
        ],
    }
    if rep.fuzz is not None:
        entry["witnesses"] = _sha256("\n".join(witness_fingerprints(rep.fuzz)))
    return entry


def load_table(path: Path) -> Dict[str, object]:
    """A digest table (``{scale: {workload: {seed: entry}}}``), empty if absent."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def recorded(
    table: Dict[str, object], scale: str, workload: str, seed: int
) -> Optional[Dict[str, object]]:
    """The recorded digests of ``(scale, workload, seed)``, if any."""
    return table.get(scale, {}).get(workload, {}).get(str(seed))


def record(path: Path, scale: str, workload: str, seed: int, entry: Dict[str, object]) -> None:
    """Merge one run's digests into the table at ``path``."""
    table = load_table(path)
    table.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = entry
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def units(rep) -> int:
    """Checked units of a rep: its scenarios, plus a bug hunt's witness set."""
    return len(rep.scenarios) + (1 if rep.fuzz is not None else 0)


def check(rep, references: Sequence[Tuple[str, Dict[str, object]]]) -> Tuple[int, List[str]]:
    """Failed units of one rep against ground truth and ``references``.

    ``references`` are ``(label, digests)`` pairs; a scenario whose
    verdict digest differs from any of them fails, and so does the
    witness set when its digest differs.
    """
    outcomes = rep.report.outcomes
    if len(outcomes) != len(rep.scenarios):
        return units(rep), [f"{len(outcomes)} outcomes for {len(rep.scenarios)} scenarios"]
    failed: Set[int] = set()
    problems: List[str] = []
    for index, outcome in enumerate(outcomes):
        if outcome.error is not None:
            failed.add(index)
            problems.append(f"{outcome.scenario}: error {outcome.error}")
    if rep.fuzz is None:
        for index, outcome in enumerate(outcomes):
            if not outcome.passed and outcome.error is None:
                failed.add(index)
                problems.append(f"{outcome.scenario}: refuted a correct design")
    else:
        index_of = {scenario.name: index for index, scenario in enumerate(rep.scenarios)}
        for violation in rep.fuzz.ground_truth_violations:
            failed.add(index_of.get(violation["scenario"], len(outcomes)))
            problems.append(
                f"{violation['scenario']}: expected {violation['expected']}, "
                f"got {violation['got']}"
            )
        missed = sorted(name for name, found in rep.fuzz.planted_detected.items() if not found)
        if missed:
            problems.append(f"planted classes not detected: {missed}")
    witnesses_failed = False
    mine = digests(rep)
    for label, reference in references:
        theirs = reference["scenarios"]
        if len(theirs) != len(mine["scenarios"]):
            failed.update(range(len(outcomes)))
        else:
            failed.update(
                index
                for index, (got, want) in enumerate(zip(mine["scenarios"], theirs))
                if got != want
            )
        if mine["verdicts"] != reference["verdicts"]:
            problems.append(f"verdict digest differs from the {label} one")
        if reference.get("witnesses") is not None and mine.get("witnesses") != reference["witnesses"]:
            witnesses_failed = True
            problems.append(f"witness fingerprints differ from the {label} ones")
    return min(len(failed), len(outcomes)) + int(witnesses_failed), problems


def validity(workload: str, rep) -> Tuple[List[str], List[str]]:
    """``(violations, warnings)``: has the workload stopped exercising its layer?

    A violation fails the run.  The bug hunt's missing-fallback check
    is only a warning: removing the relational-to-compose fallback is a
    planned change, after which no refutation takes it.
    """
    outcomes = rep.report.outcomes
    violations: List[str] = []
    warnings: List[str] = []
    fallbacks = sum(outcome.backend == FALLBACK_BACKEND for outcome in outcomes)
    if workload in ("prove-cold", "prove-rehydrate"):
        if fallbacks:
            violations.append(f"{fallbacks} prove scenario(s) took the compose fallback")
        distinct = {scenario.cache_key() for scenario in rep.scenarios}
        if len(distinct) != len(rep.scenarios) or any(o.memoized for o in outcomes):
            violations.append("the prove list holds content-duplicate scenarios")
    if workload == "prove-rehydrate":
        extracted = sum(
            outcome.extraction_cache.get(role) == "miss"
            for outcome in outcomes
            for role in ("spec", "impl")
        )
        if extracted:
            violations.append(f"{extracted} relation(s) extracted instead of restored")
        store = rep.report.store or {}
        if not store.get("snapshots", {}).get("hits"):
            violations.append("no relation snapshot was restored")
        misses = store.get("results", {}).get("misses")
        if misses != len(rep.scenarios):
            violations.append(f"{misses} result misses for {len(rep.scenarios)} scenarios")
    if workload == "bug-hunt":
        if not rep.fuzz.minimization.get("runs"):
            violations.append("the witness minimizer never ran")
        if not fallbacks:
            warnings.append("no refutation took the relational-to-compose fallback")
    return violations, warnings
