"""Golden counterexample regression suite.

Every injected bug of the bug-injection catalogue must keep producing a
counterexample that decodes to the *same* failing instruction sequence
as when the golden file was recorded (``tests/data/``).  This pins down
three things at once:

* the bug is still detected (the mismatch exists),
* counterexample extraction is deterministic (the minimal-witness walk
  in the compose path's declaration order, which the relational backend
  takes on its own manager with ``pick_assignment_in_order``),
* the decoding pipeline (witness assignment → instruction words →
  disassembly) is stable.

If an intentional change to stimulus construction or variable ordering
shifts the witnesses, regenerate the goldens by running this file as a
script: ``PYTHONPATH=src python tests/test_golden_counterexamples.py``.
"""

import json
import pathlib

import pytest

from repro.campaigns import load_corpus_records, witness_key
from repro.engine import Scenario, execute_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_counterexamples.json"


def load_goldens():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)["scenarios"]


GOLDENS = load_goldens()


@pytest.fixture(scope="module")
def outcomes():
    """Run every golden scenario once (fresh manager each, as recorded)."""
    results = {}
    for name, entry in GOLDENS.items():
        scenario = Scenario.from_dict(entry["scenario"])
        results[name] = execute_scenario(scenario)
    return results


def test_golden_file_covers_both_designs_and_events():
    names = set(GOLDENS)
    assert any(name.startswith("vsm/bug/") for name in names)
    assert any(name.startswith("alpha0/bug/") for name in names)
    assert any("event" in name for name in names)
    assert len(names) >= 10


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_bug_still_detected(name, outcomes):
    outcome = outcomes[name]
    assert not outcome.passed, f"{name}: injected bug escaped verification"
    assert outcome.mismatches


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_mismatch_count_is_stable(name, outcomes):
    assert len(outcomes[name].mismatches) == GOLDENS[name]["mismatch_count"]


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_counterexamples_decode_to_the_same_sequences(name, outcomes):
    golden_mismatches = GOLDENS[name]["first_mismatches"]
    fresh = outcomes[name].mismatches[: len(golden_mismatches)]
    for index, (expected, actual) in enumerate(zip(golden_mismatches, fresh)):
        context = f"{name} mismatch {index}"
        assert actual["observable"] == expected["observable"], context
        assert actual["sample_index"] == expected["sample_index"], context
        assert actual["specification_cycle"] == expected["specification_cycle"], context
        assert actual["implementation_cycle"] == expected["implementation_cycle"], context
        assert actual["decoded"] == expected["decoded"], context
        assert actual["words"] == {k: int(v) for k, v in expected["words"].items()}, context
        assert actual["counterexample"] == expected["counterexample"], context


def test_beta_goldens_exercise_the_relational_backend(outcomes):
    """The default (relational) beta backend reproduces every stored
    counterexample on its own manager: it refutes exactly the scenarios
    the compose path refutes and walks each witness in the compose
    path's variable order, with no classical re-run."""
    beta_outcomes = [o for o in outcomes.values() if o.kind == "beta"]
    assert beta_outcomes
    for outcome in beta_outcomes:
        assert outcome.backend == "relational", outcome.scenario


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_counterexample_words_match_their_disassembly(name):
    """Internal consistency of the stored goldens themselves."""
    for mismatch in GOLDENS[name]["first_mismatches"]:
        decoded = mismatch["decoded"]
        assert mismatch["words"].keys() <= decoded.keys()
        for label in mismatch["words"]:
            assert decoded[label], f"{name}: empty disassembly for {label}"


# ----------------------------------------------------------------------
# Fuzz-corpus replay: minimized witnesses are golden records too
# ----------------------------------------------------------------------
FUZZ_RECORDS = {
    record["fingerprint"]: record for record in load_corpus_records()
}


def _canonical(mismatches):
    return json.dumps(mismatches, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def fuzz_outcomes():
    """Replay every committed fuzz-corpus record once."""
    results = {}
    for fingerprint, record in FUZZ_RECORDS.items():
        scenario = Scenario.from_dict(record["scenario"])
        results[fingerprint] = (scenario, execute_scenario(scenario))
    return results


def test_fuzz_corpus_has_minimized_records():
    assert FUZZ_RECORDS, "tests/data/fuzz_corpus must hold witness records"
    for record in FUZZ_RECORDS.values():
        assert record["scenario"]["name"].startswith("fuzz/min/")


@pytest.mark.parametrize("fingerprint", sorted(FUZZ_RECORDS))
def test_fuzz_record_is_content_addressed(fingerprint):
    """The stored fingerprint is the scenario's own content address."""
    scenario = Scenario.from_dict(FUZZ_RECORDS[fingerprint]["scenario"])
    assert witness_key(scenario) == fingerprint
    assert scenario.name == f"fuzz/min/{fingerprint[:12]}"


@pytest.mark.parametrize("fingerprint", sorted(FUZZ_RECORDS))
def test_fuzz_record_still_refutes(fingerprint, fuzz_outcomes):
    """Replaying a minimized witness never flips its verdict."""
    scenario, outcome = fuzz_outcomes[fingerprint]
    assert not outcome.passed, f"{scenario.name}: minimized witness escaped"
    assert outcome.error is None
    assert outcome.mismatches


@pytest.mark.parametrize("fingerprint", sorted(FUZZ_RECORDS))
def test_fuzz_record_mismatches_are_stable(fingerprint, fuzz_outcomes):
    """Fresh replay reproduces the recorded mismatches byte for byte."""
    record = FUZZ_RECORDS[fingerprint]
    _, outcome = fuzz_outcomes[fingerprint]
    assert len(outcome.mismatches) == record["mismatch_count"]
    fresh = outcome.mismatches[: len(record["first_mismatches"])]
    assert _canonical(fresh) == _canonical(record["first_mismatches"])


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    """Re-record the golden file from the current engine behaviour."""
    payload = {"scenarios": {}}
    for name, entry in sorted(load_goldens().items()):
        scenario = Scenario.from_dict(entry["scenario"])
        outcome = execute_scenario(scenario)
        if outcome.passed:
            raise SystemExit(f"{name}: scenario no longer fails; goldens not updated")
        payload["scenarios"][name] = {
            "scenario": scenario.to_dict(),
            "mismatch_count": len(outcome.mismatches),
            "first_mismatches": outcome.mismatches[:3],
        }
        print(f"recorded {name}: {len(outcome.mismatches)} mismatch(es)")
    with GOLDEN_PATH.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
