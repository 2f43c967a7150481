"""Engine integration of the beta backend choice.

A scenario names its beta backend and nothing else of the relational
subsystem.  Covers serialisation (old payloads, whose ``relational``
entry carried partitioning, reordering and kernel knobs, included),
the pooling key, validation, and the fingerprints the payload format
keeps stable.
"""

import pytest

from repro.core.architectures import VSMArchitecture
from repro.core.siminfo import SimulationInfo
from repro.core.verifier import verify_beta_relation
from repro.engine import CampaignRunner, Scenario
from repro.isa import vsm as vsm_isa
from repro.relational import BETA_COMPOSE
from repro.strings import CONTROL, NORMAL

#: Every key a ``relational`` payload has carried besides ``beta_backend``.
RETIRED_KEYS = {
    "partition": False,
    "max_cluster_size": 4,
    "cluster_node_limit": None,
    "reorder": "converge",
    "reorder_threshold": 0,
    "kernel_backend": None,
    "beta_product": "schedule",
}


def superscalar_program():
    return (vsm_isa.VSMInstruction("add", False, 1, 2, 3).encode(),)


class TestPolicyOnScenario:
    def test_round_trip_through_dict(self):
        scenario = Scenario(
            name="t/compose", slots=(NORMAL, CONTROL), beta_backend=BETA_COMPOSE
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.beta_backend == BETA_COMPOSE
        assert scenario.to_dict()["relational"] == {"beta_backend": BETA_COMPOSE}
        # Older payloads still carry the retired partitioning, kernel,
        # product and reordering knobs beside the backend.
        legacy = scenario.to_dict()
        legacy["relational"] = dict(legacy["relational"], **RETIRED_KEYS)
        assert Scenario.from_dict(legacy) == scenario

    def test_partition_knobs_share_the_order_signature(self):
        plain = Scenario(name="t/a", slots=(NORMAL,))
        legacy = dict(plain.to_dict(), relational=dict(RETIRED_KEYS))
        # Partitioning knobs never changed the variable order; they now
        # load away entirely.
        assert Scenario.from_dict(legacy).order_signature() == plain.order_signature()
        assert Scenario.from_dict(legacy) == plain

    def test_invalid_policy_values_rejected(self):
        with pytest.raises(ValueError, match="unknown beta backend"):
            Scenario(name="t/bad", slots=(NORMAL,), beta_backend="shuffle")
        with pytest.raises(ValueError, match="unknown beta backend"):
            Scenario.from_dict(
                {"name": "t/bad", "relational": {"beta_backend": "monolithic"}}
            )
        with pytest.raises(ValueError, match="unknown beta backend"):
            verify_beta_relation(
                VSMArchitecture(), SimulationInfo(slots=(NORMAL,)), beta_backend="shuffle"
            )

    def test_policy_rejected_on_superscalar_scenarios(self):
        with pytest.raises(ValueError, match="silently ignored"):
            Scenario(
                name="t/super",
                kind="superscalar",
                program=superscalar_program(),
                beta_backend=BETA_COMPOSE,
            )

    def test_backend_rejected_on_events_scenarios(self):
        """The events driver has one stimulus order; a compose backend on
        an events scenario would run the relational order anyway and be
        stored under a fingerprint of its own."""
        with pytest.raises(ValueError, match="silently ignored"):
            Scenario(
                name="t/events",
                kind="events",
                slots=(NORMAL, NORMAL),
                event_slots=(1,),
                beta_backend=BETA_COMPOSE,
            )
        with pytest.raises(ValueError, match="silently ignored"):
            Scenario.from_dict(
                {
                    "name": "t/events",
                    "kind": "events",
                    "slots": [NORMAL, NORMAL],
                    "event_slots": [1],
                    "relational": {"beta_backend": BETA_COMPOSE},
                }
            )


class TestFingerprintPins:
    """Fingerprints of default-backend scenarios are those the payload
    format produced when ``relational`` still carried a whole policy
    (salt ``""``); the golden and corpus records are keyed by them."""

    PINS = [
        (
            Scenario(name="x", slots=(NORMAL, CONTROL)),
            "8cbc5156b710bbefc39cdd583276335fd6ee6bc26a662cb7808654586428a72a",
        ),
        (
            Scenario(name="x", kind="events", slots=(NORMAL, NORMAL), event_slots=(1,)),
            "7bff2c64cdf62f7a7b756fa37e4e2715fcb9546c398d0d5f960176202e8bac43",
        ),
        (
            Scenario(name="x", design="alpha0", slots=(NORMAL,)),
            "a3af083561bdf983bcecf8c0990eb528d3bb15cce6d56864964836f348094366",
        ),
        (
            Scenario(name="x", kind="superscalar", program=superscalar_program()),
            "56f5f750bbe098cb45e5641a49966caa4c691bda8254ea92823c13ec6c1110a1",
        ),
        (
            Scenario(name="b", slots=(NORMAL,)),
            "ff0f0f4ec83652fc8666e2b1dd06e0ae50b0728aba507c675b00cd702beea656",
        ),
    ]

    @pytest.mark.parametrize(
        "scenario,expected",
        PINS,
        ids=["beta-vsm", "events", "alpha0", "superscalar", "beta-named-b"],
    )
    def test_fingerprint_pinned(self, scenario, expected):
        assert scenario.fingerprint("") == expected
        assert scenario.to_dict()["relational"] is None

    def test_legacy_payloads_load_onto_the_policy_free_fingerprint(self):
        for scenario, expected in self.PINS:
            if scenario.kind == "superscalar":
                continue  # superscalar payloads never carried a policy
            legacy = dict(
                scenario.to_dict(),
                relational=dict(RETIRED_KEYS, beta_backend="relational"),
            )
            assert Scenario.from_dict(legacy).fingerprint("") == expected

    def test_policy_trio_is_one_verdict(self):
        """The plain scenario and the payloads that carried the default
        and the monolithic policy are one job: one fingerprint, and one
        campaign computes it once."""
        policy = {
            "partition": True,
            "max_cluster_size": 8,
            "cluster_node_limit": 5000,
            "beta_backend": "relational",
        }
        payloads = [
            {"name": "b", "slots": [NORMAL], "relational": None},
            {"name": "b-default", "slots": [NORMAL], "relational": policy},
            {
                "name": "b-monolithic",
                "slots": [NORMAL],
                "relational": dict(policy, partition=False),
            },
        ]
        trio = [Scenario.from_dict(payload) for payload in payloads]
        assert {scenario.fingerprint("") for scenario in trio} == {
            "ff0f0f4ec83652fc8666e2b1dd06e0ae50b0728aba507c675b00cd702beea656"
        }
        report = CampaignRunner(memoize=True).run(trio)
        assert report.memo_hits == 2
        assert all(outcome.passed for outcome in report.outcomes)
