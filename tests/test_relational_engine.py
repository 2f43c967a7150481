"""Engine integration of the relational subsystem.

Covers the scenario-level policy knob: serialisation (old payloads
included), memoisation and pooling keys, and the invariant that the
partitioning knobs leave campaign verdicts byte-identical.
"""

import pytest

from repro.engine import CampaignRunner, RelationalPolicy, Scenario
from repro.relational.policy import MONOLITHIC_POLICY
from repro.strings import CONTROL, NORMAL


class TestPolicyOnScenario:
    def test_round_trip_through_dict(self):
        scenario = Scenario(
            name="t/policy",
            slots=(NORMAL, CONTROL),
            relational=RelationalPolicy(partition=False, max_cluster_size=4),
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert rebuilt.relational.partition is False
        assert rebuilt.relational.max_cluster_size == 4
        # Older payloads still carry the retired kernel-backend,
        # beta-product and reordering knobs.
        legacy = scenario.to_dict()
        legacy["relational"] = dict(legacy["relational"], kernel_backend=None)
        assert Scenario.from_dict(legacy) == scenario
        legacy["relational"] = dict(legacy["relational"], beta_product="schedule")
        assert Scenario.from_dict(legacy) == scenario
        legacy["relational"] = dict(
            legacy["relational"], reorder="converge", reorder_threshold=0
        )
        assert Scenario.from_dict(legacy) == scenario

    def test_dict_payload_accepted_directly(self):
        scenario = Scenario(
            name="t/policy-dict",
            slots=(NORMAL,),
            relational={"max_cluster_size": 5},
        )
        assert isinstance(scenario.relational, RelationalPolicy)
        assert scenario.relational.max_cluster_size == 5

    def test_policy_joins_cache_key(self):
        plain = Scenario(name="t/a", slots=(NORMAL,))
        tuned = Scenario(name="t/a", slots=(NORMAL,), relational=MONOLITHIC_POLICY)
        assert plain.cache_key() != tuned.cache_key()

    def test_partition_knobs_share_the_order_signature(self):
        plain = Scenario(name="t/a", slots=(NORMAL,))
        partition_only = Scenario(
            name="t/b", slots=(NORMAL,), relational=RelationalPolicy()
        )
        # Partitioning knobs never change the variable order -> shared pool.
        assert plain.order_signature() == partition_only.order_signature()

    def test_invalid_policy_values_rejected(self):
        with pytest.raises(ValueError):
            RelationalPolicy(beta_backend="shuffle")
        with pytest.raises(ValueError):
            RelationalPolicy(max_cluster_size=0)
        with pytest.raises(TypeError):
            Scenario(name="t/bad", slots=(NORMAL,), relational="monolithic")

    def test_policy_rejected_on_superscalar_scenarios(self):
        from repro.isa import vsm as vsm_isa

        program = (vsm_isa.VSMInstruction("add", False, 1, 2, 3).encode(),)
        with pytest.raises(ValueError):
            Scenario(
                name="t/super",
                kind="superscalar",
                program=program,
                relational=RelationalPolicy(),
            )

    def test_partition_policy_verdict_byte_identical(self):
        def verdicts(relational):
            scenario = Scenario(
                name="t/late-branch", slots=(NORMAL, CONTROL), relational=relational
            )
            return CampaignRunner().run([scenario]).verdict_json()

        reference = verdicts(None)
        assert verdicts(RelationalPolicy()) == reference
        assert verdicts(MONOLITHIC_POLICY) == reference
