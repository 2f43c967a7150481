"""The beta relations' variable order: control first, datapath interleaved.

Every beta relation declares its variables in one fixed order
(:func:`repro.relational.beta.relation_declares`): the input word, the
fetch-valid bit, the control fields in layout order, then the datapath
words bit-interleaved.  Selectors (instruction words, register
specifiers, valid bits) thus sit above the words they select over.
These tests pin down that order for all four symbolic models, cap the
relation sizes it buys, and check that a snapshot recorded under any
other order is refused before the manager is touched.
"""

import json
import re
import shutil
import zlib

import pytest

from repro.bdd import BDDManager
from repro.bdd.kernel import SnapshotError, pack_snapshot, unpack_snapshot
from repro.campaigns import FUZZ_ALPHA0_SPEC
from repro.core import Alpha0Architecture, VSMArchitecture
from repro.engine import CampaignRunner, Scenario
from repro.processors import SymbolicAlpha0Options
from repro.relational.beta import (
    IMPL_PREFIX,
    SPEC_PREFIX,
    _deserialize_stepper_payload,
    _serialize_stepper_payload,
    _stepper_payload,
    extract_steppers,
    relation_declares,
)
from repro.strings import NORMAL

SMALL_ALPHA0 = Alpha0Architecture(
    options=SymbolicAlpha0Options(
        data_width=3, num_registers=4, memory_words=2,
        alu_subset=("and", "or", "cmpeq"),
    )
)
ARCHITECTURES = {"vsm": VSMArchitecture(), "alpha0": SMALL_ALPHA0}

#: The datapath word fields, wherever a model has them.
DATAPATH_FIELD = re.compile(r"reg\d+|mem\d+|id\.a|id\.b|ex\.value|wb\.value")


def extract(architecture, manager=None):
    manager = manager if manager is not None else BDDManager()
    specification, implementation = architecture.make_models(manager)
    spec, impl = extract_steppers(
        manager, specification, implementation, architecture.instruction_width
    )
    return manager, {SPEC_PREFIX: spec, IMPL_PREFIX: impl}


def declares_of(stepper):
    return relation_declares(
        stepper.prefix,
        stepper.input_names,
        stepper.fetch_valid_name,
        stepper.layout,
        stepper.datapath,
    )


# ----------------------------------------------------------------------
# One declaration order, for all four models
# ----------------------------------------------------------------------
@pytest.mark.parametrize("design", sorted(ARCHITECTURES))
def test_extract_declares_exactly_the_replayed_sequence(design):
    manager, steppers = extract(ARCHITECTURES[design])
    expected = declares_of(steppers[SPEC_PREFIX]) + declares_of(steppers[IMPL_PREFIX])
    assert manager.variables == tuple(expected)


@pytest.mark.parametrize("prefix", [SPEC_PREFIX, IMPL_PREFIX])
@pytest.mark.parametrize("design", sorted(ARCHITECTURES))
def test_control_fields_first_datapath_bits_interleaved(design, prefix):
    _manager, steppers = extract(ARCHITECTURES[design])
    stepper = steppers[prefix]
    layout = stepper.layout
    assert stepper.datapath == [
        field for field, _width in layout if DATAPATH_FIELD.fullmatch(field)
    ]
    assert stepper.datapath, "every model holds datapath words"

    declared = declares_of(stepper)
    head = len(stepper.input_names) + (stepper.fetch_valid_name is not None)
    assert declared[:head] == stepper.input_names + (
        [stepper.fetch_valid_name] if stepper.fetch_valid_name else []
    )
    bits = []
    for name in declared[head:]:
        match = re.fullmatch(re.escape(prefix) + r"(.+)\[(\d+)\]", name)
        assert match, name
        bits.append((match.group(1), int(match.group(2))))
    # Every layout bit is declared exactly once.
    assert sorted(bits) == sorted(
        (field, bit) for field, width in layout for bit in range(width)
    )
    # Control fields, in layout order, all above the datapath words.
    words = set(stepper.datapath)
    control = [key for key in bits if key[0] not in words]
    assert bits[: len(control)] == control
    assert control == [
        (field, bit) for field, width in layout if field not in words for bit in range(width)
    ]
    # Datapath bits interleaved from bit 0: bit 0 of every word, then bit 1, ...
    datapath = bits[len(control):]
    position = {field: index for index, field in enumerate(stepper.datapath)}
    assert datapath == sorted(datapath, key=lambda key: (key[1], position[key[0]]))
    assert datapath[: len(stepper.datapath)] == [(field, 0) for field in stepper.datapath]


def test_datapath_fields_must_be_distinct_layout_fields():
    layout = [("pc", 2), ("reg0", 2)]
    with pytest.raises(ValueError):
        relation_declares("p.", [], None, layout, ["reg0", "reg0"])
    with pytest.raises(ValueError):
        relation_declares("p.", [], None, layout, ["reg1"])


# ----------------------------------------------------------------------
# Relation sizes: a selector moved back below data fails here
# ----------------------------------------------------------------------
#: Shared node counts (the relation snapshot's ``nodes``), measured
#: under the control-first order plus 10%.  Under the raw layout order
#: the impl relations were 14,104 (VSM) and 245,771 (Alpha0) nodes.
NODE_CEILINGS = {
    ("vsm", SPEC_PREFIX): 2456,  # measured 2,233
    ("vsm", IMPL_PREFIX): 3251,  # measured 2,956
    ("alpha0", SPEC_PREFIX): 19492,  # measured 17,720
    ("alpha0", IMPL_PREFIX): 62076,  # measured 56,433
}


@pytest.mark.parametrize("design", ["vsm", "alpha0"])
def test_relation_sizes_stay_under_their_ceilings(design):
    architecture = (
        VSMArchitecture()
        if design == "vsm"
        else Alpha0Architecture(options=FUZZ_ALPHA0_SPEC.options())
    )
    manager, steppers = extract(architecture, BDDManager())
    for prefix, stepper in steppers.items():
        blob = _serialize_stepper_payload(manager, _stepper_payload(stepper), prefix)
        assert blob["nodes"] <= NODE_CEILINGS[(design, prefix)], (prefix, blob["nodes"])


# ----------------------------------------------------------------------
# Snapshot validation: only the control-first order is accepted
# ----------------------------------------------------------------------
def layout_order_blobs(architecture):
    """Relation blobs in the format written before the control-first order.

    Variables declared in raw ``state_layout()`` order, and no
    ``datapath`` list in the blob.
    """
    manager = BDDManager()
    specification, implementation = architecture.make_models(manager)
    declares = {}
    for prefix, model, with_fetch_valid in (
        (SPEC_PREFIX, specification, False),
        (IMPL_PREFIX, implementation, True),
    ):
        names = [f"{prefix}in[{bit}]" for bit in range(architecture.instruction_width)]
        if with_fetch_valid:
            names.append(f"{prefix}fetch_valid")
        names += [
            f"{prefix}{field}[{bit}]"
            for field, width in model.state_layout()
            for bit in range(width)
        ]
        declares[prefix] = names
        manager.declare_all(names)
    # Extraction only re-declares names the manager already holds.
    _manager, steppers = extract(architecture, manager)
    blobs = {}
    for prefix, stepper in steppers.items():
        keys = [(field, bit) for field, width in stepper.layout for bit in range(width)]
        arena = manager.snapshot(
            [stepper.next_functions[key] for key in keys], declares=declares[prefix]
        )
        blob = {
            "kind": "beta-relation",
            "prefix": prefix,
            "nodes": len(arena["levels"]),
            "layout": [[field, width] for field, width in stepper.layout],
            "input_names": stepper.input_names,
            "fetch_valid_name": stepper.fetch_valid_name,
            "arena": pack_snapshot(arena),
        }
        blobs[prefix] = json.loads(json.dumps(blob))
    return blobs


def current_blob(prefix=IMPL_PREFIX):
    manager, steppers = extract(VSMArchitecture())
    payload = _stepper_payload(steppers[prefix])
    return json.loads(json.dumps(_serialize_stepper_payload(manager, payload, prefix)))


def assert_refused(blob, prefix=IMPL_PREFIX):
    target = BDDManager()
    with pytest.raises(SnapshotError):
        _deserialize_stepper_payload(target, blob, prefix)
    assert target.variables == ()
    assert target.arena_shape() == BDDManager().arena_shape()


def test_current_blob_round_trips():
    target = BDDManager()
    payload = _deserialize_stepper_payload(target, current_blob(), IMPL_PREFIX)
    registers = [f"reg{index}" for index in range(8)]
    assert payload["datapath"] == registers + ["id.a", "id.b", "ex.value"]


def test_reordered_datapath_list_is_refused():
    blob = current_blob()
    blob["datapath"] = blob["datapath"][::-1]
    assert_refused(blob)


def test_datapath_list_naming_a_non_layout_field_is_refused():
    blob = current_blob()
    blob["datapath"] = blob["datapath"] + ["wb.value"]
    assert_refused(blob)


def test_declares_disagreeing_with_the_layout_are_refused():
    blob = current_blob()
    arena = unpack_snapshot(blob["arena"])
    declares = arena["declares"]
    declares[-1], declares[-2] = declares[-2], declares[-1]
    blob["arena"] = pack_snapshot(arena)
    assert_refused(blob)


@pytest.mark.parametrize("prefix", [SPEC_PREFIX, IMPL_PREFIX])
def test_layout_order_blob_is_refused(prefix):
    blob = layout_order_blobs(VSMArchitecture())[prefix]
    assert_refused(blob, prefix)
    # Naming the datapath does not rescue it: its declares are layout order.
    _manager, steppers = extract(VSMArchitecture())
    blob["datapath"] = steppers[prefix].datapath
    assert_refused(blob, prefix)


def test_layout_order_snapshots_fall_through_to_extraction(tmp_path):
    store = tmp_path / "store"
    campaign = [
        Scenario(name="vsm/two", slots=(NORMAL, NORMAL)),
        Scenario(name="vsm/one", slots=(NORMAL,)),
    ]
    cold = CampaignRunner(store_path=store).run(campaign)
    old = layout_order_blobs(VSMArchitecture())
    paths = sorted((store / "snapshots").rglob("*.json.z"))
    assert len(paths) == 2
    for path in paths:
        envelope = json.loads(zlib.decompress(path.read_bytes()))
        envelope["payload"] = old[envelope["payload"]["prefix"]]
        path.write_bytes(zlib.compress(json.dumps(envelope).encode()))
    shutil.rmtree(store / "results")
    rehydrated = CampaignRunner(store_path=store).run(campaign)
    assert rehydrated.verdict_json() == cold.verdict_json()
    first = rehydrated.outcome("vsm/two")
    assert (first.extraction_cache["spec"], first.extraction_cache["impl"]) == (
        "miss",
        "miss",
    )
