"""The beta relations' variable order: control first, datapath interleaved.

Every beta relation declares its variables in one fixed order
(:func:`repro.relational.beta.relation_declares`): the input word, the
fetch-valid bit, the control fields in layout order, then the datapath
words bit-interleaved.  Every instruction word (the input word and the
instruction latches) is declared in its ISA's decode-first bit order.
Selectors (instruction words, register specifiers, valid bits) thus sit
above the words they select over.  These tests pin down that order for
all four symbolic models and for the stimulus, cap the relation sizes it
buys, and check that a snapshot recorded under any other order is
refused before the manager is touched.
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
from repro.core.siminfo import SimulationInfo
from repro.engine import CampaignRunner, Scenario
from repro.engine.executor import _compose_variable_order
from repro.processors import SymbolicAlpha0Options
from repro.relational.beta import (
    IMPL_PREFIX,
    SPEC_PREFIX,
    _deserialize_stepper_payload,
    _serialize_stepper_payload,
    _stepper_payload,
    beta_stimulus_order,
    extract_steppers,
    relation_declares,
)
from repro.strings import CONTROL, NORMAL

SMALL_ALPHA0 = Alpha0Architecture(
    options=SymbolicAlpha0Options(
        data_width=3, num_registers=4, memory_words=2,
        alu_subset=("and", "or", "cmpeq"),
    )
)
ARCHITECTURES = {"vsm": VSMArchitecture(), "alpha0": SMALL_ALPHA0}

#: The datapath word fields, wherever a model has them.
DATAPATH_FIELD = re.compile(r"reg\d+|mem\d+|id\.a|id\.b|ex\.value|wb\.value")

#: The instruction-word latches each model names.
INSTRUCTION_FIELDS = {
    ("vsm", SPEC_PREFIX): [],
    ("vsm", IMPL_PREFIX): ["if.word"],
    ("alpha0", SPEC_PREFIX): [],
    ("alpha0", IMPL_PREFIX): ["if.word", "id.word"],
}


def extract(architecture, manager=None):
    manager = manager if manager is not None else BDDManager()
    specification, implementation = architecture.make_models(manager)
    spec, impl = extract_steppers(
        manager, specification, implementation, architecture.instruction_bit_order
    )
    return manager, {SPEC_PREFIX: spec, IMPL_PREFIX: impl}


def declares_of(stepper):
    return relation_declares(
        stepper.prefix,
        stepper.input_names,
        stepper.fetch_valid_name,
        stepper.layout,
        stepper.datapath,
        stepper.instruction_fields,
        stepper.bit_order,
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
    architecture = ARCHITECTURES[design]
    _manager, steppers = extract(architecture)
    stepper = steppers[prefix]
    layout = stepper.layout
    assert stepper.datapath == [
        field for field, _width in layout if DATAPATH_FIELD.fullmatch(field)
    ]
    assert stepper.datapath, "every model holds datapath words"
    order = list(architecture.instruction_bit_order)
    assert stepper.bit_order == order
    assert stepper.instruction_fields == INSTRUCTION_FIELDS[(design, prefix)]

    declared = declares_of(stepper)
    head = len(stepper.input_names) + (stepper.fetch_valid_name is not None)
    # The input word in the ISA's decode-first order.
    assert stepper.input_names == [f"{prefix}in[{bit}]" for bit in range(len(order))]
    assert declared[:head] == [stepper.input_names[bit] for bit in order] + (
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
    # Control fields, in layout order, all above the datapath words;
    # instruction-word latches in the decode-first order.
    words = set(stepper.datapath)
    control = [key for key in bits if key[0] not in words]
    assert bits[: len(control)] == control
    assert control == [
        (field, bit)
        for field, width in layout
        if field not in words
        for bit in (order if field in stepper.instruction_fields else range(width))
    ]
    # Datapath bits interleaved from bit 0: bit 0 of every word, then bit 1, ...
    datapath = bits[len(control):]
    position = {field: index for index, field in enumerate(stepper.datapath)}
    assert datapath == sorted(datapath, key=lambda key: (key[1], position[key[0]]))
    assert datapath[: len(stepper.datapath)] == [(field, 0) for field in stepper.datapath]


def test_datapath_fields_must_be_distinct_layout_fields():
    layout = [("pc", 2), ("reg0", 2)]
    with pytest.raises(ValueError):
        relation_declares("p.", [], None, layout, ["reg0", "reg0"], [], [])
    with pytest.raises(ValueError):
        relation_declares("p.", [], None, layout, ["reg1"], [], [])


def test_bit_order_and_instruction_fields_are_checked():
    layout = [("word", 2), ("pc", 3), ("reg0", 2)]
    inputs = ["p.in[0]", "p.in[1]"]
    assert relation_declares("p.", inputs, None, layout, ["reg0"], ["word"], [1, 0]) == [
        "p.in[1]", "p.in[0]",
        "p.word[1]", "p.word[0]",
        "p.pc[0]", "p.pc[1]", "p.pc[2]",
        "p.reg0[0]", "p.reg0[1]",
    ]
    for bad_order in ([0], [0, 0], [1, 2]):
        with pytest.raises(ValueError):
            relation_declares("p.", inputs, None, layout, ["reg0"], [], bad_order)
    for bad_fields in (["pc"], ["reg0"], ["nope"]):
        with pytest.raises(ValueError):
            relation_declares("p.", inputs, None, layout, ["reg0"], bad_fields, [1, 0])


# ----------------------------------------------------------------------
# Relation sizes: a selector moved back below data fails here
# ----------------------------------------------------------------------
#: Shared node counts (the relation snapshot's ``nodes``), measured
#: under the decode-first instruction-bit order plus 10%.  Under the raw
#: layout order the impl relations were 14,104 (VSM) and 245,771
#: (Alpha0) nodes; under the control-first order with instruction words
#: in plain bit order, 2,233/2,956 (VSM), 17,720/56,433 (Alpha0) and
#: 227,935/637,254 (default-condensation Alpha0).
NODE_CEILINGS = {
    ("vsm", SPEC_PREFIX): 1763,  # measured 1,603
    ("vsm", IMPL_PREFIX): 3086,  # measured 2,806
    ("alpha0", SPEC_PREFIX): 3869,  # measured 3,518
    ("alpha0", IMPL_PREFIX): 20672,  # measured 18,793
    ("alpha0-default", SPEC_PREFIX): 48288,  # measured 43,899
    ("alpha0-default", IMPL_PREFIX): 287505,  # measured 261,369
}

SIZED_ARCHITECTURES = {
    "vsm": VSMArchitecture,
    "alpha0": lambda: Alpha0Architecture(options=FUZZ_ALPHA0_SPEC.options()),
    "alpha0-default": Alpha0Architecture,
}


@pytest.mark.parametrize("design", sorted(SIZED_ARCHITECTURES))
def test_relation_sizes_stay_under_their_ceilings(design):
    architecture = SIZED_ARCHITECTURES[design]()
    manager, steppers = extract(architecture, BDDManager())
    for prefix, stepper in steppers.items():
        blob = _serialize_stepper_payload(manager, _stepper_payload(stepper), prefix)
        assert blob["nodes"] <= NODE_CEILINGS[(design, prefix)], (prefix, blob["nodes"])


# ----------------------------------------------------------------------
# Snapshot validation: only the decode-first, control-first order is accepted
# ----------------------------------------------------------------------
def old_order_blobs(architecture, layout_order):
    """Relation blobs in a format written before the decode-first order.

    With ``layout_order``, variables declared in raw ``state_layout()``
    order and no ``datapath`` list (the format before the control-first
    order); otherwise the control-first order with every instruction word
    in plain bit order and no ``instruction_fields`` list.
    """
    manager = BDDManager()
    specification, implementation = architecture.make_models(manager)
    plain = range(architecture.instruction_width)
    declares = {}
    for prefix, model, with_fetch_valid in (
        (SPEC_PREFIX, specification, False),
        (IMPL_PREFIX, implementation, True),
    ):
        input_names = [f"{prefix}in[{bit}]" for bit in plain]
        fetch_valid = f"{prefix}fetch_valid" if with_fetch_valid else None
        datapath = [] if layout_order else model.datapath_fields()
        declares[prefix] = relation_declares(
            prefix, input_names, fetch_valid, model.state_layout(), datapath, [], plain
        )
        manager.declare_all(declares[prefix])
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
        if not layout_order:
            blob["datapath"] = stepper.datapath
        blobs[prefix] = json.loads(json.dumps(blob))
    return blobs


def current_blob(prefix=IMPL_PREFIX):
    manager, steppers = extract(VSMArchitecture())
    payload = _stepper_payload(steppers[prefix])
    return json.loads(json.dumps(_serialize_stepper_payload(manager, payload, prefix)))


def assert_refused(blob, prefix=IMPL_PREFIX):
    target = BDDManager()
    with pytest.raises(SnapshotError):
        _deserialize_stepper_payload(
            target, blob, prefix, VSMArchitecture.instruction_bit_order
        )
    assert target.variables == ()
    assert target.arena_shape() == BDDManager().arena_shape()


def test_current_blob_round_trips():
    target = BDDManager()
    payload = _deserialize_stepper_payload(
        target, current_blob(), IMPL_PREFIX, VSMArchitecture.instruction_bit_order
    )
    registers = [f"reg{index}" for index in range(8)]
    assert payload["datapath"] == registers + ["id.a", "id.b", "ex.value"]
    assert payload["instruction_fields"] == ["if.word"]


def test_reordered_datapath_list_is_refused():
    blob = current_blob()
    blob["datapath"] = blob["datapath"][::-1]
    assert_refused(blob)


def test_datapath_list_naming_a_non_layout_field_is_refused():
    blob = current_blob()
    blob["datapath"] = blob["datapath"] + ["wb.value"]
    assert_refused(blob)


def test_instruction_fields_disagreeing_with_the_declares_are_refused():
    blob = current_blob()
    blob["instruction_fields"] = []
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
    blob = old_order_blobs(VSMArchitecture(), layout_order=True)[prefix]
    assert_refused(blob, prefix)
    # Naming the datapath does not rescue it: its declares are layout order.
    _manager, steppers = extract(VSMArchitecture())
    blob["datapath"] = steppers[prefix].datapath
    blob["instruction_fields"] = steppers[prefix].instruction_fields
    assert_refused(blob, prefix)


@pytest.mark.parametrize("prefix", [SPEC_PREFIX, IMPL_PREFIX])
def test_plain_bit_order_blob_is_refused(prefix):
    blob = old_order_blobs(VSMArchitecture(), layout_order=False)[prefix]
    assert_refused(blob, prefix)
    # No bookkeeping rescues it: the bit order is the ISA's, not the blob's.
    for fields in ([], ["if.word"]):
        blob["instruction_fields"] = fields
        assert_refused(blob, prefix)


def assert_old_order_snapshots_fall_through_to_extraction(tmp_path, layout_order):
    store = tmp_path / "store"
    campaign = [
        Scenario(name="vsm/two", slots=(NORMAL, NORMAL)),
        Scenario(name="vsm/one", slots=(NORMAL,)),
    ]
    cold = CampaignRunner(store_path=store).run(campaign)
    old = old_order_blobs(VSMArchitecture(), layout_order)
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


def test_layout_order_snapshots_fall_through_to_extraction(tmp_path):
    assert_old_order_snapshots_fall_through_to_extraction(tmp_path, layout_order=True)


def test_plain_bit_order_snapshots_fall_through_to_extraction(tmp_path):
    assert_old_order_snapshots_fall_through_to_extraction(tmp_path, layout_order=False)


# ----------------------------------------------------------------------
# The stimulus: every word decode-first, the witness walk unchanged
# ----------------------------------------------------------------------
STIMULUS_CASES = [
    (VSMArchitecture(), (NORMAL, CONTROL, NORMAL)),
    (VSMArchitecture(), (CONTROL, CONTROL)),
    (SMALL_ALPHA0, (CONTROL, NORMAL)),
]


@pytest.mark.parametrize("architecture,slots", STIMULUS_CASES)
def test_stimulus_words_are_declared_decode_first(architecture, slots):
    order = architecture.instruction_bit_order
    siminfo = SimulationInfo(reset_cycles=1, slots=slots)
    extra = {1: ["squashed1.0", "squashed1.1"]}
    for extra_words in (None, extra):
        names = beta_stimulus_order(architecture, siminfo, extra_words)
        words = {}
        for name in names:
            label, bit = re.fullmatch(r"(.+)\[(\d+)\]", name).groups()
            words.setdefault(label, []).append(int(bit))
        expected = [f"instr{index}" for index in range(len(slots))]
        if extra_words is None:
            expected += [
                f"delay{index}.0" for index, kind in enumerate(slots) if kind == CONTROL
            ]
        else:
            expected += extra[1]
        assert sorted(words) == sorted(expected)
        assert all(bits == list(order) for bits in words.values())


@pytest.mark.parametrize("architecture,slots", STIMULUS_CASES)
def test_compose_order_stays_the_plain_build_order(architecture, slots):
    """Witnesses walk the stimulus in build order: every slot's free
    bits from bit 0, each control slot's delay words behind it."""
    siminfo = SimulationInfo(reset_cycles=1, slots=slots)
    expected = []
    for index, kind in enumerate(slots):
        cube = architecture.instruction_class_cube(kind)
        expected += [
            f"instr{index}[{bit}]"
            for bit in range(architecture.instruction_width)
            if bit not in cube
        ]
        if kind == CONTROL:
            expected += [
                f"delay{index}.0[{bit}]" for bit in range(architecture.instruction_width)
            ]
    assert _compose_variable_order(architecture, siminfo) == tuple(expected)
