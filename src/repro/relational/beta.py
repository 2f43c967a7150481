"""Relational formulation of the beta-relation check (paper Figure 8).

The classical beta path advances both machines by *functional
simulation*: every cycle re-evaluates the whole datapath — decode
muxes, register-file read ports, the ALU's carry chains — as BitVec
operations over formulae that grow with the instruction window.  Two
structural facts make that the dominant cost of the reproduction:

* **Dead cones are evaluated eagerly.**  A control-transfer slot fixed
  by its instruction-class cube makes the branch decision a constant,
  and the annulled delay-slot instruction's validity bit a constant 0 —
  yet the functional simulator still builds the annulled instruction's
  operand reads and ALU results (at k=4 late-branch, ~95% of the whole
  run) before a mux discards them.
* **Selector-below-data ordering.**  Declaring stimulus variables in
  slot order puts a late slot's register-selector bits *below* the
  register formulae (functions of the earlier slots) they select over,
  which is the textbook exponential mux order.

This module replaces that path with per-bit **beta-correspondence
relations**: each machine is driven once, via the PR-2 state-injection
protocol (``state_layout`` / ``state_formulae`` / ``load_state``), from
a fully symbolic state over dedicated relation variables, yielding the
canonical per-bit next-state function of every latch.  A verification
cycle is then the relational product

    next_i(v)  =  exists pi, ps . F_i(pi, ps)
                  AND  (pi == stimulus(v))  AND  (ps == state(v))

whose bindings split by shape: constant bindings (class-cube bits,
drained inputs, annulment-killed validity bits) act as *cofactors* —
the paper's own "cofactor the transition relation with respect to the
inputs" step — and the surviving function bindings as simultaneous
composition (the compose normal form of the product).  Both happen in
one walk per machine per cycle (:meth:`BDDManager.compose_all`): a node
whose variable is bound to a constant descends only into the selected
child, so dead cones are never visited, and one memo is shared by all
next-state bits, so a cone common to many bits is substituted once.
Latch fields gated by a constant-0 validity guard (:meth:`state_guards`)
are not computed at all: canonicity guarantees the observables cannot
depend on them.  Neither extraction nor the advance takes an option: a
relation is a pure function of the model it was extracted from.

The relation variables follow the same selector-above-data rule, in one
fixed order (:func:`relation_declares`): the input word, the
fetch-valid bit, the *control* fields of ``state_layout()`` in layout
order (instruction words, register specifiers, opcodes, program
counters, valid bits), and last the *datapath* words
(``datapath_fields()``: register and memory banks, operand and result
latches) bit-interleaved — bit 0 of every word, then bit 1, and so on.
The control fields select among the words (register-file read ports,
bypass and writeback muxes), so with the banks above them, as raw
layout order puts them, every select path carries its own copy of the
word cones.  On the VSM and ``FUZZ_ALPHA0_SPEC`` relations this order
takes the four relations from 280,032 to 79,342 shared nodes.  Putting
the control fields first does nearly all of it (79,697 nodes with the
words left whole, not interleaved); interleaved words kept *above* the
control fields grow the VSM implementation relation from 2,956 to 8,235
nodes, and its Alpha0 extraction did not complete in five minutes.  The
order changes no verdict: relation functions are canonical, relation
variables are composed away every cycle, and the whole relation block
still sits above the stimulus block.

Because every observable the backend produces is the canonical ROBDD of
the same Boolean function the functional path builds, the sampled
observations — and therefore the pass/fail verdict — are *node
identical* on a shared manager and byte-identical across backends.
Counterexample witness don't-cares, however, follow the variable
order: the backend declares its own (selector-above-data) stimulus
order, and on a mismatch the executor walks each witness in the compose
path's declaration order instead, reproducing the compose backend's
records exactly.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..bdd import BDDManager, BDDNode
from ..bdd.kernel import SnapshotError, pack_snapshot
from ..logic import BitVec
from ..strings import CONTROL
from .. import telemetry

#: Beta-relation verification backends.  ``relational`` drives both
#: machines through per-bit transition relations extracted via the
#: state-injection protocol; ``compose`` is the classical
#: functional-simulation path, kept as the differential reference.
BETA_RELATIONAL = "relational"
BETA_COMPOSE = "compose"
BETA_BACKENDS = (BETA_RELATIONAL, BETA_COMPOSE)

#: Relation-variable prefixes (one family per machine role).
SPEC_PREFIX = "beta.s."
IMPL_PREFIX = "beta.i."

#: The state-injection protocol the backend needs from a symbolic model.
PROTOCOL_METHODS = (
    "state_layout",
    "state_formulae",
    "load_state",
    "observable_fields",
    "state_guards",
    "datapath_fields",
)


def supports_state_injection(model) -> bool:
    """Whether ``model`` exposes the full beta-extraction protocol."""
    return all(callable(getattr(model, name, None)) for name in PROTOCOL_METHODS)


def relation_declares(
    prefix: str,
    input_names: Sequence[str],
    fetch_valid_name: Optional[str],
    layout: Sequence[Tuple[str, int]],
    datapath: Sequence[str],
) -> List[str]:
    """The declaration sequence of one beta relation's variables.

    The input word, then the fetch-valid bit, then the control fields of
    ``layout`` in layout order, then the ``datapath`` word fields
    bit-interleaved: bit 0 of every datapath field, then bit 1, and so
    on.  :meth:`MachineStepper.extract` declares exactly this sequence,
    and a snapshot restore replays it.  Raises :class:`ValueError` when
    ``datapath`` is not a list of distinct ``layout`` fields.
    """
    widths = dict(layout)
    words = set(datapath)
    if len(words) != len(datapath) or not words <= set(widths):
        raise ValueError(
            f"datapath fields {list(datapath)!r} are not distinct layout fields"
        )
    names = list(input_names)
    if fetch_valid_name is not None:
        names.append(fetch_valid_name)
    for field, width in layout:
        if field not in words:
            names.extend(f"{prefix}{field}[{bit}]" for bit in range(width))
    for bit in range(max((widths[field] for field in datapath), default=0)):
        names.extend(
            f"{prefix}{field}[{bit}]" for field in datapath if bit < widths[field]
        )
    return names


def beta_stimulus_order(
    architecture, siminfo, extra_words: Optional[Mapping[int, Sequence[str]]] = None
) -> List[str]:
    """Selector-above-data stimulus variable order for the symbolic checks.

    Later slots' instruction bits act as selectors (register addresses,
    opcodes) over datapath formulae built from the *earlier* slots, so
    they are declared first — the reverse of the classical slot-major
    order — with the fully symbolic words fed behind each slot directly
    above it.  ``extra_words`` maps a slot index to those words' labels:
    each control slot's delay words ``delay{i}.{j}`` by default, the
    squashed fetches behind control and event slots for
    :func:`~repro.engine.executor.run_events`.  On the k=4 late-branch
    window this order alone shrinks the functional construction by an
    order of magnitude, and on 4-slot interrupt storms by 40x.
    (Initial-state variables stay below all instruction variables,
    exactly as on the classical path.)  The beta relation variables sit
    *above* this whole block: the executor acquires the relations first,
    so they keep the same levels and handles on every manager of a
    design.  Relation and stimulus functions share no variable, so that
    placement changes no diagram's shape.
    """
    width = architecture.instruction_width
    if extra_words is None:
        extra_words = {
            index: [f"delay{index}.{slot}" for slot in range(architecture.delay_slots)]
            for index, kind in enumerate(siminfo.slots)
            if kind == CONTROL
        }
    names: List[str] = []
    for index in reversed(range(siminfo.num_slots)):
        for label in extra_words.get(index, ()):
            names.extend(f"{label}[{bit}]" for bit in range(width))
        names.extend(f"instr{index}[{bit}]" for bit in range(width))
    return names


class MachineStepper:
    """Per-bit beta-correspondence relation of one symbolic machine.

    Extracted once per verification run by driving the machine through
    a single (instruction- or cycle-level) step from a fully symbolic
    state; :meth:`advance` then replays arbitrary stimulus against the
    extracted relation instead of re-simulating the datapath.
    """

    def __init__(
        self,
        manager: BDDManager,
        model,
        prefix: str,
        layout: Sequence[Tuple[str, int]],
        datapath: Sequence[str],
        input_names: Sequence[str],
        fetch_valid_name: Optional[str],
        next_functions: Dict[Tuple[str, int], BDDNode],
    ) -> None:
        self.manager = manager
        self.model = model
        self.prefix = prefix
        self.layout = list(layout)
        self.datapath = list(datapath)
        self.input_names = list(input_names)
        self.fetch_valid_name = fetch_valid_name
        self.next_functions = next_functions
        self.guards = model.state_guards()
        widths = dict(self.layout)
        for guard in self.guards:
            if widths.get(guard) != 1:
                raise ValueError(
                    f"state_guards() names {guard!r} as a guard, but the "
                    f"layout gives it width {widths.get(guard)}; validity "
                    "guards must be single-bit fields"
                )
        self._gated_by: Dict[str, str] = {
            field: guard
            for guard, fields in self.guards.items()
            for field in fields
        }
        self._state_keys = _layout_keys(self.layout)
        #: The relation variables in binding order: input word,
        #: fetch-valid, then one per state bit in ``_state_keys`` order.
        self._binding_names = self.input_names + (
            [fetch_valid_name] if fetch_valid_name is not None else []
        )
        self._binding_names += [
            f"{prefix}{field}[{bit}]" for field, bit in self._state_keys
        ]
        #: How many gated field-bit products the guards short-circuited.
        self.gated_skips = 0

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    @classmethod
    def extract(
        cls,
        manager: BDDManager,
        model,
        prefix: str,
        input_width: int,
        advance: Callable,
        with_fetch_valid: bool,
    ) -> "MachineStepper":
        """Derive the per-bit relation via the state-injection protocol.

        ``advance(model, word, fetch_valid)`` drives the machine through
        one relation step (one pipeline cycle, or one full instruction
        window for the specification).  The model's latches are restored
        afterwards; callers typically ``reset`` it anyway.
        """
        layout = model.state_layout()
        datapath = model.datapath_fields()
        input_names = [f"{prefix}in[{bit}]" for bit in range(input_width)]
        fetch_valid_name = f"{prefix}fetch_valid" if with_fetch_valid else None
        manager.declare_all(
            relation_declares(prefix, input_names, fetch_valid_name, layout, datapath)
        )

        saved = model.state_formulae()
        symbolic = {
            field: BitVec.from_bits(
                manager,
                [manager.var(f"{prefix}{field}[{bit}]") for bit in range(width)],
            )
            for field, width in layout
        }
        model.load_state(symbolic)
        word = BitVec.from_bits(manager, [manager.var(name) for name in input_names])
        advance(
            model,
            word,
            manager.var(fetch_valid_name) if fetch_valid_name is not None else None,
        )
        after = model.state_formulae()
        next_functions = {
            (field, bit): after[field][bit]
            for field, width in layout
            for bit in range(width)
        }
        model.load_state(saved)
        return cls(
            manager,
            model,
            prefix,
            layout,
            datapath,
            input_names,
            fetch_valid_name,
            next_functions,
        )

    # ------------------------------------------------------------------
    # State plumbing
    # ------------------------------------------------------------------
    def initial_state(self) -> Dict[Tuple[str, int], BDDNode]:
        """The model's current latches as a flat per-bit state."""
        formulae = self.model.state_formulae()
        return {
            (field, bit): formulae[field][bit]
            for field, width in self.layout
            for bit in range(width)
        }

    def install(self, state: Mapping[Tuple[str, int], BDDNode]) -> None:
        """Load a flat per-bit state back into the model's latches.

        The model's own ``observe`` then derives the observation exactly
        as on the functional path — one observation mapping, zero
        duplication.
        """
        self.model.load_state(
            {
                field: BitVec.from_bits(
                    self.manager, [state[(field, bit)] for bit in range(width)]
                )
                for field, width in self.layout
            }
        )

    # ------------------------------------------------------------------
    # The relational advance
    # ------------------------------------------------------------------
    def advance(
        self,
        state: Mapping[Tuple[str, int], BDDNode],
        instruction: BitVec,
        fetch_valid: Optional[BDDNode] = None,
    ) -> Dict[Tuple[str, int], BDDNode]:
        """One relation step: bind every relation variable, substitute.

        The ``beta.advance`` span records ``products`` (next-state bits
        substituted) and ``gated`` (bits a constant-0 guard zeroed).
        """
        with telemetry.span("beta.advance", role=self.prefix) as span:
            new_state, products, gated = self._advance(state, instruction, fetch_valid)
            span.set(products=products, gated=gated)
            return new_state

    def _advance(
        self,
        state: Mapping[Tuple[str, int], BDDNode],
        instruction: BitVec,
        fetch_valid: Optional[BDDNode],
    ) -> Tuple[Dict[Tuple[str, int], BDDNode], int, int]:
        manager = self.manager
        values = [instruction[bit] for bit in range(len(self.input_names))]
        if self.fetch_valid_name is not None:
            values.append(fetch_valid if fetch_valid is not None else manager.one)
        values.extend(state[key] for key in self._state_keys)
        sources = dict(zip(self._binding_names, values))
        next_functions = self.next_functions
        # One memo for the guard pass and the field pass: both
        # substitute under the same bindings.
        memo: Dict[int, int] = {}

        def products(keys):
            return manager.compose_all(
                [next_functions[key] for key in keys], sources, memo
            )

        # Guards first: a guard whose next value is the constant-0
        # function renders its gated fields unobservable, so their
        # products are skipped outright (the annulment short-circuit).
        guard_next: Dict[str, BDDNode] = dict(
            zip(self.guards, products([(guard, 0) for guard in self.guards]))
        )
        # Placeholders keep ``new_state`` in layout order until the
        # pending bits are substituted in one batch below.
        new_state: Dict[Tuple[str, int], Optional[BDDNode]] = {}
        pending: List[Tuple[str, int]] = []
        gated = 0
        for key in self._state_keys:
            field = key[0]
            guard = self._gated_by.get(field)
            if field in guard_next:
                new_state[key] = guard_next[field]
            elif guard is not None and guard_next[guard] is manager.zero:
                new_state[key] = manager.zero
                gated += 1
            else:
                new_state[key] = None
                pending.append(key)
        new_state.update(zip(pending, products(pending)))
        self.gated_skips += gated
        return new_state, len(guard_next) + len(pending), gated


def extract_steppers(
    manager: BDDManager,
    specification,
    implementation,
    instruction_width: int,
) -> Tuple[MachineStepper, MachineStepper]:
    """Extract the (specification, implementation) stepper pair.

    The specification's relation is instruction-level (one step = one
    ``execute_instruction`` window); the implementation's is cycle-level
    with the fetch-valid control input.  Extraction order is fixed so
    pooled managers see one deterministic declaration sequence.
    """
    spec_stepper = MachineStepper.extract(
        manager,
        specification,
        SPEC_PREFIX,
        instruction_width,
        lambda model, word, fetch_valid: model.execute_instruction(word),
        with_fetch_valid=False,
    )
    impl_stepper = MachineStepper.extract(
        manager,
        implementation,
        IMPL_PREFIX,
        instruction_width,
        lambda model, word, fetch_valid: model.step(word, fetch_valid=fetch_valid),
        with_fetch_valid=True,
    )
    return spec_stepper, impl_stepper


# ----------------------------------------------------------------------
# Session-scoped extraction cache
# ----------------------------------------------------------------------
#: Key of the hit/miss counters inside ``manager.session_cache``.
_EXTRACTION_STATS_KEY = "beta_extraction_stats"


def _stepper_payload(stepper: MachineStepper) -> Dict[str, object]:
    """The model-independent part of an extracted relation.

    Everything here is a pure function of (manager, model class +
    options, impl kwargs): the canonical per-bit next-state functions
    and the declared variable names.  The payload holds node wrappers,
    so the cached relation doubles as a GC root set and survives arena
    collections for the life of the manager.
    """
    return {
        "layout": list(stepper.layout),
        "datapath": list(stepper.datapath),
        "input_names": list(stepper.input_names),
        "fetch_valid_name": stepper.fetch_valid_name,
        "next_functions": dict(stepper.next_functions),
    }


def _stepper_from_payload(
    manager: BDDManager, payload: Dict[str, object], model, prefix: str
) -> MachineStepper:
    """Re-bind a cached relation to a freshly constructed model.

    The relation's functions are canonical nodes on the shared manager,
    so re-binding is exact: the stepper behaves byte-for-byte like one
    extracted from this model instance (the extraction is deterministic
    and the pooled manager already holds every node it would build).
    """
    return MachineStepper(
        manager,
        model,
        prefix,
        payload["layout"],
        payload["datapath"],
        payload["input_names"],
        payload["fetch_valid_name"],
        payload["next_functions"],
    )


def extraction_cache_statistics(manager: BDDManager) -> Dict[str, int]:
    """Session totals of the extraction cache on ``manager``."""
    stats = manager.session_cache.get(_EXTRACTION_STATS_KEY)
    if stats is None:
        return {"hits": 0, "misses": 0}
    return dict(stats)


# ----------------------------------------------------------------------
# Persistent relation snapshots
# ----------------------------------------------------------------------
def _stepper_declares(payload: Dict[str, object], prefix: str) -> List[str]:
    """:func:`relation_declares` of a cached relation payload.

    Replayed verbatim before a snapshot restore, so a rehydrating
    manager's variable order stays byte-identical to a freshly
    extracting one — the property the pool's order-signature contract
    (and with it cross-mode verdict identity) rests on.
    """
    return relation_declares(
        prefix,
        payload["input_names"],
        payload["fetch_valid_name"],
        payload["layout"],
        payload["datapath"],
    )


def _serialize_stepper_payload(
    manager: BDDManager, payload: Dict[str, object], prefix: str
) -> Dict[str, object]:
    """Pure-data snapshot of a cached relation (JSON-serialisable).

    The per-bit next-state functions are serialised through the arena
    snapshot (root-projected parallel lists with name-mapped levels);
    layout, datapath fields and input names ride along as plain lists.
    """
    layout = [(field, width) for field, width in payload["layout"]]
    keys = [(field, bit) for field, width in layout for bit in range(width)]
    next_functions = payload["next_functions"]
    arena = manager.snapshot(
        [next_functions[key] for key in keys],
        declares=_stepper_declares(payload, prefix),
    )
    nodes = len(arena["levels"])
    return {
        "kind": "beta-relation",
        "prefix": prefix,
        "nodes": nodes,
        "layout": [[field, width] for field, width in layout],
        "datapath": list(payload["datapath"]),
        "input_names": list(payload["input_names"]),
        "fetch_valid_name": payload["fetch_valid_name"],
        # Packed form: large relations are millions of ints, and parsing
        # them back from JSON decimals would eat into the rehydration win.
        "arena": pack_snapshot(arena),
    }


def _deserialize_stepper_payload(
    manager: BDDManager, blob: Dict[str, object], prefix: str
) -> Dict[str, object]:
    """Rebuild a session-cache relation payload from a snapshot blob.

    Raises :class:`~repro.bdd.kernel.SnapshotError` on any structural
    problem (the arena restore validates the node lists; this wrapper
    validates the bookkeeping around them) — the caller falls back to a
    fresh extraction, never a wrong relation.
    """
    try:
        if blob.get("kind") != "beta-relation" or blob.get("prefix") != prefix:
            raise SnapshotError(
                f"snapshot is not a beta relation for prefix {prefix!r}"
            )
        layout = [(field, int(width)) for field, width in blob["layout"]]
        keys = [(field, bit) for field, width in layout for bit in range(width)]
        datapath = list(blob["datapath"])
        input_names = list(blob["input_names"])
        fetch_valid_name = blob["fetch_valid_name"]
        arena = blob["arena"]
    except (TypeError, ValueError, KeyError) as exc:
        raise SnapshotError(f"malformed relation snapshot: {exc!r}") from None
    # Cross-validate the blob's bookkeeping against the arena's recorded
    # declaration sequence: both are independently-stored copies of the
    # same fact (what extraction declares), so any single corrupted
    # field — an input name, the layout, the datapath list, the
    # fetch-valid flag — makes them disagree and the record is refused
    # *before* the manager is touched.  A blob from before the
    # control-first order carries no datapath list at all.
    payload = {
        "layout": layout,
        "datapath": datapath,
        "input_names": input_names,
        "fetch_valid_name": fetch_valid_name,
    }
    try:
        expected_declares = _stepper_declares(payload, prefix)
    except ValueError as exc:
        raise SnapshotError(f"malformed relation snapshot: {exc}") from None
    if not isinstance(arena, dict) or list(arena.get("declares", ())) != expected_declares:
        raise SnapshotError(
            "relation snapshot bookkeeping disagrees with its arena declarations"
        )
    roots = manager.restore(arena)
    if len(roots) != len(keys):
        raise SnapshotError(
            f"relation snapshot carries {len(roots)} roots for {len(keys)} bits"
        )
    payload["next_functions"] = dict(zip(keys, roots))
    return payload


# ----------------------------------------------------------------------
# Relation templates (in-process arena clones)
# ----------------------------------------------------------------------
#: Key of a manager's relation chain inside ``manager.session_cache``:
#: ``(chain, shape)`` with the relation keys restored or adopted on the
#: manager so far and its arena shape right after the last of them, or
#: ``(None, None)`` once an extraction ended the manager's eligibility.
_CHAIN_KEY = "beta_relation_chain"

#: :meth:`BDDManager.arena_shape` of a manager with no node and no
#: declaration — the base state of every chain.
_FRESH_SHAPE = (2, 0, 0)


class RelationTemplate:
    """A restored relation's arena image, cloneable into other managers.

    ``base`` is the arena shape the relation was restored onto;
    ``image`` the whole arena right after that restore; ``roots`` the
    per-bit next-state handles in layout order; ``payload`` the
    session-cache payload minus its node wrappers.
    """

    __slots__ = ("base", "image", "roots", "payload", "nodes")

    def __init__(self, base, image, roots, payload, nodes) -> None:
        self.base = base
        self.image = image
        self.roots = roots
        self.payload = payload
        self.nodes = nodes

    def adopt(self, manager: BDDManager) -> Dict[str, object]:
        """Clone the image into ``manager``; returns its session payload.

        Raises :class:`ValueError` (manager untouched) when the image
        does not extend the manager's arena.
        """
        roots = manager.adopt_image(self.image, self.roots)
        # The wrapper-free fields are read-only, so managers share them.
        return dict(
            self.payload,
            next_functions=dict(zip(_layout_keys(self.payload["layout"]), roots)),
        )


class RelationTemplates:
    """Arena images of snapshot-restored relations, keyed by relation chain.

    The relational backend acquires a design's relations first on a
    fresh manager (specification, then implementation), so they occupy
    the same levels and handles on every manager of that design,
    whatever the scenario's slot shape.  A manager's *chain* is the
    sequence of relation keys restored or adopted on it — ``(spec,)``,
    then ``(spec, impl)``.  Right after a relation is restored from disk
    onto an *eligible* manager (fresh, or holding only restored or
    adopted relations and nothing else), the arena is exactly that
    chain's relations, and a copy of it is kept here; later fresh
    managers adopt the copy at C speed instead of hash-consing the
    snapshot node by node.  Owned by the
    :class:`~repro.engine.pool.ManagerPool`, next to its snapshot store.
    """

    def __init__(self) -> None:
        self._templates: Dict[Tuple, RelationTemplate] = {}
        self.captures = 0
        self.clones = 0

    def __len__(self) -> int:
        return len(self._templates)

    def get(self, chain: Tuple) -> Optional[RelationTemplate]:
        return self._templates.get(chain)

    def capture(
        self,
        chain: Tuple,
        base: Tuple[int, int, int],
        manager: BDDManager,
        payload: Dict[str, object],
        nodes: int,
    ) -> None:
        """Keep a copy of ``manager``'s arena as ``chain``'s template."""
        if chain in self._templates:
            return
        next_functions = payload["next_functions"]
        self._templates[chain] = RelationTemplate(
            base,
            manager.arena_image(),
            [next_functions[key].node_id for key in _layout_keys(payload["layout"])],
            {name: value for name, value in payload.items() if name != "next_functions"},
            nodes,
        )
        self.captures += 1

    def clear(self) -> None:
        self._templates.clear()

    def statistics(self) -> Dict[str, int]:
        return {"held": len(self), "captures": self.captures, "clones": self.clones}


def _layout_keys(layout) -> List[Tuple[str, int]]:
    """The per-bit relation keys of ``layout``, in layout order."""
    return [(field, bit) for field, width in layout for bit in range(width)]


def _relation_chain(manager: BDDManager) -> Optional[Tuple]:
    """The manager's relation chain while it is template-eligible, else ``None``."""
    chain, shape = manager.session_cache.get(_CHAIN_KEY, ((), _FRESH_SHAPE))
    if chain is None or manager.arena_shape() != shape:
        return None
    return chain


def cached_extract_steppers(
    manager: BDDManager,
    specification,
    implementation,
    instruction_width: int,
    spec_key: object,
    impl_key: object,
    snapshot_store=None,
    dependencies=None,
    templates: Optional[RelationTemplates] = None,
) -> Tuple[MachineStepper, MachineStepper, Dict[str, object]]:
    """Acquire the stepper pair from the cheapest of four tiers.

    Extraction is the fixed per-run cost of the relational backend
    (on a 2-CPU box: 0.5 s for the ``FUZZ_ALPHA0_SPEC`` pair, 5.8 s at
    the default 267-state-bit Alpha0 condensation).  Keys must identify
    the model construction exactly: the executor derives them from the
    architecture (name + condensation options) and, for the
    implementation, the injected-bug kwargs.  Acquired relations are
    re-bound to the fresh model instances.  Each role (specification first, then implementation)
    is served by the first tier that has it:

    1. **Session cache** (``manager.session_cache``): a repeated
       scenario on a pooled manager — or a bug-sweep variant, which
       shares the golden specification — reuses the relation's nodes.
    2. **Relation template** (``templates``, a
       :class:`RelationTemplates` owned by the manager pool): a fresh
       manager adopts a copy of the arena an earlier manager held right
       after restoring the same relation chain from disk — list, dict
       and set copies, no per-node work.  Adoption requires the manager
       to sit at exactly the template's base arena shape, and is traced
       as ``snapshot.restore`` with ``source="template"``.
    3. **Disk snapshot** (``snapshot_store``, anything with
       ``fingerprint_for`` / ``load_snapshot`` / ``save_snapshot`` — in
       practice the engine's :class:`~repro.engine.store.ResultStore`):
       the relation is rehydrated from a stored arena snapshot (a
       deserialisation instead of a symbolic simulation).  A stale or
       corrupt snapshot fails validation and falls through to
       extraction — never a wrong relation.  A restore onto a
       template-eligible manager is captured as a template.
    4. **Extraction**, snapshotted back to the store so every later
       process skips it.  It ends the manager's template eligibility.

    ``dependencies`` names the code components the extracted relation
    depends on (the executor passes the BDD kernel, this relational
    subsystem, and the architecture's model component); the store
    embeds their content hashes in the snapshot envelope and refuses
    the record — again falling back to extraction — when any of
    *those* components changed, while edits to unrelated code leave the
    snapshot servable.

    Returns ``(spec_stepper, impl_stepper, info)`` where ``info`` is the
    measurement record surfaced as ``outcome.extraction_cache`` (role
    status ``hit``/``template``/``snapshot``/``miss``); with a store
    attached it carries a per-role ``snapshot`` sub-record (status
    template/restored/saved/invalid, seconds, nodes, bytes).
    """
    cache = manager.session_cache
    stats = cache.setdefault(_EXTRACTION_STATS_KEY, {"hits": 0, "misses": 0})
    info: Dict[str, object] = {}
    snapshot_info: Dict[str, object] = {}

    def acquire(
        role: str, key: object, model, prefix: str, advance, with_fetch_valid: bool
    ) -> MachineStepper:
        payload = cache.get(key)
        if payload is not None:
            stats["hits"] += 1
            info[role] = "hit"
            return _stepper_from_payload(manager, payload, model, prefix)
        chain = _relation_chain(manager) if templates is not None else None
        if chain is not None:
            template = templates.get(chain + (key,))
            if template is not None and template.base == manager.arena_shape():
                started = time.perf_counter()
                with telemetry.span(
                    "snapshot.restore", manager=manager, role=role, source="template"
                ) as adopt_span:
                    try:
                        payload = template.adopt(manager)
                    except ValueError:
                        adopt_span.set(status="mismatch")
                if payload is not None:
                    cache[key] = payload
                    cache[_CHAIN_KEY] = (chain + (key,), manager.arena_shape())
                    templates.clones += 1
                    stats["cloned"] = stats.get("cloned", 0) + 1
                    info[role] = "template"
                    snapshot_info[role] = {
                        "status": "template",
                        "seconds": round(time.perf_counter() - started, 4),
                        "nodes": template.nodes,
                    }
                    return _stepper_from_payload(manager, payload, model, prefix)
        if snapshot_store is not None:
            fingerprint = snapshot_store.fingerprint_for(key)
            blob = snapshot_store.load_snapshot(fingerprint, dependencies)
            if blob is not None:
                started = time.perf_counter()
                base = manager.arena_shape()
                with telemetry.span(
                    "snapshot.restore", manager=manager, role=role
                ) as restore_span:
                    try:
                        payload = _deserialize_stepper_payload(manager, blob, prefix)
                    except SnapshotError as error:
                        payload = None
                        restore_span.set(status="invalid")
                        snapshot_info[role] = {
                            "status": "invalid",
                            "error": str(error),
                        }
                if payload is not None:
                    cache[key] = payload
                    stats["restored"] = stats.get("restored", 0) + 1
                    info[role] = "snapshot"
                    snapshot_info[role] = {
                        "status": "restored",
                        "seconds": round(time.perf_counter() - started, 4),
                        "nodes": blob.get("nodes", 0),
                    }
                    if chain is not None:
                        # The arena is exactly the chain's restored
                        # relations: worth keeping for the next fresh
                        # manager of this design.
                        templates.capture(
                            chain + (key,), base, manager, payload, blob.get("nodes", 0)
                        )
                        cache[_CHAIN_KEY] = (chain + (key,), manager.arena_shape())
                    return _stepper_from_payload(manager, payload, model, prefix)
        stats["misses"] += 1
        info[role] = "miss"
        if templates is not None:
            # Extraction leaves intermediate nodes behind: no later
            # arena on this manager is a clean template.
            cache[_CHAIN_KEY] = (None, None)
        with telemetry.span("beta.extract_role", manager=manager, role=role):
            stepper = MachineStepper.extract(
                manager,
                model,
                prefix,
                instruction_width,
                advance,
                with_fetch_valid=with_fetch_valid,
            )
        payload = _stepper_payload(stepper)
        cache[key] = payload
        if snapshot_store is not None:
            started = time.perf_counter()
            with telemetry.span("snapshot.pack", manager=manager, role=role):
                blob = _serialize_stepper_payload(manager, payload, prefix)
                try:
                    written = snapshot_store.save_snapshot(
                        snapshot_store.fingerprint_for(key), blob, dependencies
                    )
                except OSError as error:
                    # A snapshot is a cache, never the verdict: a failed
                    # publish (full disk, injected I/O fault) degrades
                    # this extraction to unsnapshotted and the scenario
                    # carries on — a later process just re-extracts.
                    written = None
                    snapshot_info[role] = {
                        "status": "write_failed",
                        "error": f"{type(error).__name__}: {error}",
                        "seconds": round(time.perf_counter() - started, 4),
                    }
            if written is not None:
                snapshot_info[role] = {
                    "status": "saved",
                    "seconds": round(time.perf_counter() - started, 4),
                    "nodes": blob.get("nodes", 0),
                    # ``bytes`` predates the schema normalization; the
                    # canonical spelling matches the store counters.
                    "bytes": written,
                    "bytes_written": written,
                }
        return stepper

    # Extraction order is fixed (specification first) so pooled and
    # rehydrating managers see one deterministic declaration sequence.
    spec_stepper = acquire(
        "spec",
        spec_key,
        specification,
        SPEC_PREFIX,
        lambda model, word, fetch_valid: model.execute_instruction(word),
        with_fetch_valid=False,
    )
    impl_stepper = acquire(
        "impl",
        impl_key,
        implementation,
        IMPL_PREFIX,
        lambda model, word, fetch_valid: model.step(word, fetch_valid=fetch_valid),
        with_fetch_valid=True,
    )

    info["session_hits"] = stats["hits"]
    info["session_misses"] = stats["misses"]
    if stats.get("restored"):
        info["session_restored"] = stats["restored"]
    if stats.get("cloned"):
        info["session_cloned"] = stats["cloned"]
    if snapshot_info:
        info["snapshot"] = snapshot_info
    return spec_stepper, impl_stepper, info
