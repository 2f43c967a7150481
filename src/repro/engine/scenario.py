"""Scenario descriptions for the verification campaign engine.

A :class:`Scenario` is a declarative, picklable description of one
verification job: which design is checked (VSM or Alpha0, with its
datapath condensation), which driver runs it (static beta-relation,
dynamic beta-relation with events, or the concrete superscalar check),
the stimulus plan (instruction slots / event schedule / program), and
any injected implementation bug.  Because a scenario is pure data it can
be stored in a registry, shipped to a worker process, hashed into a
memoisation key, and mapped onto a pooled :class:`~repro.bdd.BDDManager`
whose variable order it shares with every other scenario of the same
:meth:`Scenario.order_signature`.

The module also provides a :class:`ScenarioRegistry` plus catalogue
builders for the standard campaigns of the reproduction: the headline
VSM/Alpha0 verifications, the bug-injection sweeps, the variable-k
placements and the interrupt (event) sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.architectures import Alpha0Architecture, Architecture, VSMArchitecture
from ..core.observation import ObservationSpec
from ..core.siminfo import SimulationInfo
from ..isa import vsm as vsm_isa
from ..processors import SymbolicAlpha0Options
from ..relational.beta import BETA_BACKENDS, BETA_RELATIONAL
from ..strings import CONTROL, NORMAL

#: Scenario kinds (which driver executes the scenario).
BETA = "beta"
EVENTS = "events"
SUPERSCALAR = "superscalar"
KINDS = (BETA, EVENTS, SUPERSCALAR)

#: Design families.
VSM = "vsm"
ALPHA0 = "alpha0"
DESIGNS = (VSM, ALPHA0)

#: Mutation knobs understood by the VSM implementation models, mapped to
#: the scenario kinds they apply to.  A knob perturbs the *content* of
#: the implementation (bypass coverage, branch arithmetic, issue-group
#: hazard policy ...) without changing which variables the run declares,
#: so mutated scenarios pool managers exactly like bug-injected ones.
#: The generative fuzz campaigns (:mod:`repro.campaigns`) mass-produce
#: scenarios through these; every knob has an *identity* value under
#: which the model takes its stock code path byte for byte.
MUTATION_KNOBS: Dict[str, Tuple[str, ...]] = {
    # Which EX/WB operands the forwarding network covers ("ab" = stock).
    "bypass_operands": (BETA, EVENTS),
    # Constant skew added to every computed branch target (0 = stock).
    "branch_offset": (BETA, EVENTS),
    # Intra-group RAW/WAW checking of the superscalar issue logic.
    "hazard_checks": (SUPERSCALAR,),
    # Which dynamically scheduled machine runs the concrete check.
    "pipeline": (SUPERSCALAR,),
    # Scoreboard condensation knobs (require pipeline == "scoreboard").
    "functional_units": (SUPERSCALAR,),
    "latency_profile": (SUPERSCALAR,),
    "issue_raw_check": (SUPERSCALAR,),
}

#: Knobs that configure the scoreboarded machine specifically.
SCOREBOARD_KNOBS = ("functional_units", "latency_profile", "issue_raw_check")


@dataclass(frozen=True)
class Alpha0Spec:
    """Declarative Alpha0 condensation (mirrors :class:`SymbolicAlpha0Options`)."""

    data_width: int = 4
    num_registers: int = 4
    memory_words: int = 4
    alu_subset: Optional[Tuple[str, ...]] = ("and", "or", "cmpeq")
    normal_opcode: int = 0x11
    control_opcode: int = 0x30

    def __post_init__(self) -> None:
        if self.alu_subset is not None:
            object.__setattr__(self, "alu_subset", tuple(self.alu_subset))

    def options(self) -> SymbolicAlpha0Options:
        """The symbolic-model options this spec describes."""
        return SymbolicAlpha0Options(
            data_width=self.data_width,
            num_registers=self.num_registers,
            memory_words=self.memory_words,
            alu_subset=self.alu_subset,
        )


@dataclass(frozen=True)
class Scenario:
    """One verification job for the campaign engine.

    Every field is hashable pure data, so scenarios can cross process
    boundaries and serve as memoisation keys.  ``name`` and ``tags`` are
    identity/bookkeeping only — they do not take part in
    :meth:`cache_key`, so two scenarios that differ only in name share
    memoised results.
    """

    name: str
    kind: str = BETA
    design: str = VSM
    #: Instruction slots of the simulation-information file.
    slots: Tuple[str, ...] = (NORMAL,)
    reset_cycles: int = 1
    #: Injected implementation bug code (``None`` = golden design).
    bug: Optional[str] = None
    #: EVENTS only: instruction slots that coincide with an interrupt.
    event_slots: Tuple[int, ...] = ()
    #: EVENTS only: inject the broken interrupt-link bug.
    break_event_link: bool = False
    symbolic_initial_state: bool = False
    #: Alpha0 condensation; ignored for VSM scenarios.
    alpha0: Alpha0Spec = field(default_factory=Alpha0Spec)
    #: Observable subset; ``None`` selects the architecture default.
    observe: Optional[Tuple[str, ...]] = None
    #: SUPERSCALAR only: encoded instruction words of the concrete program.
    program: Tuple[int, ...] = ()
    issue_width: int = 2
    #: BETA only: which backend runs the check, the relational
    #: formulation (default) or the classical compose path (the
    #: differential reference); see :data:`BETA_BACKENDS`.
    beta_backend: str = BETA_RELATIONAL
    #: Implementation-model mutation knobs as sorted ``(knob, value)``
    #: pairs (see :data:`MUTATION_KNOBS`).  Part of the scenario's
    #: content — mutations enter :meth:`cache_key` and
    #: :meth:`fingerprint`, so a generated mutant never shares a store
    #: record with the stock model.
    mutations: Tuple[Tuple[str, object], ...] = ()
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Coerce sequence fields so list-valued arguments stay hashable
        # (cache_key/order_signature are used as dict keys).
        for field_name in ("slots", "event_slots", "program", "tags"):
            object.__setattr__(self, field_name, tuple(getattr(self, field_name)))
        if self.observe is not None:
            object.__setattr__(self, "observe", tuple(self.observe))
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; valid: {KINDS}")
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}; valid: {DESIGNS}")
        for slot in self.slots:
            if slot not in (NORMAL, CONTROL):
                raise ValueError(f"unknown slot kind {slot!r}")
        if self.kind != SUPERSCALAR and not self.slots:
            raise ValueError("at least one instruction slot is required")
        if self.kind in (EVENTS, SUPERSCALAR) and self.design != VSM:
            raise ValueError(f"{self.kind} scenarios are VSM-only")
        if self.kind == SUPERSCALAR and not self.program:
            raise ValueError("a superscalar scenario needs a concrete program")
        if self.kind != SUPERSCALAR and self.program:
            raise ValueError("only superscalar scenarios carry a concrete program")
        if self.event_slots and self.kind != EVENTS:
            raise ValueError("event slots are only meaningful for events scenarios")
        if self.break_event_link and self.kind != EVENTS:
            raise ValueError("break_event_link is only meaningful for events scenarios")
        if self.reset_cycles < 1:
            raise ValueError("at least one reset cycle is required")
        if self.beta_backend not in BETA_BACKENDS:
            raise ValueError(
                f"unknown beta backend {self.beta_backend!r}; valid: {BETA_BACKENDS}"
            )
        if self.beta_backend != BETA_RELATIONAL and self.kind != BETA:
            raise ValueError(
                f"{self.kind} scenarios have one driver; "
                f"beta_backend={self.beta_backend!r} would be silently ignored"
            )
        if self.issue_width != 2 and self.kind != SUPERSCALAR:
            raise ValueError(
                f"issue_width={self.issue_width} would be silently ignored: "
                "only superscalar scenarios read it"
            )
        if self.kind == SUPERSCALAR and (
            self.reset_cycles != 1 or self.symbolic_initial_state
        ):
            raise ValueError(
                "superscalar scenarios run a concrete program from reset; "
                "reset_cycles and symbolic_initial_state would be silently ignored"
            )
        if self.bug is not None and self.kind == SUPERSCALAR:
            raise ValueError(
                "superscalar scenarios take no bug code; perturb the issue "
                "logic through mutation knobs instead"
            )
        self._validate_mutations()

    def _validate_mutations(self) -> None:
        """Canonicalise and validate the mutation knobs (fail fast)."""
        pairs = []
        for pair in self.mutations:
            knob, value = pair
            pairs.append((str(knob), value))
        pairs.sort(key=lambda pair: pair[0])
        object.__setattr__(self, "mutations", tuple(pairs))
        if not pairs:
            return
        if self.design != VSM:
            raise ValueError("mutation knobs perturb the VSM models only")
        knobs = [knob for knob, _ in pairs]
        if len(set(knobs)) != len(knobs):
            raise ValueError(f"duplicate mutation knob in {knobs}")
        for knob, value in pairs:
            kinds = MUTATION_KNOBS.get(knob)
            if kinds is None:
                raise ValueError(
                    f"unknown mutation knob {knob!r}; valid: {sorted(MUTATION_KNOBS)}"
                )
            if self.kind not in kinds:
                raise ValueError(
                    f"mutation knob {knob!r} does not apply to {self.kind} scenarios"
                )
            if not isinstance(value, (str, int)):
                raise TypeError(
                    f"mutation values must be plain str/int/bool, "
                    f"got {type(value).__name__} for {knob!r}"
                )
        muts = dict(pairs)
        if muts.get("bypass_operands", "ab") not in ("ab", "a", "b"):
            raise ValueError("bypass_operands must be one of 'ab', 'a', 'b'")
        offset = muts.get("branch_offset", 0)
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise ValueError("branch_offset must be a non-negative integer")
        if muts.get("hazard_checks", "full") not in ("full", "none"):
            raise ValueError("hazard_checks must be 'full' or 'none'")
        pipeline = muts.get("pipeline", "superscalar")
        if pipeline not in ("superscalar", "scoreboard"):
            raise ValueError("pipeline must be 'superscalar' or 'scoreboard'")
        if pipeline != "scoreboard":
            for knob in SCOREBOARD_KNOBS:
                if knob in muts:
                    raise ValueError(
                        f"{knob!r} requires the ('pipeline', 'scoreboard') mutation"
                    )
        elif "hazard_checks" in muts:
            raise ValueError(
                "hazard_checks configures the superscalar issue logic; "
                "the scoreboard uses issue_raw_check"
            )
        units = muts.get("functional_units", 2)
        if not isinstance(units, int) or isinstance(units, bool) or units < 1:
            raise ValueError("functional_units must be a positive integer")
        if muts.get("issue_raw_check", "full") not in ("full", "none"):
            raise ValueError("issue_raw_check must be 'full' or 'none'")
        profile = muts.get("latency_profile", "default")
        from ..processors.scoreboard import LATENCY_PROFILES

        if profile not in LATENCY_PROFILES:
            raise ValueError(
                f"unknown latency_profile {profile!r}; valid: {sorted(LATENCY_PROFILES)}"
            )

    # ------------------------------------------------------------------
    # Resolution to the core objects
    # ------------------------------------------------------------------
    def siminfo(self) -> SimulationInfo:
        """The simulation-information file this scenario drives."""
        return SimulationInfo(reset_cycles=self.reset_cycles, slots=self.slots)

    def architecture(self) -> Architecture:
        """The architecture adapter (BETA scenarios)."""
        if self.design == VSM:
            return VSMArchitecture(symbolic_initial_state=self.symbolic_initial_state)
        return Alpha0Architecture(
            options=self.alpha0.options(),
            normal_opcode=self.alpha0.normal_opcode,
            control_opcode=self.alpha0.control_opcode,
            symbolic_initial_state=self.symbolic_initial_state,
        )

    def impl_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for the implementation model."""
        kwargs: Dict[str, object] = {}
        if self.bug is not None:
            kwargs["bug"] = self.bug
        if self.break_event_link:
            kwargs["break_event_link"] = True
        for knob, value in self.mutations:
            kwargs[knob] = value
        return kwargs

    def observation(self) -> Optional[ObservationSpec]:
        """Explicit observation spec, or ``None`` for the design default."""
        if self.observe is None:
            return None
        return ObservationSpec(tuple(self.observe))

    def decoded_program(self) -> List[vsm_isa.VSMInstruction]:
        """The concrete program of a superscalar scenario, decoded."""
        return [vsm_isa.decode(word) for word in self.program]

    # ------------------------------------------------------------------
    # Pooling / memoisation keys
    # ------------------------------------------------------------------
    def order_signature(self) -> Tuple:
        """Key identifying the BDD variable order this scenario induces.

        Two scenarios with the same signature declare exactly the same
        variables in exactly the same order when run from a fresh
        manager, so they can safely share a pooled manager: the second
        run reuses the hash-consed nodes (and warmed operation caches)
        of the first, and its results — including counterexample
        assignments — are bit-identical to a fresh-manager run.
        """
        if self.kind == SUPERSCALAR:
            return ("concrete",)
        base = (
            self.design,
            self.kind,
            self.slots,
            self.reset_cycles,
            self.event_slots,
            self.symbolic_initial_state,
        )
        if self.kind == BETA:
            # The two beta backends declare different variable families
            # in different orders (the relational backend pre-declares a
            # selector-above-data stimulus order plus per-machine
            # relation variables), so they must never share a manager.
            base = base + ("beta", self.beta_backend)
        if self.design == ALPHA0:
            # The instruction-class opcodes only change which stimulus bits
            # are *constants*; the free-variable set and order depend on the
            # datapath condensation alone, so runs that differ only in the
            # simulated instruction class still share a manager.
            condensation = (
                self.alpha0.data_width,
                self.alpha0.num_registers,
                self.alpha0.memory_words,
                self.alpha0.alu_subset,
            )
            return base + (condensation,)
        return base

    def needs_manager(self) -> bool:
        """Whether the scenario runs on a BDD manager at all."""
        return self.kind != SUPERSCALAR

    def cache_key(self) -> Tuple:
        """Memoisation key: everything that determines the outcome."""
        return tuple(
            getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in ("name", "tags")
        )

    def dependencies(self) -> Tuple[str, ...]:
        """The code components this scenario's verdict depends on.

        Names refer to :data:`repro.engine.codehash.COMPONENTS`.  The
        persistent store hashes each component's source text and records
        the resulting dependency vector in the record envelope, so a
        code change invalidates exactly the records whose verdicts could
        have changed — a VSM model edit leaves every Alpha0 record warm.
        The map must stay *conservative*: list every component that can
        influence verdict bytes (over-approximating costs a recompute;
        under-approximating could serve a stale verdict).
        """
        if self.kind == SUPERSCALAR:
            # Concrete check: no BDD manager, no relational extraction.
            # The specification executor is the concrete unpipelined VSM;
            # the implementation is either the in-order superscalar or —
            # under the ('pipeline', 'scoreboard') mutation — the
            # dynamically scheduled scoreboard machine.
            if dict(self.mutations).get("pipeline") == "scoreboard":
                return ("verifier", "model:vsm", "model:scoreboard")
            return ("verifier", "model:vsm", "model:superscalar")
        if self.kind == EVENTS:
            # The event models subclass the symbolic VSM models, so both
            # model components are inputs; the stimulus order comes from
            # the relational subsystem's beta_stimulus_order.
            return ("bdd", "verifier", "relational", "model:vsm", "model:interrupts")
        # BETA: the backend dispatch (and the default relational
        # formulation) lives in the relational subsystem either way.
        model = "model:vsm" if self.design == VSM else "model:alpha0"
        return ("bdd", "verifier", "relational", model)

    def fingerprint(self, salt: str = "") -> str:
        """Canonical content address of this scenario's verdict.

        SHA-256 over the scenario's serialised content (name and tags
        excluded — they are bookkeeping, not behaviour), the variable-
        order signature (which embeds the beta backend, so runs whose
        variable orders differ never share a record) and ``salt`` — the
        persistent store's code-version salt.  Two scenarios share a
        fingerprint exactly when the engine guarantees them byte-
        identical verdicts, which is what makes the fingerprint safe as
        a cross-process, cross-invocation result-store key.
        """
        payload = self.to_dict()
        payload.pop("name", None)
        payload.pop("tags", None)
        blob = json.dumps(
            {
                "scenario": payload,
                "order_signature": repr(self.order_signature()),
                "salt": salt,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description of the scenario."""
        payload: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "design": self.design,
            "slots": list(self.slots),
            "reset_cycles": self.reset_cycles,
            "bug": self.bug,
            "event_slots": list(self.event_slots),
            "break_event_link": self.break_event_link,
            "symbolic_initial_state": self.symbolic_initial_state,
            "observe": list(self.observe) if self.observe is not None else None,
            "program": list(self.program),
            "issue_width": self.issue_width,
            # The default backend serialises as null: the golden and
            # corpus records are keyed by fingerprints of such payloads.
            "relational": None
            if self.beta_backend == BETA_RELATIONAL
            else {"beta_backend": self.beta_backend},
            "tags": list(self.tags),
        }
        if self.mutations:
            # Generator provenance: the mutation knobs are behaviour, so
            # they enter :meth:`fingerprint` through this payload.  An
            # *empty* knob set is omitted, so a mutant whose knobs the
            # minimizer strips away converges to the stock scenario's
            # fingerprint — which is what makes corpus deduplication
            # against the golden records fire.
            payload["mutations"] = [[knob, value] for knob, value in self.mutations]
        if self.design == ALPHA0:
            payload["alpha0"] = {
                "data_width": self.alpha0.data_width,
                "num_registers": self.alpha0.num_registers,
                "memory_words": self.alpha0.memory_words,
                "alu_subset": list(self.alpha0.alu_subset)
                if self.alpha0.alu_subset is not None
                else None,
                "normal_opcode": self.alpha0.normal_opcode,
                "control_opcode": self.alpha0.control_opcode,
            }
        return payload

    @classmethod
    def from_architecture(
        cls,
        architecture: Architecture,
        name: str,
        siminfo: SimulationInfo,
        bug: Optional[str] = None,
        tags: Tuple[str, ...] = (),
    ) -> "Scenario":
        """Describe a verification job on a bundled architecture adapter.

        The inverse of :meth:`architecture`; only the two bundled
        designs have a declarative form (a custom
        :class:`~repro.core.architectures.Architecture` has no pure-data
        description the engine could pool or ship to workers).
        """
        if isinstance(architecture, VSMArchitecture):
            return cls(
                name=name,
                design=VSM,
                slots=siminfo.slots,
                reset_cycles=siminfo.reset_cycles,
                bug=bug,
                symbolic_initial_state=architecture.symbolic_initial_state,
                tags=tuple(tags),
            )
        if isinstance(architecture, Alpha0Architecture):
            subset = architecture.options.alu_subset
            return cls(
                name=name,
                design=ALPHA0,
                slots=siminfo.slots,
                reset_cycles=siminfo.reset_cycles,
                bug=bug,
                symbolic_initial_state=architecture.symbolic_initial_state,
                alpha0=Alpha0Spec(
                    data_width=architecture.options.data_width,
                    num_registers=architecture.options.num_registers,
                    memory_words=architecture.options.memory_words,
                    alu_subset=tuple(subset) if subset is not None else None,
                    normal_opcode=architecture.normal_opcode,
                    control_opcode=architecture.control_opcode,
                ),
                tags=tuple(tags),
            )
        raise TypeError(
            f"{type(architecture).__name__} has no declarative scenario form; "
            "run it through repro.core.verify_beta_relation directly"
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        alpha0_payload = payload.get("alpha0")
        if alpha0_payload:
            subset = alpha0_payload.get("alu_subset")
            alpha0 = Alpha0Spec(
                data_width=alpha0_payload.get("data_width", 4),
                num_registers=alpha0_payload.get("num_registers", 4),
                memory_words=alpha0_payload.get("memory_words", 4),
                alu_subset=tuple(subset) if subset is not None else None,
                normal_opcode=alpha0_payload.get("normal_opcode", 0x11),
                control_opcode=alpha0_payload.get("control_opcode", 0x30),
            )
        else:
            alpha0 = Alpha0Spec()
        observe = payload.get("observe")
        # Older payloads carry retired keys beside ``beta_backend``
        # (partitioning bounds, reordering, kernel and product knobs);
        # no driver reads them, so they are dropped.
        relational = payload.get("relational") or {}
        return cls(
            name=payload["name"],
            kind=payload.get("kind", BETA),
            design=payload.get("design", VSM),
            slots=tuple(payload.get("slots", (NORMAL,))),
            reset_cycles=payload.get("reset_cycles", 1),
            bug=payload.get("bug"),
            event_slots=tuple(payload.get("event_slots", ())),
            break_event_link=payload.get("break_event_link", False),
            symbolic_initial_state=payload.get("symbolic_initial_state", False),
            alpha0=alpha0,
            observe=tuple(observe) if observe is not None else None,
            program=tuple(payload.get("program", ())),
            issue_width=payload.get("issue_width", 2),
            beta_backend=relational.get("beta_backend", BETA_RELATIONAL),
            mutations=tuple(
                (knob, value) for knob, value in payload.get("mutations", ())
            ),
            tags=tuple(payload.get("tags", ())),
        )

    def renamed(self, name: str) -> "Scenario":
        """A copy of the scenario under a different name."""
        return replace(self, name=name)


class ScenarioRegistry:
    """Named collection of scenarios, resolvable by name or tag."""

    def __init__(self, scenarios: Iterable[Scenario] = ()) -> None:
        self._scenarios: Dict[str, Scenario] = {}
        for scenario in scenarios:
            self.register(scenario)

    def register(self, scenario: Scenario, replace_existing: bool = False) -> Scenario:
        """Add a scenario; re-registering a name requires ``replace_existing``."""
        if scenario.name in self._scenarios and not replace_existing:
            raise ValueError(f"scenario {scenario.name!r} is already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def register_all(self, scenarios: Iterable[Scenario]) -> None:
        for scenario in scenarios:
            self.register(scenario)

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; registered: {sorted(self._scenarios)}"
            ) from None

    def resolve(self, item) -> Scenario:
        """Accept either a scenario or a registered scenario name."""
        if isinstance(item, Scenario):
            return item
        return self.get(item)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._scenarios))

    def tagged(self, tag: str) -> List[Scenario]:
        """All registered scenarios carrying ``tag``, in name order."""
        return [self._scenarios[name] for name in self.names() if tag in self._scenarios[name].tags]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios


# ----------------------------------------------------------------------
# Catalogue builders
# ----------------------------------------------------------------------
#: Workloads exercising each injectable VSM bug (mirrors the bug-hunt example).
VSM_BUG_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "no_bypass": (NORMAL, NORMAL),
    "no_annul": (CONTROL, NORMAL),
    "wrong_branch_target": (CONTROL, NORMAL),
    "and_becomes_or": (NORMAL,),
    "drop_write_r3": (NORMAL,),
}


def vsm_verification_scenario(name: str = "vsm/default") -> Scenario:
    """The Section 6.2 headline run (``r 0 0 1 0``)."""
    return Scenario(
        name=name,
        design=VSM,
        slots=(NORMAL, NORMAL, CONTROL, NORMAL),
        tags=("vsm", "golden"),
    )


def alpha0_operate_scenario(
    name: str = "alpha0/operate", alpha0: Alpha0Spec = Alpha0Spec()
) -> Scenario:
    """The Section 6.3 operate-class run (``r 0 0 1 0 0``)."""
    return Scenario(
        name=name,
        design=ALPHA0,
        slots=(NORMAL, NORMAL, CONTROL, NORMAL, NORMAL),
        alpha0=alpha0,
        tags=("alpha0", "golden"),
    )


def alpha0_memory_scenario(
    name: str = "alpha0/memory", alpha0: Alpha0Spec = Alpha0Spec(normal_opcode=0x29)
) -> Scenario:
    """The Section 6.3 memory-class pass (loads in the ordinary slots)."""
    return Scenario(
        name=name,
        design=ALPHA0,
        slots=(NORMAL,) * 5,
        alpha0=alpha0,
        tags=("alpha0", "golden"),
    )


def vsm_bug_scenarios(prefix: str = "vsm/bug") -> List[Scenario]:
    """One scenario per injectable VSM bug, with its exercising workload."""
    return [
        Scenario(
            name=f"{prefix}/{bug}",
            design=VSM,
            slots=slots,
            bug=bug,
            tags=("vsm", "bug-injection"),
        )
        for bug, slots in VSM_BUG_WORKLOADS.items()
    ]


def alpha0_bug_scenarios(
    prefix: str = "alpha0/bug", alpha0: Alpha0Spec = Alpha0Spec()
) -> List[Scenario]:
    """Alpha0 bug-injection scenarios (mirrors the bug-injection benchmark)."""
    return [
        Scenario(
            name=f"{prefix}/no_bypass",
            design=ALPHA0,
            slots=(NORMAL, NORMAL),
            bug="no_bypass",
            alpha0=alpha0,
            tags=("alpha0", "bug-injection"),
        ),
        Scenario(
            name=f"{prefix}/no_annul",
            design=ALPHA0,
            slots=(CONTROL, NORMAL),
            bug="no_annul",
            alpha0=alpha0,
            tags=("alpha0", "bug-injection"),
        ),
        Scenario(
            name=f"{prefix}/cmpeq_inverted",
            design=ALPHA0,
            slots=(NORMAL,),
            bug="cmpeq_inverted",
            alpha0=replace(alpha0, normal_opcode=0x10),
            tags=("alpha0", "bug-injection"),
        ),
        Scenario(
            name=f"{prefix}/store_wrong_word",
            design=ALPHA0,
            slots=(NORMAL, NORMAL),
            bug="store_wrong_word",
            alpha0=replace(alpha0, normal_opcode=0x2D),
            symbolic_initial_state=True,
            tags=("alpha0", "bug-injection"),
        ),
    ]


def variable_k_scenarios(k: int = 4, prefix: str = "vsm/variable-k") -> List[Scenario]:
    """Control transfer placed at each of the ``k`` slots (Section 5.3)."""
    scenarios = []
    for position in range(k):
        slots = [NORMAL] * k
        slots[position] = CONTROL
        scenarios.append(
            Scenario(
                name=f"{prefix}/slot{position}",
                design=VSM,
                slots=tuple(slots),
                tags=("vsm", "variable-k"),
            )
        )
    return scenarios


def event_scenarios(
    num_slots: int = 4, prefix: str = "vsm/event", broken: bool = False
) -> List[Scenario]:
    """An interrupt arriving at each ordinary instruction slot (Section 5.5)."""
    return [
        Scenario(
            name=f"{prefix}/slot{slot}" + ("/broken-link" if broken else ""),
            kind=EVENTS,
            design=VSM,
            slots=(NORMAL,) * num_slots,
            event_slots=(slot,),
            break_event_link=broken,
            tags=("vsm", "events") + (("bug-injection",) if broken else ()),
        )
        for slot in range(num_slots)
    ]


def superscalar_scenario(
    program: Sequence[vsm_isa.VSMInstruction],
    name: str = "vsm/superscalar",
    issue_width: int = 2,
) -> Scenario:
    """A concrete dynamic-beta check of the dual-issue VSM."""
    return Scenario(
        name=name,
        kind=SUPERSCALAR,
        design=VSM,
        program=tuple(instruction.encode() for instruction in program),
        issue_width=issue_width,
        tags=("vsm", "superscalar"),
    )


def mixed_campaign(alpha0: Alpha0Spec = Alpha0Spec()) -> List[Scenario]:
    """The standard mixed campaign: VSM, Alpha0, interrupts and one bug.

    This is the acceptance workload of the engine: six-plus scenarios
    spanning both designs, the dynamic beta-relation, and an injected
    bug, all sharing one manager pool.  ``alpha0`` picks the Alpha0
    condensation (tests use a smaller one than the paper's default).
    """
    return [
        vsm_verification_scenario(),
        Scenario(
            name="vsm/straightline",
            design=VSM,
            slots=(NORMAL, NORMAL),
            tags=("vsm", "golden"),
        ),
        alpha0_operate_scenario(alpha0=alpha0),
        alpha0_memory_scenario(alpha0=replace(alpha0, normal_opcode=0x29)),
        Scenario(
            name="vsm/event/slot1",
            kind=EVENTS,
            design=VSM,
            slots=(NORMAL,) * 4,
            event_slots=(1,),
            tags=("vsm", "events"),
        ),
        Scenario(
            name="vsm/bug/no_bypass",
            design=VSM,
            slots=VSM_BUG_WORKLOADS["no_bypass"],
            bug="no_bypass",
            tags=("vsm", "bug-injection"),
        ),
    ]


def default_registry() -> ScenarioRegistry:
    """A registry pre-populated with the standard catalogue."""
    registry = ScenarioRegistry()
    registry.register(vsm_verification_scenario())
    registry.register(alpha0_operate_scenario())
    registry.register(alpha0_memory_scenario())
    registry.register_all(vsm_bug_scenarios())
    registry.register_all(alpha0_bug_scenarios())
    registry.register_all(variable_k_scenarios())
    registry.register_all(event_scenarios())
    return registry
