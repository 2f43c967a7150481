"""ROBDD manager: the public face of the array-backed kernel.

This module implements the BDD substrate described in Section 3.2 of the
paper.  It provides:

* hash-consed node construction (canonical form),
* the ``apply`` / ``ite`` operations for combining functions,
* cofactoring (restriction) by literals,
* the smoothing operator (existential quantification, Definition 3.3.1),
* universal quantification,
* the combined AND-smooth (relational product) used for image
  computation ([BCMD90] in the paper),
* functional composition and variable renaming,
* satisfiability, tautology and model-counting queries.

The representation lives in :class:`~repro.bdd.kernel.BDDKernel`
(struct-of-arrays, integer handles, arena GC); :class:`BDDManager`
subclasses it and adds what the kernel deliberately does not know
about: the variable *order* (names <-> levels), the weakly-interned
:class:`~repro.bdd.node.BDD` wrappers that give consumers the classic
object API, and the reorder-hook machinery the campaign engine's
manager pool relies on.  All functions handled by one manager share its
order, which is what makes node identity a sound equivalence check.
"""

from __future__ import annotations

import itertools
import weakref
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import telemetry
from .kernel import BDDKernel, OP_EXISTS, OP_FORALL, SnapshotError
from .node import BDD

#: C-level weak reference constructor (hot in :meth:`BDDManager._wrap`).
_weakref_new = weakref.ref
#: C-level instance allocator (hot in :meth:`BDDManager._wrap`).
_bdd_alloc = object.__new__


class BDDOrderError(ValueError):
    """Raised when a variable is used before being declared."""


class BDDManager(BDDKernel):
    """Owner of a variable order, unique table and operation caches.

    ``cache_limit`` bounds the number of entries each operation cache may
    hold: when a cache grows past the limit it is dropped wholesale (the
    unique table — and therefore every constructed function — is kept, so
    results are unaffected; only recomputation cost changes).  Long
    campaigns that reuse one manager across many verification runs use
    this to keep memory flat.  ``None`` leaves the caches unbounded.
    """

    def __init__(
        self,
        variables: Optional[Sequence[str]] = None,
        cache_limit: Optional[int] = None,
    ) -> None:
        super().__init__(cache_limit=cache_limit)
        self._level_of: Dict[str, int] = {}
        self._name_of: List[str] = []
        self._reorder_count = 0
        self._reorder_hooks: List[Callable[["BDDManager"], None]] = []
        #: Weakly-interned wrappers: handle -> weakref to the live BDD
        #: object.  One live wrapper per handle keeps node identity a
        #: sound equivalence check; entries whose referent died mark
        #: their handles as GC candidates.  A plain dict of callback-free
        #: ``weakref.ref`` objects, not a ``WeakValueDictionary``: minting
        #: a wrapper is the hot path of every cold apply chain, and the
        #: KeyedRef + removal-callback machinery costs several times the
        #: raw C-level ref.  Dead entries are tolerated until the next
        #: :meth:`collect` (a GC safe point), which purges them.
        self._wrappers: Dict[int, "weakref.ref[BDD]"] = {}
        #: Strong ring of recently minted wrappers.  Without it every
        #: transient intermediate result pays wrapper + weakref churn on
        #: each touch (the dominant cost of warm small operations); the
        #: ring keeps the hot working set interned.  It is flushed by
        #: :meth:`collect`, so the collector still sees exactly the
        #: wrappers external code holds.  Allocated lazily on the first
        #: mint and kept small (256 slots cover the warm working sets
        #: measured in ``bench_bdd_kernel``): the ring's strong wrapper
        #: references are what make a dropped manager *cyclic* garbage,
        #: so every slot is weight the cycle collector must walk — the
        #: measured cold-chain tax of the old eager 1024-slot ring.
        self._recent_wrappers: Optional[List[Optional[BDD]]] = None
        self._recent_index = 0
        # Terminal wrappers without the __init__ dispatch (cold manager
        # construction is a measured regime; see _wrap).
        zero = _bdd_alloc(BDD)
        zero.manager = self
        zero._h = 0
        one = _bdd_alloc(BDD)
        one.manager = self
        one._h = 1
        self.zero = zero
        self.one = one
        #: Session-scoped artifact cache for layers above the kernel
        #: (e.g. the relational backend's extracted beta relations).
        #: Entries hold wrappers, so they double as GC roots; the cache
        #: lives exactly as long as the manager — the pool's session.
        self.session_cache: Dict[object, object] = {}
        if variables:
            # Inlined declare loop: fresh short-lived managers (cold
            # chains, worker rehydration) construct in bulk.
            level_of = self._level_of
            name_of = self._name_of
            for name in variables:
                if name not in level_of:
                    level_of[name] = len(name_of)
                    name_of.append(name)
            self._depth_hint = len(name_of)

    # ------------------------------------------------------------------
    # Kernel hooks & wrapper interning
    # ------------------------------------------------------------------
    def _external_roots(self) -> List[int]:
        # Materialising items() pins the mapping for the duration of the
        # walk; dead refs are simply skipped (purged by collect()).
        return [
            handle
            for handle, ref in list(self._wrappers.items())
            if ref() is not None
        ]

    def _wrap(self, handle: int) -> BDD:
        """The canonical wrapper for ``handle`` (interned, weak)."""
        if handle < 2:
            return self.one if handle else self.zero
        ref = self._wrappers.get(handle)
        if ref is not None:
            wrapper = ref()
            if wrapper is not None:
                return wrapper
        # Minting is hot on cold chains: allocate the wrapper without
        # the __init__ dispatch and set its two slots directly.
        wrapper = _bdd_alloc(BDD)
        wrapper.manager = self
        wrapper._h = handle
        self._wrappers[handle] = _weakref_new(wrapper)
        ring = self._recent_wrappers
        if ring is None:
            ring = self._recent_wrappers = [None] * 256
        index = self._recent_index + 1 & 255
        self._recent_index = index
        ring[index] = wrapper
        return wrapper

    def collect(self, roots: Optional[Iterable[object]] = None) -> int:
        """Mark-and-sweep the arena; ``roots`` may be wrappers or handles."""
        handles: Optional[List[int]] = None
        if roots is not None:
            handles = [
                root._h if isinstance(root, BDD) else root for root in roots
            ]
        # Flush the strong wrapper ring: it exists for interning speed,
        # not liveness, and dropping it here (refcounts retire the dead
        # wrappers synchronously) keeps the root set exactly the
        # wrappers external code still holds.  The next mint lazily
        # re-allocates it.
        self._recent_wrappers = None
        reclaimed = super().collect(handles)
        # Purge interning entries whose wrapper died (the mapping uses
        # callback-free refs, so dead entries linger until a safe point).
        wrappers = self._wrappers
        for handle in [h for h, ref in wrappers.items() if ref() is None]:
            del wrappers[handle]
        return reclaimed

    # ------------------------------------------------------------------
    # Arena snapshots (name-aware)
    # ------------------------------------------------------------------
    def snapshot(
        self, roots: Iterable[BDD], declares: Optional[Iterable[str]] = None
    ) -> Dict[str, object]:
        """Name-aware arena snapshot of the functions in ``roots``.

        Extends the kernel's compact serialisation with the variable
        *names* behind the recorded levels, which is what lets another
        manager — with its own (possibly longer or differently prefixed)
        order — rehydrate the functions: :meth:`restore` maps each
        recorded level to the target manager's level of the same name
        and revalidates monotonicity, so only the *relative* order of
        the variables actually used must match.  ``declares`` records a
        declaration sequence to replay verbatim before restoring; it
        defaults to the used variables in this manager's order, and the
        beta backend passes the exact declarations its extraction would
        have performed, keeping the declared order of a rehydrating
        manager byte-identical to a freshly extracting one.
        """
        with telemetry.span("snapshot.serialize", manager=self) as ser_span:
            payload = super().snapshot(
                [root._h if isinstance(root, BDD) else root for root in roots]
            )
            names = self._name_of
            try:
                payload["level_names"] = [
                    [lvl, names[lvl]] for lvl in sorted(set(payload["levels"]))
                ]
            except IndexError:
                raise SnapshotError(
                    "snapshot roots test levels with no declared variable"
                ) from None
            if declares is None:
                declares = [name for _lvl, name in payload["level_names"]]
            payload["declares"] = list(declares)
            ser_span.set(nodes=len(payload.get("levels", ())))
        return payload

    def restore(self, payload: Dict[str, object]) -> List[BDD]:
        """Rehydrate a :meth:`snapshot` payload; returns the root wrappers.

        Replays the recorded declaration sequence, maps recorded levels
        to this manager's levels by variable name, and rebuilds the
        nodes through the hash-consing constructor (see the kernel's
        :meth:`~repro.bdd.kernel.BDDKernel.restore` for the validation
        guarantees).  Raises :class:`~repro.bdd.kernel.SnapshotError` on
        any mismatch — unknown variables, incompatible relative order,
        corrupt payload — without having built a wrong function; the
        declarations it may have replayed are exactly the ones a fresh
        computation would declare, so a failed restore leaves the
        manager in the state that fallback recomputation expects.

        Traced as two sibling spans: ``snapshot.validate`` (bookkeeping
        checks, declaration replay, level mapping) and
        ``snapshot.build`` (the kernel's node validation and
        hash-consing).
        """
        with telemetry.span("snapshot.validate", manager=self) as val_span:
            level_map = self._restore_level_map(payload)
            val_span.set(declares=len(payload.get("declares", ())))
        with telemetry.span("snapshot.build", manager=self) as build_span:
            handles = super().restore(payload, level_map)
            build_span.set(roots=len(handles))
        wrap = self._wrap
        return [wrap(handle) for handle in handles]

    def _restore_level_map(self, payload: Dict[str, object]) -> Dict[int, int]:
        """Validate a snapshot's bookkeeping, replay its declarations and
        return the map from recorded levels to this manager's levels."""
        try:
            declares = payload.get("declares", ())
            level_names = payload["level_names"]
        except (TypeError, KeyError, AttributeError) as exc:
            raise SnapshotError(f"malformed snapshot payload: {exc!r}") from None
        # Validate the payload's bookkeeping *before* touching the
        # manager: declare_all mutates the (possibly pooled, shared)
        # variable order, and a malformed record must not leave stray
        # declarations behind — that would silently break the
        # order-signature pooling contract for every later scenario.
        if not isinstance(declares, (list, tuple)) or not all(
            isinstance(name, str) for name in declares
        ):
            raise SnapshotError("malformed snapshot declares (not a name list)")
        try:
            pairs = [(int(lvl), name) for lvl, name in level_names]
        except (TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed level_names entry: {exc!r}") from None
        if not all(isinstance(name, str) for _lvl, name in pairs):
            raise SnapshotError("malformed level_names entry (non-string name)")
        declares_set = set(declares)
        for _lvl, name in pairs:
            if name not in self._level_of and name not in declares_set:
                # Refuse before declaring anything: replaying declares
                # and *then* failing the name mapping would leave stray
                # declarations on this (possibly pooled) manager.
                raise SnapshotError(
                    f"snapshot variable {name!r} is neither declared nor in "
                    "the snapshot's declaration sequence"
                )
        self.declare_all(declares)
        level_map: Dict[int, int] = {}
        level_of = self._level_of
        for lvl, name in pairs:
            target = level_of.get(name)
            if target is None:
                raise SnapshotError(
                    f"snapshot variable {name!r} is not declared on this manager"
                )
            level_map[lvl] = target
        return level_map

    def arena_image(self) -> Dict[str, object]:
        """The kernel's arena image plus the declared variable order."""
        image = super().arena_image()
        image["names"] = self._name_of.copy()
        return image

    def adopt_image(
        self, image: Dict[str, object], roots: Iterable[int] = ()
    ) -> List[BDD]:
        """Adopt a copy of ``image`` (see the kernel's
        :meth:`~repro.bdd.kernel.BDDKernel.adopt_image`) together with
        its variable order; returns wrappers for the ``roots`` handles.

        The image's order must extend this manager's, as its arena must
        extend this arena; otherwise :class:`ValueError` is raised with
        the manager untouched.
        """
        names = image["names"]
        if names[: len(self._name_of)] != self._name_of:
            raise ValueError("arena image's variable order does not extend this one")
        super().adopt_image(image)
        self._name_of = names.copy()
        self._level_of = dict(zip(names, range(len(names))))
        self._depth_hint = len(names)
        wrap = self._wrap
        return [wrap(handle) for handle in roots]

    def arena_shape(self) -> Tuple[int, int, int]:
        """``(arena length, declared variables, free-listed handles)``."""
        return len(self._level), len(self._name_of), len(self._free)

    # ------------------------------------------------------------------
    # Variable order management
    # ------------------------------------------------------------------
    def declare(self, name: str) -> None:
        """Append ``name`` to the variable order if not already present."""
        if name in self._level_of:
            return
        self._level_of[name] = len(self._name_of)
        self._name_of.append(name)
        self._depth_hint = len(self._name_of)

    def declare_all(self, names: Iterable[str]) -> None:
        """Declare several variables in the given order."""
        for name in names:
            self.declare(name)

    @property
    def variables(self) -> Tuple[str, ...]:
        """The current variable order, root-most first."""
        return tuple(self._name_of)

    def level(self, name: str) -> int:
        """Level (order position) of a declared variable."""
        try:
            return self._level_of[name]
        except KeyError:
            raise BDDOrderError(f"variable {name!r} has not been declared") from None

    def name_at_level(self, level: int) -> str:
        """Variable name at a given level."""
        return self._name_of[level]

    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._name_of)

    def _levels_of(self, names: Iterable[str]) -> frozenset:
        """Level set of declared variable names (inlined hot-path form)."""
        lof = self._level_of
        try:
            return frozenset(lof[name] for name in names)
        except KeyError as exc:
            raise BDDOrderError(
                f"variable {exc.args[0]!r} has not been declared"
            ) from None

    def _levels_map(self, pairs: Iterable[Tuple[str, object]]) -> Dict[int, object]:
        """``{level: value}`` from ``(name, value)`` pairs (hot-path form)."""
        lof = self._level_of
        try:
            return {lof[name]: value for name, value in pairs}
        except KeyError as exc:
            raise BDDOrderError(
                f"variable {exc.args[0]!r} has not been declared"
            ) from None

    # ------------------------------------------------------------------
    # Per-level node index
    # ------------------------------------------------------------------
    def nodes_at_level(self, level: int) -> List[BDD]:
        """Live non-terminal nodes currently testing the variable at ``level``.

        Served from the level's unique subtable in O(population) — no
        scan of the other levels — which is what makes engine-scale
        sifting affordable: an adjacent level swap reads exactly the two
        subtables it touches.
        """
        sub = self._table.get(level)
        if not sub:
            return []
        wrap = self._wrap
        return [wrap(handle) for handle in sub.values()]

    def level_population(self) -> Dict[int, int]:
        """Node count per level: the sizes of the non-empty subtables."""
        return {level: len(sub) for level, sub in self._table.items() if sub}

    # ------------------------------------------------------------------
    # Dynamic reordering support (see repro.bdd.reorder)
    # ------------------------------------------------------------------
    def add_reorder_hook(self, hook: Callable[["BDDManager"], None]) -> None:
        """Register ``hook`` to be called after any variable-order change.

        Hooks let owners of derived state — the campaign engine's manager
        pool, memo tables keyed by variable order — invalidate themselves
        when :mod:`repro.bdd.reorder` changes the order under them.
        """
        self._reorder_hooks.append(hook)

    def remove_reorder_hook(self, hook: Callable[["BDDManager"], None]) -> None:
        """Unregister a previously added reorder hook (no-op if absent)."""
        try:
            self._reorder_hooks.remove(hook)
        except ValueError:
            pass

    @property
    def reorder_count(self) -> int:
        """How many variable-order changes this manager has undergone."""
        return self._reorder_count

    def _note_order_change(self) -> None:
        """Invalidate order-dependent state after a level swap.

        The op cache keys results by levels (through the interned
        level-set/substitution signatures), which a swap renumbers, so
        it is dropped.  The ITE cache is *kept*: its keys and values are
        pure handles, every handle keeps denoting the same Boolean
        function through a function-preserving swap, and the unique
        table keeps every live node canonical under the new order — so
        each cached ``r = ite(f, g, h)`` equation still holds verbatim.
        (The object-graph kernel dropped it anyway for obviousness; at
        array-kernel swap rates the wholesale clear of a warm
        ~10^5-entry cache was the dominant cost of a fat swap.)
        Registered reorder hooks fire last so pool owners can re-key or
        evict this manager.
        """
        if self._op_cache:
            self._drop_cache(self._op_cache)
        self._reorder_count += 1
        for hook in list(self._reorder_hooks):
            hook(self)

    def sift(
        self,
        roots: Optional[Iterable[BDD]] = None,
        converge: bool = True,
        max_passes: int = 4,
        max_variables: Optional[int] = None,
        max_excursion: Optional[int] = None,
    ):
        """Dynamically reorder this manager's variables by Rudell sifting.

        Convenience wrapper over :func:`repro.bdd.reorder.converge_sift`
        (one pass when ``converge`` is false).  ``roots`` — the functions
        the caller still cares about — make the size metric exact; without
        them the unique-table size (which includes dead intermediate
        nodes) is used.  ``max_variables`` bounds how many variables each
        pass sifts and ``max_excursion`` how many levels each travels
        (the time budgets on big tables; swaps themselves are in-place
        array writes over the per-level node index, so the metric
        traversal dominates).  Returns the
        :class:`~repro.bdd.reorder.SiftResult`.
        """
        from .reorder import converge_sift

        return converge_sift(
            self,
            roots=roots,
            max_passes=max_passes if converge else 1,
            max_variables=max_variables,
            max_excursion=max_excursion,
        )

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: BDD, high: BDD) -> BDD:
        """Hash-consed node constructor with the reduction rules applied."""
        return self._wrap(self._mk_int(level, low._h, high._h))

    def constant(self, value: bool) -> BDD:
        """The terminal node for a Boolean constant."""
        return self.one if value else self.zero

    def var(self, name: str) -> BDD:
        """The function of a single positive literal."""
        lvl = self._level_of.get(name)
        if lvl is None:
            self.declare(name)
            lvl = self._level_of[name]
        return self._wrap(self._mk_int(lvl, 0, 1))

    def nvar(self, name: str) -> BDD:
        """The function of a single negative literal."""
        lvl = self._level_of.get(name)
        if lvl is None:
            self.declare(name)
            lvl = self._level_of[name]
        return self._wrap(self._mk_int(lvl, 1, 0))

    # ------------------------------------------------------------------
    # Core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: BDD, g: BDD, h: BDD) -> BDD:
        """Compute ``if f then g else h``.

        All binary Boolean connectives are expressed through ``ite``,
        which plays the role of the recursive *apply* operation of
        Section 3.2 (here: one explicit-stack core over the arrays, see
        :meth:`~repro.bdd.kernel.BDDKernel._ite3`).
        """
        return self._wrap(self._ite3(f._h, g._h, h._h))

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def apply_not(self, f: BDD) -> BDD:
        """Negation of ``f``."""
        return self._wrap(self._ite3(f._h, 0, 1))

    def apply_and(self, f: BDD, g: BDD) -> BDD:
        """Conjunction of ``f`` and ``g``."""
        return self._wrap(self._and2(f._h, g._h))

    def apply_or(self, f: BDD, g: BDD) -> BDD:
        """Disjunction of ``f`` and ``g``."""
        return self._wrap(self._or2(f._h, g._h))

    def apply_xor(self, f: BDD, g: BDD) -> BDD:
        """Exclusive or of ``f`` and ``g``."""
        return self._wrap(self._xor2(f._h, g._h))

    def apply_xnor(self, f: BDD, g: BDD) -> BDD:
        """Equivalence (XNOR) of ``f`` and ``g``."""
        return self._wrap(self._xor2(f._h, g._h, xnor=True))

    def apply_nand(self, f: BDD, g: BDD) -> BDD:
        """NAND of ``f`` and ``g``."""
        return self._wrap(self._ite3(self._and2(f._h, g._h), 0, 1))

    def apply_nor(self, f: BDD, g: BDD) -> BDD:
        """NOR of ``f`` and ``g``."""
        return self._wrap(self._ite3(self._or2(f._h, g._h), 0, 1))

    def apply_implies(self, f: BDD, g: BDD) -> BDD:
        """Implication ``f -> g``."""
        return self._wrap(self._ite3(f._h, g._h, 1))

    def conjoin(self, functions: Iterable[BDD]) -> BDD:
        """Conjunction of an iterable of functions (1 for the empty set)."""
        result = 1
        for f in functions:
            result = self._and2(result, f._h)
            if result == 0:
                break
        return self._wrap(result)

    def disjoin(self, functions: Iterable[BDD]) -> BDD:
        """Disjunction of an iterable of functions (0 for the empty set)."""
        result = 0
        for f in functions:
            result = self._or2(result, f._h)
            if result == 1:
                break
        return self._wrap(result)

    # ------------------------------------------------------------------
    # Cofactoring / restriction
    # ------------------------------------------------------------------
    def restrict(self, f: BDD, assignment: Mapping[str, bool]) -> BDD:
        """Cofactor ``f`` by the literals in ``assignment``.

        Cofactoring by a literal is the "trivial operation" of Section
        3.3: the corresponding decision nodes are bypassed in the
        direction of the assigned value.
        """
        if not assignment:
            return f
        by_level = self._levels_map(
            (name, bool(value)) for name, value in assignment.items()
        )
        sig = self._sig(("r", tuple(sorted(by_level.items()))))
        return self._wrap(self._restrict_u(f._h, by_level, sig))

    def cofactor(self, f: BDD, name: str, value: bool) -> BDD:
        """Cofactor ``f`` by a single literal."""
        return self.restrict(f, {name: value})

    # ------------------------------------------------------------------
    # Quantification (smoothing)
    # ------------------------------------------------------------------
    def exists(self, names: Iterable[str], f: BDD) -> BDD:
        """Smoothing operator: existentially quantify ``names`` out of ``f``.

        Implements Definition 3.3.1: ``S_x f = f|x=1 + f|x=0`` applied to
        every variable in ``names``.
        """
        levels = self._levels_of(names)
        if not levels:
            return f
        sig = self._sig(("q", levels))
        return self._wrap(self._quantify_u(OP_EXISTS, f._h, levels, sig))

    def forall(self, names: Iterable[str], f: BDD) -> BDD:
        """Universally quantify ``names`` out of ``f``."""
        levels = self._levels_of(names)
        if not levels:
            return f
        sig = self._sig(("q", levels))
        return self._wrap(self._quantify_u(OP_FORALL, f._h, levels, sig))

    def and_exists(self, names: Iterable[str], f: BDD, g: BDD) -> BDD:
        """Relational product: ``exists names . (f AND g)``.

        The conjunction and the smoothing are performed in one pass, as
        suggested in the paper ([BCMD90]); this avoids building the
        possibly large intermediate conjunction.
        """
        levels = self._levels_of(names)
        if not levels:
            return self.apply_and(f, g)
        sig = self._sig(("q", levels))
        return self._wrap(self._and_exists_u(f._h, g._h, levels, sig))

    # ------------------------------------------------------------------
    # Composition and renaming
    # ------------------------------------------------------------------
    def compose(self, f: BDD, substitution: Mapping[str, BDD]) -> BDD:
        """Simultaneously substitute functions for variables in ``f``.

        This is the workhorse of functional symbolic simulation: the
        next-state function of a register is composed with the formulae
        of the current symbolic state to roll the machine forward one
        cycle.
        """
        if not substitution:
            return f
        by_level = self._levels_map(
            (name, g._h) for name, g in substitution.items()
        )
        sig = self._sig(("c", tuple(sorted(by_level.items()))))
        return self._wrap(self._compose_u(f._h, by_level, sig))

    def compose_all(
        self,
        functions: Iterable[BDD],
        substitution: Mapping[str, BDD],
        memo: Optional[Dict[int, int]] = None,
    ) -> List[BDD]:
        """``[compose(f, substitution) for f in functions]`` in one walk.

        Variables bound to a constant are cofactored away without
        visiting the dead branch.  Subresults are shared across all of
        ``functions``; pass the same ``memo`` dict (initially empty) to
        several calls with the *same* substitution to share them across
        calls too.  The memo holds raw handles, so drop it before the
        manager reorders or collects.
        """
        by_level = self._levels_map(
            (name, g._h) for name, g in substitution.items()
        )
        roots = self._compose_all_u(
            [f._h for f in functions], by_level, {} if memo is None else memo
        )
        wrap = self._wrap
        return [wrap(r) for r in roots]

    def rename(self, f: BDD, mapping: Mapping[str, str]) -> BDD:
        """Rename variables of ``f`` according to ``mapping``.

        Implemented through :meth:`compose`; the target variables are
        declared on demand.
        """
        substitution = {old: self.var(new) for old, new in mapping.items()}
        return self.compose(f, substitution)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_tautology(self, f: BDD) -> bool:
        """Whether ``f`` is the constant-1 function."""
        return f._h == 1

    def is_contradiction(self, f: BDD) -> bool:
        """Whether ``f`` is the constant-0 function."""
        return f._h == 0

    def is_satisfiable(self, f: BDD) -> bool:
        """Whether ``f`` has at least one satisfying assignment."""
        return f._h != 0

    def equivalent(self, f: BDD, g: BDD) -> bool:
        """Canonical equivalence check: node (handle) identity."""
        return f._h == g._h

    def evaluate(self, f: BDD, assignment: Mapping[str, bool]) -> bool:
        """Evaluate ``f`` under a (total enough) variable assignment."""
        level = self._level
        low = self._low
        high = self._high
        names = self._name_of
        h = f._h
        while h >= 2:
            name = names[level[h]]
            if name not in assignment:
                raise KeyError(f"assignment missing variable {name!r}")
            h = high[h] if assignment[name] else low[h]
        return bool(h)

    def support(self, f: BDD) -> Tuple[str, ...]:
        """Names of the variables ``f`` actually depends on, in order."""
        level = self._level
        low = self._low
        high = self._high
        seen = set()
        levels = set()
        stack = [f._h]
        while stack:
            h = stack.pop()
            if h < 2 or h in seen:
                continue
            seen.add(h)
            levels.add(level[h])
            stack.append(low[h])
            stack.append(high[h])
        return tuple(self._name_of[lvl] for lvl in sorted(levels))

    def count_nodes(self, f: BDD) -> int:
        """Number of distinct nodes in ``f`` (including terminals reached)."""
        low = self._low
        high = self._high
        seen = set()
        stack = [f._h]
        while stack:
            h = stack.pop()
            if h in seen:
                continue
            seen.add(h)
            if h >= 2:
                stack.append(low[h])
                stack.append(high[h])
        return len(seen)

    def size(self) -> int:
        """Total number of live non-terminal nodes in the unique table."""
        return self._live

    def sat_count(self, f: BDD, variables: Optional[Sequence[str]] = None) -> int:
        """Number of satisfying assignments of ``f`` over ``variables``.

        If ``variables`` is omitted, the support of ``f`` is used.
        """
        if variables is None:
            variables = self.support(f)
        var_levels = sorted(self.level(name) for name in variables)
        support_levels = set(self.level(name) for name in self.support(f))
        if not support_levels.issubset(var_levels):
            missing = support_levels.difference(var_levels)
            names = [self._name_of[level] for level in sorted(missing)]
            raise ValueError(f"sat_count variable set misses support variables {names}")
        index_of = {level: i for i, level in enumerate(var_levels)}
        total = len(var_levels)
        level = self._level
        low = self._low
        high = self._high
        root = f._h
        if root < 2:
            return root * (1 << total)
        cache: Dict[int, int] = {}
        stack = [root]
        while stack:
            h = stack[-1]
            if h in cache:
                stack.pop()
                continue
            lo = low[h]
            hi = high[h]
            pending = False
            if hi >= 2 and hi not in cache:
                stack.append(hi)
                pending = True
            if lo >= 2 and lo not in cache:
                stack.append(lo)
                pending = True
            if pending:
                continue
            position = index_of[level[h]]
            if lo < 2:
                below = lo * (1 << (total - position - 1))
            else:
                below = cache[lo] << (index_of[level[lo]] - position - 1)
            if hi < 2:
                below += hi * (1 << (total - position - 1))
            else:
                below += cache[hi] << (index_of[level[hi]] - position - 1)
            cache[h] = below
            stack.pop()
        return cache[root] << index_of[level[root]]

    def pick_assignment(
        self, f: BDD, value: bool = True
    ) -> Optional[Dict[str, bool]]:
        """One assignment taking ``f`` to ``value`` (minimal: only decided vars).

        The walk goes low whenever the low child is not the other
        terminal: in a reduced diagram every other node reaches both.
        """
        h = f._h
        dead = 0 if value else 1
        if h == dead:
            return None
        level = self._level
        low = self._low
        high = self._high
        names = self._name_of
        assignment: Dict[str, bool] = {}
        while h >= 2:
            name = names[level[h]]
            if low[h] != dead:
                assignment[name] = False
                h = low[h]
            else:
                assignment[name] = True
                h = high[h]
        return assignment

    def pick_assignment_in_order(
        self, f: BDD, names: Sequence[str]
    ) -> Optional[Dict[str, bool]]:
        """The assignment :meth:`pick_assignment` returns under order ``names``.

        ``f`` is canonical, so the low-first witness walk depends only on
        the function and the order it is walked in, not on this
        manager's order: each step decides the ``names``-earliest
        variable of the current cofactor's support, ``False`` whenever
        that cofactor stays satisfiable.  A support variable missing
        from ``names`` raises :class:`ValueError`.  One walk of
        :meth:`walker_in_order`.
        """
        return self.walker_in_order(names)(f)

    def walker_in_order(
        self, names: Sequence[str], value: bool = True
    ) -> Callable[[BDD], Optional[Dict[str, bool]]]:
        """:meth:`pick_assignment_in_order` for many functions, to ``value``.

        The returned walk takes a function to the ``value`` terminal
        (``None`` when it is the other constant).  Supports are bitmasks
        over positions in ``names``, memoised per node; the position
        table and the masks are shared by every call of one walker, so
        a walk only visits the nodes no earlier walk reached.  Node
        handles must stay put between calls: no :meth:`collect` or
        reordering while a walker is in use.
        """
        level = self._level
        low = self._low
        high = self._high
        level_of = self._level_of
        dead = 0 if value else 1
        position: Dict[int, int] = {}
        for index, name in enumerate(names):
            lvl = level_of.get(name)
            if lvl is not None:
                position.setdefault(lvl, index)
        masks: Dict[int, int] = {0: 0, 1: 0}

        def support_mask(root: int) -> int:
            stack = [root]
            while stack:
                n = stack[-1]
                if n in masks:
                    stack.pop()
                    continue
                lo = low[n]
                hi = high[n]
                if lo not in masks:
                    stack.append(lo)
                elif hi not in masks:
                    stack.append(hi)
                else:
                    index = position.get(level[n])
                    if index is None:
                        raise ValueError(
                            "pick_assignment_in_order: order misses support "
                            f"variable {self._name_of[level[n]]!r}"
                        )
                    masks[n] = masks[lo] | masks[hi] | (1 << index)
                    stack.pop()
            return masks[root]

        def cofactor(n: int, lvl: int, value: bool) -> int:
            return self._restrict_u(n, {lvl: value}, self._sig(("r", ((lvl, value),))))

        def walk(f: BDD) -> Optional[Dict[str, bool]]:
            h = f._h
            if h == dead:
                return None
            assignment: Dict[str, bool] = {}
            while h >= 2:
                mask = support_mask(h)
                name = names[(mask & -mask).bit_length() - 1]
                lvl = level_of[name]
                rest = cofactor(h, lvl, False)
                decided = rest == dead
                if decided:
                    rest = cofactor(h, lvl, True)
                assignment[name] = decided
                h = rest
            return assignment

        return walk

    def iter_assignments(
        self, f: BDD, variables: Optional[Sequence[str]] = None
    ) -> Iterator[Dict[str, bool]]:
        """Iterate over all satisfying assignments over ``variables``."""
        if variables is None:
            variables = self.support(f)
        names = list(variables)
        for values in itertools.product([False, True], repeat=len(names)):
            assignment = dict(zip(names, values))
            restricted = self.restrict(f, assignment)
            if restricted._h == 1:
                yield assignment

    def cube(self, assignment: Mapping[str, bool]) -> BDD:
        """The conjunction of literals described by ``assignment``."""
        for name in assignment:
            if name not in self._level_of:
                self.declare(name)
        items = sorted(
            ((self._level_of[name], bool(value)) for name, value in assignment.items()),
            reverse=True,
        )
        h = 1
        for lvl, value in items:
            h = self._mk_int(lvl, 0, h) if value else self._mk_int(lvl, h, 0)
        return self._wrap(h)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, int]:
        """Basic manager statistics for reporting."""
        return {
            "variables": self.num_vars(),
            "unique_table_nodes": self._live,
            "ite_cache_entries": len(self._ite_cache),
            "quantify_cache_entries": len(self._op_cache),
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
        }
