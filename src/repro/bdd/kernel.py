"""Array-backed ROBDD kernel: integer handles, unified ITE core, arena GC.

This module is the representation layer beneath
:class:`~repro.bdd.manager.BDDManager`.  Nodes are not heap objects:
they live in parallel Python lists — ``_level[h]``, ``_low[h]``,
``_high[h]`` plus a ``_mark[h]`` word for the collector — and a node
*is* its index ``h`` (the CUDD-style struct-of-arrays layout).  Handle
0 is the constant-0 terminal, handle 1 the constant-1 terminal,
decision nodes start at 2.  The unique table maps a node's ``(level,
low, high)`` record to its handle, which is what keeps the diagrams
reduced and canonical: equal functions have equal handles.  It is
split into per-level subtables, and those subtables are the only
per-level node index: the live nodes at a level are exactly one
subtable's values, so reordering and population queries read them
directly and allocation keeps no second copy.

Three properties distinguish this kernel from the object-graph one it
replaced:

* **One ITE core, two gears.**  Every Boolean connective is a call
  into :meth:`BDDKernel._ite3` (or its specialised AND/OR/XOR
  siblings), with CUDD's standard-triple normalisation (``ite(f,f,h) =
  ite(f,1,h)``, commutative AND/OR argument ordering, negation pairs
  cached both ways) ahead of every cache lookup.  Expansions with at
  most :data:`ITE_FAST_DEPTH` levels below their top variable run in a
  bounded-depth recursive fast path (one cheap Python frame per
  expanded node); an expansion deeper than the budget is routed,
  whole, to the explicit-stack form, so 3000-level diagrams never
  touch the native recursion limit.  One budget bounds every nested
  fast-path call, XOR's inline negations included.
  Restriction, composition, quantification and the relational product
  are explicit-stack walkers over the same arrays that bottom out in
  the core.
* **Int-packed keys, off the cyclic collector.**  Every unique-table
  and cache key is one Python int with 32-bit handle fields (layouts in
  :func:`unique_key`, :func:`ite_key`, :func:`op_key`,
  :func:`xor_key` and :func:`and_exists_key`; the hot paths inline
  them).  A dict holding only int keys and int values is never tracked
  by CPython's cyclic collector, so the subtables and both caches cost
  no collector time however large they grow, and an int key takes
  about half the bytes of the tuple it replaced.  The ITE cache and the
  operation cache (restrict/compose/quantify/and-exists/XOR, keyed by a
  3-bit opcode, the operand handles and an interned 16-bit signature of
  the variable set) carry the hit/miss/eviction accounting the campaign
  engine reports; ``cache_limit`` bounds each cache by wholesale drop.
* **Arena GC.**  Dead nodes are reclaimed by mark-and-sweep
  (:meth:`BDDKernel.collect`): roots are every handle external code can
  still name (the manager's weakly-interned wrappers, see
  :mod:`repro.bdd.node`) plus any handles the caller passes; unmarked
  nodes leave the unique table and their handles go onto a free-list
  for reuse, so the arena stops growing across reorder sessions and
  long campaigns.  Collection only runs at safe points (explicit
  calls, sifting sweeps) — never inside an operation.
"""

from __future__ import annotations

import base64
import sys
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from .node import TERMINAL_LEVEL

#: Opcodes of the shared operation cache (the low 3 bits of every key).
OP_EXISTS = 1
OP_FORALL = 2
OP_RESTRICT = 3
OP_COMPOSE = 4
OP_ANDEX = 5
OP_XOR = 6
OP_XNOR = 7

#: Handles are packed into 32-bit key fields, so every handle must stay
#: below this bound.  :meth:`BDDKernel.restore` refuses a payload that
#: could cross it; allocation needs no check, because a 2**32-slot
#: arena would hold four 2**32-slot column lists (``_level``, ``_low``,
#: ``_high``, ``_mark``) of 8-byte pointers — 128 GiB before a single
#: int object or subtable entry — long before which the process is out
#: of memory.
HANDLE_LIMIT = 1 << 32


# Packed key layouts.  One fixed layout per table, each injective while
# handles stay below HANDLE_LIMIT and signatures below
# BDDKernel.SIG_INTERN_LIMIT (16 bits).  The hot paths inline these
# expressions; the functions are their single written definition.
def unique_key(low: int, high: int) -> int:
    """Unique-subtable key of a node with children ``low``/``high``."""
    return low << 32 | high


def ite_key(f: int, g: int, h: int) -> int:
    """ITE-cache key of the normalised triple ``(f, g, h)``.

    A negation ``ite(f, 0, 1)`` is the key ``f << 64 | 1``: its low 64
    bits equal 1, which is how the stack gear spots one.
    """
    return f << 64 | g << 32 | h


def op_key(op: int, n: int, sig: int) -> int:
    """Op-cache key of a restrict/compose/quantify result for node ``n``."""
    return (n << 16 | sig) << 3 | op


def xor_key(op: int, f: int, g: int) -> int:
    """Op-cache key of ``f XOR g`` (``op`` is OP_XOR or OP_XNOR)."""
    return (f << 32 | g) << 19 | op


def and_exists_key(a: int, b: int, sig: int) -> int:
    """Op-cache key of the relational product of ``a`` and ``b``."""
    return ((a << 32 | b) << 16 | sig) << 3 | OP_ANDEX


#: Version tag embedded in :meth:`BDDKernel.snapshot` payloads.
SNAPSHOT_FORMAT = 1

#: Recursion budget of the ITE/AND/OR/XOR fast paths (see
#: :meth:`BDDKernel._ite3`).  Deep enough that the beta advance's
#: substitutions, which sit 20-160 levels above the bottom of the
#: manager, recurse instead of going to the explicit stack.
ITE_FAST_DEPTH = 128


#: Array typecode used for packed snapshots; the on-disk format tag
#: pins the exact layout (little-endian 4-byte signed ints) so packed
#: records are portable across hosts.
_PACK_TYPECODE = "i"
_PACK_TAG = "<i4"
_PACK_PORTABLE = array(_PACK_TYPECODE).itemsize == 4


def pack_snapshot(payload: Dict[str, object]) -> Dict[str, object]:
    """Binary-pack a snapshot's node arrays for cheap persistence.

    JSON-parsing millions of decimal ints dominates large-snapshot
    deserialisation; packed form stores ``levels``/``lows``/``highs`` as
    base64-coded little-endian int32 arrays (still JSON-embeddable),
    which :func:`unpack_snapshot` turns back into lists at memcpy
    speed.  Idempotent on already-packed payloads; on a platform whose
    C ``int`` is not 4 bytes the payload is left unpacked (plain lists
    remain a valid record form).
    """
    if payload.get("packed") or not _PACK_PORTABLE:
        return payload
    packed = dict(payload)
    for name in ("levels", "lows", "highs"):
        values = array(_PACK_TYPECODE, payload[name])
        if sys.byteorder != "little":
            values.byteswap()
        packed[name] = base64.b64encode(values.tobytes()).decode("ascii")
    packed["packed"] = _PACK_TAG
    return packed


def unpack_snapshot(payload: Dict[str, object]) -> Dict[str, object]:
    """Inverse of :func:`pack_snapshot` (no-op on unpacked payloads)."""
    tag = payload.get("packed")
    if not tag:
        return payload
    if tag != _PACK_TAG or not _PACK_PORTABLE:
        raise SnapshotError(f"unsupported snapshot packing {tag!r}")
    unpacked = dict(payload)
    try:
        for name in ("levels", "lows", "highs"):
            values = array(_PACK_TYPECODE)
            values.frombytes(base64.b64decode(payload[name]))
            if sys.byteorder != "little":
                values.byteswap()
            unpacked[name] = values.tolist()
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed packed snapshot: {exc!r}") from None
    del unpacked["packed"]
    return unpacked


class SnapshotError(ValueError):
    """Raised when an arena snapshot cannot be restored faithfully.

    Restoration validates every structural invariant (array lengths,
    topological child references, strictly increasing levels along
    edges) before hash-consing a node, so a truncated or corrupted
    snapshot can only fail loudly — it can never rebuild a diagram that
    denotes the wrong function.  Callers treat this as a cache miss and
    recompute.
    """


class BDDKernel:
    """Handle-level ROBDD arena: arrays, unique table, caches, GC.

    Knows nothing about variable *names* or wrapper objects — that is
    :class:`~repro.bdd.manager.BDDManager`'s job (which subclasses this
    kernel so the hot loops read the arrays without indirection).  All
    methods here take and return integer handles.  A live node is
    recorded in two places only: its slot in the parallel arrays and
    its :func:`unique_key` in the subtable of its level.  The subtables
    and both caches hold ints only, so the cyclic collector never
    tracks them.
    """

    def __init__(self, cache_limit: Optional[int] = None) -> None:
        if cache_limit is not None and cache_limit < 1:
            raise ValueError("cache_limit must be a positive integer or None")
        # Parallel node arrays; slots 0/1 are the terminals (self-loop
        # children so the arrays are total; traversals stop at h < 2).
        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._mark: List[int] = [0, 0]
        #: Unique table, split into per-level subtables (CUDD-style):
        #: level -> {unique_key(low, high) -> handle}.  The subtables
        #: are also the per-level node index: ``_table[level].values()``
        #: is exactly the live handles at that level.  The split is what
        #: makes an adjacent level swap cheap: nodes that only change
        #: *level* keep their subtable keys and move as a whole dict, so
        #: a swap re-keys only the rebuilt nodes.
        self._table: Dict[int, Dict[int, int]] = {}
        #: Reclaimed handles awaiting reuse (LIFO).
        self._free: List[int] = []
        # Operation caches (packed int keys, see ite_key/op_key).
        self._ite_cache: Dict[int, int] = {}
        self._op_cache: Dict[int, int] = {}
        self._sig_intern: Dict[object, int] = {}
        self._cache_limit = cache_limit
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evicted_entries = 0
        self._cache_clears = 0
        #: Total declared levels (maintained by the manager's declare).
        #: The fast paths use ``_depth_hint - top`` — the number of
        #: levels below an operation's top variable — to route deep
        #: expansions straight to the explicit stack in one call
        #: instead of spraying many small stack handoffs at the
        #: recursion-budget frontier.
        self._depth_hint = 0
        # Arena accounting.  ``_live`` and ``_nodes_allocated`` are
        # *derived* (properties below): every non-terminal slot is
        # either keyed in a subtable or parked on the free-list, so the
        # hot allocation tails never touch a counter.  ``_freed_total``
        # only moves inside :meth:`collect`, and the live high-water
        # mark is *sampled* at GC safe points — exact, because the live
        # count is non-decreasing between collections (nodes only die
        # in the sweep).
        self._freed_total = 0
        self._peak_sample = 0
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._mark_epoch = 0

    # ------------------------------------------------------------------
    # Derived arena accounting
    # ------------------------------------------------------------------
    @property
    def _live(self) -> int:
        """Live non-terminal node count (the subtables' total size).

        Derived: every slot past the terminals is either live in a
        subtable or free-listed, so the allocation fast paths pay no
        counter updates.
        """
        return len(self._level) - 2 - len(self._free)

    @property
    def _nodes_allocated(self) -> int:
        """Total allocations, free-list reuse included (derived).

        Fresh slots are array appends (``len(_level) - 2`` of them,
        ever); reuses are pops off the free-list, i.e. everything ever
        freed that is no longer waiting there.
        """
        return len(self._level) - 2 + self._freed_total - len(self._free)

    @property
    def _peak_live(self) -> int:
        """High-water mark of the live count (sampled at safe points)."""
        live = len(self._level) - 2 - len(self._free)
        peak = self._peak_sample
        return live if live > peak else peak

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _external_roots(self) -> List[int]:
        """Handles external code can still name (GC roots).

        The manager overrides this to report its live weak wrappers.
        """
        return []

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _mk_int(self, lvl: int, lo: int, hi: int) -> int:
        """Hash-consed node constructor on handles (reduction rules applied)."""
        if lo == hi:
            return lo
        sub = self._table.get(lvl)
        if sub is None:
            sub = self._table[lvl] = {}
        key = lo << 32 | hi
        h = sub.get(key)
        if h is None:
            free = self._free
            if free:
                h = free.pop()
                self._level[h] = lvl
                self._low[h] = lo
                self._high[h] = hi
            else:
                h = len(self._level)
                self._level.append(lvl)
                self._low.append(lo)
                self._high.append(hi)
            sub[key] = h
        return h

    # ------------------------------------------------------------------
    # The unified ITE core
    # ------------------------------------------------------------------
    #: Depth budget of the recursive ITE/XOR fast path.  Small (cold)
    #: functions resolve entirely inside plain recursion — one Python
    #: frame per expanded node, no per-node task tuples — while any
    #: subproblem still unresolved past the budget falls over to the
    #: explicit stack, which is recursion-limit-proof.  The budget
    #: bounds Python stack use at about a hundred frames regardless of
    #: diagram depth.
    ITE_FAST_DEPTH = ITE_FAST_DEPTH

    def _ite3(self, f: int, g: int, h: int, depth: int = ITE_FAST_DEPTH) -> int:
        """``if f then g else h`` on handles — the one apply operation.

        One self-recursive frame per expanded node: CUDD's
        standard-triple normalisation ahead of every cache lookup
        (``ite(f,f,h)`` becomes the OR form, ``ite(f,g,f)`` the AND
        form, commutative AND/OR operand pairs ordered by handle so both
        argument orders share one cache line; negations ``ite(f,0,1)``
        cached in both directions), then a cache probe, then cofactor
        recursion with the node constructor inlined into the reduce
        step.  ``depth`` is the remaining recursion budget
        (:data:`ITE_FAST_DEPTH` at every external call): cold shallow
        apply chains — model construction from nothing — run entirely in
        this fast path, while a subproblem still unresolved at depth
        zero is delegated to the explicit-stack expansion
        (:meth:`_ite_stack`), so 3000-level diagrams never touch the
        native recursion limit.
        """
        # --- resolve the triple (trivial cases + cache) ----------------
        # Deliberately ahead of the heavy local binding: on warm
        # (pooled) managers most calls end right here.
        if f < 2:
            return g if f else h
        # Two independent tests, not if/elif: ``ite(f, f, f)`` must
        # reduce to ``f`` here, as the recursive gear's caller-side
        # ``g0 == h0`` test reduces it, instead of caching (f, 1, f).
        if f == g:
            g = 1
        if f == h:
            h = 0
        if g == h:
            return g
        if h == 0:
            if g == 1:
                return f
            if g < f:
                f, g = g, f
        elif g == 1 and h < f:
            f, h = h, f
        cache = self._ite_cache
        key = f << 64 | g << 32 | h
        r = cache.get(key)
        if r is not None:
            self._cache_hits += 1
            return r
        level = self._level
        lf = level[f]
        lg = level[g]
        top = lf if lf < lg else lg
        lh = level[h]
        if lh < top:
            top = lh
        if not depth or self._depth_hint - top > depth:
            # Deeper than the recursion budget could cover: expand the
            # whole subproblem on the explicit stack in one go.
            return self._ite_stack(f, g, h, key)
        self._cache_misses += 1
        low = self._low
        high = self._high
        if lf == top:
            f0 = low[f]
            f1 = high[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = low[g]
            g1 = high[g]
        else:
            g0 = g1 = g
        if lh == top:
            h0 = low[h]
            h1 = high[h]
        else:
            h0 = h1 = h
        depth -= 1
        # Terminal-test cofactors resolve inline: leaf calls are nearly
        # half of a cold expansion, and each saved frame is pure win.
        # Equal-branch cofactors collapse without a frame either.
        if f0 < 2:
            r0 = g0 if f0 else h0
        elif g0 == h0:
            r0 = g0
        else:
            r0 = self._ite3(f0, g0, h0, depth)
        if f1 < 2:
            r1 = g1 if f1 else h1
        elif g1 == h1:
            r1 = g1
        else:
            r1 = self._ite3(f1, g1, h1, depth)
        # --- reduce, hash-cons and memoise ----------------------------
        if r0 == r1:
            r = r0
        else:
            sub = self._table.get(top)
            if sub is None:
                sub = self._table[top] = {}
            k2 = r0 << 32 | r1
            free = self._free
            if free:
                r = sub.get(k2)
                if r is None:
                    r = free.pop()
                    level[r] = top
                    low[r] = r0
                    high[r] = r1
                    sub[k2] = r
            else:
                # Single-probe cons: with the free-list empty the next
                # handle is known up front, so probe and insert in one
                # setdefault (the common cold-allocation case).
                n = len(level)
                r = sub.setdefault(k2, n)
                if r == n:
                    level.append(top)
                    low.append(r0)
                    high.append(r1)
        cache[key] = r
        if g == 0 and h == 1:
            cache[r << 64 | 1] = f
        if self._cache_limit is not None and len(cache) > self._cache_limit:
            self._drop_cache(cache)
        return r

    def _ite_stack(self, f: int, g: int, h: int, key: int) -> int:
        """Explicit-stack expansion of a known, normalised ITE cache miss.

        No recursion on BDD structure, so 3000-level diagrams are as
        safe as 3-level ones; the node constructor is inlined into the
        reduce step.  Cofactor triples are *resolved inline*: a child
        that is trivial or already cached contributes its result without
        a stack round-trip, and a child that is not carries its
        normalised triple and cache key in its task.  A task is probed
        once more when it is expanded, and only that probe is counted
        for it: the same triple may have been pushed twice and reduced
        in between, and the recursive gear would hit on the second
        copy.  So both gears report the same hits, misses and
        allocations for one build.  Task tags: 4 = expand a cache miss;
        1/2/3 = reduce with both / only-high / only-low results still on
        the result stack.
        """
        cache = self._ite_cache
        level = self._level
        low = self._low
        high = self._high
        table = self._table
        free = self._free
        limit = self._cache_limit
        hits = 0
        misses = 0
        bounded = limit is not None
        tasks: List[tuple] = [(4, f, g, h, key)]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            t = pop()
            tag = t[0]
            if tag == 4:
                tag, f, g, h, key = t
                # Re-probe: a copy of this triple pushed earlier may
                # have been reduced meanwhile.  Counting here, once per
                # expanded task, books every probe exactly as the
                # recursive gear does.
                r = cache.get(key)
                if r is not None:
                    hits += 1
                    rpush(r)
                    continue
                misses += 1
                lf = level[f]
                lg = level[g]
                top = lf if lf < lg else lg
                lh = level[h]
                if lh < top:
                    top = lh
                if lf == top:
                    f0 = low[f]
                    f1 = high[f]
                else:
                    f0 = f1 = f
                if lg == top:
                    g0 = low[g]
                    g1 = high[g]
                else:
                    g0 = g1 = g
                if lh == top:
                    h0 = low[h]
                    h1 = high[h]
                else:
                    h0 = h1 = h
                # --- resolve the low cofactor inline -------------------
                if f0 < 2:
                    r0 = g0 if f0 else h0
                    k0 = None
                else:
                    if f0 == g0:
                        g0 = 1
                    if f0 == h0:
                        h0 = 0
                    if g0 == h0:
                        r0 = g0
                        k0 = None
                    else:
                        if h0 == 0:
                            if g0 == 1:
                                r0 = f0
                                k0 = None
                            else:
                                if g0 < f0:
                                    f0, g0 = g0, f0
                                k0 = (f0 << 32 | g0) << 32
                                r0 = cache.get(k0)
                        else:
                            if g0 == 1 and h0 < f0:
                                f0, h0 = h0, f0
                            k0 = f0 << 64 | g0 << 32 | h0
                            r0 = cache.get(k0)
                        if r0 is not None and k0 is not None:
                            # Trivial reductions (k0 is None) are not
                            # cache hits; only real lookups count.
                            hits += 1
                # --- resolve the high cofactor inline ------------------
                if f1 < 2:
                    r1 = g1 if f1 else h1
                    k1 = None
                else:
                    if f1 == g1:
                        g1 = 1
                    if f1 == h1:
                        h1 = 0
                    if g1 == h1:
                        r1 = g1
                        k1 = None
                    else:
                        if h1 == 0:
                            if g1 == 1:
                                r1 = f1
                                k1 = None
                            else:
                                if g1 < f1:
                                    f1, g1 = g1, f1
                                k1 = (f1 << 32 | g1) << 32
                                r1 = cache.get(k1)
                        else:
                            if g1 == 1 and h1 < f1:
                                f1, h1 = h1, f1
                            k1 = f1 << 64 | g1 << 32 | h1
                            r1 = cache.get(k1)
                        if r1 is not None and k1 is not None:
                            hits += 1
                if r0 is None:
                    if r1 is None:
                        push((1, top, key))
                        push((4, f1, g1, h1, k1))
                        push((4, f0, g0, h0, k0))
                    else:
                        push((3, top, key, r1))
                        push((4, f0, g0, h0, k0))
                    continue
                if r1 is None:
                    push((2, top, key, r0))
                    push((4, f1, g1, h1, k1))
                    continue
                lo = r0
                hi = r1
            elif tag == 1:
                hi = rpop()
                lo = rpop()
                key = t[2]
                top = t[1]
            elif tag == 2:
                tag, top, key, lo = t
                hi = rpop()
            else:
                tag, top, key, hi = t
                lo = rpop()
            # --- shared reduce tail: hash-cons and memoise -------------
            if lo == hi:
                r = lo
            else:
                sub = table.get(top)
                if sub is None:
                    sub = table[top] = {}
                k2 = lo << 32 | hi
                if free:
                    r = sub.get(k2)
                    if r is None:
                        r = free.pop()
                        level[r] = top
                        low[r] = lo
                        high[r] = hi
                        sub[k2] = r
                else:
                    # Single-probe cons (see _ite3's reduce tail).
                    n = len(level)
                    r = sub.setdefault(k2, n)
                    if r == n:
                        level.append(top)
                        low.append(lo)
                        high.append(hi)
            cache[key] = r
            if key & 0xFFFFFFFFFFFFFFFF == 1:
                # A negation key (g = 0, h = 1): r = NOT f, and negation
                # is an involution, so the reverse lookup is free to
                # memoise as well.
                cache[r << 64 | 1] = key >> 64
            if bounded and len(cache) > limit:
                self._drop_cache(cache)
            rpush(r)
        self._cache_hits += hits
        self._cache_misses += misses
        return results[0]

    # Convenience forms used by the other walkers.
    def _and_int(self, f: int, g: int) -> int:
        return self._and2(f, g)

    def _or_int(self, f: int, g: int) -> int:
        return self._or2(f, g)

    def _not_int(self, f: int) -> int:
        return self._ite3(f, 0, 1)

    def _and2(self, f: int, g: int, depth: int = ITE_FAST_DEPTH) -> int:
        """Conjunction fast path: ``ite(f, g, 0)`` with two-operand frames.

        Normalisation and cache keys are *identical* to the generic
        core's AND form (operands ordered by handle, key ``(f, g, 0)``),
        so results are shared in both directions with :meth:`_ite3`;
        the specialised frame just skips the third-operand juggling the
        triple form pays on every level.  Recursion budget and stack
        fallback as in :meth:`_ite3`.
        """
        if f < 2:
            return g if f else 0
        if g < 2:
            return f if g else 0
        if f == g:
            return f
        if g < f:
            f, g = g, f
        cache = self._ite_cache
        key = (f << 32 | g) << 32
        r = cache.get(key)
        if r is not None:
            self._cache_hits += 1
            return r
        level = self._level
        lf = level[f]
        lg = level[g]
        top = lf if lf < lg else lg
        if not depth or self._depth_hint - top > depth:
            return self._ite_stack(f, g, 0, key)
        self._cache_misses += 1
        low = self._low
        high = self._high
        if lf == top:
            f0 = low[f]
            f1 = high[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = low[g]
            g1 = high[g]
        else:
            g0 = g1 = g
        depth -= 1
        if f0 < 2:
            r0 = g0 if f0 else 0
        elif g0 < 2:
            r0 = f0 if g0 else 0
        elif f0 == g0:
            r0 = f0
        else:
            r0 = self._and2(f0, g0, depth)
        if f1 < 2:
            r1 = g1 if f1 else 0
        elif g1 < 2:
            r1 = f1 if g1 else 0
        elif f1 == g1:
            r1 = f1
        else:
            r1 = self._and2(f1, g1, depth)
        # --- reduce, hash-cons and memoise ----------------------------
        if r0 == r1:
            r = r0
        else:
            sub = self._table.get(top)
            if sub is None:
                sub = self._table[top] = {}
            k2 = r0 << 32 | r1
            free = self._free
            if free:
                r = sub.get(k2)
                if r is None:
                    r = free.pop()
                    level[r] = top
                    low[r] = r0
                    high[r] = r1
                    sub[k2] = r
            else:
                # Single-probe cons: with the free-list empty the next
                # handle is known up front, so probe and insert in one
                # setdefault (the common cold-allocation case).
                n = len(level)
                r = sub.setdefault(k2, n)
                if r == n:
                    level.append(top)
                    low.append(r0)
                    high.append(r1)
        cache[key] = r
        if self._cache_limit is not None and len(cache) > self._cache_limit:
            self._drop_cache(cache)
        return r

    def _or2(self, f: int, g: int, depth: int = ITE_FAST_DEPTH) -> int:
        """Disjunction fast path: ``ite(f, 1, g)`` with two-operand frames.

        Same key discipline as the generic core's OR form (operands
        ordered by handle, key ``(f, 1, g)``); see :meth:`_and2`.
        """
        if f < 2:
            return 1 if f else g
        if g < 2:
            return 1 if g else f
        if f == g:
            return f
        if g < f:
            f, g = g, f
        cache = self._ite_cache
        key = f << 64 | 1 << 32 | g
        r = cache.get(key)
        if r is not None:
            self._cache_hits += 1
            return r
        level = self._level
        lf = level[f]
        lg = level[g]
        top = lf if lf < lg else lg
        if not depth or self._depth_hint - top > depth:
            return self._ite_stack(f, 1, g, key)
        self._cache_misses += 1
        low = self._low
        high = self._high
        if lf == top:
            f0 = low[f]
            f1 = high[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = low[g]
            g1 = high[g]
        else:
            g0 = g1 = g
        depth -= 1
        if f0 < 2:
            r0 = 1 if f0 else g0
        elif g0 < 2:
            r0 = 1 if g0 else f0
        elif f0 == g0:
            r0 = f0
        else:
            r0 = self._or2(f0, g0, depth)
        if f1 < 2:
            r1 = 1 if f1 else g1
        elif g1 < 2:
            r1 = 1 if g1 else f1
        elif f1 == g1:
            r1 = f1
        else:
            r1 = self._or2(f1, g1, depth)
        # --- reduce, hash-cons and memoise ----------------------------
        if r0 == r1:
            r = r0
        else:
            sub = self._table.get(top)
            if sub is None:
                sub = self._table[top] = {}
            k2 = r0 << 32 | r1
            free = self._free
            if free:
                r = sub.get(k2)
                if r is None:
                    r = free.pop()
                    level[r] = top
                    low[r] = r0
                    high[r] = r1
                    sub[k2] = r
            else:
                # Single-probe cons: with the free-list empty the next
                # handle is known up front, so probe and insert in one
                # setdefault (the common cold-allocation case).
                n = len(level)
                r = sub.setdefault(k2, n)
                if r == n:
                    level.append(top)
                    low.append(r0)
                    high.append(r1)
        cache[key] = r
        if self._cache_limit is not None and len(cache) > self._cache_limit:
            self._drop_cache(cache)
        return r

    def _xor2(
        self, f: int, g: int, xnor: bool = False, depth: int = ITE_FAST_DEPTH
    ) -> int:
        """XOR (or XNOR) of two handles as a first-class core operation.

        Without complement edges, routing XOR through ``ite(f, NOT g,
        g)`` materialises the full negation of ``g`` before the combine
        even starts; datapath construction (ALU carry chains) and the
        verifier's ``vector_equal`` compare loops are XOR/XNOR-heavy, so
        the core descends on both operands directly and only negates the
        small terminal-adjacent cofactors.  Commutative pairs are
        ordered by handle; results memoised under :func:`xor_key` in the
        shared op cache.
        """
        one_result = 1 if xnor else 0
        if f == g:
            return one_result
        if f < 2:
            if g < 2:  # f != g, both terminal
                return 0 if xnor else 1
            if f == (0 if xnor else 1):
                return self._ite3(g, 0, 1, depth)
            return g
        if g < 2:
            if g == (0 if xnor else 1):
                return self._ite3(f, 0, 1, depth)
            return f
        if g < f:
            f, g = g, f
        op = OP_XNOR if xnor else OP_XOR
        cache = self._op_cache
        key = (f << 32 | g) << 19 | op
        r = cache.get(key)
        if r is not None:
            self._cache_hits += 1
            return r
        level = self._level
        lf = level[f]
        lg = level[g]
        top = lf if lf < lg else lg
        if not depth or self._depth_hint - top > depth:
            return self._xor_stack(f, g, key, op, xnor, depth)
        self._cache_misses += 1
        low = self._low
        high = self._high
        if lf == top:
            f0 = low[f]
            f1 = high[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = low[g]
            g1 = high[g]
        else:
            g0 = g1 = g
        depth -= 1
        # Terminal-adjacent cofactors resolve inline (mirrors the entry
        # tests); only a genuine two-decision XOR pays a frame.
        neg = 0 if xnor else 1
        if f0 == g0:
            r0 = one_result
        elif f0 < 2:
            r0 = self._ite3(g0, 0, 1, depth) if f0 == neg else g0
        elif g0 < 2:
            r0 = self._ite3(f0, 0, 1, depth) if g0 == neg else f0
        else:
            r0 = self._xor2(f0, g0, xnor, depth)
        if f1 == g1:
            r1 = one_result
        elif f1 < 2:
            r1 = self._ite3(g1, 0, 1, depth) if f1 == neg else g1
        elif g1 < 2:
            r1 = self._ite3(f1, 0, 1, depth) if g1 == neg else f1
        else:
            r1 = self._xor2(f1, g1, xnor, depth)
        # --- reduce, hash-cons and memoise ----------------------------
        if r0 == r1:
            r = r0
        else:
            sub = self._table.get(top)
            if sub is None:
                sub = self._table[top] = {}
            k2 = r0 << 32 | r1
            free = self._free
            if free:
                r = sub.get(k2)
                if r is None:
                    r = free.pop()
                    level[r] = top
                    low[r] = r0
                    high[r] = r1
                    sub[k2] = r
            else:
                # Single-probe cons: with the free-list empty the next
                # handle is known up front, so probe and insert in one
                # setdefault (the common cold-allocation case).
                n = len(level)
                r = sub.setdefault(k2, n)
                if r == n:
                    level.append(top)
                    low.append(r0)
                    high.append(r1)
        cache[key] = r
        if self._cache_limit is not None and len(cache) > self._cache_limit:
            self._drop_cache(cache)
        return r

    def _xor_stack(
        self,
        f: int,
        g: int,
        key: int,
        op: int,
        xnor: bool,
        depth: int,
    ) -> int:
        """Explicit-stack expansion of a known XOR/XNOR cache miss.

        Recursion-limit-proof continuation of :meth:`_xor2`; see
        :meth:`_ite_stack` for the task-tag scheme.  ``depth`` is the
        caller's remaining fast-path budget, handed to the inline
        negations so that the whole XOR stays within one budget.
        """
        one_result = 1 if xnor else 0
        cache = self._op_cache
        level = self._level
        low = self._low
        high = self._high
        table = self._table
        free = self._free
        limit = self._cache_limit
        bounded = limit is not None
        neg_terminal = 0 if xnor else 1
        hits = 0
        misses = 0
        # Task tags: 4 expand (known miss), 5 negate, 1 both pending,
        # 2 low known, 3 high known.
        tasks: List[tuple] = [(4, f, g, key)]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            t = pop()
            tag = t[0]
            if tag == 4:
                tag, f, g, key = t
                # Re-probe at expansion, as in _ite_stack.
                r = cache.get(key)
                if r is not None:
                    hits += 1
                    rpush(r)
                    continue
                misses += 1
                lf = level[f]
                lg = level[g]
                top = lf if lf < lg else lg
                if lf == top:
                    f0 = low[f]
                    f1 = high[f]
                else:
                    f0 = f1 = f
                if lg == top:
                    g0 = low[g]
                    g1 = high[g]
                else:
                    g0 = g1 = g
                # --- resolve the low cofactor inline -------------------
                k0 = None
                if f0 == g0:
                    r0 = one_result
                elif f0 < 2:
                    if f0 == neg_terminal:
                        r0 = self._ite3(g0, 0, 1, depth)
                    else:
                        r0 = g0
                elif g0 < 2:
                    if g0 == neg_terminal:
                        r0 = self._ite3(f0, 0, 1, depth)
                    else:
                        r0 = f0
                else:
                    if g0 < f0:
                        f0, g0 = g0, f0
                    k0 = (f0 << 32 | g0) << 19 | op
                    r0 = cache.get(k0)
                    if r0 is not None:
                        hits += 1
                # --- resolve the high cofactor inline ------------------
                # A high negation waits for a pending low subtree (tag
                # 5), as in _xor2, so both gears number nodes alike.
                k1 = None
                negate = None
                if f1 == g1:
                    r1 = one_result
                elif f1 < 2:
                    if f1 == neg_terminal:
                        negate = g1
                        r1 = None
                    else:
                        r1 = g1
                elif g1 < 2:
                    if g1 == neg_terminal:
                        negate = f1
                        r1 = None
                    else:
                        r1 = f1
                else:
                    if g1 < f1:
                        f1, g1 = g1, f1
                    k1 = (f1 << 32 | g1) << 19 | op
                    r1 = cache.get(k1)
                    if r1 is not None:
                        hits += 1
                if negate is not None and r0 is not None:
                    r1 = self._ite3(negate, 0, 1, depth)
                if r0 is None:
                    if r1 is None:
                        push((1, top, key))
                        push((5, negate) if negate is not None else (4, f1, g1, k1))
                        push((4, f0, g0, k0))
                    else:
                        push((3, top, key, r1))
                        push((4, f0, g0, k0))
                    continue
                if r1 is None:
                    push((2, top, key, r0))
                    push((4, f1, g1, k1))
                    continue
                lo = r0
                hi = r1
            elif tag == 5:
                rpush(self._ite3(t[1], 0, 1, depth))
                continue
            elif tag == 1:
                hi = rpop()
                lo = rpop()
                key = t[2]
                top = t[1]
            elif tag == 2:
                tag, top, key, lo = t
                hi = rpop()
            else:
                tag, top, key, hi = t
                lo = rpop()
            # --- shared reduce tail (see _ite3) ------------------------
            if lo == hi:
                r = lo
            else:
                sub = table.get(top)
                if sub is None:
                    sub = table[top] = {}
                k2 = lo << 32 | hi
                if free:
                    r = sub.get(k2)
                    if r is None:
                        r = free.pop()
                        level[r] = top
                        low[r] = lo
                        high[r] = hi
                        sub[k2] = r
                else:
                    # Single-probe cons (see _ite3's reduce tail).
                    n = len(level)
                    r = sub.setdefault(k2, n)
                    if r == n:
                        level.append(top)
                        low.append(lo)
                        high.append(hi)
            cache[key] = r
            if bounded and len(cache) > limit:
                self._drop_cache(cache)
            rpush(r)
        self._cache_hits += hits
        self._cache_misses += misses
        return results[0]

    # ------------------------------------------------------------------
    # Signature interning (variable-set keys for the op cache)
    # ------------------------------------------------------------------
    #: Bound on the signature-intern table.  One-shot signatures (e.g.
    #: ``iter_assignments`` restricting by every assignment of a large
    #: product) would otherwise accrete forever on session-long pooled
    #: managers.  Dropping the intern table renumbers signatures, so the
    #: op cache — whose keys embed them — must drop with it.
    SIG_INTERN_LIMIT = 1 << 16

    def _sig(self, key: object) -> int:
        """Small-int signature of a variable-set/substitution key.

        Only called at operation *entry* (never mid-walk), so the
        clear-on-overflow below can never renumber a signature an
        in-flight computation still holds.
        """
        intern = self._sig_intern
        s = intern.get(key)
        if s is None:
            if len(intern) >= self.SIG_INTERN_LIMIT:
                intern.clear()
                if self._op_cache:
                    self._drop_cache(self._op_cache)
            s = len(intern)
            intern[key] = s
        return s

    # ------------------------------------------------------------------
    # Restriction (cofactoring)
    # ------------------------------------------------------------------
    def _restrict_u(self, f: int, by_level: Dict[int, int], sig: int) -> int:
        """Cofactor ``f`` by ``{level: 0/1}`` literal bindings.

        Post-order explicit stack; results are memoised in the shared op
        cache under :func:`op_key` of ``OP_RESTRICT``.  Nodes entirely
        below the deepest restricted level are returned unchanged (the
        cone cannot mention a restricted variable), which is what makes
        cofactor-specialised relational products cheap.
        """
        level = self._level
        low = self._low
        high = self._high
        shared = self._op_cache
        limit = self._cache_limit
        max_level = max(by_level)
        # op_key(OP_RESTRICT, n, sig) is n << 19 | tail.
        tail = sig << 3 | OP_RESTRICT
        memo: Dict[int, int] = {}
        stack = [f]
        spush = stack.append
        hits = 0
        misses = 0
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            if n < 2 or level[n] > max_level:
                memo[n] = n
                stack.pop()
                continue
            r = shared.get(n << 19 | tail)
            if r is not None:
                hits += 1
                memo[n] = r
                stack.pop()
                continue
            ln = level[n]
            value = by_level.get(ln)
            if value is not None:
                child = high[n] if value else low[n]
                rc = memo.get(child)
                if rc is None:
                    spush(child)
                    continue
                r = rc
            else:
                lo = memo.get(low[n])
                hi = memo.get(high[n])
                if lo is None or hi is None:
                    if hi is None:
                        spush(high[n])
                    if lo is None:
                        spush(low[n])
                    continue
                r = lo if lo == hi else self._mk_int(ln, lo, hi)
            misses += 1
            memo[n] = r
            shared[n << 19 | tail] = r
            if limit is not None and len(shared) > limit:
                self._drop_cache(shared)
            stack.pop()
        self._cache_hits += hits
        self._cache_misses += misses
        return memo[f]

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def _compose_u(self, f: int, by_level: Dict[int, int], sig: int) -> int:
        """Simultaneously substitute functions for variables in ``f``.

        Post-order walk bottoming out in the ITE core.  Nodes entirely
        below the deepest substituted level are returned unchanged —
        canonicity guarantees rebuilding them would find the same
        handles, so the walk simply does not descend.
        """
        level = self._level
        low = self._low
        high = self._high
        shared = self._op_cache
        limit = self._cache_limit
        max_level = max(by_level)
        # op_key(OP_COMPOSE, n, sig) is n << 19 | tail.
        tail = sig << 3 | OP_COMPOSE
        memo: Dict[int, int] = {}
        stack = [f]
        spush = stack.append
        hits = 0
        misses = 0
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            if n < 2 or level[n] > max_level:
                memo[n] = n
                stack.pop()
                continue
            r = shared.get(n << 19 | tail)
            if r is not None:
                hits += 1
                memo[n] = r
                stack.pop()
                continue
            lo = memo.get(low[n])
            hi = memo.get(high[n])
            if lo is None or hi is None:
                if hi is None:
                    spush(high[n])
                if lo is None:
                    spush(low[n])
                continue
            ln = level[n]
            replacement = by_level.get(ln)
            if replacement is None:
                replacement = self._mk_int(ln, 0, 1)
            misses += 1
            r = self._ite3(replacement, hi, lo)
            memo[n] = r
            shared[n << 19 | tail] = r
            if limit is not None and len(shared) > limit:
                self._drop_cache(shared)
            stack.pop()
        self._cache_hits += hits
        self._cache_misses += misses
        return memo[f]

    def _compose_all_u(
        self, roots: Iterable[int], by_level: Dict[int, int], memo: Dict[int, int]
    ) -> List[int]:
        """:meth:`_compose_u` of every root, in one walk with one memo.

        A level bound to a terminal is a cofactor: only the selected
        child is walked, so the dead cone is never visited.  A level
        bound to a function is rebuilt through the ITE core.  ``memo``
        maps handles to results under this one substitution and is
        shared by every root, and by every call the caller passes it to,
        so a cone common to several roots is substituted once.  Nothing
        goes to the shared op cache.  The caller must not reorder or
        collect while it holds ``memo``.
        """
        level = self._level
        low = self._low
        high = self._high
        ite = self._ite3
        max_level = max(by_level, default=-1)
        memo[0] = 0
        memo[1] = 1
        results: List[int] = []
        for f in roots:
            stack = [f]
            spush = stack.append
            while stack:
                n = stack[-1]
                if n in memo:
                    stack.pop()
                    continue
                ln = level[n]
                if ln > max_level:
                    memo[n] = n
                    stack.pop()
                    continue
                replacement = by_level.get(ln)
                if replacement is not None and replacement < 2:
                    child = high[n] if replacement else low[n]
                    r = memo.get(child)
                    if r is None:
                        spush(child)
                        continue
                else:
                    lo = memo.get(low[n])
                    hi = memo.get(high[n])
                    if lo is None or hi is None:
                        if hi is None:
                            spush(high[n])
                        if lo is None:
                            spush(low[n])
                        continue
                    if replacement is None:
                        replacement = self._mk_int(ln, 0, 1)
                    r = ite(replacement, hi, lo)
                memo[n] = r
                stack.pop()
            results.append(memo[f])
        return results

    # ------------------------------------------------------------------
    # Quantification (smoothing)
    # ------------------------------------------------------------------
    def _quantify_u(self, op: int, f: int, levels: frozenset, sig: int) -> int:
        """Quantify the variables at ``levels`` out of ``f``.

        ``op`` is :data:`OP_EXISTS` or :data:`OP_FORALL`.  The local
        ``memo`` shadows the shared cache so a mid-run eviction
        (``cache_limit``) can never drop a result this computation still
        needs.
        """
        level = self._level
        low = self._low
        high = self._high
        shared = self._op_cache
        limit = self._cache_limit
        exists = op == OP_EXISTS
        max_level = max(levels)
        # op_key(op, n, sig) is n << 19 | tail.
        tail = sig << 3 | op
        memo: Dict[int, int] = {}
        hits = 0
        misses = 0
        stack = [f]
        spush = stack.append
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            if n < 2 or level[n] > max_level:
                memo[n] = n
                stack.pop()
                continue
            r = shared.get(n << 19 | tail)
            if r is not None:
                hits += 1
                memo[n] = r
                stack.pop()
                continue
            lo = memo.get(low[n])
            hi = memo.get(high[n])
            if lo is None or hi is None:
                if hi is None:
                    spush(high[n])
                if lo is None:
                    spush(low[n])
                continue
            misses += 1
            ln = level[n]
            if ln in levels:
                if exists:
                    r = self._or2(lo, hi)
                else:
                    r = self._and2(lo, hi)
            else:
                r = lo if lo == hi else self._mk_int(ln, lo, hi)
            memo[n] = r
            shared[n << 19 | tail] = r
            if limit is not None and len(shared) > limit:
                self._drop_cache(shared)
            stack.pop()
        self._cache_hits += hits
        self._cache_misses += misses
        return memo[f]

    # ------------------------------------------------------------------
    # Relational product (AND-smooth)
    # ------------------------------------------------------------------
    def _and_exists_u(self, a: int, b: int, levels: frozenset, sig: int) -> int:
        """``exists levels . (a AND b)`` in one pass over the arrays.

        The conjunction and the smoothing are fused ([BCMD90]): at a
        quantified level the low product short-circuits the high one
        when it is already the constant 1.  Operand pairs are ordered by
        handle (AND commutes) and memoised in the shared op cache under
        :func:`and_exists_key` — the signature stands in for the level
        set, so repeated image steps with one relation share results
        across calls.  The walk's local memo uses the same packed key.
        """
        level = self._level
        low = self._low
        high = self._high
        shared = self._op_cache
        limit = self._cache_limit
        max_level = max(levels)
        # and_exists_key(a, b, sig) is (a << 32 | b) << 19 | tail.
        tail = sig << 3 | OP_ANDEX
        memo: Dict[int, int] = {}
        hits = 0
        misses = 0
        # Task tags: 0 expand, 1 reduce-mk, 2 after-low (quantified),
        # 3 after-high (quantified).
        tasks: List[tuple] = [(0, a, b)]
        push = tasks.append
        pop = tasks.pop
        results: List[int] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            t = pop()
            tag = t[0]
            if tag == 0:
                a = t[1]
                b = t[2]
                if a == 0 or b == 0:
                    rpush(0)
                    continue
                if a == 1:
                    if b == 1:
                        rpush(1)
                        continue
                    a, b = b, a
                elif b != 1 and b < a:
                    a, b = b, a
                key = (a << 32 | b) << 19 | tail
                r = memo.get(key)
                if r is None:
                    r = shared.get(key)
                    if r is not None:
                        hits += 1
                        memo[key] = r
                if r is not None:
                    rpush(r)
                    continue
                la = level[a]
                lb = level[b]
                top = la if la < lb else lb
                if top > max_level:
                    # No quantified variable below: a plain conjunction.
                    misses += 1
                    r = self._and2(a, b)
                    memo[key] = r
                    shared[key] = r
                    if limit is not None and len(shared) > limit:
                        self._drop_cache(shared)
                    rpush(r)
                    continue
                if la == top:
                    a0 = low[a]
                    a1 = high[a]
                else:
                    a0 = a1 = a
                if lb == top:
                    b0 = low[b]
                    b1 = high[b]
                else:
                    b0 = b1 = b
                if top in levels:
                    push((2, key, a1, b1))
                    push((0, a0, b0))
                else:
                    push((1, top, key))
                    push((0, a1, b1))
                    push((0, a0, b0))
            elif tag == 1:
                hi = rpop()
                lo = rpop()
                r = lo if lo == hi else self._mk_int(t[1], lo, hi)
                misses += 1
                key = t[2]
                memo[key] = r
                shared[key] = r
                if limit is not None and len(shared) > limit:
                    self._drop_cache(shared)
                rpush(r)
            elif tag == 2:
                lo = rpop()
                key = t[1]
                if lo == 1:
                    # Early exit: OR with 1 — skip the high product.
                    misses += 1
                    memo[key] = 1
                    shared[key] = 1
                    if limit is not None and len(shared) > limit:
                        self._drop_cache(shared)
                    rpush(1)
                else:
                    push((3, key, lo))
                    push((0, t[2], t[3]))
            else:
                hi = rpop()
                lo = t[2]
                misses += 1
                r = self._or2(lo, hi)
                key = t[1]
                memo[key] = r
                shared[key] = r
                if limit is not None and len(shared) > limit:
                    self._drop_cache(shared)
                rpush(r)
        self._cache_hits += hits
        self._cache_misses += misses
        return results[0]

    # ------------------------------------------------------------------
    # Arena snapshots
    # ------------------------------------------------------------------
    def snapshot(self, roots: Iterable[int]) -> Dict[str, object]:
        """Root-projected snapshot of the arena: compact parallel lists.

        Serialises exactly the nodes reachable from ``roots`` (the arena
        is just parallel int lists, so a snapshot is three lists plus a
        root table).  Compact ids renumber the nodes children-first:
        0/1 are the terminals, decision nodes follow in a deterministic
        post-order of the given root sequence, so every child reference
        points backwards — the property :meth:`restore` validates.  The
        payload is pure JSON-serialisable data (ints and lists).
        """
        level = self._level
        low = self._low
        high = self._high
        id_of: Dict[int, int] = {0: 0, 1: 1}
        levels: List[int] = []
        lows: List[int] = []
        highs: List[int] = []
        root_list = list(roots)
        for root in root_list:
            if root in id_of:
                continue
            stack = [root]
            while stack:
                n = stack[-1]
                if n in id_of:
                    stack.pop()
                    continue
                lo = low[n]
                hi = high[n]
                lo_id = id_of.get(lo)
                hi_id = id_of.get(hi)
                if lo_id is None or hi_id is None:
                    if hi_id is None:
                        stack.append(hi)
                    if lo_id is None:
                        stack.append(lo)
                    continue
                id_of[n] = len(levels) + 2
                levels.append(level[n])
                lows.append(lo_id)
                highs.append(hi_id)
                stack.pop()
        return {
            "format": SNAPSHOT_FORMAT,
            "levels": levels,
            "lows": lows,
            "highs": highs,
            "roots": [id_of[r] for r in root_list],
        }

    def restore(
        self,
        payload: Dict[str, object],
        level_map: Optional[Dict[int, int]] = None,
    ) -> List[int]:
        """Rehydrate a :meth:`snapshot`; returns the restored root handles.

        Every node is rebuilt through the hash-consing constructor, so
        restoring into an arena that already holds (some of) the
        functions dedups onto the existing handles — a restored function
        is *the* canonical function, indistinguishable from one computed
        in place.  ``level_map`` translates recorded levels (the
        manager-level wrapper uses it to map via variable names).

        Every structural invariant is validated before a node is built:
        truncated arrays, forward child references, redundant nodes and
        non-monotone levels all raise :class:`SnapshotError` — a corrupt
        snapshot can fail, never rebuild the wrong function.  So does a
        payload with enough nodes to push handles past
        :data:`HANDLE_LIMIT`.
        """
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"unsupported snapshot format {payload.get('format')!r}"
            )
        payload = unpack_snapshot(payload)
        try:
            levels = payload["levels"]
            lows = payload["lows"]
            highs = payload["highs"]
            roots = payload["roots"]
        except (TypeError, KeyError) as exc:
            raise SnapshotError(f"malformed snapshot payload: {exc!r}") from None
        if not (len(levels) == len(lows) == len(highs)):
            raise SnapshotError("snapshot arrays disagree in length (truncated?)")
        if len(self._level) + len(levels) > HANDLE_LIMIT:
            # Each record may take a fresh slot, and handles must fit
            # the 32-bit fields of the packed keys.
            raise SnapshotError(
                f"snapshot of {len(levels)} nodes would push handles past 2**32"
            )
        # Hoist the per-level validation out of the loop: every level a
        # node may carry is either a level_map value or a member of the
        # recorded level set, both checkable once.  The loop then only
        # performs the per-node structural checks (backward references,
        # non-redundancy, strict level monotonicity along edges) with
        # the hash-consing constructor inlined — restore is the latency
        # the snapshot path trades extraction for, so the loop is hot.
        try:
            if level_map is None:
                level_map = {lvl: lvl for lvl in set(levels)}
            for mapped in level_map.values():
                if not isinstance(mapped, int) or mapped < 0 or mapped >= TERMINAL_LEVEL:
                    raise SnapshotError(f"invalid restored level {mapped!r}")
        except TypeError as exc:
            raise SnapshotError(f"malformed snapshot levels: {exc!r}") from None
        try:
            # C-speed translation of the whole level column at once; a
            # level outside the map is a KeyError -> SnapshotError.
            mapped_levels = list(map(level_map.__getitem__, levels))
        except (TypeError, KeyError) as exc:
            raise SnapshotError(f"unmapped snapshot level: {exc!r}") from None
        handles = self._restore_build(mapped_levels, lows, highs)
        try:
            restored = []
            for r in roots:
                if not 0 <= r < len(handles):
                    # Explicit bound check: Python's negative indexing
                    # would otherwise "resolve" a corrupt root to some
                    # valid-looking node — the one failure mode this
                    # method must never have.
                    raise SnapshotError(f"snapshot root {r!r} out of range")
                restored.append(handles[r])
            return restored
        except TypeError as exc:
            raise SnapshotError(
                f"snapshot roots reference missing nodes: {exc!r}"
            ) from None

    def _restore_build(
        self,
        mapped_levels: List[int],
        lows: List[int],
        highs: List[int],
    ) -> List[int]:
        """Validate and hash-cons the snapshot's node records, in order.

        The restore hot loop; ``mapped_levels`` has already been
        translated through the level map.  Returns the
        handle of every snapshot id — ``[0, 1]`` for the terminals
        followed by one consed handle per node record — enforcing the
        structural invariants (backward child references, no redundant
        nodes, strictly increasing levels along edges) before any node
        is built.
        """
        level = self._level
        low = self._low
        high = self._high
        table = self._table
        free = self._free
        handles: List[int] = [0, 1]
        append = handles.append
        try:
            i = -1
            for i, (lvl, lo_id, hi_id) in enumerate(zip(mapped_levels, lows, highs)):
                if not 0 <= lo_id < i + 2 or not 0 <= hi_id < i + 2:
                    raise SnapshotError(
                        f"node {i}: child reference out of range (truncated?)"
                    )
                if lo_id == hi_id:
                    raise SnapshotError(f"node {i}: redundant node (low == high)")
                lo = handles[lo_id]
                hi = handles[hi_id]
                if (lo >= 2 and level[lo] <= lvl) or (hi >= 2 and level[hi] <= lvl):
                    raise SnapshotError(
                        f"node {i}: child does not sit below level {lvl}"
                    )
                sub = table.get(lvl)
                if sub is None:
                    sub = table[lvl] = {}
                key = lo << 32 | hi
                h = sub.get(key)
                if h is None:
                    if free:
                        h = free.pop()
                        level[h] = lvl
                        low[h] = lo
                        high[h] = hi
                    else:
                        h = len(level)
                        level.append(lvl)
                        low.append(lo)
                        high.append(hi)
                    sub[key] = h
                append(h)
        except (TypeError, KeyError) as exc:
            raise SnapshotError(f"malformed snapshot node {i}: {exc!r}") from None
        return handles

    # ------------------------------------------------------------------
    # Arena images (in-process clones)
    # ------------------------------------------------------------------
    def arena_image(self) -> Dict[str, object]:
        """A private copy of the whole arena, for :meth:`adopt_image`.

        Unlike :meth:`snapshot` this is no serialisation: the node
        arrays, the free-list and every per-level subtable are copied
        at C speed (the copies share the immutable int keys and
        handles, and stay untracked by the cyclic collector), so neither
        capturing nor adopting an image does per-node Python work.  The
        image never aliases the arena: later operations, collections or
        swaps on this kernel leave it untouched.
        """
        return {
            "level": self._level.copy(),
            "low": self._low.copy(),
            "high": self._high.copy(),
            "free": self._free.copy(),
            "table": {lvl: sub.copy() for lvl, sub in self._table.items()},
        }

    def adopt_image(self, image: Dict[str, object]) -> None:
        """Replace this arena with a copy of ``image``.

        The image must *extend* the current arena — every slot here
        holds the same ``(level, low, high)`` record there — so every
        handle external code already names keeps denoting the same
        node; otherwise :class:`ValueError` is raised and the arena is
        left untouched.  Adopting an image into a fresh kernel is
        handle-identical to replaying the restores that built it.  The
        image is copied, never aliased, so it can seed any number of
        kernels.
        """
        level = image["level"]
        low = image["low"]
        high = image["high"]
        n = len(self._level)
        if (
            len(level) < n
            or level[:n] != self._level
            or low[:n] != self._low
            or high[:n] != self._high
        ):
            raise ValueError("arena image does not extend this arena")
        self._level = level.copy()
        self._low = low.copy()
        self._high = high.copy()
        self._free = image["free"].copy()
        self._table = {lvl: sub.copy() for lvl, sub in image["table"].items()}

    # ------------------------------------------------------------------
    # Reorder support
    # ------------------------------------------------------------------
    def _plan_swap(
        self, y_level: int, x_nodes: List[int]
    ) -> Tuple[List[int], List[Tuple[int, int, int, int, int]]]:
        """Classify the upper level's nodes for an adjacent level swap.

        ``x_nodes`` are the live handles at the level above ``y_level``.
        Returns ``(independent, rebuilds)``: nodes with no ``y``-level
        child just move down one level, while each rebuild record
        ``(n, f00, f01, f10, f11)`` carries the four grandchildren of
        the Shannon expansion the swap re-wires the node with.  Read-only
        over the *pre-swap* structure; the mutation half of the swap
        lives in :func:`repro.bdd.reorder._swap_levels`.
        """
        lv = self._level
        lo_a = self._low
        hi_a = self._high
        independent: List[int] = []
        rebuilds: List[Tuple[int, int, int, int, int]] = []
        for n in x_nodes:
            lo = lo_a[n]
            hi = hi_a[n]
            lo_tests_y = lv[lo] == y_level
            hi_tests_y = lv[hi] == y_level
            if not lo_tests_y and not hi_tests_y:
                independent.append(n)
                continue
            if lo_tests_y:
                f00, f01 = lo_a[lo], hi_a[lo]
            else:
                f00 = f01 = lo
            if hi_tests_y:
                f10, f11 = lo_a[hi], hi_a[hi]
            else:
                f10 = f11 = hi
            rebuilds.append((n, f00, f01, f10, f11))
        return independent, rebuilds

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def collect(self, roots: Optional[Iterable[int]] = None) -> int:
        """Mark-and-sweep the arena; returns how many nodes were reclaimed.

        Live means reachable from a *root*: every handle external code
        can still name (the manager's interned wrappers) plus any extra
        ``roots`` handles.  Dead nodes leave their unique subtable and
        their handles join the free-list; the operation caches are
        dropped (they may reference reclaimed handles, which the
        free-list is about to re-issue).  Safe-point only: never called
        from inside an operation.
        """
        table = self._table
        live = len(self._level) - 2 - len(self._free)
        if not live:
            return 0
        # Refresh the high-water mark before anything is reclaimed (the
        # hot loops never touch it; live only decreases here, so the
        # sample taken now is the exact running maximum).
        if live > self._peak_sample:
            self._peak_sample = live
        mark = self._mark
        # The allocation fast paths do not grow the mark array (it is
        # only read here); top it up to the arena length in one extend.
        if len(mark) < len(self._level):
            mark.extend(bytes(len(self._level) - len(mark)))
        low = self._low
        high = self._high
        self._mark_epoch += 1
        epoch = self._mark_epoch
        mark[0] = epoch
        mark[1] = epoch
        stack = self._external_roots()
        if roots:
            stack.extend(roots)
        while stack:
            n = stack.pop()
            if mark[n] == epoch:
                continue
            mark[n] = epoch
            c = low[n]
            if mark[c] != epoch:
                stack.append(c)
            c = high[n]
            if mark[c] != epoch:
                stack.append(c)
        dead = [
            (lvl, key, n)
            for lvl, sub in table.items()
            for key, n in sub.items()
            if mark[n] != epoch
        ]
        if not dead:
            return 0
        free = self._free
        level = self._level
        for lvl, key, n in dead:
            del table[lvl][key]
            # Poison the slot so stale reads fail loudly; the handle is
            # only re-armed by the allocator.
            level[n] = -1
            low[n] = 0
            high[n] = 0
            free.append(n)
        self._freed_total += len(dead)
        self._gc_runs += 1
        self._gc_reclaimed += len(dead)
        for cache in (self._ite_cache, self._op_cache):
            if cache:
                self._drop_cache(cache)
        return len(dead)

    # ------------------------------------------------------------------
    # Cache housekeeping & statistics
    # ------------------------------------------------------------------
    def _drop_cache(self, cache: Dict) -> None:
        """Drop one operation cache, keeping the eviction accounting."""
        self._cache_evicted_entries += len(cache)
        cache.clear()
        self._cache_clears += 1

    @property
    def cache_limit(self) -> Optional[int]:
        """Per-cache entry bound (``None`` when unbounded)."""
        return self._cache_limit

    @cache_limit.setter
    def cache_limit(self, limit: Optional[int]) -> None:
        if limit is not None and limit < 1:
            raise ValueError("cache_limit must be a positive integer or None")
        self._cache_limit = limit
        if limit is not None:
            for cache in (self._ite_cache, self._op_cache):
                if len(cache) > limit:
                    self._drop_cache(cache)

    def cache_size(self) -> int:
        """Total number of entries currently held by the operation caches."""
        return len(self._ite_cache) + len(self._op_cache)

    def clear_caches(self) -> None:
        """Drop operation caches (the unique table is kept).

        Clearing never changes results — every function already built
        stays canonical in the unique table — it only forces later
        operations to recompute; the property tests pin this down.
        """
        for cache in (self._ite_cache, self._op_cache):
            if cache:
                self._drop_cache(cache)

    def cache_statistics(self) -> Dict[str, object]:
        """Operation-cache size accounting and hit rates.

        ``quantify_entries`` keeps its historical name but now counts
        the whole shared op cache — quantify, restrict, compose,
        XOR/XNOR and and-exists entries — since those walkers share one
        memo table in the array kernel.
        """
        lookups = self._cache_hits + self._cache_misses
        return {
            "limit": self._cache_limit,
            "ite_entries": len(self._ite_cache),
            "quantify_entries": len(self._op_cache),
            "total_entries": self.cache_size(),
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "lookups": lookups,
            "hit_rate": (self._cache_hits / lookups) if lookups else 0.0,
            "evicted_entries": self._cache_evicted_entries,
            "clears": self._cache_clears,
        }

    def arena_statistics(self) -> Dict[str, int]:
        """Arena accounting: live vs. allocated vs. free-listed handles.

        ``capacity`` is the arena length (terminals included) — the
        high-water mark of simultaneously live nodes, since freed slots
        are reused before the arrays grow.  ``live`` counts current
        unique-table entries plus the two terminals; ``free`` the
        reclaimed handles awaiting reuse.
        """
        live = len(self._level) - 2 - len(self._free)
        if live > self._peak_sample:
            self._peak_sample = live
        return {
            "capacity": len(self._level),
            "live": live + 2,
            "free": len(self._free),
            "peak_live": self._peak_sample + 2,
            "allocated_total": self._nodes_allocated,
            "gc_runs": self._gc_runs,
            "gc_reclaimed": self._gc_reclaimed,
        }
