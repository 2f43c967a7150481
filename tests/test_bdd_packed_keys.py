"""The kernel's int-packed table and cache keys.

Every unique-subtable and cache key of :mod:`repro.bdd.kernel` is one
Python int with 32-bit handle fields.  These tests pin what that buys
and what it relies on:

* no unique subtable and neither cache is ever tracked by CPython's
  cyclic collector, across every mutation source (build, restore,
  arena adoption, collection);
* the layouts are injective at their field bounds (handle ``2**32 - 1``,
  signature ``SIG_INTERN_LIMIT - 1``, every opcode), the hot paths key
  the live caches with exactly these layouts, and ``restore`` refuses a
  payload that could push handles past ``2**32``;
* the standard-triple normalisation puts every argument order of one
  connective, and every trivially reducible triple, on one cache line
  or none.

All randomness is seeded; the suite is deterministic.
"""

import gc
import itertools
import random

import pytest

from repro.bdd import BDDManager
from repro.bdd.kernel import (
    HANDLE_LIMIT,
    OP_ANDEX,
    OP_EXISTS,
    OP_FORALL,
    OP_RESTRICT,
    OP_XNOR,
    OP_XOR,
    SNAPSHOT_FORMAT,
    BDDKernel,
    SnapshotError,
    and_exists_key,
    ite_key,
    op_key,
    unique_key,
    xor_key,
)

SEED = 20261018
FIELD = (1 << 32) - 1
SIG_LIMIT = BDDKernel.SIG_INTERN_LIMIT
OPCODES = {OP_EXISTS, OP_FORALL, OP_RESTRICT, OP_ANDEX, OP_XOR, OP_XNOR}


def exercise(manager, rng, pool, steps=40):
    """Apply random connectives and every op-cache walker to ``pool``."""
    names = list(manager.variables)
    for _ in range(steps):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        op = rng.randrange(11)
        if op == 0:
            r = manager.ite(f, g, h)
        elif op == 1:
            r = manager.apply_and(f, g)
        elif op == 2:
            r = manager.apply_or(f, g)
        elif op == 3:
            r = manager.apply_xor(f, g)
        elif op == 4:
            r = manager.apply_xnor(f, g)
        elif op == 5:
            r = manager.apply_not(f)
        elif op == 6:
            r = manager.exists(rng.sample(names, 2), f)
        elif op == 7:
            r = manager.forall(rng.sample(names, 2), f)
        elif op == 8:
            r = manager.restrict(f, {rng.choice(names): rng.random() < 0.5})
        elif op == 9:
            r = manager.compose(f, {rng.choice(names): g})
        else:
            r = manager.and_exists(rng.sample(names, 3), f, g)
        pool.append(r)
    return pool


def fresh_pool(manager):
    return [manager.var(name) for name in manager.variables]


class TestUntrackedTables:
    """Int keys and int values keep every table off the cyclic collector."""

    def assert_untracked(self, manager):
        assert manager._table, "nothing was built"
        for level, sub in manager._table.items():
            assert not gc.is_tracked(sub), f"subtable {level} is GC-tracked"
        assert not gc.is_tracked(manager._ite_cache)
        assert not gc.is_tracked(manager._op_cache)

    def test_no_table_or_cache_is_ever_tracked(self):
        # The collector is paused for the test: a full collection
        # untracks a dict whose keys have all been untracked, which
        # would hide a tracked key type rather than show it.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._run()
        finally:
            if was_enabled:
                gc.enable()

    def _run(self):
        rng = random.Random(SEED)
        names = [f"v{i}" for i in range(10)]
        source = BDDManager(names)
        roots = exercise(source, rng, fresh_pool(source))[-6:]
        # Build: every cache layout has been written.
        assert source._ite_cache and source._op_cache
        self.assert_untracked(source)
        payload = source.snapshot(roots)

        # Restore into a fresh manager, then capture and adopt an image.
        restored = BDDManager()
        restored_roots = restored.restore(payload)
        self.assert_untracked(restored)
        image = restored.arena_image()
        for sub in image["table"].values():
            assert not gc.is_tracked(sub)
        adopter = BDDManager()
        adopted = adopter.adopt_image(image, [r.node_id for r in restored_roots])
        self.assert_untracked(adopter)

        # Work on the adopted arena, then collect it.
        pool = exercise(adopter, rng, list(adopted) + fresh_pool(adopter), steps=30)
        assert adopter._ite_cache and adopter._op_cache
        self.assert_untracked(adopter)
        del pool
        assert adopter.collect() > 0
        self.assert_untracked(adopter)
        exercise(adopter, rng, list(adopted), steps=10)
        self.assert_untracked(adopter)


class TestKeyFieldBounds:
    """Packed layouts are injective at their field bounds."""

    HANDLES = (0, 1, 2, 3, FIELD - 1, FIELD)
    SIGS = (0, 1, SIG_LIMIT - 2, SIG_LIMIT - 1)

    def test_unique_keys_distinct(self):
        pairs = list(itertools.product(self.HANDLES, repeat=2))
        assert len({unique_key(lo, hi) for lo, hi in pairs}) == len(pairs)

    def test_ite_keys_distinct_and_negations_recognised(self):
        triples = list(itertools.product(self.HANDLES, repeat=3))
        keys = [ite_key(f, g, h) for f, g, h in triples]
        assert len(set(keys)) == len(triples)
        # A negation is cached in both directions: NOT f under f's key,
        # and f under the key of its result, so negating back is a hit.
        manager = BDDManager(["x0", "x1", "x2"])
        f = manager.apply_xor(manager.var("x0"), manager.var("x2"))
        negated = manager.apply_not(f)
        assert manager._ite_cache[ite_key(f._h, 0, 1)] == negated._h
        assert manager._ite_cache[ite_key(negated._h, 0, 1)] == f._h
        misses = manager.cache_statistics()["misses"]
        assert manager.apply_not(negated) is f
        assert manager.cache_statistics()["misses"] == misses

    def test_op_cache_keys_distinct_across_every_opcode(self):
        # All these layouts share one dict, so they must not collide
        # with each other either.
        keys = []
        for op in (OP_EXISTS, OP_FORALL, OP_RESTRICT):
            keys += [op_key(op, n, s) for n in self.HANDLES for s in self.SIGS]
        for op in (OP_XOR, OP_XNOR):
            keys += [xor_key(op, f, g) for f in self.HANDLES for g in self.HANDLES]
        keys += [
            and_exists_key(a, b, s)
            for a in self.HANDLES
            for b in self.HANDLES
            for s in self.SIGS
        ]
        assert len(set(keys)) == len(keys)
        # Every opcode fits the 3-bit field.
        assert len(OPCODES) == 6 and max(OPCODES) < 8

    def test_live_caches_use_the_layouts(self):
        """Every key the hot paths wrote decodes to live fields."""
        rng = random.Random(SEED + 1)
        manager = BDDManager([f"v{i}" for i in range(8)])
        exercise(manager, rng, fresh_pool(manager), steps=60)
        arena = len(manager._level)
        sigs = len(manager._sig_intern)
        for level, sub in manager._table.items():
            for key, handle in sub.items():
                assert key == unique_key(manager._low[handle], manager._high[handle])
        for key in manager._ite_cache:
            f, g, h = key >> 64, (key >> 32) & FIELD, key & FIELD
            assert key == ite_key(f, g, h)
            assert max(f, g, h) < arena
        seen = set()
        for key in manager._op_cache:
            op = key & 7
            seen.add(op)
            if op in (OP_XOR, OP_XNOR):
                f, g = key >> 51, (key >> 19) & FIELD
                assert key == xor_key(op, f, g) and f < g < arena
            elif op == OP_ANDEX:
                sig = (key >> 3) & (SIG_LIMIT - 1)
                a, b = key >> 51, (key >> 19) & FIELD
                assert key == and_exists_key(a, b, sig)
                assert a < arena and b < arena and sig < sigs
            else:
                n, sig = key >> 19, (key >> 3) & (SIG_LIMIT - 1)
                assert key == op_key(op, n, sig) and n < arena and sig < sigs
        assert seen == OPCODES

    def test_restore_refuses_payloads_past_the_handle_bound(self):
        class Huge(list):
            """A node column that claims a length it does not hold."""

            def __init__(self, claimed):
                super().__init__()
                self.claimed = claimed

            def __len__(self):
                return self.claimed

        kernel = BDDKernel()
        kernel._mk_int(0, 0, 1)
        before = (list(kernel._level), {k: dict(v) for k, v in kernel._table.items()})
        claimed = HANDLE_LIMIT - len(kernel._level) + 1
        payload = {
            "format": SNAPSHOT_FORMAT,
            "levels": Huge(claimed),
            "lows": Huge(claimed),
            "highs": Huge(claimed),
            "roots": [],
        }
        with pytest.raises(SnapshotError, match="2\\*\\*32"):
            kernel.restore(payload)
        assert (list(kernel._level), {k: dict(v) for k, v in kernel._table.items()}) == before


class TestStandardTripleSharing:
    """AND, OR and NAND are ITE triples sharing the ITE cache.

    The standard-triple normalisation puts every argument order of one
    connective on one cache line, so after the connective any
    equivalent triple is a pure cache hit: hits go up, while misses and
    allocations stay put.
    """

    @pytest.mark.parametrize(
        "connective, probe",
        [
            ("apply_and", lambda m, f, g: m.ite(f, g, m.zero)),
            ("apply_and", lambda m, f, g: m.ite(g, f, m.zero)),
            ("apply_or", lambda m, f, g: m.ite(f, m.one, g)),
            ("apply_or", lambda m, f, g: m.ite(g, m.one, f)),
            ("apply_nand", lambda m, f, g: m.apply_not(m.apply_and(f, g))),
        ],
        ids=["and-fg0", "and-gf0", "or-f1g", "or-g1f", "nand-not-and"],
    )
    def test_equivalent_triple_is_a_pure_cache_hit(self, connective, probe):
        manager = BDDManager([f"x{i}" for i in range(8)])
        x = [manager.var(name) for name in manager.variables]
        f = manager.apply_xor(x[0], manager.apply_or(x[3], x[6]))
        g = manager.apply_xnor(x[1], manager.apply_and(x[4], x[7]))
        before = manager.cache_statistics()["misses"]
        expected = getattr(manager, connective)(f, g)
        assert manager.cache_statistics()["misses"] > before
        stats = manager.cache_statistics()
        allocated = manager._nodes_allocated
        assert probe(manager, f, g) is expected
        after = manager.cache_statistics()
        assert after["hits"] > stats["hits"]
        assert after["misses"] == stats["misses"]
        assert manager._nodes_allocated == allocated

    def test_ite_of_one_operand_reduces_without_caching(self):
        # ite(f, f, f) = f: resolved by normalisation, never cached.
        manager = BDDManager([f"x{i}" for i in range(4)])
        f = manager.apply_xor(manager.var("x0"), manager.var("x3"))
        entries = len(manager._ite_cache)
        assert manager.ite(f, f, f) is f
        assert len(manager._ite_cache) == entries
