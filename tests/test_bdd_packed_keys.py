"""The kernel's int-packed table and cache keys.

Every unique-subtable and cache key of :mod:`repro.bdd.kernel` is one
Python int with 32-bit handle fields.  These tests pin what that buys
and what it relies on:

* no unique subtable and neither cache is ever tracked by CPython's
  cyclic collector, across every mutation source (build, restore,
  arena adoption, level swaps, sifting, collection);
* the layouts are injective at their field bounds (handle ``2**32 - 1``,
  signature ``SIG_INTERN_LIMIT - 1``, every opcode), the hot paths key
  the live caches with exactly these layouts, and ``restore`` refuses a
  payload that could push handles past ``2**32``;
* the recursive and the explicit-stack ITE gears book the same cache
  hits, misses and allocations for one build.

All randomness is seeded; the suite is deterministic.
"""

import gc
import itertools
import random

import pytest

from repro.bdd import BDDManager, swap_adjacent
from repro.bdd.kernel import (
    HANDLE_LIMIT,
    OP_ANDEX,
    OP_COMPOSE,
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
OPCODES = {OP_EXISTS, OP_FORALL, OP_RESTRICT, OP_COMPOSE, OP_ANDEX, OP_XOR, OP_XNOR}


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

        # Work on the adopted arena, then swap, sift and collect it.
        pool = exercise(adopter, rng, list(adopted) + fresh_pool(adopter), steps=30)
        assert adopter._ite_cache and adopter._op_cache
        self.assert_untracked(adopter)
        swap_adjacent(adopter, 3)
        self.assert_untracked(adopter)
        adopter.sift(roots=pool[-4:], max_passes=1)
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
        low64 = (1 << 64) - 1
        for (f, g, h), key in zip(triples, keys):
            # The stack gear's negation test and operand extraction.
            assert (key & low64 == 1) == (g == 0 and h == 1)
            assert key >> 64 == f

    def test_op_cache_keys_distinct_across_every_opcode(self):
        # All these layouts share one dict, so they must not collide
        # with each other either.
        keys = []
        for op in (OP_EXISTS, OP_FORALL, OP_RESTRICT, OP_COMPOSE):
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
        assert len(OPCODES) == 7 and max(OPCODES) < 8

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


class TestGearInvariantAccounting:
    """Both ITE gears book one build's probes identically."""

    NUM_VARS = 16

    def build_pool(self, stack_only, seed, ops=6):
        manager = BDDManager([f"x{i}" for i in range(self.NUM_VARS)])
        if stack_only:
            # Every expansion is deeper than the budget: the explicit
            # stack does all the work.
            manager._depth_hint = 10**6
        rng = random.Random(seed)
        pool = fresh_pool(manager)
        for _ in range(120):
            f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            op = rng.randrange(ops)
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
            else:
                r = manager.apply_not(f)
            pool.append(r)
        return manager, pool

    def build(self, stack_only, seed):
        manager, pool = self.build_pool(stack_only, seed)
        stats = manager.cache_statistics()
        sizes = [manager.count_nodes(f) for f in pool]
        return stats["hits"], stats["misses"], manager._nodes_allocated, sizes

    @pytest.mark.parametrize("seed", [SEED, SEED + 1, SEED + 2])
    def test_recursive_and_stack_gears_agree(self, seed):
        recursive = self.build(False, seed)
        stack = self.build(True, seed)
        assert recursive[0] > 0 and recursive[1] > 0
        assert recursive == stack

    @pytest.mark.parametrize("ops", [5, 6])
    def test_recursive_and_stack_gears_number_nodes_alike(self, ops):
        # ops=5 leaves NOT out, so XOR/XNOR carry more of the mix.  The
        # stack gear negates a high cofactor only after the low subtree,
        # as the recursive gear does; otherwise the handle lists differ.
        for seed in range(SEED, SEED + 25):
            recursive = [f._h for f in self.build_pool(False, seed, ops)[1]]
            stack = [f._h for f in self.build_pool(True, seed, ops)[1]]
            assert recursive == stack, f"seed {seed}"

    def test_ite_of_one_operand_reduces_in_both_gears(self):
        # ite(f, f, f) = f: resolved by normalisation, never cached.
        manager = BDDManager([f"x{i}" for i in range(4)])
        f = manager.apply_xor(manager.var("x0"), manager.var("x3"))
        entries = len(manager._ite_cache)
        assert manager.ite(f, f, f) is f
        assert len(manager._ite_cache) == entries
