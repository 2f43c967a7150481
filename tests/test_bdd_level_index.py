"""Property tests for the manager's per-level node index.

The index is the unique table's per-level subtables
(``BDDManager._table``, surfaced as ``nodes_at_level`` /
``level_population``), and it is what makes engine-scale sifting
affordable: a level swap reads exactly the two levels it touches
instead of scanning the whole unique table.  That only holds if the
subtables are *exactly* the level partition of the live arena after
every mutation — allocation, reorder sweep and level swap.  These
tests drive randomised operation sequences through every mutation
source and re-derive the partition from the node arrays after each
burst; sifting additionally must preserve minterm counts and
canonicity.

All randomness is seeded; the suite is deterministic.
"""

import random

from repro.bdd import BDDManager, converge_sift, sift_to_order, sift_variable, swap_adjacent
from repro.bdd.kernel import unique_key
from repro.bdd.reorder import _Sifter

SEED = 20260730


def recomputed_partition(manager):
    """The ground truth: live nodes grouped by level via a full arena scan.

    Reads the parallel node arrays, not the subtables under test: every
    handle >= 2 that is not on the free-list is live.  Each live node
    must be filed in the subtable of its level under the
    :func:`unique_key` of its children, and each subtable key must
    match its node's record.
    """
    free = set(manager._free)
    partition = {}
    for handle in range(2, len(manager._level)):
        if handle in free:
            continue
        node = manager._wrap(handle)
        key = unique_key(node.low.node_id, node.high.node_id)
        assert manager._table[node.level].get(key) == handle
        partition.setdefault(node.level, {})[handle] = node
    for table_level, sub in manager._table.items():
        for key, handle in sub.items():
            node = partition[table_level][handle]
            assert unique_key(node.low.node_id, node.high.node_id) == key
    return partition


def assert_index_exact(manager):
    """The per-level subtables equal the recomputed partition, bit for bit."""
    truth = recomputed_partition(manager)
    indexed = {
        level: set(sub.values())
        for level, sub in manager._table.items()
        if sub
    }
    assert indexed.keys() == truth.keys()
    for level, bucket in truth.items():
        assert indexed[level] == bucket.keys(), f"level {level}"
        # The public view hands out the interned wrappers.
        served = {node.node_id: node for node in manager.nodes_at_level(level)}
        assert served.keys() == bucket.keys(), f"level {level}"
        for node_id, node in bucket.items():
            assert served[node_id] is node
    # And the public views agree with the private structure.
    population = manager.level_population()
    assert population == {level: len(bucket) for level, bucket in truth.items()}
    for level in truth:
        listed = {node.node_id: node for node in manager.nodes_at_level(level)}
        assert listed.keys() == truth[level].keys()


def random_function(manager, rng, names, depth=4):
    """A random function over ``names`` built from the core operations."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(names)
        return manager.var(name) if rng.random() < 0.5 else manager.nvar(name)
    left = random_function(manager, rng, names, depth - 1)
    right = random_function(manager, rng, names, depth - 1)
    op = rng.randrange(4)
    if op == 0:
        return manager.apply_and(left, right)
    if op == 1:
        return manager.apply_or(left, right)
    if op == 2:
        return manager.apply_xor(left, right)
    return manager.ite(left, right, manager.apply_not(right))


class TestIndexTracksOperations:
    """Allocation through every public operation keeps the index exact."""

    def test_apply_and_quantify_sequences(self):
        rng = random.Random(SEED)
        manager = BDDManager([f"v{i}" for i in range(8)])
        names = list(manager.variables)
        functions = []
        for round_index in range(12):
            f = random_function(manager, rng, names)
            functions.append(f)
            if functions and rng.random() < 0.6:
                subset = rng.sample(names, rng.randrange(1, 4))
                quantifier = manager.exists if rng.random() < 0.5 else manager.forall
                functions.append(quantifier(subset, rng.choice(functions)))
            if rng.random() < 0.4:
                functions.append(
                    manager.cofactor(rng.choice(functions), rng.choice(names), rng.random() < 0.5)
                )
            assert_index_exact(manager)

    def test_declare_adds_no_phantom_buckets(self):
        manager = BDDManager(["a", "b"])
        manager.var("a")
        manager.declare("c")  # declared but never used in a node
        assert_index_exact(manager)
        assert manager.nodes_at_level(manager.level("c")) == []


class TestIndexTracksReordering:
    """Swaps, sweeps and full sifting keep the index exact."""

    NUM_VARS = 7

    def build(self, rng):
        manager = BDDManager([f"x{i}" for i in range(self.NUM_VARS)])
        names = list(manager.variables)
        roots = [random_function(manager, rng, names, depth=5) for _ in range(3)]
        return manager, names, roots

    def test_random_swap_sequences(self):
        rng = random.Random(SEED + 1)
        manager, names, roots = self.build(rng)
        counts = [manager.sat_count(root, names) for root in roots]
        for _ in range(25):
            swap_adjacent(manager, rng.randrange(self.NUM_VARS - 1))
            assert_index_exact(manager)
        assert [manager.sat_count(root, names) for root in roots] == counts

    def test_mixed_swap_apply_gc_sequences(self):
        """Interleave swaps, new allocations and session sweeps."""
        rng = random.Random(SEED + 2)
        manager, names, roots = self.build(rng)
        for _ in range(10):
            action = rng.randrange(3)
            if action == 0:
                swap_adjacent(manager, rng.randrange(self.NUM_VARS - 1))
            elif action == 1:
                roots.append(random_function(manager, rng, names))
            else:
                # A sifting session: excursions plus the GC sweep.
                sift_variable(manager, rng.choice(names), roots=roots)
            assert_index_exact(manager)

    def test_converge_sift_preserves_minterms_and_canonicity(self):
        rng = random.Random(SEED + 3)
        manager, names, roots = self.build(rng)
        counts = [manager.sat_count(root, names) for root in roots]
        result = converge_sift(manager, roots=roots, max_passes=3)
        assert result.swaps > 0
        assert_index_exact(manager)
        # Minterm counts are order-independent; the functions must not move.
        assert [manager.sat_count(root, names) for root in roots] == counts
        # Canonicity: rebuilding a root's function from scratch against the
        # *new* order hash-conses onto the very same node object.
        for root in roots:
            rebuilt = manager.apply_or(root, root)
            assert rebuilt is root
        rebuilt_xor = manager.apply_xor(roots[0], roots[0])
        assert rebuilt_xor is manager.zero

    def test_rootless_sift_and_explicit_order(self):
        rng = random.Random(SEED + 4)
        manager, names, roots = self.build(rng)
        converge_sift(manager, roots=None, max_passes=2)
        assert_index_exact(manager)
        target = list(manager.variables)
        rng.shuffle(target)
        sift_to_order(manager, target)
        assert manager.variables == tuple(target)
        assert_index_exact(manager)

    def test_session_sweep_purges_index(self):
        """Dead session garbage leaves neither table nor index entries."""
        rng = random.Random(SEED + 5)
        manager, names, roots = self.build(rng)
        sifter = _Sifter(manager, roots)
        for _ in range(6):
            sifter.swap(rng.randrange(self.NUM_VARS - 1))
        dropped = sifter.sweep()
        assert_index_exact(manager)
        if dropped:
            total_indexed = sum(manager.level_population().values())
            assert total_indexed == len(manager._level) - 2 - len(manager._free)


class TestSwapCostIsLocal:
    """The structural point of the index: a swap never scans the table.

    Build a table whose population is concentrated on levels *not* being
    swapped and verify the swap leaves every foreign subtable object
    untouched (identity), which a rebuild-by-scan could not guarantee.
    """

    def test_untouched_levels_keep_their_buckets(self):
        manager = BDDManager([f"y{i}" for i in range(6)])
        rng = random.Random(SEED + 6)
        names = list(manager.variables)
        for _ in range(5):
            random_function(manager, rng, names, depth=5)
        before = {
            level: manager._table.get(level)
            for level in range(2, 6)
        }
        swap_adjacent(manager, 0)
        for level in range(3, 6):
            assert manager._table.get(level) is before[level]
        assert_index_exact(manager)
