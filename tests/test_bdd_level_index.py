"""Property tests for the manager's per-level node index.

The index is the unique table's per-level subtables
(``BDDManager._table``, surfaced as ``nodes_at_level`` /
``level_population``).  It must be *exactly* the level partition of
the live arena after every mutation — allocation and collection.  These
tests drive randomised operation sequences through every mutation
source and re-derive the partition from the node arrays after each
burst.

All randomness is seeded; the suite is deterministic.
"""

import random

from repro.bdd import BDDManager
from repro.bdd.kernel import unique_key

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

    def test_mixed_apply_gc_sequences(self):
        """Interleave new allocations and collections."""
        rng = random.Random(SEED + 2)
        manager = BDDManager([f"x{i}" for i in range(7)])
        names = list(manager.variables)
        roots = [random_function(manager, rng, names, depth=5) for _ in range(3)]
        for _ in range(10):
            if rng.randrange(2):
                roots.append(random_function(manager, rng, names))
            else:
                manager.collect()
            assert_index_exact(manager)

    def test_collect_purges_index(self):
        """Dead garbage leaves neither table nor index entries."""
        rng = random.Random(SEED + 5)
        manager = BDDManager([f"x{i}" for i in range(7)])
        names = list(manager.variables)
        keep = random_function(manager, rng, names, depth=5)  # stays live
        for _ in range(3):
            random_function(manager, rng, names, depth=5)
        dropped = manager.collect()
        assert_index_exact(manager)
        assert dropped
        total_indexed = sum(manager.level_population().values())
        assert total_indexed == len(manager._level) - 2 - len(manager._free)
        assert manager.nodes_at_level(keep.level)
