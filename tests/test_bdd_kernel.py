"""Invariant suite for the array-backed integer-handle BDD kernel.

The kernel (:mod:`repro.bdd.kernel`) stores nodes in parallel arrays
addressed by integer handles, reclaims dead handles by mark-and-sweep
into a free-list, and serves every operation from one recursive ITE
core.  These tests pin the properties the rest of the repo builds on:

* free-list reuse never *resurrects* a reclaimed handle — once swept, a
  handle is gone from the table, the per-level view and the wrapper
  interning, and comes back only via the allocator with fresh contents;
* mark-and-sweep keeps exactly the nodes reachable from the live roots
  (the wrappers external code still holds, plus explicit roots);
* the per-level subtables equal a partition of the live arena recomputed
  from the node arrays after arbitrary interleavings of operations and
  GC;
* verdicts are GC-transparent: a verification run on a manager that
  aggressively collects between operations is byte-identical to the
  stored golden counterexamples.

All randomness is seeded; the suite is deterministic.
"""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.bdd import BDDManager
from repro.bdd.kernel import BDDKernel, fit_recursion_limit, unique_key

SEED = 20260730


def random_function(manager, rng, names, depth=4):
    """A random function over ``names`` built from the core operations."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(names)
        return manager.var(name) if rng.random() < 0.5 else manager.nvar(name)
    left = random_function(manager, rng, names, depth - 1)
    right = random_function(manager, rng, names, depth - 1)
    op = rng.randrange(5)
    if op == 0:
        return manager.apply_and(left, right)
    if op == 1:
        return manager.apply_or(left, right)
    if op == 2:
        return manager.apply_xor(left, right)
    if op == 3:
        return manager.exists([rng.choice(names)], left)
    return manager.ite(left, right, manager.apply_not(right))


def table_handle_set(manager):
    """All live non-terminal handles (flattened from the per-level subtables)."""
    return {handle for sub in manager._table.values() for handle in sub.values()}


def reachable_handles(manager, wrappers):
    """Closure of non-terminal handles reachable from wrapper roots."""
    low, high = manager._low, manager._high
    seen = set()
    stack = [w._h for w in wrappers]
    while stack:
        h = stack.pop()
        if h < 2 or h in seen:
            continue
        seen.add(h)
        stack.append(low[h])
        stack.append(high[h])
    return seen


class TestMarkAndSweep:
    """collect() keeps exactly the live roots' cones."""

    def test_sweep_keeps_exactly_the_held_roots(self):
        rng = random.Random(SEED)
        manager = BDDManager([f"v{i}" for i in range(8)])
        names = list(manager.variables)
        kept = [random_function(manager, rng, names, depth=5) for _ in range(4)]
        dropped = [random_function(manager, rng, names, depth=5) for _ in range(4)]
        del dropped
        reclaimed = manager.collect()
        assert reclaimed > 0
        live = reachable_handles(manager, kept)
        assert table_handle_set(manager) == live
        # Arena accounting agrees with the table.
        arena = manager.arena_statistics()
        assert arena["live"] == len(table_handle_set(manager)) + 2
        assert arena["free"] >= reclaimed
        assert arena["capacity"] == arena["live"] + arena["free"]

    def test_sweep_respects_explicit_roots(self):
        rng = random.Random(SEED + 1)
        manager = BDDManager([f"v{i}" for i in range(6)])
        names = list(manager.variables)
        root = random_function(manager, rng, names, depth=5)
        handle = root.node_id
        cone = reachable_handles(manager, [root])
        del root  # no wrapper left; only the explicit root protects it
        manager.collect(roots=[handle])
        assert cone.issubset(table_handle_set(manager))

    def test_collect_is_semantics_transparent(self):
        """Interleaved GC never changes any constructed function."""
        rng = random.Random(SEED + 2)
        plain = BDDManager([f"v{i}" for i in range(7)])
        swept = BDDManager([f"v{i}" for i in range(7)])
        names = [f"v{i}" for i in range(7)]
        plain_roots, swept_roots = [], []
        for round_index in range(12):
            build_rng = random.Random(SEED + 100 + round_index)
            plain_roots.append(random_function(plain, build_rng, names, depth=4))
            build_rng = random.Random(SEED + 100 + round_index)
            swept_roots.append(random_function(swept, build_rng, names, depth=4))
            if round_index % 3 == 0:
                swept.collect()
        for p, s in zip(plain_roots, swept_roots):
            assert plain.sat_count(p, names) == swept.sat_count(s, names)
        # Canonicity inside each manager is untouched by the sweeps.
        assert swept.apply_or(swept_roots[0], swept_roots[0]) is swept_roots[0]


class TestFreeListReuse:
    """A reclaimed handle never comes back as its old self."""

    def test_reclaimed_handles_leave_every_structure(self):
        rng = random.Random(SEED + 3)
        manager = BDDManager([f"v{i}" for i in range(8)])
        names = list(manager.variables)
        keep = random_function(manager, rng, names, depth=5)
        for _ in range(3):
            random_function(manager, rng, names, depth=5)
        garbage_handles = table_handle_set(manager) - reachable_handles(
            manager, [keep]
        )
        reclaimed = manager.collect()
        assert reclaimed == len(garbage_handles) > 0
        table_handles = table_handle_set(manager)
        index_handles = {
            node.node_id
            for level in range(manager.num_vars())
            for node in manager.nodes_at_level(level)
        }
        for handle in garbage_handles:
            assert handle in manager._free
            assert handle not in table_handles
            assert handle not in index_handles
            assert manager._wrappers.get(handle) is None
            # The slot is poisoned until the allocator re-arms it.
            assert manager._level[handle] == -1

    def test_reuse_rearms_the_slot_with_fresh_contents(self):
        rng = random.Random(SEED + 4)
        manager = BDDManager([f"v{i}" for i in range(8)])
        names = list(manager.variables)
        garbage = random_function(manager, rng, names, depth=5)
        del garbage
        manager.collect()
        free_before = list(manager._free)
        assert free_before
        capacity_before = manager.arena_statistics()["capacity"]
        # New work re-uses freed handles before growing the arrays.
        fresh = [random_function(manager, rng, names, depth=5) for _ in range(3)]
        still_free = set(manager._free)
        reused = [h for h in free_before if h not in still_free]
        assert reused, "allocator ignored the free-list"
        table_handles = table_handle_set(manager)
        for handle in reused:
            assert handle in table_handles
            assert manager._level[handle] >= 0
        # The free-list absorbed growth: the arena did not expand by the
        # full amount of new work.
        arena = manager.arena_statistics()
        assert arena["capacity"] - capacity_before <= max(
            0, len(table_handles) - len(reused)
        )
        # The functions built over reused slots behave correctly.
        for f in fresh:
            manager.sat_count(f, names)

    def test_canonicity_across_collect_cycles(self):
        """Rebuilding a collected function finds a fresh, correct node."""
        manager = BDDManager(["a", "b", "c"])

        def build():
            return manager.apply_or(
                manager.apply_and(manager.var("a"), manager.var("b")),
                manager.var("c"),
            )

        first = build()
        count = manager.sat_count(first, ["a", "b", "c"])
        del first
        manager.collect()
        second = build()
        assert manager.sat_count(second, ["a", "b", "c"]) == count
        # And canonical identity holds for the new incarnation.
        assert build() is second


class TestIndexAfterGC:
    """The per-level index stays exact under op/GC interleavings."""

    NUM_VARS = 7

    def assert_index_exact(self, manager):
        # Ground truth from the node arrays: every handle >= 2 not on
        # the free-list is live and filed under its own subtable key.
        free = set(manager._free)
        partition = {}
        for handle in range(2, len(manager._level)):
            if handle in free:
                continue
            level = manager._level[handle]
            key = unique_key(manager._low[handle], manager._high[handle])
            assert manager._table[level].get(key) == handle
            partition.setdefault(level, set()).add(handle)
        indexed = {
            level: set(sub.values())
            for level, sub in manager._table.items()
            if sub
        }
        assert indexed == partition
        population = manager.level_population()
        assert population == {level: len(b) for level, b in partition.items()}

    def test_random_op_gc_sequences(self):
        rng = random.Random(SEED + 5)
        manager = BDDManager([f"x{i}" for i in range(self.NUM_VARS)])
        names = list(manager.variables)
        roots = [random_function(manager, rng, names, depth=5) for _ in range(3)]
        for _ in range(18):
            if rng.randrange(2):
                roots.append(random_function(manager, rng, names))
            else:
                manager.collect()
            self.assert_index_exact(manager)
        counts = [manager.sat_count(root, names) for root in roots]
        manager.collect()
        self.assert_index_exact(manager)
        assert [manager.sat_count(root, names) for root in roots] == counts


class _GCStressManager(BDDManager):
    """Collects the arena at frequent (safe-point) operation boundaries."""

    PERIOD = 256

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._stress_ops = 0
        self.stress_collections = 0

    def apply_and(self, f, g):
        self._stress_ops += 1
        if self._stress_ops % self.PERIOD == 0:
            self.collect()
            self.stress_collections += 1
        return super().apply_and(f, g)


GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_counterexamples.json"


class TestGoldenByteIdentityUnderGC:
    """Golden counterexamples survive an aggressively collecting kernel."""

    @pytest.fixture(scope="class")
    def goldens(self):
        with GOLDEN_PATH.open() as handle:
            return json.load(handle)["scenarios"]

    @pytest.mark.parametrize(
        "name", ["vsm/bug/drop_write_r3", "vsm/bug/and_becomes_or"]
    )
    def test_golden_records_byte_identical(self, goldens, name):
        from repro.engine import Scenario
        from repro.engine.executor import run_beta

        entry = goldens[name]
        scenario = Scenario.from_dict(entry["scenario"])
        manager = _GCStressManager()
        report = run_beta(
            scenario.architecture(),
            scenario.siminfo(),
            manager=manager,
            impl_kwargs=scenario.impl_kwargs(),
            observation=scenario.observation(),
            beta_backend=scenario.beta_backend,
        )
        assert not report.passed
        assert len(report.mismatches) == entry["mismatch_count"]
        for expected, actual in zip(entry["first_mismatches"], report.mismatches):
            assert actual.observable == expected["observable"]
            assert actual.sample_index == expected["sample_index"]
            assert actual.decoded_instructions == expected["decoded"]
            assert actual.instruction_words == {
                k: int(v) for k, v in expected["words"].items()
            }
            assert {k: bool(v) for k, v in actual.counterexample.items()} == expected[
                "counterexample"
            ]


class TestArenaSnapshots:
    """Kernel-level snapshot/restore: dedup, projection, validation."""

    def build(self, seed=SEED + 10):
        rng = random.Random(seed)
        manager = BDDManager([f"v{i}" for i in range(10)])
        names = list(manager.variables)
        roots = [random_function(manager, rng, names, depth=5) for _ in range(4)]
        return manager, roots

    def test_same_manager_restore_dedups_onto_existing_handles(self):
        manager, roots = self.build()
        payload = manager.snapshot(roots)
        restored = manager.restore(payload)
        assert all(a is b for a, b in zip(restored, roots))
        # Restoring allocated nothing: every node was already present.
        live_before = manager.size()
        manager.restore(payload)
        assert manager.size() == live_before

    def test_snapshot_projects_to_reachable_nodes_only(self):
        manager, roots = self.build()
        payload = manager.snapshot(roots[:1])
        reachable = reachable_handles(manager, roots[:1])
        assert len(payload["levels"]) == len(reachable)

    def test_cross_manager_restore_preserves_semantics(self):
        manager, roots = self.build()
        payload = json.loads(
            json.dumps(manager.snapshot(roots, declares=manager.variables))
        )
        # Target declares two extra variables above, shifting every level.
        target = BDDManager(["extra0", "extra1"])
        restored = target.restore(payload)
        names = [f"v{i}" for i in range(10)]
        for original, copy in zip(roots, restored):
            assert manager.sat_count(original, names) == target.sat_count(copy, names)
            assert manager.support(original) == target.support(copy)

    def test_snapshot_of_terminal_roots(self):
        manager, _ = self.build()
        payload = manager.snapshot([manager.zero, manager.one])
        assert payload["roots"] == [0, 1]
        target = BDDManager()
        zero, one = target.restore(payload)
        assert zero is target.zero and one is target.one

    def test_corrupt_payloads_raise_snapshot_error(self):
        from repro.bdd.kernel import SnapshotError

        manager, roots = self.build()
        payload = manager.snapshot(roots)
        cases = []
        truncated = json.loads(json.dumps(payload))
        truncated["highs"] = truncated["highs"][:-2]
        cases.append(truncated)
        forward = json.loads(json.dumps(payload))
        if forward["lows"]:
            forward["lows"][0] = 5000
        cases.append(forward)
        redundant = json.loads(json.dumps(payload))
        if redundant["lows"]:
            redundant["lows"][-1] = redundant["highs"][-1]
        cases.append(redundant)
        badformat = json.loads(json.dumps(payload))
        badformat["format"] = 999
        cases.append(badformat)
        negative_root = json.loads(json.dumps(payload))
        negative_root["roots"][0] = -1  # must not resolve via negative indexing
        cases.append(negative_root)
        unknown_var = json.loads(json.dumps(payload))
        unknown_var["level_names"] = [
            [lvl, f"nope{lvl}"] for lvl, _ in unknown_var["level_names"]
        ]
        unknown_var["declares"] = []
        cases.append(unknown_var)
        for case in cases:
            with pytest.raises(SnapshotError):
                BDDManager().restore(case)

    def test_failed_restore_leaves_no_stray_declarations(self):
        """A declares/level_names mismatch is refused before mutation."""
        from repro.bdd.kernel import SnapshotError

        manager, roots = self.build()
        payload = json.loads(json.dumps(manager.snapshot(roots)))
        payload["declares"] = ["bogus0", "bogus1"]  # covers none of the names
        target = BDDManager()
        with pytest.raises(SnapshotError):
            target.restore(payload)
        assert target.variables == (), "failed restore declared stray variables"

    def test_incompatible_relative_order_is_refused(self):
        from repro.bdd.kernel import SnapshotError

        manager, roots = self.build()
        payload = json.loads(json.dumps(manager.snapshot(roots)))
        target = BDDManager([f"v{i}" for i in reversed(range(10))])
        with pytest.raises(SnapshotError):
            target.restore(payload)


def image_digest(image):
    """Order-free SHA-256 of an arena image (arrays, tables, names)."""
    import hashlib

    canonical = {
        "level": image["level"],
        "low": image["low"],
        "high": image["high"],
        "free": image["free"],
        "table": sorted(
            (lvl, sorted(sub.items())) for lvl, sub in image["table"].items()
        ),
        "names": image.get("names"),
    }
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def arena_of(manager):
    """The manager's arena state, read straight from its attributes."""
    return {
        "level": list(manager._level),
        "low": list(manager._low),
        "high": list(manager._high),
        "free": list(manager._free),
        "table": {lvl: dict(sub) for lvl, sub in manager._table.items()},
        "names": list(manager.variables),
    }


class TestArenaImages:
    """In-process arena images: exact, handle-identical, never aliased."""

    def build(self, seed):
        rng = random.Random(seed)
        manager = BDDManager([f"v{i}" for i in range(9)])
        names = list(manager.variables)
        roots = [random_function(manager, rng, names, depth=5) for _ in range(4)]
        # Some garbage, then a sweep: the free-list is part of the image.
        for _ in range(3):
            random_function(manager, rng, names, depth=5)
        manager.collect()
        roots.append(random_function(manager, rng, names, depth=4))
        return manager, roots

    @pytest.mark.parametrize("seed", range(4))
    def test_adopted_image_equals_the_source(self, seed):
        source, roots = self.build(SEED + 40 + seed)
        assert source._free or seed, "the seeds should exercise a free-list"
        clone = BDDManager()
        adopted = clone.adopt_image(source.arena_image(), [r.node_id for r in roots])
        assert arena_of(clone) == arena_of(source)
        assert [f.node_id for f in adopted] == [f.node_id for f in roots]
        names = list(source.variables)
        assert [clone.sat_count(f, names) for f in adopted] == [
            source.sat_count(f, names) for f in roots
        ]
        # The clone hash-conses onto the adopted table: rebuilding a
        # root's function yields the adopted handle, allocating nothing.
        rebuilt = clone.restore(source.snapshot(roots))
        assert [f.node_id for f in rebuilt] == [f.node_id for f in adopted]
        assert arena_of(clone)["level"] == arena_of(source)["level"]

    @pytest.mark.parametrize("seed", range(3))
    def test_adopting_is_handle_identical_to_restoring(self, seed):
        source, roots = self.build(SEED + 50 + seed)
        first = json.loads(
            json.dumps(source.snapshot(roots[:2], declares=source.variables))
        )
        second = json.loads(json.dumps(source.snapshot(roots[2:])))
        # Template chain: first restore onto a fresh manager, image, then
        # the second restore on top, image again.
        seeder = BDDManager()
        seeder.restore(first)
        image_one = seeder.arena_image()
        handles_two = [f.node_id for f in seeder.restore(second)]
        image_two = seeder.arena_image()

        replayed = BDDManager()
        replayed.restore(first)
        expected_two = [f.node_id for f in replayed.restore(second)]

        cloned = BDDManager()
        cloned.adopt_image(image_one)
        cloned.adopt_image(image_two)
        assert arena_of(cloned) == arena_of(replayed)
        assert handles_two == expected_two

        # Mixed path: a restore on top of an adopted image.
        mixed = BDDManager()
        mixed.adopt_image(image_one)
        assert [f.node_id for f in mixed.restore(second)] == expected_two
        assert arena_of(mixed) == arena_of(replayed)

    def test_operating_on_a_clone_leaves_the_image_unchanged(self):
        source, roots = self.build(SEED + 60)
        image = source.arena_image()
        digest = image_digest(image)
        clone = BDDManager()
        adopted = clone.adopt_image(image, [r.node_id for r in roots])
        rng = random.Random(SEED + 61)
        names = list(clone.variables)
        adopted.extend(random_function(clone, rng, names, depth=5) for _ in range(3))
        clone.collect()
        assert image_digest(image) == digest
        # The source moving on does not reach into the image either.
        random_function(source, rng, list(source.variables), depth=5)
        source.collect()
        assert image_digest(image) == digest
        # And the image still seeds a faithful clone.
        again = BDDManager()
        again.adopt_image(image)
        assert image_digest(again.arena_image()) == digest

    def test_an_image_that_does_not_extend_the_arena_is_refused(self):
        source, roots = self.build(SEED + 70)
        image = source.arena_image()
        other = BDDManager(["w0", "w1"])
        other.apply_and(other.var("w0"), other.var("w1"))
        before = arena_of(other)
        with pytest.raises(ValueError):
            other.adopt_image(image)
        assert arena_of(other) == before
        # Same variable names, different nodes: refused by the arrays.
        diverged = BDDManager(list(source.variables))
        diverged.apply_xor(diverged.var("v7"), diverged.var("v8"))
        before = arena_of(diverged)
        if before["level"] != image["level"][: len(before["level"])]:
            with pytest.raises(ValueError):
                diverged.adopt_image(image)
            assert arena_of(diverged) == before


def stack_depth():
    """Number of Python frames on the stack below the caller's."""
    depth = 0
    frame = sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class TestFastPathBudget:
    """The apply recursion never runs deeper than the level count.

    :func:`~repro.bdd.kernel.fit_recursion_limit` sizes the recursion
    limit from the level count alone, which holds only if every
    operation, XOR's inline negations included, takes at most one frame
    per level plus a constant.  The diagrams are 3000 levels deep, three
    times CPython's default limit.  Each operation runs under a limit of
    the caller's frames plus the level count plus ``SLACK`` and must
    give the results and arena of a build under a generous limit.
    """

    LEVELS = 3000
    #: The test's frames between ``stack_depth()`` and the kernel
    #: (``operations`` and its lambda), the apply's entry frame, and the
    #: C-level calls on pytest's stack, which count toward the limit
    #: without a Python frame: 9 in all when measured, so 25 leaves room
    #: while still failing any operation that recurses twice per level.
    SLACK = 25

    def build(self, factory):
        """Parity, AND-of-odd-levels and OR-of-even-levels chains."""
        kernel = factory()
        mk = kernel._mk_int
        parity, negated = 0, 1
        conj, disj = 1, 0
        for lvl in reversed(range(self.LEVELS)):
            parity, negated = mk(lvl, parity, negated), mk(lvl, negated, parity)
            if lvl % 2:
                conj = mk(lvl, 0, conj)
            else:
                disj = mk(lvl, disj, 1)
        return kernel, (parity, conj, disj)

    @staticmethod
    def operations(kernel, roots):
        parity, conj, disj = roots
        calls = [
            lambda: kernel._ite3(parity, conj, disj),
            lambda: kernel._ite3(parity, disj, 0),
            lambda: kernel._ite3(conj, 1, parity),
            lambda: kernel._xor2(parity, conj),
            # A terminal-1 high (disj) or terminal-0 low (conj) cofactor
            # makes XOR / XNOR negate the deep parity cofactor inline.
            lambda: kernel._xor2(disj, parity),
            lambda: kernel._xor2(conj, parity, xnor=True),
            lambda: kernel._ite3(parity, 0, 1),
        ]
        results = []
        for call in calls:
            # Cold caches: no call may borrow another's cached subresults.
            kernel.clear_caches()
            results.append(call())
        return results

    @pytest.mark.parametrize(
        "factory",
        [BDDKernel, lambda: BDDManager([f"v{i}" for i in range(3000)])],
        ids=["kernel", "manager"],
    )
    def test_deep_operations_fit_in_one_budget(self, factory):
        # The raw kernel declares no variables, so it sizes the limit
        # the way a manager's declare does.
        fit_recursion_limit(self.LEVELS)
        generous, roots = self.build(factory)
        expected = self.operations(generous, roots)
        tight, tight_roots = self.build(factory)
        assert tight_roots == roots
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + self.LEVELS + self.SLACK)
        try:
            results = self.operations(tight, tight_roots)
        finally:
            sys.setrecursionlimit(limit)
        assert results == expected
        assert tight._level == generous._level
        assert tight._low == generous._low
        assert tight._high == generous._high


#: Run in a fresh interpreter, so the recursion limit starts at
#: CPython's default, as it does in a parallel campaign's worker.
RAISE_SCRIPT = """
import sys
from repro.bdd import BDDManager

DEFAULT = sys.getrecursionlimit()
LEVELS = 3000
names = [f"v{i}" for i in range(LEVELS)]
assert DEFAULT < LEVELS, DEFAULT


def chains(manager):
    parity, conj = manager.zero, manager.one
    for name in reversed(names):
        x = manager.var(name)
        parity = manager.apply_xor(x, parity)
        conj = manager.apply_and(x, conj)
    return parity, conj


def deep_operations(manager, parity, conj):
    # Cold caches: each call recurses through every level.
    manager.clear_caches()
    mixed = manager.apply_xor(parity, conj)
    manager.clear_caches()
    assert manager.apply_xor(mixed, conj) is parity
    manager.clear_caches()
    chosen = manager.ite(parity, conj, manager.apply_not(conj))
    assert chosen is manager.apply_xnor(parity, conj)


# The constructor's declare loop; no caller touches the limit.
built = BDDManager(names)
assert sys.getrecursionlimit() >= LEVELS
parity, conj = chains(built)
deep_operations(built, parity, conj)

sys.setrecursionlimit(DEFAULT)
declared = BDDManager()
declared.declare_all(names)
assert sys.getrecursionlimit() >= LEVELS
deep_operations(declared, *chains(declared))

image = built.arena_image()
sys.setrecursionlimit(DEFAULT)
adopter = BDDManager()
adopted = adopter.adopt_image(image, [parity.node_id, conj.node_id])
assert sys.getrecursionlimit() >= LEVELS
deep_operations(adopter, *adopted)

# The limit is process-global: nothing smaller or released lowers it.
raised = sys.getrecursionlimit()
small = BDDManager(["a", "b"])
small.declare("c")
small.adopt_image(BDDManager(["a", "b", "c"]).arena_image())
for manager in (small, built, declared, adopter):
    manager.release()
assert sys.getrecursionlimit() == raised
print("ok")
"""


def test_managers_raise_the_recursion_limit_for_their_levels():
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", RAISE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "ok"
