"""Array-kernel acceptance benchmark: the new integer-handle BDD kernel
vs. the object-graph kernel it replaced.

The PR-4 tentpole rewrote ``src/repro/bdd`` as a struct-of-arrays
kernel (integer handles, one recursive ITE core with standard-triple
normalisation and native XOR/XNOR, shared int-keyed op caches,
mark-and-sweep arena GC with a free-list).
This benchmark measures that representation change in isolation: a
faithful, self-contained copy of the seed *object-graph* kernel (heap
``BDDNode`` objects, recursive apply walkers, per-call restrict/compose
caches) is embedded below as the baseline,
and both kernels run identical operation workloads.

Measured regimes (each engine-derived):

* ``cold_apply``    — fresh-manager mixed AND/OR/XOR/ITE accumulation
                      (model construction from nothing);
* ``warm_apply``    — repeated re-derivation on one manager (the pooled
                      campaign regime);
* ``compare``       — XNOR/AND vector-equality chains (the verifier's
                      sample comparison; exercises the native XOR core);
* ``advance``       — restrict + support-limited compose over a shared
                      register-file DAG (the relational stepper's
                      per-cycle product);
* ``quantify``      — existential smoothing sweeps;
* ``big_build``     — a block-ordered comparator driven to ~10^5 nodes
                      (allocation-heavy regime).

plus an **arena/GC** session loop the object-graph kernel
cannot run at all (it has no collector — its table only grows), and
the kernel's **memory footprint**: traced bytes per live node on a
fixed linear build, which both tiers hold under a ceiling.

Results are written to ``BENCH_kernel.json`` next to this file (CI
uploads it as an artifact): per-regime ops/sec for both kernels, the
speedup per regime and their geometric mean, and the arena's
live/capacity/free/reclaimed accounting.

Honesty note: both kernels bottom out in the same CPython dict
operations per node (one cache probe, one cache store, one unique-table
probe per constructed node), so regimes dominated by cold allocation
cannot improve much; the wins come where object allocation, complement
materialisation (XOR/XNOR), per-call (vs shared) memo caches or table
garbage dominated.  PR 5 attacked the PR-4 cold-chain negative (~0.65x)
with recursive fast paths in the ITE/AND/OR/XOR cores (one cheap
frame per expanded node; now the only ITE and XOR path) plus cheaper
wrapper interning; cold recovered to ~0.90x on the
dev box.  A later re-profile of the residual found manager construction
at ~1.5% of the regime, and suppressing wrapper interning entirely moves
the needle by under 1% — the remaining
gap lives *inside* the memoized cores (standard-triple normalisation
and GC-capable bookkeeping per constructed node, which buy the
compare/advance wins), so the >=1.0x target stays a recorded
near-miss at ~0.90-0.93x.  The asserted bars below are measured
floors; ROADMAP records the headline numbers and the misses alongside
the wins.
"""

import gc
import json
import math
import pathlib
import time
import tracemalloc
from typing import Dict, Iterable

import pytest

from repro.bdd import BDDManager

from _bench_utils import record_paper_comparison

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_kernel.json"

_TERMINAL_LEVEL = 1 << 60


# ======================================================================
# The baseline: a faithful copy of the seed object-graph kernel
# ======================================================================
class _LegacyNode:
    """Seed-era heap node (one Python object per BDD node)."""

    __slots__ = ("level", "low", "high", "value", "node_id")

    def __init__(self, level, low, high, value, node_id):
        self.level = level
        self.low = low
        self.high = high
        self.value = value
        self.node_id = node_id

    @property
    def is_terminal(self):
        return self.value is not None


class LegacyManager:
    """The seed ``BDDManager`` reduced to the operations measured here.

    Algorithms and data structures are copied from the pre-refactor
    module: hash-consed ``_mk`` over object children, recursive ``ite``
    with ``_cofactors_at``, XOR/XNOR through materialised negation,
    per-call dict caches for restrict/compose, a shared quantify cache
    and a per-level node index.
    """

    def __init__(self, variables=None):
        self._level_of = {}
        self._name_of = []
        self._unique = {}
        self._level_index = {}
        self._ite_cache = {}
        self._quant_cache = {}
        self._next_id = 2
        self.zero = _LegacyNode(_TERMINAL_LEVEL, None, None, 0, 0)
        self.one = _LegacyNode(_TERMINAL_LEVEL, None, None, 1, 1)
        if variables:
            for name in variables:
                self.declare(name)

    def declare(self, name):
        if name in self._level_of:
            return
        self._level_of[name] = len(self._name_of)
        self._name_of.append(name)

    def level(self, name):
        return self._level_of[name]

    def size(self):
        return len(self._unique)

    def level_population(self):
        return {
            level: len(bucket)
            for level, bucket in self._level_index.items()
            if bucket
        }

    def _mk(self, level, low, high):
        if low is high:
            return low
        key = (level, low.node_id, high.node_id)
        node = self._unique.get(key)
        if node is None:
            node = _LegacyNode(level, low, high, None, self._next_id)
            self._next_id += 1
            self._unique[key] = node
            bucket = self._level_index.get(level)
            if bucket is None:
                bucket = self._level_index[level] = {}
            bucket[node.node_id] = node
        return node

    def var(self, name):
        if name not in self._level_of:
            self.declare(name)
        return self._mk(self._level_of[name], self.zero, self.one)

    @staticmethod
    def _cofactors_at(node, level):
        if node.level == level:
            return node.low, node.high
        return node, node

    def ite(self, f, g, h):
        if f is self.one:
            return g
        if f is self.zero:
            return h
        if g is h:
            return g
        if g is self.one and h is self.zero:
            return f
        key = (f.node_id, g.node_id, h.node_id)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(f.level, g.level, h.level)
        f0, f1 = self._cofactors_at(f, level)
        g0, g1 = self._cofactors_at(g, level)
        h0, h1 = self._cofactors_at(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def apply_not(self, f):
        return self.ite(f, self.zero, self.one)

    def apply_and(self, f, g):
        return self.ite(f, g, self.zero)

    def apply_or(self, f, g):
        return self.ite(f, self.one, g)

    def apply_xor(self, f, g):
        return self.ite(f, self.apply_not(g), g)

    def apply_xnor(self, f, g):
        return self.ite(f, g, self.apply_not(g))

    def restrict(self, f, assignment):
        if not assignment:
            return f
        levels = {self.level(name): bool(value) for name, value in assignment.items()}
        cache = {}

        def walk(node):
            if node.is_terminal:
                return node
            hit = cache.get(node.node_id)
            if hit is not None:
                return hit
            if node.level in levels:
                result = walk(node.high if levels[node.level] else node.low)
            else:
                result = self._mk(node.level, walk(node.low), walk(node.high))
            cache[node.node_id] = result
            return result

        return walk(f)

    def exists(self, names, f):
        levels = frozenset(self.level(name) for name in names)
        if not levels:
            return f
        max_level = max(levels)
        memo = {}
        shared = self._quant_cache

        def walk(node):
            if node.is_terminal or node.level > max_level:
                return node
            hit = memo.get(node.node_id)
            if hit is None:
                hit = shared.get(("exists", node.node_id, levels))
                if hit is not None:
                    memo[node.node_id] = hit
            if hit is not None:
                return hit
            low = walk(node.low)
            high = walk(node.high)
            if node.level in levels:
                result = self.apply_or(low, high)
            else:
                result = self._mk(node.level, low, high)
            memo[node.node_id] = result
            shared[("exists", node.node_id, levels)] = result
            return result

        return walk(f)

    def compose(self, f, substitution):
        if not substitution:
            return f
        by_level = {self.level(name): g for name, g in substitution.items()}
        cache = {}

        def walk(node):
            if node.is_terminal:
                return node
            hit = cache.get(node.node_id)
            if hit is not None:
                return hit
            low = walk(node.low)
            high = walk(node.high)
            replacement = by_level.get(node.level)
            if replacement is None:
                var_fn = self._mk(node.level, self.zero, self.one)
            else:
                var_fn = replacement
            result = self.ite(var_fn, high, low)
            cache[node.node_id] = result
            return result

        return walk(f)

    def count_nodes(self, f):
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node.node_id in seen:
                continue
            seen.add(node.node_id)
            if not node.is_terminal:
                stack.append(node.low)
                stack.append(node.high)
        return len(seen)


# ======================================================================
# Operation workloads (identical code for both kernels)
# ======================================================================
def _cold_apply(make_manager, iterations, width=18):
    """Fresh-manager mixed accumulation: model building from nothing."""
    ops = 0
    check = 0
    started = time.perf_counter()
    for _ in range(iterations):
        m = make_manager([f"v{i}" for i in range(width)])
        fs = [m.var(f"v{i}") for i in range(width)]
        acc = m.zero
        for i, f in enumerate(fs):
            if i % 3 == 0:
                acc = m.apply_xor(acc, f)
            elif i % 3 == 1:
                acc = m.apply_or(acc, m.apply_and(f, fs[i - 1]))
            else:
                acc = m.ite(f, acc, fs[i - 2])
            ops += 2
        check += m.count_nodes(acc)
    return time.perf_counter() - started, ops, check


def _warm_apply(make_manager, iterations, width=20):
    """One manager, repeated re-derivation: the pooled campaign regime."""
    m = make_manager([f"v{i}" for i in range(width)])
    fs = [m.var(f"v{i}") for i in range(width)]
    ops = 0
    check = 0
    started = time.perf_counter()
    for _ in range(iterations):
        acc = m.one
        for i, f in enumerate(fs):
            if i % 4 == 0:
                acc = m.apply_and(acc, m.apply_or(f, fs[(i + 3) % width]))
            elif i % 4 == 1:
                acc = m.apply_xor(acc, f)
            elif i % 4 == 2:
                acc = m.ite(f, acc, m.apply_not(fs[(i + 1) % width]))
            else:
                acc = m.apply_xnor(acc, fs[(i + 5) % width])
            ops += 2
        check += m.count_nodes(acc)
    return time.perf_counter() - started, ops, check


def _build_vector(m, nvars, width, stride=7):
    vs = [m.var(f"v{i}") for i in range(nvars)]
    bits = []
    carry = m.zero
    for i in range(width):
        a = vs[i % nvars]
        b = vs[(i * stride + 3) % nvars]
        s = m.apply_xor(m.apply_xor(a, b), carry)
        carry = m.apply_or(
            m.apply_and(a, b), m.apply_and(carry, m.apply_xor(a, b))
        )
        bits.append(s)
    return bits


def _compare(make_manager, iterations, nvars=28, width=24):
    """XNOR/AND vector-equality chains: the verifier's sample compare."""
    m = make_manager([f"v{i}" for i in range(nvars)])
    left = _build_vector(m, nvars, width, 5)
    right = _build_vector(m, nvars, width, 11)
    ops = 0
    check = 0
    started = time.perf_counter()
    for _ in range(iterations):
        acc = m.one
        for a, b in zip(left, right):
            acc = m.apply_and(acc, m.apply_xnor(a, b))
            ops += 2
        check += m.count_nodes(acc)
    return time.perf_counter() - started, ops, check


def _advance(make_manager, iterations, nreg=8, width=8, sel=3):
    """Register-file relation advance: restrict + support-limited compose.

    The next-state functions mirror the beta stepper's: each latch bit
    is a mux tree over the *whole* write port (selector decode, write
    data, old value), so every per-bit product walks a shared DAG of
    real size — which is where the shared (cross-call) restrict/compose
    caches of the array kernel pay, exactly as in
    :meth:`repro.relational.beta.MachineStepper.advance`.
    """
    names = (
        [f"sel[{i}]" for i in range(sel)]
        + ["wen"]
        + [f"wd[{i}]" for i in range(width)]
        + [f"r{r}[{b}]" for r in range(nreg) for b in range(width)]
    )
    m = make_manager(names)
    sel_vars = [m.var(f"sel[{i}]") for i in range(sel)]
    wen = m.var("wen")
    # Write data with real cones: an adder chain over two registers.
    wdata = []
    carry = m.var("wen")
    for b in range(width):
        a_bit = m.var(f"r0[{b}]")
        b_bit = m.var(f"r1[{b}]")
        wdata.append(m.apply_xor(m.apply_xor(a_bit, b_bit), carry))
        carry = m.apply_or(
            m.apply_and(a_bit, b_bit), m.apply_and(carry, m.apply_xor(a_bit, b_bit))
        )
    nxt = {}
    for r in range(nreg):
        dec = m.one
        for i in range(sel):
            bit = sel_vars[i] if (r >> i) & 1 else m.apply_not(sel_vars[i])
            dec = m.apply_and(dec, bit)
        gate = m.apply_and(dec, wen)
        for b in range(width):
            nxt[(r, b)] = m.ite(gate, wdata[b], m.var(f"r{r}[{b}]"))
    substitution = {
        f"r{r}[{b}]": m.apply_xor(
            m.var(f"r{(r + 1) % nreg}[{b}]"),
            m.apply_and(
                m.var(f"r{(r + 2) % nreg}[{(b + 1) % width}]"),
                m.var(f"r{(r + 3) % nreg}[{(b + 2) % width}]"),
            ),
        )
        for r in range(nreg)
        for b in range(width)
    }
    ops = 0
    check = 0
    started = time.perf_counter()
    for round_index in range(iterations):
        fixed = {f"sel[{i}]": bool((round_index >> i) & 1) for i in range(sel)}
        fixed["wen"] = True
        for fn in nxt.values():
            g = m.restrict(fn, fixed)
            g = m.compose(g, substitution)
            ops += 2
            check += 0 if g is m.zero else 1
    return time.perf_counter() - started, ops, check


def _quantify(make_manager, iterations, nvars=22, width=18):
    """Existential smoothing sweeps over shared-DAG vectors."""
    m = make_manager([f"v{i}" for i in range(nvars)])
    bits = _build_vector(m, nvars, width)
    ops = 0
    check = 0
    started = time.perf_counter()
    for round_index in range(iterations):
        names = [f"v{i}" for i in range(round_index % 5, nvars, 5)]
        for bit in bits[::2]:
            q = m.exists(names, bit)
            ops += 1
            check += m.count_nodes(q)
    return time.perf_counter() - started, ops, check


def _comparator(m, width):
    f = m.one
    for i in range(width):
        f = m.apply_and(f, m.apply_xnor(m.var(f"a{i}"), m.var(f"b{i}")))
    return f


def _big_build(make_manager, iterations, width=12):
    """Block-ordered comparator: exponential allocation-heavy regime."""
    ops = 0
    check = 0
    started = time.perf_counter()
    for _ in range(iterations):
        m = make_manager(
            [f"a{i}" for i in range(width)] + [f"b{i}" for i in range(width)]
        )
        f = _comparator(m, width)
        ops += 2 * width
        check += m.size()
    return time.perf_counter() - started, ops, check


REGIMES = {
    "cold_apply": _cold_apply,
    "warm_apply": _warm_apply,
    "compare": _compare,
    "advance": _advance,
    "quantify": _quantify,
    "big_build": _big_build,
}

#: Iteration counts per tier.
FULL_ITERATIONS = {
    "cold_apply": 300,
    "warm_apply": 400,
    "compare": 30,
    "advance": 8,
    "quantify": 80,
    "big_build": 4,
}
SMOKE_ITERATIONS = {
    "cold_apply": 12,
    "warm_apply": 20,
    "compare": 4,
    "advance": 1,
    "quantify": 4,
    "big_build": 1,
}

#: Timed repetitions per regime (best-of, to shave scheduler noise).
FULL_REPEATS = 2
SMOKE_REPEATS = 1


def _best_of(workload, factory, count, repeats):
    best = None
    for _ in range(repeats):
        gc.collect()
        seconds, ops, check = workload(factory, count)
        if best is None or seconds < best[0]:
            best = (seconds, ops, check)
    return best


def _run_regimes(
    iterations: Dict[str, int], repeats: int = 1
) -> Dict[str, Dict[str, float]]:
    """Run every regime on both kernels; return the per-regime record."""
    results: Dict[str, Dict[str, float]] = {}
    for name, workload in REGIMES.items():
        count = iterations[name]
        legacy_seconds, ops, legacy_check = _best_of(
            workload, LegacyManager, count, repeats
        )
        kernel_seconds, kernel_ops, kernel_check = _best_of(
            workload, BDDManager, count, repeats
        )
        assert ops == kernel_ops
        # ``check`` sums structure sizes where comparable; the native
        # XOR path allocates fewer dead intermediates, so table sizes
        # may differ while every counted *function* is identical — the
        # differential suites pin semantic identity, this pins apples
        # against apples per regime.
        if name in ("cold_apply", "warm_apply", "compare", "advance"):
            assert legacy_check == kernel_check, name
        results[name] = {
            "ops": ops,
            "legacy_seconds": round(legacy_seconds, 4),
            "kernel_seconds": round(kernel_seconds, 4),
            "legacy_ops_per_s": round(ops / max(legacy_seconds, 1e-9)),
            "kernel_ops_per_s": round(ops / max(kernel_seconds, 1e-9)),
            "speedup": round(legacy_seconds / max(kernel_seconds, 1e-9), 3),
        }
    return results


def _arena_sessions(sessions: int, width: int) -> Dict[str, object]:
    """Repeated build/drop/collect sessions: the arena must stay flat.

    The object-graph kernel has no collector, so this regime is
    kernel-only: it demonstrates that the free-list actually bounds the
    arena across campaign-session-like churn.
    """
    m = BDDManager([f"a{i}" for i in range(width)] + [f"b{i}" for i in range(width)])
    capacities = []
    reclaimed_total = 0
    for _ in range(sessions):
        f = _comparator(m, width)
        del f
        reclaimed_total += m.collect()
        capacities.append(m.arena_statistics()["capacity"])
    stats = m.arena_statistics()
    return {
        "sessions": sessions,
        "capacity_first": capacities[0],
        "capacity_last": capacities[-1],
        "capacity_max": max(capacities),
        "reclaimed_total": reclaimed_total,
        "live_after": stats["live"],
        "free_after": stats["free"],
        "allocated_total": stats["allocated_total"],
    }


#: Traced bytes per live node of :func:`_node_footprint` on CPython
#: 3.11, and the factor both tiers allow above it.  With int-packed
#: table and cache keys the build measures 221.9 bytes/node (272.6 with
#: the tuple keys they replaced), so tuple keys coming back fail the
#: ceiling of 1.15 x 222 = 255.
BYTES_PER_NODE = 222
BYTES_PER_NODE_SLACK = 1.15


def _node_footprint(width: int = 200) -> Dict[str, object]:
    """Traced bytes per live node of the kernel on a fixed linear build.

    Three ``width``-bit ripple adders (a+b, b+c, a+c) over interleaved
    ``a/b/c`` variables, every sum and carry kept, built under
    ``tracemalloc``.  The bytes still traced at the end (node arrays,
    unique subtables, operation caches, the kept wrappers) are divided
    by the live node count.
    """
    names = [f"{v}{i}" for i in range(width) for v in "abc"]
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        m = BDDManager(names)
        kept = []
        for x, y in (("a", "b"), ("b", "c"), ("a", "c")):
            carry = m.zero
            for i in range(width):
                xi = m.var(f"{x}{i}")
                yi = m.var(f"{y}{i}")
                half = m.apply_xor(xi, yi)
                kept.append(m.apply_xor(half, carry))
                carry = m.apply_or(m.apply_and(xi, yi), m.apply_and(half, carry))
                kept.append(carry)
        traced = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    live = m.size()
    return {
        "width": width,
        "live_nodes": live,
        "traced_bytes": traced,
        "bytes_per_node": round(traced / live, 1),
    }


def _assert_footprint(footprint: Dict[str, object]) -> None:
    assert footprint["bytes_per_node"] <= BYTES_PER_NODE * BYTES_PER_NODE_SLACK, (
        footprint
    )


def _geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _write_json(payload: Dict[str, object]) -> None:
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _payload(tier: str, regimes, arena, footprint) -> Dict[str, object]:
    speedups = [entry["speedup"] for entry in regimes.values()]
    return {
        "tier": tier,
        "op_throughput": regimes,
        "aggregate_speedup_geomean": round(_geomean(speedups), 3),
        "best_regime_speedup": round(max(speedups), 3),
        "arena": arena,
        "footprint": footprint,
    }


# ======================================================================
# Tiers
# ======================================================================
@pytest.mark.bench_smoke
def test_kernel_bench_smoke(benchmark):
    """Sub-minute pass over every regime; emits BENCH_kernel.json."""

    def run():
        regimes = _run_regimes(SMOKE_ITERATIONS, repeats=SMOKE_REPEATS)
        arena = _arena_sessions(sessions=4, width=10)
        return regimes, arena, _node_footprint()

    regimes, arena, footprint = benchmark.pedantic(run, rounds=1, iterations=1)
    payload = _payload("smoke", regimes, arena, footprint)
    _write_json(payload)
    # Smoke bars are correctness-of-harness, not performance claims,
    # except the memory footprint, which is deterministic.
    assert arena["capacity_last"] <= arena["capacity_max"]
    assert arena["reclaimed_total"] > 0
    _assert_footprint(footprint)
    record_paper_comparison(
        benchmark,
        experiment="array kernel vs object-graph kernel (smoke)",
        paper="Section 3.2: ROBDD operations dominate verification cost",
        measured=f"geomean speedup {payload['aggregate_speedup_geomean']}x",
    )


def test_kernel_op_throughput(benchmark):
    """Full tier: measured speedups with the acceptance floors asserted."""

    def run():
        regimes = _run_regimes(FULL_ITERATIONS, repeats=FULL_REPEATS)
        arena = _arena_sessions(sessions=8, width=12)
        return regimes, arena, _node_footprint()

    regimes, arena, footprint = benchmark.pedantic(run, rounds=1, iterations=1)
    payload = _payload("full", regimes, arena, footprint)
    _write_json(payload)
    _assert_footprint(footprint)

    # The arena stays flat across sessions (free-list reuse works)...
    assert arena["capacity_last"] <= arena["capacity_first"] * 1.05
    # ...and op throughput beats the object-graph kernel where the
    # representation matters (floors are set well under the typical
    # measurements — see ROADMAP for the recorded numbers — so CI noise
    # does not flake the tier; regressions of the *shape* still fail).
    assert regimes["compare"]["speedup"] >= 1.4, regimes["compare"]
    assert regimes["warm_apply"]["speedup"] >= 1.0, regimes["warm_apply"]
    # The PR-5 recursive fast path lifted cold chains from ~0.65x to
    # ~0.85x typical; the floor is set under the noise band (the >=1.0x
    # target itself is a recorded near-miss, see the module docstring).
    assert regimes["cold_apply"]["speedup"] >= 0.72, regimes["cold_apply"]
    assert payload["aggregate_speedup_geomean"] >= 1.15, payload
    record_paper_comparison(
        benchmark,
        experiment="array kernel vs object-graph kernel (full)",
        paper="Section 3.2: ROBDD operations dominate verification cost",
        measured=(
            f"per-regime speedups "
            f"{ {name: entry['speedup'] for name, entry in regimes.items()} }, "
            f"geomean {payload['aggregate_speedup_geomean']}x"
        ),
    )


if __name__ == "__main__":
    regimes = _run_regimes(FULL_ITERATIONS, repeats=FULL_REPEATS)
    arena = _arena_sessions(sessions=8, width=12)
    payload = _payload("full", regimes, arena, _node_footprint())
    _write_json(payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
