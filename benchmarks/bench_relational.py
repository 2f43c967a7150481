"""ROADMAP perf target — partitioned relations and early quantification.

The ROADMAP names variable-k late-branch placements (control transfer in
the last slot of a k=4 window) as the wall-clock bottleneck and "better
orders, early quantification" as the attack.  This benchmark measures
the relational subsystem's image computation on exactly that workload:
the k=4 late-branch window formulated over the pipelined VSM's
cycle-level transition relation (99 state bits + the instruction word),
computed with the partitioned early-quantification schedule versus the
classical build-then-smooth loop (conjoin the frontier with every
per-bit relation, smooth once at the end).  The results are canonically
identical; wall-clock and peak live BDD nodes are not remotely.  (The
even older baseline — prebuild the one-BDD monolithic relation — does
not terminate on this machine at all, which is why the
frontier-constrained conjunction is the baseline measured.)
"""

import time

import pytest

from repro.bdd import BDDManager
from repro.core.architectures import VSMArchitecture
from repro.logic import random_netlist
from repro.fsm import SymbolicFSM
from repro.relational import (
    ImageComputer,
    TransitionRelation,
    pipelined_vsm_relation,
)
from repro.relational.models import FETCH_VALID
from repro.strings import CONTROL, NORMAL

from _bench_utils import record_paper_comparison

#: The ROADMAP bottleneck: branch in the last slot of the k=4 window.
LATE_BRANCH_K4 = (NORMAL, NORMAL, NORMAL, CONTROL)
#: Cluster node bound used for the processor-scale relation.
CLUSTER_NODE_LIMIT = 2000
#: How many window cycles the build-then-smooth baseline is driven
#: through head-to-head (each baseline cycle costs tens of seconds; the
#: partitioned path does the whole window in about a second).
BASELINE_CYCLES = 2


def window_cubes(manager, slots):
    """Per-cycle input-constraint cubes for an instruction-slot window."""
    architecture = VSMArchitecture()
    cubes = []
    for kind in slots:
        cube = {
            f"in.word[{bit}]": value
            for bit, value in architecture.instruction_class_cube(kind).items()
        }
        cube[FETCH_VALID] = True
        cubes.append(manager.cube(cube))
    return cubes


def drive(computer, frontier, cubes, method):
    """Run an image sequence; return (frontiers, seconds, peak live nodes)."""
    image = computer.image if method == "partitioned" else computer.monolithic_image
    frontiers = []
    peak = 0
    started = time.perf_counter()
    for cube in cubes:
        frontier = image(frontier, cube)
        frontiers.append(frontier)
        peak = max(peak, computer.last_stats.peak_live_nodes)
    return frontiers, time.perf_counter() - started, peak


def test_late_branch_image_partitioned_vs_build_then_smooth(benchmark):
    """The acceptance comparison: early quantification on the k=4 window."""
    manager = BDDManager()
    relation, reset = pipelined_vsm_relation(manager)
    computer = ImageComputer(relation, cluster_node_limit=CLUSTER_NODE_LIMIT)
    cubes = window_cubes(manager, LATE_BRANCH_K4)
    reset_cube = manager.cube(reset)

    def partitioned_window():
        return drive(computer, reset_cube, cubes, "partitioned")

    fast_frontiers, fast_seconds, fast_peak = benchmark.pedantic(
        partitioned_window, rounds=1, iterations=1
    )
    slow_frontiers, slow_seconds, slow_peak = drive(
        computer, reset_cube, cubes[:BASELINE_CYCLES], "monolithic"
    )

    # Byte-identical results on the shared prefix: same canonical nodes.
    for fast, slow in zip(fast_frontiers, slow_frontiers):
        assert fast is slow
    # The partitioned path finishes the *whole* window faster than the
    # baseline covers its prefix, and peaks far smaller.
    assert fast_seconds < slow_seconds / 5
    assert fast_peak < slow_peak / 5
    record_paper_comparison(
        benchmark,
        experiment="k=4 late-branch window over the pipelined-VSM relation",
        paper="smoothing out of one monolithic conjunction dominates verification",
        measured=(
            f"partitioned: {len(cubes)} cycles in {fast_seconds:.2f}s "
            f"(peak {fast_peak} live nodes) vs build-then-smooth: "
            f"{BASELINE_CYCLES} cycles in {slow_seconds:.2f}s (peak {slow_peak})"
        ),
    )


# ----------------------------------------------------------------------
# Smoke tier
# ----------------------------------------------------------------------
@pytest.mark.bench_smoke
def test_smoke_partitioned_beats_build_then_smooth():
    """Fast tier: both image paths agree; the partitioned one peaks lower."""
    manager = BDDManager()
    machine = SymbolicFSM.from_netlist(random_netlist(7, num_latches=6), manager)
    computer = ImageComputer(TransitionRelation.from_fsm(machine))
    frontier = manager.one  # every state at once: the worst frontier
    fast = computer.image(frontier)
    fast_peak = computer.last_stats.peak_live_nodes
    slow = computer.monolithic_image(frontier)
    slow_peak = computer.last_stats.peak_live_nodes
    assert fast is slow
    assert fast_peak <= slow_peak


@pytest.mark.bench_smoke
def test_smoke_pipelined_relation_partitioned_window():
    """Fast tier: the processor relation's k=2 late-branch window."""
    manager = BDDManager()
    relation, reset = pipelined_vsm_relation(manager)
    computer = ImageComputer(relation, cluster_node_limit=CLUSTER_NODE_LIMIT)
    cubes = window_cubes(manager, (NORMAL, CONTROL))
    frontiers, seconds, peak = drive(computer, manager.cube(reset), cubes, "partitioned")
    assert all(manager.is_satisfiable(f) for f in frontiers)
    assert peak < 50_000  # the monolithic loop peaks an order above this
