"""Sections 3.3-3.4 vs Chapter 4 — exhaustive traversal vs the definite-machine method.

The classical baseline verifies input/output equivalence by traversing
the reachable states of the product machine; the paper's contribution is
that k-definite machines (such as pipelined processors) need only k
cycles of symbolic simulation.  This benchmark runs both procedures on
the same family of machines and reports the cost of each, reproducing
the qualitative claim "only a small number of cycles, rather than
exhaustive traversal, have to be simulated".
"""

import pytest

from repro.bdd import BDDManager
from repro.fsm import (
    SymbolicFSM,
    build_product,
    reachable_states,
    verify_definite_equivalence,
)
from repro.logic import inverted_shift_register, shift_register

from _bench_utils import record_paper_comparison


def delay_line_pair(length, manager):
    """Two structurally different but equivalent `length`-cycle delay lines."""
    left = SymbolicFSM.from_netlist(shift_register(length), manager, prefix="L.")
    right = SymbolicFSM.from_netlist(inverted_shift_register(length), manager, prefix="R.")
    return left, right


def align_inputs(manager, left, right):
    """Rebuild `right` so it reads the same input variable names as `left`."""
    mapping = dict(zip(sorted(right.input_names), sorted(left.input_names)))
    return SymbolicFSM(
        manager,
        input_names=list(left.input_names),
        state_names=list(right.state_names),
        next_state={name: manager.rename(fn, mapping) for name, fn in right.next_state.items()},
        outputs={name: manager.rename(fn, mapping) for name, fn in right.outputs.items()},
        reset_state=right.reset_state,
        name=right.name,
    )


@pytest.mark.parametrize("length", [3, 5])
def test_baseline_product_machine_traversal(benchmark, length):
    """Exhaustive reachability of the product machine (the Chapter-3 baseline)."""

    def run():
        manager = BDDManager()
        left, right = delay_line_pair(length, manager)
        right = align_inputs(manager, left, right)
        product = build_product(
            left, right, output_pairs=[(f"stage{length - 1}", f"stage{length - 1}")]
        )
        reach = reachable_states(product)
        equal = product.outputs["equal"]
        violation = manager.apply_and(reach.reachable, manager.apply_not(equal))
        return reach, manager.is_contradiction(violation)

    reach, equivalent = benchmark(run)
    assert equivalent
    assert reach.iterations == length + 1
    assert reach.reachable_state_count == 2**length
    record_paper_comparison(
        benchmark,
        experiment=f"Section 3.4 baseline (product machine, {length}-cycle delay line)",
        paper="exhaustive breadth-first traversal of the product STG",
        measured=(
            f"{reach.iterations} image iterations, "
            f"{reach.reachable_state_count} reachable product states"
        ),
    )


@pytest.mark.parametrize("length", [3, 5])
def test_definite_machine_method(benchmark, length):
    """Theorem 4.3.1.1: the same pair verified with k cycles of symbolic simulation."""

    def run():
        manager = BDDManager()
        left, right = delay_line_pair(length, manager)
        right = align_inputs(manager, left, right)
        return verify_definite_equivalence(
            left, right, length, output_pairs=[(f"stage{length - 1}", f"stage{length - 1}")]
        )

    result = benchmark(run)
    assert result.equivalent
    assert result.cycles_simulated == length + 1
    record_paper_comparison(
        benchmark,
        experiment=f"Chapter 4 method (definite machines, {length}-cycle delay line)",
        paper="k cycles of symbolic simulation replace the traversal",
        measured=(
            f"{result.cycles_simulated} simulated cycles cover "
            f"{result.sequences_covered} input sequences"
        ),
    )


def test_crossover_summary(benchmark):
    """Iterations needed by each method as the delay line deepens (the 'shape')."""

    def run():
        rows = []
        for length in (2, 3, 4, 5, 6):
            manager = BDDManager()
            left, right = delay_line_pair(length, manager)
            right = align_inputs(manager, left, right)
            product = build_product(
                left, right, output_pairs=[(f"stage{length - 1}", f"stage{length - 1}")]
            )
            reach = reachable_states(product)
            definite = verify_definite_equivalence(
                left, right, length, output_pairs=[(f"stage{length - 1}", f"stage{length - 1}")]
            )
            rows.append((length, reach.iterations, definite.cycles_simulated))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for length, baseline_iterations, definite_cycles in rows:
        assert definite_cycles == length + 1
        assert baseline_iterations == length + 1
    record_paper_comparison(
        benchmark,
        experiment="Traversal iterations vs definite-machine cycles",
        paper="definite-machine method needs only k cycles",
        measured="; ".join(
            f"k={length}: baseline {it} iterations vs {cy} cycles" for length, it, cy in rows
        ),
    )


@pytest.mark.bench_smoke
def test_smoke_baseline_product_machine():
    """Fast tier: Theorem 4.3.1.1 beats traversal on a 3-cycle delay line."""
    manager = BDDManager()
    left, right = delay_line_pair(3, manager)
    right = align_inputs(manager, left, right)
    result = verify_definite_equivalence(
        left, right, 3, output_pairs=[("stage2", "stage2")]
    )
    assert result.equivalent
