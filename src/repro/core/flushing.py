"""Burch-Dill style flushing check (comparison point).

The paper predates the Burch-Dill correspondence criterion (DAC 1994's
contemporaneous line of work) but the two approaches verify the same
kind of design, so the reproduction includes a flushing-based check as
a modern comparison point:

    flush(step_impl(s, i))  ==  step_spec(flush(s), i)

Here ``s`` is a pipeline state reached by a warm-up sequence of
symbolic instructions from reset, ``i`` is a symbolic instruction,
``flush`` drains the pipeline by injecting invalid fetches (bubbles)
until every in-flight instruction has retired, and ``step_spec`` is one
architectural step of the unpipelined specification.  Because the
warm-up instructions are fully symbolic, the reachable-state coverage
grows with the warm-up depth; a warm-up of ``k - 1`` instructions
exercises every pipeline occupancy pattern the design can reach from
reset under the chosen instruction classes.

The check shares the symbolic models, the instruction-class cubes and
the observation protocol with the beta-relation engine, so its results
are directly comparable in the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bdd import BDDManager, find_distinguishing_assignment
from ..logic import BitVec
from ..strings import NORMAL
from .architectures import Architecture
from .observation import ObservationSpec
from .report import Mismatch


@dataclass
class FlushingReport:
    """Outcome of a Burch-Dill style flushing check."""

    design: str
    passed: bool
    warmup_instructions: int
    flush_cycles: int
    mismatches: List[Mismatch] = field(default_factory=list)
    seconds: float = 0.0
    bdd_nodes: int = 0

    def summary(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        lines = [
            f"{self.design}: flushing (Burch-Dill style) check {verdict}",
            f"  warm-up depth {self.warmup_instructions}, {self.flush_cycles} flush cycles",
            f"  wall-clock {self.seconds:.2f} s, {self.bdd_nodes} live BDD nodes",
        ]
        for mismatch in self.mismatches[:5]:
            lines.append(f"    - {mismatch.describe()}")
        return "\n".join(lines)


def _flush(implementation, architecture: Architecture, cycles: int) -> None:
    """Drain the pipeline with invalid fetches."""
    manager = implementation.manager
    nop = BitVec.constant(manager, 0, architecture.instruction_width)
    for _ in range(cycles):
        implementation.step(nop, fetch_valid=manager.zero)


def _class_instruction(
    manager: BDDManager, architecture: Architecture, kind: str, label: str
) -> BitVec:
    """A symbolic instruction restricted to an instruction class."""
    cube = architecture.instruction_class_cube(kind)
    bits = []
    for bit in range(architecture.instruction_width):
        if bit in cube:
            bits.append(manager.constant(cube[bit]))
        else:
            bits.append(manager.var(f"{label}[{bit}]"))
    return BitVec.from_bits(manager, bits)


def verify_by_flushing(
    architecture: Architecture,
    warmup_instructions: int = 2,
    warmup_kind: str = NORMAL,
    step_kind: str = NORMAL,
    manager: Optional[BDDManager] = None,
    impl_kwargs: Optional[dict] = None,
    observation: Optional[ObservationSpec] = None,
) -> FlushingReport:
    """Check the flushing commutative diagram on the given architecture.

    Two copies of the implementation are warmed up identically with
    ``warmup_instructions`` symbolic instructions.  The first copy is
    flushed, its architectural state is transplanted into a fresh
    specification instance and the specification executes one more
    symbolic instruction.  The second copy executes that same
    instruction *before* being flushed.  The architectural observations
    of the two paths must be identical ROBDDs.
    """
    manager = manager if manager is not None else BDDManager()
    observation = observation if observation is not None else architecture.observation_spec()
    started = time.perf_counter()

    # Instruction (selector) variables are declared before the initial-state
    # data variables — same ordering rationale as in the beta-relation engine.
    warmup = [
        _class_instruction(manager, architecture, warmup_kind, f"warmup{i}")
        for i in range(warmup_instructions)
    ]
    probe = _class_instruction(manager, architecture, step_kind, "probe")

    initial_state = architecture.make_initial_state(manager)
    spec_a, impl_a = architecture.make_models(manager, impl_kwargs=impl_kwargs)
    spec_b, impl_b = architecture.make_models(manager, impl_kwargs=impl_kwargs)
    impl_a.reset(**initial_state)
    impl_b.reset(**initial_state)
    for instruction in warmup:
        impl_a.step(instruction)
        impl_b.step(instruction)

    flush_cycles = architecture.order_k

    # Path A: flush, then take one architectural step of the specification
    # from the flushed state.
    _flush(impl_a, architecture, flush_cycles)
    flushed_a = impl_a.observe()
    # Transplant the flushed architectural state into a fresh specification
    # instance: every register (and memory word) present in the observation.
    spec_seed: Dict[str, object] = {}
    register_count = len([name for name in flushed_a if name.startswith("reg")])
    spec_seed["initial_registers"] = [flushed_a[f"reg{i}"] for i in range(register_count)]
    memory_count = len([name for name in flushed_a if name.startswith("mem")])
    if memory_count:
        spec_seed["initial_memory"] = [flushed_a[f"mem{i}"] for i in range(memory_count)]
    spec_a.reset(**spec_seed)
    spec_a.pc = flushed_a["pc_next"]
    spec_after = observation.select(spec_a.execute_instruction(probe))

    # Path B: take the step in the pipeline first, then flush.
    impl_b.step(probe)
    _flush(impl_b, architecture, flush_cycles)
    impl_after = observation.select(impl_b.observe())

    mismatches: List[Mismatch] = []
    for name in observation:
        if name in ("retired_op", "retired_dest"):
            # Retirement bookkeeping reflects the last retired instruction,
            # which legitimately differs between the two paths (the flushes
            # retire different suffixes); the architectural state is what
            # the diagram constrains.
            continue
        left = spec_after[name]
        right = impl_after[name]
        if left.identical(right):
            continue
        witness = find_distinguishing_assignment(manager, left.bits, right.bits)
        mismatches.append(
            Mismatch(
                sample_index=0,
                observable=name,
                specification_cycle=0,
                implementation_cycle=0,
                counterexample=witness or {},
            )
        )

    return FlushingReport(
        design=architecture.name,
        passed=not mismatches,
        warmup_instructions=warmup_instructions,
        flush_cycles=flush_cycles,
        mismatches=mismatches,
        seconds=time.perf_counter() - started,
        bdd_nodes=manager.size(),
    )
