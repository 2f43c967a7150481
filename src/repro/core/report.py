"""Verification reports.

A :class:`VerificationReport` collects everything a run of the
beta-relation verifier produces: the verdict, the sampled-cycle
schedules (the output filtering functions, printed the way the paper
prints them), cycle counts, per-phase wall-clock times, BDD statistics
and — on failure — structured mismatch records with decoded
counterexample instruction sequences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..strings import format_filter


@dataclass
class Mismatch:
    """One observable that differed at one sampled cycle."""

    sample_index: int
    observable: str
    specification_cycle: int
    implementation_cycle: int
    counterexample: Dict[str, bool] = field(default_factory=dict)
    decoded_instructions: Dict[str, str] = field(default_factory=dict)
    #: Raw instruction words of the counterexample (slot label -> word),
    #: suitable for concrete replay of the failing sequence.
    instruction_words: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line human-readable description."""
        where = (
            f"sample {self.sample_index} "
            f"(spec cycle {self.specification_cycle}, impl cycle {self.implementation_cycle})"
        )
        if self.decoded_instructions:
            workload = "; ".join(
                f"{slot}: {text}" for slot, text in sorted(self.decoded_instructions.items())
            )
            return f"{self.observable} differs at {where} under [{workload}]"
        return f"{self.observable} differs at {where}"


@dataclass
class VerificationReport:
    """Outcome of one beta-relation verification run."""

    design: str
    passed: bool
    order_k: int
    delay_slots: int
    reset_cycles: int
    slot_kinds: Tuple[str, ...]
    specification_cycles: int
    implementation_cycles: int
    specification_filter: Tuple[int, ...]
    implementation_filter: Tuple[int, ...]
    samples_compared: int
    observables_compared: int
    sequences_covered: int
    mismatches: List[Mismatch] = field(default_factory=list)
    specification_seconds: float = 0.0
    implementation_seconds: float = 0.0
    comparison_seconds: float = 0.0
    bdd_nodes: int = 0
    bdd_variables: int = 0
    extra: Dict[str, object] = field(default_factory=dict)
    #: Relational-extraction cache activity (measurement, not verdict):
    #: whether the per-bit beta relations were re-used from the pooled
    #: manager's session cache or extracted afresh; empty on the
    #: classical backend, which extracts nothing.
    extraction_cache: Dict[str, object] = field(default_factory=dict)
    #: Which beta backend produced the run (measurement, not verdict):
    #: ``compose`` or ``relational``; empty for non-beta drivers
    #: (events), which have a single code path.
    backend: str = ""
    #: Persistent-snapshot activity (measurement, not verdict): per-role
    #: restore/save timings and node counts when the run rehydrated its
    #: beta relations from — or saved them to — a result store's arena
    #: snapshots; empty without a store.
    snapshot: Dict[str, object] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time of the run."""
        return self.specification_seconds + self.implementation_seconds + self.comparison_seconds

    def filter_lines(self) -> Tuple[str, str]:
        """The two filter sequences formatted the way Section 6.2 prints them."""
        return (
            "UNPIPELINED: " + format_filter(self.specification_filter),
            "PIPELINED:   " + format_filter(self.implementation_filter),
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary."""
        return {
            "design": self.design,
            "passed": self.passed,
            "k": self.order_k,
            "delay_slots": self.delay_slots,
            "reset_cycles": self.reset_cycles,
            "slot_kinds": list(self.slot_kinds),
            "specification_cycles": self.specification_cycles,
            "implementation_cycles": self.implementation_cycles,
            "specification_filter": list(self.specification_filter),
            "implementation_filter": list(self.implementation_filter),
            "samples_compared": self.samples_compared,
            "observables_compared": self.observables_compared,
            "sequences_covered": self.sequences_covered,
            "mismatches": [mismatch.describe() for mismatch in self.mismatches],
            "specification_seconds": round(self.specification_seconds, 4),
            "implementation_seconds": round(self.implementation_seconds, 4),
            "comparison_seconds": round(self.comparison_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
            "bdd_nodes": self.bdd_nodes,
            "bdd_variables": self.bdd_variables,
            "extra": self.extra,
            "extraction_cache": self.extraction_cache,
            "backend": self.backend,
            "snapshot": self.snapshot,
        }

    def to_json(self) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        """Multi-line human-readable summary (used by examples and benchmarks)."""
        verdict = "PASSED" if self.passed else "FAILED"
        spec_filter, impl_filter = self.filter_lines()
        lines = [
            f"{self.design}: verification {verdict}",
            f"  order of definiteness k = {self.order_k}, delay slots d = {self.delay_slots}",
            f"  simulated {self.specification_cycles} specification cycles "
            f"and {self.implementation_cycles} implementation cycles",
            f"  {spec_filter}",
            f"  {impl_filter}",
            f"  compared {self.observables_compared} observables at "
            f"{self.samples_compared} sampled cycles "
            f"(covering {self.sequences_covered} instruction sequences)",
            f"  specification simulation: {self.specification_seconds:.2f} s, "
            f"implementation simulation: {self.implementation_seconds:.2f} s, "
            f"comparison: {self.comparison_seconds:.2f} s",
            f"  BDD manager: {self.bdd_variables} variables, {self.bdd_nodes} live nodes",
        ]
        if self.mismatches:
            lines.append(f"  {len(self.mismatches)} mismatching observable(s):")
            for mismatch in self.mismatches[:10]:
                lines.append(f"    - {mismatch.describe()}")
            if len(self.mismatches) > 10:
                lines.append(f"    ... and {len(self.mismatches) - 10} more")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.summary()
