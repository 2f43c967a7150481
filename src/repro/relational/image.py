"""Image computation over partitioned relations with early quantification.

:class:`ImageComputer` is the execution layer of the relational
subsystem: it takes a :class:`~repro.relational.relation.TransitionRelation`,
clusters it under the greedy bounds of
:meth:`~repro.relational.partition.ConjunctivePartition.build` (the
constructor's ``max_cluster_size`` and ``cluster_node_limit``), builds
one :class:`~repro.relational.schedule.QuantificationSchedule` per
direction (image / preimage) and then answers image queries by
interleaving ``and_exists`` along the schedule — every intermediate
product stays near the frontier's size instead of passing through the
monolithic conjunction.

Results are canonically identical to the classical route
(``exists(vars, frontier AND monolithic_relation)``), which
:meth:`ImageComputer.monolithic_image` keeps available as the measured
baseline; the property tests pin the pointwise equality down and
``benchmarks/bench_relational.py`` measures the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bdd import BDDNode
from .. import telemetry
from .partition import ConjunctivePartition
from .relation import TransitionRelation
from .schedule import QuantificationSchedule


@dataclass
class ImageStats:
    """Cost accounting of the most recent image computation."""

    steps: int = 0
    #: Largest intermediate product, in BDD nodes — the number the
    #: partitioned path exists to keep small.
    peak_live_nodes: int = 0
    result_nodes: int = 0
    quantified_per_step: List[int] = field(default_factory=list)
    strategy: str = "partitioned"


class ImageComputer:
    """Forward/backward image computation over a partitioned relation."""

    def __init__(
        self,
        relation: TransitionRelation,
        max_cluster_size: int = 8,
        cluster_node_limit: Optional[int] = 5000,
    ) -> None:
        self.relation = relation
        self.manager = relation.manager
        self.partition = ConjunctivePartition.build(
            self.manager,
            relation.parts,
            max_cluster_size=max_cluster_size,
            cluster_node_limit=cluster_node_limit,
        )
        self._schedules: Dict[str, QuantificationSchedule] = {}
        self.last_stats = ImageStats()

    # ------------------------------------------------------------------
    # Schedules (built lazily, one per direction)
    # ------------------------------------------------------------------
    def _schedule(self, direction: str) -> QuantificationSchedule:
        schedule = self._schedules.get(direction)
        if schedule is None:
            relation = self.relation
            if direction == "image":
                quantify = relation.input_names + relation.state_names
                keep = relation.next_names
            else:
                quantify = relation.input_names + relation.next_names
                keep = relation.state_names
            schedule = QuantificationSchedule.build(
                self.partition, quantify=quantify, keep=keep
            )
            schedule.validate()
            self._schedules[direction] = schedule
        return schedule

    # ------------------------------------------------------------------
    # The scheduled relational product
    # ------------------------------------------------------------------
    def _product(self, frontier: BDDNode, direction: str) -> BDDNode:
        manager = self.manager
        schedule = self._schedule(direction)
        stats = ImageStats()
        with telemetry.span(
            "image.step", manager=manager, direction=direction
        ) as image_span:
            current = frontier
            if schedule.pre_quantify:
                current = manager.exists(schedule.pre_quantify, current)
            peak = manager.count_nodes(current)
            for step in schedule.steps:
                current = manager.and_exists(step.quantify, current, step.cluster.function)
                stats.steps += 1
                stats.quantified_per_step.append(len(step.quantify))
                peak = max(peak, manager.count_nodes(current))
            stats.peak_live_nodes = peak
            stats.result_nodes = manager.count_nodes(current)
            image_span.set(steps=stats.steps, peak_live_nodes=peak)
        self.last_stats = stats
        return current

    def image(
        self, states: BDDNode, input_constraint: Optional[BDDNode] = None
    ) -> BDDNode:
        """States reachable in one step from ``states`` (present-state vars).

        ``input_constraint`` restricts the applied inputs — the paper's
        "cofactor the transition relation with respect to the inputs"
        step.  Drop-in compatible with
        :meth:`repro.fsm.transition.TransitionRelation.image`.
        """
        manager = self.manager
        frontier = states
        if input_constraint is not None:
            frontier = manager.apply_and(frontier, input_constraint)
        image_next = self._product(frontier, "image")
        return manager.rename(image_next, self.relation.present_of)

    def preimage(
        self, states: BDDNode, input_constraint: Optional[BDDNode] = None
    ) -> BDDNode:
        """States that can reach ``states`` in one step (inverse image)."""
        manager = self.manager
        target = manager.rename(states, self.relation.next_of)
        if input_constraint is not None:
            target = manager.apply_and(target, input_constraint)
        return self._product(target, "preimage")

    # ------------------------------------------------------------------
    # The classical baseline, kept for measurement and differential tests
    # ------------------------------------------------------------------
    def monolithic_image(
        self, states: BDDNode, input_constraint: Optional[BDDNode] = None
    ) -> BDDNode:
        """Image via build-then-smooth: full conjunction first, one exists last.

        The classical loop this subsystem replaces: conjoin the frontier
        with every relation part, *then* smooth all inputs and
        present-state variables out of the result in a single
        quantification.  (The even older form — prebuild the one-BDD
        relation with :meth:`TransitionRelation.monolithic` and
        ``and_exists`` against it — is kept available on the relation
        but is intractable for the processor-scale machines; the
        frontier-constrained conjunction here is the strongest baseline
        that still completes.)  Canonically identical to :meth:`image`;
        exists so benchmarks and property tests can measure what early
        quantification saves.
        """
        manager = self.manager
        relation = self.relation
        current = states
        if input_constraint is not None:
            current = manager.apply_and(current, input_constraint)
        peak = manager.count_nodes(current)
        for part in relation.parts:
            current = manager.apply_and(current, part)
            peak = max(peak, manager.count_nodes(current))
        quantified = manager.exists(
            relation.input_names + relation.state_names, current
        )
        result = manager.rename(quantified, relation.present_of)
        self.last_stats = ImageStats(
            steps=len(relation.parts),
            peak_live_nodes=peak,
            result_nodes=manager.count_nodes(result),
            quantified_per_step=[0] * (len(relation.parts) - 1)
            + [len(relation.input_names) + len(relation.state_names)],
            strategy="monolithic",
        )
        return result

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, object]:
        """Partition/schedule shape for reports and benchmarks."""
        return {
            "parts": len(self.relation),
            "clusters": len(self.partition),
            "largest_cluster_nodes": self.partition.largest_cluster_nodes(),
            "total_cluster_nodes": self.partition.total_nodes(),
        }

