"""Greedy conjunctive clustering of transition-relation parts.

Per-bit conjuncts are merged into **clusters** — partial conjunctions —
under two bounds: the number of conjuncts per cluster and the BDD size
of the cluster's product.  Clustering trades scheduling freedom (more,
smaller clusters allow earlier quantification) against conjunction
overhead (every cluster is one ``and_exists`` step during image
computation); the bounds keep each cluster product small enough that no
intermediate ever approaches the monolithic conjunction.

The greedy heuristic merges each conjunct into the open cluster whose
support overlaps it most (ties: the smaller cluster), starting a new
cluster when no candidate fits the bounds — a simplified take on the
affinity-based clustering used by partitioned-relation model checkers
[BCMD90-era tooling], adequate for the machine sizes of this
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..bdd import BDDManager, BDDNode


@dataclass
class Cluster:
    """One partial conjunction of relation parts."""

    function: BDDNode
    members: Tuple[int, ...]
    support: frozenset

    def node_count(self, manager: BDDManager) -> int:
        return manager.count_nodes(self.function)


@dataclass
class ConjunctivePartition:
    """An ordered set of clusters covering every conjunct exactly once."""

    manager: BDDManager
    clusters: List[Cluster]

    @classmethod
    def build(
        cls,
        manager: BDDManager,
        parts: Sequence[BDDNode],
        max_cluster_size: int = 8,
        cluster_node_limit: Optional[int] = 5000,
    ) -> "ConjunctivePartition":
        """Greedily cluster ``parts`` under the size bounds.

        Each part triggers at most one trial conjunction (against its
        best-overlap candidate); a rejected trial's product stays
        hash-consed in the unique table — the manager has no reference
        counting — so building a partition can grow the table by up to
        one over-limit product per part.  Small next to the relation
        itself in practice, but worth knowing when reading
        ``manager.size()`` around partition construction.
        """
        if max_cluster_size < 1:
            raise ValueError("max_cluster_size must be at least 1")
        clusters: List[Cluster] = []
        for index, part in enumerate(parts):
            support = frozenset(manager.support(part))
            best: Optional[int] = None
            best_overlap = 0
            for position, cluster in enumerate(clusters):
                if len(cluster.members) >= max_cluster_size:
                    continue
                overlap = len(cluster.support & support)
                if overlap > best_overlap or (
                    overlap == best_overlap
                    and overlap > 0
                    and best is not None
                    and len(cluster.members) < len(clusters[best].members)
                ):
                    best = position
                    best_overlap = overlap
            merged = False
            if best is not None and best_overlap > 0:
                candidate = clusters[best]
                product = manager.apply_and(candidate.function, part)
                if (
                    cluster_node_limit is None
                    or manager.count_nodes(product) <= cluster_node_limit
                ):
                    clusters[best] = Cluster(
                        function=product,
                        members=candidate.members + (index,),
                        support=candidate.support | support,
                    )
                    merged = True
            if not merged:
                clusters.append(
                    Cluster(function=part, members=(index,), support=support)
                )
        return cls(manager=manager, clusters=clusters)

    # ------------------------------------------------------------------
    def supports(self) -> Tuple[frozenset, ...]:
        return tuple(cluster.support for cluster in self.clusters)

    def total_nodes(self) -> int:
        """Combined size of all cluster BDDs (shared nodes counted once per cluster)."""
        return sum(cluster.node_count(self.manager) for cluster in self.clusters)

    def largest_cluster_nodes(self) -> int:
        return max(
            (cluster.node_count(self.manager) for cluster in self.clusters), default=0
        )

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterable[Cluster]:
        return iter(self.clusters)
