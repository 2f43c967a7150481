"""BDD manager pooling for the campaign engine.

Re-constructing a :class:`~repro.bdd.BDDManager` per verification run
throws away every hash-consed node and every warmed operation cache.
The pool keys managers by :meth:`Scenario.order_signature`, so all
scenarios that declare the same variables in the same order — a golden
run and its bug-injection variants, repeated runs of one workload —
share one manager and therefore one unique table: the specification
simulation of the second run re-derives the exact nodes of the first at
cache speed.

Sharing is deliberately *not* extended across different variable orders:
a pooled manager must declare variables in the same order a fresh one
would, which keeps every pooled result (including counterexample
assignments) bit-identical to an isolated run — the property the
parallel campaign mode relies on.  A manager's order never changes
after declaration, so a pooled manager keeps its signature for life.

A pooled manager lives only as long as a scenario can still reuse it.
:meth:`CampaignRunner.run <repro.engine.runner.CampaignRunner.run>`
knows each signature's last scenario and calls :meth:`release` on its
manager right after it; a parallel worker releases its managers when a
unit ends.  A release frees the manager's arena, tables and caches at
once (:meth:`repro.bdd.BDDManager.release`) and folds its counters into
the pool's, so a campaign holds only the managers a later scenario will
reuse: on a list of distinct signatures, one at a time.

Most campaign scenarios differ in slot shape, so most acquisitions
create a fresh manager, and the relational beta backend must then bring
the design's extracted relations onto it.  The pool holds the two
campaign-wide tiers that serve them (see
:func:`repro.relational.beta.cached_extract_steppers` for all four):
the persistent ``snapshot_store``, from which a relation is restored
node by node, and the ``relation_templates``, copies of the arenas that
such restores left on fresh managers, which later fresh managers of the
same design adopt with C-level list, dict and set copies.  Templates
outlive the managers that left them; every worker process has its own
pool and so its own templates (its speculative jobs borrow them), and
:meth:`clear` drops them with the managers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import telemetry
from ..bdd import BDDManager
from ..relational.beta import RelationTemplates

#: The keys the pool reports of each manager's arena and cache statistics.
_REPORTED = {
    "arena": (
        "live",
        "capacity",
        "free",
        "peak_live",
        "allocated_total",
        "gc_runs",
        "gc_reclaimed",
    ),
    "cache": ("hits", "misses", "evicted_entries", "clears", "total_entries"),
}


def _manager_record(manager: BDDManager) -> Dict[str, Dict[str, int]]:
    """The reported part of ``manager``'s arena and cache statistics."""
    stats = {"arena": manager.arena_statistics(), "cache": manager.cache_statistics()}
    return {
        family: {key: stats[family][key] for key in keys}
        for family, keys in _REPORTED.items()
    }


class ManagerPool:
    """Managers keyed by variable-order signature, created on demand."""

    def __init__(self, cache_limit: Optional[int] = None) -> None:
        self.cache_limit = cache_limit
        #: Optional persistent snapshot store (see
        #: :class:`repro.engine.store.ResultStore`).  Attached by the
        #: campaign runner (and by every parallel worker to its own
        #: pool); the executor reads it so any scenario running on a
        #: pooled manager can rehydrate extracted relations instead of
        #: recomputing them.
        self.snapshot_store = None
        #: Arena images of relations restored from ``snapshot_store``
        #: onto fresh managers; the executor reads them next to the
        #: store, so a later fresh manager clones instead of restoring.
        self.relation_templates = RelationTemplates()
        self._managers: Dict[Tuple, BDDManager] = {}
        self._acquisitions = 0
        self._reuses = 0
        self._created = 0
        #: Counters of the managers retired from the pool, summed into
        #: :meth:`statistics` so campaign deltas never go negative when
        #: managers are released mid-campaign.  Sizes do not survive
        #: retirement, so the level keys stay 0.
        self._retired = {
            family: dict.fromkeys(keys, 0) for family, keys in _REPORTED.items()
        }
        #: The pool's live-node high-water mark as of the last release.
        self._peak_live = 0

    def acquire(self, signature: Tuple) -> BDDManager:
        """The pooled manager for ``signature`` (created on first use)."""
        self._acquisitions += 1
        manager = self._managers.get(signature)
        if manager is None:
            manager = BDDManager(cache_limit=self.cache_limit)
            self._managers[signature] = manager
            self._created += 1
        else:
            self._reuses += 1
        return manager

    def attach_store(self, store) -> None:
        """Attach (or with ``None`` detach) a persistent snapshot store."""
        self.snapshot_store = store

    def _pooled_peak(self) -> int:
        """Summed high-water marks of the pooled managers: an upper bound
        on their simultaneous footprint."""
        return sum(
            manager.arena_statistics()["peak_live"] for manager in self._managers.values()
        )

    def _fold(self, record: Dict[str, Dict[str, int]]) -> None:
        """Add ``record``'s counters to the retired managers'."""
        for family, stats in record.items():
            for key, value in stats.items():
                if key not in telemetry.LEVEL_KEYS:
                    self._retired[family][key] += value

    def _retire(self, manager: BDDManager) -> None:
        """Fold a departing manager's counters in, then free its storage."""
        with telemetry.span("pool.release"):
            self._fold(_manager_record(manager))
            manager.release()

    def release(self, signature: Tuple) -> None:
        """Retire and free the manager pooled for ``signature``, if any."""
        manager = self._managers.get(signature)
        if manager is not None:
            self._peak_live = max(self._peak_live, self._pooled_peak())
            del self._managers[signature]
            self._retire(manager)

    def release_all(self) -> None:
        """Retire and free every pooled manager (templates are kept)."""
        self._peak_live = max(self._peak_live, self._pooled_peak())
        for manager in self._managers.values():
            self._retire(manager)
        self._managers.clear()

    def absorb(self, other: "ManagerPool") -> None:
        """Fold ``other``'s counters in, as if its managers retired from here.

        A parallel worker runs each speculative job on a pool of its
        own, lent the worker's relation templates, and absorbs it
        afterwards, so the worker's statistics count the job's
        acquisitions, cache traffic and allocations.  The job runs
        between units, while the worker's own pool is empty, so the two
        high-water marks fold by maximum.
        """
        other.release_all()
        self._acquisitions += other._acquisitions
        self._reuses += other._reuses
        self._created += other._created
        self._fold(other._retired)
        self._peak_live = max(self._peak_live, other._peak_live)

    def clear_caches(self) -> None:
        """Drop the operation caches of every pooled manager."""
        for manager in self._managers.values():
            manager.clear_caches()

    def clear(self) -> None:
        """Release every pooled manager and drop every relation template."""
        self.release_all()
        self.relation_templates.clear()

    def __len__(self) -> int:
        return len(self._managers)

    @property
    def reuse_count(self) -> int:
        """How many acquisitions were served by an existing manager."""
        return self._reuses

    def statistics(self) -> Dict[str, object]:
        """Aggregate pool statistics for campaign reports.

        Counters cover the currently pooled managers plus, for managers
        already released (or folded in by :meth:`absorb`), their
        activity up to the release — enough to keep campaign deltas
        monotonic.  ``created`` counts every manager the pool ever made;
        ``managers`` and the other sizes (nodes, cache entries) describe
        only the managers pooled now.

        Node accounting reads through the kernel's arena statistics:
        ``total_nodes`` is the pooled managers' *live* node total, and
        ``arena`` breaks the same managers down into live vs. allocated
        capacity vs. free-listed handles, with monotonic allocation/GC
        counters that fold in released managers like the cache counters
        do.  ``arena["peak_live"]`` is the pool's high-water mark: the
        largest sum of per-manager high-water marks over the managers
        pooled together at any release (or now), an upper bound on the
        pool's simultaneous footprint.  ``templates`` counts the
        relation templates held, captured and cloned.
        """
        summed = telemetry.total(
            [self._retired] + [_manager_record(m) for m in self._managers.values()]
        )
        arena = summed["arena"]
        arena["peak_live"] = max(self._peak_live, arena["peak_live"])
        return {
            "managers": len(self._managers),
            "created": self._created,
            "acquisitions": self._acquisitions,
            "reuses": self._reuses,
            # ``live`` counts each manager's two terminals; the node
            # total keeps the unique-table meaning (non-terminals only).
            "total_nodes": arena["live"] - 2 * len(self._managers),
            **summed,
            "templates": self.relation_templates.statistics(),
        }
