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
parallel campaign mode relies on.  For the same reason a manager whose
order has been *dynamically changed* (sifting,
:mod:`repro.bdd.reorder`) is retired from the pool the moment the first
swap fires: its final variable order no longer matches what the
signature declares, so handing it to the next scenario would silently
break the declared-order contract.  The scenario that triggered the
reorder keeps using it safely — canonicity survives reordering — but
the next acquisition for that signature gets a fresh manager.

Most campaign scenarios differ in slot shape, so most acquisitions
create a fresh manager, and the relational beta backend must then bring
the design's extracted relations onto it.  The pool holds the two
campaign-wide tiers that serve them (see
:func:`repro.relational.beta.cached_extract_steppers` for all four):
the persistent ``snapshot_store``, from which a relation is restored
node by node, and the ``relation_templates``, copies of the arenas that
such restores left on fresh managers, which later fresh managers of the
same design adopt with C-level list, dict and set copies.  Every worker
process has its own pool and so its own templates; :meth:`clear` drops
them with the managers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..bdd import BDDManager
from ..relational.beta import RelationTemplates


class ManagerPool:
    """Managers keyed by variable-order signature, created on demand."""

    def __init__(self, cache_limit: Optional[int] = None) -> None:
        self.cache_limit = cache_limit
        #: Optional persistent snapshot store (see
        #: :class:`repro.engine.store.ResultStore`).  Attached by the
        #: campaign runner (and by every parallel worker to its own
        #: pool); the executor reads it so any scenario running on a
        #: pooled *or* private manager can rehydrate extracted relations
        #: instead of recomputing them.
        self.snapshot_store = None
        #: Arena images of relations restored from ``snapshot_store``
        #: onto fresh managers; the executor reads them next to the
        #: store, so a later fresh manager clones instead of restoring.
        self.relation_templates = RelationTemplates()
        self._managers: Dict[Tuple, BDDManager] = {}
        self._acquisitions = 0
        self._reuses = 0
        self._reorder_evictions = 0
        #: Cache activity of managers retired from the pool, folded into
        #: :meth:`statistics` so campaign deltas never go negative when a
        #: reorder eviction removes a manager mid-campaign.
        self._retired_cache = {"hits": 0, "misses": 0, "evicted_entries": 0, "clears": 0}
        #: Arena counters of retired managers (same folding rule: the
        #: monotonic counters survive retirement; sizes do not).
        self._retired_arena = {"allocated_total": 0, "gc_runs": 0, "gc_reclaimed": 0}

    def acquire(self, signature: Tuple) -> BDDManager:
        """The pooled manager for ``signature`` (created on first use).

        Every pooled manager carries a reorder hook: the first dynamic
        order change retires it from the pool (see module docstring).
        """
        self._acquisitions += 1
        manager = self._managers.get(signature)
        if manager is None:
            manager = BDDManager(cache_limit=self.cache_limit)
            self._managers[signature] = manager
            manager.add_reorder_hook(self._make_reorder_hook(signature))
        else:
            self._reuses += 1
        return manager

    def attach_store(self, store) -> None:
        """Attach (or with ``None`` detach) a persistent snapshot store."""
        self.snapshot_store = store

    def private_manager(self) -> BDDManager:
        """A fresh manager outside the pool, under the pool's cache limit.

        Scenarios that must not share table state — thresholded
        reordering scenarios, whose sifting trigger compares the table
        size against a policy threshold and would otherwise depend on
        campaign history — run here; keeping the constructor on the
        pool keeps every manager the engine hands out configured in one
        place.
        """
        return BDDManager(cache_limit=self.cache_limit)

    def _make_reorder_hook(self, signature: Tuple):
        def evict(manager: BDDManager) -> None:
            if self._managers.get(signature) is manager:
                del self._managers[signature]
                self._reorder_evictions += 1
                self._retire_counters(manager)

        return evict

    def _retire_counters(self, manager: BDDManager) -> None:
        """Preserve a departing manager's cumulative cache/arena activity."""
        stats = manager.cache_statistics()
        for key in self._retired_cache:
            self._retired_cache[key] += stats[key]
        arena = manager.arena_statistics()
        for key in self._retired_arena:
            self._retired_arena[key] += arena.get(key, 0)

    def absorb(self, other: "ManagerPool") -> None:
        """Fold ``other``'s counters in, as if its managers retired from here.

        A parallel worker runs each speculative job on a pool of its
        own and absorbs it afterwards, so the worker's statistics count
        the job's acquisitions, cache traffic and allocations.
        """
        other.clear()
        self._acquisitions += other._acquisitions
        self._reuses += other._reuses
        for key in self._retired_cache:
            self._retired_cache[key] += other._retired_cache[key]
        for key in self._retired_arena:
            self._retired_arena[key] += other._retired_arena[key]

    def clear_caches(self) -> None:
        """Drop the operation caches of every pooled manager."""
        for manager in self._managers.values():
            manager.clear_caches()

    def clear(self) -> None:
        """Drop every pooled manager (and its unique table) and every
        relation template."""
        for manager in self._managers.values():
            self._retire_counters(manager)
        self._managers.clear()
        self.relation_templates.clear()

    def __len__(self) -> int:
        return len(self._managers)

    @property
    def reuse_count(self) -> int:
        """How many acquisitions were served by an existing manager."""
        return self._reuses

    @property
    def reorder_evictions(self) -> int:
        """How many managers were retired because their order changed."""
        return self._reorder_evictions

    def statistics(self) -> Dict[str, object]:
        """Aggregate pool statistics for campaign reports.

        Counters cover the currently pooled managers plus, for managers
        retired by a reorder eviction or :meth:`clear`, their activity
        up to the moment of retirement — enough to keep campaign deltas
        monotonic.  Activity a still-running scenario accrues on a
        retired manager afterwards is attributed to that scenario's own
        ``outcome.cache`` delta, not the pool.  Sizes (nodes, cache
        entries) describe only the managers currently pooled.

        Node accounting reads through the kernel's arena statistics:
        ``total_nodes`` is the pooled managers' *live* node total, and
        ``arena`` breaks the same managers down into live vs. allocated
        capacity vs. free-listed handles, with monotonic allocation/GC
        counters that fold in retired managers like the cache counters
        do.  ``templates`` counts the relation templates held, captured
        and cloned.
        """
        arena = {
            "live": 0,
            "capacity": 0,
            "free": 0,
            "peak_live": 0,
        }
        for key, value in self._retired_arena.items():
            arena[key] = value
        total_nodes = 0
        for manager in self._managers.values():
            stats = manager.arena_statistics()
            # ``live`` counts the terminals; the pool's node total keeps
            # the historical unique-table meaning (non-terminals only).
            total_nodes += stats["live"] - 2
            arena["live"] += stats["live"]
            arena["capacity"] += stats["capacity"]
            arena["free"] += stats["free"]
            # Summed per-manager high-water marks: an upper bound on the
            # pool's simultaneous footprint (a size, so like the other
            # sizes it covers only the currently pooled managers).
            arena["peak_live"] += stats.get("peak_live", 0)
            arena["allocated_total"] += stats["allocated_total"]
            arena["gc_runs"] += stats["gc_runs"]
            arena["gc_reclaimed"] += stats["gc_reclaimed"]
        cache = {
            "hits": self._retired_cache["hits"],
            "misses": self._retired_cache["misses"],
            "evicted_entries": self._retired_cache["evicted_entries"],
            "clears": self._retired_cache["clears"],
            "total_entries": 0,
        }
        for manager in self._managers.values():
            stats = manager.cache_statistics()
            cache["hits"] += stats["hits"]
            cache["misses"] += stats["misses"]
            cache["evicted_entries"] += stats["evicted_entries"]
            cache["clears"] += stats["clears"]
            cache["total_entries"] += stats["total_entries"]
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = (cache["hits"] / lookups) if lookups else 0.0
        return {
            "managers": len(self._managers),
            "acquisitions": self._acquisitions,
            "reuses": self._reuses,
            "reorder_evictions": self._reorder_evictions,
            "total_nodes": total_nodes,
            "arena": arena,
            "cache": cache,
            "templates": self.relation_templates.statistics(),
        }
