"""Dynamic variable reordering: level swaps and Rudell-style sifting.

Section 3.2 of the paper stresses that ROBDD size is critically
dependent on the variable order; the static heuristics in
:mod:`repro.bdd.ordering` pick the initial order, and this module moves
variables *after* construction.  The primitive is the classic adjacent
**level swap**: exchanging levels ``i`` and ``i+1`` only touches the
nodes at those two levels.  On the array kernel a swap is in-place
writes to the ``level[]``/``low[]``/``high[]`` words of exactly those
nodes — every handle keeps denoting the same Boolean function before
and after the swap, so canonicity (node identity as equivalence)
survives reordering and every wrapper held by a caller stays valid.
On top of the primitive sit Rudell's **sifting** procedure (move one
variable through every position, keep the best) and its converging
variant.

Every swap invalidates the manager's operation caches and fires the
manager's reorder hooks (see :meth:`BDDManager.add_reorder_hook`); the
campaign engine's :class:`~repro.engine.pool.ManagerPool` uses the hook
to retire a reordered manager from its pool, because pooled scenarios
expect the declared variable order.

Size metric
-----------
Sifting needs "how big are the BDDs right now" after every swap.  With
explicit ``roots`` (the functions the caller still cares about) the
metric counts exactly the live nodes reachable from them — precise, but
a full traversal per swap, so meant for modest tables.  Without roots
the unique-table size is used: O(1) to read, but it also counts dead
intermediate nodes, so swap garbage biases the search toward the
starting position — which is why the sifter periodically hands that
garbage to the kernel's mark-and-sweep collector
(:meth:`~repro.bdd.kernel.BDDKernel.collect`): everything not
reachable from a live wrapper or an explicit root is reclaimed into
the free-list.  Semantics are unaffected either way; ``max_variables``
is the time-budget knob for big tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .kernel import unique_key
from .manager import BDDManager
from .node import BDD


def _live_size_h(manager: BDDManager, roots: Sequence[int]) -> int:
    """Number of distinct nodes reachable from root handles."""
    low = manager._low
    high = manager._high
    seen: Set[int] = set()
    stack = list(roots)
    while stack:
        h = stack.pop()
        if h in seen:
            continue
        seen.add(h)
        if h >= 2:
            stack.append(low[h])
            stack.append(high[h])
    return len(seen)


def live_size(manager: BDDManager, roots: Sequence[BDD]) -> int:
    """Number of distinct nodes reachable from ``roots`` (iterative DFS).

    This is sifting's exact size metric; callers budgeting a sift (the
    campaign executor) use it once up front to decide whether the exact
    metric is affordable at all.
    """
    return _live_size_h(manager, [root._h for root in roots])


def _swap_levels(manager: BDDManager, level: int) -> bool:
    """Swap the variables at ``level``/``level + 1`` in place.

    The two levels' handles are the values of their unique subtables,
    so the cost of a swap is proportional to the two levels'
    populations — never to the whole unique table.  Returns whether
    any node was *rebuilt*: a swap that only relabelled levels (no
    ``x`` node depended on ``y``) cannot change any size metric, which
    lets sifting skip the per-swap size traversal on the — typically
    dominant — non-interacting steps.

    Let ``x`` be the variable at ``level`` and ``y`` the one below it:

    * nodes testing ``y`` keep their structure — ``y`` simply moved up,
      so only their ``level[]`` word changes;
    * nodes testing ``x`` that do not depend on ``y`` likewise just move
      down one level;
    * nodes testing ``x`` with a ``y``-child are rebuilt through the
      Shannon expansion ``f = y ? (x ? f11 : f01) : (x ? f10 : f00)``
      by overwriting their ``low[]``/``high[]`` words in place, so every
      external handle to ``f`` stays valid.
    """
    table = manager._table
    lv = manager._level
    lo_a = manager._low
    hi_a = manager._high
    y_level = level + 1
    x_sub = table.get(level) or {}
    y_sub = table.get(y_level) or {}

    # Plan the rebuilds against the *old* structure before any
    # relabelling.
    independent, rebuilds = manager._plan_swap(y_level, list(x_sub.values()))

    # Per-level subtables make the bulk moves free: a node that only
    # changes *level* keeps its unique_key(low, high), so the whole y
    # subtable — and the independent slice of the x subtable — move as
    # dicts; only the rebuilt nodes are re-keyed individually.
    for n, _f00, _f01, _f10, _f11 in rebuilds:
        del x_sub[unique_key(lo_a[n], hi_a[n])]
    # Relabelling writes one level word per node; map over the bound
    # __setitem__ keeps the loop in C for fat levels.
    # y moves up: structure unchanged, only the level word changes.
    list(map(lv.__setitem__, y_sub.values(), itertools.repeat(level)))
    # x-nodes independent of y move down unchanged (they are exactly
    # what is left of the old x subtable).
    list(map(lv.__setitem__, independent, itertools.repeat(y_level)))
    table[level] = y_sub
    table[y_level] = x_sub
    # Dependent x-nodes are rebuilt in place; their new children at
    # ``level + 1`` test x and are hash-consed against the re-keyed
    # table.  No rebuilt node can collide with a moved y node: both
    # keep denoting their old functions, and equal functions were
    # already the same node (canonicity).
    mk = manager._mk_int
    for n, f00, f01, f10, f11 in rebuilds:
        new_low = mk(y_level, f00, f10)
        new_high = mk(y_level, f01, f11)
        lo_a[n] = new_low
        hi_a[n] = new_high
        y_sub[unique_key(new_low, new_high)] = n

    # Exchange the variable names and levels.
    names = manager._name_of
    names[level], names[y_level] = names[y_level], names[level]
    manager._level_of[names[level]] = level
    manager._level_of[names[y_level]] = y_level

    manager._note_order_change()
    return bool(rebuilds)


def swap_adjacent(manager: BDDManager, level: int) -> None:
    """Exchange the variables at ``level`` and ``level + 1`` in place.

    The standalone reordering primitive, served entirely from the two
    levels' unique subtables.  All affected unique-table entries
    are re-keyed, the operation caches are dropped and the manager's
    reorder hooks fire.
    """
    num = manager.num_vars()
    if not 0 <= level < num - 1:
        raise ValueError(f"cannot swap levels {level} and {level + 1} of {num} variables")
    _swap_levels(manager, level)


@dataclass
class SiftResult:
    """Outcome of a sifting run."""

    initial_size: int
    final_size: int
    passes: int = 0
    swaps: int = 0
    sifted_variables: int = 0
    order: Tuple[str, ...] = ()
    sizes_by_pass: List[int] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.final_size < self.initial_size

    def to_dict(self) -> Dict[str, object]:
        return {
            "initial_size": self.initial_size,
            "final_size": self.final_size,
            "passes": self.passes,
            "swaps": self.swaps,
            "sifted_variables": self.sifted_variables,
        }


class _Sifter:
    """Size metric, swap accounting and session cleanup for sifting.

    The per-level handle sets are the manager's unique subtables
    (:meth:`BDDManager.nodes_at_level`), which every allocation, swap
    and sweep keeps exact, so the sifter never scans the whole unique
    table — not at construction and not per swap.

    Excursions rebuild nodes, and every rebuild can orphan the node it
    replaced; left alone that garbage compounds across sifted variables.
    The sifter therefore periodically runs the kernel's mark-and-sweep
    (:meth:`~repro.bdd.kernel.BDDKernel.collect`): roots are the
    explicit sift roots plus every handle external code still holds a
    wrapper for, so nothing a caller can name is ever reclaimed, while
    dead intermediates — whether created this session or inherited from
    earlier work — return to the free-list for reuse.
    """

    def __init__(self, manager: BDDManager, roots: Optional[Iterable[BDD]]):
        self.manager = manager
        # Holding the wrappers keeps the roots alive (and thus GC roots)
        # for the whole session, even if the caller drops them mid-sift.
        self.roots: Optional[List[BDD]] = list(roots) if roots is not None else None
        self._root_handles: Optional[List[int]] = (
            [root._h for root in self.roots] if self.roots is not None else None
        )
        self.swaps = 0
        self._allocated_at_sweep = manager._nodes_allocated

    def maybe_sweep(self) -> int:
        """Sweep only once enough garbage piled up to matter.

        The mark phase scans the live table, so sweeping after every
        sifted variable costs O(table) x variables even when the
        excursions rebuilt almost nothing.  Deferring until the session
        allocated a table-relative amount of nodes keeps the compounding
        in check at a fraction of the price.
        """
        allocated = self.manager._nodes_allocated - self._allocated_at_sweep
        if allocated <= max(1024, self.manager._live // 8):
            return 0
        return self.sweep()

    def sweep(self) -> int:
        """Reclaim dead nodes into the free-list; return how many dropped."""
        reclaimed = self.manager.collect(self._root_handles)
        self._allocated_at_sweep = self.manager._nodes_allocated
        return reclaimed

    def size(self) -> int:
        if self._root_handles is not None:
            return _live_size_h(self.manager, self._root_handles)
        return self.manager._live

    def population(self) -> Dict[int, int]:
        """Node count per level (live when roots are known, table otherwise)."""
        if self._root_handles is None:
            return self.manager.level_population()
        lv = self.manager._level
        low = self.manager._low
        high = self.manager._high
        counts: Dict[int, int] = {}
        seen: Set[int] = set()
        stack = list(self._root_handles)
        while stack:
            h = stack.pop()
            if h < 2 or h in seen:
                continue
            seen.add(h)
            level = lv[h]
            counts[level] = counts.get(level, 0) + 1
            stack.append(low[h])
            stack.append(high[h])
        return counts

    def swap(self, level: int) -> bool:
        """Swap two levels; returns whether any node was rebuilt."""
        rebuilt = _swap_levels(self.manager, level)
        self.swaps += 1
        return rebuilt

    def sift_variable(self, name: str, max_excursion: Optional[int] = None) -> int:
        """Move ``name`` to its locally optimal level; return the best size.

        ``max_excursion`` bounds how many levels the variable travels in
        each direction (Rudell's bounded-distance sifting): the per-swap
        cost is small thanks to the per-level subtables, but the
        size *metric* costs a live-node traversal per swap, so the
        excursion length is the remaining time knob for sifting inside
        fast verification runs.  ``None`` keeps the classic full
        excursion.
        """
        manager = self.manager
        num = manager.num_vars()
        position = manager.level(name)
        if max_excursion is not None and max_excursion < 1:
            raise ValueError("max_excursion must be a positive integer or None")
        down_limit = num - 1
        up_limit = 0
        if max_excursion is not None:
            down_limit = min(num - 1, position + max_excursion)
            up_limit = max(0, position - max_excursion)
        size = best_size = self.size()
        best_position = position
        # A relabelling-only swap provably leaves every size metric
        # unchanged, so the (comparatively expensive) metric traversal
        # runs only after swaps that actually rebuilt nodes.
        # Downward excursion...
        for level in range(position, down_limit):
            if self.swap(level):
                size = self.size()
            if size < best_size:
                best_size, best_position = size, level + 1
        # ...then up through every remaining position in range...
        for level in range(down_limit, up_limit, -1):
            if self.swap(level - 1):
                size = self.size()
            if size < best_size:
                best_size, best_position = size, level - 1
        # ...and settle at the best position seen.
        for level in range(up_limit, best_position):
            self.swap(level)
        self.maybe_sweep()
        return best_size


def sift_variable(
    manager: BDDManager,
    name: str,
    roots: Optional[Iterable[BDD]] = None,
    max_excursion: Optional[int] = None,
) -> SiftResult:
    """Sift a single variable to its locally optimal position."""
    sifter = _Sifter(manager, roots)
    initial = sifter.size()
    final = sifter.sift_variable(name, max_excursion=max_excursion)
    # The per-variable sweep is allocation-thresholded; the session end
    # always sweeps so swap garbage is reclaimed into the free-list
    # before the caller measures or builds on the table.
    sifter.sweep()
    return SiftResult(
        initial_size=initial,
        final_size=final,
        passes=1,
        swaps=sifter.swaps,
        sifted_variables=1,
        order=manager.variables,
    )


def converge_sift(
    manager: BDDManager,
    roots: Optional[Iterable[BDD]] = None,
    max_passes: int = 4,
    max_variables: Optional[int] = None,
    max_excursion: Optional[int] = None,
) -> SiftResult:
    """Rudell's converging sifting over the whole variable order.

    Each pass sifts the variables in descending order of their current
    node population (the classic heuristic: fat levels first), then the
    next pass re-ranks and repeats until a pass stops improving the size
    or ``max_passes`` is exhausted.  ``max_variables`` bounds how many
    variables each pass touches and ``max_excursion`` how far each
    travels (the time budgets on big orders).
    """
    if max_passes < 1:
        raise ValueError("max_passes must be at least 1")
    sifter = _Sifter(manager, roots)
    initial = sifter.size()
    best_size = initial
    best_order = manager.variables
    passes = 0
    sifted = 0
    sizes_by_pass: List[int] = []
    for _ in range(max_passes):
        passes += 1
        population = sifter.population()
        ranked = sorted(
            (name for name in manager.variables if population.get(manager.level(name))),
            key=lambda name: population.get(manager.level(name), 0),
            reverse=True,
        )
        if max_variables is not None:
            ranked = ranked[:max_variables]
        for name in ranked:
            sifter.sift_variable(name, max_excursion=max_excursion)
            sifted += 1
        size = sifter.size()
        sizes_by_pass.append(size)
        improved = size < best_size
        if improved:
            best_size, best_order = size, manager.variables
        if not improved:
            break
    # A pass may end worse than the best point seen (the rootless table
    # metric in particular drifts with swap garbage); restore the best
    # order so the result describes the manager's actual state.
    if manager.variables != best_order:
        sifter.swaps += sift_to_order(manager, best_order)
    # Session end always sweeps (see sift_variable): garbage returned to
    # the free-list here is what keeps the arena from growing across
    # repeated reorder sessions.
    sifter.sweep()
    return SiftResult(
        initial_size=initial,
        final_size=sifter.size(),
        passes=passes,
        swaps=sifter.swaps,
        sifted_variables=sifted,
        order=manager.variables,
        sizes_by_pass=sizes_by_pass,
    )


def sift_to_order(manager: BDDManager, order: Sequence[str]) -> int:
    """Reorder the manager to an explicit target ``order`` via level swaps.

    ``order`` must be a permutation of the declared variables.  Returns
    the number of swaps performed.  Mostly useful in tests and for
    restoring a known-good order after an experiment.
    """
    if sorted(order) != sorted(manager.variables):
        raise ValueError("target order must be a permutation of the declared variables")
    swaps = 0
    sifter = _Sifter(manager, roots=None)
    for target_level, name in enumerate(order):
        current = manager.level(name)
        while current > target_level:
            sifter.swap(current - 1)
            swaps += 1
            current -= 1
        sifter.maybe_sweep()
    sifter.sweep()
    return swaps
