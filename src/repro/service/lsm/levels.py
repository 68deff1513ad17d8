"""The per-shard level tower of the leveled update path.

Each base :class:`~repro.service.shard.Shard` owns one
:class:`LevelManager` -- its private memtable overflow structure --
holding everything between the shared level-0 memtable (the service's
:class:`~repro.service.delta.DeltaBuffer`, cut by shard range) and the
shard's static base index:

* **frozen memtables** -- sealed level-0 batches of this shard's range
  awaiting their flush merge; in memory, scan-free, visible to every
  query that visits the shard;
* **levels 1..k** -- immutable :class:`~repro.service.lsm.Component`
  structures of geometrically increasing capacity
  (``delta_threshold * level_growth**j`` records at level ``j``).  A
  level of more than one block (``B`` records) is indexed on its own
  simulated machine with its own ledger; a level of at most one block
  stays in memory, unindexed and free to read like a frozen memtable.
  So a tower keeps its frozen memtables plus at most ``B`` records per
  level in memory;
* **inherited components** -- whole components handed over by a topology
  change (including a retiring parent's adopted base index), shared with
  sibling towers via :attr:`Component.refs` and read through an
  :class:`InheritedRef` carrying the *explicit clip interval* fixed at
  adoption time.  Inherited components are never merge inputs; they
  retire when a fold or compaction releases the last reference;
* the :class:`~repro.service.lsm.CompactionScheduler` that merges this
  tower's private levels in bounded incremental steps.

Because every component is owned (or clip-referenced) by exactly the
towers whose ranges its points fall in, a split or merge of shards is a
pure metadata move: cut the memtable by range, hand the component *set*
to the children, bump refcounts.  No component is read or rebuilt --
the zero-block topology contract ``bench_resharding`` asserts.

The manager never touches the base shards: a full
:meth:`repro.service.SkylineService.compact` folds every component into a
rebuilt base and calls :meth:`LevelManager.reset`.  Visibility is the
invariant that keeps intermediate merge states correct: a component stays
queryable until the merge that rewrites it is fully paid, at which point
the swap is atomic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.em.config import EMConfig
from repro.em.counters import IOStats
from repro.service.delta import DeltaBuffer
from repro.service.lsm.component import Component
from repro.service.lsm.scheduler import CompactionScheduler, MergeJob


def clip_query(
    query: RangeQuery, clip_lo: float, clip_hi: float
) -> Optional[RangeQuery]:
    """``query`` narrowed to the half-open x-range ``[clip_lo, clip_hi)``,
    or ``None`` when none of its x-window is left.

    ``x_hi`` is inclusive, so the open upper bound becomes the previous
    float.  An unchanged window returns ``query`` itself.
    """
    x_lo = max(query.x_lo, clip_lo)
    x_hi = query.x_hi
    if clip_hi != math.inf:
        x_hi = min(x_hi, math.nextafter(clip_hi, -math.inf))
    if x_lo > x_hi:
        return None
    if x_lo == query.x_lo and x_hi == query.x_hi:
        return query
    return RangeQuery(x_lo=x_lo, x_hi=x_hi, y_lo=query.y_lo, y_hi=query.y_hi)


class InheritedRef:
    """One tower's reference to a shared (inherited) component.

    The half-open x-interval ``[x_lo, x_hi)`` is *fixed at adoption* --
    the intersection of the donor's interval with the adopting tower's
    range -- and never re-derived from the tower's current range.  That
    distinction matters after a fold: folding a sibling shard copies the
    component's points in *that* range into the sibling's rebuilt base
    and drops the sibling's reference, so a later merge whose child
    range covers the folded region again must **not** widen this clip
    back over it (it would resurrect the folded points as duplicates).
    With explicit intervals the merged tower simply inherits each
    parent's refs with their intervals unchanged -- the live intervals
    of a component always partition exactly its still-reachable points.

    ``lo``/``hi`` cache the interval's index range in ``comp.points``
    (the component is immutable, so one bisect pair at adoption time
    serves every later read).
    """

    __slots__ = ("comp", "x_lo", "x_hi", "lo", "hi")

    def __init__(self, comp: Component, x_lo: float, x_hi: float) -> None:
        self.comp = comp
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.lo = (
            0 if x_lo == -math.inf else comp.columns.bisect_x_left(x_lo)
        )
        self.hi = (
            len(comp.points)
            if x_hi == math.inf
            else comp.columns.bisect_x_left(x_hi)
        )

    def __len__(self) -> int:
        return self.hi - self.lo

    def points(self) -> List[Point]:
        """The slice of the component this reference answers for."""
        return self.comp.points[self.lo : self.hi]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InheritedRef({self.comp!r}, [{self.x_lo}, {self.x_hi}), "
            f"rows {self.lo}:{self.hi})"
        )


class LevelManager:
    """One shard's frozen memtables, levels 1..k, inherited components,
    and their merge scheduler."""

    def __init__(
        self,
        *,
        em_config: EMConfig,
        epsilon: float,
        block_size: int,
        memtable_capacity: int,
        level_growth: int,
        merge_step_blocks: int,
        delta: DeltaBuffer,
        maintenance: IOStats,
        retired: IOStats,
        on_layout_change: Callable[[], None],
        next_comp_id: Optional[Callable[[], int]] = None,
        x_lo: float = -math.inf,
        x_hi: float = math.inf,
    ) -> None:
        self.em_config = em_config
        self.epsilon = epsilon
        self.block_size = block_size
        self.memtable_capacity = memtable_capacity
        self.level_growth = level_growth
        self.merge_step_blocks = merge_step_blocks
        self.delta = delta
        # Both ledgers are private to this tower: the scheduler mirrors
        # merge debt onto ``maintenance`` and retires input ledgers into
        # ``retired`` -- possibly from a parallel maintenance worker, so
        # sharing either across towers would race.
        self.maintenance = maintenance
        self.retired = retired
        self._on_layout_change = on_layout_change
        # This tower's half-open x-range (the owning shard's): adoption
        # intersects every inherited interval with it.
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.frozen: List[Component] = []
        self.levels: Dict[int, Component] = {}
        self.inherited: List[InheritedRef] = []
        self.scheduler = CompactionScheduler(self)
        # Component ids key tombstone owner buckets in the *shared* delta
        # buffer, so the service injects one global allocator; the private
        # counter is a fallback for towers constructed directly in tests.
        self._alloc_comp_id = next_comp_id
        self._next_comp_id = 1

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def next_component_id(self) -> int:
        if self._alloc_comp_id is not None:
            return self._alloc_comp_id()
        comp_id = self._next_comp_id
        self._next_comp_id += 1
        return comp_id

    def capacity(self, level: int) -> int:
        """Record capacity of ``level`` (level 0 is the memtable)."""
        return self.memtable_capacity * self.level_growth**level

    def components(self) -> List[Component]:
        """Every visible immutable component, frozen first, then levels
        in increasing depth, then inherited (query fan-out order).
        Inherited components must be read through their ref's interval
        (see :attr:`inherited`); a component two refs share appears
        twice."""
        return (
            self.frozen
            + [self.levels[j] for j in sorted(self.levels)]
            + [ref.comp for ref in self.inherited]
        )

    def private_components(self) -> List[Component]:
        """The components this tower exclusively owns (merge inputs)."""
        return self.frozen + [self.levels[j] for j in sorted(self.levels)]

    def find_frozen(self, frozen_id: Optional[int]) -> Optional[Component]:
        for comp in self.frozen:
            if comp.comp_id == frozen_id:
                return comp
        return None

    def stats_members(self) -> List[IOStats]:
        """The visible level ledgers (members of the service aggregate).

        Inherited ledgers appear here too; the service dedups by object
        identity across towers so a shared component is summed once.
        """
        return [
            comp.stats
            for comp in self.components()
            if comp.stats is not None
        ]

    def adopt_inherited(
        self,
        comp: Component,
        x_lo: float = -math.inf,
        x_hi: float = math.inf,
    ) -> Optional[InheritedRef]:
        """Reference a component handed over by a topology change,
        answering for the donor interval ``[x_lo, x_hi)`` intersected
        with this tower's range.

        Pure metadata: the interval bisects touch only the in-memory
        column directory, nothing is read.  Returns the new ref, or
        ``None`` (and adopts nothing) when the intersection holds no
        point -- the donor's slice belongs entirely to a sibling.
        """
        ref = InheritedRef(comp, max(x_lo, self.x_lo), min(x_hi, self.x_hi))
        if ref.hi <= ref.lo:
            return None
        comp.refs += 1
        self.inherited.append(ref)
        self._on_layout_change()
        return ref

    def release_inherited(self, ref: InheritedRef) -> bool:
        """Drop one reference; retire the component's ledger into this
        tower's retired accumulator when the last reference dies.
        Returns whether the component was actually retired."""
        self.inherited.remove(ref)
        ref.comp.refs -= 1
        if ref.comp.refs == 0:
            if ref.comp.stats is not None:
                self.retired.absorb(ref.comp.stats)
            self._on_layout_change()
            return True
        self._on_layout_change()
        return False

    def remove_component(self, comp: Component) -> None:
        """Drop a merge input from visibility, retiring its ledger."""
        if comp in self.frozen:
            self.frozen.remove(comp)
        for j, level_comp in list(self.levels.items()):
            if level_comp is comp:
                del self.levels[j]
        if comp.stats is not None:
            self.retired.absorb(comp.stats)
        self._on_layout_change()

    def install_level(self, level: int, comp: Component) -> None:
        """Make a paid-off merge output visible at ``level``."""
        assert level not in self.levels
        self.levels[level] = comp
        self._on_layout_change()

    # ------------------------------------------------------------------
    # Update-path entry points
    # ------------------------------------------------------------------
    def seal(self, points: List[Point]) -> Component:
        """Freeze a full memtable and schedule its flush into level 1."""
        comp = Component(self.next_component_id(), points)
        self.frozen.append(comp)
        self.scheduler.schedule(MergeJob("flush", frozen_id=comp.comp_id))
        self._on_layout_change()
        return comp

    def tick(self) -> int:
        """One update's worth of piggybacked merge work (bounded)."""
        return self.scheduler.pay(self.merge_step_blocks)

    def drain(self) -> int:
        """Pay all outstanding merge debt; returns transfers charged."""
        return self.scheduler.drain()

    def reset(self) -> None:
        """Forget every component (a full compaction folded them into the
        base); visible ledgers are retired so no charge is lost, and
        inherited references are released (shared components retire only
        when the last sibling tower lets go)."""
        self.scheduler.clear()
        for comp in self.private_components():
            if comp.stats is not None:
                self.retired.absorb(comp.stats)
        for ref in self.inherited:
            ref.comp.refs -= 1
            if ref.comp.refs == 0 and ref.comp.stats is not None:
                self.retired.absorb(ref.comp.stats)
        self.inherited = []
        self.frozen = []
        self.levels = {}
        self._on_layout_change()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_inserts(self) -> int:
        """Pending memtable inserts routed into this tower's x-range."""
        return sum(
            1
            for p in self.delta.inserts.values()
            if self.x_lo <= p.x < self.x_hi
        )

    def live_points(self) -> List[Point]:
        """Points resident in visible components (inherited ones through
        their refs' intervals), minus tombstoned ones."""
        pts = [
            p
            for comp in self.private_components()
            for p in comp.points
            if not self.delta.is_deleted(p)
        ]
        for ref in self.inherited:
            pts.extend(
                p for p in ref.points() if not self.delta.is_deleted(p)
            )
        return pts

    def resident(self) -> int:
        """Physical records this tower answers for (inherited clipped)."""
        total = sum(len(comp) for comp in self.private_components())
        total += sum(len(ref) for ref in self.inherited)
        return total

    def describe_levels(self) -> List[dict]:
        """Per-level fill: {level, records, tombstones, capacity,
        merge_debt}, the block :meth:`SkylineService.describe` surfaces.

        Level 0 is this tower's cut of the memtable (records = pending
        inserts in range; its tombstone count is the in-range slice of
        the table, which conceptually lives at level 0 until merges
        consume it).  ``merge_debt`` sits on the level the active merge
        is building towards; inherited components are reported as
        clipped record counts on the level-0 row.
        """
        active = self.scheduler.active
        rows = [
            {
                "level": 0,
                "records": self.pending_inserts(),
                "tombstones": sum(
                    1
                    for t in self.delta.tombstones.values()
                    if self.x_lo <= t.x < self.x_hi
                ),
                "capacity": self.capacity(0),
                "merge_debt": 0,
                "frozen": [len(c) for c in self.frozen],
                "inherited": [len(ref) for ref in self.inherited],
            }
        ]
        for j in sorted(set(self.levels) | ({active.out_level} if active else set())):
            comp = self.levels.get(j)
            rows.append(
                {
                    "level": j,
                    "records": 0 if comp is None else len(comp),
                    "tombstones": 0
                    if comp is None
                    else len(self.delta.owned_tombstones(comp.owner)),
                    "capacity": self.capacity(j),
                    "merge_debt": active.debt
                    if active is not None and active.out_level == j
                    else 0,
                }
            )
        return rows
