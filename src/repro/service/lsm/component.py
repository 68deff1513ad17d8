"""One immutable component of the leveled update subsystem.

A :class:`Component` is a frozen batch of points.  Level components (the
result of a merge) are backed by a static :class:`repro.RangeSkylineIndex`
on a private simulated machine with a private
:class:`~repro.em.counters.IOStats` ledger -- the same isolation discipline
as :class:`~repro.service.shard.Shard`, so queries against a level charge
exactly one ledger and concurrent batch workers never race a counter.
Frozen memtables (a sealed level 0 awaiting its flush merge) carry no
index and no machine: they are still in memory, so scanning them is free,
exactly like the memtable.

Construction of an indexed component eagerly charges the build to the
component's *private* ledger.  The ledger only joins the service-wide
aggregate after the :class:`~repro.service.lsm.CompactionScheduler` has
mirrored the build cost into the maintenance ledger in bounded steps and
reset it -- that escrow is what turns an ``O(m/B)`` build into ``O(1)``
visible work per update.

Shared (inherited) components
-----------------------------
Per-shard towers turn topology changes into metadata moves: a split hands
each child *whole components* instead of carving point slices out of
them.  A component handed across a topology change may therefore be
referenced by several towers at once -- :attr:`Component.refs` counts the
referencing towers, and the component (with its ledger, machine and
index) is retired only when the count drops to zero.  Adoption is a pure
metadata move: :meth:`Component.adopt` wraps an existing shard's already
built index, points and ledger without touching a single block.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.api import RangeSkylineIndex
from repro.core.columns import PointColumns
from repro.core.point import Point
from repro.em.config import EMConfig
from repro.em.counters import IOStats
from repro.em.storage import StorageManager

#: Owner key of a component in the tombstone table (see
#: :class:`repro.service.delta.DeltaBuffer`): distinct from a base
#: shard's ``("s", uid)`` key (:attr:`repro.service.shard.Shard.owner`).
OwnerKey = Tuple[str, int]


class Component:
    """An immutable, x-sorted batch of points, optionally indexed."""

    def __init__(
        self,
        comp_id: int,
        points: Sequence[Point],
        em_config: Optional[EMConfig] = None,
        epsilon: float = 0.5,
        build_index: bool = True,
    ) -> None:
        self.comp_id = comp_id
        self.points: List[Point] = sorted(points, key=lambda p: (p.x, p.y))
        # Columnar twin of ``points`` (parallel x/y/ident arrays): the
        # query path bisects and filters these instead of touching one
        # object per point.  Built once -- the component is immutable.
        self.columns: PointColumns = PointColumns.from_points(self.points)
        self.stats: Optional[IOStats] = None
        self.storage: Optional[StorageManager] = None
        self.index: Optional[RangeSkylineIndex] = None
        # Towers currently referencing this component (0 while it is a
        # private level of exactly one tower -- only inherited components
        # handed across topology changes are refcounted).
        self.refs = 0
        if build_index:
            assert em_config is not None
            self.stats = IOStats()
            self.storage = StorageManager(em_config, stats=self.stats)
            self.index = RangeSkylineIndex(
                self.storage, self.points, dynamic=False, epsilon=epsilon
            )

    @classmethod
    def adopt(
        cls,
        comp_id: int,
        points: Sequence[Point],
        stats: IOStats,
        storage: Optional[StorageManager],
        index: Optional[RangeSkylineIndex],
    ) -> "Component":
        """Wrap an already built index (a retiring base shard's) as a
        component without touching a single block.

        The donor's *ledger object itself* is transferred, not copied:
        its history stays visible through the service aggregate exactly
        as it did while the donor was a shard, so adoption moves zero
        charges and loses zero charges.  ``points`` must already be
        ``(x, y)``-sorted (a shard's always are); the columnar twin is
        rebuilt in memory, which is free in the I/O model.
        """
        comp = cls.__new__(cls)
        comp.comp_id = comp_id
        comp.points = list(points)
        comp.columns = PointColumns.from_points(comp.points)
        comp.stats = stats
        comp.storage = storage
        comp.index = index
        comp.refs = 0
        return comp

    @property
    def owner(self) -> OwnerKey:
        """This component's owner key in the tombstone table."""
        return ("c", self.comp_id)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "level" if self.index is not None else "frozen"
        return f"Component({self.comp_id}, {kind}, {len(self.points)} pts)"
