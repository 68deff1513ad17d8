"""The in-memory write delta: pending inserts and delete tombstones.

Writes never touch the static shard structures directly.  Following the
logarithmic method (Bentley--Saxe), inserts accumulate in a small in-memory
buffer that every query folds into its answer, and deletes of static points
are recorded as tombstones.  When the pending inserts reach the service's
threshold they are sealed into immutable level components, so the memory
the inserts occupy stays bounded by the threshold.

Skyline queries are *not* decomposable under deletion (removing a maximal
point can expose points it used to dominate), so tombstones cannot simply
be filtered out of a shard's precomputed answer.  Instead, a query whose
rectangle contains a tombstone of some shard recomputes that shard's local
skyline from the shard's resident live points; shards untouched by
tombstones keep using their static structures at full I/O efficiency.

Tombstones are bucketed by the *owning component* -- the base shard's
owner key (``("s", uid)``, see :attr:`repro.service.shard.Shard.owner`)
for victims resident in a static shard, or a leveled component's owner
key (``("c", component_id)``, see :mod:`repro.service.lsm`) for victims
resident in an immutable level.  A batch of ``Q`` queries over
``S`` components therefore probes only each component's own bucket instead
of sweeping every tombstone ``Q * S`` times.  Buckets are maintained on
every mutation path -- tombstone creation, revival by re-insert,
consumption/re-owning when a level merge rewrites the victim's component,
and :meth:`DeltaBuffer.clear` at compaction -- and owner keys stay valid
for the bucket's whole lifetime because compaction clears the buffer
whenever shard boundaries or the level layout move wholesale.

The buffer is the level-0 *memtable* of :mod:`repro.service.lsm`: a seal
drains each shard's cut of the pending inserts
(:meth:`DeltaBuffer.take_inserts_in_range`) into an immutable component
on that shard's tower while tombstones stay behind (they are consumed by the
merges that rewrite their victims' components, never flushed).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.point import Point
from repro.core.queries import RangeQuery

Key = Tuple[float, float, Optional[int]]
#: A tombstone's owning component: a base shard's or a leveled component's
#: owner key, or ``None`` for the unknown-owner catch-all bucket.
Owner = Optional[Hashable]


def point_key(point: Point) -> Key:
    """Identity key of a stored point: coordinates plus ``ident``."""
    return (point.x, point.y, point.ident)


class DeltaBuffer:
    """Pending inserts plus delete tombstones, with a change version."""

    def __init__(self) -> None:
        self.inserts: Dict[Key, Point] = {}
        self.tombstones: Dict[Key, Point] = {}
        # Owner buckets over the same tombstones (``None`` = unknown
        # owner, checked by every component) plus the reverse key -> owner
        # map that keeps revival O(1).
        self._tombstones_by_shard: Dict[Owner, Dict[Key, Point]] = {}
        self._tombstone_shard: Dict[Key, Owner] = {}
        # Bumped on every mutation -- an internal change counter for
        # introspection (describe()) and tests.  Result-cache invalidation
        # does NOT run through it: the service scopes invalidation with
        # per-shard write versions (see SkylineService._bump_region and
        # repro.service.cache.make_key), bumped on every write routed into
        # a shard's x-range.
        self.version = 0

    def __len__(self) -> int:
        return len(self.inserts) + len(self.tombstones)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Buffer an insert (re-inserting a tombstoned point revives it)."""
        key = point_key(point)
        if key in self.tombstones:
            del self.tombstones[key]
            self._unbucket(key)
        else:
            self.inserts[key] = point
        self.version += 1

    def remove_insert(self, point: Point) -> Optional[Point]:
        """Drop a pending insert matching ``point``; prefers an exact
        ``ident`` match among coordinate twins.  Returns the removed point
        (so callers can log exactly which point died), or ``None``."""
        victim = self._match(self.inserts, point)
        if victim is None:
            return None
        removed = self.inserts.pop(victim)
        self.version += 1
        return removed

    def add_tombstone(self, point: Point, sid: Owner = None) -> None:
        """Record that the resident point ``point`` is deleted.

        ``sid`` is the owner key of the component holding the point (a
        base shard's or a level component's); it buckets the
        tombstone so queries against other components never scan it.
        ``None`` (owner unknown) lands in a catch-all bucket every
        component checks.  Re-adding an existing tombstone under a new
        owner moves it between buckets, which is how level merges re-own
        the tombstones that survive them.
        """
        key = point_key(point)
        if key in self.tombstones:
            self._unbucket(key)
        self.tombstones[key] = point
        self._tombstone_shard[key] = sid
        self._tombstones_by_shard.setdefault(sid, {})[key] = point
        self.version += 1

    def take_inserts_in_range(self, x_lo: float, x_hi: float) -> List[Point]:
        """Remove and return the pending inserts with ``x_lo <= x < x_hi``.

        The memtable slice a hot-shard split hands over to the split
        children: the points become base-resident (in x-order), so they
        leave the level-0 buffer.  Tombstones are untouched.
        """
        taken = [
            p for p in self.inserts.values() if x_lo <= p.x < x_hi
        ]
        if taken:
            for p in taken:
                del self.inserts[point_key(p)]
            self.version += 1
        return sorted(taken, key=lambda p: (p.x, p.y))

    def drop_tombstone(self, key: Key) -> None:
        """Forget one tombstone (its victim left the store for good --
        a level merge dropped the dead record from its output)."""
        del self.tombstones[key]
        self._unbucket(key)
        self.version += 1

    def restore_insert(self, point: Point) -> None:
        """Re-materialise ``point`` as a pending insert.

        Used when a level merge consumed a tombstone whose point was
        *revived* while the merge was in flight: the merged output dropped
        the record, so the live copy moves back into the memtable."""
        self.inserts[point_key(point)] = point
        self.version += 1

    def tombstone_owner(self, key: Key) -> Owner:
        """The owner bucket a tombstone currently lives under."""
        return self._tombstone_shard[key]

    def clear(self) -> None:
        """Empty the buffer (after a compaction)."""
        self.inserts.clear()
        self.tombstones.clear()
        self._tombstones_by_shard.clear()
        self._tombstone_shard.clear()
        self.version += 1

    def _unbucket(self, key: Key) -> None:
        sid = self._tombstone_shard.pop(key)
        bucket = self._tombstones_by_shard[sid]
        del bucket[key]
        if not bucket:
            del self._tombstones_by_shard[sid]

    # ------------------------------------------------------------------
    # Query-side views
    # ------------------------------------------------------------------
    def is_deleted(self, point: Point) -> bool:
        return point_key(point) in self.tombstones

    def describe(self) -> dict:
        """Current fill of the buffer, for dashboards and reports."""
        return {
            "inserts": len(self.inserts),
            "tombstones": len(self.tombstones),
            "version": self.version,
        }

    def candidates_in(self, query: RangeQuery) -> List[Point]:
        """Pending inserts inside the query rectangle."""
        return [p for p in self.inserts.values() if query.contains(p)]

    def shard_tombstones(self, sid: Owner) -> List[Point]:
        """The tombstones bucketed under owner ``sid`` (test/introspection)."""
        return list(self._tombstones_by_shard.get(sid, {}).values())

    def owned_tombstones(self, owner: Owner) -> Dict[Key, Point]:
        """A copy of the key -> victim table bucketed under ``owner``."""
        return dict(self._tombstones_by_shard.get(owner, {}))

    def tombstone_hits(
        self,
        query: RangeQuery,
        x_lo: float,
        x_hi: float,
        sid: Owner = None,
    ) -> bool:
        """Whether a tombstone lies inside ``query`` within ``[x_lo, x_hi)``.

        Only then is the static answer of the component covering that
        x-range unreliable (a deleted point outside the rectangle can
        neither appear in, nor have dominated anything in, the answer).
        When the caller passes its owner key, only that component's bucket
        (plus the unknown-owner catch-all) is scanned; without a ``sid``
        the full table is swept.
        """
        if sid is None:
            candidates = list(self.tombstones.values())
        else:
            candidates = self.shard_tombstones(sid)
            candidates.extend(self.shard_tombstones(None))
        return any(
            x_lo <= t.x < x_hi and query.contains(t) for t in candidates
        )

    def _match(self, table: Dict[Key, Point], point: Point) -> Optional[Key]:
        """A key in ``table`` matching ``point``'s coordinates, preferring an
        exact ident match -- the same one-victim semantics as
        :meth:`repro.RangeSkylineIndex.delete`."""
        exact = point_key(point)
        if exact in table:
            return exact
        for key in table:
            if key[0] == point.x and key[1] == point.y:
                return key
        return None
