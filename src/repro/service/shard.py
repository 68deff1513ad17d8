"""A single x-range shard: one static index over its own simulated machine.

Each shard owns the points whose x-coordinates fall in its half-open range
``[x_lo, x_hi)`` and answers queries with a private
:class:`repro.RangeSkylineIndex` built over a private
:class:`repro.em.StorageManager`.  Every shard machine also owns a *private*
:class:`repro.em.counters.IOStats` ledger: the serving tier's worker pool
pins each shard to one worker thread, so the workers of one batch never
touch the same counter and cannot drop increments.  The service-wide I/O
total is the sum over the per-shard ledgers (see
:class:`repro.em.counters.IOStatsGroup`) -- the same quantity the
monolithic index reports, which keeps the benchmark comparison honest.

Identity vs position
--------------------
A shard's *position* (its index in the service's shard list, which routing
returns) shifts whenever an online split or merge inserts or removes a cut
to its left.  Its :attr:`Shard.uid` never does: the service assigns every
shard instance a fresh unique id at creation, and everything that must
survive a topology change keys on it -- result-cache entries embed
``(uid, write_version)`` scopes, so a split two shards over leaves them
reachable, and tombstones are bucketed under :attr:`Shard.owner`, so a
re-numbered shard keeps finding exactly its own tombstones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.api import RangeSkylineIndex
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.em.config import EMConfig
from repro.em.counters import IOStats
from repro.em.storage import StorageManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.lsm import LevelManager

#: Owner key of a base shard in the tombstone table -- same shape as a
#: level component's ``("c", comp_id)`` key, distinguishable from it.
ShardOwnerKey = Tuple[str, int]


class Shard:
    """One partition of the service's point set, indexed independently."""

    def __init__(
        self,
        sid: int,
        x_lo: float,
        x_hi: float,
        points: Sequence[Point],
        em_config: EMConfig,
        epsilon: float = 0.5,
        epoch: int = 0,
        uid: int = 0,
    ) -> None:
        self.sid = sid
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.em_config = em_config
        # Always a private ledger -- deliberately not injectable: a shared
        # IOStats across shards is exactly what made parallel batch
        # execution drop increments before the service summed per-shard
        # ledgers through IOStatsGroup.
        self.stats = IOStats()
        self.epsilon = epsilon
        # Epoch increments on every rebuild (the service seeds it with the
        # compaction generation) -- a human-readable "which generation is
        # this" counter for dashboards.
        self.epoch = epoch
        # Stable identity across topology changes; cache keys and
        # tombstone buckets use it, never the positional sid.
        self.uid = uid
        # Bumped by the service on every update routed into this shard's
        # x-range; cache keys embed it so invalidation stays shard-scoped.
        self.write_version = 0
        # The shard's private level tower (the service assigns it at
        # shard creation).  Topology changes move whole towers and
        # component sets, never point slices.
        self.tower: Optional["LevelManager"] = None
        self.points: List[Point] = []
        self.storage: Optional[StorageManager] = None
        self.index: Optional[RangeSkylineIndex] = None
        self.rebuild(points)

    @property
    def owner(self) -> ShardOwnerKey:
        """This shard's owner key in the tombstone table."""
        return ("s", self.uid)

    # ------------------------------------------------------------------
    # Queries and maintenance
    # ------------------------------------------------------------------
    def query(self, query: RangeQuery) -> List[Point]:
        """The local skyline: maxima of this shard's points inside ``query``."""
        if self.index is None or not self.points:
            return []
        return self.index.query(query)

    def rebuild(self, points: Sequence[Point]) -> None:
        """Re-index ``points`` on a fresh machine and advance the epoch.

        The old disk and buffer pool are dropped wholesale (the service
        charges the build I/Os of the new generation through the shared
        counters, which is exactly the logarithmic-method accounting).
        """
        self.points = sorted(points, key=lambda p: (p.x, p.y))
        self.storage = StorageManager(self.em_config, stats=self.stats)
        self.index = RangeSkylineIndex(
            self.storage, self.points, dynamic=False, epsilon=self.epsilon
        )
        self.epoch += 1

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Shard({self.sid}, [{self.x_lo}, {self.x_hi}), "
            f"{len(self.points)} pts, uid {self.uid}, epoch {self.epoch})"
        )
