"""Pluggable execution backends behind the engine's one front door.

A :class:`Backend` turns a validated request into points plus a
:class:`QueryTrace` (the service-tier facts -- cache hit, shard fan-out,
tombstone fallback -- the engine folds into the per-request
:class:`~repro.engine.report.ExecutionReport`), and exposes the
structural facts (``B``, per-scope ``n``, ``epsilon``) the planner needs.
Two implementations ship:

* :class:`LocalIndexBackend` -- a single :class:`repro.RangeSkylineIndex`
  on one simulated machine: the embedded/single-node deployment.
* :class:`ShardedServiceBackend` -- a
  :class:`repro.service.SkylineService`: x-range shards, batch execution,
  result cache, log-merge updates, and (when configured) the durability
  tier, whose :meth:`ShardedServiceBackend.open` / ``close`` passthrough
  recovers and cleanly shuts down the underlying store.

Both charge every block transfer to ledgers the engine snapshots around
each request, so per-request report totals sum exactly to the backend
ledger -- the invariant the engine's accounting tests pin down.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.api import RangeSkylineIndex
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.em.config import EMConfig
from repro.em.counters import IOSnapshot
from repro.em.storage import StorageManager
from repro.engine.plan import (
    BOUND_UPDATE_LEVELED,
    QueryPlan,
    amortized_update_io,
    build_plan,
)
from repro.engine.requests import OP_INSERT, QueryRequest, UpdateRequest
from repro.service.config import ServiceConfig
from repro.service.durability import DurableStore
from repro.service.lsm.levels import clip_query
from repro.service.service import QueryExecutionTrace, SkylineService


class QueryTrace:
    """Backend-side facts about one executed query (no block counts --
    those come from the ledger snapshots the engine takes)."""

    __slots__ = (
        "cache_hit",
        "shards_visited",
        "shards_pruned",
        "tombstone_fallback",
    )

    def __init__(
        self,
        cache_hit: bool = False,
        shards_visited: int = 1,
        shards_pruned: int = 0,
        tombstone_fallback: bool = False,
    ) -> None:
        self.cache_hit = cache_hit
        self.shards_visited = shards_visited
        self.shards_pruned = shards_pruned
        self.tombstone_fallback = tombstone_fallback


class Backend(Protocol):
    """What the engine needs from an execution tier."""

    #: Stable backend identifier, embedded in plans and reports.
    name: str

    @property
    def write_path(self) -> str:
        """Label reports use as the ``structure`` of update requests."""
        ...

    def snapshot(self) -> IOSnapshot:
        """Current ledger counters (engine measures per-request deltas)."""
        ...

    def maintenance_snapshot(self) -> IOSnapshot:
        """Current maintenance-ledger counters: the incremental merge
        work charged alongside updates (all-zero on backends without a
        leveled update path)."""
        ...

    def io_total(self) -> int:
        """Total block transfers charged so far (including construction)."""
        ...

    def block_size(self) -> int:
        """``B`` of the simulated machine(s)."""
        ...

    def __len__(self) -> int:
        """Number of live points."""
        ...

    def execute_many(
        self, rects: List[RangeQuery], consistency: str
    ) -> List[Tuple[List[Point], QueryTrace]]:
        """Answer a batch through the backend's native batch executor:
        ``result[i]`` is the full, unpaginated x-ordered answer to
        ``rects[i]`` plus its trace.  Every rectangle executes; the
        engine has already collapsed identical and nested ones."""
        ...

    def apply(self, request: UpdateRequest) -> bool:
        """Apply one update; ``False`` iff a delete found no victim."""
        ...

    def plan(self, request: QueryRequest) -> QueryPlan:
        """The structure choice and instantiated paper bound, no execution."""
        ...

    def describe(self) -> Dict[str, object]:
        """Status snapshot for dashboards."""
        ...

    def drop_caches(self) -> None:
        """Empty the buffer pool(s) for cold-cache measurements."""
        ...

    def compact(self) -> None:
        """Fold pending writes into the static structures (no-op when the
        backend has no delta to fold)."""
        ...

    def drain(self, sid: Optional[int] = None) -> Dict[str, int]:
        """Pay all outstanding incremental merge debt now (no-op when
        the backend has no merge scheduler); with ``sid`` only that
        shard's private tower is drained.  Returns the drain counters."""
        ...

    def split_shard(self, sid: int, cut: Optional[float] = None) -> Optional[float]:
        """Split shard ``sid`` (no-op returning ``None`` on backends
        without a shard topology); returns the cut applied."""
        ...

    def merge_shards(self, sid: int) -> Optional[float]:
        """Merge shards ``sid`` and ``sid + 1`` (no-op returning ``None``
        on backends without a shard topology); returns the removed cut."""
        ...

    def fold_shard(self, sid: int) -> int:
        """Fold shard ``sid`` in place (no-op returning 0 on backends
        without a shard topology); returns records touched."""
        ...

    def close(self) -> int:
        """Flush/shutdown; returns backend-specific flush count."""
        ...


class LocalIndexBackend:
    """A single :class:`repro.RangeSkylineIndex` on one simulated machine."""

    name = "local-index"
    write_path = "dynamic-structures"

    def __init__(self, index: RangeSkylineIndex) -> None:
        self.index = index

    @classmethod
    def build(
        cls,
        points: List[Point],
        *,
        dynamic: bool = False,
        epsilon: float = 0.5,
        em_config: Optional[EMConfig] = None,
        storage: Optional[StorageManager] = None,
    ) -> "LocalIndexBackend":
        """Index ``points`` on a fresh machine (or a caller-supplied one)."""
        machine = storage if storage is not None else StorageManager(em_config)
        return cls(
            RangeSkylineIndex(machine, points, dynamic=dynamic, epsilon=epsilon)
        )

    # -- ledger --------------------------------------------------------
    def snapshot(self) -> IOSnapshot:
        return self.index.storage.snapshot()

    def maintenance_snapshot(self) -> IOSnapshot:
        return IOSnapshot()

    def io_total(self) -> int:
        return self.index.io_total()

    def block_size(self) -> int:
        return self.index.storage.block_size

    def __len__(self) -> int:
        return len(self.index)

    # -- execution -----------------------------------------------------
    def execute_many(
        self, rects: List[RangeQuery], consistency: str
    ) -> List[Tuple[List[Point], QueryTrace]]:
        """One native ``query_many`` call (variant/x-ordered for
        buffer-pool locality).  The monolithic index has no result
        cache, so both consistency levels recompute; there is exactly
        one "shard" and no delta."""
        return [
            (points, QueryTrace(shards_visited=1))
            for points in self.index.query_many(rects)
        ]

    def apply(self, request: UpdateRequest) -> bool:
        if request.op == OP_INSERT:
            self.index.insert(request.point)
            return True
        return self.index.delete(request.point)

    # -- planning ------------------------------------------------------
    def plan(self, request: QueryRequest) -> QueryPlan:
        index = self.index
        return build_plan(
            request,
            backend=self.name,
            block_size=self.block_size(),
            epsilon=index.epsilon,
            dynamic=index.dynamic,
            scopes=[(None, len(index), index.route(request.rect))],
            shards_pruned=0,
        )

    # -- lifecycle -----------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "backend": self.name,
            "points": len(self.index),
            "dynamic": self.index.dynamic,
            "epsilon": self.index.epsilon,
            "block_size": self.block_size(),
            "io_total": self.io_total(),
            "blocks_in_use": self.index.storage.blocks_in_use(),
        }

    def drop_caches(self) -> None:
        self.index.storage.drop_cache()

    def compact(self) -> None:
        """No-op: the monolithic index applies updates in place."""

    def drain(self, sid: Optional[int] = None) -> Dict[str, int]:
        """No-op: the monolithic index has no merge scheduler."""
        return {"merge_io": 0, "merges_completed": 0}

    def split_shard(self, sid: int, cut: Optional[float] = None) -> Optional[float]:
        """No-op: the monolithic index has no shard topology."""
        return None

    def merge_shards(self, sid: int) -> Optional[float]:
        """No-op: the monolithic index has no shard topology."""
        return None

    def fold_shard(self, sid: int) -> int:
        """No-op: the monolithic index has no shard topology."""
        return 0

    def close(self) -> int:
        self.index.storage.flush()
        return 0


class ShardedServiceBackend:
    """A :class:`repro.service.SkylineService` behind the engine API."""

    name = "sharded-service"
    write_path = "leveled-lsm"

    def __init__(self, service: SkylineService) -> None:
        self.service = service

    @classmethod
    def build(
        cls,
        points: List[Point],
        config: Optional[ServiceConfig] = None,
        store: Optional[DurableStore] = None,
        **overrides: object,
    ) -> "ShardedServiceBackend":
        return cls(SkylineService(points, config, store=store, **overrides))

    @classmethod
    def open(
        cls,
        store: DurableStore,
        config: Optional[ServiceConfig] = None,
        **overrides: object,
    ) -> "ShardedServiceBackend":
        """Durability passthrough: recover the service a store holds."""
        return cls(SkylineService.open(store, config, **overrides))

    # -- ledger --------------------------------------------------------
    def snapshot(self) -> IOSnapshot:
        return self.service.snapshot()

    def maintenance_snapshot(self) -> IOSnapshot:
        return self.service.maintenance.snapshot()

    def io_total(self) -> int:
        return self.service.io_total()

    def block_size(self) -> int:
        return self.service.config.block_size

    def __len__(self) -> int:
        return len(self.service)

    # -- execution -----------------------------------------------------
    def _visited(self, rect: RangeQuery) -> List[int]:
        return self.service.router.shards_for(rect)

    def _trace_from(self, trace: QueryExecutionTrace) -> QueryTrace:
        # The service is the single source of truth for routing, cache
        # and tombstone-fallback facts; nothing is re-derived here.
        visited = len(trace.shard_ids)
        return QueryTrace(
            cache_hit=trace.cache_hit,
            shards_visited=visited,
            shards_pruned=len(self.service.shards) - visited,
            tombstone_fallback=trace.tombstone_fallback,
        )

    def execute_many(
        self, rects: List[RangeQuery], consistency: str
    ) -> List[Tuple[List[Point], QueryTrace]]:
        """One native ``query_many_traced`` call: worklist batching and
        the result cache apply, and the traces come back with the
        results."""
        service = self.service
        # repro: calls(SkylineService.query_many_traced)
        results, traces = service.query_many_traced(
            rects, use_cache=consistency != "fresh"
        )
        return [
            (points, self._trace_from(trace))
            for points, trace in zip(results, traces)
        ]

    def apply(self, request: UpdateRequest) -> bool:
        if request.op == OP_INSERT:
            self.service.insert(request.point)
            return True
        return self.service.delete(request.point)

    # -- planning ------------------------------------------------------
    def plan(self, request: QueryRequest) -> QueryPlan:
        # Every shard (and every level component of more than one block)
        # is a static RangeSkylineIndex over its resident points; the
        # memtable, frozen memtables and one-block levels are in memory
        # and charge no transfers.  The query additionally fans across
        # every indexed level, so the plan carries one scope per indexed
        # level and reports the level layout plus the amortized
        # update bound instantiated with the actual B, n, growth factor
        # and memtable capacity.  Each scope records the structure its
        # index routes the rectangle it receives to.
        service = self.service
        config = service.config
        rect = request.rect
        visited = self._visited(rect)
        scopes: List[Tuple[Optional[int], int, str]] = []
        for sid in visited:
            shard = service.shards[sid]
            assert shard.index is not None
            scopes.append((sid, len(shard), shard.index.route(rect)))
        level_scopes: List[Tuple[int, int, str]] = []
        # Towers are per-shard: the layout and the per-level search
        # terms are instantiated over the *visited* shards' towers
        # only -- exactly the structures this query's execution fans
        # across.  Level 0 counts the visited shards' memtable cuts
        # plus their sealed-but-not-yet-flushed frozen memtables;
        # level -1 aggregates inherited components through their
        # refs' adoption intervals.
        layout: Dict[int, int] = {0: 0}
        for sid in visited:
            shard = service.shards[sid]
            tower = shard.tower
            assert tower is not None
            layout[0] += tower.pending_inserts() + sum(
                len(c) for c in tower.frozen
            )
            for level in sorted(tower.levels):
                comp = tower.levels[level]
                layout[level] = layout.get(level, 0) + len(comp)
                # Mirror the execution side: a level without an index is
                # read in memory, and one with no point in the
                # rectangle's x-window is pruned; neither charges, so
                # neither adds a search term to the predicted cost.
                if comp.index is None:
                    continue
                lo = comp.columns.bisect_x_left(rect.x_lo)
                if lo < len(comp.points) and comp.points[lo].x <= rect.x_hi:
                    level_scopes.append(
                        (level, len(comp), comp.index.route(rect))
                    )
            for ref in tower.inherited:
                comp = ref.comp
                layout[-1] = layout.get(-1, 0) + len(ref)
                # The prune bisect and the route both see the
                # ref-narrowed rectangle, like the execution side.
                clipped = clip_query(rect, ref.x_lo, ref.x_hi)
                if comp.index is None or clipped is None:
                    continue
                lo = max(comp.columns.bisect_x_left(clipped.x_lo), ref.lo)
                if lo < ref.hi and comp.points[lo].x <= clipped.x_hi:
                    level_scopes.append(
                        (-1, len(ref), comp.index.route(clipped))
                    )
        return build_plan(
            request,
            backend=self.name,
            block_size=self.block_size(),
            epsilon=config.epsilon,
            dynamic=False,
            scopes=scopes,
            shards_pruned=len(service.shards) - len(visited),
            level_scopes=level_scopes,
            level_layout=[(level, layout[level]) for level in sorted(layout)],
            update_bound=BOUND_UPDATE_LEVELED,
            update_io=amortized_update_io(
                len(service),
                self.block_size(),
                config.level_growth,
                config.delta_threshold,
            ),
            topology_version=service.router.version,
        )

    # -- lifecycle -----------------------------------------------------
    def describe(self) -> Dict[str, object]:
        status = dict(self.service.describe())
        status["backend"] = self.name
        return status

    def drop_caches(self) -> None:
        self.service.drop_caches()

    def compact(self) -> None:
        self.service.compact()

    def drain(self, sid: Optional[int] = None) -> Dict[str, int]:
        return self.service.drain(sid)

    def split_shard(self, sid: int, cut: Optional[float] = None) -> Optional[float]:
        return self.service.split_shard(sid, cut)

    def merge_shards(self, sid: int) -> Optional[float]:
        return self.service.merge_shards(sid)

    def fold_shard(self, sid: int) -> int:
        return self.service.fold_shard(sid)

    def close(self) -> int:
        return self.service.close()
