"""The sharded skyline query service facade.

:class:`SkylineService` glues the service tier together: the
:class:`~repro.service.router.ShardRouter` prunes shards per query, each
:class:`~repro.service.shard.Shard` answers locally on its own simulated
machine, :mod:`~repro.service.merge` folds local answers into the global
skyline, and the :class:`~repro.service.cache.ResultCache`
short-circuits repeated queries between writes.  The public surface
mirrors :class:`repro.RangeSkylineIndex` (``query``, ``query_many``,
``insert``, ``delete``, ``skyline``, ``io_total``), so the two are
interchangeable in benchmarks and applications.

Update path
-----------
Writes never touch the static shard structures directly.  They take the
leveled path (:mod:`repro.service.lsm`): inserts land in the
shared level-0 memtable (the :class:`~repro.service.delta.DeltaBuffer`,
range-cut by shard) and deletes of resident points become
component-bucketed tombstones.  *Every shard owns a private level
tower*: when a shard's cut of the memtable fills it is sealed into that
shard's :class:`~repro.service.lsm.LevelManager`, whose
:class:`~repro.service.lsm.CompactionScheduler` merges it -- and, as
they overflow, the immutable levels of geometrically increasing capacity
it feeds -- downwards in *bounded incremental steps* of at most
``ServiceConfig.merge_step_blocks`` transfers piggybacked per update.
No single update ever pays an ``O(n/B)`` rebuild; the worst case drops
to ``O(1)`` transfers while the amortised cost stays the
logarithmic-method ``O((g/B) log_g n)``.  Queries fan across the
memtable, the *visited shards'* towers and the base shards, folded by
the generalised right-to-left running-max-y merge
(:func:`~repro.service.merge.merge_component_skylines`).
:meth:`SkylineService.drain` pays all outstanding merge debt at once
(per shard, or tower by tower across every shard), and
:meth:`SkylineService.compact` remains the explicit *major* compaction
that folds everything back into rebuilt, size-rebalanced base shards.

Topology
--------
Shard cuts are no longer frozen between compactions: the
:class:`~repro.service.topology.TopologyManager` (driven automatically
with ``ServiceConfig.adaptive_topology``, or by hand through
:meth:`SkylineService.split_shard` / :meth:`SkylineService.merge_shards`)
splits a hot shard, merges adjacent cold shards, and *folds* a
tower-pressured shard back into its base structure in place.  Because
towers are per shard, a split or merge is a pure **metadata move**: the
retiring shard's base index is adopted as a zero-I/O component
(:meth:`repro.service.lsm.Component.adopt`), its tower's components are
handed to the children *whole* (refcounted, clipped to each child's
x-range by every reader), and the shared memtable needs no work at all
-- its range cut moves with the router.  No component block is read or
rewritten; only a fold pays ``O(range mass / B)`` to compact one shard's
private tower, charged to the maintenance ledger.  Shard *identity*
(:attr:`~repro.service.shard.Shard.uid`) is decoupled from shard
*position*, so a topology change invalidates only the cached answers and
tombstone buckets of the shards it actually rewrites.  On a durable
service splits and merges are WAL-logged (``OP_SPLIT``/``OP_MERGE``) and
snapshot manifests record the live cuts, so crash recovery restores the
exact post-change topology at every WAL prefix.

I/O accounting
--------------
Every shard machine and every level component charges a *private*
:class:`~repro.em.counters.IOStats` ledger, and the service-wide total is
an :class:`~repro.em.counters.IOStatsGroup` summing them (plus a
retired-ledger accumulator that keeps totals monotone across rebuilds and
merges, the *maintenance ledgers* -- one service-level plus one per
tower, aggregated by :attr:`SkylineService.maintenance` -- that
incremental merge work is charged to, and the durability store's ledger
when durability is on; components shared between sibling towers are
summed exactly once).  Each shard's worklist runs on exactly one
thread -- the caller's, or its dedicated worker when the serving tier's
:class:`~repro.serve.workers.ShardWorkerPool` is installed -- so the
pool charges bit-identical totals to the inline executor.  When a
tombstone forces a shard or level to recompute its local skyline from
resident points, that scan is charged as ``ceil(resident / B)`` block
reads on the component's ledger -- the fallback is never free, so
comparisons stay honest under deletes.
Incremental merge work is escrowed: a merge's output is staged on a
private ledger and its exact cost is mirrored onto the maintenance ledger
in bounded steps, so ``attributed + maintenance == total - build`` holds
on every path (asserted by the engine tests and benches).

Durability
----------
With ``ServiceConfig(durability=True)`` the service runs on a
:class:`~repro.service.durability.DurableStore`: every acknowledged
insert/delete is appended to a group-committed write-ahead log, memtable
seals and drains are logged as level-aware records (``flush`` /
``drain``), compactions and drains log checkpoint records and (every
``snapshot_every_compactions``-th checkpoint) serialise the state as
block-level snapshots -- per-level manifests included, so recovery
restores the exact level layout -- and :meth:`SkylineService.open`
rebuilds the exact durable state after a crash by loading the newest
surviving snapshot and replaying the WAL suffix, all charged to the
store's block-transfer ledger.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.columns import filter_rect
from repro.core.point import Point, resolve_victim_index
from repro.core.queries import RangeQuery
from repro.core.skyline import range_skyline
from repro.em.counters import IOMeter, IOSnapshot, IOStats, IOStatsGroup
from repro.service.batch import BatchExecutor, build_worklists, execute_worklists
from repro.service.cache import ResultCache, make_key
from repro.service.config import ServiceConfig
from repro.service.delta import DeltaBuffer, point_key
from repro.service.durability import (
    OP_COMPACT,
    OP_DELETE,
    OP_DRAIN,
    OP_FLUSH,
    OP_FOLD,
    OP_INSERT,
    OP_MERGE,
    OP_SPLIT,
    DurableStore,
    SnapshotManifest,
    SnapshotState,
    TombstoneRecord,
    WriteAheadLog,
    load_snapshot_state,
    write_record_blocks,
    write_snapshot_blocks,
)
from repro.service.lsm import Component, LevelManager
from repro.service.lsm.levels import clip_query
from repro.service.merge import (
    merge_component_skylines,
    merge_shard_skylines,
)
from repro.service.router import (
    ShardRouter,
    size_balanced_cuts,
    size_balanced_midpoint,
)
from repro.service.shard import Shard
from repro.service.topology import TopologyManager


@dataclasses.dataclass(frozen=True)
class QueryExecutionTrace:
    """How one query of a batch was served
    (:meth:`SkylineService.query_many_traced`).

    ``shard_ids`` are the shards the router selected (the rest were
    pruned); ``cache_hit`` means the result came straight from the result
    cache; ``tombstone_fallback`` says at least one selected
    shard or level component rescanned its resident points because a
    tombstone invalidated its static answer.  Consumers such as
    :class:`repro.engine.ShardedServiceBackend` read these instead of
    re-deriving routing and tombstone facts from service internals.
    """

    shard_ids: Tuple[int, ...]
    cache_hit: bool = False
    tombstone_fallback: bool = False


class SkylineService:
    """A sharded, batched, updatable, optionally durable skyline service.

    Parameters
    ----------
    points:
        The initial point set.
    config:
        Service tunables; defaults to :class:`ServiceConfig()`.
    store:
        An existing :class:`~repro.service.durability.DurableStore` to run
        on (implies ``durability=True``); by default a durable service
        creates a fresh store.  :meth:`open` is the recovery entry point
        that rebuilds a service *from* a store.
    overrides:
        Convenience keyword overrides applied on top of ``config``
        (``SkylineService(points, shard_count=8)``).
    """

    def __init__(
        self,
        points: Iterable[Point],
        config: Optional[ServiceConfig] = None,
        store: Optional[DurableStore] = None,
        _recovering: bool = False,
        _initial_cuts: Optional[Sequence[float]] = None,
        **overrides: object,
    ) -> None:
        base = config or ServiceConfig()
        self.config = dataclasses.replace(base, **overrides) if overrides else base
        if store is not None and not self.config.durability:
            self.config = dataclasses.replace(self.config, durability=True)
        # Retired ledger: absorbs each dead shard generation's (and merged
        # level component's) counters, so io_total() stays monotone.
        self._retired = IOStats()
        # Service-level maintenance ledger: topology-change escrow charges
        # land here.  Incremental merge work is charged to the *towers'*
        # private maintenance ledgers (one per shard);
        # ``self.maintenance`` aggregates them all and absorbs a disposed
        # tower's ledger here, keeping the maintenance total monotone.
        self._maintenance = IOStats()
        self.maintenance = IOStatsGroup([self._maintenance])
        self.stats = IOStatsGroup([self._retired, self._maintenance])
        self.delta = DeltaBuffer()
        self.cache = ResultCache(self.config.cache_capacity)
        self.compactions = 0
        self.drains = 0
        # Auto-reclaim cadence (reclaim_every_topology_ops): topology
        # operations since the last store reclaim, and reclaims triggered.
        self._topology_ops_since_reclaim = 0
        self.auto_reclaims = 0
        # Build generation: seeds every shard's epoch so cache keys can
        # never collide across compactions.
        self._generation = 0
        # True while `open` replays the WAL suffix: replayed operations are
        # applied but never re-logged, re-snapshotted, auto-compacted or
        # auto-sealed (seals replay from their explicit WAL records).
        self._replaying = False
        # Set by `open` with the block-transfer cost of the last recovery.
        self.recovery: Optional[Dict[str, int]] = None
        # Pluggable batch executor with the execute_worklists signature
        # ``(worklists, shard_query) -> {(position, sid): answer}``.
        # None = execute_worklists, inline on the calling thread.  The
        # serving tier installs its persistent uid-keyed worker pool here.
        self.batch_executor: Optional[BatchExecutor] = None
        self.router: ShardRouter
        self.shards: List[Shard] = []
        # Monotone shard-uid allocator: every shard instance (built at
        # construction, compaction, split or merge) gets a fresh uid, the
        # stable identity cache keys and tombstone buckets hang off.
        self._next_uid = 0
        self.store: Optional[DurableStore] = None
        self.wal: Optional[WriteAheadLog] = None
        # Global component-id allocator: component ids key tombstone owner
        # buckets in the shared delta buffer, so they must stay unique
        # across every shard's tower.
        self._comp_ids = 0
        # Lifetime merge counters of disposed towers, so merges_completed
        # stays monotone across compactions and topology changes.
        self._merges_retired = 0
        self._records_merged_retired = 0
        self._build_shards(list(points), cuts=_initial_cuts)
        self.topology = TopologyManager(self)
        if self.config.durability:
            durable_store = store if store is not None else DurableStore(
                self.config.shard_em_config()
            )
            virgin = (
                durable_store.latest_manifest() is None
                and durable_store.wal_durable == 0
            )
            if not virgin and not _recovering:
                # A used store holds some service's durable state; silently
                # running fresh points on top would make recovery resurrect
                # the old state and lose these points entirely.  Reject
                # before touching the store, so its recorded config and
                # ledgers stay exactly as the owning service left them.
                raise ValueError(
                    "store already holds a service's durable state; recover "
                    "it with SkylineService.open(store), or start on a "
                    "fresh DurableStore"
                )
            self.store = durable_store
            self.store.service_config = self.config
            self.wal = WriteAheadLog(self.store, self.config.wal_group_commit)
            self._refresh_members()
            if virgin:
                # Baseline snapshot at service birth: recovery always has a
                # snapshot to stand on, so a crash before the first
                # compaction replays only the WAL suffix past LSN 0.
                self._write_snapshot(folded_lsn=0, installed_lsn=0)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        store: DurableStore,
        config: Optional[ServiceConfig] = None,
        **overrides: object,
    ) -> "SkylineService":
        """Rebuild the service a crash (or clean shutdown) left on ``store``.

        Loads the newest surviving snapshot (``O(n/B)`` block reads) --
        including its level layout, memtable and tombstone table when the
        snapshot was anchored at a drain checkpoint -- replays the durable
        WAL suffix past its ``folded_lsn`` (``O(w/B)`` reads for ``w``
        unfolded records), and returns a service whose ``live_points()``
        and query answers equal the pre-crash durable state.  The
        block-transfer cost is recorded in :attr:`recovery` (and surfaced
        by :meth:`describe`), split into the terms the snapshot cadence
        trades against each other: ``snapshot_load_io`` (store reads for
        the point blocks), ``replay_io`` (store reads for the WAL suffix)
        and ``rebuild_io`` (shard- and level-machine transfers rebuilding
        the indexes, including rebuilds replayed compaction records
        trigger), with ``recovery_io`` their sum.
        """
        base = config or store.service_config or ServiceConfig()
        cfg = dataclasses.replace(base, **overrides) if overrides else base
        if not cfg.durability:
            cfg = dataclasses.replace(cfg, durability=True)
        start = store.stats.snapshot()
        manifest = store.latest_manifest()
        if manifest is None:  # virgin store: nothing to load or replay
            state = SnapshotState()
            folded = 0
        else:
            state = load_snapshot_state(store, manifest)
            folded = manifest.folded_lsn
        loaded = store.stats.snapshot()
        recorded_config = store.service_config
        try:
            service = cls(
                state.base_points,
                cfg,
                store=store,
                _recovering=True,
                # Topology-aware recovery: the manifest's recorded cuts are
                # authoritative, so a crash after any number of online
                # splits/merges restores the exact post-change topology
                # (re-cutting by size would silently undo them).
                _initial_cuts=None if manifest is None else manifest.cuts,
            )
            service._restore_snapshot_state(state)
            # Measure replay from after the constructor: on a virgin store
            # the constructor writes the baseline snapshot, which is birth
            # cost, not replay.
            constructed = store.stats.snapshot()
            replayed = 0
            service._replaying = True
            try:
                for record in store.read_wal_suffix(folded):
                    replayed += 1
                    if record.op == OP_INSERT:
                        service.insert(record.point())
                    elif record.op == OP_DELETE:
                        service.delete(record.point())
                    elif record.op == OP_COMPACT:
                        service.compact()
                    elif record.op == OP_SPLIT:
                        assert record.x is not None and record.ident is not None
                        service.split_shard(record.ident, record.x)
                    elif record.op == OP_MERGE:
                        assert record.ident is not None
                        service.merge_shards(record.ident)
                    elif record.op == OP_FOLD:
                        assert record.ident is not None
                        service.fold_shard(record.ident)
                    elif record.op == OP_FLUSH:
                        service._seal_memtable(record.ident)
                    elif record.op == OP_DRAIN:
                        service.drain(record.ident)
                    else:  # pragma: no cover - corrupt record
                        raise ValueError(f"unknown WAL op {record.op!r}")
            finally:
                service._replaying = False
        except Exception:
            # A failed open must not poison the store: the constructor
            # records the opening config on it, and a later open without
            # an explicit config falls back to that record.
            store.service_config = recorded_config
            raise
        snapshot_load = loaded - start
        replay_io = store.stats.snapshot() - constructed
        # Every shard-side transfer so far happened inside this open():
        # the initial rebuild from the snapshot points plus any full
        # rebuilds replayed compaction records triggered.
        rebuild_io = service.query_io_total()
        snapshot_points = (
            len(state.base_points)
            + sum(len(points) for _, points in state.levels)
            + len(state.memtable)
        )
        service.recovery = {
            "snapshot_points": snapshot_points,
            "snapshot_levels": len(state.levels),
            "snapshot_generation": 0 if manifest is None else manifest.generation,
            "folded_lsn": folded,
            "snapshot_load_reads": snapshot_load.reads,
            "snapshot_load_io": snapshot_load.total,
            "replayed_records": replayed,
            "replay_reads": replay_io.reads,
            "replay_writes": replay_io.writes,
            "replay_io": replay_io.total,
            "rebuild_io": rebuild_io,
            "recovery_io": snapshot_load.total + replay_io.total + rebuild_io,
        }
        return service

    def _restore_snapshot_state(self, state: SnapshotState) -> None:
        """Rebuild the per-shard tower layouts a level-aware snapshot
        recorded.

        Private levels are re-installed in their owning shard's tower
        keyed by the manifest's ``(sid, level)`` entries.  A shard's
        inherited components are collapsed into *one* indexed overlay
        component (the manifest stores each shard's inherited union
        clipped to its range, dead points included): the inheritance
        *sharing* structure is an in-memory refcount optimisation, so
        recovery materialising it per shard is answer-identical, and the
        overlay build cost stays on the component's ledger where it is
        reported as ``rebuild_io``.
        """
        if (
            not state.levels
            and not state.overlays
            and not state.memtable
            and not state.tombstones
        ):
            return
        comp_owner: Dict[Tuple[int, int], Tuple[str, int]] = {}
        for (sid, level), points in state.levels:
            tower = self.shards[sid].tower
            assert tower is not None
            comp = Component(
                self._next_comp_id(),
                points,
                em_config=self.config.shard_em_config(),
                epsilon=self.config.epsilon,
            )
            tower.install_level(level, comp)
            comp_owner[(sid, level)] = comp.owner
            for p in points:
                self._live_xs.add(p.x)
                self._live_ys.add(p.y)
        for sid, points in state.overlays:
            tower = self.shards[sid].tower
            assert tower is not None
            comp = Component(
                self._next_comp_id(),
                points,
                em_config=self.config.shard_em_config(),
                epsilon=self.config.epsilon,
            )
            tower.adopt_inherited(comp)
            comp_owner[(sid, -1)] = comp.owner
            for p in points:
                self._live_xs.add(p.x)
                self._live_ys.add(p.y)
        for p in state.memtable:
            self.delta.inserts[point_key(p)] = p
            self._live_xs.add(p.x)
            self._live_ys.add(p.y)
        for record in state.tombstones:
            victim = record.point()
            if record.level is None:
                owner: Tuple[str, int] = self.shards[
                    self.router.route_point(victim.x)
                ].owner
            else:
                assert record.sid is not None
                owner = comp_owner[(record.sid, record.level)]
            self.delta.add_tombstone(victim, owner)
            self._live_xs.discard(victim.x)
            self._live_ys.discard(victim.y)

    # ------------------------------------------------------------------
    # Construction / compaction
    # ------------------------------------------------------------------
    def towers(self) -> List[LevelManager]:
        """The live shards' towers, in shard order."""
        return [
            shard.tower for shard in self.shards if shard.tower is not None
        ]

    def _next_comp_id(self) -> int:
        """Allocate a service-unique component id (tombstone owner keys
        ``("c", comp_id)`` live in the shared delta buffer, so ids must
        never collide across towers)."""
        self._comp_ids += 1
        return self._comp_ids

    def _refresh_members(self) -> None:
        """Recompute the aggregate's member ledgers: the accumulator and
        maintenance ledgers, every shard machine, every tower's
        maintenance/retired pair and visible components (shared inherited
        components deduplicated by identity, so they are summed exactly
        once), and the durability store."""
        members = [self._retired, self._maintenance]
        maint_members = [self._maintenance]
        seen: set = set()
        for shard in self.shards:
            members.append(shard.stats)
            tower = shard.tower
            if tower is None:
                continue
            members.append(tower.maintenance)
            maint_members.append(tower.maintenance)
            members.append(tower.retired)
            for stats in tower.stats_members():
                if id(stats) not in seen:
                    seen.add(id(stats))
                    members.append(stats)
        if self.store is not None:
            members.append(self.store.stats)
        self.stats.set_members(members)
        self.maintenance.set_members(maint_members)

    def _build_shards(
        self, points: List[Point], cuts: Optional[Sequence[float]] = None
    ) -> None:
        """(Re)partition ``points`` into x-range shards.

        Without ``cuts`` the partition is re-cut size-balanced over
        ``ServiceConfig.shard_count`` (construction, major compaction);
        with explicit ``cuts`` the given topology is restored exactly --
        the recovery path, which must reproduce the post-split/merge
        layout a snapshot manifest recorded, not re-derive one.
        """
        self._live_xs = {p.x for p in points}
        self._live_ys = {p.y for p in points}
        if len(self._live_xs) < len(points) or len(self._live_ys) < len(points):
            raise ValueError(
                "points must be in general position (distinct x and distinct y); "
                "pre-process with repro.core.point.ensure_general_position"
            )
        # Retire the outgoing generation's ledgers (towers first: a full
        # rebuild folds every component into the base) before the new
        # shards start charging, so the aggregate never loses what was
        # paid.
        for shard in self.shards:
            self._dispose_tower(shard)
            self._retired.absorb(shard.stats)
        if cuts is None:
            cuts = size_balanced_cuts(points, self.config.shard_count)
        # Topology versions stay monotone across full rebuilds too.
        version = self.router.version + 1 if self.shards else 0
        self.router = ShardRouter(cuts)
        self.router.version = version
        buckets: List[List[Point]] = [[] for _ in range(self.router.shard_count)]
        for point in points:
            buckets[self.router.route_point(point.x)].append(point)
        self._generation += 1
        self.shards = []
        for sid, bucket in enumerate(buckets):
            x_lo, x_hi = self.router.shard_range(sid)
            self.shards.append(self._new_shard(sid, x_lo, x_hi, bucket))
        self._refresh_members()

    def _new_shard(
        self,
        sid: int,
        x_lo: float,
        x_hi: float,
        points: Sequence[Point],
        charge_maintenance: bool = False,
    ) -> Shard:
        """Build one shard with a fresh uid.

        With ``charge_maintenance`` the build cost is mirrored onto the
        maintenance ledger and the shard's private ledger reset before it
        joins the aggregate -- the topology-change escrow, matching how
        the level scheduler charges staged merge outputs.  Without it the
        build stays on the shard's own ledger (construction/compaction
        generations, the logarithmic-method accounting).

        The shard also gets its private level tower, scoped to its
        x-range, with its own maintenance/retired ledger pair (so one
        shard's maintenance is an independently payable unit).
        """
        self._next_uid += 1
        shard = Shard(
            sid,
            x_lo,
            x_hi,
            points,
            self.config.shard_em_config(),
            epsilon=self.config.epsilon,
            epoch=self._generation,
            uid=self._next_uid,
        )
        if charge_maintenance:
            self._maintenance.record_read(shard.stats.reads)
            self._maintenance.record_write(shard.stats.writes)
            shard.stats.reset()
        shard.tower = LevelManager(
            em_config=self.config.shard_em_config(),
            epsilon=self.config.epsilon,
            block_size=self.config.block_size,
            memtable_capacity=self.config.delta_threshold,
            level_growth=self.config.level_growth,
            merge_step_blocks=self.config.merge_step_blocks,
            delta=self.delta,
            maintenance=IOStats(),
            retired=IOStats(),
            on_layout_change=self._refresh_members,
            next_comp_id=self._next_comp_id,
            x_lo=x_lo,
            x_hi=x_hi,
        )
        return shard

    def _dispose_tower(self, shard: Shard) -> None:
        """Fully retire a shard's tower: every private component and the
        last references to its inherited ones are folded into the
        retired accumulator, its maintenance ledger into the service
        maintenance ledger, and its lifetime merge counters into the
        service accumulators -- so every aggregate stays monotone."""
        tower = shard.tower
        if tower is None:
            return
        self._merges_retired += tower.scheduler.merges_completed
        self._records_merged_retired += tower.scheduler.records_merged
        tower.reset()
        self._maintenance.absorb(tower.maintenance)
        self._retired.absorb(tower.retired)
        shard.tower = None

    def _release_tower_components(
        self, shard: Shard
    ) -> List[Tuple[Component, float, float]]:
        """Hand a retiring shard's tower components over for a topology
        change as ``(component, x_lo, x_hi)`` hand-over entries: private
        components (answering for the whole shard range) and inherited
        references (answering for their adoption intervals -- **not**
        re-widened to the shard range, which could cover points a fold
        already moved into a base) are released *without* being read or
        retired (the caller re-adopts them into the child towers), the
        scheduler's queue and staged output are discarded (debt already
        mirrored stays counted; the staged ledger never joined the
        aggregate), and the tower's ledgers and counters are folded into
        the service accumulators."""
        tower = shard.tower
        if tower is None:
            return []
        self._merges_retired += tower.scheduler.merges_completed
        self._records_merged_retired += tower.scheduler.records_merged
        tower.scheduler.clear()
        entries = [
            (comp, tower.x_lo, tower.x_hi)
            for comp in tower.private_components()
        ]
        for ref in list(tower.inherited):
            tower.inherited.remove(ref)
            ref.comp.refs -= 1
            entries.append((ref.comp, ref.x_lo, ref.x_hi))
        tower.frozen = []
        tower.levels = {}
        self._maintenance.absorb(tower.maintenance)
        self._retired.absorb(tower.retired)
        shard.tower = None
        return entries

    def _adopt_base_component(self, shard: Shard) -> Optional[Component]:
        """Wrap a retiring shard's base index as a zero-I/O component.

        The shard's ledger object moves into the component (nothing is
        copied, nothing is double counted) and the shard's tombstone
        bucket is re-owned to the component -- the victims stay resident
        in the adopted points.  Returns ``None`` (retiring the ledger)
        for an empty base.
        """
        if not shard.points:
            self._retired.absorb(shard.stats)
            return None
        comp = Component.adopt(
            self._next_comp_id(),
            shard.points,
            shard.stats,
            shard.storage,
            shard.index,
        )
        for key, victim in self.delta.owned_tombstones(shard.owner).items():
            if key in self.delta.tombstones:
                self.delta.add_tombstone(victim, comp.owner)
        return comp

    def _bump_region(self, x: float) -> None:
        """Invalidate cached answers overlapping the shard region of ``x``."""
        self.shards[self.router.route_point(x)].write_version += 1

    def compact(self) -> None:
        """Major compaction: fold *everything* -- memtable, frozen
        memtables, every level, minus tombstones -- into rebuilt,
        size-rebalanced base shards.

        This is the explicit operator-driven fold, and the one place
        tombstones against base-resident points are reclaimed; the
        incremental scheduler handles routine maintenance, so the only
        update that triggers this ``O(n/B)`` rebuild is the one tripping
        the tombstone-reclaim valve (:meth:`_maybe_reclaim_tombstones`).
        Rebuild I/Os are charged to the new generation's ledgers -- the
        amortised cost the logarithmic method pays for keeping queries on
        static-structure speeds.

        On a durable service the compaction first logs a checkpoint record
        (forcing the whole WAL tail durable) and, every
        ``snapshot_every_compactions``-th checkpoint, serialises the
        rebuilt shards as a block-level snapshot.
        """
        checkpoint = None
        if self.wal is not None and not self._replaying:
            checkpoint = self.wal.log_compact()
        # _build_shards disposes every old shard's tower (retiring its
        # components and ledgers) before the rebuilt generation charges.
        self._build_shards(self.live_points())
        self.delta.clear()
        self.cache.invalidate_all()
        self.compactions += 1
        if (
            checkpoint is not None
            and self._checkpoints % self.config.snapshot_every_compactions == 0
        ):
            self._write_snapshot(
                folded_lsn=checkpoint.lsn, installed_lsn=checkpoint.lsn
            )

    def drain(self, sid: Optional[int] = None) -> Dict[str, int]:
        """Pay every outstanding transfer of incremental merge debt now.

        The explicit full-drain entry point: completes every tower's
        active merge and every queued one (flushing nothing new -- the
        memtable keeps absorbing writes),
        charging the remaining debt to the towers' maintenance ledgers in
        one call.  With ``sid`` only that shard's private tower is
        drained -- its neighbours' debt is untouched, the per-shard
        maintenance the refactor buys.  A full drain is a durability
        checkpoint: it logs a ``drain`` WAL record and, on the snapshot
        cadence, serialises a *level-aware* snapshot (per-shard level
        blocks plus overlays, memtable and tombstone table) the next
        :meth:`open` restores exactly; a per-shard drain is WAL-logged
        too (replay must reproduce the exact tower states) but is not a
        snapshot anchor.
        """
        if sid is not None and not 0 <= sid < len(self.shards):
            raise ValueError(f"no shard {sid}: {len(self.shards)} shards")
        checkpoint = None
        if self.wal is not None and not self._replaying:
            checkpoint = self.wal.log_drain(sid)
        if sid is None:
            charged = sum(tower.drain() for tower in self.towers())
            self.drains += 1
            if (
                checkpoint is not None
                and self._checkpoints % self.config.snapshot_every_compactions
                == 0
            ):
                self._write_snapshot(
                    folded_lsn=checkpoint.lsn, installed_lsn=checkpoint.lsn
                )
        else:
            tower = self.shards[sid].tower
            charged = 0 if tower is None else tower.drain()
        return {
            "merge_io": charged,
            "merges_completed": self.merges_completed,
        }

    # ------------------------------------------------------------------
    # Online topology changes
    # ------------------------------------------------------------------
    def _split_cut(self, sid: int) -> Optional[float]:
        """The size-balanced midpoint of shard ``sid``'s range's live
        records (base residents, memtable, the shard's own tower);
        ``None`` when fewer than two records live there."""
        x_lo, x_hi = self.router.shard_range(sid)
        shard = self.shards[sid]
        candidates = [
            p for p in shard.points if not self.delta.is_deleted(p)
        ]
        candidates += [
            p for p in self.delta.inserts.values() if x_lo <= p.x < x_hi
        ]
        if shard.tower is not None:
            for comp in shard.tower.private_components():
                candidates += [
                    p for p in comp.points if not self.delta.is_deleted(p)
                ]
            for ref in shard.tower.inherited:
                candidates += [
                    p for p in ref.points() if not self.delta.is_deleted(p)
                ]
        return size_balanced_midpoint(candidates)

    def _assign_components(
        self,
        entries: List[Tuple[Component, float, float]],
        children: List[Shard],
    ) -> None:
        """Hand released ``(component, x_lo, x_hi)`` entries to the child
        towers: each child whose x-range holds at least one point of an
        entry's interval adopts the component *for that intersection* (a
        refcount bump; readers see only the interval).  Pure metadata --
        no block is read.  A component both merge parents referenced
        arrives as two entries with disjoint intervals and the child
        adopts both: the intervals, not the child's range, decide what
        is readable, so a region some earlier fold moved into a base can
        never be resurrected.  Every entry finds at least one home: its
        interval is non-empty and the children's ranges cover the
        released towers' ranges."""
        for comp, x_lo, x_hi in entries:
            adopted = False
            for child in children:
                tower = child.tower
                assert tower is not None
                if tower.adopt_inherited(comp, x_lo, x_hi) is not None:
                    adopted = True
            assert adopted, f"component {comp!r} lost in topology change"

    def split_shard(
        self, sid: int, cut: Optional[float] = None
    ) -> Optional[float]:
        """Split the hot shard ``sid`` in two at ``cut`` -- an O(1)
        *metadata move*, never a rebuild.

        The default cut is the size-balanced midpoint of every live
        record in the shard's x-range.  The retiring shard's base index
        is adopted as a zero-I/O component (its ledger object moves with
        it), its tower's components are handed to the two children
        *whole* -- refcounted, clipped to each child's range by every
        reader -- and the shared memtable needs no cut at all: its
        range partition moves with the router.  Nothing is read or
        rewritten; the only charges are the children's empty base builds,
        escrowed on the maintenance ledger.  Any staged (unpaid) merge
        output of the retiring tower is discarded -- its inputs stay
        visible, so correctness is untouched and already-mirrored debt
        stays counted.  On a durable service an ``OP_SPLIT`` record pins
        the cut so replay reproduces the post-split topology
        bit-for-bit.

        Returns the cut, or ``None`` when no valid cut exists (fewer
        than two live records in the range).  Shards to the right shift
        one position; their uids -- and therefore their cached answers
        and tombstone buckets -- are untouched.
        """
        if not 0 <= sid < len(self.shards):
            raise ValueError(f"no shard {sid}: {len(self.shards)} shards")
        shard = self.shards[sid]
        x_lo, x_hi = self.router.shard_range(sid)
        if cut is None:
            cut = self._split_cut(sid)
            if cut is None:
                return None
        if not x_lo < cut < x_hi:
            raise ValueError(
                f"cut {cut} outside shard {sid}'s range [{x_lo}, {x_hi})"
            )
        if self.wal is not None and not self._replaying:
            self.wal.log_split(sid, cut)
        charged_before = self.maintenance.total
        tower = shard.tower
        assert tower is not None
        # Records whose *ownership* moves (for reporting); no block of any
        # of them is transferred.
        touched = len(shard.points) + tower.resident()
        entries: List[Tuple[Component, float, float]] = []
        base = self._adopt_base_component(shard)
        if base is not None:
            entries.append((base, x_lo, x_hi))
        entries.extend(self._release_tower_components(shard))
        self.router.split_cut(sid, cut)
        children = [
            self._new_shard(sid, x_lo, cut, [], charge_maintenance=True),
            self._new_shard(sid + 1, cut, x_hi, [], charge_maintenance=True),
        ]
        self.shards[sid : sid + 1] = children
        self._assign_components(entries, children)
        for position in range(sid + 2, len(self.shards)):
            self.shards[position].sid = position
        self._refresh_members()
        self.topology.record(
            "split", sid, cut, touched, self.maintenance.total - charged_before
        )
        self._maybe_auto_reclaim()
        return cut

    def merge_shards(self, sid: int) -> float:
        """Merge the adjacent cold shards ``sid`` and ``sid + 1`` into one.

        The same O(1) metadata move as a split, run in reverse: both
        retiring bases are adopted as zero-I/O components, both towers'
        component sets are handed to the single child (a component both
        parents shared -- both halves of an earlier split -- is handed
        over once), and the memtable needs no work.  On a durable service
        an ``OP_MERGE`` record replays the change at the same boundary.
        Returns the removed cut.  Shards to the right shift one position
        left with uids untouched.
        """
        if not 0 <= sid < len(self.shards) - 1:
            raise ValueError(
                f"no adjacent pair at {sid}: {len(self.shards)} shards"
            )
        if self.wal is not None and not self._replaying:
            self.wal.log_merge(sid)
        charged_before = self.maintenance.total
        pair = self.shards[sid : sid + 2]
        x_lo, _ = self.router.shard_range(sid)
        _, x_hi = self.router.shard_range(sid + 1)
        touched = sum(
            len(s.points) + (0 if s.tower is None else s.tower.resident())
            for s in pair
        )
        entries: List[Tuple[Component, float, float]] = []
        for shard in pair:
            base = self._adopt_base_component(shard)
            if base is not None:
                entries.append((base, shard.x_lo, shard.x_hi))
            entries.extend(self._release_tower_components(shard))
        cut = self.router.merge_cut(sid)
        children = [
            self._new_shard(sid, x_lo, x_hi, [], charge_maintenance=True)
        ]
        self.shards[sid : sid + 2] = children
        self._assign_components(entries, children)
        for position in range(sid + 1, len(self.shards)):
            self.shards[position].sid = position
        self._refresh_members()
        self.topology.record(
            "merge", sid, cut, touched, self.maintenance.total - charged_before
        )
        self._maybe_auto_reclaim()
        return cut

    def fold_shard(self, sid: int) -> int:
        """Rebuild shard ``sid`` in place from its range's live records --
        no cut moves, no neighbours touched.

        The topology manager's pressure-relief action, and the one
        topology operation that *does* move data: the shard's private
        tower (frozen memtables, levels, its clip of every inherited
        component) and its memtable cut are compacted into a rebuilt
        base, and every tombstone whose victim lies in the range is
        consumed -- masked copies left in surviving shared components
        are unreachable, since no tower clips that range any more.
        Reading the shard's base and the indexed components' clipped
        slices plus building the child is charged to the maintenance
        ledger, bounded by the range's resident and tower mass.  A
        shared component's last reference retires it here.  Logged as an
        ``OP_FOLD`` record on a durable service.  Returns the number of
        records the fold touched.
        """
        if not 0 <= sid < len(self.shards):
            raise ValueError(f"no shard {sid}: {len(self.shards)} shards")
        if self.wal is not None and not self._replaying:
            self.wal.log_fold(sid)
        charged_before = self.maintenance.total
        shard = self.shards[sid]
        x_lo, x_hi = self.router.shard_range(sid)
        touched = len(shard.points)
        handed: List[Point] = []
        tower = shard.tower
        if tower is not None:
            # Pull the tower's live mass (private components whole,
            # inherited ones through their refs' intervals) into the
            # fold, charging the reads a real handover performs.
            slices = [
                (comp, comp.points) for comp in tower.private_components()
            ] + [(ref.comp, ref.points()) for ref in tower.inherited]
            for comp, rows in slices:
                if not rows:
                    continue
                touched += len(rows)
                if comp.index is not None:
                    self._maintenance.record_read(
                        math.ceil(len(rows) / self.config.block_size)
                    )
                handed.extend(
                    p for p in rows if not self.delta.is_deleted(p)
                )
        memtable_slice = self.delta.take_inserts_in_range(x_lo, x_hi)
        handed.extend(memtable_slice)
        touched += len(memtable_slice)
        union = [
            p for p in shard.points if not self.delta.is_deleted(p)
        ]
        union.extend(handed)
        # Consume every tombstone whose victim lies in the folded range,
        # whoever owns it: the new base is built from live points only,
        # and any masked copy left in a surviving shared component is
        # outside every referencing tower's clip.
        for key, victim in list(self.delta.tombstones.items()):
            if x_lo <= victim.x < x_hi:
                self.delta.drop_tombstone(key)
        if shard.points:
            self._maintenance.record_read(
                math.ceil(len(shard.points) / self.config.block_size)
            )
        self._dispose_tower(shard)
        self._retired.absorb(shard.stats)
        self.router.version += 1
        self.shards[sid] = self._new_shard(
            sid, x_lo, x_hi, union, charge_maintenance=True
        )
        self._refresh_members()
        self.topology.record(
            "fold", sid, None, touched, self.maintenance.total - charged_before
        )
        self._maybe_auto_reclaim()
        return touched

    def _maybe_auto_reclaim(self) -> None:
        """Auto-reclaim hook, called after every topology operation.

        With ``reclaim_every_topology_ops=N`` on a durable service, every
        Nth online split/merge/fold triggers :meth:`reclaim`, so the store
        sheds superseded snapshots and folded WAL blocks at the same
        cadence the topology churns them out.  Never fires during WAL
        replay: recovery must see the store exactly as it was persisted.
        """
        every = self.config.reclaim_every_topology_ops
        if every < 1 or self.store is None or self._replaying:
            return
        self._topology_ops_since_reclaim += 1
        if self._topology_ops_since_reclaim >= every:
            self._topology_ops_since_reclaim = 0
            self.auto_reclaims += 1
            self.reclaim()

    def _maybe_rebalance(self) -> None:
        """Adaptive-topology hook, called once per applied update."""
        if self._replaying or not self.config.adaptive_topology:
            return
        self.topology.on_update()

    @property
    def _checkpoints(self) -> int:
        """Checkpoints taken so far (compactions plus drains): the counter
        the snapshot cadence runs on."""
        return self.compactions + self.drains

    def _write_snapshot(self, folded_lsn: int, installed_lsn: int) -> None:
        """Serialise the shards -- and, at a drain checkpoint, every
        shard's tower layout, the memtable and the tombstone table -- and
        chain a manifest.

        Private levels are keyed ``(sid, level)``.  A shard's inherited
        components are serialised as one *overlay* per shard: the union
        of their points clipped to the shard's range, dead points
        included -- exactly what :meth:`_restore_snapshot_state` rebuilds
        as a single overlay component.  Tombstones name their owner as
        ``(sid, level)`` for a private level, ``(sid, -1)`` for the
        overlay of the shard whose range holds the victim, or base
        (re-routed by x at load).
        """
        assert self.store is not None
        blocks, total = write_snapshot_blocks(
            self.store, [shard.points for shard in self.shards]
        )
        level_blocks: Tuple[Tuple[Tuple[int, int], Tuple], ...] = ()
        level_counts: Tuple[Tuple[Tuple[int, int], int], ...] = ()
        overlay_blocks: Tuple[Tuple[int, Tuple], ...] = ()
        overlay_counts: Tuple[Tuple[int, int], ...] = ()
        tombstone_records: List[TombstoneRecord] = []
        # Owner key of a private level component -> its (sid, level).
        owner_slot: Dict[object, Tuple[int, int]] = {}
        for shard in self.shards:
            tower = shard.tower
            assert tower is not None
            # Snapshots are only taken at quiescent checkpoints: no
            # frozen memtable awaits a flush and no merge is in
            # flight in any tower, so each layout is exactly the
            # visible levels plus the inherited overlay.
            assert not tower.frozen and tower.scheduler.active is None
            for j in sorted(tower.levels):
                comp = tower.levels[j]
                level_blocks += (
                    (
                        (shard.sid, j),
                        write_record_blocks(self.store, comp.points),
                    ),
                )
                level_counts += (((shard.sid, j), len(comp.points)),)
                owner_slot[comp.owner] = (shard.sid, j)
            overlay_points: List[Point] = []
            for ref in tower.inherited:
                overlay_points.extend(ref.points())
            overlay_points.sort(key=lambda p: (p.x, p.y))
            if overlay_points:
                overlay_blocks += (
                    (
                        shard.sid,
                        write_record_blocks(self.store, overlay_points),
                    ),
                )
                overlay_counts += ((shard.sid, len(overlay_points)),)
        memtable_points = sorted(
            self.delta.inserts.values(), key=lambda p: (p.x, p.y)
        )
        for key, victim in self.delta.tombstones.items():
            owner = self.delta.tombstone_owner(key)
            if owner in owner_slot:
                slot_sid, slot_level = owner_slot[owner]
                record = TombstoneRecord(
                    victim.x,
                    victim.y,
                    victim.ident,
                    level=slot_level,
                    sid=slot_sid,
                )
            elif isinstance(owner, tuple) and owner[0] == "c":
                # An inherited component owns the victim: it lands in
                # the overlay of the shard whose range holds it.
                record = TombstoneRecord(
                    victim.x,
                    victim.y,
                    victim.ident,
                    level=-1,
                    sid=self.router.route_point(victim.x),
                )
            else:
                record = TombstoneRecord(victim.x, victim.y, victim.ident)
            tombstone_records.append(record)
        memtable_blocks = write_record_blocks(self.store, memtable_points)
        tombstone_blocks = write_record_blocks(self.store, tombstone_records)
        self.store.install_manifest(
            SnapshotManifest(
                generation=self._generation,
                folded_lsn=folded_lsn,
                installed_lsn=installed_lsn,
                cuts=tuple(self.router.cuts),
                shard_blocks=blocks,
                point_count=total,
                level_blocks=level_blocks,
                level_counts=level_counts,
                overlay_blocks=overlay_blocks,
                overlay_counts=overlay_counts,
                memtable_blocks=memtable_blocks,
                memtable_count=len(memtable_points),
                tombstone_blocks=tombstone_blocks,
                tombstone_count=len(tombstone_records),
            )
        )

    def _tick(self, x: float) -> None:
        """Pay one update's bounded merge step on the tower owning ``x``.

        Per-shard towers localise the piggyback: an update pays down the
        merge debt of the shard it landed in, never a neighbour's."""
        shard = self.shards[self.router.route_point(x)]
        assert shard.tower is not None
        shard.tower.tick()

    def _maybe_seal(self) -> None:
        """Seal the memtable when its shared budget fills.

        The threshold is the *total* pending insert count -- the memtable
        is one in-memory budget cut by shard range, not a per-shard one
        -- and a seal freezes every shard's non-empty cut into its own
        tower.  Logged as one all-shards flush record; replay seals the
        same cuts at the same boundary (shard-scoped flush records,
        ``ident=sid``, replay a single shard's cut)."""
        if self._replaying or not self.config.auto_compact:
            return
        if len(self.delta.inserts) >= self.config.delta_threshold:
            if self.wal is not None:
                self.wal.log_flush()
            self._seal_memtable()

    def _maybe_reclaim_tombstones(self) -> None:
        """Safety valve for delete-heavy workloads.

        Merges only consume tombstones owned by the components they
        rewrite, and base-resident tombstones die only at a major
        compaction -- so a pure-delete flood would otherwise grow the
        table without bound and pay the ``ceil(resident/B)`` fallback
        rescan on every overlapping query forever.  Once the tombstones
        alone reach ``delta_threshold * level_growth`` (a deliberately
        higher bar than the memtable seal), an auto-compacting service
        pays one major compaction to reclaim them: amortised over that
        many deletes the cost is the same logarithmic-method budget, and
        the routine insert path still never triggers a rebuild.
        """
        if self._replaying or not self.config.auto_compact:
            return
        if (
            len(self.delta.tombstones)
            >= self.config.delta_threshold * self.config.level_growth
        ):
            self.compact()

    def _seal_memtable(self, sid: Optional[int] = None) -> None:
        """Freeze shard ``sid``'s cut of the pending inserts into an
        immutable frozen component on its tower and schedule the
        incremental flush into level 1.  ``None`` seals every shard's cut
        (full drains, and replay of pre-per-shard WAL flush records that
        carry no shard id)."""
        targets = list(self.shards) if sid is None else [self.shards[sid]]
        for shard in targets:
            tower = shard.tower
            assert tower is not None
            sealed = self.delta.take_inserts_in_range(shard.x_lo, shard.x_hi)
            if sealed:
                tower.seal(sealed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: RangeQuery) -> List[Point]:
        """Maxima of the live points inside ``query``, sorted by x."""
        return self.query_many([query])[0]

    def query_many(
        self, queries: Sequence[RangeQuery], use_cache: bool = True
    ) -> List[List[Point]]:
        """Answer a batch; ``result[i]`` answers ``queries[i]``.

        Cache hits are served immediately; every miss is regrouped into
        per-shard worklists (sorted by variant and x for buffer-pool
        locality), executed by :attr:`batch_executor`, and merged per
        query with the level components and the pending memtable.  A
        rectangle repeated within one batch executes once per occurrence:
        sharing within a batch is
        :meth:`repro.engine.SkylineEngine.query_batch_shared`'s job.
        :meth:`query_many_traced` also returns how each query was served.
        """
        return self.query_many_traced(queries, use_cache)[0]

    def query_many_traced(
        self, queries: Sequence[RangeQuery], use_cache: bool = True
    ) -> Tuple[List[List[Point]], List[QueryExecutionTrace]]:
        """:meth:`query_many`, returning ``(results, traces)``: one
        :class:`QueryExecutionTrace` per query (routing, cache hit,
        tombstone fallback), aligned with the results.
        """
        results: List[Optional[List[Point]]] = [None] * len(queries)
        traces: List[Optional[QueryExecutionTrace]] = [None] * len(queries)
        plan: Dict[int, Tuple[Tuple, List[int]]] = {}
        misses: List[Tuple[int, RangeQuery]] = []
        for position, query in enumerate(queries):
            shard_ids = self.router.shards_for(query)
            key = make_key(
                query,
                [
                    (self.shards[sid].uid, self.shards[sid].write_version)
                    for sid in shard_ids
                ],
            )
            cached = self.cache.get(key) if use_cache else None
            if cached is not None:
                results[position] = cached
                traces[position] = QueryExecutionTrace(
                    shard_ids=tuple(shard_ids), cache_hit=True
                )
                continue
            plan[position] = (key, shard_ids)
            misses.append((position, query))
        if misses:
            worklists = build_worklists(
                misses, {position: plan[position][1] for position, _ in misses}
            )
            executor = self.batch_executor or execute_worklists
            # repro: calls(ShardWorkerPool.__call__)
            # repro: calls(execute_worklists)
            local = executor(worklists, self._shard_query)
            for position, query in misses:
                key, shard_ids = plan[position]
                merged = merge_shard_skylines(
                    [local[(position, sid)][0] for sid in shard_ids]
                )
                fallback = any(local[(position, sid)][1] for sid in shard_ids)
                sources: List[Sequence[Point]] = [merged]
                # The fan covers exactly the visited shards' towers:
                # private components whole, inherited ones through
                # their refs' adoption intervals (disjoint across
                # live refs, so a component shared by two visited
                # towers contributes each point at most once, and a
                # region an earlier fold moved into a base is never
                # re-read from the shared component).
                for sid in shard_ids:
                    shard = self.shards[sid]
                    tower = shard.tower
                    assert tower is not None
                    for comp in tower.private_components():
                        comp_result, comp_fallback = self._component_query(
                            comp, query
                        )
                        sources.append(comp_result)
                        fallback = fallback or comp_fallback
                    for ref in tower.inherited:
                        comp_result, comp_fallback = self._component_query(
                            ref.comp,
                            query,
                            clip_lo=ref.x_lo,
                            clip_hi=ref.x_hi,
                        )
                        sources.append(comp_result)
                        fallback = fallback or comp_fallback
                # Unsorted is fine: merge_component_skylines orders the
                # whole union itself.
                sources.append(self.delta.candidates_in(query))
                merged = merge_component_skylines(sources)
                if use_cache:
                    self.cache.put(key, merged)
                results[position] = merged
                # The fallback flag comes from the executors themselves
                # (each computed it once) -- never re-derived here.
                traces[position] = QueryExecutionTrace(
                    shard_ids=tuple(shard_ids),
                    tombstone_fallback=fallback,
                )
        return results, traces  # type: ignore[return-value]

    def _shard_query(self, sid: int, query: RangeQuery) -> Tuple[List[Point], bool]:
        """One shard's local skyline inside ``query``, tombstone-aware.

        A tombstone inside the rectangle invalidates the shard's static
        answer (the deleted point may have dominated points that must now
        resurface), so the local skyline is recomputed from the shard's
        resident points -- a scan charged as ``ceil(resident / B)`` block
        reads on the shard's own ledger (the fallback is not free, and
        charging the shard keeps the worker pool's totals exact);
        otherwise the static structure answers at full I/O efficiency.  Returns the
        answer plus whether the fallback fired (surfaced in the batch's
        :class:`QueryExecutionTrace`).
        """
        shard = self.shards[sid]
        if self.delta.tombstone_hits(query, shard.x_lo, shard.x_hi, shard.owner):
            scanned = len(shard.points)
            shard.stats.record_read(
                max(1, math.ceil(scanned / self.config.block_size))
            )
            live = [p for p in shard.points if not self.delta.is_deleted(p)]
            return range_skyline(live, query), True
        return shard.query(query), False

    def _component_query(
        self,
        comp: Component,
        query: RangeQuery,
        clip_lo: float = float("-inf"),
        clip_hi: float = float("inf"),
    ) -> Tuple[List[Point], bool]:
        """One component's local skyline inside ``query``, restricted to
        the half-open x-range ``[clip_lo, clip_hi)`` (the visiting
        tower's, when the component is inherited).

        The clip narrows the query's x-window -- ``x_hi`` is inclusive,
        so the open upper bound becomes the previous float -- and every
        downstream step (the prune bisect, the rectangle filter, the
        tombstone check, the fallback rescan) runs against the clipped
        window, so a shared component charges and returns only the
        visiting shard's slice.  Skyline-exactness survives the cut
        because sibling towers' clips are disjoint and
        ``merge_component_skylines`` re-runs dominance over the union.

        Frozen memtables are in memory: the scan is free, like the flat
        delta of old.  Indexed components answer through their static
        structure unless a tombstone they own lies inside the clipped
        rectangle, in which case the local skyline is recomputed from the
        clip's resident live points -- charged as ``ceil(resident / B)``
        block reads on the component's own ledger, the same fallback
        discipline as the base shards.  A component with *no point* in
        the clipped x-window is pruned for free: its points are x-sorted,
        so one bisect of directory metadata decides it, and a point
        outside the window can neither lie in nor dominate anything in
        the answer -- the same argument as router shard pruning.
        """
        clipped = clip_query(query, clip_lo, clip_hi)
        if clipped is None:
            return [], False
        query = clipped
        lo = comp.columns.bisect_x_left(query.x_lo)
        if lo >= len(comp.points) or comp.points[lo].x > query.x_hi:
            return [], False
        if comp.index is None:
            # Frozen memtable: the vectorized in-rectangle filter over the
            # component's columns (bisected x-window + y mask) replaces
            # the per-object contains() scan; pending tombstones are
            # checked only when any exist.
            candidates = filter_rect(
                comp.columns, query.x_lo, query.x_hi, query.y_lo, query.y_hi
            )
            if self.delta.tombstones:
                candidates = [
                    p for p in candidates if not self.delta.is_deleted(p)
                ]
            return candidates, False
        if self.delta.tombstone_hits(query, clip_lo, clip_hi, comp.owner):
            c_lo = (
                0
                if clip_lo == float("-inf")
                else comp.columns.bisect_x_left(clip_lo)
            )
            c_hi = (
                len(comp.points)
                if clip_hi == float("inf")
                else comp.columns.bisect_x_left(clip_hi)
            )
            assert comp.stats is not None
            comp.stats.record_read(
                max(1, math.ceil((c_hi - c_lo) / self.config.block_size))
            )
            live = [
                p
                for p in comp.points[c_lo:c_hi]
                if not self.delta.is_deleted(p)
            ]
            return range_skyline(live, query), True
        return comp.index.query(query), False

    def skyline(self) -> List[Point]:
        """The skyline of the whole live point set."""
        return self.query(RangeQuery())

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Buffer an insert in the memtable (visible to queries
        immediately).

        The general-position assumption every structure of the paper makes
        is enforced here, at the write boundary: a non-finite coordinate,
        or one colliding with a live point, raises immediately instead of
        corrupting a later merge or rebuild.  On a durable service the
        accepted insert is appended to the WAL before it is applied.  The
        insert also pays at most ``merge_step_blocks`` transfers of
        piggybacked merge debt and, when the memtable fills, seals it --
        bounded work, never an ``O(n/B)`` rebuild.
        """
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            raise ValueError(f"insert coordinates must be finite, got {point}")
        if point.x in self._live_xs or point.y in self._live_ys:
            raise ValueError(
                f"coordinate collision with a live point: {point}; the service "
                "requires general position (distinct x and distinct y)"
            )
        if self.wal is not None and not self._replaying:
            self.wal.log_insert(point)
        self._live_xs.add(point.x)
        self._live_ys.add(point.y)
        self.delta.insert(point)
        self._bump_region(point.x)
        self._tick(point.x)
        self._maybe_seal()
        self._maybe_rebalance()

    def delete(self, point: Point) -> bool:
        """Delete one live point matching ``point``; returns success.

        Among coordinate twins, a point with the same ``ident`` is
        preferred.  A pending memtable insert is simply dropped; a point
        resident in a frozen memtable, a level component or a base shard
        gets a tombstone bucketed under its owning component, masking
        exactly that component until a merge or compaction reclaims it.
        On a durable service the *exact* victim -- coordinates plus
        ``ident`` -- is logged, so replay removes precisely the point the
        live service removed.
        """
        removed = self.delta.remove_insert(point)
        if removed is not None:
            if self.wal is not None and not self._replaying:
                self.wal.log_delete(removed)
            self._live_xs.discard(removed.x)
            self._live_ys.discard(removed.y)
            self._bump_region(removed.x)
            self._tick(removed.x)
            self._maybe_rebalance()
            return True
        victim = None
        owner: object = None
        # Only the tower owning the coordinate can hold the victim:
        # private components are range-scoped by construction and an
        # inherited component's points outside the ref's interval
        # belong to some sibling's ref -- or to no ref at all (a
        # fold already moved them into a base), in which case the
        # masked copy must never be chosen as a victim.
        tower = self.shards[self.router.route_point(point.x)].tower
        assert tower is not None
        windows = [
            (comp, 0, len(comp.points))
            for comp in tower.private_components()
        ] + [(ref.comp, ref.lo, ref.hi) for ref in tower.inherited]
        for comp, w_lo, w_hi in windows:
            # comp.points is x-sorted: bisect to the coordinate-match
            # run instead of scanning the whole component per delete.
            lo = bisect.bisect_left(comp.points, point.x, key=lambda p: p.x)
            hi = bisect.bisect_right(comp.points, point.x, key=lambda p: p.x)
            lo, hi = max(lo, w_lo), min(hi, w_hi)
            candidates = [
                p
                for p in comp.points[lo:hi]
                if p.y == point.y and not self.delta.is_deleted(p)
            ]
            victim_index = resolve_victim_index(candidates, point)
            if victim_index is not None:
                victim = candidates[victim_index]
                owner = comp.owner
                break
        if victim is None:
            sid = self.router.route_point(point.x)
            shard = self.shards[sid]
            candidates = [
                p
                for p in shard.points
                if p.x == point.x
                and p.y == point.y
                and not self.delta.is_deleted(p)
            ]
            victim_index = resolve_victim_index(candidates, point)
            if victim_index is None:
                return False
            victim = candidates[victim_index]
            owner = shard.owner
        if self.wal is not None and not self._replaying:
            self.wal.log_delete(victim)
        self.delta.add_tombstone(victim, owner)
        self._live_xs.discard(victim.x)
        self._live_ys.discard(victim.y)
        self._bump_region(victim.x)
        self._tick(victim.x)
        self._maybe_reclaim_tombstones()
        self._maybe_rebalance()
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_points(self) -> List[Point]:
        """The current point set: base and level residents minus
        tombstones, plus the pending memtable."""
        live = [
            p
            for shard in self.shards
            for p in shard.points
            if not self.delta.is_deleted(p)
        ]
        for tower in self.towers():
            live.extend(tower.live_points())
        live.extend(self.delta.inserts.values())
        return live

    def __len__(self) -> int:
        # Each tower counts inherited components through its refs'
        # adoption intervals; live intervals are pairwise disjoint and
        # cover exactly the still-reachable slice of each shared
        # component (a folded region's points were re-homed into a base
        # and its ref dropped), so summing towers counts every reachable
        # physical record exactly once.
        resident = sum(len(shard) for shard in self.shards)
        resident += sum(tower.resident() for tower in self.towers())
        return resident + len(self.delta.inserts) - len(self.delta.tombstones)

    def io_total(self) -> int:
        """Block transfers charged across every shard and level machine so
        far (plus the durability store, when durability is on)."""
        return self.stats.total

    def maintenance_io(self) -> int:
        """Transfers charged to maintenance: incremental merge work paid
        in bounded steps alongside updates and drains, summed over the
        service accumulator and every live tower's escrow ledger."""
        return self.maintenance.total

    @property
    def merges_completed(self) -> int:
        """Lifetime completed merges across every tower, including towers
        already disposed by topology changes and compactions."""
        return self._merges_retired + sum(
            tower.scheduler.merges_completed for tower in self.towers()
        )

    @property
    def records_merged(self) -> int:
        """Lifetime records written by completed merges (same scope as
        :attr:`merges_completed`)."""
        return self._records_merged_retired + sum(
            tower.scheduler.records_merged for tower in self.towers()
        )

    def snapshot(self) -> IOSnapshot:
        return self.stats.snapshot()

    def meter(self) -> IOMeter:
        """``with service.meter() as m: ...`` measures I/Os of the block."""
        return IOMeter(self.stats)

    def close(self) -> int:
        """Clean shutdown: force the WAL tail durable; returns records flushed.

        Without it, up to ``wal_group_commit - 1`` acknowledged updates
        sitting in the in-memory tail are lost on a crash -- that is the
        group-commit trade-off, not a bug.  A no-op (returning 0) on a
        non-durable service.
        """
        return 0 if self.wal is None else self.wal.flush()

    def reclaim(self) -> Dict[str, int]:
        """Free superseded snapshots and the folded WAL prefix on the store.

        A long-running durable service otherwise grows its store without
        bound (every snapshot and WAL block is retained forever).  Note
        that reclaimed history can no longer be crash-simulated -- see
        :meth:`repro.service.DurableStore.reclaim`.  A no-op on a
        non-durable service.
        """
        if self.store is None:
            return {"snapshot_blocks_freed": 0, "wal_blocks_freed": 0}
        return self.store.reclaim()

    def durability_io(self) -> int:
        """Block transfers charged to the durability store (0 when off)."""
        return 0 if self.store is None else self.store.stats.total

    def query_io_total(self) -> int:
        """Block transfers excluding durability (query/build path only)."""
        return self.io_total() - self.durability_io()

    def drop_caches(self) -> None:
        """Empty every shard's and level's buffer pool (cold-cache
        measurements)."""
        for shard in self.shards:
            if shard.storage is not None:
                shard.storage.drop_cache()
        for comp in self._all_components().values():
            if comp.storage is not None:
                comp.storage.drop_cache()

    def _all_components(self) -> Dict[int, Component]:
        """Every component of every live tower, deduplicated by object
        identity (an inherited component shared by sibling towers appears
        once), keyed by ``id()``."""
        seen: Dict[int, Component] = {}
        for tower in self.towers():
            for comp in tower.components():
                seen[id(comp)] = comp
        return seen

    def blocks_in_use(self) -> int:
        """Allocated blocks across all shard and component machines."""
        total = sum(
            shard.storage.blocks_in_use()
            for shard in self.shards
            if shard.storage is not None
        )
        total += sum(
            comp.storage.blocks_in_use()
            for comp in self._all_components().values()
            if comp.storage is not None
        )
        return total

    def describe(self) -> Dict[str, object]:
        """A status snapshot a service dashboard would render.

        ``result_cache`` carries the full cache counter set, and
        ``levels`` the per-level fill -- one row per level with
        ``{records, tombstones, capacity, merge_debt}`` (level 0 is the
        memtable) -- so callers such as
        :class:`repro.engine.ShardedServiceBackend` can populate
        per-request execution reports without reaching into private
        state.
        """
        towers: List[Dict[str, object]] = []
        agg: Dict[int, Dict[str, object]] = {}
        for shard in self.shards:
            tower = shard.tower
            assert tower is not None
            rows = tower.describe_levels()
            towers.append(
                {"sid": shard.sid, "uid": shard.uid, "levels": rows}
            )
            for row in rows:
                j = int(row["level"])  # type: ignore[arg-type]
                acc = agg.setdefault(
                    j,
                    {
                        "level": j,
                        "records": 0,
                        "tombstones": 0,
                        "capacity": row["capacity"],
                        "merge_debt": 0,
                    },
                )
                acc["records"] = int(acc["records"]) + int(row["records"])  # type: ignore[arg-type]
                acc["tombstones"] = int(acc["tombstones"]) + int(row["tombstones"])  # type: ignore[arg-type]
                acc["merge_debt"] = int(acc["merge_debt"]) + int(row["merge_debt"])  # type: ignore[arg-type]
                if j == 0:
                    for key in ("frozen", "inherited"):
                        merged_list = list(acc.get(key, []))  # type: ignore[call-overload]
                        merged_list.extend(row[key])  # type: ignore[arg-type]
                        acc[key] = merged_list
        levels = [agg[j] for j in sorted(agg)]
        active = [
            desc
            for desc in (
                t.scheduler.describe()["active"] for t in self.towers()
            )
            if desc is not None
        ]
        scheduler = {
            "active": active or None,
            "queued_jobs": sum(
                len(t.scheduler.queue) for t in self.towers()
            ),
            "merges_completed": self.merges_completed,
            "records_merged": self.records_merged,
        }
        status: Dict[str, object] = {
            # The *router's* shard count -- authoritative everywhere: it
            # can differ from ServiceConfig.shard_count both downward
            # (size_balanced_cuts legitimately returns fewer cuts on tiny
            # or boundary-degenerate inputs) and in either direction once
            # online splits/merges move the topology.
            "shard_count": len(self.shards),
            "shard_sizes": [len(shard) for shard in self.shards],
            "shard_epochs": [shard.epoch for shard in self.shards],
            "shard_uids": [shard.uid for shard in self.shards],
            "cuts": list(self.router.cuts),
            "topology": self.topology.describe(),
            "live_points": len(self),
            "update_path": "leveled",
            "delta_inserts": len(self.delta.inserts),
            "delta_tombstones": len(self.delta.tombstones),
            "levels": levels,
            "compactions": self.compactions,
            "drains": self.drains,
            "maintenance_io": self.maintenance_io(),
            "cache_entries": len(self.cache),
            "cache_hit_rate": round(self.cache.hit_rate(), 3),
            "result_cache": self.cache.describe(),
            "io_total": self.io_total(),
            "blocks_in_use": self.blocks_in_use(),
            "durability": self.config.durability,
            "scheduler": scheduler,
            "towers": towers,
        }
        if self.store is not None and self.wal is not None:
            durability = dict(self.store.describe())
            durability["wal_pending"] = self.wal.pending
            durability["group_commit"] = self.wal.group_commit_size
            durability["auto_reclaims"] = self.auto_reclaims
            if self.recovery is not None:
                durability["recovery"] = dict(self.recovery)
            status["durability_detail"] = durability
        return status
