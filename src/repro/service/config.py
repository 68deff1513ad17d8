"""Tunables of the sharded skyline service."""

from __future__ import annotations

from dataclasses import dataclass

from repro.em.config import EMConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of a :class:`repro.service.SkylineService`.

    Attributes
    ----------
    shard_count:
        Number of x-range shards the point set is partitioned into.
    block_size:
        ``B`` of every shard's simulated machine (records per block).
    memory_blocks:
        Buffer-pool frames of *each shard's* machine.  The service models a
        scale-out deployment -- every shard runs on its own node with its
        own buffer pool -- so the aggregate cache grows with the shard
        count, exactly as adding servers grows a cluster's RAM.  Cold-cache
        benchmarks are unaffected (they drop every pool before measuring);
        warm comparisons against a monolithic index should state this
        asymmetry, as ``repro.bench.bench_service`` does.
    epsilon:
        The query/update trade-off knob forwarded to every shard's
        :class:`repro.RangeSkylineIndex`.
    delta_threshold:
        Capacity of the level-0 memtable: once this many *pending
        inserts* accumulate the memtable is sealed and scheduled for an
        incremental merge into level 1 (when ``auto_compact`` is on).
    level_growth:
        Geometric fan-out of the leveled update path: level ``j`` holds up
        to ``delta_threshold * level_growth**j`` records before it is
        scheduled for a merge into level ``j + 1``.
    merge_step_blocks:
        Bound on the incremental merge work piggybacked on a single
        update: at most this many block transfers of pending merge debt
        are paid (charged to the service's maintenance ledger) per
        insert/delete.  The worst-case single-update I/O is therefore
        ``O(merge_step_blocks)``, never an ``O(n/B)`` rebuild;
        :meth:`SkylineService.drain` pays all outstanding debt at once.
    adaptive_topology:
        Whether the service's :class:`~repro.service.topology
        .TopologyManager` manages the shard layout *online*: after every
        applied update it splits a shard whose range load (base residents
        plus the memtable and tower records in its x-range) reaches twice
        the target load, else merges the coldest adjacent pair once their
        combined load is at most half of it, else folds the shard whose
        tower holds the most records once that reaches one block
        (``block_size`` records) -- each a bounded local operation charged
        to the maintenance ledger, never a stop-the-world global rebuild.
        The thresholds are fixed, not tuned.  Off by default: a
        static-topology service only re-cuts at an explicit
        :meth:`~repro.service.SkylineService.compact`.  Manual
        :meth:`~repro.service.SkylineService.split_shard` /
        :meth:`~repro.service.SkylineService.merge_shards` /
        :meth:`~repro.service.SkylineService.fold_shard` work either way.
    cache_capacity:
        Maximum number of query results kept in the LRU result cache
        (0 disables caching).
    auto_compact:
        Whether writes seal the memtable once it holds
        ``delta_threshold`` pending inserts, and pay a major compaction
        once ``delta_threshold * level_growth`` tombstones accumulate.
        Turn off to drive :meth:`drain` and :meth:`compact` from an
        external scheduler, as a real service would.
    durability:
        Whether the service writes every update to a write-ahead log and
        periodic block-level shard snapshots on a
        :class:`~repro.service.durability.DurableStore`, so that
        :meth:`repro.service.SkylineService.open` can rebuild the exact
        live state after a crash.  Off by default: a purely in-memory
        service charges zero durability I/O.
    wal_group_commit:
        Group-commit batch size of the write-ahead log: appended records
        accumulate in memory and are forced to disk (one block write per
        ``block_size`` records, minimum one) every this-many records.  1
        makes every update durable immediately at one block write each;
        larger values amortise the write at the cost of losing up to
        ``wal_group_commit - 1`` acknowledged updates in a crash.
    snapshot_every_compactions:
        Cadence of block-level shard snapshots: every Nth compaction also
        serialises the freshly rebuilt shards to the durable store, which
        bounds WAL replay at recovery to the records logged since.  1
        snapshots at every compaction.
    """

    shard_count: int = 4
    block_size: int = 64
    memory_blocks: int = 32
    epsilon: float = 0.5
    delta_threshold: int = 128
    level_growth: int = 4
    merge_step_blocks: int = 8
    adaptive_topology: bool = False
    cache_capacity: int = 256
    auto_compact: bool = True
    durability: bool = False
    wal_group_commit: int = 8
    snapshot_every_compactions: int = 1

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {self.shard_count}")
        if self.delta_threshold < 1:
            raise ValueError(
                f"delta_threshold must be >= 1, got {self.delta_threshold}"
            )
        if self.level_growth < 2:
            raise ValueError(
                f"level_growth must be >= 2, got {self.level_growth}"
            )
        if self.merge_step_blocks < 1:
            raise ValueError(
                f"merge_step_blocks must be >= 1, got {self.merge_step_blocks}"
            )
        if self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.wal_group_commit < 1:
            raise ValueError(
                f"wal_group_commit must be >= 1, got {self.wal_group_commit}"
            )
        if self.snapshot_every_compactions < 1:
            raise ValueError(
                "snapshot_every_compactions must be >= 1, got "
                f"{self.snapshot_every_compactions}"
            )

    def shard_em_config(self) -> EMConfig:
        """The machine each shard runs on (one node of the scale-out fleet)."""
        return EMConfig(block_size=self.block_size, memory_blocks=self.memory_blocks)
