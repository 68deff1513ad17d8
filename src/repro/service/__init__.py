"""repro.service -- a sharded, batched, updatable skyline query service.

This package layers a service tier over the paper's structures: the point
set is partitioned into x-range shards, each backed by its own
:class:`repro.RangeSkylineIndex` on its own simulated machine
(:class:`~repro.service.shard.Shard`); a router prunes the shards whose
x-range misses a query (:class:`~repro.service.router.ShardRouter`);
batches regroup into per-shard worklists with optional thread fan-out
(:mod:`~repro.service.batch`); results are cached in a per-shard-scoped
LRU (:class:`~repro.service.cache.ResultCache`); and writes take the
leveled log-structured path (:mod:`~repro.service.lsm`): the memtable
(:class:`~repro.service.delta.DeltaBuffer`) seals into immutable level
components of geometrically increasing capacity that a
:class:`~repro.service.lsm.CompactionScheduler` merges downward in
bounded incremental steps, with :meth:`SkylineService.drain` as the
explicit full-drain and :meth:`SkylineService.compact` as the
operator-driven major compaction folding everything back into rebuilt,
size-rebalanced static shards.

Why the shard merge is correct
------------------------------
Let the query rectangle be ``Q`` and let shards ``S_0 < S_1 < ... < S_m``
partition the x-axis into disjoint half-open ranges.  Each shard returns
the skyline of its own points inside ``Q``.  Claim: point ``p`` from shard
``S_i``'s local answer belongs to the global skyline of ``P ∩ Q`` iff
``p.y`` strictly exceeds ``maxy_i := max { q.y : q ∈ Q ∩ (S_{i+1} ∪ ... ∪
S_m) }`` -- which is exactly what the right-to-left running-maximum pass in
:func:`~repro.service.merge.merge_shard_skylines` tests.

*Only right shards matter.*  A dominator of ``p`` inside ``Q`` has
``x >= p.x``, so it lives in ``S_i`` itself or in a shard to the right.
Same-shard dominators were already eliminated by the local skyline.

*The running maximum is computable from local answers.*  The highest point
of ``Q ∩ S_j`` is dominated by nothing in its shard, so it appears in
``S_j``'s local answer; hence the maximum y over the local answers of
shards ``> i`` equals ``maxy_i`` even though dominated points were dropped.

*Strictness matches top-open (and every other) semantics.*  A right-shard
point ``q`` has ``q.x > p.x`` strictly (shards are disjoint in x), so ``q``
dominates ``p`` exactly when ``q.y >= p.y``; ``p`` survives iff
``p.y > maxy_i``.  No shape information beyond the local answers is
needed, so the same merge serves top-open, right-open, 4-sided and all
other variants of Figure 2.

*Delta and tombstones.*  Pending inserts are folded in afterwards by
taking the skyline of (merged static answer ∪ delta points inside ``Q``):
any static point absent from the merged answer is dominated by a present
one, so the union's skyline equals the true skyline.  Deletions are not
decomposable this way (removing a maximal point can expose points it
dominated), so a shard whose range contains a tombstone inside ``Q``
recomputes its local answer from its resident live points -- a scan the
service charges as ``ceil(resident / B)`` block reads on the shard's
ledger; all other shards keep their static-structure I/O efficiency.
Compaction restores the tombstone-free fast path.

*Levels.*  The same two arguments generalise from 2 sources (delta +
base) to ``k + 1``: each level component answers
locally (static structure, or the charged rescan when a tombstone it owns
lies inside ``Q``), and one right-to-left running-max-y pass over the
union of all local answers -- base merge, levels, frozen memtables,
memtable candidates -- yields the global skyline
(:func:`~repro.service.merge.merge_component_skylines` carries the
proof for overlapping x-ranges).

Durability
----------
:mod:`repro.service.durability` adds crash safety on top: a durable
service appends every insert/delete to a group-committed write-ahead log
on a :class:`~repro.service.durability.DurableStore`, logs a checkpoint
record at each compaction, periodically serialises the rebuilt shards as
block-level snapshots, and :meth:`SkylineService.open` recovers the exact
durable state by loading the newest surviving snapshot and replaying the
WAL suffix -- every step charged in the same block-transfer currency as
the query path.
"""

from repro.service.batch import build_worklists, execute_worklists
from repro.service.cache import ResultCache, make_key
from repro.service.config import ServiceConfig
from repro.service.delta import DeltaBuffer, point_key
from repro.service.durability import (
    CrashSimulator,
    DurableStore,
    WriteAheadLog,
    crashed_copy,
)
from repro.service.lsm import Component, CompactionScheduler, LevelManager
from repro.service.merge import (
    merge_component_skylines,
    merge_shard_skylines,
)
from repro.service.router import (
    ShardRouter,
    size_balanced_cuts,
    size_balanced_midpoint,
)
from repro.service.service import QueryExecutionTrace, SkylineService
from repro.service.shard import Shard
from repro.service.topology import TopologyManager

__all__ = [
    "SkylineService",
    "QueryExecutionTrace",
    "ServiceConfig",
    "Shard",
    "ShardRouter",
    "TopologyManager",
    "DeltaBuffer",
    "Component",
    "LevelManager",
    "CompactionScheduler",
    "ResultCache",
    "DurableStore",
    "WriteAheadLog",
    "CrashSimulator",
    "crashed_copy",
    "size_balanced_cuts",
    "size_balanced_midpoint",
    "merge_shard_skylines",
    "merge_component_skylines",
    "build_worklists",
    "execute_worklists",
    "make_key",
    "point_key",
]
