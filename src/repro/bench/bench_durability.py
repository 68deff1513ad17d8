"""Durability tier benchmarks: WAL amortisation and recovery cost.

Two sweeps, both charging every durability byte through the
:class:`~repro.service.durability.DurableStore`'s dedicated block-transfer
ledger so the overhead is measured in the same currency as the paper's
bounds:

1. :func:`run_wal_overhead_sweep` -- the group-commit trade-off.  With
   compaction disabled, ``U`` updates cost exactly
   ``floor(U / g) * ceil(g / B)`` WAL block writes at group-commit size
   ``g`` (the unflushed tail is acknowledged-but-volatile work a crash may
   lose), so the measured/predicted ratio must sit at 1.0 across the
   sweep and the write count must fall monotonically as ``g`` grows.

2. :func:`run_recovery_sweep` -- the snapshot-cadence trade-off.  At
   cadence ``c`` (a snapshot every ``c``-th checkpoint), recovery costs
   ``O(n/B)`` snapshot reads plus ``O(w/B)`` WAL-suffix reads where ``w``
   grows with ``c``: sparser snapshots write fewer blocks up front and
   replay more records after a crash.  Every recovered service is checked
   point-for-point against the clean pre-shutdown state before its row is
   recorded.

``benchmarks/bench_durability.py`` drives both (pytest or ``--quick`` CLI)
and persists the tables plus the final store counters to
``BENCH_durability.json`` via :func:`repro.bench.reporting.write_json_report`.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.reporting import BenchmarkTable
from repro.core.point import Point
from repro.core.queries import RangeQuery, TopOpenQuery
from repro.service import ServiceConfig, SkylineService
from repro.workloads import uniform_points

Summary = Dict[str, Dict[str, float]]


def _canon(points: Sequence[Point]) -> List[Tuple[float, float, object]]:
    return sorted((p.x, p.y, p.ident) for p in points)


def _fresh_updates(count: int, seed: int) -> List[Point]:
    """Insert payloads at coordinates disjoint from the base workload."""
    rng = random.Random(seed)
    xs = rng.sample(range(2_000_000, 2_000_000 + 20 * count), count)
    ys = rng.sample(range(2_000_000, 2_000_000 + 20 * count), count)
    return [
        Point(float(x), float(y), 1_000_000 + i)
        for i, (x, y) in enumerate(zip(xs, ys))
    ]


def run_wal_overhead_sweep(
    n: int = 2048,
    updates: int = 512,
    group_commits: Sequence[int] = (1, 4, 16, 64),
    block_size: int = 16,
    memory_blocks: int = 8,
    seed: int = 0,
) -> Tuple[BenchmarkTable, Summary]:
    """WAL block writes per ``updates`` inserts at each group-commit size.

    Compaction is disabled so the measured writes are purely the log's:
    ``floor(updates / g) * ceil(g / B)`` with a ratio of exactly 1.0.
    """
    table = BenchmarkTable(
        f"WAL group-commit amortisation -- {updates} updates, n={n}, B={block_size}"
    )
    summary: Summary = {}
    base = uniform_points(n, universe=1_000_000, seed=seed)
    payloads = _fresh_updates(updates, seed=seed + 1)
    for group in group_commits:
        service = SkylineService(
            base,
            ServiceConfig(
                shard_count=4,
                block_size=block_size,
                memory_blocks=memory_blocks,
                delta_threshold=10 * updates,
                auto_compact=False,
                durability=True,
                wal_group_commit=group,
            ),
        )
        before = service.store.stats.snapshot()
        started = time.perf_counter()
        for point in payloads:
            service.insert(point)
        elapsed = time.perf_counter() - started
        charged = service.store.stats.snapshot() - before
        flushes = updates // group
        predicted = flushes * math.ceil(group / block_size)
        summary[f"group={group}"] = {
            "wal_writes": charged.writes,
            "wal_blocks": service.store.wal_block_count(),
            "pending_lost_on_crash": service.wal.pending,
        }
        table.add(
            measured_io=charged.writes,
            predicted=float(predicted),
            seconds=elapsed,
            group_commit=group,
            updates=updates,
            wal_blocks=service.store.wal_block_count(),
            pending=service.wal.pending,
        )
    return table, summary


def run_recovery_sweep(
    n: int = 4096,
    updates: int = 480,
    snapshot_cadences: Sequence[int] = (1, 2, 4),
    block_size: int = 16,
    memory_blocks: int = 8,
    delta_threshold: int = 48,
    seed: int = 3,
) -> Tuple[BenchmarkTable, Summary]:
    """Recovery block transfers vs snapshot cadence, equivalence-checked.

    Each run drives the same insert/delete mix through a durable service,
    crashes nothing (clean shutdown: the WAL tail is flushed), reopens the
    store and records the recovery cost split into snapshot reads and
    WAL-suffix replay.  The recovered live set and a skyline probe must
    match the pre-shutdown service exactly.

    A full :meth:`~repro.service.SkylineService.drain` after every
    ``delta_threshold``-th insert is the checkpoint that drives the
    snapshot cadence being measured (the update path itself never
    checkpoints; its cost profile is benchmarked by ``bench_updates``).
    """
    table = BenchmarkTable(
        f"Recovery cost vs snapshot cadence -- n={n}, {updates} updates, "
        f"B={block_size}, delta_threshold={delta_threshold}"
    )
    summary: Summary = {}
    base = uniform_points(n, universe=1_000_000, seed=seed)
    payloads = _fresh_updates(updates, seed=seed + 1)
    probe = TopOpenQuery(0.0, 3_000_000.0, 0.0)
    for cadence in snapshot_cadences:
        # Same seed for every cadence: identical op sequences make the
        # replay/snapshot columns directly comparable across rows.
        rng = random.Random(seed + 1)
        service = SkylineService(
            base,
            ServiceConfig(
                shard_count=4,
                block_size=block_size,
                memory_blocks=memory_blocks,
                delta_threshold=delta_threshold,
                durability=True,
                wal_group_commit=8,
                snapshot_every_compactions=cadence,
            ),
        )
        live = list(base)
        for i, point in enumerate(payloads):
            service.insert(point)
            live.append(point)
            if (i + 1) % delta_threshold == 0:
                service.drain()
            if i % 3 == 0:
                victim = live.pop(rng.randrange(len(live)))
                assert service.delete(victim)
        service.close()  # clean shutdown
        expected_live = _canon(service.live_points())
        expected_probe = _canon(service.query(probe))

        started = time.perf_counter()
        recovered = SkylineService.open(service.store)
        recovery_seconds = time.perf_counter() - started
        recovery = recovered.recovery or {}
        if _canon(recovered.live_points()) != expected_live:
            raise AssertionError(f"recovery diverges at cadence {cadence}")
        if _canon(recovered.query(probe)) != expected_probe:
            raise AssertionError(f"recovered answers diverge at cadence {cadence}")
        summary[f"cadence={cadence}"] = {
            "snapshots": len(service.store.manifests),
            "snapshot_blocks": service.store.snapshot_block_count(),
            "replayed_records": recovery.get("replayed_records", 0),
            "snapshot_load_io": recovery.get("snapshot_load_io", 0),
            "replay_io": recovery.get("replay_io", 0),
            "rebuild_io": recovery.get("rebuild_io", 0),
            "recovery_io": recovery.get("recovery_io", 0),
        }
        table.add(
            measured_io=recovery.get("recovery_io", 0),
            seconds=recovery_seconds,
            snapshot_every=cadence,
            drains=service.drains,
            snapshots=len(service.store.manifests),
            snapshot_blocks=service.store.snapshot_block_count(),
            replayed_records=recovery.get("replayed_records", 0),
            snapshot_load_io=recovery.get("snapshot_load_io", 0),
            replay_io=recovery.get("replay_io", 0),
            rebuild_io=recovery.get("rebuild_io", 0),
        )
    return table, summary
