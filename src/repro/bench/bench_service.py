"""Monolithic vs. sharded engines: batch I/O and wall-clock sweeps.

Both experiments drive the two deployment shapes through the *same*
unified front door -- :class:`repro.engine.SkylineEngine` over a
:class:`~repro.engine.LocalIndexBackend` and over a
:class:`~repro.engine.ShardedServiceBackend` -- replaying identical query
streams and verifying the answers agree before recording a row.  Because
every request returns an :class:`~repro.engine.ExecutionReport` whose
block counts are that request's exact ledger delta, each row's I/O total
is the *sum of per-request reports*, and the harness cross-checks that
sum against the backend ledger (the engine's accounting invariant) on
every sweep cell.

1. :func:`run_prunable_sweep` (asserted by ``benchmarks/bench_service.py``)
   -- *shard-prunable* workloads: narrow top-open rectangles (x-extent well
   under one shard's range) measured cold-cache per query, the worst-case
   regime the paper's bounds describe.  The router prunes every shard whose
   x-range misses the query, and the one or two shards that serve it hold
   ``shard_count`` times fewer points, so their structures are shallower:
   the sharded engine performs fewer total block transfers than the
   monolithic one at every shard count.

2. :func:`run_traffic_sweep` (informational) -- warm Zipf-repeat traffic
   over hot windows with the result cache on, the regime a long-running
   service lives in.  Note the memory asymmetry inherent to scale-out:
   each shard node has its own ``memory_blocks``-frame pool, so aggregate
   cache grows with the shard count, while the monolithic engine has one
   pool.

``benchmarks/bench_service.py`` persists both tables to
``BENCH_service.json`` via :func:`repro.bench.reporting.write_json_report`
so future PRs can track the performance trajectory.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.reporting import BenchmarkTable
from repro.core.point import Point
from repro.core.queries import FourSidedQuery, RangeQuery, TopOpenQuery
from repro.em.config import EMConfig
from repro.engine import QueryRequest, QueryResult, SkylineEngine
from repro.service import ServiceConfig
from repro.workloads import (
    anticorrelated_points,
    clustered_points,
    correlated_points,
    top_open_queries,
    uniform_points,
)

WORKLOADS: Dict[str, Callable[..., List[Point]]] = {
    "uniform": uniform_points,
    "correlated": correlated_points,
    "anticorrelated": anticorrelated_points,
    "clustered": clustered_points,
}

Summary = Dict[str, Dict[str, float]]


def _canonical(results: Sequence[QueryResult]) -> List[List[Tuple[float, float]]]:
    return [sorted((p.x, p.y) for p in result.points) for result in results]


def _check(expected, got, context: str) -> None:
    if _canonical(got) != _canonical(expected):
        raise AssertionError(f"sharded answers diverge ({context})")


def _make_local(
    points: List[Point], block_size: int, memory_blocks: int
) -> SkylineEngine:
    return SkylineEngine.local(
        points,
        em_config=EMConfig(block_size=block_size, memory_blocks=memory_blocks),
    )


def _make_sharded(
    points: List[Point], shard_count: int, block_size: int, memory_blocks: int
) -> SkylineEngine:
    return SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=shard_count,
            block_size=block_size,
            memory_blocks=memory_blocks,
        ),
    )


def _assert_accounting(engine: SkylineEngine, context: str) -> None:
    """The engine invariant, cross-checked on every sweep cell: summing
    per-request report blocks (plus cache-drop maintenance flushes)
    reproduces the backend ledger exactly."""
    expected = engine.io_total() - engine.build_io - engine.maintenance_io()
    if engine.attributed_io() != expected:
        raise AssertionError(
            f"report blocks do not sum to the ledger delta ({context})"
        )


def run_prunable_sweep(
    n: int = 8192,
    shard_counts: Sequence[int] = (4, 8, 16),
    query_count: int = 24,
    selectivity: float = 0.01,
    block_size: int = 16,
    memory_blocks: int = 32,
    seed: int = 0,
    workloads: Sequence[str] = ("uniform", "correlated", "anticorrelated", "clustered"),
) -> Tuple[BenchmarkTable, Summary]:
    """Cold-cache narrow top-open batches: the shard-pruning win.

    Returns the table plus a summary mapping each workload to the batch
    I/O total of the monolithic engine (``"monolithic"``) and of every
    sharded engine (``"shards=K"``).
    """
    table = BenchmarkTable(
        f"Shard-prunable batches, cold cache -- top-open, n={n}, B={block_size}, "
        f"{query_count} queries, selectivity={selectivity}"
    )
    summary: Summary = {}
    for workload in workloads:
        points = WORKLOADS[workload](n, seed=seed + n)
        queries: List[RangeQuery] = list(
            top_open_queries(points, query_count, selectivity=selectivity, seed=seed)
        )

        cell = summary.setdefault(workload, {})
        mono = _make_local(points, block_size, memory_blocks)
        mono_io, mono_ms, expected = _measure_cold(mono, queries)
        _assert_accounting(mono, f"prunable/{workload}/monolithic")
        cell["monolithic"] = mono_io
        table.add(
            measured_io=mono_io,
            seconds=mono_ms / 1000.0,
            workload=workload,
            engine="monolithic",
            avg_k=round(sum(r.total_results for r in expected) / len(expected), 1),
        )

        for shard_count in shard_counts:
            sharded = _make_sharded(
                points, shard_count, block_size, memory_blocks
            )
            sharded_io, sharded_ms, got = _measure_cold(sharded, queries)
            _check(expected, got, f"prunable/{workload}/shards={shard_count}")
            _assert_accounting(
                sharded, f"prunable/{workload}/shards={shard_count}"
            )
            cell[f"shards={shard_count}"] = sharded_io
            table.add(
                measured_io=sharded_io,
                seconds=sharded_ms / 1000.0,
                workload=workload,
                engine=f"shards={shard_count}",
                avg_k=round(sum(r.total_results for r in got) / len(got), 1),
            )
    return table, summary


def run_traffic_sweep(
    n: int = 4096,
    shard_counts: Sequence[int] = (4, 8),
    query_count: int = 128,
    batch_size: int = 16,
    hot_windows: int = 16,
    selectivity: float = 0.02,
    block_size: int = 16,
    memory_blocks: int = 32,
    seed: int = 0,
    workloads: Sequence[str] = ("uniform", "clustered"),
) -> Tuple[BenchmarkTable, Summary]:
    """Warm Zipf-repeat traffic in batches, result cache on (informational).

    The batch stream repeats hot windows, so the sharded engine serves
    most of the later requests from its result cache (visible as
    ``cache_hit`` reports charging zero blocks) while the monolithic
    engine pays its buffer pool's luck per repeat.
    """
    table = BenchmarkTable(
        f"Hot-window traffic, warm pools + result cache -- n={n}, B={block_size}, "
        f"{query_count} queries over {hot_windows} windows, "
        f"batches of {batch_size}"
    )
    summary: Summary = {}
    for workload in workloads:
        points = WORKLOADS[workload](n, seed=seed + n)
        queries = _zipf_traffic(points, query_count, hot_windows, selectivity, seed)
        batches = [
            queries[start : start + batch_size]
            for start in range(0, len(queries), batch_size)
        ]
        cell = summary.setdefault(workload, {})

        # query_batch_shared keeps the native batch executor (worklists,
        # coalescing); I/O per cell is the sum of exact batch-report
        # ledger deltas.
        mono = _make_local(points, block_size, memory_blocks)
        mono.drop_caches()
        start = time.perf_counter()
        expected: List[QueryResult] = []
        mono_io = 0
        for batch in batches:
            results, batch_report = mono.query_batch_shared(batch)
            expected.extend(results)
            mono_io += batch_report.blocks
        mono_ms = (time.perf_counter() - start) * 1000.0
        _assert_accounting(mono, f"traffic/{workload}/monolithic")
        cell["monolithic"] = mono_io
        table.add(
            measured_io=mono_io,
            seconds=mono_ms / 1000.0,
            workload=workload,
            engine="monolithic",
            cache_hit_rate="-",
        )

        for shard_count in shard_counts:
            sharded = _make_sharded(
                points, shard_count, block_size, memory_blocks
            )
            sharded.drop_caches()
            start = time.perf_counter()
            got: List[QueryResult] = []
            sharded_io = 0
            for batch in batches:
                results, batch_report = sharded.query_batch_shared(batch)
                got.extend(results)
                sharded_io += batch_report.blocks
            sharded_ms = (time.perf_counter() - start) * 1000.0
            _check(expected, got, f"traffic/{workload}/shards={shard_count}")
            _assert_accounting(sharded, f"traffic/{workload}/shards={shard_count}")
            hits = sum(1 for r in got if r.report.cache_hit)
            cell[f"shards={shard_count}"] = sharded_io
            table.add(
                measured_io=sharded_io,
                seconds=sharded_ms / 1000.0,
                workload=workload,
                engine=f"shards={shard_count}",
                cache_hit_rate=round(hits / max(1, len(got)), 2),
            )
    return table, summary


def _zipf_traffic(
    points: Sequence[Point],
    count: int,
    windows: int,
    selectivity: float,
    seed: int,
) -> List[RangeQuery]:
    """Repeat-heavy traffic: ``count`` draws over ``windows`` hot rectangles."""
    rng = random.Random(seed)
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    width = (x_hi - x_lo) * selectivity
    pool: List[RangeQuery] = []
    for _ in range(windows):
        start = rng.uniform(x_lo, x_hi - width)
        beta = rng.uniform(y_lo, y_hi)
        if rng.random() < 0.5:
            pool.append(TopOpenQuery(start, start + width, beta))
        else:
            pool.append(
                FourSidedQuery(
                    start, start + width, beta, beta + (y_hi - y_lo) * 0.3
                )
            )
    weights = [1.0 / (rank + 1) for rank in range(windows)]
    return rng.choices(pool, weights=weights, k=count)


def _measure_cold(
    engine: SkylineEngine, queries: Sequence[RangeQuery]
) -> Tuple[int, float, List[QueryResult]]:
    """Per-query cold-cache measurement of a stream: (I/Os, ms, results).

    Caches are dropped before every request so the totals reflect the
    worst-case per-query cost the paper's bounds describe, with no
    cross-query reuse for either engine; ``consistency="fresh"`` keeps
    the sharded result cache out of the picture.  The I/O total is the
    sum of per-request report blocks.
    """
    io = 0
    elapsed = 0.0
    results: List[QueryResult] = []
    for query in queries:
        engine.drop_caches()
        start = time.perf_counter()
        result = engine.query(QueryRequest(query, consistency="fresh"))
        elapsed += time.perf_counter() - start
        io += result.report.blocks
        results.append(result)
    return io, elapsed * 1000.0, results
