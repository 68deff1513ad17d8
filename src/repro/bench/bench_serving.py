"""Serving-tier benchmarks: coalescing I/O savings and shed-bounded tails.

Three cells, all driving a :class:`repro.serve.SkylineServer` in front of
a sharded engine and all measured in the repo's common currency (block
transfers on the simulated machines) next to wall-clock seconds:

1. **Coalescing** (:func:`run_serving_sweep` modes ``coalesced`` /
   ``uncoalesced``): the same Zipf-skewed multi-client read burst is
   served twice -- once gathered into batches, where identical and
   nested rectangles across callers share one execution inside
   :meth:`~repro.engine.SkylineEngine.query_batch_shared`, and once with
   ``max_batch=1``, so every submission executes alone.  The result
   cache is off and the buffer pools are small, so the saving must show
   up in the block ledger itself, not in cache luck; per-request answers
   are checked identical between the two modes before either row is
   recorded.

2. **Backpressure** (modes ``block`` / ``shed``): a burst far past
   saturation is staged into the intake queue before the server starts.
   Under the ``block`` policy (queue deep enough for the whole burst)
   every request is served but late submissions inherit the whole
   backlog as queue wait; under the ``shed`` policy a small bounded
   queue admits what it can and fails the rest fast with the typed
   ``Overloaded`` error.  The claim: shedding keeps the *served* p99
   latency bounded -- at most the blocking run's p99 -- while accounting
   for every submission (``served + shed == submitted``).

3. **Closed loop** (mode ``closed-loop``): ``clients`` worker threads
   each submit their next request only after the previous one completed
   -- reads from the shared Zipf pool plus a deterministic insert mix on
   the serialized writer lane -- giving an end-to-end throughput /
   latency / ledger row under genuinely concurrent callers.

Every cell asserts the engine's ledger partition
``attributed + maintenance == total - build`` exactly: the serving tier
must never lose or double-charge a block transfer, at any concurrency.

``benchmarks/bench_serving.py`` drives the sweep (pytest or ``--quick``
CLI) and persists the table to ``BENCH_serving.json``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.reporting import BenchmarkTable
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.engine import SkylineEngine, UpdateRequest
from repro.serve import ServerConfig, ServingReport, SkylineServer
from repro.serve.metrics import percentile
from repro.workloads import uniform_points

Summary = Dict[str, Dict[str, float]]


def _canon(points: Sequence[Point]) -> List[Tuple[float, float, object]]:
    return sorted((p.x, p.y, p.ident) for p in points)


def _query_pool(
    pool_size: int, universe: int, seed: int
) -> List[RangeQuery]:
    """``pool_size`` distinct x-band rectangles over the universe."""
    rng = random.Random(seed)
    pool: List[RangeQuery] = []
    for _ in range(pool_size):
        width = universe * rng.uniform(0.05, 0.20)
        x_lo = rng.uniform(0.0, universe - width)
        pool.append(RangeQuery(x_lo=x_lo, x_hi=x_lo + width))
    return pool


def _zipf_sequences(
    pool: Sequence[RangeQuery],
    clients: int,
    requests_per_client: int,
    alpha: float,
    seed: int,
) -> List[List[RangeQuery]]:
    """Per-client request sequences, Zipf-skewed over the shared pool.

    Rank-``r`` pool entries are drawn with probability proportional to
    ``1 / (r + 1) ** alpha``, so concurrent clients keep colliding on the
    same hot rectangles -- the workload coalescing exists for.
    """
    weights = [1.0 / (rank + 1) ** alpha for rank in range(len(pool))]
    return [
        random.Random(seed + 1000 + cid).choices(
            list(pool), weights=weights, k=requests_per_client
        )
        for cid in range(clients)
    ]


def _interleaved(sequences: Sequence[Sequence[RangeQuery]]) -> List[RangeQuery]:
    """Round-robin across clients: request ``i`` of every client lands
    adjacently, exactly as concurrent submitters would interleave."""
    return [
        sequence[i]
        for i in range(len(sequences[0]))
        for sequence in sequences
        if i < len(sequence)
    ]


def _ledger_ok(engine: SkylineEngine) -> bool:
    return (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


def _latency_cell(reports: Sequence[ServingReport]) -> Dict[str, float]:
    latencies = [r.latency_s for r in reports]
    return {
        "p50_ms": round(percentile(latencies, 0.50) * 1000.0, 3),
        "p95_ms": round(percentile(latencies, 0.95) * 1000.0, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1000.0, 3),
    }


def _serve_burst(
    engine: SkylineEngine,
    requests: Sequence[RangeQuery],
    config: ServerConfig,
) -> Tuple[List[object], List[ServingReport], Dict[str, float]]:
    """Stage ``requests`` into a stopped server, start it, drain it.

    Pre-loading the queue before :meth:`SkylineServer.start` makes the
    cell deterministic: every gather window is full (coalescing sees its
    duplicates) and an overfull bounded queue sheds an exact count,
    independent of CI timing noise.  Returns the per-request outcomes
    (``ServedQuery`` or the typed exception), the serving reports of the
    served requests, and the cell counters.
    """
    server = SkylineServer(engine, config, start=False)
    io_before = engine.io_total()
    futures = [server.submit_query(request) for request in requests]
    started = time.perf_counter()
    server.start()
    outcomes = []
    for future in futures:
        try:
            outcomes.append(future.result(timeout=120.0))
        except Exception as exc:  # Overloaded / DeadlineExceeded
            outcomes.append(exc)
    elapsed = time.perf_counter() - started
    server.stop()
    served = [o for o in outcomes if not isinstance(o, Exception)]
    reports = [o.serving for o in served]
    metrics = server.metrics.describe()
    cell: Dict[str, float] = {
        "submitted": float(len(requests)),
        "served": float(len(served)),
        "shed": float(metrics["shed"]),
        "blocks": float(engine.io_total() - io_before),
        "seconds": round(elapsed, 6),
        "throughput_rps": round(len(served) / max(1e-9, elapsed), 1),
        "mean_fanin": float(metrics["mean_coalesce_fanin"]),
        "read_batches": float(metrics["read_batches"]),
        "attributed_io": float(engine.attributed_io()),
        "maintenance_io": float(engine.maintenance_io()),
        "io_total": float(engine.io_total()),
        "ledger_ok": 1.0 if _ledger_ok(engine) else 0.0,
        **_latency_cell(reports),
    }
    return outcomes, reports, cell


def run_serving_sweep(
    n: int = 4096,
    clients: int = 8,
    requests_per_client: int = 48,
    pool_size: int = 24,
    zipf_alpha: float = 1.2,
    shard_count: int = 4,
    block_size: int = 16,
    memory_blocks: int = 8,
    gather_window: float = 0.002,
    max_batch: int = 64,
    saturation_burst: int = 256,
    shed_queue: int = 64,
    write_every: int = 8,
    seed: int = 0,
) -> Tuple[BenchmarkTable, Summary]:
    """The three serving cells; see the module docstring for the claims."""
    universe = 1_000_000
    writes_per_client = requests_per_client // write_every
    all_points = uniform_points(
        n + clients * writes_per_client, universe=universe, seed=seed
    )
    base = all_points[:n]
    payload = all_points[n:]
    pool = _query_pool(pool_size, universe, seed + 1)
    sequences = _zipf_sequences(
        pool, clients, requests_per_client, zipf_alpha, seed + 2
    )
    burst = _interleaved(sequences)

    def engine_config(**overrides: object) -> Dict[str, object]:
        cfg: Dict[str, object] = dict(
            shard_count=shard_count,
            block_size=block_size,
            memory_blocks=memory_blocks,
            cache_capacity=0,
        )
        cfg.update(overrides)
        return cfg

    table = BenchmarkTable(
        f"Serving tier -- n={n}, {clients} clients x {requests_per_client} "
        f"requests, Zipf alpha={zipf_alpha} over {pool_size} rectangles, "
        f"B={block_size}"
    )
    summary: Summary = {}

    # -- cell 1: coalescing on vs off over the identical burst ----------
    # Off is ``max_batch=1``: no submission has company to share with.
    mode_outcomes: Dict[str, List[object]] = {}
    for mode, mode_batch in (("coalesced", max_batch), ("uncoalesced", 1)):
        engine = SkylineEngine.sharded(base, **engine_config())
        outcomes, _, cell = _serve_burst(
            engine,
            burst,
            ServerConfig(
                gather_window=gather_window,
                max_batch=mode_batch,
                max_read_queue=len(burst),
            ),
        )
        mode_outcomes[mode] = outcomes
        summary[mode] = cell
    for position, (co, un) in enumerate(
        zip(mode_outcomes["coalesced"], mode_outcomes["uncoalesced"])
    ):
        if _canon(co.points) != _canon(un.points):
            raise AssertionError(
                f"coalesced and uncoalesced answers diverge at request "
                f"{position}"
            )

    # -- cell 2: block vs shed past saturation --------------------------
    # Distinct rectangles (no coalescing) so every queued request costs
    # real work and the backlog is what the policies must handle.
    saturation = _query_pool(saturation_burst, universe, seed + 3)
    for mode, queue_cap in (
        ("block", saturation_burst),
        ("shed", shed_queue),
    ):
        engine = SkylineEngine.sharded(base, **engine_config())
        _, _, cell = _serve_burst(
            engine,
            saturation,
            ServerConfig(
                gather_window=gather_window,
                max_batch=max_batch,
                backpressure="shed",
                max_read_queue=queue_cap,
            ),
        )
        summary[mode] = cell

    # -- cell 3: closed-loop mixed clients against a running server -----
    engine = SkylineEngine.sharded(base, **engine_config(cache_capacity=256))
    io_before = engine.io_total()
    reports_lock = threading.Lock()
    reports: List[ServingReport] = []

    def client_loop(server: SkylineServer, cid: int) -> None:
        writes = iter(
            payload[cid * writes_per_client : (cid + 1) * writes_per_client]
        )
        collected = []
        for i, request in enumerate(sequences[cid]):
            if write_every and i % write_every == write_every - 1:
                served = server.update(UpdateRequest.insert(next(writes)))
            else:
                served = server.query(request)
            collected.append(served.serving)
        with reports_lock:
            reports.extend(collected)

    started = time.perf_counter()
    with SkylineServer(
        engine, ServerConfig(gather_window=gather_window, max_batch=max_batch)
    ) as server:
        threads = [
            threading.Thread(target=client_loop, args=(server, cid))
            for cid in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        metrics = server.metrics.describe()
    elapsed = time.perf_counter() - started
    summary["closed-loop"] = {
        "submitted": float(clients * requests_per_client),
        "served": float(metrics["served"]),
        "shed": float(metrics["shed"]),
        "blocks": float(engine.io_total() - io_before),
        "seconds": round(elapsed, 6),
        "throughput_rps": round(metrics["served"] / max(1e-9, elapsed), 1),
        "mean_fanin": float(metrics["mean_coalesce_fanin"]),
        "read_batches": float(metrics["read_batches"]),
        "served_writes": float(metrics["served_writes"]),
        "attributed_io": float(engine.attributed_io()),
        "maintenance_io": float(engine.maintenance_io()),
        "io_total": float(engine.io_total()),
        "ledger_ok": 1.0 if _ledger_ok(engine) else 0.0,
        **_latency_cell(reports),
    }

    for mode in ("coalesced", "uncoalesced", "block", "shed", "closed-loop"):
        cell = summary[mode]
        table.add(
            measured_io=cell["blocks"],
            seconds=cell["seconds"],
            mode=mode,
            served=cell["served"],
            shed=cell["shed"],
            throughput_rps=cell["throughput_rps"],
            p50_ms=cell["p50_ms"],
            p95_ms=cell["p95_ms"],
            p99_ms=cell["p99_ms"],
            fanin=cell["mean_fanin"],
        )
    return table, summary


def check(summary: Summary) -> None:
    """The acceptance assertions both pytest and the CLI enforce."""
    for mode, cell in summary.items():
        assert cell["ledger_ok"] == 1.0, (
            f"ledger partition broke in the {mode} cell"
        )
    coalesced = summary["coalesced"]
    uncoalesced = summary["uncoalesced"]
    assert coalesced["served"] == coalesced["submitted"]
    assert uncoalesced["served"] == uncoalesced["submitted"]
    # The headline claim: coalescing the Zipf burst saves real block
    # transfers, not cache luck (the result cache is off in both modes).
    assert coalesced["blocks"] < uncoalesced["blocks"], (
        f"coalescing saved nothing: {coalesced['blocks']} vs "
        f"{uncoalesced['blocks']} blocks"
    )
    assert coalesced["mean_fanin"] > 1.0, (
        "no cross-caller coalescing happened; the comparison is vacuous"
    )
    block = summary["block"]
    shed = summary["shed"]
    assert shed["shed"] > 0, "saturation burst never tripped admission control"
    assert shed["served"] + shed["shed"] == shed["submitted"], (
        "serving lost submissions: "
        f"{shed['served']} + {shed['shed']} != {shed['submitted']}"
    )
    assert block["served"] == block["submitted"]
    # Past saturation, shedding bounds the tail: the served requests'
    # p99 must not exceed the blocking policy's backlog-inflated p99.
    assert shed["p99_ms"] <= block["p99_ms"], (
        f"shed p99 {shed['p99_ms']}ms exceeds block p99 {block['p99_ms']}ms"
    )
    closed = summary["closed-loop"]
    assert closed["served"] == closed["submitted"]
    assert closed["served_writes"] > 0, "closed loop exercised no writes"
