"""Wall-clock hot-path benchmarks: columnar kernels and served reads.

Two cells.  Seconds are the headline here; the block-transfer figures
(the repo's primary currency) are reported beside them:

1. **Columnar merge** (modes ``columnar-merge`` / ``object-merge``): the
   same candidate sources are merged by the vectorised kernels
   (:func:`repro.service.merge.merge_component_skylines` and
   :func:`~repro.service.merge.merge_shard_skylines`) and by the
   per-object reference sweeps (``*_objects``).  Answers must be
   identical; neither side may touch any simulated machine (the kernels
   run over resident candidates, so the cell asserts a zero block delta
   on a live engine while the timing loops run -- see DESIGN.md,
   "Columnar kernels and the charging boundary").  The acceptance claim
   is a >= 2x wall-clock speedup for the columnar side, comparing the
   median seconds of alternating columnar / object repeats so host-speed
   drift lands on both sides alike.

2. **Closed-loop reads** (mode ``closed-loop-reads``): multi-client
   closed-loop reads of *distinct* fresh-consistency rectangles through
   a :class:`~repro.serve.SkylineServer`, each client keeping two
   requests outstanding, so the next batch's reads queue while one
   executes and the gather window, opened at the previous dispatch,
   runs down meanwhile.  Every answer must equal
   :func:`~repro.core.skyline.range_skyline` over the cell's points,
   and every submitted request must be served; throughput
   (``throughput_rps``) is reported, not asserted.

Every cell asserts the engine ledger partition
``attributed + maintenance == total - build`` on the engine(s) it ran.
``benchmarks/bench_hotpath.py`` drives the sweep (pytest or ``--quick``)
and persists the table to ``BENCH_hotpath.json``.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.reporting import BenchmarkTable
from repro.core.columns import PointColumns, backend_name
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.core.skyline import range_skyline
from repro.engine import QueryRequest, SkylineEngine
from repro.serve import ServerConfig, SkylineServer
from repro.service.merge import (
    merge_component_skylines,
    merge_component_skylines_objects,
    merge_shard_skylines,
    merge_shard_skylines_objects,
)
from repro.workloads import uniform_points

Summary = Dict[str, Dict[str, float]]

UNIVERSE = 1_000_000


def _canon(points: Sequence[Point]) -> List[Tuple[float, float, object]]:
    return sorted((p.x, p.y, p.ident) for p in points)


def _ledger_ok(engine: SkylineEngine) -> bool:
    return (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


# ----------------------------------------------------------------------
# Cell 1: columnar vs object merge kernels
# ----------------------------------------------------------------------
def run_merge_cell(
    n: int = 120_000,
    source_count: int = 6,
    repeats: int = 10,
    engine_n: int = 4096,
    seed: int = 0,
) -> Summary:
    """Time the columnar merge kernels against the object references.

    The candidate sources mimic what the service's read path hands the
    kernels: ``source_count`` overlapping increasing-x candidate sets for
    the component merge, and an x-disjoint partition of per-shard
    skylines for the shard merge.  A live engine runs real queries first
    (its production path uses the same kernels), then stands witness
    that the timing loops charge nothing.
    """
    rng = random.Random(seed)
    points = uniform_points(n, universe=UNIVERSE, seed=seed)

    # Overlapping component-style sources, each sorted by increasing x.
    assignments: List[List[Point]] = [[] for _ in range(source_count)]
    for point in points:
        assignments[rng.randrange(source_count)].append(point)
    object_sources = [
        sorted(source, key=lambda p: p.x) for source in assignments
    ]
    columnar_sources = [
        PointColumns.from_points(source) for source in object_sources
    ]

    # X-disjoint per-shard skylines for the shard merge (a single-source
    # object merge is exactly "compute this source's skyline").
    ordered = sorted(points, key=lambda p: p.x)
    band = max(1, len(ordered) // source_count)
    per_shard = [
        merge_component_skylines_objects(
            [ordered[i * band : (i + 1) * band]]
        )
        for i in range(source_count)
    ]
    per_shard = [shard for shard in per_shard if shard]

    engine = SkylineEngine.sharded(
        points[:engine_n], shard_count=4, block_size=16, memory_blocks=8
    )
    for i in range(8):
        width = UNIVERSE * 0.1
        x_lo = (i / 8.0) * (UNIVERSE - width)
        engine.query(RangeQuery(x_lo=x_lo, x_hi=x_lo + width))

    columnar_answer = merge_component_skylines(columnar_sources)
    object_answer = merge_component_skylines_objects(object_sources)
    if _canon(columnar_answer) != _canon(object_answer):
        raise AssertionError("columnar and object component merges diverge")
    if _canon(merge_shard_skylines(per_shard)) != _canon(
        merge_shard_skylines_objects(per_shard)
    ):
        raise AssertionError("columnar and object shard merges diverge")

    io_before = engine.io_total()
    columnar_s: List[float] = []
    object_s: List[float] = []
    # Alternate the sides repeat by repeat: a host slowing down or
    # speeding up mid-cell then skews both medians alike.
    for _ in range(repeats):
        started = time.perf_counter()
        merge_component_skylines(columnar_sources)
        merge_shard_skylines(per_shard)
        columnar_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        merge_component_skylines_objects(object_sources)
        merge_shard_skylines_objects(per_shard)
        object_s.append(time.perf_counter() - started)
    kernel_blocks = engine.io_total() - io_before

    def cell(seconds: List[float]) -> Dict[str, float]:
        return {
            "candidates": float(n),
            "sources": float(source_count),
            "repeats": float(repeats),
            "skyline_size": float(len(columnar_answer)),
            "seconds": round(sum(seconds), 6),
            "median_s": round(statistics.median(seconds), 6),
            "blocks": float(kernel_blocks),
            "ledger_ok": 1.0 if _ledger_ok(engine) else 0.0,
        }

    return {
        "columnar-merge": cell(columnar_s),
        "object-merge": cell(object_s),
    }


# ----------------------------------------------------------------------
# Cell 2: closed-loop reads through the server
# ----------------------------------------------------------------------
def _distinct_bands(count: int, seed: int) -> List[RangeQuery]:
    """``count`` pairwise-disjoint x-bands covering the universe, shuffled.

    Distinct rectangles keep sharing out of the cell: every request
    executes.  Their charges still depend on execution order, through
    each shard's buffer pool (on the full-size cell's engine the 192
    rectangles charge 1003 blocks one at a time in this order, 979 in
    batches of 16, 977 served), and the server's batch composition
    follows gather timing -- so the cell reports its blocks but asserts
    none.
    """
    width = UNIVERSE / count
    rects = [
        RangeQuery(x_lo=i * width, x_hi=(i + 1) * width - 1e-9)
        for i in range(count)
    ]
    random.Random(seed).shuffle(rects)
    return rects


def run_serving_cell(
    n: int = 8192,
    clients: int = 8,
    requests_per_client: int = 24,
    gather_window: float = 0.008,
    max_batch: int = 32,
    seed: int = 0,
) -> Summary:
    """Closed-loop distinct-rectangle reads through one server."""
    base = uniform_points(n, universe=UNIVERSE, seed=seed)
    rects = _distinct_bands(clients * requests_per_client, seed + 1)
    sequences = [
        rects[cid * requests_per_client : (cid + 1) * requests_per_client]
        for cid in range(clients)
    ]
    engine = SkylineEngine.sharded(
        base,
        shard_count=4,
        block_size=16,
        memory_blocks=8,
        cache_capacity=0,
    )
    io_before = engine.io_total()
    collected: Dict[Tuple[float, float], List[Tuple]] = {}
    lock = threading.Lock()

    def client_loop(server: SkylineServer, cid: int) -> None:
        # Each client keeps two requests outstanding (a 2-deep
        # pipeline).  Keeping clients * depth below max_batch means the
        # window -- not the batch cap -- bounds every gather.
        local = {}
        pending = []
        for rect in sequences[cid]:
            pending.append(
                (
                    rect,
                    server.submit_query(
                        QueryRequest(rect=rect, consistency="fresh")
                    ),
                )
            )
            if len(pending) >= 2:
                rect_done, future = pending.pop(0)
                answer = _canon(future.result(timeout=120.0).points)
                local[(rect_done.x_lo, rect_done.x_hi)] = answer
        for rect_done, future in pending:
            answer = _canon(future.result(timeout=120.0).points)
            local[(rect_done.x_lo, rect_done.x_hi)] = answer
        with lock:
            collected.update(local)

    config = ServerConfig(gather_window=gather_window, max_batch=max_batch)
    started = time.perf_counter()
    with SkylineServer(engine, config) as server:
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
    answers_ok = all(
        collected.get((rect.x_lo, rect.x_hi))
        == _canon(range_skyline(base, rect))
        for rect in rects
    )
    return {
        "closed-loop-reads": {
            "submitted": float(clients * requests_per_client),
            "served": float(metrics["served"]),
            "read_batches": float(metrics["read_batches"]),
            "seconds": round(elapsed, 6),
            "throughput_rps": round(
                metrics["served"] / max(1e-9, elapsed), 1
            ),
            "blocks": float(engine.io_total() - io_before),
            "attributed_io": float(engine.attributed_io()),
            "maintenance_io": float(engine.maintenance_io()),
            "answers_ok": 1.0 if answers_ok else 0.0,
            "ledger_ok": 1.0 if _ledger_ok(engine) else 0.0,
        }
    }


# ----------------------------------------------------------------------
# Sweep + assertions
# ----------------------------------------------------------------------
def run_hotpath_sweep(
    merge_n: int = 120_000,
    merge_repeats: int = 10,
    serving_n: int = 8192,
    clients: int = 8,
    requests_per_client: int = 24,
    seed: int = 0,
) -> Tuple[BenchmarkTable, Summary]:
    """The two hot-path cells; see the module docstring for the claims."""
    summary: Summary = {}
    summary.update(
        run_merge_cell(n=merge_n, repeats=merge_repeats, seed=seed)
    )
    summary.update(
        run_serving_cell(
            n=serving_n,
            clients=clients,
            requests_per_client=requests_per_client,
            seed=seed,
        )
    )

    table = BenchmarkTable(
        f"Hot path -- columnar backend={backend_name()}, merge "
        f"n={merge_n}, serving {clients} clients "
        f"x {requests_per_client} distinct rectangles"
    )
    for mode in ("columnar-merge", "object-merge", "closed-loop-reads"):
        cell = summary[mode]
        table.add(
            measured_io=cell["blocks"],
            seconds=cell["seconds"],
            mode=mode,
            throughput_rps=cell.get("throughput_rps", 0.0),
            ledger_ok=cell["ledger_ok"],
        )
    return table, summary


def check(summary: Summary) -> None:
    """The acceptance assertions both pytest and the CLI enforce."""
    for mode, cell in summary.items():
        assert cell["ledger_ok"] == 1.0, (
            f"ledger partition broke in the {mode} cell"
        )
    columnar = summary["columnar-merge"]
    objects = summary["object-merge"]
    # The merge kernels are pure in-memory compute: zero transfers.
    assert columnar["blocks"] == objects["blocks"] == 0.0
    speedup = objects["median_s"] / max(1e-9, columnar["median_s"])
    assert speedup >= 2.0, (
        f"columnar merge speedup {speedup:.2f}x is below the 2x claim "
        f"(median {objects['median_s']:.4f}s vs {columnar['median_s']:.4f}s "
        f"per repeat)"
    )
    reads = summary["closed-loop-reads"]
    assert reads["answers_ok"] == 1.0, (
        "a served answer differs from range_skyline over the cell's points"
    )
    assert reads["served"] == reads["submitted"]
