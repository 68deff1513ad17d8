"""Streaming-tier benchmarks: delta notification I/O and window amortization.

Two claims, each measured in the repo's common currency (block transfers
on the simulated machines) next to wall-clock seconds:

1. **Delta vs naive notifications** (:func:`run_streaming_sweep` modes
   ``delta`` / ``naive``): the same Zipf-skewed insert stream lands on
   the same sharded engine twice, watched by the same ``subscribers``
   x-band rectangles.  The ``naive`` tier re-runs every subscription
   after every update (the recompute-per-tick baseline);
   the ``delta`` tier pumps a :class:`repro.stream.SubscriptionManager`,
   whose per-shard ``(uid, write_version)`` scopes recompute only the
   subscriptions overlapping a written shard.  With ``alpha = 4`` most
   updates hit one hot shard, so most subscriptions are skipped at zero
   transfers -- the acceptance bar is **naive >= 3x delta** on
   notification I/O, with both modes' final per-rectangle skylines
   identical and every delta's replay state matching a fresh recompute.

2. **Windowed maintenance vs replay** (modes ``windowed`` / ``replay``):
   the same strictly-x-increasing stream is consumed once by a
   :class:`repro.stream.WindowedSkyline` (attrition does the skyline
   maintenance at Theorem 3's O(1/b) amortized transfers per point) and
   once by a :class:`repro.structures.DynamicTopOpenStructure` kept in
   sync by insert-new / delete-expired replay (the logarithmic dynamic
   structure, as the baseline).  Checkpoint skylines are
   compared between the two, and the claim is a strictly smaller
   amortized per-point maintenance cost for the window.

Accounting discipline: in the engine-backed cells the ledger partition
``attributed + maintenance == total - build`` is asserted after *every
notification batch*, not just at the end; in the window cells the
:meth:`~repro.stream.WindowedSkyline.ledger_ok` partition
(``append + expire + query == total``) is asserted at every checkpoint.

``benchmarks/bench_streaming.py`` drives the sweep (pytest or
``--quick`` CLI) and persists the table to ``BENCH_streaming.json``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.reporting import BenchmarkTable
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.em.config import EMConfig
from repro.em.storage import StorageManager
from repro.engine import QueryRequest, SkylineEngine, UpdateRequest
from repro.engine.requests import SubscribeRequest
from repro.stream import SubscriptionManager, WindowedSkyline
from repro.structures.dynamic_topopen import DynamicTopOpenStructure
from repro.workloads import uniform_points, zipf_x_points

Summary = Dict[str, Dict[str, float]]


def _canon(points: Sequence[Point]) -> List[Tuple[float, float, object]]:
    return sorted((p.x, p.y, p.ident) for p in points)


def _ledger_ok(engine: SkylineEngine) -> bool:
    return (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


def _subscriber_rects(subscribers: int, universe: int) -> List[RangeQuery]:
    """``subscribers`` adjacent x-bands tiling the universe."""
    width = universe / subscribers
    return [
        RangeQuery(x_lo=i * width, x_hi=(i + 1) * width)
        for i in range(subscribers)
    ]


def _run_subscription_cell(
    mode: str,
    base: Sequence[Point],
    updates: Sequence[Point],
    rects: Sequence[RangeQuery],
    engine_kwargs: Dict[str, object],
) -> Tuple[Dict[str, float], List[List[Point]]]:
    """One notification tier over the shared stream; returns the cell
    counters and the final per-rectangle skylines (for cross-checking)."""
    engine = SkylineEngine.sharded(list(base), **engine_kwargs)
    manager = SubscriptionManager(engine)
    states: List[Dict[Tuple[float, float, object], Point]] = []
    if mode == "delta":
        subs = [manager.register(SubscribeRequest(rect))[0] for rect in rects]
    else:
        for rect in rects:
            result = engine.query(QueryRequest(rect))
            states.append({(p.x, p.y, p.ident): p for p in result.points})
    update_blocks = 0
    notify_blocks = 0
    notifications = 0
    ledger_checks = 0
    started = time.perf_counter()
    for point in updates:
        before = engine.io_total()
        engine.update(UpdateRequest.insert(point))
        update_blocks += engine.io_total() - before
        before = engine.io_total()
        if mode == "delta":
            deltas = manager.pump()
            notifications += len(deltas)
        else:
            # Naive tier: every subscription re-queried on every tick.
            for rect, state in zip(rects, states):
                result = engine.query(QueryRequest(rect))
                fresh = {(p.x, p.y, p.ident): p for p in result.points}
                if fresh != state:
                    state.clear()
                    state.update(fresh)
                    notifications += 1
        notify_blocks += engine.io_total() - before
        # The accounting identity must survive every notification batch.
        assert _ledger_ok(engine), f"{mode}: ledger partition broke mid-stream"
        ledger_checks += 1
    elapsed = time.perf_counter() - started
    if mode == "delta":
        finals = [sub.snapshot() for sub in subs]
        described = manager.describe()
        recomputed = float(described["recomputed"])  # type: ignore[arg-type]
        skipped = float(described["skipped"])  # type: ignore[arg-type]
        # Replay equivalence: each subscription's delta-replayed state
        # must equal a from-scratch recompute of its rectangle.
        for rect, final in zip(rects, finals):
            fresh = engine.query(QueryRequest(rect, consistency="fresh"))
            if _canon(final) != _canon(fresh.points):
                raise AssertionError(
                    f"delta replay state diverged from recompute on {rect}"
                )
    else:
        finals = [
            sorted(state.values(), key=lambda p: p.x) for state in states
        ]
        recomputed = float(len(updates) * len(rects))
        skipped = 0.0
    cell: Dict[str, float] = {
        "subscribers": float(len(rects)),
        "updates": float(len(updates)),
        "update_blocks": float(update_blocks),
        "notify_blocks": float(notify_blocks),
        "blocks": float(update_blocks + notify_blocks),
        "notifications": float(notifications),
        "recomputed": recomputed,
        "skipped": skipped,
        "ledger_checks": float(ledger_checks),
        "seconds": round(elapsed, 6),
        "attributed_io": float(engine.attributed_io()),
        "maintenance_io": float(engine.maintenance_io()),
        "io_total": float(engine.io_total()),
        "ledger_ok": 1.0 if _ledger_ok(engine) else 0.0,
    }
    return cell, finals


def _window_stream(
    stream_len: int, universe: int, seed: int
) -> List[Point]:
    """A strictly-x-increasing append stream with uniform y."""
    rng = random.Random(seed)
    return [
        Point(
            float(i) + rng.uniform(0.1, 0.9),
            rng.uniform(0, universe) + (i + 1) / (2.0 * (stream_len + 1)),
            ident=i,
        )
        for i in range(stream_len)
    ]


def _run_window_cells(
    window: int,
    stream_len: int,
    block_size: int,
    memory_blocks: int,
    query_every: int,
    seed: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The windowed structure vs dynamic-structure replay, same stream."""
    universe = 1_000_000
    stream = _window_stream(stream_len, universe, seed)

    # -- windowed: attrition maintains the skyline ----------------------
    skyline = WindowedSkyline(
        window,
        "count",
        em_config=EMConfig(block_size=block_size, memory_blocks=memory_blocks),
    )
    checkpoints: List[List[Point]] = []
    started = time.perf_counter()
    for i, point in enumerate(stream):
        skyline.append(point)
        if (i + 1) % query_every == 0:
            checkpoints.append(skyline.skyline())
            assert skyline.ledger_ok(), "window ledger partition broke"
    windowed_elapsed = time.perf_counter() - started
    windowed_maintenance = skyline.append_io + skyline.expire_io
    windowed_cell: Dict[str, float] = {
        "stream_len": float(stream_len),
        "window": float(window),
        "maintenance_blocks": float(windowed_maintenance),
        "maintenance_per_point": round(windowed_maintenance / stream_len, 4),
        "query_blocks": float(skyline.query_io),
        "blocks": float(skyline.io_total()),
        "checkpoints": float(len(checkpoints)),
        "seconds": round(windowed_elapsed, 6),
        "ledger_ok": 1.0 if skyline.ledger_ok() else 0.0,
    }

    # -- replay: the dynamic structure kept in sync by insert/delete ----
    storage = StorageManager(
        EMConfig(block_size=block_size, memory_blocks=memory_blocks)
    )
    build_io = storage.io_total()
    structure = DynamicTopOpenStructure(storage)
    build_io = storage.io_total() - build_io
    live: List[Point] = []
    replay_maintenance = 0
    replay_query = 0
    replay_checkpoints: List[List[Point]] = []
    started = time.perf_counter()
    for i, point in enumerate(stream):
        before = storage.io_total()
        structure.insert(point)
        live.append(point)
        if len(live) > window:
            structure.delete(live.pop(0))
        replay_maintenance += storage.io_total() - before
        if (i + 1) % query_every == 0:
            before = storage.io_total()
            replay_checkpoints.append(structure.global_skyline())
            replay_query += storage.io_total() - before
    replay_elapsed = time.perf_counter() - started
    replay_cell: Dict[str, float] = {
        "stream_len": float(stream_len),
        "window": float(window),
        "maintenance_blocks": float(replay_maintenance),
        "maintenance_per_point": round(replay_maintenance / stream_len, 4),
        "query_blocks": float(replay_query),
        "blocks": float(storage.io_total() - build_io),
        "checkpoints": float(len(replay_checkpoints)),
        "seconds": round(replay_elapsed, 6),
        # The replay baseline has no three-way meter; the partition
        # charged here is maintenance + query == total - build.
        "ledger_ok": 1.0
        if replay_maintenance + replay_query
        == storage.io_total() - build_io
        else 0.0,
    }

    # Cross-validation: both structures must report the same window
    # skyline at every checkpoint.
    matches = all(
        _canon(a) == _canon(b)
        for a, b in zip(checkpoints, replay_checkpoints)
    )
    windowed_cell["answers_match"] = 1.0 if matches else 0.0
    replay_cell["answers_match"] = 1.0 if matches else 0.0
    return windowed_cell, replay_cell


def run_streaming_sweep(
    n: int = 4096,
    subscribers: int = 8,
    updates: int = 192,
    shard_count: int = 8,
    block_size: int = 16,
    memory_blocks: int = 8,
    zipf_alpha: float = 4.0,
    window: int = 512,
    stream_len: int = 4096,
    query_every: int = 64,
    seed: int = 0,
) -> Tuple[BenchmarkTable, Summary]:
    """The four streaming cells; see the module docstring for the claims."""
    universe = 1_000_000
    base = uniform_points(n, universe=universe, seed=seed)
    stream = zipf_x_points(
        updates,
        universe=universe,
        alpha=zipf_alpha,
        ident_base=n,
        seed=seed + 1,
    )
    rects = _subscriber_rects(subscribers, universe)
    engine_kwargs: Dict[str, object] = dict(
        shard_count=shard_count,
        block_size=block_size,
        memory_blocks=memory_blocks,
        cache_capacity=0,
    )

    table = BenchmarkTable(
        f"Streaming tier -- n={n}, {subscribers} subscribers, "
        f"{updates} Zipf(alpha={zipf_alpha}) updates; window={window} over "
        f"{stream_len} appends, B={block_size}"
    )
    summary: Summary = {}

    # -- cells 1+2: delta vs naive notification I/O ---------------------
    finals: Dict[str, List[List[Point]]] = {}
    for mode in ("delta", "naive"):
        cell, final = _run_subscription_cell(
            mode, base, stream, rects, engine_kwargs
        )
        summary[mode] = cell
        finals[mode] = final
    matches = all(
        _canon(d) == _canon(v)
        for d, v in zip(finals["delta"], finals["naive"])
    )
    summary["delta"]["answers_match"] = 1.0 if matches else 0.0
    summary["naive"]["answers_match"] = 1.0 if matches else 0.0

    # -- cells 3+4: windowed skyline vs dynamic-structure replay --------
    windowed_cell, replay_cell = _run_window_cells(
        window, stream_len, block_size, memory_blocks, query_every, seed + 2
    )
    summary["windowed"] = windowed_cell
    summary["replay"] = replay_cell

    for mode in ("delta", "naive"):
        cell = summary[mode]
        table.add(
            measured_io=cell["notify_blocks"],
            seconds=cell["seconds"],
            mode=mode,
            subscribers=cell["subscribers"],
            updates=cell["updates"],
            notifications=cell["notifications"],
            recomputed=cell["recomputed"],
            skipped=cell["skipped"],
            update_io=cell["update_blocks"],
        )
    for mode in ("windowed", "replay"):
        cell = summary[mode]
        table.add(
            measured_io=cell["maintenance_blocks"],
            seconds=cell["seconds"],
            mode=mode,
            stream_len=cell["stream_len"],
            window=cell["window"],
            per_point=cell["maintenance_per_point"],
            query_io=cell["query_blocks"],
            checkpoints=cell["checkpoints"],
        )
    return table, summary


def check(summary: Summary) -> None:
    """The acceptance assertions both pytest and the CLI enforce."""
    for mode, cell in summary.items():
        assert cell["ledger_ok"] == 1.0, (
            f"ledger partition broke in the {mode} cell"
        )
        assert cell["answers_match"] == 1.0, (
            f"the {mode} cell's answers diverged from its counterpart"
        )
    delta = summary["delta"]
    naive = summary["naive"]
    assert delta["subscribers"] >= 8, "the claim needs >= 8 subscribers"
    assert delta["skipped"] > 0, (
        "write-version scoping never skipped a subscription; the "
        "comparison is vacuous"
    )
    assert delta["recomputed"] > 0 and delta["notifications"] > 0, (
        "the delta tier never delivered anything"
    )
    # The headline claim: scoped delta delivery beats re-query-per-tick
    # by at least 3x on notification block transfers.
    assert naive["notify_blocks"] >= 3.0 * delta["notify_blocks"], (
        f"delta notifications saved less than 3x: naive "
        f"{naive['notify_blocks']} vs delta {delta['notify_blocks']} blocks"
    )
    windowed = summary["windowed"]
    replay = summary["replay"]
    assert windowed["checkpoints"] == replay["checkpoints"]
    # Theorem 3's amortized O(1/b) window maintenance must undercut the
    # logarithmic dynamic-structure replay per appended point.
    assert (
        windowed["maintenance_per_point"] < replay["maintenance_per_point"]
    ), (
        f"window maintenance ({windowed['maintenance_per_point']}/pt) did "
        f"not beat replay ({replay['maintenance_per_point']}/pt)"
    )
