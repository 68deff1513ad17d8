"""Tests for the async serving runtime (repro.serve).

The acceptance properties:

* **Concurrency equivalence** -- N concurrent clients driving phased
  update/query rounds through a :class:`SkylineServer` get per-query
  answers identical to a serial engine replaying the same operations,
  and the served engine's ledger partition
  ``attributed + maintenance == total - build`` stays exact.
* **Coalescing** -- identical requests submitted by many callers inside
  one gather window execute once (fan-in = submitters) and each caller
  still gets the full answer; ``max_batch=1`` serves the same answers.
* **Admission control** -- the ``shed`` policy fails exactly the
  overflow with a typed :class:`Overloaded` carrying its
  :class:`ServingReport`; the ``block`` policy's ``submit_timeout``
  sheds too; expired deadlines fail queued work with
  :class:`DeadlineExceeded`; a stopped server raises
  :class:`ServerClosed`.
* **Worker pool** -- the uid-keyed pool tracks topology changes
  (retire/create only the rewritten shards) and executes batches
  block-identically to the default inline executor, waits for every
  worklist before re-raising a failure, and leaves no worker behind
  once its server stops.
* **Auto-reclaim** -- ``ServiceConfig(reclaim_every_topology_ops=N)``
  interleaves durable-store reclamation with every Nth topology
  operation.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time

import pytest

from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.engine import SkylineEngine, UpdateRequest
from repro.serve import (
    DeadlineExceeded,
    Overloaded,
    ServerClosed,
    ServerConfig,
    ShardWorkerPool,
    SkylineServer,
)
from repro.serve.metrics import percentile
from repro.service import ServiceConfig, SkylineService
from repro.workloads import uniform_points

CFG = dict(shard_count=4, block_size=16, memory_blocks=8)


def _canon(points):
    return sorted((p.x, p.y, p.ident) for p in points)


def _queries(count: int, universe: int, seed: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        width = universe * rng.uniform(0.1, 0.4)
        x_lo = rng.uniform(0, universe - width)
        out.append(RangeQuery(x_lo=x_lo, x_hi=x_lo + width))
    return out


# ----------------------------------------------------------------------
# Concurrency equivalence
# ----------------------------------------------------------------------
def test_concurrent_clients_match_serial_engine_exactly():
    clients, rounds, n = 4, 6, 512
    universe = 1_000_000
    all_points = uniform_points(n + clients * rounds, universe=universe, seed=11)
    base, payload = all_points[:n], all_points[n:]
    inserts = [
        [payload[cid * rounds + r] for r in range(rounds)]
        for cid in range(clients)
    ]
    probes = [
        _queries(rounds, universe, seed=50 + cid) for cid in range(clients)
    ]

    engine = SkylineEngine.sharded(base, **CFG)
    server = SkylineServer(engine, ServerConfig(gather_window=0.001))
    barrier = threading.Barrier(clients)
    answers = [[] for _ in range(clients)]
    errors = []

    def client(cid: int) -> None:
        try:
            for r in range(rounds):
                served = server.update(UpdateRequest.insert(inserts[cid][r]))
                assert served.applied
                assert served.serving.lane == "write"
                barrier.wait(timeout=30)  # all round-r writes are durable
                result = server.query(probes[cid][r])
                answers[cid].append(_canon(result.points))
                barrier.wait(timeout=30)  # all round-r reads done
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            raise

    threads = [
        threading.Thread(target=client, args=(cid,)) for cid in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    server.stop()
    assert not errors

    # Serial replay: same rounds, updates before queries, one caller.
    serial = SkylineEngine.sharded(base, **CFG)
    for r in range(rounds):
        for cid in range(clients):
            assert serial.insert(inserts[cid][r]).applied
        for cid in range(clients):
            expected = _canon(serial.query(probes[cid][r]).points)
            assert answers[cid][r] == expected, (cid, r)

    # The ledger partition survives arbitrary concurrency.
    assert (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
def test_identical_requests_coalesce_onto_one_execution():
    base = uniform_points(256, universe=100_000, seed=3)
    engine = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    expected = _canon(engine.query(RangeQuery(x_hi=40_000.0)).points)
    server = SkylineServer(engine, start=False)
    futures = [
        server.submit_query(RangeQuery(x_hi=40_000.0)) for _ in range(12)
    ]
    server.start()
    served = [f.result(timeout=30) for f in futures]
    server.stop()
    assert all(s.serving.coalesce_fanin == 12 for s in served)
    assert all(_canon(s.points) == expected for s in served)
    assert server.metrics.executed_reads == 1
    assert server.metrics.coalesced_followers == 11


def test_contained_rectangle_is_served_from_larger_computation():
    base = uniform_points(256, universe=100_000, seed=3)
    engine = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    big = RangeQuery(x_lo=10_000.0)  # dominant corner (inf, inf)
    mid = RangeQuery(x_lo=30_000.0)
    small = RangeQuery(x_lo=50_000.0, y_lo=20_000.0)
    expected = {q: _canon(engine.query(q).points) for q in (big, mid, small)}
    server = SkylineServer(engine, start=False)
    futures = {
        q: [server.submit_query(q) for _ in range(2)]
        for q in (small, mid, big)
    }
    server.start()
    served = {q: [f.result(timeout=30) for f in fs] for q, fs in futures.items()}
    server.stop()
    for q, responses in served.items():
        assert all(_canon(s.points) == expected[q] for s in responses), q
    # Only the outermost rectangle executed; the nested ones were served
    # by filtering its answer (exact: shared dominant corner).
    assert server.metrics.executed_reads == 1
    assert server.metrics.coalesced_followers == 5
    for responses in served.values():
        assert all(s.serving.coalesce_fanin == 6 for s in responses)
    for q in (mid, small):
        assert all(s.report.coalesced for s in served[q])
        assert all(s.report.blocks == 0 for s in served[q])


def test_nested_follower_reports_its_own_shard_fanout():
    base = uniform_points(256, universe=100_000, seed=3)
    engine = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    big = RangeQuery(x_lo=1_000.0)
    small = RangeQuery(x_lo=40_000.0, y_lo=20_000.0)  # same corner, fewer shards
    plan = engine.explain(small)
    assert (plan.shards_visited, plan.shards_pruned) == (3, 1)
    server = SkylineServer(engine, start=False)
    futures = [server.submit_query(small), server.submit_query(big)]
    server.start()
    follower, leader = [f.result(timeout=30) for f in futures]
    server.stop()
    assert follower.report.coalesced and not leader.report.coalesced
    assert (follower.report.shards_visited, follower.report.shards_pruned) == (3, 1)
    assert (leader.report.shards_visited, leader.report.shards_pruned) == (4, 0)


def test_containment_requires_shared_dominant_corner():
    base = uniform_points(256, universe=100_000, seed=7)
    engine = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    big = RangeQuery(x_lo=10_000.0)
    clipped = RangeQuery(x_lo=30_000.0, x_hi=60_000.0)  # x_hi differs
    expected = {q: _canon(engine.query(q).points) for q in (big, clipped)}
    server = SkylineServer(engine, start=False)
    futures = [server.submit_query(clipped), server.submit_query(big)]
    server.start()
    served = [f.result(timeout=30) for f in futures]
    server.stop()
    # Geometric containment alone is not servable -- a point of the
    # clipped rectangle may be dominated only by points beyond its top
    # or right edge -- so both rectangles execute.
    assert server.metrics.executed_reads == 2
    assert server.metrics.coalesced_followers == 0
    assert _canon(served[0].points) == expected[clipped]
    assert _canon(served[1].points) == expected[big]


def test_uncoalesced_mode_serves_same_answers():
    base = uniform_points(256, universe=100_000, seed=3)
    engine = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    server = SkylineServer(engine, ServerConfig(max_batch=1), start=False)
    q = RangeQuery(x_hi=40_000.0)
    futures = [server.submit_query(q) for _ in range(5)]
    server.start()
    served = [f.result(timeout=30) for f in futures]
    server.stop()
    assert all(s.serving.coalesce_fanin == 1 for s in served)
    assert len({tuple(_canon(s.points)) for s in served}) == 1
    assert server.metrics.executed_reads == 5


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_shed_policy_fails_exactly_the_overflow():
    base = uniform_points(128, universe=100_000, seed=5)
    engine = SkylineEngine.sharded(base, **CFG)
    server = SkylineServer(
        engine,
        ServerConfig(backpressure="shed", max_read_queue=4),
        start=False,
    )
    futures = [
        server.submit_query(RangeQuery(x_hi=float(1000 * (i + 1))))
        for i in range(10)
    ]
    # Shed futures resolve synchronously at submit; queued ones are
    # still pending until the server starts.
    shed = [
        f
        for f in futures
        if f.done() and isinstance(f.exception(), Overloaded)
    ]
    assert len(shed) == 6  # everything past the queue bound, synchronously
    err = shed[0].exception()
    assert err.serving.shed and err.serving.lane == "read"
    server.start()
    for f in futures:
        if f not in shed:
            assert f.result(timeout=30).serving.shed is False
    server.stop()
    assert server.metrics.shed == 6


def test_block_policy_submit_timeout_sheds():
    base = uniform_points(128, universe=100_000, seed=5)
    engine = SkylineEngine.sharded(base, **CFG)
    server = SkylineServer(
        engine,
        ServerConfig(
            backpressure="block", max_read_queue=2, submit_timeout=0.01
        ),
        start=False,
    )
    futures = [
        server.submit_query(RangeQuery(x_hi=float(1000 * (i + 1))))
        for i in range(3)
    ]
    assert isinstance(futures[2].exception(), Overloaded)
    server.start()
    assert futures[0].result(timeout=30)
    server.stop()


def test_expired_deadline_fails_queued_request():
    base = uniform_points(128, universe=100_000, seed=5)
    engine = SkylineEngine.sharded(base, **CFG)
    with SkylineServer(engine) as server:
        future = server.submit_query(RangeQuery(), deadline=-1.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            future.result(timeout=30)
        assert excinfo.value.serving.timed_out
        assert server.metrics.timed_out == 1
        # A sane deadline still serves.
        assert server.query(RangeQuery(), deadline=30.0).points is not None


def test_stopped_server_raises_server_closed():
    base = uniform_points(64, universe=100_000, seed=5)
    engine = SkylineEngine.sharded(base, **CFG)
    server = SkylineServer(engine)
    assert len(server.query(RangeQuery())) > 0
    server.stop()
    with pytest.raises(ServerClosed):
        server.submit_query(RangeQuery())
    server.stop()  # idempotent


# ----------------------------------------------------------------------
# Async API
# ----------------------------------------------------------------------
def test_async_clients_share_the_server():
    base = uniform_points(256, universe=100_000, seed=9)
    engine = SkylineEngine.sharded(base, **CFG)
    fresh = Point(2_000_000.0, 2_000_000.5, ident=777_777)

    async def drive(server: SkylineServer):
        reads = [server.aquery(RangeQuery(x_hi=30_000.0)) for _ in range(6)]
        write = server.ainsert(fresh)
        results = await asyncio.gather(*reads, write)
        return results

    with SkylineServer(engine) as server:
        *reads, write = asyncio.run(drive(server))
        assert write.applied
        assert len({tuple(_canon(r.points)) for r in reads}) == 1
        assert all(r.serving.lane == "read" for r in reads)


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
def test_worker_pool_tracks_topology_by_uid():
    base = uniform_points(512, universe=1_000_000, seed=21)
    service = SkylineService(base, ServiceConfig(**CFG))
    service.batch_executor = pool = ShardWorkerPool(service)
    pool.sync()
    before = {shard.uid for shard in service.shards}
    assert set(pool.workers) == before

    assert service.split_shard(1) is not None
    pool.sync()
    after = {shard.uid for shard in service.shards}
    assert set(pool.workers) == after
    # Only the split shard's worker retired; two children created.
    assert pool.retired == 1
    assert pool.created == len(before) + 2
    # Batches through the pool still answer correctly.
    probe = RangeQuery(x_hi=500_000.0)
    assert service.query_many([probe])[0] == service.query(probe)
    pool.close()
    assert not pool.workers


def test_worker_pool_charges_identical_blocks_to_default_executor():
    # The same fixed batches through the server's read path (on its
    # worker pool) and through query_batch_shared on an engine with no
    # server (inline executor).  Composition is pinned, so answers, each
    # batch's blocks and the ledger totals must be equal.
    base = uniform_points(512, universe=1_000_000, seed=22)
    probes = _queries(12, 1_000_000, seed=23)
    plain = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    pooled = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    server = SkylineServer(pooled, start=False)
    # Deletes in several shards make the probes' tombstone-fallback
    # rescans run -- and charge their shards -- on the pool's workers.
    victims = base[::64]
    router = plain.backend.service.router
    assert len({router.route_point(p.x) for p in victims}) > 1
    for victim in victims:
        assert plain.delete(victim).applied and pooled.delete(victim).applied
    fallbacks = 0
    for batch_start in range(0, len(probes), 4):
        batch = probes[batch_start : batch_start + 4]
        expected, report = plain.query_batch_shared(batch)
        submissions = [_Submission(QueryRequest(rect=rect)) for rect in batch]
        server._serve_read_batch(submissions)
        got = [s.future.result(timeout=10.0) for s in submissions]
        assert [_canon(r.points) for r in got] == [
            _canon(r.points) for r in expected
        ]
        assert [r.serving.batch_blocks for r in got] == [report.blocks] * 4
        fallbacks += sum(r.report.tombstone_fallback for r in got)
    server.stop()
    assert fallbacks > 0
    assert pooled.io_total() == plain.io_total()


def test_stopped_server_uninstalls_its_worker_pool():
    base = uniform_points(512, universe=1_000_000, seed=25)
    engine = SkylineEngine.sharded(base, **CFG)
    before = set(threading.enumerate())

    def shard_threads():
        return [
            t
            for t in threading.enumerate()
            if t not in before and t.name.startswith("skyserve-shard-")
        ]

    with SkylineServer(engine) as server:
        server.query(RangeQuery())
        assert len(shard_threads()) == CFG["shard_count"]
    assert engine.backend.service.batch_executor is None
    assert not shard_threads()
    # A direct query afterwards runs inline, starting no worker.
    for _ in range(3):
        engine.query(RangeQuery(x_hi=500_000.0))
    assert not shard_threads()


def test_worker_pool_waits_for_every_worklist_before_raising():
    base = uniform_points(512, universe=1_000_000, seed=24)
    service = SkylineService(base, ServiceConfig(**CFG))
    pool = ShardWorkerPool(service)
    running = set()
    guard = threading.Lock()

    def shard_query(sid, query):
        if sid == 0:
            # Fail only once the other two worklists are running.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with guard:
                    if len(running) == 2:
                        break
                time.sleep(0.001)
            raise RuntimeError("shard 0 failed")
        with guard:
            running.add(sid)
        time.sleep(0.2)
        with guard:
            running.discard(sid)
        return [], False

    probe = RangeQuery()
    worklists = {sid: [(0, probe)] for sid in range(3)}
    with pytest.raises(RuntimeError, match="shard 0 failed"):
        pool(worklists, shard_query)
    # Once the call has raised, no worker still reads a shard for it.
    with guard:
        assert not running
    pool.close()


# ----------------------------------------------------------------------
# Reports and metrics
# ----------------------------------------------------------------------
def test_describe_reports_server_and_engine_state():
    base = uniform_points(256, universe=100_000, seed=13)
    engine = SkylineEngine.sharded(base, **CFG)
    with SkylineServer(engine) as server:
        server.query(RangeQuery(x_hi=50_000.0))
        server.insert(Point(3_000_000.0, 3_000_000.5, ident=888_888))
        status = server.describe()
    tier = status["server"]
    assert tier["served_reads"] == 1 and tier["served_writes"] == 1
    assert tier["latency_p99_s"] >= tier["latency_p50_s"] >= 0.0
    backend = status["backend"]
    assert tier["worker_pool"]["workers"] == len(backend["shard_uids"])
    assert backend["backend"] == "sharded-service"


def test_serving_report_composes_with_execution_report():
    base = uniform_points(256, universe=100_000, seed=13)
    engine = SkylineEngine.sharded(base, cache_capacity=0, **CFG)
    with SkylineServer(engine) as server:
        served = server.query(RangeQuery(x_hi=50_000.0))
    assert served.serving.latency_s == pytest.approx(
        served.serving.queue_wait_s + served.serving.service_s
    )
    assert served.serving.batch_blocks >= 1  # cold engine paid real I/O
    assert served.report.backend == "sharded-service"  # engine-side report


def test_percentile_is_nearest_rank():
    assert percentile([], 0.99) == 0.0
    assert percentile([5.0], 0.99) == 5.0
    values = list(range(100))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99


# ----------------------------------------------------------------------
# Auto-reclaim (ServiceConfig.reclaim_every_topology_ops)
# ----------------------------------------------------------------------
def test_auto_reclaim_interleaves_with_topology_ops():
    pool = uniform_points(512 + 96, universe=1_000_000, seed=31)
    service = SkylineService(
        pool[:512],
        ServiceConfig(durability=True, reclaim_every_topology_ops=2, **CFG),
    )
    for point in pool[512:]:
        service.insert(point)
    assert service.split_shard(0) is not None
    assert service.auto_reclaims == 0  # first op: cadence not reached
    assert service.split_shard(0) is not None
    assert service.auto_reclaims == 1  # second op reclaimed
    service.merge_shards(0)
    service.merge_shards(0)
    assert service.auto_reclaims == 2
    assert service.describe()["durability_detail"]["auto_reclaims"] == 2
    # Reclaim kept only the newest manifest.
    assert len(service.store.manifests) <= 1


def test_auto_reclaim_disabled_and_non_durable_are_inert():
    base = uniform_points(256, universe=1_000_000, seed=33)
    plain = SkylineService(base, ServiceConfig(**CFG))
    plain.split_shard(0)
    plain.split_shard(0)
    assert plain.auto_reclaims == 0
    durable_off = SkylineService(
        base,
        ServiceConfig(durability=True, reclaim_every_topology_ops=0, **CFG),
    )
    durable_off.split_shard(0)
    durable_off.split_shard(0)
    assert durable_off.auto_reclaims == 0


def test_config_rejects_negative_reclaim_cadence():
    with pytest.raises(ValueError):
        ServiceConfig(reclaim_every_topology_ops=-1)
    with pytest.raises(ValueError):
        ServerConfig(gather_window=-0.1)
    with pytest.raises(ValueError):
        ServerConfig(backpressure="drop")


# ----------------------------------------------------------------------
# Subscription lane (repro.stream wired through the server)
# ----------------------------------------------------------------------
import queue as _queue  # noqa: E402
import time  # noqa: E402

from repro.engine import QueryRequest, SubscribeRequest  # noqa: E402
from repro.serve.server import _Submission  # noqa: E402

_DOMINATOR = Point(2_000_000.0, 2_000_000.5, ident=777_777)


def _sub_server(seed=17, config=None, start=True):
    base = uniform_points(256, universe=100_000, seed=seed)
    return SkylineServer(SkylineEngine.sharded(base, **CFG), config, start=start)


def test_subscription_delivers_initial_snapshot_then_write_deltas():
    with _sub_server() as server:
        handle = server.subscribe(RangeQuery())
        initial = handle.get(timeout=5.0)
        assert initial.revision == 0
        view = {(p.x, p.y, p.ident) for p in initial.entered}
        assert view  # the current skyline arrived as "entered"

        server.insert(_DOMINATOR)
        delta = handle.get(timeout=5.0)
        assert delta.revision == 1
        assert delta.report.kind == "delta"
        for p in delta.left:
            view.discard((p.x, p.y, p.ident))
        for p in delta.entered:
            view.add((p.x, p.y, p.ident))
        served = server.query(RangeQuery())
        assert view == {(p.x, p.y, p.ident) for p in served.points}

        handle.close()
        assert handle.get(timeout=5.0) is None  # clean end
        assert handle.closed


def test_subscription_without_snapshot_sees_only_changes():
    with _sub_server() as server:
        handle = server.subscribe(
            SubscribeRequest(RangeQuery(), initial_snapshot=False)
        )
        server.insert(_DOMINATOR)
        delta = handle.get(timeout=5.0)
        assert (_DOMINATOR.x, _DOMINATOR.y, _DOMINATOR.ident) in {
            (p.x, p.y, p.ident) for p in delta.entered
        }
        handle.close()


def test_subscription_callback_is_invoked_inline():
    received = []
    with _sub_server() as server:
        handle = server.subscribe(RangeQuery(), callback=received.append)
        assert received and received[0].revision == 0  # initial, inline
        server.insert(_DOMINATOR)
        deadline = time.perf_counter() + 5.0
        while len(received) < 2 and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert len(received) >= 2 and handle.delivered == len(received)


def test_subscription_async_iterator_ends_on_close():
    async def scenario(server):
        handle = server.subscribe(SubscribeRequest(RangeQuery()))
        seen = []

        async def consume():
            async for delta in handle.deltas():
                seen.append(delta)

        task = asyncio.get_running_loop().create_task(consume())
        await server.ainsert(_DOMINATOR)
        deadline = time.perf_counter() + 5.0
        while len(seen) < 2 and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        handle.close()
        await task  # the iterator finishes by itself
        return seen

    with _sub_server() as server:
        seen = asyncio.run(scenario(server))
    assert [d.revision for d in seen[:2]] == [0, 1]


def test_undrained_subscription_is_shed_with_overloaded():
    config = ServerConfig(max_subscription_queue=1)
    with _sub_server(config=config) as server:
        handle = server.subscribe(SubscribeRequest(RangeQuery()))
        # The initial snapshot fills the queue; the next delta cannot
        # fit, so the server cancels the consumer like any overflow.
        server.insert(_DOMINATOR)
        deadline = time.perf_counter() + 5.0
        while not handle.closed and time.perf_counter() < deadline:
            time.sleep(0.005)
        assert handle.closed
        with pytest.raises(Overloaded) as excinfo:
            while True:
                assert handle.get(timeout=5.0) is not None
        assert excinfo.value.serving.lane == "notify"
        assert excinfo.value.serving.shed
        assert server.describe()["server"]["subscriptions"]["shed"] == 1


def test_expired_subscription_deadline_cancels_with_deadline_exceeded():
    with _sub_server() as server:
        handle = server.subscribe(RangeQuery(), deadline=0.001)
        assert handle.get(timeout=5.0).revision == 0  # initial still lands
        time.sleep(0.01)
        server.insert(_DOMINATOR)  # first delivery past the deadline
        with pytest.raises(DeadlineExceeded) as excinfo:
            while True:
                assert handle.get(timeout=5.0) is not None
        assert excinfo.value.serving.lane == "notify"
        assert excinfo.value.serving.timed_out
        assert handle.closed


def test_unsubscribe_is_idempotent_and_scoping_is_reported():
    with _sub_server() as server:
        handle = server.subscribe(RangeQuery())
        status = server.describe()["server"]["subscriptions"]
        assert status["active"] == 1 and status["notified"] >= 1
        assert server.unsubscribe(handle.sub_id) is True
        assert server.unsubscribe(handle.sub_id) is False
        handle.close()  # idempotent with unsubscribe
        assert server.describe()["server"]["subscriptions"]["active"] == 0
        # Ended cleanly: the pending initial delta still drains, then
        # the iterator finishes instead of raising.
        assert [d.revision for d in handle] == [0]


def test_subscribing_on_a_stopped_server_raises():
    server = _sub_server()
    server.start()
    server.stop()
    with pytest.raises(ServerClosed):
        server.subscribe(RangeQuery())


# ----------------------------------------------------------------------
# Arrival-aware gather window (EWMA of inter-arrival gaps)
# ----------------------------------------------------------------------
def _arrivals(start, gaps):
    at = start
    out = []
    for gap in [0.0] + list(gaps):
        at += gap
        out.append(_Submission(request=QueryRequest(), enqueued_at=at))
    return out


def test_gather_window_before_any_traffic_is_the_configured_one():
    with _sub_server(config=ServerConfig(gather_window=0.002)) as server:
        assert server.current_gather_window() == 0.002
        # One arrival gives no gap yet: still no estimate.
        server._observe_arrivals(_arrivals(100.0, []))
        assert server.current_gather_window() == 0.002
        status = server.describe()["server"]
        assert status["gather_window_s"] == 0.002
        assert status["arrival_ewma_s"] is None
        assert "adaptive_gather" not in status


def test_gather_window_closes_when_reads_arrive_further_apart():
    with _sub_server(config=ServerConfig(gather_window=0.002)) as server:
        server._observe_arrivals(_arrivals(100.0, [0.005] * 8))
        assert server.current_gather_window() == 0.0
        status = server.describe()["server"]
        assert status["gather_window_s"] == 0.0
        assert status["configured_gather_window_s"] == 0.002
        assert status["arrival_ewma_s"] == pytest.approx(0.005)


def test_gather_window_stays_open_when_reads_arrive_closer():
    with _sub_server(config=ServerConfig(gather_window=0.002)) as server:
        server._observe_arrivals(_arrivals(100.0, [0.0005] * 8))
        assert server.current_gather_window() == 0.002
        # Folded across batches: the gap to the previous batch counts.
        server._observe_arrivals(_arrivals(100.0045, [0.0005] * 3))
        assert server.current_gather_window() == 0.002
        assert server.describe()["server"]["arrival_ewma_s"] == pytest.approx(
            0.0005
        )


def test_gather_window_reopens_soon_after_an_idle_pause():
    with _sub_server(config=ServerConfig(gather_window=0.002)) as server:
        # A trickle far apart closes the window ...
        server._observe_arrivals(_arrivals(100.0, [0.05] * 20))
        assert server.current_gather_window() == 0.0
        # ... an hour of silence, then reads back to back, each its own
        # batch: the capped gaps let waiting resume within 8 arrivals.
        at = 100.0 + 20 * 0.05 + 3600.0
        for arrivals in range(1, 9):
            server._observe_arrivals(_arrivals(at, []))
            if server.current_gather_window() == 0.002:
                break
            at += 1e-5
        assert server.current_gather_window() == 0.002
        assert arrivals <= 8


def test_sparse_reads_do_not_wait_out_the_window():
    window = 0.05
    with _sub_server(config=ServerConfig(gather_window=window)) as server:
        waits = []
        due = time.perf_counter()
        for _ in range(6):
            time.sleep(max(0.0, due - time.perf_counter()))
            due = time.perf_counter() + 0.1
            served = server.query(RangeQuery(), timeout=10.0)
            waits.append(served.serving.queue_wait_s)
        status = server.describe()["server"]
    # The first two reads have no gap estimate yet and wait for company;
    # from the third on the estimate (>= 0.1 s) exceeds the window.
    assert all(wait < window for wait in waits[2:]), waits
    assert status["gather_window_s"] == 0.0
    assert status["arrival_ewma_s"] > window


def test_pipelined_dispatcher_blocks_instead_of_polling():
    # A zero window must not spin on the queue: count the dispatcher's
    # queue reads around one slow batch.
    class CountingQueue(_queue.Queue):
        gets = 0

        def get(self, block=True, timeout=None):
            CountingQueue.gets += 1
            return super().get(block, timeout)

    config = ServerConfig(gather_window=0.0)
    server = _sub_server(config=config, start=False)
    server._read_queue = CountingQueue(config.max_read_queue)
    serve_batch = server._serve_read_batch

    def slow_batch(batch):
        time.sleep(0.3)
        serve_batch(batch)

    server._serve_read_batch = slow_batch
    with server.start():
        served = server.query(RangeQuery(), timeout=10.0)
    assert served.serving.latency_s >= 0.3
    # One blocking read per idle-poll period (20 ms); a busy-polling
    # dispatcher makes tens of thousands.
    assert CountingQueue.gets < 100, CountingQueue.gets


def test_gather_window_opens_at_the_previous_dispatch():
    # A read pulled while the window the previous dispatch opened is
    # still running down waits only for the rest of it.
    window, execute = 0.2, 0.1
    server = _sub_server(config=ServerConfig(gather_window=window), start=False)
    serve_batch = server._serve_read_batch
    dispatched = []

    def slow_batch(batch):
        dispatched.append(time.perf_counter())
        time.sleep(execute)
        serve_batch(batch)

    server._serve_read_batch = slow_batch
    with server.start():
        first_submitted = time.perf_counter()
        server.query(RangeQuery(), timeout=10.0)
        # Submitted as the first batch returns: about window - execute
        # of its window is left.
        second_submitted = time.perf_counter()
        server.query(RangeQuery(), timeout=10.0)
    # The first read had no previous dispatch: a fresh window.
    assert dispatched[0] - first_submitted >= window * 0.9
    waited = dispatched[1] - second_submitted
    assert waited < window - execute / 2, waited


def test_streaming_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(max_subscription_queue=0)
