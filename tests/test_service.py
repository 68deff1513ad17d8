"""Tests for the sharded skyline service (repro.service).

The acceptance property is *shard-count invariance*: whatever the shard
count, with or without a pending delta, before and after compaction, the
service answers exactly like the naive scan baseline
(:class:`repro.baselines.naive.NaiveScanSkyline`).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FourSidedQuery,
    Point,
    RangeQuery,
    RangeSkylineIndex,
    RightOpenQuery,
    TopOpenQuery,
)
from repro.baselines.naive import NaiveScanSkyline
from repro.core.skyline import range_skyline
from repro.em import EMConfig, StorageManager
from repro.serve import ShardWorkerPool
from repro.service import (
    DeltaBuffer,
    ResultCache,
    ServiceConfig,
    ShardRouter,
    SkylineService,
    merge_shard_skylines,
    size_balanced_cuts,
)
from repro.workloads import (
    anticorrelated_points,
    clustered_points,
    correlated_points,
    grid_permutation_points,
    uniform_points,
)

DISTRIBUTIONS = {
    "uniform": uniform_points,
    "correlated": correlated_points,
    "anticorrelated": anticorrelated_points,
    "clustered": clustered_points,
    "grid": grid_permutation_points,
}


def canon(points):
    return sorted((p.x, p.y) for p in points)


def random_queries(points, count, rng):
    """A mix of top-open, right-open and 4-sided rectangles over the data."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    queries = []
    for _ in range(count):
        a, b = sorted(rng.uniform(x_lo, x_hi) for _ in range(2))
        c, d = sorted(rng.uniform(y_lo, y_hi) for _ in range(2))
        queries.append(TopOpenQuery(a, b, c))
        queries.append(RightOpenQuery(a, c, d))
        queries.append(FourSidedQuery(a, b, c, d))
    return queries


def naive_answers(points, queries):
    baseline = NaiveScanSkyline(
        StorageManager(EMConfig(block_size=16, memory_blocks=16)), points
    )
    return [canon(baseline.query(query)) for query in queries]


# ----------------------------------------------------------------------
# Acceptance: shard-count invariance at n ~ 5k, through updates + compact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_count", [1, 4, 16])
def test_shard_count_invariance_5k(shard_count):
    rng = random.Random(shard_count)
    points = uniform_points(5_000, universe=1_000_000, seed=11)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=shard_count,
            block_size=32,
            memory_blocks=16,
            delta_threshold=10_000,  # compaction is triggered explicitly below
        ),
    )
    live = list(points)
    queries = random_queries(points, 4, rng)

    # Static phase: fresh service vs the naive scan baseline.
    expected = naive_answers(live, queries)
    got = service.query_many(queries)
    assert [canon(r) for r in got] == expected

    # Interleaved updates: inserts at off-grid coordinates (the original
    # points have integer x), deletes of both static and pending points.
    fresh = [
        Point(p.x + 0.5, p.y + 0.25, ident=100_000 + i)
        for i, p in enumerate(uniform_points(250, universe=1_000_000, seed=97))
    ]
    for index, point in enumerate(fresh):
        service.insert(point)
        live.append(point)
        if index % 2 == 0:
            victim = live.pop(rng.randrange(len(live)))
            assert service.delete(victim)
    assert len(service) == len(live)

    # With the delta pending.
    expected = naive_answers(live, queries)
    got = service.query_many(queries)
    assert [canon(r) for r in got] == expected

    # After compaction the same answers come from rebuilt static shards.
    service.compact()
    assert len(service.delta) == 0
    got = service.query_many(queries)
    assert [canon(r) for r in got] == expected
    assert canon(service.skyline()) == canon(range_skyline(live, RangeQuery()))


# ----------------------------------------------------------------------
# Property test: every distribution, random shard counts, with delta
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    distribution=st.sampled_from(sorted(DISTRIBUTIONS)),
    shard_count=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**20),
    with_delta=st.booleans(),
)
def test_service_matches_naive_baseline(distribution, shard_count, seed, with_delta):
    rng = random.Random(seed)
    points = DISTRIBUTIONS[distribution](150, seed=seed)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=shard_count,
            block_size=16,
            memory_blocks=8,
            delta_threshold=10_000,
        ),
    )
    live = list(points)
    if with_delta:
        for i in range(12):
            base = live[rng.randrange(len(live))]
            point = Point(base.x + 0.25 + i * 1e-6, base.y + 0.25 + i * 1e-6, 10_000 + i)
            service.insert(point)
            live.append(point)
        for _ in range(6):
            victim = live.pop(rng.randrange(len(live)))
            assert service.delete(victim)
    queries = random_queries(points, 3, rng)
    expected = naive_answers(live, queries)
    got = service.query_many(queries)
    assert [canon(r) for r in got] == expected


# ----------------------------------------------------------------------
# Component behaviour
# ----------------------------------------------------------------------
def test_router_prunes_and_routes():
    points = [Point(float(i), float(i % 7) + i * 1e-3, i) for i in range(40)]
    cuts = size_balanced_cuts(points, 4)
    router = ShardRouter(cuts)
    assert router.shard_count == 4
    for point in points:
        sid = router.route_point(point.x)
        lo, hi = router.shard_range(sid)
        assert lo <= point.x < hi
    # A query inside one shard's range touches exactly that shard.
    sid = router.route_point(points[5].x)
    lo, hi = router.shard_range(sid)
    probe = TopOpenQuery(points[5].x, min(hi - 1e-9, points[5].x + 0.1), 0.0)
    assert router.shards_for(probe) == [sid]
    # An unbounded query touches every shard.
    assert router.shards_for(RangeQuery()) == [0, 1, 2, 3]


def test_merge_shard_skylines_running_max():
    left = [Point(0, 9), Point(1, 5)]
    middle = [Point(4, 6), Point(5, 2)]
    right = [Point(8, 5), Point(9, 1)]
    merged = merge_shard_skylines([left, middle, right])
    # (1,5) is dominated by (4,6); (5,2) by (8,5); (0,9) and the whole
    # right shard survive.
    assert canon(merged) == [(0.0, 9.0), (4.0, 6.0), (8.0, 5.0), (9.0, 1.0)]
    assert merge_shard_skylines([[], [], []]) == []


def test_result_cache_epochs_and_writes():
    points = uniform_points(300, seed=3)
    # memory_blocks=8 makes the rebuild spill out of the buffer pool, so
    # it charges transfers.
    service = SkylineService(
        points, shard_count=3, delta_threshold=10_000, memory_blocks=8
    )
    query = TopOpenQuery(points[10].x, points[10].x + 50_000, points[10].y - 1)
    first = service.query(query)
    assert service.cache.hits == 0
    again = service.query(query)
    assert again == first
    assert service.cache.hits == 1
    # A write inside the query's rectangle bumps the write version of a
    # visited shard: the old entry is unreachable.
    service.insert(Point(points[10].x + 0.5, points[10].y + 0.5, 999))
    hits_before = service.cache.hits
    service.query(query)
    assert service.cache.hits == hits_before
    # Compaction empties the cache outright.
    service.compact()
    assert len(service.cache) == 0
    # LRU eviction respects capacity.
    cache = ResultCache(capacity=2)
    cache.put(("a",), [Point(1, 1)])
    cache.put(("b",), [Point(2, 2)])
    cache.put(("c",), [Point(3, 3)])
    assert len(cache) == 2
    assert cache.get(("a",)) is None


def test_result_cache_invalidation_scoped_per_shard():
    """Satellite regression: cache keys embed per-shard write versions, so
    an update routed into one shard's x-range keeps cached answers whose
    rectangles live entirely in *other* shards' ranges valid -- before the
    fix any write bumped a global version and evicted everything."""
    points = uniform_points(400, universe=1_000_000, seed=19)
    service = SkylineService(points, shard_count=4, delta_threshold=10_000)
    # Warm a query confined to shard 0's range.
    lo0, hi0 = service.router.shard_range(0)
    probe0 = TopOpenQuery(max(lo0, 0.0), hi0 - 1e-6, 0.0)
    assert service.router.shards_for(probe0) == [0]
    first = service.query(probe0)
    hits_before = service.cache.hits
    # An insert routed to the last shard must not evict it...
    lo3, _ = service.router.shard_range(3)
    service.insert(Point(lo3 + 0.5, 2_000_000.5, 9_000))
    again = service.query(probe0)
    assert service.cache.hits == hits_before + 1
    assert canon(again) == canon(first)
    # ...and a delete there must not either.
    victim = next(p for p in points if p.x >= lo3)
    assert service.delete(victim)
    service.query(probe0)
    assert service.cache.hits == hits_before + 2
    # A write into shard 0's own range does invalidate the cached answer.
    service.insert(Point(probe0.x_lo + 0.25, 3_000_000.5, 9_001))
    fresh = service.query(probe0)
    assert service.cache.hits == hits_before + 2  # miss: recomputed
    assert canon(fresh) == canon(
        range_skyline(service.live_points(), probe0)
    )


def test_disabled_cache_counts_misses_and_reports_disabled_state():
    """Satellite regression: a disabled cache (capacity <= 0) used to
    count neither hits nor misses, so `describe()["cache_hit_rate"]`
    reported 0.0 as if it were measuring real traffic.  Disabled lookups
    now count as misses and the state is surfaced explicitly."""
    cache = ResultCache(capacity=0)
    assert not cache.enabled
    assert cache.get(("k",)) is None
    cache.put(("k",), [Point(1, 1)])
    assert cache.get(("k",)) is None
    assert cache.misses == 2 and cache.hits == 0
    assert cache.describe()["state"] == "disabled"
    assert cache.hit_rate() == 0.0
    # Through the service: queries on a cache-disabled service count as
    # real misses, so the reported rate measures actual traffic.
    points = uniform_points(100, seed=23)
    service = SkylineService(points, shard_count=2, cache_capacity=0)
    service.query(TopOpenQuery(0.0, 500_000.0, 0.0))
    service.query(TopOpenQuery(0.0, 500_000.0, 0.0))
    status = service.describe()
    assert status["result_cache"]["state"] == "disabled"
    assert status["result_cache"]["misses"] == 2
    assert status["cache_hit_rate"] == 0.0
    # An enabled cache reports its state too.
    assert ResultCache(capacity=4).describe()["state"] == "enabled"


def test_cache_hit_rate_before_any_lookup_is_pinned_zero():
    """Satellite: 0/0 is pinned to exactly 0.0, not incidental."""
    cache = ResultCache(capacity=8)
    assert cache.hit_rate() == 0.0
    assert cache.describe()["hit_rate"] == 0.0
    points = uniform_points(50, seed=24)
    service = SkylineService(points, shard_count=2)
    assert service.describe()["cache_hit_rate"] == 0.0
    disabled = ResultCache(capacity=0)
    assert disabled.hit_rate() == 0.0


def test_batch_coalesces_duplicates_and_parallel_matches():
    points = uniform_points(400, seed=5)
    queries = random_queries(points, 3, random.Random(1)) * 2  # duplicates
    serial = SkylineService(points, shard_count=4)
    threaded = SkylineService(points, shard_count=4)
    # The serving tier's executor: one worker thread per shard.
    threaded.batch_executor = pool = ShardWorkerPool(threaded)
    expected = naive_answers(points, queries)
    try:
        assert [canon(r) for r in serial.query_many(queries, use_cache=False)] == expected
        assert [canon(r) for r in threaded.query_many(queries)] == expected
    finally:
        pool.close()


def test_tombstone_fallback_charges_io():
    """Satellite regression: recomputing a shard skyline from resident
    points is charged as ceil(resident / B) block reads, so delete-heavy
    workloads cannot flatter the sharded service."""
    points = uniform_points(600, universe=1_000_000, seed=8)
    service = SkylineService(
        points,
        ServiceConfig(shard_count=3, block_size=16, memory_blocks=8,
                      delta_threshold=10_000, cache_capacity=0),
    )
    victim = max(points, key=lambda p: p.y)  # on every full skyline
    probe = RangeQuery()
    service.query(probe)  # warm the static path
    assert service.delete(victim)
    sid = service.router.route_point(victim.x)
    resident = len(service.shards[sid].points)
    before = service.snapshot()
    service.query(probe)
    charged = service.snapshot() - before
    # The fallback shard alone must charge at least its scan cost.
    assert charged.reads >= -(-resident // service.config.block_size)
    assert service.io_total() == service.stats.total


def test_io_totals_monotone_across_compaction():
    """Retired ledgers keep io_total() monotone when shards are rebuilt."""
    points = uniform_points(300, seed=17)
    # memory_blocks=8 makes the rebuild spill out of the buffer pool, so
    # it charges transfers.
    service = SkylineService(
        points, shard_count=3, delta_threshold=10_000, memory_blocks=8
    )
    service.query_many(random_queries(points, 3, random.Random(0)))
    before = service.io_total()
    service.compact()
    assert service.io_total() > before  # rebuild I/O added, nothing lost


def test_delta_buffer_semantics():
    delta = DeltaBuffer()
    p = Point(1.0, 2.0, 7)
    delta.insert(p)
    assert len(delta) == 1
    # Deleting a pending insert cancels it.
    assert delta.remove_insert(Point(1.0, 2.0, 7))
    assert len(delta) == 0
    # Tombstone + re-insert of the same point revives it.
    delta.add_tombstone(p)
    assert delta.is_deleted(p)
    delta.insert(p)
    assert not delta.is_deleted(p)
    assert len(delta) == 0
    # Tombstones only affect queries whose rectangle contains them.
    delta.add_tombstone(Point(5.0, 5.0, 1))
    assert delta.tombstone_hits(FourSidedQuery(0, 10, 0, 10), 0.0, 10.0)
    assert not delta.tombstone_hits(FourSidedQuery(0, 10, 6, 10), 0.0, 10.0)
    assert not delta.tombstone_hits(FourSidedQuery(0, 10, 0, 10), 6.0, 10.0)


def test_tombstone_buckets_by_shard_and_revive():
    """Satellite regression: tombstones are bucketed by owning shard id so
    a batch of Q queries over S shards no longer sweeps every tombstone
    Q*S times; buckets survive every mutation path, including revival."""
    delta = DeltaBuffer()
    a, b = Point(1.0, 1.0, 1), Point(9.0, 9.0, 2)
    delta.add_tombstone(a, sid=0)
    delta.add_tombstone(b, sid=1)
    assert canon(delta.shard_tombstones(0)) == [(1.0, 1.0)]
    assert canon(delta.shard_tombstones(1)) == [(9.0, 9.0)]
    # A probe with a shard id only sees its own bucket.
    everywhere = FourSidedQuery(0, 10, 0, 10)
    assert delta.tombstone_hits(everywhere, 0.0, 10.0, sid=0)
    assert delta.tombstone_hits(everywhere, 0.0, 10.0, sid=1)
    assert not delta.tombstone_hits(FourSidedQuery(0, 5, 0, 5), 0.0, 10.0, sid=1)
    # Revival: re-inserting a tombstoned point empties its bucket entry.
    delta.insert(a)
    assert not delta.is_deleted(a)
    assert delta.shard_tombstones(0) == []
    assert delta.tombstone_hits(everywhere, 0.0, 10.0, sid=1)
    assert not delta.tombstone_hits(everywhere, 0.0, 10.0, sid=0)
    # Unknown-owner tombstones land in a catch-all every shard checks.
    delta.add_tombstone(Point(5.0, 5.0, 3))
    assert delta.tombstone_hits(everywhere, 0.0, 10.0, sid=0)
    assert canon(delta.shard_tombstones(None)) == [(5.0, 5.0)]
    # Re-tombstoning under a different owner moves the bucket entry.
    delta.add_tombstone(Point(5.0, 5.0, 3), sid=2)
    assert delta.shard_tombstones(None) == []
    assert canon(delta.shard_tombstones(2)) == [(5.0, 5.0)]
    # clear() empties buckets along with the tables.
    delta.clear()
    assert delta.shard_tombstones(1) == [] and delta.shard_tombstones(2) == []
    assert not delta.tombstone_hits(everywhere, 0.0, 10.0, sid=1)


def test_service_buckets_tombstones_under_owning_shard():
    points = uniform_points(400, universe=1_000_000, seed=31)
    service = SkylineService(points, shard_count=4, delta_threshold=10_000)
    victims = [points[50], points[170], points[333]]
    for victim in victims:
        assert service.delete(victim)
    for victim in victims:
        owner = service.shards[service.router.route_point(victim.x)].owner
        assert (victim.x, victim.y) in {
            (t.x, t.y) for t in service.delta.shard_tombstones(owner)
        }
    assert service.delta.shard_tombstones(None) == []
    # Queries still see exactly the naive answers through the buckets.
    queries = random_queries(points, 3, random.Random(2))
    live = [p for p in points if not service.delta.is_deleted(p)]
    assert [canon(r) for r in service.query_many(queries)] == naive_answers(
        live, queries
    )


def test_leveled_path_seals_instead_of_compacting():
    """The memtable threshold seals the memtable into the merge
    scheduler: no compaction, no O(n/B) rebuild on the update."""
    points = uniform_points(200, seed=9)
    service = SkylineService(
        points, shard_count=2, delta_threshold=8, auto_compact=True,
    )
    for i in range(8):
        service.insert(Point(points[i].x + 0.5, points[i].y + 0.5, 500 + i))
    assert service.compactions == 0
    assert len(service.delta.inserts) == 0  # sealed into frozen memtables
    assert service.towers()
    assert sum(t.scheduler.pending_jobs for t in service.towers()) >= 1
    # The base shards were not rebuilt; the new points live in the
    # frozen/leveled components (each shard's cut in its own tower)
    # until merges push them down.
    assert sum(len(s) for s in service.shards) == 200
    assert len(service) == 208
    service.drain()
    assert sum(t.scheduler.pending_jobs for t in service.towers()) == 0
    assert (
        sum(len(c) for t in service.towers() for c in t.components()) == 8
    )


def test_general_position_enforced_on_insert():
    points = uniform_points(50, seed=2)
    service = SkylineService(points, shard_count=2)
    with pytest.raises(ValueError):
        service.insert(Point(points[0].x, points[0].y + 123.25))
    with pytest.raises(ValueError):
        SkylineService([Point(1, 1, 0), Point(1, 2, 1)], shard_count=1)


def test_delete_prefers_ident_match():
    pts = [Point(float(i), float(100 - i), i) for i in range(30)]
    service = SkylineService(pts, shard_count=2)
    assert not service.delete(Point(500.0, 500.0))
    assert service.delete(Point(3.0, 97.0, 3))
    assert len(service) == 29
    assert canon(service.skyline()) == canon(
        range_skyline([p for p in pts if p.ident != 3], RangeQuery())
    )


def test_monolithic_query_many_matches_sequential():
    """Satellite: RangeSkylineIndex.query_many shares the batch API."""
    points = uniform_points(300, seed=4)
    index = RangeSkylineIndex(
        StorageManager(EMConfig(block_size=16, memory_blocks=16)), points
    )
    queries = random_queries(points, 4, random.Random(2))
    batch = index.query_many(queries)
    assert [canon(r) for r in batch] == [canon(index.query(q)) for q in queries]


def test_api_delete_removes_exactly_one_ident():
    """Satellite: delete drops exactly the identified point from .points."""
    storage = StorageManager(EMConfig(block_size=16, memory_blocks=16))
    points = [Point(float(i), float(i * 3 % 11) + i * 1e-3, i) for i in range(40)]
    index = RangeSkylineIndex(storage, points, dynamic=True)
    assert index.delete(Point(7.0, points[7].y, 7))
    assert len(index.points) == 39
    assert all(p.ident != 7 for p in index.points)
    # Deleting with a mismatched ident still removes one coordinate match,
    # never more.
    assert index.delete(Point(9.0, points[9].y, ident=None))
    assert len(index.points) == 38


def test_describe_exposes_cache_and_level_counters():
    """`describe()` carries the full result-cache counter set and the
    per-level fill rows ({records, tombstones, capacity, merge_debt})
    that replaced the flat `delta` block, so execution reports can source
    them without private state."""
    points = [Point(float(i * 7 % 101) + i * 1e-3, float(i * 13 % 97) + i * 1e-3, i) for i in range(60)]
    service = SkylineService(points, shard_count=4, cache_capacity=32)
    query = TopOpenQuery(5.0, 80.0, 10.0)
    service.query(query)
    service.query(query)  # second lookup hits the cache
    service.insert(Point(200.5, 200.5, 9_001))
    assert service.delete(points[3])
    status = service.describe()
    cache = status["result_cache"]
    assert cache["hits"] == service.cache.hits
    assert cache["misses"] == service.cache.misses
    assert cache["entries"] == len(service.cache)
    assert cache["capacity"] == 32
    assert cache["hit_rate"] == round(service.cache.hit_rate(), 3)
    assert cache["hits"] >= 1
    assert status["update_path"] == "leveled"
    assert status["delta_inserts"] == 1
    assert status["delta_tombstones"] == 1
    levels = status["levels"]
    memtable = levels[0]
    assert memtable["level"] == 0
    assert memtable["records"] == 1
    assert memtable["tombstones"] == 1
    assert memtable["capacity"] == service.config.delta_threshold
    assert memtable["merge_debt"] == 0
    assert {"active", "queued_jobs", "merges_completed"} <= set(
        status["scheduler"]
    )
    assert status["maintenance_io"] == service.maintenance_io()


def test_service_reexports():
    import repro

    assert repro.SkylineService is SkylineService
    assert repro.ServiceConfig is ServiceConfig
    with pytest.raises(AttributeError):
        repro.does_not_exist
