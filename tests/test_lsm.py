"""Tests for the leveled log-structured update subsystem (repro.service.lsm).

The acceptance properties:

* **Pause-anywhere correctness** -- query answers equal the naive scan
  baseline no matter where the incremental merge is paused, including
  after every single bounded step.
* **Bounded update spikes** -- a single insert at the memtable
  threshold never charges an ``O(n/B)`` rebuild.
* **Exact level-state recovery** -- a drain checkpoint's level-aware
  snapshot plus WAL replay restores the exact level layout after a crash
  at any durable prefix.
* **Ledger conservation** -- attributed + maintenance partitions the
  ledger exactly through seals, incremental merges, drains and major
  compactions.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FourSidedQuery, Point, RangeQuery, TopOpenQuery
from repro.baselines.naive import NaiveScanSkyline
from repro.core.skyline import range_skyline
from repro.em import EMConfig, StorageManager
from repro.em.counters import IOStats
from repro.engine import QueryRequest, ShardedServiceBackend, SkylineEngine
from repro.service import (
    CrashSimulator,
    DeltaBuffer,
    ServiceConfig,
    SkylineService,
    merge_component_skylines,
)
from repro.service.delta import point_key
from repro.service.lsm import LevelManager
from repro.workloads import uniform_points


def canon(points):
    return sorted((p.x, p.y, p.ident) for p in points)


def canon_xy(points):
    return sorted((p.x, p.y) for p in points)


def seed_points(n, seed=0):
    rng = random.Random(seed)
    xs = rng.sample(range(10 * n), n)
    ys = rng.sample(range(10 * n), n)
    return [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]


def naive_answers(points, queries):
    baseline = NaiveScanSkyline(
        StorageManager(EMConfig(block_size=16, memory_blocks=16)), points
    )
    return [canon_xy(baseline.query(query)) for query in queries]


LEVELED = dict(
    shard_count=2,
    block_size=8,
    memory_blocks=8,
    delta_threshold=6,
    level_growth=2,
    merge_step_blocks=2,
)


def towers(service):
    """Every live shard's private tower, in shard order."""
    return [s.tower for s in service.shards if s.tower is not None]


def all_levels(service):
    """``(sid, level) -> component`` across every shard's tower."""
    return {
        (shard.sid, j): comp
        for shard in service.shards
        if shard.tower is not None
        for j, comp in shard.tower.levels.items()
    }


def total_merge_debt(service):
    return sum(t.scheduler.merge_debt for t in towers(service))


def total_pending_jobs(service):
    return sum(t.scheduler.pending_jobs for t in towers(service))


# ----------------------------------------------------------------------
# Acceptance: correct at every intermediate merge step
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    shard_count=st.integers(min_value=1, max_value=3),
    growth=st.sampled_from([2, 4]),
    step=st.sampled_from([1, 3]),
)
def test_queries_correct_at_every_incremental_step(seed, shard_count, growth, step):
    """Interleave queries with updates under a tiny merge budget: every
    update leaves the scheduler paused at a different intermediate point,
    and the answers must equal the naive baseline at each of them."""
    rng = random.Random(seed)
    points = seed_points(40, seed=seed)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=shard_count,
            block_size=8,
            memory_blocks=8,
            delta_threshold=4,
            level_growth=growth,
            merge_step_blocks=step,
        ),
    )
    live = list(points)
    queries = [
        RangeQuery(),
        TopOpenQuery(50.0, 300_000.0, 10.0),
        FourSidedQuery(0.0, 200_000.0, 0.0, 200_000.0),
    ]
    for i in range(30):
        roll = rng.random()
        if roll < 0.55:
            point = Point(400_000.0 + i * 1.25, 500_000.0 + i * 1.5, 90_000 + i)
            service.insert(point)
            live.append(point)
        elif roll < 0.85 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert service.delete(victim)
        elif roll < 0.95:
            service.drain()
        else:
            service.compact()
        got = service.query_many(queries, use_cache=False)
        assert [canon_xy(r) for r in got] == naive_answers(live, queries), (
            f"answers diverge after op {i} "
            f"(debt={total_merge_debt(service)})"
        )
        assert len(service) == len(live)
    assert canon(service.live_points()) == canon(live)


def test_single_step_pauses_with_explicit_scheduler_stepping():
    """Drive the scheduler one transfer at a time and query between every
    step: the swap is atomic, so no intermediate debt state is visible."""
    points = seed_points(60, seed=7)
    service = SkylineService(points, ServiceConfig(**LEVELED))
    live = list(points)
    for i in range(service.config.delta_threshold):
        point = Point(700_000.0 + i, 800_000.0 + i * 1.5, 70_000 + i)
        service.insert(point)
        live.append(point)
    probe = RangeQuery()
    expected = canon_xy(range_skyline(live, probe))
    steps = 0
    while total_pending_jobs(service) and steps < 10_000:
        for tower in towers(service):
            if tower.scheduler.pending_jobs:
                tower.scheduler.pay(1)
                steps += 1
                assert canon_xy(service.query(probe)) == expected
    assert total_pending_jobs(service) == 0
    assert canon(service.live_points()) == canon(live)


# ----------------------------------------------------------------------
# Pinned regression: no O(n/B) spike at the memtable threshold
# ----------------------------------------------------------------------
def test_insert_at_threshold_charges_bounded_io_not_a_rebuild():
    points = uniform_points(2_000, universe=10_000_000, seed=3)
    threshold = 64
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=4,
            block_size=16,
            memory_blocks=8,
            delta_threshold=threshold,
        ),
    )
    for i in range(threshold - 1):
        service.insert(
            Point(20_000_000.0 + i * 1.25, 20_000_000.0 + i * 1.5, 50_000 + i)
        )
    before = service.snapshot()
    service.insert(Point(30_000_000.5, 30_000_000.5, 59_999))
    cost = (service.snapshot() - before).total
    n_over_b = len(points) / service.config.block_size
    # The tripping insert sealed the memtable and paid at most the
    # bounded step -- more than 10x below an n/B rebuild, and O(1) in n.
    assert service.compactions == 0
    assert cost <= service.config.merge_step_blocks
    assert cost * 10 <= n_over_b


def test_worst_case_update_bounded_over_long_run():
    """No update across a long mixed run ever exceeds the merge budget
    plus the O(1) memtable work (here: zero attributed transfers)."""
    points = seed_points(300, seed=11)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=3,
            block_size=16,
            memory_blocks=8,
            delta_threshold=16,
            merge_step_blocks=4,
        ),
    )
    live = list(points)
    rng = random.Random(5)
    worst = 0
    for i in range(200):
        before = service.snapshot()
        if i % 4 == 3 and live:
            assert service.delete(live.pop(rng.randrange(len(live))))
        else:
            point = Point(100_000.0 + i * 1.25, 100_000.0 + i * 1.5, 40_000 + i)
            service.insert(point)
            live.append(point)
        worst = max(worst, (service.snapshot() - before).total)
    assert worst <= service.config.merge_step_blocks
    assert service.merges_completed >= 3
    assert canon(service.live_points()) == canon(live)


def test_delete_flood_safety_valve_reclaims_tombstones():
    """A pure-delete flood must not degrade queries forever: once the
    tombstones alone reach delta_threshold * level_growth, an
    auto-compacting leveled service pays one major compaction to reclaim
    them (the insert path still never triggers a rebuild)."""
    points = seed_points(200, seed=21)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=2,
            block_size=16,
            memory_blocks=8,
            delta_threshold=8,
            level_growth=2,
        ),
    )
    live = list(points)
    for _ in range(40):
        victim = live.pop(0)
        assert service.delete(victim)
    # 16 = 8 * 2 tombstones trip the valve (possibly more than once).
    assert service.compactions >= 1
    assert len(service.delta.tombstones) < 16
    assert canon(service.live_points()) == canon(live)
    assert canon_xy(service.query(RangeQuery())) == canon_xy(
        range_skyline(live, RangeQuery())
    )
    # With auto_compact off the valve stays closed (operator-driven only).
    manual = SkylineService(
        points,
        ServiceConfig(
            shard_count=2,
            block_size=16,
            memory_blocks=8,
            delta_threshold=8,
            level_growth=2,
            auto_compact=False,
        ),
    )
    for victim in points[:40]:
        assert manual.delete(victim)
    assert manual.compactions == 0
    assert len(manual.delta.tombstones) == 40


def test_plan_prunes_levels_outside_the_rectangle():
    """explain() mirrors the execution-side level prune: a level whose
    x-span misses the rectangle contributes no search term."""
    points = seed_points(200, seed=22)
    engine = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=2, block_size=16, memory_blocks=16, delta_threshold=8
        ),
    )
    # Level points all live far to the right of the base universe; 24 of
    # them outgrow one block (B = 16), so the level is indexed.
    for i in range(24):
        engine.insert(
            Point(9_000_000.0 + i * 1.25, 9_000_000.0 - i * 1.5, 90_000 + i)
        )
    engine.drain()
    service = engine.backend.service
    assert all_levels(service)
    narrow = TopOpenQuery(0.0, 1_000.0, 0.0)  # misses every level's x-span
    plan = engine.explain(narrow)
    assert [s for s in plan.scopes if s.level is not None] == []
    assert dict(plan.level_layout)  # the layout itself is still reported
    wide = engine.explain(RangeQuery())
    assert [s for s in wide.scopes if s.level is not None]
    assert wide.search_io > plan.search_io


@pytest.mark.parametrize("extra", [0, 1])
def test_merge_output_is_indexed_only_beyond_one_block(extra):
    """A merge output of exactly B records stays in memory: no index, no
    blocks in use, nothing charged to read it and no plan scope, yet it
    counts in the level layout.  One record more and it is indexed.  Both
    answer like ``range_skyline``, and a drain snapshot restores the
    level exactly as it was, index or not."""
    block = 16
    size = block + extra
    points = seed_points(200, seed=23)
    engine = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=2,
            block_size=block,
            memory_blocks=16,
            delta_threshold=size,  # the size-th insert seals the memtable
            level_growth=4,
            durability=True,
            wal_group_commit=1,
        ),
    )
    service = engine.backend.service
    live = list(points)
    for i in range(size):
        p = Point(
            9_000_000.0 + i * 1.25, 5_000.5 + (i * 7 % size) * 1.5, 90_000 + i
        )
        engine.insert(p)
        live.append(p)
    engine.drain()  # completes the flush; a checkpoint with a snapshot
    ((slot, comp),) = all_levels(service).items()
    assert slot[1] == 1 and len(comp) == size
    in_memory = extra == 0
    assert (comp.index is None) == in_memory
    assert (comp.storage is None) == in_memory
    base_blocks = sum(s.storage.blocks_in_use() for s in service.shards)
    assert (service.blocks_in_use() == base_blocks) == in_memory
    over_level = FourSidedQuery(9_000_000.0, 9_000_100.0, 5_000.0, 5_020.0)
    plan = engine.explain(over_level)
    level_scopes = [s for s in plan.scopes if s.level is not None]
    assert len(level_scopes) == (0 if in_memory else 1)
    assert dict(plan.level_layout)[1] == size
    # Cold read over the level: everything charged beyond the base
    # shards' own ledgers is the level's.
    engine.drop_caches()
    shards_before = sum(s.stats.total for s in service.shards)
    report = engine.query(QueryRequest(over_level, consistency="fresh")).report
    shard_blocks = sum(s.stats.total for s in service.shards) - shards_before
    if in_memory:
        assert report.blocks == shard_blocks
    else:
        assert report.blocks > shard_blocks
    queries = [
        RangeQuery(),
        over_level,
        TopOpenQuery(1_000.0, 9_000_010.0, 1_000.0),
    ]
    want = [canon_xy(range_skyline(live, q)) for q in queries]
    assert [canon_xy(a) for a in service.query_many(queries, use_cache=False)] == want
    recovered = SkylineService.open(service.store)
    ((rec_slot, rec_comp),) = all_levels(recovered).items()
    assert rec_slot == slot and canon(rec_comp.points) == canon(comp.points)
    assert (rec_comp.index is None) == in_memory
    rec_engine = SkylineEngine(ShardedServiceBackend(recovered))
    assert len(
        [s for s in rec_engine.explain(over_level).scopes if s.level is not None]
    ) == (0 if in_memory else 1)
    got = recovered.query_many(queries, use_cache=False)
    assert [canon_xy(a) for a in got] == want


def test_in_memory_merge_output_still_pays_for_its_indexed_input():
    """Tombstones can shrink a merge below one block: its output stays in
    memory with no build debt, but reading its indexed input still costs
    ``ceil(m/B)`` reads, charged to maintenance."""
    block = 16
    service = SkylineService(
        seed_points(100, seed=24),
        ServiceConfig(
            shard_count=1,
            block_size=block,
            memory_blocks=16,
            delta_threshold=1,  # every insert seals
            level_growth=32,  # level 1 holds up to 32 records
        ),
    )
    fresh = [
        Point(5_000.5 + i * 1.25, 5_000.5 + i * 1.5, 70_000 + i)
        for i in range(21)
    ]
    for p in fresh[:20]:
        service.insert(p)
    service.drain()
    (level,) = service.shards[0].tower.levels.values()
    assert len(level) == 20 and level.index is not None
    for p in fresh[:15]:
        assert service.delete(p)
    service.insert(fresh[20])  # seals one record; its flush is queued
    maintenance_before = service.maintenance_io()
    assert service.drain()["merge_io"] == math.ceil(20 / block)
    assert service.maintenance_io() - maintenance_before == math.ceil(20 / block)
    (merged,) = service.shards[0].tower.levels.values()
    assert len(merged) == 6 and merged.index is None
    assert not service.delta.tombstones
    live = seed_points(100, seed=24) + fresh[15:]
    assert canon(service.live_points()) == canon(live)
    assert canon_xy(service.query(RangeQuery())) == canon_xy(
        range_skyline(live, RangeQuery())
    )


# ----------------------------------------------------------------------
# Tombstone lifecycle across merges
# ----------------------------------------------------------------------
def test_merge_consumes_tombstones_and_reowns_late_ones():
    points = seed_points(40, seed=2)
    service = SkylineService(points, ServiceConfig(**LEVELED))
    # Fill and drain so the fresh points live in an indexed level.
    fresh = [
        Point(500_000.0 + i * 1.25, 500_000.0 + i * 1.5, 30_000 + i)
        for i in range(6)
    ]
    for point in fresh:
        service.insert(point)
    service.drain()
    # The fresh points all route to one shard: its private tower holds
    # the indexed level.
    tower = service.shards[service.router.route_point(500_000.0)].tower
    level_one = tower.levels[1]
    assert canon(level_one.points) == canon(fresh)
    # Delete a level-resident point: the tombstone is owned by the level.
    victim = fresh[2]
    assert service.delete(victim)
    assert service.delta.tombstone_owner(point_key(victim)) == level_one.owner
    # The next merge through that level consumes the tombstone for good.
    for i in range(6):
        service.insert(Point(600_000.0 + i * 1.25, 600_000.0 + i * 1.5, 31_000 + i))
    service.drain()
    assert point_key(victim) not in service.delta.tombstones
    merged = tower.levels[max(tower.levels)]
    assert point_key(victim) not in {point_key(p) for p in merged.points}
    assert canon(service.live_points()) == canon(
        [p for p in points + fresh if p.ident != victim.ident]
        + [Point(600_000.0 + i * 1.25, 600_000.0 + i * 1.5, 31_000 + i) for i in range(6)]
    )


def test_revive_during_inflight_merge_keeps_the_point_alive():
    """Delete a level-resident point, start (but do not finish) the merge
    that would drop it, revive it mid-merge: after the swap the point must
    still be live (re-materialised in the memtable)."""
    points = seed_points(30, seed=8)
    config = ServiceConfig(
        shard_count=1,
        block_size=8,
        memory_blocks=8,
        delta_threshold=4,
        level_growth=2,
        merge_step_blocks=1,
    )
    service = SkylineService(points, config)
    fresh = [Point(400_000.0 + i, 450_000.0 + i * 1.5, 20_000 + i) for i in range(4)]
    for point in fresh:
        service.insert(point)
    service.drain()
    victim = fresh[1]
    assert service.delete(victim)
    # Seal another memtable so a flush job whose sibling input (level 1)
    # owns the tombstone is queued, then *start* it without completing:
    # the staged output has already dropped the victim.
    for i in range(4):
        service.insert(Point(410_000.0 + i, 460_000.0 + i * 1.5, 21_000 + i))
    scheduler = service.shards[0].tower.scheduler
    if scheduler.active is None:
        assert scheduler._start_next()
    assert point_key(victim) in scheduler.active.consumed
    assert point_key(victim) not in {
        point_key(p) for p in scheduler.active.output.points
    }
    # Revive mid-merge, then finish the merge.
    service.insert(victim)
    assert not service.delta.is_deleted(victim)
    service.drain()
    assert point_key(victim) in service.delta.inserts
    live = service.live_points()
    assert point_key(victim) in {point_key(p) for p in live}
    assert canon_xy(service.query(RangeQuery())) == canon_xy(
        range_skyline(live, RangeQuery())
    )


# ----------------------------------------------------------------------
# Durability: exact level state across crashes
# ----------------------------------------------------------------------
def durable_leveled_config(**overrides):
    base = dict(LEVELED, durability=True, wal_group_commit=1)
    base.update(overrides)
    return ServiceConfig(**base)


def test_drain_snapshot_restores_exact_level_layout():
    points = seed_points(40, seed=4)
    service = SkylineService(points, durable_leveled_config())
    rng = random.Random(9)
    live = list(points)
    for i in range(20):
        if i % 5 == 4 and live:
            assert service.delete(live.pop(rng.randrange(len(live))))
        else:
            point = Point(500_000.0 + i * 1.25, 500_000.0 + i * 1.5, 60_000 + i)
            service.insert(point)
            live.append(point)
    service.drain()  # quiescent checkpoint: writes a level-aware snapshot
    manifest = service.store.latest_manifest()
    assert manifest.level_blocks, "drain snapshot must serialise the levels"
    recovered = SkylineService.open(service.store)
    # The exact per-shard level layout -- not just the flattened point set.
    want_levels = all_levels(service)
    got_levels = all_levels(recovered)
    assert sorted(got_levels) == sorted(want_levels)
    for slot in want_levels:
        assert canon(got_levels[slot].points) == canon(
            want_levels[slot].points
        )
    assert canon(
        [p for p in recovered.delta.inserts.values()]
    ) == canon([p for p in service.delta.inserts.values()])
    assert canon(recovered.delta.tombstones.values()) == canon(
        service.delta.tombstones.values()
    )
    assert canon(recovered.live_points()) == canon(live)
    assert recovered.recovery["snapshot_levels"] == len(want_levels)


def layout_snapshot(service):
    """The full observable LSM state: every shard's levels, inherited
    overlays and frozen memtables, the memtable, tombstones, and the
    schedulers' in-flight progress."""
    return {
        "levels": {
            slot: canon(comp.points)
            for slot, comp in all_levels(service).items()
        },
        "overlays": {
            shard.sid: canon(
                [p for ref in shard.tower.inherited for p in ref.points()]
            )
            for shard in service.shards
            if shard.tower is not None and shard.tower.inherited
        },
        "frozen": sorted(
            canon(c.points) for t in towers(service) for c in t.frozen
        ),
        "memtable": canon(service.delta.inserts.values()),
        "tombstones": canon(service.delta.tombstones.values()),
        "merge_debt": total_merge_debt(service),
        "pending_jobs": total_pending_jobs(service),
    }


def test_crash_at_every_prefix_recovers_exact_level_state():
    """Beyond the live-set property of test_durability: after a crash the
    recovered *level layout* -- levels, frozen memtables, memtable,
    tombstones, even the in-flight merge debt -- matches what the live
    service held at that WAL record boundary (replay is deterministic, so
    recovery reproduces the exact scheduling history)."""
    points = seed_points(24, seed=6)
    service = SkylineService(points, durable_leveled_config())
    rng = random.Random(3)
    expected = {service.wal.durable_count + service.wal.pending: layout_snapshot(service)}
    for i in range(16):
        roll = rng.random()
        if roll < 0.6:
            service.insert(
                Point(300_000.0 + i * 1.25, 300_000.0 + i * 1.5, 80_000 + i)
            )
        elif roll < 0.8 and len(service):
            live = service.live_points()
            service.delete(live[rng.randrange(len(live))])
        else:
            service.drain()
        expected[service.wal.durable_count + service.wal.pending] = (
            layout_snapshot(service)
        )
    checked = 0
    for prefix, crashed in CrashSimulator(service.store):
        if prefix not in expected:
            # A mid-call prefix (an insert record whose call also emitted
            # a flush record): the live service never paused there, so
            # only the live-set property applies -- covered by
            # test_durability's crash property.
            continue
        recovered = SkylineService.open(crashed)
        assert layout_snapshot(recovered) == expected[prefix], (
            f"level state diverges after crash at prefix {prefix}"
        )
        checked += 1
    assert checked >= 10  # the property actually exercised real prefixes


# ----------------------------------------------------------------------
# Accounting: the ledger partition holds through every leveled path
# ----------------------------------------------------------------------
def test_ledger_partition_through_seals_merges_drains_and_compacts():
    points = seed_points(200, seed=12)
    engine = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=3,
            block_size=16,
            memory_blocks=8,
            delta_threshold=12,
            merge_step_blocks=3,
        ),
    )
    rng = random.Random(1)
    for i in range(60):
        if i % 6 == 5:
            engine.query(RangeQuery())
        elif i % 6 == 4:
            live = engine.backend.service.live_points()
            engine.delete(live[rng.randrange(len(live))])
        else:
            engine.insert(
                Point(900_000.0 + i * 1.25, 900_000.0 + i * 1.5, 70_000 + i)
            )
        assert (
            engine.attributed_io() + engine.maintenance_io()
            == engine.io_total() - engine.build_io
        ), f"partition broke after op {i}"
    engine.drain()
    engine.compact()
    engine.drop_caches()
    engine.query(RangeQuery())
    assert (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


def test_explain_reports_level_layout_and_update_bound():
    points = seed_points(200, seed=13)
    engine = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=2,
            block_size=16,
            memory_blocks=16,
            delta_threshold=8,
            level_growth=4,
        ),
    )
    # 24 inserts outgrow one block (B = 16): the level they land in is
    # indexed and contributes a scope.
    for i in range(24):
        engine.insert(Point(800_000.0 + i * 1.25, 800_000.0 + i * 1.5, 60_000 + i))
    engine.drain()
    service = engine.backend.service
    plan = engine.explain(RangeQuery())
    assert plan.update_path == "leveled"
    assert "amortized" in plan.update_bound
    layout = dict(plan.level_layout)
    assert layout[0] == len(service.delta.inserts)
    levels = all_levels(service)
    for depth in {level for _, level in levels}:
        assert layout[depth] == sum(
            len(comp) for (_, level), comp in levels.items() if level == depth
        )
    # One scope per visited shard plus one per level structure (the full
    # rectangle prunes nothing, so every shard's levels all contribute).
    level_scopes = [s for s in plan.scopes if s.level is not None]
    assert len(level_scopes) == len(levels)
    assert plan.shards_visited == len(service.shards)
    # The instantiated amortized bound: (g/B) * log_g(n/c).
    g = service.config.level_growth
    b = service.config.block_size
    c = service.config.delta_threshold
    n = len(service)
    assert plan.update_io == (
        g * max(1.0, math.log(max(2.0, n / c), g)) / b
    )


# ----------------------------------------------------------------------
# Components and the generalised merge
# ----------------------------------------------------------------------
def test_merge_component_skylines_overlapping_sources():
    a = [Point(0, 9), Point(4, 6), Point(9, 1)]  # a skyline
    b = [Point(1, 7), Point(5, 5)]  # overlaps a's x-range
    c = [Point(2, 3)]  # dominated by members of both
    merged = merge_component_skylines([a, b, c])
    assert canon_xy(merged) == canon_xy(
        range_skyline(a + b + c, RangeQuery())
    )
    assert merge_component_skylines([[], [], []]) == []
    # Non-skyline sources are fine: dominated members are swept out.
    messy = [Point(3, 2), Point(6, 4), Point(7, 8)]
    merged = merge_component_skylines([a, messy])
    assert canon_xy(merged) == canon_xy(range_skyline(a + messy, RangeQuery()))


def test_level_capacities_grow_geometrically():
    manager = LevelManager(
        em_config=EMConfig(block_size=8, memory_blocks=8),
        epsilon=0.5,
        block_size=8,
        memtable_capacity=10,
        level_growth=3,
        merge_step_blocks=2,
        delta=DeltaBuffer(),
        maintenance=IOStats(),
        retired=IOStats(),
        on_layout_change=lambda: None,
    )
    assert [manager.capacity(j) for j in range(4)] == [10, 30, 90, 270]


def test_delta_buffer_seal_and_restore_roundtrip():
    delta = DeltaBuffer()
    pts = [Point(3.0, 1.0, 2), Point(1.0, 2.0, 0), Point(2.0, 3.0, 1)]
    for p in pts:
        delta.insert(p)
    sealed = delta.take_inserts_in_range(-math.inf, math.inf)
    assert [p.ident for p in sealed] == [0, 1, 2]  # x-sorted
    assert len(delta.inserts) == 0
    delta.add_tombstone(pts[0], ("c", 7))
    assert delta.tombstone_owner(point_key(pts[0])) == ("c", 7)
    assert delta.owned_tombstones(("c", 7)) == {point_key(pts[0]): pts[0]}
    delta.drop_tombstone(point_key(pts[0]))
    assert not delta.tombstones
    delta.restore_insert(pts[1])
    assert point_key(pts[1]) in delta.inserts
