"""Tests for online shard topology management (repro.service.topology).

The acceptance properties:

* **Interleaving invariance** -- answers and the engine's ledger
  partition (``attributed + maintenance == total - build``) are invariant
  under arbitrary interleavings of updates, queries, splits, merges and
  folds vs the naive scan baseline (hypothesis property).
* **Bounded locality** -- a split/merge/fold never global-rebuilds:
  untouched shards keep their uid, their cached answers and their
  tombstone buckets.
* **Adaptive policy** -- a skewed insert stream triggers hot-shard
  splits at twice the target load and folds once a tower holds one
  block (never a compaction); a delete flood on one region triggers a
  cold merge; a drifting hot band and a two-centre Zipf stream end
  balanced with exact answers and an exact ledger partition.
* **Reporting** -- the router's actual shard count is authoritative in
  ``describe()`` and plans, including when ``size_balanced_cuts``
  legitimately returns fewer cuts than ``shard_count - 1``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FourSidedQuery, Point, RangeQuery, TopOpenQuery
from repro.core.skyline import range_skyline
from repro.engine import QueryRequest, ShardedServiceBackend, SkylineEngine
from repro.service import (
    ServiceConfig,
    ShardRouter,
    SkylineService,
    size_balanced_cuts,
    size_balanced_midpoint,
)
from repro.workloads import uniform_points, zipf_x_points


def canon(points):
    return sorted((p.x, p.y, p.ident) for p in points)


def canon_xy(points):
    return sorted((p.x, p.y) for p in points)


def seed_points(n, seed=0):
    rng = random.Random(seed)
    xs = rng.sample(range(10 * n), n)
    ys = rng.sample(range(10 * n), n)
    return [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]


LEVELED = dict(
    shard_count=4,
    block_size=16,
    memory_blocks=8,
    delta_threshold=8,
    level_growth=2,
    merge_step_blocks=2,
)


def checked(service, live, queries):
    got = service.query_many(queries, use_cache=False)
    want = [canon_xy(range_skyline(live, q)) for q in queries]
    assert [canon_xy(r) for r in got] == want
    assert len(service) == len(live)


# ----------------------------------------------------------------------
# Router primitives
# ----------------------------------------------------------------------
def test_router_split_and_merge_cuts_are_versioned():
    router = ShardRouter([10.0, 20.0])
    assert router.version == 0 and router.shard_count == 3
    router.split_cut(1, 15.0)
    assert router.cuts == [10.0, 15.0, 20.0] and router.version == 1
    assert router.merge_cut(1) == 15.0
    assert router.cuts == [10.0, 20.0] and router.version == 2
    with pytest.raises(ValueError):
        router.split_cut(0, 10.0)  # on the boundary, not strictly inside
    with pytest.raises(ValueError):
        router.split_cut(2, 15.0)  # outside shard 2's range
    with pytest.raises(ValueError):
        router.merge_cut(2)  # only cuts 0 and 1 exist


def test_size_balanced_midpoint_degenerate_inputs():
    assert size_balanced_midpoint([]) is None
    assert size_balanced_midpoint([Point(1, 1)]) is None
    # Duplicate x straddling the midpoint: no strictly-separating cut.
    dup = [Point(5.0, 1.0, 0), Point(5.0, 2.0, 1)]
    assert size_balanced_midpoint(dup) is None
    ok = size_balanced_midpoint([Point(1, 1, 0), Point(3, 2, 1)])
    assert ok == 2.0


# ----------------------------------------------------------------------
# Split / merge / fold correctness
# ----------------------------------------------------------------------
def test_split_merge_fold_keep_answers_exact():
    points = seed_points(400, seed=3)
    service = SkylineService(points, ServiceConfig(**LEVELED))
    live = list(points)
    rng = random.Random(1)
    # Push records into levels and tombstones onto shards and components.
    for i in range(40):
        p = Point(900_000.0 + i * 1.25, 900_000.0 + i * 1.5, 50_000 + i)
        service.insert(p)
        live.append(p)
    for _ in range(12):
        victim = live.pop(rng.randrange(len(live)))
        assert service.delete(victim)
    queries = [
        RangeQuery(),
        TopOpenQuery(100.0, 800_000.0, 50.0),
        FourSidedQuery(0.0, 500_000.0, 0.0, 500_000.0),
    ]
    checked(service, live, queries)
    before = len(service.shards)
    cut = service.split_shard(1)
    assert cut is not None and len(service.shards) == before + 1
    checked(service, live, queries)
    service.fold_shard(0)
    assert len(service.shards) == before + 1  # folds move no cuts
    checked(service, live, queries)
    removed = service.merge_shards(2)
    assert removed is not None and len(service.shards) == before
    checked(service, live, queries)
    service.drain()
    checked(service, live, queries)
    service.compact()
    checked(service, live, queries)
    topo = service.topology.describe()
    assert topo["splits"] == 1 and topo["merges"] == 1 and topo["folds"] == 1
    assert [entry["op"] for entry in topo["history"]] == [
        "split", "fold", "merge",
    ]


def test_split_hands_over_whole_components_and_fold_reclaims_tombstones():
    points = seed_points(120, seed=5)
    service = SkylineService(points, ServiceConfig(**LEVELED))
    live = list(points)
    # Fill a level with fresh points, then delete one of them: the
    # tombstone is owned by the level component.
    fresh = [
        Point(800_000.0 + i * 1.25, 800_000.0 + i * 1.5, 40_000 + i)
        for i in range(8)
    ]
    for p in fresh:
        service.insert(p)
        live.append(p)
    service.drain()
    sid = len(service.shards) - 1
    tower = service.shards[sid].tower
    assert tower.levels  # the fresh points sit in its private tower
    level_comps = list(tower.levels.values())
    victim = fresh[3]
    assert service.delete(victim)
    live.remove(victim)
    # Split the rightmost shard (it owns the fresh points' x-range): a
    # pure metadata move -- the level components are handed to the
    # children *whole* (same objects, refcounted, clipped by readers),
    # and not one of their blocks is read or rewritten.
    comp_io_before = sum(
        c.stats.total for c in level_comps if c.stats is not None
    )
    assert service.split_shard(sid) is not None
    children = service.shards[sid : sid + 2]
    for comp in level_comps:
        holders = [
            child
            for child in children
            for ref in child.tower.inherited
            if ref.comp is comp
        ]
        assert holders, "handed-over component lost in the split"
    assert (
        sum(c.stats.total for c in level_comps if c.stats is not None)
        == comp_io_before
    )
    # The tombstone rode along with the handover: still present, still
    # masking the victim through the inherited clip.
    victim_key = (victim.x, victim.y, victim.ident)
    assert victim_key in service.delta.tombstones
    checked(service, live, [RangeQuery()])
    # Folding the victim's shard rebuilds its range from live points and
    # consumes every tombstone whose victim lies inside it.
    service.fold_shard(service.router.route_point(victim.x))
    assert victim_key not in service.delta.tombstones
    checked(service, live, [RangeQuery()])


def test_fold_pulls_tower_slice_into_base():
    points = seed_points(200, seed=6)
    service = SkylineService(points, ServiceConfig(**LEVELED))
    live = list(points)
    for i in range(24):
        p = Point(700_000.0 + i * 1.25, 700_000.0 + i * 1.5, 30_000 + i)
        service.insert(p)
        live.append(p)
    service.drain()
    sid = len(service.shards) - 1
    x_lo, x_hi = service.router.shard_range(sid)
    assert service.topology.level_slice(sid) > 0
    base_before = len(service.shards[sid])
    touched = service.fold_shard(sid)
    assert touched > 0
    assert service.topology.level_slice(sid) == 0
    assert len(service.shards[sid]) > base_before
    checked(service, live, [RangeQuery(), TopOpenQuery(0.0, 900_000.0, 10.0)])


def test_topology_change_keeps_unrelated_cached_answers():
    """Scoped invalidation across topology changes: a split destroys only
    the split shard's uid, so cached answers confined to other shards
    keep hitting -- before uid-keying, any re-numbering would have made
    every cached answer to the right of the cut unreachable."""
    points = uniform_points(400, universe=1_000_000, seed=7)
    service = SkylineService(points, shard_count=4, delta_threshold=10_000)
    lo3, hi3 = service.router.shard_range(3)
    probe_right = TopOpenQuery(lo3 + 1e-6, 900_000.0, 0.0)
    assert service.router.shards_for(probe_right) == [3]
    first = service.query(probe_right)
    hits_before = service.cache.hits
    # Split shard 0: shard 3 becomes shard 4, its uid unchanged.
    assert service.split_shard(0) is not None
    assert service.router.shards_for(probe_right) == [4]
    again = service.query(probe_right)
    assert service.cache.hits == hits_before + 1
    assert canon_xy(again) == canon_xy(first)
    # A probe into the split range was invalidated (fresh uids).
    lo0, _ = service.router.shard_range(0)
    probe_split = TopOpenQuery(max(lo0, 0.0), service.router.cuts[0] - 1e-6, 0.0)
    service.query(probe_split)
    misses_before = service.cache.misses
    service.query(probe_split)  # second lookup hits
    assert service.cache.misses == misses_before


def test_tombstone_buckets_survive_shard_renumbering():
    points = uniform_points(300, universe=1_000_000, seed=8)
    service = SkylineService(points, shard_count=3, delta_threshold=10_000)
    victim = next(p for p in points if service.router.route_point(p.x) == 2)
    assert service.delete(victim)
    owner = service.shards[2].owner
    assert service.delta.shard_tombstones(owner)
    assert service.split_shard(0) is not None
    # Shard 2 is now shard 3; same uid, same bucket, still masked.
    assert service.shards[3].owner == owner
    assert service.delta.shard_tombstones(owner)
    live = [p for p in points if p.ident != victim.ident]
    checked(service, live, [RangeQuery()])


# ----------------------------------------------------------------------
# Adaptive policy
# ----------------------------------------------------------------------
def test_skewed_stream_triggers_splits_and_folds_never_compaction():
    base = uniform_points(3_000, universe=1_000_000, seed=9)
    service = SkylineService(
        base,
        ServiceConfig(
            shard_count=8,
            block_size=32,
            memory_blocks=16,
            delta_threshold=64,
            level_growth=2,
            adaptive_topology=True,
        ),
    )
    stream = zipf_x_points(
        2_000, universe=1_000_000, ident_base=5_000_000, seed=10
    )
    live = list(base)
    for p in stream:
        service.insert(p)
        live.append(p)
    assert service.topology.splits >= 1
    assert service.topology.folds >= 1
    assert service.compactions == 0
    assert len(service.shards) > 8
    topo = service.topology.describe()
    # No shard is left beyond the split threshold after rebalancing.
    assert max(topo["shard_loads"]) < 2.0 * topo["target_load"]
    checked(service, live, [RangeQuery(), TopOpenQuery(490_000.0, 510_000.0, 0.0)])


def test_delete_flood_on_one_region_triggers_cold_merge():
    base = uniform_points(2_000, universe=1_000_000, seed=11)
    service = SkylineService(
        base,
        ServiceConfig(
            shard_count=8,
            block_size=32,
            memory_blocks=16,
            delta_threshold=100_000,  # keep the tombstone valve shut
            adaptive_topology=True,
        ),
    )
    live = list(base)
    # Empty out the two leftmost shards.
    boundary = service.router.cuts[1]
    for p in [q for q in base if q.x < boundary]:
        assert service.delete(p)
        live.remove(p)
    assert service.topology.merges >= 1
    assert len(service.shards) < 8
    checked(service, live, [RangeQuery(), TopOpenQuery(0.0, boundary, 0.0)])


def test_fold_fires_when_a_tower_reaches_one_block():
    """The fold bar is one block: a tower of B - 1 records stays, and the
    update that brings it to B records folds it into the base."""
    block = 16
    base = uniform_points(400, universe=1_000_000, seed=13)
    service = SkylineService(
        base,
        ServiceConfig(
            shard_count=2,
            block_size=block,
            memory_blocks=8,
            delta_threshold=1,  # every insert seals into the tower
            adaptive_topology=True,
        ),
    )
    sid = service.router.route_point(900_000.5)
    live = list(base)
    for i in range(block):
        p = Point(900_000.5 + i * 1.25, 900_000.5 + i * 1.5, 40_000 + i)
        service.insert(p)
        live.append(p)
        tower = service.shards[sid].tower
        if i < block - 1:
            assert service.topology.folds == 0
            assert tower.resident() == i + 1
    assert service.topology.folds == 1
    assert service.shards[sid].tower.resident() == 0
    assert service.topology.splits == service.topology.merges == 0
    checked(service, live, [RangeQuery(), TopOpenQuery(800_000.0, 1e6, 0.0)])


def drifting_band_stream(n, universe, seed):
    """A hot band whose centre drifts across three positions."""
    rng = random.Random(seed)
    centres = [c for c in (0.2, 0.5, 0.8) for _ in range(n // 3)]
    return [
        Point(
            rng.uniform(c - 0.01, c + 0.01) * universe,
            rng.uniform(0, universe),
            6_000_000 + k,
        )
        for k, c in enumerate(centres)
    ]


def two_centre_zipf_stream(n, universe, seed):
    """A Zipf-x stream with two hot centres, interleaved."""
    left = zipf_x_points(
        n // 2, universe, hot_center=0.3, ident_base=7_000_000, seed=seed
    )
    right = zipf_x_points(
        n // 2, universe, hot_center=0.7, ident_base=8_000_000, seed=seed + 1
    )
    return [p for pair in zip(left, right) for p in pair]


@pytest.mark.parametrize(
    "make_stream", [drifting_band_stream, two_centre_zipf_stream]
)
def test_adaptive_streams_stay_exact_and_balanced(make_stream):
    """Two skewed streams through an adaptive engine: answers match
    ``range_skyline`` at every checkpoint, the ledger partition holds
    after every operation, nothing compacts, and no shard ends at or
    beyond twice the target load."""
    universe = 1_000_000
    base = uniform_points(400, universe=universe, seed=14)
    engine = SkylineEngine.sharded(
        base,
        ServiceConfig(
            shard_count=8,
            block_size=32,
            memory_blocks=16,
            delta_threshold=64,
            level_growth=2,
            adaptive_topology=True,
        ),
    )
    service = engine.backend.service
    live = list(base)
    recent = []
    queries = [
        RangeQuery(),
        TopOpenQuery(150_000.0, 350_000.0, 0.0),
        FourSidedQuery(250_000.0, 750_000.0, 100_000.0, 900_000.0),
        TopOpenQuery(690_000.0, 810_000.0, 500_000.0),
    ]
    for i, point in enumerate(make_stream(2_000, universe, seed=15)):
        if i % 8 == 7 and recent:
            victim = recent.pop()
            assert engine.delete(victim).applied
            live.remove(victim)
        else:
            engine.insert(point)
            live.append(point)
            recent = (recent + [point])[-8:]
        assert (
            engine.attributed_io() + engine.maintenance_io()
            == engine.io_total() - engine.build_io
        ), f"partition broke after op {i}"
        if i % 250 == 249:
            for q in queries:
                got = engine.query(QueryRequest(rect=q, consistency="fresh"))
                assert canon_xy(got.points) == canon_xy(
                    range_skyline(live, q)
                ), f"answers diverge at op {i}"
    topo = service.topology.describe()
    assert service.topology.splits >= 1
    assert service.compactions == 0
    assert max(topo["shard_loads"]) < 2 * topo["target_load"]
    assert canon(service.live_points()) == canon(live)


# ----------------------------------------------------------------------
# Hypothesis: interleaving invariance + ledger partition
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    shard_count=st.integers(min_value=1, max_value=4),
    adaptive=st.booleans(),
)
def test_interleaved_topology_ops_match_naive_and_partition_ledger(
    seed, shard_count, adaptive
):
    rng = random.Random(seed)
    points = seed_points(60, seed=seed)
    engine = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=shard_count,
            block_size=8,
            memory_blocks=8,
            delta_threshold=5,
            level_growth=2,
            merge_step_blocks=2,
            adaptive_topology=adaptive,
        ),
    )
    service = engine.backend.service
    live = list(points)
    queries = [
        RangeQuery(),
        TopOpenQuery(50.0, 400_000.0, 10.0),
        FourSidedQuery(0.0, 300_000.0, 0.0, 300_000.0),
    ]
    for i in range(25):
        roll = rng.random()
        if roll < 0.4:
            p = Point(500_000.0 + i * 1.25, 500_000.0 + i * 1.5, 70_000 + i)
            engine.insert(p)
            live.append(p)
        elif roll < 0.6 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert engine.delete(victim).applied
        elif roll < 0.7:
            engine.split_shard(rng.randrange(len(service.shards)))
        elif roll < 0.8 and len(service.shards) > 1:
            engine.merge_shards(rng.randrange(len(service.shards) - 1))
        elif roll < 0.85:
            engine.fold_shard(rng.randrange(len(service.shards)))
        elif roll < 0.9:
            engine.query(rng.choice(queries))
        elif roll < 0.95:
            # Per-shard drain: one private tower's debt paid, the
            # neighbours' untouched -- the per-shard maintenance surface.
            engine.drain(rng.randrange(len(service.shards)))
        else:
            engine.drain()
        # Ledger partition after every op, whatever the interleaving.
        assert (
            engine.attributed_io() + engine.maintenance_io()
            == engine.io_total() - engine.build_io
        ), f"partition broke after op {i}"
        # Inherited-ref partition: the live intervals referencing one
        # shared component are pairwise disjoint, so every reachable
        # record is answered by exactly one tower (the invariant that
        # makes a later merge unable to resurrect folded points).
        intervals: dict = {}
        for shard in service.shards:
            assert shard.tower is not None
            for ref in shard.tower.inherited:
                intervals.setdefault(id(ref.comp), []).append(
                    (ref.lo, ref.hi)
                )
        for rows in intervals.values():
            rows.sort()
            for (_, a_hi), (b_lo, _) in zip(rows, rows[1:]):
                assert a_hi <= b_lo, f"overlapping inherited refs at op {i}"
        assert len(service) == len(live), f"resident count off at op {i}"
        # Verification reads go through the engine too, so they stay
        # inside the accounting identity checked above.
        for q in queries:
            got = engine.query(QueryRequest(rect=q, consistency="fresh"))
            assert canon_xy(got.points) == canon_xy(range_skyline(live, q)), (
                f"answers diverge at op {i}"
            )
    assert canon(service.live_points()) == canon(live)


# ----------------------------------------------------------------------
# Satellite: the actual shard count is authoritative everywhere
# ----------------------------------------------------------------------
def test_actual_shard_count_authoritative_when_cuts_degenerate():
    # Three points cannot populate eight shards: the router's count is
    # what describe(), plans and the topology block must report.
    service = SkylineService(
        [Point(1.0, 5.0, 0), Point(2.0, 6.0, 1), Point(3.0, 7.0, 2)],
        shard_count=8,
    )
    actual = service.router.shard_count
    assert actual < 8
    assert len(service.shards) == actual
    status = service.describe()
    assert status["shard_count"] == actual
    assert len(status["shard_sizes"]) == actual
    topo = status["topology"]
    assert topo["shard_count"] == actual
    assert topo["configured_shard_count"] == 8
    engine = SkylineEngine(ShardedServiceBackend(service))
    plan = engine.explain(RangeQuery())
    assert plan.shards_visited + plan.shards_pruned == actual
    assert engine.describe()["backend"]["shard_count"] == actual


def test_size_balanced_cuts_duplicate_x_regression():
    # Duplicate x straddling chunk boundaries: those cuts are dropped
    # rather than emitted non-increasing, and the router agrees with
    # what remains (here only the middle boundary separates distinct x).
    dup = [Point(float(i // 4), float(i), i) for i in range(8)]
    cuts = size_balanced_cuts(dup, 4)
    assert cuts == [0.5]
    assert all(b > a for a, b in zip(cuts, cuts[1:]))
    router = ShardRouter(cuts)
    assert router.shard_count == len(cuts) + 1


def test_topology_changes_reported_in_plans():
    points = uniform_points(300, universe=1_000_000, seed=12)
    engine = SkylineEngine.sharded(
        points, ServiceConfig(shard_count=4, delta_threshold=10_000)
    )
    before = engine.explain(RangeQuery())
    assert before.shards_visited + before.shards_pruned == 4
    assert engine.split_shard(1) is not None
    after = engine.explain(RangeQuery())
    assert after.shards_visited + after.shards_pruned == 5
    assert after.topology_version is not None
    assert before.topology_version is not None
    assert after.topology_version > before.topology_version
