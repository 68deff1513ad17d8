"""Tests for the durability subsystem (repro.service.durability).

The acceptance property is *prefix consistency*: crash a durable service
after any durable WAL-record prefix, and :meth:`SkylineService.open`
restores exactly the live point set the durable prefix describes -- and its
query answers match the naive scan baseline over that point set.  The
crash adversary is :class:`repro.service.durability.CrashSimulator`, which
enumerates every prefix, including kills in the middle of a group-committed
block.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FourSidedQuery, Point, RangeQuery, TopOpenQuery
from repro.baselines.naive import NaiveScanSkyline
from repro.em import EMConfig, StorageManager
from repro.service import (
    CrashSimulator,
    DurableStore,
    ServiceConfig,
    SkylineService,
    WriteAheadLog,
    crashed_copy,
)
from repro.service.durability import (
    OP_COMPACT,
    OP_DELETE,
    SnapshotManifest,
    load_snapshot,
    write_snapshot_blocks,
)


def canon(points):
    return sorted((p.x, p.y, p.ident) for p in points)


def canon_xy(points):
    return sorted((p.x, p.y) for p in points)


def seed_points(n, seed=0):
    """A small general-position point set with deterministic idents."""
    rng = random.Random(seed)
    xs = rng.sample(range(10 * n), n)
    ys = rng.sample(range(10 * n), n)
    return [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]


def naive_answers(points, queries):
    baseline = NaiveScanSkyline(
        StorageManager(EMConfig(block_size=16, memory_blocks=16)), points
    )
    return [canon_xy(baseline.query(query)) for query in queries]


def drive(service, ops, rng):
    """Apply a random op mix; returns the expected live set per WAL record.

    ``expected[k]`` is the canonical live set once the first ``k`` WAL
    records are applied.  One service call can emit several records (an
    insert record followed by a memtable flush, or a delete record
    followed by a tombstone-reclaim compaction checkpoint); the *first*
    record of a call carries the state change and the rest leave the
    live set untouched, so gaps are filled from the next recorded state.
    """
    live = list(service.live_points())
    expected = {0: canon(live)}

    def note():
        expected[service.wal.durable_count + service.wal.pending] = canon(live)

    for i in range(ops):
        roll = rng.random()
        if roll < 0.45:
            point = Point(100_000.0 + i * 1.25, 200_000.0 + i * 1.5, 50_000 + i)
            service.insert(point)
            live.append(point)
        elif roll < 0.75 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert service.delete(victim)
        elif roll < 0.85:
            service.compact()
        elif roll < 0.9:
            # Logs a drain checkpoint and may anchor a level-aware
            # snapshot.
            service.drain()
        else:
            # Queries must not disturb durability state at all.
            before = (service.wal.durable_count, service.wal.pending)
            service.query(TopOpenQuery(0.0, 500_000.0, 0.0))
            assert (service.wal.durable_count, service.wal.pending) == before
        note()
    known = sorted(expected)
    total = service.wal.durable_count + service.wal.pending
    for k in range(total + 1):
        if k not in expected:
            expected[k] = expected[min(j for j in known if j > k)]
    return expected


# ----------------------------------------------------------------------
# Acceptance: crash at every WAL prefix, recover the exact durable state
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    shard_count=st.integers(min_value=1, max_value=3),
    group_commit=st.sampled_from([1, 3]),
    snapshot_every=st.sampled_from([1, 2]),
)
def test_crash_recovery_every_prefix(seed, shard_count, group_commit, snapshot_every):
    rng = random.Random(seed)
    points = seed_points(30, seed=seed)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=shard_count,
            block_size=8,
            memory_blocks=8,
            delta_threshold=6,
            durability=True,
            wal_group_commit=group_commit,
            snapshot_every_compactions=snapshot_every,
        ),
    )
    expected = drive(service, ops=18, rng=rng)
    queries = [
        RangeQuery(),
        TopOpenQuery(50.0, 400_000.0, 10.0),
        FourSidedQuery(0.0, 250_000.0, 0.0, 250_000.0),
    ]
    for prefix, crashed in CrashSimulator(service.store):
        recovered = SkylineService.open(crashed)
        assert canon(recovered.live_points()) == expected[prefix], (
            f"live set diverges after crash at prefix {prefix}"
        )
        assert recovered.recovery is not None
        assert recovered.recovery["replay_io"] >= 0
        got = recovered.query_many(queries, use_cache=False)
        want = naive_answers(recovered.live_points(), queries)
        assert [canon_xy(r) for r in got] == want, (
            f"answers diverge after crash at prefix {prefix}"
        )


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_crash_during_topology_changes_restores_exact_topology(seed):
    """Crash-at-every-prefix through a stream of interleaved updates,
    splits, merges and folds: recovery restores not just the live set but
    the *exact* post-change topology (the manifest's recorded cuts plus
    the replayed OP_SPLIT/OP_MERGE/OP_FOLD suffix) at every WAL record
    boundary."""
    rng = random.Random(seed)
    points = seed_points(40, seed=seed)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=2,
            block_size=8,
            memory_blocks=8,
            delta_threshold=5,
            level_growth=2,
            merge_step_blocks=2,
            durability=True,
            wal_group_commit=1,
        ),
    )
    live = list(points)
    expected = {
        service.wal.durable_count: (canon(live), tuple(service.router.cuts))
    }
    for i in range(22):
        roll = rng.random()
        if roll < 0.45:
            point = Point(300_000.0 + i * 1.25, 300_000.0 + i * 1.5, 5_000 + i)
            service.insert(point)
            live.append(point)
        elif roll < 0.6 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert service.delete(victim)
        elif roll < 0.75:
            service.split_shard(rng.randrange(len(service.shards)))
        elif roll < 0.85 and len(service.shards) > 1:
            service.merge_shards(rng.randrange(len(service.shards) - 1))
        elif roll < 0.95:
            service.fold_shard(rng.randrange(len(service.shards)))
        else:
            service.drain()
        expected[service.wal.durable_count + service.wal.pending] = (
            canon(live),
            tuple(service.router.cuts),
        )
    total = service.wal.durable_count + service.wal.pending
    known = sorted(expected)
    for k in range(total + 1):
        if k not in expected:
            expected[k] = expected[min(j for j in known if j > k)]
    for prefix, crashed in CrashSimulator(service.store):
        recovered = SkylineService.open(crashed)
        want_live, want_cuts = expected[prefix]
        assert canon(recovered.live_points()) == want_live, (
            f"live set diverges after crash at prefix {prefix}"
        )
        assert tuple(recovered.router.cuts) == want_cuts, (
            f"topology diverges after crash at prefix {prefix}: "
            f"{recovered.router.cuts} != {list(want_cuts)}"
        )
        probe = TopOpenQuery(0.0, 500_000.0, 0.0)
        assert canon_xy(recovered.query(probe)) == canon_xy(
            NaiveScanSkyline(
                StorageManager(EMConfig(block_size=16, memory_blocks=16)),
                recovered.live_points(),
            ).query(probe)
        )


def test_clean_shutdown_recovers_exact_state():
    """Opening the untouched store (no crash) restores the full state."""
    points = seed_points(60, seed=5)
    service = SkylineService(
        points,
        ServiceConfig(
            shard_count=4,
            block_size=16,
            memory_blocks=8,
            delta_threshold=12,
            durability=True,
            wal_group_commit=1,
        ),
    )
    rng = random.Random(3)
    drive(service, ops=25, rng=rng)
    service.close()  # clean shutdown forces the tail durable
    recovered = SkylineService.open(service.store)
    assert canon(recovered.live_points()) == canon(service.live_points())
    assert canon_xy(recovered.skyline()) == canon_xy(service.skyline())


# ----------------------------------------------------------------------
# Durability off: identical answers, zero durability I/O
# ----------------------------------------------------------------------
def test_durability_off_equivalence_and_zero_wal_io():
    points = seed_points(80, seed=9)
    plain = SkylineService(
        points, ServiceConfig(shard_count=3, block_size=16, memory_blocks=8,
                              delta_threshold=10)
    )
    durable = SkylineService(
        points, ServiceConfig(shard_count=3, block_size=16, memory_blocks=8,
                              delta_threshold=10, durability=True)
    )
    rng_a, rng_b = random.Random(4), random.Random(4)
    for service, rng in ((plain, rng_a), (durable, rng_b)):
        for i in range(20):
            service.insert(Point(90_000.0 + i * 2.5, 90_000.0 + i * 3.5, 7_000 + i))
            if i % 4 == 0:
                assert service.delete(points[rng.randrange(len(points))])
    queries = [RangeQuery(), TopOpenQuery(10.0, 500_000.0, 5.0)]
    assert [canon_xy(r) for r in plain.query_many(queries, use_cache=False)] == [
        canon_xy(r) for r in durable.query_many(queries, use_cache=False)
    ]
    # The in-memory service charges no durability I/O anywhere...
    assert plain.store is None and plain.wal is None
    assert plain.durability_io() == 0
    assert "durability_detail" not in plain.describe()
    # ...while the durable one pays real block writes for WAL + snapshots,
    # on a ledger separate from the query path.
    assert durable.durability_io() > 0
    assert durable.io_total() == durable.query_io_total() + durable.durability_io()


# ----------------------------------------------------------------------
# WAL mechanics
# ----------------------------------------------------------------------
def test_wal_group_commit_block_math():
    store = DurableStore(EMConfig(block_size=4, memory_blocks=4))
    wal = WriteAheadLog(store, group_commit_size=6)
    for i in range(5):
        wal.log_insert(Point(float(i), float(i + 100), i))
    # Tail below the group size: acknowledged but not durable, no writes.
    assert wal.pending == 5 and wal.durable_count == 0
    assert store.stats.writes == 0
    wal.log_insert(Point(5.0, 105.0, 5))
    # Sixth record triggers the group commit: 6 records in blocks of B=4.
    assert wal.pending == 0 and wal.durable_count == 6
    assert store.stats.writes == 2
    assert store.wal_blocks == [(store.wal_blocks[0][0], 4), (store.wal_blocks[1][0], 2)]
    # LSNs are positional and contiguous across the flush boundary.
    records = list(store.read_wal_suffix(0))
    assert [r.lsn for r in records] == [1, 2, 3, 4, 5, 6]
    # A compact record forces the tail durable immediately.
    wal.log_insert(Point(6.0, 106.0, 6))
    assert wal.pending == 1
    checkpoint = wal.log_compact()
    assert wal.pending == 0 and wal.durable_count == 8
    assert checkpoint.op == OP_COMPACT and checkpoint.lsn == 8
    with pytest.raises(ValueError):
        checkpoint.point()


def test_crashed_copy_truncates_mid_block():
    store = DurableStore(EMConfig(block_size=4, memory_blocks=4))
    wal = WriteAheadLog(store, group_commit_size=8)
    for i in range(8):
        wal.log_insert(Point(float(i), float(i + 50), i))
    assert store.wal_durable == 8 and store.wal_block_count() == 2
    # Kill inside the first block: only 3 of its 4 records were durable.
    crashed = crashed_copy(store, 3)
    assert crashed.wal_durable == 3
    assert [r.lsn for r in crashed.read_wal_suffix(0)] == [1, 2, 3]
    # The original store is untouched (every prefix is independent).
    assert store.wal_durable == 8
    assert [r.lsn for r in store.read_wal_suffix(0)] == list(range(1, 9))
    with pytest.raises(ValueError):
        crashed_copy(store, 9)


def test_manifests_dropped_beyond_kill_point():
    """Regression: snapshot cadence at compaction checkpoints."""
    points = seed_points(40, seed=1)
    service = SkylineService(
        points,
        ServiceConfig(shard_count=2, block_size=8, memory_blocks=8,
                      delta_threshold=4, durability=True, wal_group_commit=1),
    )
    for i in range(12):
        service.insert(Point(70_000.0 + i * 1.5, 80_000.0 + i * 2.5, 9_000 + i))
        if i % 4 == 3:
            service.compact()
    assert service.compactions >= 2
    manifests = service.store.manifests
    # Birth snapshot plus one per compaction (cadence 1).
    assert len(manifests) == 1 + service.compactions
    # Crash before the first compaction checkpoint: only the birth
    # snapshot (installed_lsn == 0) survives, and recovery replays the
    # whole surviving suffix from LSN 0.
    first_checkpoint = manifests[1].installed_lsn
    crashed = crashed_copy(service.store, first_checkpoint - 1)
    assert [m.installed_lsn for m in crashed.manifests] == [0]
    # Dropped manifests' blocks and dropped WAL blocks are freed: every
    # allocated block is reachable from a surviving directory entry.
    assert crashed.blocks_in_use() == (
        crashed.snapshot_block_count() + crashed.wal_block_count()
    )
    assert crashed.blocks_in_use() < service.store.blocks_in_use()
    recovered = SkylineService.open(crashed)
    assert recovered.recovery["folded_lsn"] == 0
    assert recovered.recovery["replayed_records"] == first_checkpoint - 1


def test_reclaim_frees_superseded_history():
    """reclaim() keeps the store bounded: superseded snapshots and the
    folded WAL prefix are freed, recovery still works, and the crash
    simulator refuses only the reclaimed (unreplayable) kill points."""
    service = SkylineService(
        seed_points(40, seed=13),
        ServiceConfig(shard_count=2, block_size=8, memory_blocks=8,
                      delta_threshold=5, durability=True, wal_group_commit=1),
    )
    for i in range(20):
        service.insert(Point(60_000.0 + i * 1.75, 50_000.0 + i * 2.75, 6_000 + i))
        if i % 5 == 4:
            service.compact()
    assert len(service.store.manifests) >= 3
    before_blocks = service.store.blocks_in_use()
    freed = service.reclaim()
    assert freed["snapshot_blocks_freed"] > 0
    assert freed["wal_blocks_freed"] > 0
    assert service.store.blocks_in_use() < before_blocks
    assert len(service.store.manifests) == 1
    # Reclaiming again frees nothing (idempotent on quiescent history).
    assert service.reclaim() == {
        "snapshot_blocks_freed": 0, "wal_blocks_freed": 0,
    }
    # Recovery from the retained manifest + suffix is unaffected.
    service.close()
    recovered = SkylineService.open(service.store)
    assert canon(recovered.live_points()) == canon(service.live_points())
    # Crash simulation still covers every retained prefix...
    base = service.store.wal_base
    prefixes = [p for p, _ in CrashSimulator(service.store)]
    assert prefixes == list(range(base, service.store.wal_durable + 1))
    # ...and refuses reclaimed history instead of mis-recovering it.
    if base > 0:
        with pytest.raises(ValueError, match="reclaimed"):
            crashed_copy(service.store, base - 1)
    # A non-durable service reclaims nothing, trivially.
    plain = SkylineService(seed_points(10, seed=14), shard_count=1)
    assert plain.reclaim() == {
        "snapshot_blocks_freed": 0, "wal_blocks_freed": 0,
    }


def test_recovery_counters_split_snapshot_load_from_replay():
    """The cadence trade-off's two terms are reported separately."""
    service = SkylineService(
        seed_points(64, seed=15),
        ServiceConfig(shard_count=2, block_size=8, memory_blocks=8,
                      delta_threshold=1_000, durability=True,
                      wal_group_commit=1),
    )
    for i in range(5):
        service.insert(Point(70_000.0 + i * 1.5, 70_000.0 + i * 2.5, 5_000 + i))
    recovered = SkylineService.open(service.store)
    recovery = recovered.recovery
    # Baseline snapshot of 64 points in B=8 blocks: 8 point blocks + the
    # manifest read; the 5-record suffix is 5 one-record block reads; the
    # index rebuild from the loaded points is shard-machine work.
    assert recovery["snapshot_load_io"] == 9
    assert recovery["replay_io"] == 5
    assert recovery["replayed_records"] == 5
    assert recovery["rebuild_io"] > 0
    assert recovery["rebuild_io"] == recovered.query_io_total()
    assert recovery["recovery_io"] == 14 + recovery["rebuild_io"]


def test_snapshot_cadence_bounds_replay():
    """snapshot_every_compactions trades snapshot writes for replay length."""

    def build(snapshot_every):
        service = SkylineService(
            seed_points(40, seed=2),
            ServiceConfig(shard_count=2, block_size=8, memory_blocks=8,
                          delta_threshold=5, durability=True,
                          wal_group_commit=1,
                          snapshot_every_compactions=snapshot_every),
        )
        for i in range(20):
            service.insert(Point(60_000.0 + i * 1.25, 50_000.0 + i * 2.25, 8_000 + i))
            if i % 5 == 4:
                service.compact()
        return service

    frequent, sparse = build(1), build(3)
    assert frequent.compactions == sparse.compactions >= 3
    assert len(frequent.store.manifests) > len(sparse.store.manifests)
    # Sparse snapshotting leaves a longer WAL suffix to replay at recovery.
    replay_frequent = SkylineService.open(frequent.store).recovery
    replay_sparse = SkylineService.open(sparse.store).recovery
    assert replay_sparse["replayed_records"] >= replay_frequent["replayed_records"]
    assert replay_sparse["folded_lsn"] <= replay_frequent["folded_lsn"]


def test_snapshot_roundtrip_and_block_accounting():
    store = DurableStore(EMConfig(block_size=4, memory_blocks=4))
    shards = [
        [Point(float(i), float(i + 10), i) for i in range(6)],
        [Point(float(i + 100), float(i + 110), i + 100) for i in range(3)],
    ]
    writes_before = store.stats.writes
    blocks, total = write_snapshot_blocks(store, shards)
    # ceil(6/4) + ceil(3/4) = 3 point blocks, each one charged write.
    assert store.stats.writes - writes_before == 3
    assert total == 9 and [len(b) for b in blocks] == [2, 1]
    manifest = store.install_manifest(
        SnapshotManifest(generation=1, folded_lsn=0, installed_lsn=0,
                         cuts=(50.0,), shard_blocks=blocks, point_count=total)
    )
    assert manifest.block_count == 4  # 3 point blocks + the manifest block
    reads_before = store.stats.reads
    loaded = load_snapshot(store, manifest)
    assert canon(loaded) == canon([p for shard in shards for p in shard])
    assert store.stats.reads - reads_before == 4


def test_open_virgin_store_and_recovery_counters_in_describe():
    store = DurableStore(EMConfig(block_size=8, memory_blocks=8))
    service = SkylineService.open(store)
    assert service.live_points() == []
    # Nothing was replayed: the baseline-snapshot write the constructor
    # performs is birth cost, not replay.
    assert service.recovery["replayed_records"] == 0
    assert service.recovery["replay_io"] == 0
    service.insert(Point(1.0, 2.0, 0))
    assert service.close() == 1
    recovered = SkylineService.open(service.store)
    detail = recovered.describe()["durability_detail"]
    assert detail["recovery"]["replayed_records"] == 1
    assert detail["recovery"]["replay_io"] > 0
    assert canon(recovered.live_points()) == [(1.0, 2.0, 0)]


def test_used_store_rejected_outside_open():
    """A store already holding durable state must be recovered via open():
    silently layering fresh points on top would make recovery resurrect
    the old state and lose the new points entirely."""
    original = ServiceConfig(shard_count=1, block_size=8, memory_blocks=8,
                             durability=True, wal_group_commit=1)
    first = SkylineService(seed_points(10, seed=11), original)
    with pytest.raises(ValueError, match="SkylineService.open"):
        SkylineService(
            seed_points(10, seed=12), store=first.store,
            shard_count=4, wal_group_commit=64,
        )
    # The rejected call must not have touched the store: the recorded
    # config (and thus the durability guarantee open() recovers with)
    # is still the owning service's.
    assert first.store.service_config == original
    recovered = SkylineService.open(first.store)
    assert recovered.config.wal_group_commit == 1
    assert canon(recovered.live_points()) == canon(first.live_points())


def test_replayed_wal_records_round_trip_ops():
    """WAL records carry exact victims: replay deletes the logged ident."""
    twins_base = seed_points(20, seed=6)
    service = SkylineService(
        twins_base,
        ServiceConfig(shard_count=2, block_size=8, memory_blocks=8,
                      delta_threshold=100, durability=True, wal_group_commit=1),
    )
    victim = twins_base[7]
    assert service.delete(Point(victim.x, victim.y, victim.ident))
    records = list(service.store.read_wal_suffix(0))
    assert [r.op for r in records] == [OP_DELETE]
    assert records[0].ident == victim.ident
    recovered = SkylineService.open(service.store)
    assert canon(recovered.live_points()) == canon(
        [p for p in twins_base if p.ident != victim.ident]
    )
