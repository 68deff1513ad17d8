"""Tests for the multiversion (partially persistent) B-tree."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.point import Point
from repro.em.config import EMConfig
from repro.em.counters import IOSnapshot
from repro.em.storage import StorageManager
from repro.ppbtree import MultiversionBTree, build_segment_ppbtree, sweep_events
from repro.ppbtree.nodes import INF, MVNode
from repro.segments import compute_sigma
from repro.workloads import anticorrelated_points


def make_storage(block_size=16):
    return StorageManager(EMConfig(block_size=block_size, memory_blocks=16))


def random_points(n, seed):
    rng = random.Random(seed)
    xs = rng.sample(range(10 * n), n)
    ys = rng.sample(range(10 * n), n)
    return sorted(
        (Point(x, y, i) for i, (x, y) in enumerate(zip(xs, ys))), key=lambda p: p.x
    )


def test_entry_and_node_liveness():
    """Entries are (key, start, end, value) tuples, live on [start, end)."""
    ended, live = (1, 1, 3, "v"), (5, 0, INF, "w")
    node = MVNode(is_leaf=True, entries=[ended, live])
    assert node.live_count() == 1
    assert node.live_entries() == [live]
    assert node.live_entries(1) == node.live_entries(2.9) == [ended, live]
    assert node.live_entries(3) == node.live_entries(0) == [live]
    assert node.live_entries(0.5) == [live]
    assert node.record_size() == 2
    assert node.end_live(4) == [live]
    assert node.entries == [ended, (5, 0, 4, "w")]
    assert node.live_count() == 0 and node.live_entries() == []


def test_versions_must_be_non_decreasing():
    tree = MultiversionBTree(make_storage())
    tree.insert(1, "a", version=5)
    with pytest.raises(ValueError):
        tree.insert(2, "b", version=4)


def test_snapshot_queries_reflect_history():
    tree = MultiversionBTree(make_storage())
    tree.insert(10, "ten", version=0)
    tree.insert(20, "twenty", version=1)
    tree.delete(10, version=2)
    tree.insert(30, "thirty", version=3)
    assert [k for k, _ in tree.snapshot_items(0)] == [10]
    assert [k for k, _ in tree.snapshot_items(1)] == [10, 20]
    assert [k for k, _ in tree.snapshot_items(2)] == [20]
    assert [k for k, _ in tree.snapshot_items(3)] == [20, 30]
    assert tree.range_query(3, 25, 100) == ["thirty"]
    assert tree.range_query(-1, 0, 100) == []


def test_delete_of_absent_key_is_noop():
    tree = MultiversionBTree(make_storage())
    assert not tree.delete(5, version=0)
    tree.insert(5, "x", version=1)
    assert not tree.delete(6, version=2)
    assert tree.delete(5, version=3)


def test_interval_liveness_against_reference():
    """Random interval workload: every snapshot matches a brute-force replay."""
    rng = random.Random(7)
    tree = MultiversionBTree(make_storage(block_size=16))
    intervals = []
    for i in range(300):
        start = i
        end = i + rng.randint(1, 60)
        key = rng.random()
        intervals.append((key, start, end))
    events = []
    for key, start, end in intervals:
        events.append((start, 1, key))
        events.append((end, 0, key))
    events.sort()
    for time, kind, key in events:
        if kind == 1:
            tree.insert(key, key, version=time)
        else:
            tree.delete(key, version=time)
    for probe in [0.5, 10.5, 50.5, 150.5, 299.5, 330.5]:
        expected = sorted(k for k, s, e in intervals if s <= probe < e)
        got = sorted(k for k, _ in tree.snapshot_items(probe))
        assert got == expected


def test_scan_from_supports_early_termination():
    tree = MultiversionBTree(make_storage())
    for i in range(100):
        tree.insert(i, i, version=0)
    visited = []

    def visitor(key, value):
        visited.append(key)
        return len(visited) < 5

    tree.scan_from(0, 50, visitor)
    assert visited == [50, 51, 52, 53, 54]


def test_sweep_events_order():
    points = random_points(50, 1)
    segments = compute_sigma(points)
    events = sweep_events(segments)
    xs = [x for x, _, _ in events]
    assert xs == sorted(xs)
    bounded = [s for s in segments if not math.isinf(s.x_right)]
    assert len(events) == len(segments) + len(bounded)


def test_sweep_events_match_one_sort_of_all_endpoints():
    """The event order is one stable sort of every endpoint by (x, kind, y),
    whatever order the segments arrive in."""
    segments = compute_sigma(random_points(400, 6))
    random.Random(1).shuffle(segments)
    reference = []
    for segment in segments:
        reference.append((segment.x_left, 1, segment))
        if not math.isinf(segment.x_right):
            reference.append((segment.x_right, 0, segment))
    reference.sort(key=lambda event: (event[0], event[1], event[2].y))
    got = sweep_events(segments)
    assert [(x, kind, id(s)) for x, kind, s in got] == [
        (x, kind, id(s)) for x, kind, s in reference
    ]


def test_segment_ppbtree_snapshots_match_live_segments():
    points = random_points(250, 2)
    segments = compute_sigma(points)
    tree = build_segment_ppbtree(make_storage(), segments)
    rng = random.Random(3)
    for _ in range(25):
        x = rng.uniform(0, 2500)
        expected = sorted(s.y for s in segments if s.covers_x(x))
        got = sorted(k for k, _ in tree.snapshot_items(x))
        assert got == expected
    assert tree.block_count() > 0
    assert tree.version_copies > 0


def test_segment_ppbtree_space_is_linear():
    points = random_points(600, 4)
    segments = compute_sigma(points)
    storage = make_storage(block_size=32)
    tree = build_segment_ppbtree(storage, segments)
    blocks = tree.block_count()
    # O(n/B) blocks with a generous constant.
    assert blocks <= 12 * (len(points) / 32 + 1)


def reachable_nodes(tree):
    """Every node reachable from any root version, peeked after a flush so
    the walk charges no reads."""
    tree.storage.flush()
    seen, stack, nodes = set(), [root_id for _, root_id in tree.roots], []
    while stack:
        node_id = stack.pop()
        if node_id in seen:
            continue
        seen.add(node_id)
        node = tree.storage.disk.peek(node_id)
        nodes.append(node)
        if not node.is_leaf:
            stack.extend(value for _, _, _, value in node.entries)
    return nodes


def assert_node_invariants(tree):
    for node in reachable_nodes(tree):
        order = [(key, start) for key, start, _, _ in node.entries]
        assert order == sorted(order)
        assert node.live_count() == sum(1 for _, _, end, _ in node.entries if end == INF)


@pytest.mark.parametrize("block_size", [8, 9, 12, 16, 64])
def test_restructuring_never_overflows_a_block(block_size):
    """A parent takes up to two routers before its capacity check, so
    every node ever written fits its block, also at small B."""
    storage = make_storage(block_size=block_size)
    tree = build_segment_ppbtree(storage, compute_sigma(random_points(500, 12)))
    assert tree.capacity + 2 <= block_size
    assert max(len(node.entries) for node in reachable_nodes(tree)) <= block_size


@pytest.mark.parametrize("block_size", [2, 4, 7])
def test_too_small_block_size_raises_before_any_io(block_size):
    storage = make_storage(block_size=block_size)
    with pytest.raises(ValueError, match="too small"):
        MultiversionBTree(storage)
    assert storage.io_total() == 0


# (kind, key, version step): few distinct keys, so keys repeat and deletes
# often name a key that is not live.
updates = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete"]),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=250,
)


@settings(max_examples=60, deadline=None)
@given(updates)
def test_entries_stay_ordered_and_live_counts_exact(ops):
    """After every update, each reachable node's entries are in (key, start)
    order and its maintained live count equals a recount."""
    tree = MultiversionBTree(make_storage(block_size=16))
    version = 0
    for kind, key, step in ops:
        version += step
        if kind == "insert":
            tree.insert(key, key, version=version)
        else:
            tree.delete(key, version=version)
        assert_node_invariants(tree)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=400), unique=True, max_size=200))
def test_root_for_is_last_root_starting_at_or_before(probes):
    """The bisected root lookup returns what a scan of ``roots`` returns."""
    tree = build_segment_ppbtree(make_storage(), compute_sigma(random_points(300, 9)))
    assert len(tree.roots) > 10
    for version in [-1, *probes, math.inf]:
        expected = None
        for start, root_id in tree.roots:
            if start <= version:
                expected = root_id
        assert tree.root_for(version) == expected


# Ledger of the seeded sweeps below, pinned so that a speed-up of the build
# cannot move a block: (reads, writes, allocations, frees, version copies,
# root versions, blocks).
GOLDEN_LEDGER = {
    ("uniform", 64, False): (0, 41, 57, 0, 56, 57, 57),
    ("uniform", 64, True): (5993, 6049, 57, 0, 56, 57, 57),
    ("uniform", 16, False): (1, 863, 878, 0, 839, 443, 878),
    ("uniform", 16, True): (10337, 7304, 878, 0, 839, 443, 878),
    ("anti", 64, False): (0, 94, 110, 0, 107, 102, 110),
    ("anti", 64, True): (6230, 6070, 110, 0, 107, 102, 110),
    ("anti", 16, False): (3, 766, 779, 0, 709, 163, 779),
    ("anti", 16, True): (11491, 7340, 779, 0, 709, 163, 779),
}


@pytest.mark.parametrize("shape, block_size, cold_cache", sorted(GOLDEN_LEDGER))
def test_sigma_sweep_ledger_is_pinned(shape, block_size, cold_cache):
    """SABE and classic (cold-cache) builds of Sigma(P) charge exactly the
    pinned transfers and allocate exactly the pinned blocks."""
    if shape == "uniform":
        points = random_points(3000, 11)
    else:
        points = sorted(anticorrelated_points(3000, seed=5), key=lambda p: p.x)
    storage = StorageManager(EMConfig(block_size=block_size, memory_blocks=16))
    tree = build_segment_ppbtree(storage, compute_sigma(points), cold_cache=cold_cache)
    reads, writes, allocations, frees, copies, roots, blocks = GOLDEN_LEDGER[
        (shape, block_size, cold_cache)
    ]
    assert storage.snapshot() == IOSnapshot(reads, writes, allocations, frees)
    assert tree.version_copies == copies
    assert len(tree.roots) == roots
    assert tree.block_count() == blocks
