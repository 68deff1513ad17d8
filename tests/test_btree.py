"""Tests for the external-memory B-tree, bulk loading and range-max variant."""

import random

import pytest

from repro.btree import BTree, RangeMaxBTree, bulk_load_sorted
from repro.core.point import Point
from repro.em.config import EMConfig
from repro.em.storage import StorageManager


def make_storage(block_size=8):
    return StorageManager(EMConfig(block_size=block_size, memory_blocks=16))


def test_insert_search_and_membership():
    tree = BTree(make_storage())
    keys = random.Random(0).sample(range(10_000), 400)
    for key in keys:
        tree.insert(key, key * 2)
    assert len(tree) == 400
    for key in keys[:50]:
        assert tree.search(key) == key * 2
        assert key in tree
    assert tree.search(-1) is None
    assert tree.height() >= 2


def test_insert_overwrites_existing_key():
    tree = BTree(make_storage())
    tree.insert(1, "a")
    tree.insert(1, "b")
    assert len(tree) == 1
    assert tree.search(1) == "b"


def test_range_scan_and_items():
    tree = BTree(make_storage())
    for key in range(200):
        tree.insert(key, -key)
    scanned = list(tree.range_scan(50, 75))
    assert [k for k, _ in scanned] == list(range(50, 76))
    assert [k for k, _ in tree.items()] == list(range(200))


def test_min_max_predecessor_successor():
    tree = BTree(make_storage())
    for key in range(0, 100, 2):
        tree.insert(key, key)
    assert tree.min_entry() == (0, 0)
    assert tree.max_entry() == (98, 98)
    assert tree.predecessor(51) == (50, 50)
    assert tree.successor(51) == (52, 52)
    assert tree.predecessor(-1) is None
    assert tree.successor(99) is None


def test_delete_and_rebalance():
    tree = BTree(make_storage())
    keys = list(range(300))
    random.Random(1).shuffle(keys)
    for key in keys:
        tree.insert(key, key)
    removed = keys[:200]
    for key in removed:
        assert tree.delete(key)
    assert not tree.delete(removed[0])
    assert len(tree) == 100
    for key in removed[:20]:
        assert tree.search(key) is None
    for key in keys[200:220]:
        assert tree.search(key) == key


def test_empty_tree_behaviour():
    tree = BTree(make_storage())
    assert tree.is_empty()
    assert tree.search(1) is None
    assert tree.min_entry() is None and tree.max_entry() is None
    assert not tree.delete(1)
    assert list(tree.items()) == []


def test_validation_of_parameters():
    with pytest.raises(ValueError):
        BTree(make_storage(), leaf_capacity=1)
    with pytest.raises(ValueError):
        BTree(make_storage(), fanout=2)


def test_bulk_load_matches_incremental():
    storage = make_storage()
    entries = [(i, i * i) for i in range(500)]
    tree = bulk_load_sorted(storage, entries)
    assert len(tree) == 500
    assert tree.search(123) == 123 * 123
    assert [k for k, _ in tree.range_scan(100, 110)] == list(range(100, 111))
    with pytest.raises(ValueError):
        bulk_load_sorted(storage, [(2, 0), (1, 0)])
    empty = bulk_load_sorted(storage, [])
    assert empty.is_empty()


def test_bulk_load_is_cheaper_than_incremental():
    entries = [(i, i) for i in range(2000)]
    bulk_storage = make_storage()
    before = bulk_storage.snapshot()
    bulk_load_sorted(bulk_storage, entries)
    bulk_io = (bulk_storage.snapshot() - before).total

    inc_storage = make_storage()
    before = inc_storage.snapshot()
    tree = BTree(inc_storage)
    for key, value in entries:
        inc_storage.drop_cache()
        tree.insert(key, value)
    incremental_io = (inc_storage.snapshot() - before).total
    assert bulk_io < incremental_io


def test_range_aggregate_requires_hook():
    tree = BTree(make_storage())
    tree.insert(1, 1)
    with pytest.raises(ValueError):
        tree.range_aggregate(0, 2)


def test_range_max_btree_matches_brute_force():
    rng = random.Random(2)
    points = [Point(x, rng.randrange(10_000), i) for i, x in enumerate(rng.sample(range(10_000), 300))]
    storage = make_storage(block_size=16)
    ordered = sorted(points, key=lambda p: p.x)
    tree = RangeMaxBTree.build_sorted(storage, [p.x for p in ordered], [p.y for p in ordered])
    for _ in range(100):
        lo, hi = sorted(rng.sample(range(10_000), 2))
        inside = [p.y for p in points if lo <= p.x <= hi]
        expected = max(inside) if inside else None
        assert tree.max_y_in(lo, hi) == expected
    assert len(tree) == 300


def test_range_max_build_sorted_allocates_only_the_bulk_loaded_tree():
    """Regression: ``build_sorted`` once left the empty root leaf of the
    tree it replaced allocated, one orphan block per structure."""
    rng = random.Random(4)
    xs = sorted(rng.sample(range(100_000), 1_000))
    ys = [rng.random() for _ in xs]
    alone, built = make_storage(block_size=64), make_storage(block_size=64)
    bulk_load_sorted(alone, list(zip(xs, ys)), aggregate=max)
    tree = RangeMaxBTree.build_sorted(built, xs, ys)
    assert built.blocks_in_use() == alone.blocks_in_use() == 17
    assert built.io_total() == alone.io_total()
    assert tree.max_y_in(xs[0], xs[-1]) == max(ys)


def test_range_max_btree_updates():
    storage = make_storage(block_size=16)
    tree = RangeMaxBTree(storage)
    points = [Point(i, 100 - i, i) for i in range(50)]
    for point in points:
        tree.insert(point)
    assert tree.max_y_in(10, 20) == 90
    assert tree.max_y_in(10.5, 20) == 89
    assert tree.delete(Point(10, 90, 10))
    assert tree.max_y_in(10, 20) == 89
    assert tree.max_y_in(10, 10) is None


def reference_range_aggregate(tree, key_lo, key_hi, read):
    """The child-by-child walk that bisection replaced, kept as the
    reference: the values it collects and the nodes it reads, via
    ``read``, in order."""
    out = []

    def walk(node_id):
        node = read(node_id)
        if node.is_leaf:
            out.extend(v for k, v in zip(node.keys, node.values) if key_lo <= k <= key_hi)
            return
        for index, child_id in enumerate(node.children):
            child_min = node.separators[index - 1] if index > 0 else None
            child_max = node.separators[index]
            if child_max < key_lo:
                continue
            if child_min is not None and child_min > key_hi:
                break
            prev_max = node.separators[index - 1] if index > 0 else float("-inf")
            if prev_max >= key_lo and child_max <= key_hi:
                out.append(node.aggregates[index])
            else:
                walk(child_id)
            if child_max >= key_hi:
                break

    walk(tree.root_id)
    return max(out) if out else None


def traced_reads(storage):
    """Record every block id ``storage.read`` is asked for."""
    trace = []
    read = storage.read

    def recording_read(block_id):
        trace.append(block_id)
        return read(block_id)

    storage.read = recording_read
    return trace


@pytest.mark.parametrize("build", ["bulk", "inserts"])
def test_range_aggregate_matches_brute_force_and_the_child_walk(build):
    """Bisected range aggregates equal a brute-force max and read the
    nodes the child-by-child walk reads, in its order, for ranges with
    infinite ends, empty ranges, keys outside the span and bounds that
    fall between two keys or on one."""
    rng = random.Random(60)
    keys = list(range(0, 400, 2))
    values = {key: rng.uniform(0, 1_000) for key in keys}
    storage = make_storage()
    if build == "bulk":
        tree = bulk_load_sorted(
            storage, [(k, values[k]) for k in keys], leaf_capacity=4, fanout=4, aggregate=max
        )
    else:
        tree = BTree(storage, leaf_capacity=4, fanout=4, aggregate=max)
        for key in rng.sample(keys, len(keys)):
            tree.insert(key, values[key])
        for key in rng.sample(keys, 60):
            assert tree.delete(key)
            del values[key]
    assert tree.height() >= 3
    bounds = [float("-inf"), float("inf"), -7, 0, 1, 398, 399, 512]
    bounds += rng.sample(range(-3, 403), 40)
    trace = traced_reads(storage)
    for _ in range(600):
        lo, hi = rng.choice(bounds), rng.choice(bounds)
        expected = max((v for k, v in values.items() if lo <= k <= hi), default=None)
        del trace[:]
        assert tree.range_aggregate(lo, hi) == expected, (lo, hi)
        walked = list(trace)
        del trace[:]
        assert reference_range_aggregate(tree, lo, hi, storage.read) == expected
        assert walked == trace, (lo, hi)
