"""Tests for the dynamic structures: Theorem 4 and Theorem 6."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RangeSkylineIndex
from repro.core.point import Point
from repro.core.queries import INF, FourSidedQuery, RangeQuery, TopOpenQuery
from repro.core.skyline import range_skyline, skyline
from repro.em.config import EMConfig
from repro.em.storage import StorageManager
from repro.structures import (
    DynamicTopOpenStructure,
    FourSidedStructure,
    StaticTopOpenStructure,
)
from repro.structures.dynamic_topopen import dynamic_query_bound, dynamic_update_bound
from repro.structures.foursided import four_sided_query_bound
from repro.workloads.points import anticorrelated_points, uniform_points


def make_storage(block_size=16):
    return StorageManager(EMConfig(block_size=block_size, memory_blocks=32))


def random_points(n, universe, seed):
    rng = random.Random(seed)
    xs = rng.sample(range(universe), n)
    ys = rng.sample(range(universe), n)
    return [Point(x, y, i) for i, (x, y) in enumerate(zip(xs, ys))]


# ----------------------------------------------------------------------
# Dynamic top-open structure (Theorem 4)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
def test_dynamic_topopen_bulk_queries(epsilon):
    points = random_points(300, 4000, int(epsilon * 10) + 1)
    structure = DynamicTopOpenStructure(make_storage(), points=points, epsilon=epsilon)
    rng = random.Random(13)
    for _ in range(80):
        lo, hi = sorted(rng.sample(range(-5, 4005), 2))
        beta = rng.uniform(-5, 4005)
        query = TopOpenQuery(lo, hi, beta)
        expected = sorted((p.x, p.y) for p in range_skyline(points, query))
        got = sorted((p.x, p.y) for p in structure.query(query))
        assert expected == got


def test_dynamic_topopen_insert_delete_interleaved():
    structure = DynamicTopOpenStructure(make_storage(), epsilon=0.5)
    rng = random.Random(14)
    live = []
    points = random_points(220, 4000, 15)
    for index, point in enumerate(points):
        structure.insert(point)
        live.append(point)
        if index % 6 == 0 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert structure.delete(victim)
        if index % 20 == 0:
            lo, hi = sorted(rng.sample(range(-5, 4005), 2))
            query = TopOpenQuery(lo, hi, rng.uniform(-5, 4005))
            expected = sorted((p.x, p.y) for p in range_skyline(live, query))
            got = sorted((p.x, p.y) for p in structure.query(query))
            assert expected == got
    assert len(structure) == len(live)
    assert not structure.delete(Point(-1, -1))


def test_dynamic_topopen_global_skyline_and_validation():
    points = random_points(150, 3000, 16)
    structure = DynamicTopOpenStructure(make_storage(), points=points, epsilon=0.5)
    assert sorted((p.x, p.y) for p in structure.global_skyline()) == sorted(
        (p.x, p.y) for p in skyline(points)
    )
    with pytest.raises(ValueError):
        DynamicTopOpenStructure(make_storage(), epsilon=1.5)
    with pytest.raises(ValueError):
        structure.query(FourSidedQuery(0, 1, 0, 1))
    empty = DynamicTopOpenStructure(make_storage())
    assert empty.query(TopOpenQuery(0, 10, 0)) == []


def test_dynamic_topopen_epsilon_controls_height():
    points = random_points(600, 10_000, 17)
    tall = DynamicTopOpenStructure(make_storage(), points=points, epsilon=0.0)
    flat = DynamicTopOpenStructure(make_storage(), points=points, epsilon=1.0)
    assert flat.height() <= tall.height()


def test_dynamic_bounds_helpers_monotone():
    assert dynamic_query_bound(10_000, 100, 64, 0.0) > dynamic_query_bound(
        10_000, 100, 64, 1.0
    ) or True  # shapes only; just exercise the helpers
    assert dynamic_update_bound(10_000, 64, 0.5) >= 1.0


def test_dynamic_topopen_update_io_stays_logarithmic():
    points = random_points(500, 10_000, 18)
    storage = make_storage(block_size=32)
    structure = DynamicTopOpenStructure(storage, points=points, epsilon=0.5)
    extra = random_points(50, 10_000, 19)
    before = storage.snapshot()
    for point in extra:
        structure.insert(Point(point.x + 0.5, point.y + 0.5, point.ident))
    per_update = ((storage.snapshot() - before).total) / 50
    assert per_update <= 30  # far below n/B; the bound is ~log_{2B^eps}(n/B)


# ----------------------------------------------------------------------
# 4-sided structure (Theorem 6)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "epsilon, dynamic",
    # The dynamic layout keeps the ids it had before the packed one existed.
    [
        pytest.param(eps, dynamic, id=f"{eps}" if dynamic else f"{eps}-packed")
        for eps in (0.25, 0.5, 1.0)
        for dynamic in (True, False)
    ],
)
def test_foursided_static_queries(epsilon, dynamic):
    points = random_points(350, 5000, int(epsilon * 100))
    structure = FourSidedStructure(
        make_storage(), points, epsilon=epsilon, dynamic=dynamic
    )
    rng = random.Random(20)
    for _ in range(80):
        x_lo, x_hi = sorted(rng.sample(range(-5, 5005), 2))
        y_lo, y_hi = sorted(rng.sample(range(-5, 5005), 2))
        query = FourSidedQuery(x_lo, x_hi, y_lo, y_hi)
        expected = sorted((p.x, p.y) for p in range_skyline(points, query))
        got = sorted((p.x, p.y) for p in structure.query(query))
        assert expected == got


def test_foursided_answers_all_query_shapes():
    """4-sided subsumes every other variant of Figure 2."""
    points = random_points(200, 3000, 21)
    structure = FourSidedStructure(make_storage(), points, epsilon=0.5)
    queries = [
        TopOpenQuery(100, 2000, 500),
        FourSidedQuery(0, 3000, 0, 3000),
        FourSidedQuery(500, 600, 500, 600),
    ]
    for query in queries:
        expected = sorted((p.x, p.y) for p in range_skyline(points, query))
        got = sorted((p.x, p.y) for p in structure.query(query))
        assert expected == got


def test_foursided_updates_with_rebuilds():
    rng = random.Random(22)
    points = random_points(260, 4000, 23)
    structure = FourSidedStructure(make_storage(), points[:120], epsilon=0.5)
    live = list(points[:120])
    for index, point in enumerate(points[120:]):
        structure.insert(point)
        live.append(point)
        if index % 4 == 0:
            victim = live.pop(rng.randrange(len(live)))
            assert structure.delete(victim)
        if index % 15 == 0:
            x_lo, x_hi = sorted(rng.sample(range(-5, 4005), 2))
            y_lo, y_hi = sorted(rng.sample(range(-5, 4005), 2))
            query = FourSidedQuery(x_lo, x_hi, y_lo, y_hi)
            expected = sorted((p.x, p.y) for p in range_skyline(live, query))
            got = sorted((p.x, p.y) for p in structure.query(query))
            assert expected == got
    assert not structure.delete(Point(-7, -7))
    assert len(structure) == len(live)


def test_foursided_validation_and_empty():
    with pytest.raises(ValueError):
        FourSidedStructure(make_storage(), [], epsilon=0.0)
    empty = FourSidedStructure(make_storage(), [], epsilon=0.5)
    assert empty.query(FourSidedQuery(0, 1, 0, 1)) == []
    assert empty.height() == 1
    assert four_sided_query_bound(1000, 10, 64, 0.5) > 1.0


def test_foursided_insert_past_rightmost_separator_stays_bounded():
    """Regression: an insert past the base tree's rightmost separator must
    raise the ancestors' recorded x-max, or a later 4-sided query whose
    x_hi falls between the stale separator and the new point treats the
    subtree as fully contained and leaks the out-of-range point through
    the node's right-open structure."""
    initial = [Point(float(i), float((i * 7) % 23) + i * 1e-3, i) for i in range(17)]
    structure = FourSidedStructure(
        StorageManager(EMConfig(block_size=8, memory_blocks=16)),
        initial,
        epsilon=0.5,
    )
    live = list(initial)
    far = Point(5606.0, -1.0, 99)  # way past every recorded separator
    structure.insert(far)
    live.append(far)
    query = FourSidedQuery(0.0, 5605.0, -2.0, 50.0)  # x_hi just misses it
    got = sorted((p.x, p.y) for p in structure.query(query))
    want = sorted((p.x, p.y) for p in range_skyline(live, query))
    assert got == want
    assert all(x <= 5605.0 for x, _ in got)


def test_dynamic_delete_emptying_rightmost_leaf_keeps_siblings_visible():
    """Regression: deleting the last point of the rightmost leaf must not
    collapse the ancestors' separators to -inf.  The emptied leaf's
    x_max() is -inf; propagating it up made the root record -inf as the
    whole right subtree's maximum, so a later bounded-x query skipped the
    subtree's remaining points entirely (the full-range query still
    worked because -inf < -inf is false)."""
    xs = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 17, 18, 207, 2251, 13859]
    ys = [0, 1, 11, 2, 12, 13, 3, 4, 5, 14, 15, 16, 18, 2367, 17, 219, 6, 7, 8, 9, 10]
    points = [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]
    structure = DynamicTopOpenStructure(
        StorageManager(EMConfig(block_size=8, memory_blocks=16)), points, epsilon=0.5
    )
    # (13859, 10) sits alone in the rightmost leaf; deleting it empties it.
    assert structure.delete(Point(13859.0, 10.0, 20))
    live = [p for p in points if p.x != 13859.0]
    query = TopOpenQuery(0.0, 17.0, 0.0)
    got = sorted((p.x, p.y) for p in structure.query(query))
    want = sorted((p.x, p.y) for p in range_skyline(live, query))
    assert got == want
    assert (17.0, 6.0) in got


# ----------------------------------------------------------------------
# The packed static layout of the 4-sided structure
# ----------------------------------------------------------------------
def canon_ident(points):
    return sorted((p.x, p.y, p.ident) for p in points)


def _side(draw, coords, pad):
    """A rectangle side: a point coordinate, a value beyond the data, any
    value in between, or an infinite side."""
    return draw(
        st.one_of(
            st.sampled_from(coords + [-pad, pad]) if coords else st.just(-pad),
            st.floats(min_value=-pad, max_value=pad, allow_nan=False),
            st.sampled_from([-INF, INF]),
        )
    )


@st.composite
def rectangles(draw, points, universe):
    """Rectangles over ``points``, degenerate ones (lines and single
    points) included, with sides on the points' own coordinates."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    pad = universe + 5
    x_lo, x_hi = sorted((_side(draw, xs, pad), _side(draw, xs, pad)))
    y_lo, y_hi = sorted((_side(draw, ys, pad), _side(draw, ys, pad)))
    shape = draw(st.sampled_from(("box", "vertical", "horizontal", "point")))
    if shape in ("vertical", "point"):
        x_hi = x_lo
    if shape in ("horizontal", "point"):
        y_hi = y_lo
    if shape == "point" and points:
        anchor = draw(st.sampled_from(points))
        x_lo = x_hi = anchor.x
        y_lo = y_hi = anchor.y
    return RangeQuery(x_lo, x_hi, y_lo, y_hi)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=900),
    seed=st.integers(min_value=0, max_value=10_000),
    epsilon=st.sampled_from([0.25, 0.5, 1.0]),
    block_size=st.sampled_from([3, 4, 8, 16, 64]),
    data=st.data(),
)
def test_packed_foursided_matches_range_skyline(n, seed, epsilon, block_size, data):
    """The static layout answers every rectangle like ``range_skyline``,
    idents included.  (At B = 3 an R(u) leaf holds B points, one fewer
    than the most a dynamic leaf may hold.)"""
    universe = 4 * n + 10
    points = random_points(n, universe, seed)
    structure = FourSidedStructure(
        make_storage(block_size), points, epsilon=epsilon, dynamic=False
    )
    for _ in range(12):
        rect = data.draw(rectangles(points, universe))
        assert canon_ident(structure.query(rect)) == canon_ident(
            range_skyline(points, rect)
        ), rect


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=900),
    seed=st.integers(min_value=0, max_value=10_000),
    epsilon=st.sampled_from([0.25, 0.5, 1.0]),
    block_size=st.sampled_from([8, 16, 64]),
    data=st.data(),
)
def test_packed_static_index_matches_range_skyline(n, seed, epsilon, block_size, data):
    """A static index, whose 4-sided structure is packed, answers every
    rectangle like ``range_skyline``, idents included.  (Below B = 8 the
    PPB-tree of its easy structures refuses to build.)"""
    universe = 4 * n + 10
    points = random_points(n, universe, seed)
    index = RangeSkylineIndex(make_storage(block_size), points, epsilon=epsilon)
    for _ in range(12):
        rect = data.draw(rectangles(points, universe))
        assert canon_ident(index.query(rect)) == canon_ident(
            range_skyline(points, rect)
        ), rect


@pytest.mark.parametrize("block_size", [4, 16, 64])
@pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
def test_packed_layout_is_no_larger_and_no_taller(block_size, epsilon):
    points = random_points(3_000, 50_000, 31)
    heights, blocks = {}, {}
    for dynamic in (True, False):
        storage = make_storage(block_size)
        structure = FourSidedStructure(storage, points, epsilon=epsilon, dynamic=dynamic)
        heights[dynamic], blocks[dynamic] = structure.height(), storage.blocks_in_use()
    assert blocks[False] <= blocks[True]
    assert heights[False] <= heights[True]


def test_packed_layout_keeps_one_ru_level_at_a_shard_size():
    """At 12,500 points and B = 64 full leaves drop a base-tree level, so
    the tree keeps one level of right-open structures (below the root,
    which has none) where the dynamic layout keeps two."""
    points = uniform_points(12_500, seed=3)
    storage = {dynamic: make_storage(64) for dynamic in (True, False)}
    height = {
        dynamic: FourSidedStructure(storage[dynamic], points, dynamic=dynamic).height()
        for dynamic in (True, False)
    }
    # Levels: leaves, the R(u) levels, the root.
    assert {dynamic: h - 2 for dynamic, h in height.items()} == {True: 2, False: 1}
    assert storage[False].blocks_in_use() < storage[True].blocks_in_use() / 2


@pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
def test_packed_ru_run_at_the_structures_epsilon(epsilon):
    """Every R(u) of a packed structure is itself packed, at the 4-sided
    structure's own epsilon; a dynamic structure's are fanout-2 trees."""
    points = random_points(4_000, 80_000, 34)
    for dynamic in (True, False):
        storage = make_storage(16)
        structure = FourSidedStructure(storage, points, epsilon=epsilon, dynamic=dynamic)
        root = storage.read(structure.root_id)
        below_root = [storage.read(child) for child in root.children]
        right_opens = [node.right_open for node in below_root if not node.is_leaf]
        assert right_opens
        for right_open in right_opens:
            assert right_open.dynamic is dynamic
            assert right_open.epsilon == (0.0 if dynamic else epsilon)


def test_static_index_builds_the_packed_foursided_structure():
    """A static index's blocks are its two Theorem 1 structures plus a
    packed 4-sided structure."""
    points = random_points(2_000, 40_000, 32)
    swapped = [Point(p.y, p.x, p.ident) for p in points]
    index = RangeSkylineIndex(make_storage(64), points)
    parts = 0
    for build in (
        lambda storage: StaticTopOpenStructure(storage, points),
        lambda storage: StaticTopOpenStructure(storage, swapped),
        lambda storage: FourSidedStructure(
            storage, points, epsilon=index.four_sided_epsilon, dynamic=False
        ),
    ):
        storage = make_storage(64)
        build(storage)
        parts += storage.blocks_in_use()
    assert index.storage.blocks_in_use() == parts


def test_packed_right_open_structure_reports_k_over_b():
    """A packed R(u) stores its queues in records of B elements, so
    reporting k points reads about k/B record blocks, not k/B^(1-eps)."""
    n, block_size = 1_024, 64
    diagonal = [Point(float(i), float(n - i), i) for i in range(n)]  # all maximal
    storage = make_storage(block_size)
    structure = DynamicTopOpenStructure(storage, diagonal, epsilon=0.5, dynamic=False)
    storage.drop_cache()
    before = storage.io_total()
    assert len(structure.query_top_open(-INF, INF, -INF)) == n
    assert storage.io_total() - before <= n // block_size + structure.height() + 1


@pytest.mark.parametrize("structure_type", [FourSidedStructure, DynamicTopOpenStructure])
def test_packed_structures_refuse_updates_before_any_io(structure_type):
    points = random_points(200, 4_000, 33)
    storage = make_storage(16)
    structure = structure_type(storage, points, dynamic=False)
    before = storage.io_total()
    with pytest.raises(TypeError):
        structure.insert(Point(4_000.5, 4_000.5, 999))
    with pytest.raises(TypeError):
        structure.delete(points[0])
    assert storage.io_total() == before
    assert len(structure) == len(points)


def test_dynamic_index_layout_is_pinned():
    """The dynamic layout is untouched by the packed one: blocks, I/Os
    and answers of a fixed update-and-query script are pinned."""
    storage = make_storage(16)
    points = uniform_points(1_200, universe=100_000, seed=5)
    index = RangeSkylineIndex(storage, points, dynamic=True)
    rng = random.Random(6)
    live = list(points)
    for i in range(300):
        point = Point(
            rng.uniform(0, 100_000) + 0.25, rng.uniform(0, 100_000) + 0.25, 10_000 + i
        )
        index.insert(point)
        live.append(point)
    for victim in rng.sample(live, 120):
        assert index.delete(victim)
    digest = hashlib.sha256()
    for _ in range(200):
        x_lo, x_hi = sorted(rng.uniform(0, 100_000) for _ in range(2))
        y_lo, y_hi = sorted(rng.uniform(0, 100_000) for _ in range(2))
        answer = index.query(RangeQuery(x_lo, x_hi, y_lo, y_hi))
        digest.update(repr([(p.x, p.y, p.ident) for p in answer]).encode())
    assert (storage.blocks_in_use(), storage.io_total()) == (3530, 27410)
    assert digest.hexdigest()[:16] == "f6a63c393475e9a4"


def test_static_index_layout_is_pinned():
    """The packed static layout is pinned too: build I/Os, blocks in use,
    the I/Os of a seeded mix of every routed shape and the answers.  A
    change to how a static structure searches inside its blocks must
    leave all four bit-identical."""
    storage = make_storage(16)
    points = anticorrelated_points(3_000, universe=100_000, seed=7)
    index = RangeSkylineIndex(storage, points)
    build_io = storage.io_total()
    rng = random.Random(8)
    digest = hashlib.sha256()
    routes = set()
    for i in range(360):
        cx = rng.uniform(0, 100_000)
        cy = 100_000 - cx
        w, h = rng.uniform(1_000, 12_000), rng.uniform(1_000, 12_000)
        rect = (
            RangeQuery(cx - w, cx + w, cy - h, INF),  # top-open
            RangeQuery(cx - w, INF, cy - h, INF),  # dominance
            RangeQuery(cx - w, cx + w, -INF, INF),  # x-slab
            RangeQuery(cx - w, INF, cy - h, cy + h),  # right-open
            RangeQuery(-INF, cx + w, cy - h, cy + h),  # left-open
            RangeQuery(cx - w, cx + w, cy - h, cy + h),  # 4-sided
        )[i % 6]
        routes.add(index.route(rect))
        answer = index.query(rect)
        assert answer == sorted(range_skyline(points, rect), key=lambda p: p.x)
        digest.update(repr([(p.x, p.y, p.ident) for p in answer]).encode())
    assert routes == {"top-open", "right-open", "four-sided"}
    assert (build_io, storage.blocks_in_use(), storage.io_total()) == (2484, 2516, 7575)
    assert digest.hexdigest()[:16] == "c49f72b05425a997"


# ----------------------------------------------------------------------
# In-block searches: the column sweep of the 4-sided leaves and the
# bisected R(u) descent, against the loops they replaced
# ----------------------------------------------------------------------
def reference_leaf_skyline(leaf, x_lo, x_hi, y_lo, y_hi):
    """The filter-then-skyline loop the column sweep replaced."""
    return skyline(
        [p for p in leaf.points if x_lo <= p.x <= x_hi and y_lo <= p.y <= y_hi]
    )


def stored_nodes(structure):
    """Every node of a base tree, read without charging an I/O."""
    structure.storage.flush()
    nodes, stack = [], [structure.root_id]
    while stack:
        node_id = stack.pop()
        node = structure.storage.disk.peek(node_id)
        nodes.append((node_id, node))
        if not node.is_leaf:
            stack.extend(node.children)
    return nodes


def assert_columns_match(structure):
    for _, node in stored_nodes(structure):
        if node.is_leaf:
            assert list(node.xs) == [p.x for p in node.points]
            assert list(node.ys) == [p.y for p in node.points]


def idents(points):
    return [(p.x, p.y, p.ident) for p in points]


grid_bound = st.one_of(
    st.sampled_from([-INF, INF]),
    st.integers(-1, 10),
    st.integers(-1, 10).map(lambda v: v + 0.5),
)


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=70),
    dynamic=st.booleans(),
    windows=st.lists(st.tuples(grid_bound, grid_bound, grid_bound, grid_bound), max_size=15),
)
def test_leaf_skyline_matches_filter_then_skyline(cells, dynamic, windows):
    """On a small grid (equal-x runs and exact twins in most leaves),
    the column sweep returns exactly what filtering the leaf and calling
    skyline() returns, idents and order included, in both layouts.
    Windows take infinite ends, bounds on a coordinate or between two,
    and empty or inverted ranges; every point of a leaf is also the
    corner of a few."""
    points = [Point(float(x), float(y), i) for i, (x, y) in enumerate(cells)]
    structure = FourSidedStructure(make_storage(16), points, dynamic=dynamic)
    leaves = [node for _, node in stored_nodes(structure) if node.is_leaf]
    assert_columns_match(structure)
    for leaf in leaves:
        # Windows with a corner on each point of the leaf.
        corners = [(p.x, p.x, p.y, p.y) for p in leaf.points]
        corners += [(p.x, INF, p.y, INF) for p in leaf.points]
        corners += [(-INF, p.x, -INF, p.y) for p in leaf.points]
        for window in windows + corners + [(-INF, INF, -INF, INF)]:
            assert idents(structure._leaf_skyline(leaf, *window)) == idents(
                reference_leaf_skyline(leaf, *window)
            ), window


def test_dynamic_leaf_columns_follow_every_leaf_write():
    """Inserts, deletes and the rebuilds a full leaf forces all refill
    the leaf columns, and answers keep matching range_skyline."""
    storage = make_storage(8)
    points = random_points(100, 5_000, 50)
    structure = FourSidedStructure(storage, points)
    rebuilds = []
    rebuild = structure._rebuild
    structure._rebuild = lambda: (rebuilds.append(structure._needs_rebuild()), rebuild())[1]
    rng = random.Random(51)
    live = list(points)
    # A tight cluster fills one leaf (B/2 points at build, B at most).
    cluster = [Point(2_500.5 + i / 64, 6_000.5 + i, 1_000 + i) for i in range(12)]
    others = [Point(x + 0.5, y + 0.5, 2_000 + i) for i, (x, y) in enumerate(
        zip(rng.sample(range(5_000), 40), rng.sample(range(5_000), 40))
    )]
    for step, point in enumerate(cluster + others):
        structure.insert(point)
        live.append(point)
        if step % 3 == 2:
            victim = live.pop(rng.randrange(len(live)))
            assert structure.delete(victim)
        assert_columns_match(structure)
        for _ in range(4):
            x_lo, x_hi = sorted(rng.uniform(0, 5_000) for _ in range(2))
            y_lo, y_hi = sorted(rng.uniform(0, 7_000) for _ in range(2))
            expected = sorted(
                range_skyline(live, FourSidedQuery(x_lo, x_hi, y_lo, y_hi)),
                key=lambda p: p.x,
            )
            assert idents(structure.query_four_sided(x_lo, x_hi, y_lo, y_hi)) == idents(
                expected
            )
    # A full leaf forced a rebuild, and so did the update count.
    assert False in rebuilds and True in rebuilds


def reference_range_nodes(structure, x_lo, x_hi):
    """Node ids the child-by-child R(u) descent that bisection replaced
    reads, in order (its leaf filter never reads a block)."""
    read = []

    def walk(node_id):
        node = structure.storage.disk.peek(node_id)
        read.append(node_id)
        if node.is_leaf:
            return
        for index, child_id in enumerate(node.children):
            prev_sep = node.separators[index - 1] if index > 0 else -INF
            child_hi = node.separators[index]
            if prev_sep >= x_hi:
                break
            if child_hi < x_lo:
                continue
            if prev_sep >= x_lo and child_hi <= x_hi:
                continue
            walk(child_id)

    walk(structure.root_id)
    return read


@pytest.mark.parametrize("dynamic", [True, False])
def test_right_open_queries_on_separators_and_leaf_edges(dynamic):
    """R(u) queries whose x-range ends sit exactly on a separator or on
    the first or last x of a leaf match range_skyline and read the tree
    nodes the child-by-child descent reads, in both layouts (the
    dynamic one after updates have moved its separators)."""
    storage = make_storage(16)
    points = random_points(600, 20_000, 52)
    structure = DynamicTopOpenStructure(storage, points, epsilon=0.5, dynamic=dynamic)
    rng = random.Random(53)
    live = list(points)
    if dynamic:
        for i in range(150):
            point = Point(rng.uniform(0, 20_000) + 0.25, rng.uniform(0, 20_000) + 0.25, 5_000 + i)
            structure.insert(point)
            live.append(point)
        for victim in rng.sample(live, 120):
            assert structure.delete(victim)
            live.remove(victim)
    nodes = stored_nodes(structure)
    assert structure.height() >= 3
    edges = set()
    for _, node in nodes:
        if node.is_leaf:
            if node.points:
                edges.update((node.points[0].x, node.points[-1].x))
        else:
            edges.update(node.separators)
    edges = sorted(edges)
    node_ids = {node_id for node_id, _ in nodes}
    trace = []
    read = storage.read
    storage.read = lambda block_id: (trace.append(block_id), read(block_id))[1]
    for _ in range(300):
        x_lo, x_hi = sorted((rng.choice(edges), rng.choice(edges + [-INF, INF])))
        y_lo = rng.choice([-INF, rng.uniform(0, 20_000), rng.choice(live).y])
        expected = sorted(range_skyline(live, TopOpenQuery(x_lo, x_hi, y_lo)), key=lambda p: p.x)
        del trace[:]
        assert idents(structure.query_top_open(x_lo, x_hi, y_lo)) == idents(expected)
        assert [b for b in trace if b in node_ids] == reference_range_nodes(
            structure, x_lo, x_hi
        ), (x_lo, x_hi)
