"""Tests for the top-level RangeSkylineIndex facade."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AntiDominanceQuery,
    BottomOpenQuery,
    ContourQuery,
    DominanceQuery,
    FourSidedQuery,
    LeftOpenQuery,
    Point,
    RangeQuery,
    RangeSkylineIndex,
    RightOpenQuery,
    TopOpenQuery,
    range_skyline,
)
from repro.core.queries import INF
from repro.em import EMConfig, StorageManager
from repro.engine import SkylineEngine
from repro.service import ServiceConfig
from repro.workloads import uniform_points


def make_storage():
    return StorageManager(EMConfig(block_size=16, memory_blocks=32))


def random_points(n, universe, seed):
    rng = random.Random(seed)
    xs = rng.sample(range(universe), n)
    ys = rng.sample(range(universe), n)
    return [Point(x, y, i) for i, (x, y) in enumerate(zip(xs, ys))]


def all_variant_queries(universe, count, seed):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        a, b = sorted(rng.sample(range(universe), 2))
        c, d = sorted(rng.sample(range(universe), 2))
        queries.extend(
            [
                TopOpenQuery(a, b, c),
                RightOpenQuery(a, c, d),
                LeftOpenQuery(b, c, d),
                BottomOpenQuery(a, b, d),
                FourSidedQuery(a, b, c, d),
                DominanceQuery(a, c),
                AntiDominanceQuery(b, d),
                ContourQuery(b),
            ]
        )
    return queries


def test_static_index_answers_every_variant():
    points = random_points(180, 2000, 1)
    index = RangeSkylineIndex(make_storage(), points)
    for query in all_variant_queries(2000, 15, 2):
        expected = sorted((p.x, p.y) for p in range_skyline(points, query))
        assert sorted((p.x, p.y) for p in index.query(query)) == expected
    assert len(index) == 180
    assert index.io_total() > 0


def test_dynamic_index_supports_updates():
    points = random_points(160, 2000, 3)
    index = RangeSkylineIndex(make_storage(), points[:80], dynamic=True)
    live = list(points[:80])
    for point in points[80:120]:
        index.insert(point)
        live.append(point)
    for victim in list(live[:15]):
        assert index.delete(victim)
        live.remove(victim)
    assert not index.delete(Point(-5, -5))
    for query in all_variant_queries(2000, 10, 4):
        expected = sorted((p.x, p.y) for p in range_skyline(live, query))
        assert sorted((p.x, p.y) for p in index.query(query)) == expected


def test_static_index_rejects_updates():
    index = RangeSkylineIndex(make_storage(), [Point(1, 1)])
    with pytest.raises(TypeError):
        index.insert(Point(2, 2))
    with pytest.raises(TypeError):
        index.delete(Point(1, 1))


def test_delete_preserves_ident_through_swapped_right_open():
    """Regression: deleting one coordinate twin must remove the *same*
    identity from the axis-swapped right-open structure, so a later
    right-open query reports the surviving twin's ident."""
    background = [Point(10, 90, 7), Point(90, 10, 8)]
    for order in ((1, 2), (2, 1)):
        index = RangeSkylineIndex(make_storage(), background, dynamic=True)
        for ident in order:
            index.insert(Point(50, 50, ident))
        assert index.delete(Point(50, 50, 1))
        for query in (
            RightOpenQuery(40, 40, 60),
            TopOpenQuery(40, 60, 40),
            FourSidedQuery(40, 60, 40, 60),
        ):
            twins = [p for p in index.query(query) if (p.x, p.y) == (50, 50)]
            assert [p.ident for p in twins] == [2], (order, type(query).__name__)
        # The surviving twin deletes cleanly afterwards.
        assert index.delete(Point(50, 50, 2))
        assert not any((p.x, p.y) == (50, 50) for p in index.points)


def test_dynamic_index_rejects_coordinate_collisions_before_any_io():
    points = random_points(120, 2000, 21)
    storage = make_storage()
    with pytest.raises(ValueError):
        RangeSkylineIndex(storage, points + [Point(points[0].x, 2000.5, 900)], dynamic=True)
    assert storage.io_total() == 0
    index = RangeSkylineIndex(make_storage(), points, dynamic=True)
    before = index.io_total()
    victim = points[3]
    for bad in (Point(victim.x, 2000.5, 901), Point(2000.5, victim.y, 902)):
        with pytest.raises(ValueError):
            index.insert(bad)
    assert index.io_total() == before
    assert len(index) == 120
    # A delete frees its coordinates for the next insert.
    assert index.delete(victim)
    moved = Point(victim.x, 2000.5, 903)
    index.insert(moved)
    live = [p for p in points if p is not victim] + [moved]
    for query in all_variant_queries(2000, 5, 22):
        expected = sorted((p.x, p.y) for p in range_skyline(live, query))
        assert sorted((p.x, p.y) for p in index.query(query)) == expected


def test_skyline_and_empty_index():
    points = random_points(80, 1000, 5)
    index = RangeSkylineIndex(make_storage(), points)
    from repro import skyline

    assert sorted((p.x, p.y) for p in index.skyline()) == sorted(
        (p.x, p.y) for p in skyline(points)
    )
    empty = RangeSkylineIndex(make_storage(), [])
    assert empty.query(TopOpenQuery(0, 10, 0)) == []
    assert len(empty) == 0


# ----------------------------------------------------------------------
# Extent-aware routing: a side that clears every indexed point is as
# good as grounded, so the easy structures answer it exactly.
# ----------------------------------------------------------------------
def side_pattern_rect(pattern, x_lo, x_hi, y_lo, y_hi):
    """The rectangle with side ``i`` open iff bit ``i`` of ``pattern`` is
    set (bits: left, right, bottom, top)."""
    return RangeQuery(
        x_lo=-INF if pattern & 1 else x_lo,
        x_hi=INF if pattern & 2 else x_hi,
        y_lo=-INF if pattern & 4 else y_lo,
        y_hi=INF if pattern & 8 else y_hi,
    )


def canon_xy(points):
    return sorted((p.x, p.y) for p in points)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=90),
    extra=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_every_side_pattern_matches_the_oracle(n, extra, seed):
    """All 16 open/closed side patterns, on the static and dynamic
    indexes and on the sharded engine, against ``range_skyline``.
    Closed sides are drawn from the points' own coordinates and from
    just outside the universe, so rectangles whose top or right edge
    sits exactly on the extent, or beyond it, are common."""
    rng = random.Random(seed)
    universe = 400
    points = random_points(n + extra, universe, seed)
    base, fresh = points[:n], points[n:]
    static = RangeSkylineIndex(make_storage(), base)
    dynamic = RangeSkylineIndex(make_storage(), base, dynamic=True)
    engine = SkylineEngine.sharded(
        base,
        ServiceConfig(
            shard_count=3, block_size=8, memory_blocks=16, delta_threshold=8
        ),
    )
    live = list(base)
    for point in fresh:
        dynamic.insert(point)
        engine.insert(point)
        live.append(point)
    for victim in rng.sample(live, min(len(live), 6)):
        assert dynamic.delete(victim)
        assert engine.delete(victim).applied
        live.remove(victim)
    coords_x = [p.x for p in points] + [-5, universe + 5]
    coords_y = [p.y for p in points] + [-5, universe + 5]
    for _ in range(3):
        x_lo, x_hi = sorted(rng.choice(coords_x) for _ in range(2))
        y_lo, y_hi = sorted(rng.choice(coords_y) for _ in range(2))
        for pattern in range(16):
            rect = side_pattern_rect(pattern, x_lo, x_hi, y_lo, y_hi)
            assert canon_xy(static.query(rect)) == canon_xy(
                range_skyline(base, rect)
            ), (pattern, rect)
            expected = canon_xy(range_skyline(live, rect))
            assert canon_xy(dynamic.query(rect)) == expected, (pattern, rect)
            assert canon_xy(engine.query(rect).points) == expected, (
                pattern,
                rect,
            )


def test_y_hi_only_rectangle_respects_its_top_edge():
    """Regression: ``y <= d`` once went to the top-open structure, which
    ignores ``y_hi``, and reported points above ``d``."""
    points = uniform_points(2_000, seed=1)
    rect = RangeQuery(y_hi=500_000.0)
    expected = canon_xy(range_skyline(points, rect))
    assert expected
    for dynamic in (False, True):
        index = RangeSkylineIndex(make_storage(), points, dynamic=dynamic)
        assert canon_xy(index.query(rect)) == expected
        assert index.route(rect) == "right-open"


def cold_charge(index, rect):
    """Answer and block transfers of ``rect`` on a cold buffer pool."""
    index.storage.drop_cache()
    before = index.io_total()
    answer = index.query(rect)
    return canon_xy(answer), index.io_total() - before


def test_rectangle_clearing_the_extent_charges_the_easy_structure():
    """A 4-sided rectangle whose right (top) edge is at or beyond the
    largest indexed x (y) charges exactly what the matching right-open
    (top-open) query charges, and answers the same."""
    points = random_points(600, 5_000, 11)
    index = RangeSkylineIndex(make_storage(), points)
    x_max = max(p.x for p in points)
    y_max = max(p.y for p in points)
    assert (index.x_max, index.y_max) == (x_max, y_max)
    for x_hi in (x_max, x_max + 100):
        rect = FourSidedQuery(1_000, x_hi, 500, 3_000)
        assert index.route(rect) == "right-open"
        assert cold_charge(index, rect) == cold_charge(
            index, RightOpenQuery(1_000, 500, 3_000)
        )
    for y_hi in (y_max, y_max + 100):
        rect = FourSidedQuery(1_000, 3_000, 500, y_hi)
        assert index.route(rect) == "top-open"
        assert cold_charge(index, rect) == cold_charge(
            index, TopOpenQuery(1_000, 3_000, 500)
        )
    # One step inside the extent the 4-sided structure answers.
    inside = FourSidedQuery(1_000, x_max - 1, 500, y_max - 1)
    assert index.route(inside) == "four-sided"
    assert cold_charge(index, inside)[0] == canon_xy(
        range_skyline(points, inside)
    )


def test_dynamic_insert_raises_the_extent_and_delete_keeps_it():
    points = random_points(300, 5_000, 12)
    index = RangeSkylineIndex(make_storage(), points, dynamic=True)
    x_max = index.x_max
    # A rectangle that clears the old extent but not the new point,
    # which would dominate its answer if the route still said right-open.
    rect = FourSidedQuery(0, x_max + 10, 0, 4_000)
    assert index.route(rect) == "right-open"
    outlier = Point(x_max + 50, 3_999.5, 10_000)
    index.insert(outlier)
    assert index.x_max == x_max + 50
    assert index.route(rect) == "four-sided"
    live = points + [outlier]
    assert canon_xy(index.query(rect)) == canon_xy(range_skyline(live, rect))
    wide = FourSidedQuery(0, x_max + 50, 0, 4_000)
    assert index.route(wide) == "right-open"
    assert cold_charge(index, wide) == cold_charge(
        index, RightOpenQuery(0, 0, 4_000)
    )
    assert outlier in index.query(wide)
    # Deletes leave the extent where it is; routing stays exact.
    assert index.delete(outlier)
    assert index.x_max == x_max + 50
    assert canon_xy(index.query(wide)) == canon_xy(
        range_skyline(points, wide)
    )
