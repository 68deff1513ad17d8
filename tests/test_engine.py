"""Tests for the unified SkylineEngine front door (repro.engine)."""

import math

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
    RightOpenQuery,
    TopOpenQuery,
    range_skyline,
)
from repro.core.queries import choose_structure, classify
from repro.em import EMConfig
from repro.engine import (
    BOUND_DYNAMIC_EASY,
    BOUND_FOUR_SIDED,
    BOUND_STATIC_EASY,
    CONSISTENCY_LEVELS,
    QueryRequest,
    SkylineEngine,
    StreamRequest,
    UpdateRequest,
)
from repro.service import ServiceConfig

# One representative rectangle per Figure-2 variant (plus the degenerate
# shapes classify knows about), over the universe the fixtures use.
VARIANT_QUERIES = {
    "top-open": TopOpenQuery(1_000, 6_000, 500),
    "right-open": RightOpenQuery(1_000, 500, 6_000),
    "bottom-open": BottomOpenQuery(1_000, 6_000, 5_000),
    "left-open": LeftOpenQuery(6_000, 500, 5_000),
    "dominance": DominanceQuery(1_000, 500),
    "anti-dominance": AntiDominanceQuery(6_000, 5_000),
    "contour": ContourQuery(6_000),
    "4-sided": FourSidedQuery(1_000, 6_000, 500, 5_000),
    "x-slab": RangeQuery(x_lo=1_000, x_hi=6_000),
    "y-slab": RangeQuery(y_lo=500, y_hi=5_000),
    "1-sided": RangeQuery(x_lo=1_000),
    "unbounded": RangeQuery(),
}

EXPECTED_STRUCTURE = {
    "top-open": "top-open",
    "dominance": "top-open",
    "contour": "top-open",
    "1-sided": "top-open",
    "unbounded": "top-open",
    "right-open": "right-open",
    "bottom-open": "four-sided",
    "left-open": "four-sided",
    "anti-dominance": "four-sided",
    "4-sided": "four-sided",
    "x-slab": "top-open",
    "y-slab": "right-open",
}


def make_points(n, universe=10_000, seed=9):
    import random

    rng = random.Random(seed)
    xs = rng.sample(range(universe), n)
    ys = rng.sample(range(universe), n)
    return [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]


def make_engines(points, shard_count=4, block_size=16, **service_overrides):
    local = SkylineEngine.local(
        points,
        dynamic=True,
        em_config=EMConfig(block_size=block_size, memory_blocks=32),
    )
    sharded = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=shard_count,
            block_size=block_size,
            memory_blocks=32,
        ),
        **service_overrides,
    )
    return local, sharded


def canon(points):
    return sorted((p.x, p.y, p.ident) for p in points)


# ----------------------------------------------------------------------
# explain(): structure choice + instantiated paper bound, both backends
# ----------------------------------------------------------------------
def test_explain_structure_choice_every_variant_both_backends():
    points = make_points(300)
    local, sharded = make_engines(points)
    for variant, rect in VARIANT_QUERIES.items():
        assert classify(rect) == variant
        assert choose_structure(rect) == EXPECTED_STRUCTURE[variant]
        for engine in (local, sharded):
            plan = engine.explain(rect)
            assert plan.variant == variant
            assert plan.structure == EXPECTED_STRUCTURE[variant]
            assert plan.backend == engine.backend.name
            assert plan.block_size == 16
            if engine is local:
                assert plan.n == 300
            else:
                # Sharded plans scope n to the *visited* shards only.
                service = engine.backend.service
                visited = service.router.shards_for(rect)
                assert plan.n == sum(
                    len(service.shards[sid]) for sid in visited
                )
                assert plan.n == 300 or plan.shards_pruned > 0


def test_explain_instantiates_the_paper_bound_locally():
    points = make_points(300)
    local, sharded = make_engines(points)
    b = 16
    for variant, rect in VARIANT_QUERIES.items():
        plan = local.explain(rect)
        if plan.structure == "four-sided":
            eps = local.backend.index.four_sided_epsilon
            assert plan.bound == BOUND_FOUR_SIDED
            assert plan.search_io == pytest.approx(max(1.0, (300 / b) ** eps))
            assert plan.per_result_io == pytest.approx(1.0 / b)
        else:
            # The local fixture is dynamic: Theorem 4's bound applies.
            eps = 0.5
            assert plan.bound == BOUND_DYNAMIC_EASY
            assert plan.search_io == pytest.approx(
                max(1.0, math.log(300 / b, 2 * b**eps))
            )
            assert plan.per_result_io == pytest.approx(1.0 / b ** (1 - eps))
        assert plan.predicted_io(0) == pytest.approx(plan.search_io)
        assert plan.predicted_io(32) == pytest.approx(
            plan.search_io + 32 * plan.per_result_io
        )
        assert str(b) in plan.formula

    # Sharded shards are static structures: Theorem 1's bound, summed
    # over the visited shards.
    for variant, rect in VARIANT_QUERIES.items():
        plan = sharded.explain(rect)
        expected_bound = (
            BOUND_FOUR_SIDED
            if plan.structure == "four-sided"
            else BOUND_STATIC_EASY
        )
        assert plan.bound == expected_bound
        assert plan.shards_visited + plan.shards_pruned == 4
        assert plan.search_io == pytest.approx(
            sum(scope.search_io for scope in plan.scopes)
        )
        assert sum(scope.n for scope in plan.scopes) == plan.n


def test_explain_prunes_shards_for_narrow_rectangles():
    points = make_points(400)
    _, sharded = make_engines(points, shard_count=8)
    service = sharded.backend.service
    lo, hi = service.router.shard_range(3)
    mid = (lo + hi) / 2
    narrow = TopOpenQuery(mid, math.nextafter(mid, hi), 0)
    plan = sharded.explain(narrow)
    assert plan.shards_visited == 1
    assert plan.shards_pruned == 7
    assert plan.scopes[0].shard == 3
    wide = sharded.explain(RangeQuery())
    assert wide.shards_visited == 8
    assert wide.shards_pruned == 0
    # Pruning shows in the instantiated bound, not just the counts.
    assert plan.search_io < wide.search_io


def spy_structures(monkeypatch, ran, scope, index):
    """Append ``(scope, structure)`` to ``ran`` whenever one of
    ``index``'s three structures answers a query."""

    def spy(structure, method):
        def traced(*args, **kwargs):
            ran.append((scope, structure))
            return method(*args, **kwargs)

        return traced

    for attr, name, structure in (
        ("_top_open", "query_top_open", "top-open"),
        ("_right_open", "query_top_open", "right-open"),
        ("_four_sided", "query_four_sided", "four-sided"),
    ):
        target = getattr(index, attr)
        monkeypatch.setattr(target, name, spy(structure, getattr(target, name)))


def test_each_scope_runs_the_structure_it_planned(monkeypatch):
    """explain() mirrors dispatch per scope: on rectangles that cross
    shard boundaries, each scope's planned structure is the one whose
    query method ran on that scope, on both backends."""
    points = make_points(400)
    local, sharded = make_engines(points)
    ran = []
    spy_structures(monkeypatch, ran, None, local.backend.index)
    service = sharded.backend.service
    for sid, shard in enumerate(service.shards):
        spy_structures(monkeypatch, ran, sid, shard.index)
    first, third = service.shards[0].points, service.shards[2].points
    x_lo = first[len(first) // 2].x
    x_hi = third[len(third) // 2].x
    crossing = FourSidedQuery(x_lo, x_hi, 500, 5_000)
    rects = (
        crossing,
        FourSidedQuery(x_lo, x_hi, 500, 10_000),  # top clears every point
        FourSidedQuery(x_lo, 10_000, 500, 5_000),  # right clears every point
        RangeQuery(y_lo=500, y_hi=5_000),  # y-slab
        RangeQuery(x_lo=x_lo, x_hi=x_hi),  # x-slab
    )
    for rect in rects:
        expected = canon(range_skyline(points, rect))
        for engine in (local, sharded):
            plan = engine.explain(rect)
            ran.clear()
            result = engine.query(QueryRequest(rect, consistency="fresh"))
            assert canon(result.points) == expected
            assert sorted(ran, key=repr) == sorted(
                ((scope.shard, scope.structure) for scope in plan.scopes),
                key=repr,
            ), rect
    # The crossing rectangle is 4-sided as a shape, but the shards it
    # crosses to their right end run the right-open structure.
    plan = sharded.explain(crossing)
    assert plan.structure == "four-sided"
    assert [scope.structure for scope in plan.scopes] == [
        "right-open",
        "right-open",
        "four-sided",
    ]
    assert plan.search_io < sum(
        max(1.0, (scope.n / 16) ** plan.epsilon) for scope in plan.scopes
    )


def test_scopes_match_structures_run_on_towers_with_in_memory_components(
    monkeypatch,
):
    """No component without an index gets a plan scope, private or
    inherited: every planned scope is a structure query that ran, on
    towers holding an inherited frozen memtable, inherited indexed
    components and a private one-block level."""
    points = make_points(400)
    engine = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=2,
            block_size=16,
            memory_blocks=16,
            delta_threshold=8,
            level_growth=4,
            merge_step_blocks=1,
        ),
    )
    service = engine.backend.service
    live = list(points)

    def insert(count, x0, y0, ident0):
        # Quarter offsets keep clear of the integer base coordinates.
        for i in range(count):
            p = Point(x0 + i * 3.25, y0 + i * 97.0, ident0 + i)
            engine.insert(p)
            live.append(p)

    right = service.router.cuts[0]
    insert(24, right + 100.25, 100.25, 50_000)
    engine.drain()  # shard 1's level 1: 24 records, indexed
    # The 8th insert seals these; no update ticks their flush before the
    # split hands the frozen memtable to both children.
    insert(8, right + 10.25, 150.75, 50_100)
    assert service.shards[1].tower.frozen
    assert engine.split_shard(1) is not None
    insert(8, 10.25, 200.25, 50_200)  # sealed into shard 0's tower
    engine.drain(0)  # shard 0's level 1: 8 records, in memory
    towers = [shard.tower for shard in service.shards]
    inherited = [ref.comp for tower in towers for ref in tower.inherited]
    assert any(comp.index is None for comp in inherited)
    assert any(comp.index is not None for comp in inherited)
    assert towers[0].levels[1].index is None

    ran = []
    indexed = {}  # id(index) -> (index, scope); a shared index spied once
    for sid, shard in enumerate(service.shards):
        indexed[id(shard.index)] = (shard.index, (sid, None))
        for level, comp in shard.tower.levels.items():
            indexed[id(comp.index)] = (comp.index, (None, level))
        for ref in shard.tower.inherited:
            indexed[id(ref.comp.index)] = (ref.comp.index, (None, -1))
    for index, scope in indexed.values():
        if index is not None:
            spy_structures(monkeypatch, ran, scope, index)
    rects = (
        RangeQuery(),
        FourSidedQuery(0, right + 200, 100, 3_000),
        TopOpenQuery(right, 10_000, 500),
        RangeQuery(x_lo=0, x_hi=right + 50),
    )
    for rect in rects:
        plan = engine.explain(rect)
        ran.clear()
        result = engine.query(QueryRequest(rect, consistency="fresh"))
        assert canon(result.points) == canon(range_skyline(live, rect))
        # The split children's bases are empty: their scopes plan no
        # search (``search_io`` 0) and their shards answer without a read.
        planned = [scope for scope in plan.scopes if scope.n > 0]
        assert all(scope.search_io == 0 for scope in plan.scopes if scope.n == 0)
        assert sorted(ran, key=repr) == sorted(
            (((scope.shard, scope.level), scope.structure) for scope in planned),
            key=repr,
        ), rect


def test_explain_performs_no_io():
    points = make_points(200)
    for engine in make_engines(points):
        before = engine.io_total()
        for rect in VARIANT_QUERIES.values():
            engine.explain(rect)
        assert engine.io_total() == before


# ----------------------------------------------------------------------
# Reports: per-request ledger deltas sum exactly to the backend ledger
# ----------------------------------------------------------------------
def run_mixed_workload(engine, points, fresh_points):
    reports = []
    for rect in VARIANT_QUERIES.values():
        reports.append(engine.query(rect).report)
    for point in fresh_points:
        reports.append(engine.insert(point).report)
    for victim in points[:5]:
        reports.append(engine.delete(victim).report)
    # Repeats: cache hits on the sharded backend, recomputation locally.
    for rect in list(VARIANT_QUERIES.values())[:4]:
        reports.append(engine.query(rect).report)
        reports.append(
            engine.query(QueryRequest(rect, consistency="fresh")).report
        )
    return reports


def test_report_blocks_sum_to_ledger_total_both_backends():
    points = make_points(250)
    fresh = [
        Point(20_000.0 + i, 20_000.0 + i * 2.0, 10_000 + i) for i in range(24)
    ]
    # delta_threshold=16 forces a compaction mid-workload on the service:
    # the insert that trips it pays the rebuild in its own report.
    local, sharded = make_engines(points, delta_threshold=16)
    for engine in (local, sharded):
        base = engine.io_total()
        assert base == engine.build_io
        reports = run_mixed_workload(engine, points, fresh)
        assert sum(r.blocks for r in reports) == engine.io_total() - base
        assert engine.attributed_io() == engine.io_total() - engine.build_io
        assert engine.requests_served == len(reports)
        for report in reports:
            assert report.blocks == report.reads + report.writes
            assert report.backend == engine.backend.name


def test_sharded_compaction_is_charged_to_the_tripping_update():
    """Tombstone-reclaim valve: the delete that brings the tombstone table
    to ``delta_threshold * level_growth`` pays the whole major-compaction
    rebuild in its own report; the deletes before it charge nothing."""
    points = make_points(120)
    _, sharded = make_engines(
        points,
        shard_count=2,
        memory_blocks=8,
        delta_threshold=4,
        level_growth=2,
    )
    reports = [sharded.delete(victim) for victim in points[:8]]
    assert all(r.applied for r in reports)
    # Tombstones of base-resident points are in-memory bookkeeping.
    assert [r.report.blocks for r in reports[:7]] == [0] * 7
    # The eighth tombstone trips the valve: the rebuild landed on it.
    assert reports[7].report.blocks == 136
    assert sharded.backend.service.compactions == 1
    assert (
        sharded.attributed_io() + sharded.maintenance_io()
        == sharded.io_total() - sharded.build_io
    )


def test_leveled_updates_charge_bounded_maintenance_not_rebuilds():
    """Leveled path: the update at the same threshold seals the memtable
    and pays at most merge_step_blocks of incremental debt, reported as
    maintenance -- never an O(n/B) rebuild in its attributed charge."""
    points = make_points(120)
    _, sharded = make_engines(
        points, delta_threshold=4, merge_step_blocks=4
    )
    service = sharded.backend.service
    reports = [
        sharded.insert(Point(30_000.0 + i, 30_000.0 + i, 5_000 + i)).report
        for i in range(16)
    ]
    assert service.compactions == 0
    assert service.towers()
    assert service.merges_completed >= 1
    budget = service.config.merge_step_blocks
    for report in reports:
        assert report.blocks == 0  # memtable inserts are in-memory
        assert report.maintenance_blocks <= budget
    assert sharded.maintenance_io() == sum(
        r.maintenance_blocks for r in reports
    )
    sharded.drain()  # outstanding debt lands in maintenance too
    assert (
        sharded.attributed_io() + sharded.maintenance_io()
        == sharded.io_total() - sharded.build_io
    )
    # The answers stay correct through seals, merges and the drain.
    assert canon(sharded.query(RangeQuery()).points) == canon(
        range_skyline(service.live_points(), RangeQuery())
    )


def test_query_batch_native_executor_results_and_accounting():
    points = make_points(250)
    rects = list(VARIANT_QUERIES.values()) + list(VARIANT_QUERIES.values())[:3]
    local, sharded = make_engines(points)
    for engine in (local, sharded):
        expected = [canon(engine.query(QueryRequest(r, consistency="fresh")).points) for r in rects]
        before = engine.io_total()
        results, batch_report = engine.query_batch_shared(
            [QueryRequest(r, consistency="fresh") for r in rects]
        )
        assert [canon(r.points) for r in results] == expected
        # The batch report carries the whole call's exact ledger delta;
        # per-request reports in batch mode carry traces, not blocks.
        assert batch_report.blocks == engine.io_total() - before
        assert batch_report.kind == "batch"
        assert all(r.report.blocks == 0 for r in results)
        assert (
            engine.attributed_io() + engine.maintenance_io()
            == engine.io_total() - engine.build_io
        )


def test_query_batch_coalesces_duplicates_on_the_service():
    points = make_points(200)
    _, sharded = make_engines(points)
    rect = TopOpenQuery(500, 8_000, 100)
    results, _ = sharded.query_batch_shared(
        [QueryRequest(rect, consistency="fresh")] * 4
    )
    # Duplicates computed once: the first executes, the rest share it.
    assert [r.report.coalesced for r in results] == [False, True, True, True]
    assert all(r.report.coalesce_fanin == 4 for r in results)
    assert all(canon(r.points) == canon(results[0].points) for r in results)


@st.composite
def shared_batches(draw):
    """A batch mixing identical rectangles, nested ones that share the
    top-right corner, nested ones that do not, pagination and both
    consistency levels, over make_points' 10k universe."""
    def side(lo, hi):
        return draw(st.floats(min_value=lo, max_value=hi))

    def base():
        x_lo = draw(st.sampled_from([-math.inf, side(0, 10_000)]))
        x_hi = draw(st.sampled_from([math.inf, side(max(0, x_lo), 10_000)]))
        y_lo = draw(st.sampled_from([-math.inf, side(0, 10_000)]))
        y_hi = draw(st.sampled_from([math.inf, side(max(0, y_lo), 10_000)]))
        return RangeQuery(x_lo, x_hi, y_lo, y_hi)

    def inner(lo, hi):
        return side(max(0, lo), min(10_000, hi))

    bases = [base() for _ in range(draw(st.integers(1, 3)))]
    batch = []
    for _ in range(draw(st.integers(1, 10))):
        outer = draw(st.sampled_from(bases))
        kind = draw(st.sampled_from(["same", "same-corner", "clipped"]))
        if kind == "same":
            rect = outer
        elif kind == "same-corner":
            rect = RangeQuery(
                inner(outer.x_lo, outer.x_hi), outer.x_hi,
                inner(outer.y_lo, outer.y_hi), outer.y_hi,
            )
        else:
            x_lo = inner(outer.x_lo, outer.x_hi)
            y_lo = inner(outer.y_lo, outer.y_hi)
            rect = RangeQuery(
                x_lo, inner(x_lo, outer.x_hi), y_lo, inner(y_lo, outer.y_hi)
            )
        batch.append(
            QueryRequest(
                rect,
                limit=draw(st.none() | st.integers(1, 4)),
                cursor=draw(st.none() | st.floats(0, 10_000)),
                consistency=draw(st.sampled_from(CONSISTENCY_LEVELS)),
            )
        )
    return batch


@settings(max_examples=30, deadline=None)
@given(batch=shared_batches())
def test_shared_batch_answers_each_request_like_a_lone_run(batch):
    points = make_points(150)
    for shared, lone in zip(make_engines(points), make_engines(points)):
        shared.drop_caches()
        before = shared.io_total()
        results, batch_report = shared.query_batch_shared(batch)
        lone_blocks = 0
        for request, result in zip(batch, results):
            lone.drop_caches()
            alone = lone.query(request)
            lone_blocks += alone.report.blocks
            assert canon(result.points) == canon(alone.points)
            assert result.total_results == alone.total_results
            assert result.next_cursor == alone.next_cursor
            assert (result.report.shards_visited, result.report.shards_pruned) == (
                alone.report.shards_visited,
                alone.report.shards_pruned,
            )
        # Sharing never costs more than running every request alone cold.
        assert batch_report.blocks == shared.io_total() - before <= lone_blocks
        leaders = [r.report for r in results if not r.report.coalesced]
        assert sum(report.coalesce_fanin for report in leaders) == len(batch)
        assert (
            shared.attributed_io() + shared.maintenance_io()
            == shared.io_total() - shared.build_io
        )


def test_engine_compact_charges_maintenance_not_requests():
    points = make_points(150)
    local, sharded = make_engines(points, delta_threshold=1_000)
    for i in range(6):
        sharded.insert(Point(50_000.5 + i, 50_000.5 + i, 8_000 + i))
    attributed_before = sharded.attributed_io()
    sharded.compact()
    assert sharded.backend.service.compactions == 1
    assert sharded.attributed_io() == attributed_before  # not a request
    assert sharded.maintenance_io() > 0  # the rebuild was still charged
    local.compact()  # no-op on the monolithic backend
    for engine in (local, sharded):
        assert (
            engine.attributed_io() + engine.maintenance_io()
            == engine.io_total() - engine.build_io
        )


def test_query_reports_cache_hits_and_fresh_bypass():
    points = make_points(200)
    _, sharded = make_engines(points)
    rect = TopOpenQuery(500, 8_000, 100)
    first = sharded.query(rect)
    assert not first.report.cache_hit
    second = sharded.query(rect)
    assert second.report.cache_hit
    assert second.report.blocks == 0
    assert canon(second.points) == canon(first.points)
    fresh = sharded.query(QueryRequest(rect, consistency="fresh"))
    assert not fresh.report.cache_hit
    assert canon(fresh.points) == canon(first.points)


def test_query_report_tombstone_fallback_flag():
    points = make_points(150)
    _, sharded = make_engines(points)
    service = sharded.backend.service
    victim = points[0]
    assert sharded.delete(victim).applied
    covering = FourSidedQuery(victim.x - 1, victim.x + 1, victim.y - 1, victim.y + 1)
    report = sharded.query(QueryRequest(covering, consistency="fresh")).report
    assert report.tombstone_fallback
    away = service.router.shard_range(service.router.route_point(victim.x))
    # A rectangle in another shard's range never sees the tombstone.
    other_sid = next(
        sid
        for sid in range(len(service.shards))
        if sid != service.router.route_point(victim.x)
    )
    lo, hi = service.router.shard_range(other_sid)
    lo = max(lo, -1e9)
    hi = min(hi, 1e9)
    elsewhere = sharded.query(
        QueryRequest(
            FourSidedQuery(lo, math.nextafter(hi, lo), -1e9, 1e9),
            consistency="fresh",
        )
    ).report
    assert not elsewhere.tombstone_fallback
    assert away  # silence unused warning


# ----------------------------------------------------------------------
# Pagination
# ----------------------------------------------------------------------
def test_limit_and_cursor_paginate_in_x_order():
    points = make_points(300)
    for engine in make_engines(points):
        rect = RangeQuery()
        full = engine.query(rect)
        assert full.next_cursor is None
        assert full.total_results == len(full.points)
        assert [p.x for p in full.points] == sorted(p.x for p in full.points)

        collected = []
        cursor = None
        pages = 0
        while True:
            page = engine.query(QueryRequest(rect, limit=3, cursor=cursor))
            assert len(page.points) <= 3
            assert page.total_results == full.total_results
            collected.extend(page.points)
            pages += 1
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert canon(collected) == canon(full.points)
        assert pages == math.ceil(max(1, full.total_results) / 3)


def test_request_validation():
    with pytest.raises(ValueError):
        QueryRequest(RangeQuery(), limit=0)
    with pytest.raises(ValueError):
        QueryRequest(RangeQuery(), consistency="eventual")
    with pytest.raises(ValueError):
        UpdateRequest("upsert", Point(1, 2))


@settings(max_examples=30, deadline=None)
@given(
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    side=st.integers(0, 3),
    lo=st.floats(min_value=-1e6, max_value=1e6),
    span=st.floats(min_value=0.0, max_value=1e6),
)
def test_non_finite_inputs_are_rejected_before_any_io(bad, side, lo, span):
    engine = SkylineEngine.sharded(
        make_points(60), shard_count=2, block_size=8, durability=True
    )
    service = engine.backend.service

    def footprint():
        return engine.io_total(), service.wal.durable_count + service.wal.pending

    before = footprint()
    sides = [lo, lo + span, lo, lo + span]
    sides[side] = math.nan
    with pytest.raises(ValueError):
        engine.query(QueryRequest(RangeQuery(*sides)))
    with pytest.raises(ValueError):
        engine.query(QueryRequest(RangeQuery(), cursor=math.nan))
    coords = [lo + 0.5, lo + 0.25]
    coords[side % 2] = bad
    with pytest.raises(ValueError):
        engine.update(UpdateRequest.insert(Point(*coords)))
    # Twice: NaN never matches the live-coordinate sets, so without the
    # check a second NaN point would pass the general-position test too.
    for _ in range(2):
        with pytest.raises(ValueError):
            service.insert(Point(*coords))
    assert footprint() == before
    assert len(engine) == 60


@settings(max_examples=30, deadline=None)
@given(
    bad=st.floats(allow_nan=True, allow_infinity=True) | st.booleans(),
)
def test_non_integral_page_lengths_are_rejected_before_any_io(bad):
    engine = SkylineEngine.sharded(make_points(60), shard_count=2, block_size=8)
    before = engine.io_total()
    with pytest.raises(TypeError):
        engine.query(QueryRequest(RangeQuery(), limit=bad))
    with pytest.raises(TypeError):
        StreamRequest(RangeQuery(), page_size=bad)
    assert engine.io_total() == before


# ----------------------------------------------------------------------
# Degenerate rectangles: classify -> engine -> both backends
# ----------------------------------------------------------------------
def test_degenerate_empty_ranges_raise_at_the_rectangle():
    with pytest.raises(ValueError):
        RangeQuery(x_lo=2.0, x_hi=1.0)
    with pytest.raises(ValueError):
        RangeQuery(y_lo=5.0, y_hi=4.0)


def test_degenerate_rectangles_all_layers_both_backends():
    points = make_points(200)
    anchor = points[7]
    degenerate = [
        # alpha1 == alpha2: a vertical line through a stored point.
        (TopOpenQuery(anchor.x, anchor.x, -1e18), "top-open"),
        (FourSidedQuery(anchor.x, anchor.x, -1e18, 1e18), "4-sided"),
        # A vertical line through empty space.
        (TopOpenQuery(anchor.x + 0.5, anchor.x + 0.5, -1e18), "top-open"),
        # A horizontal line (y_lo == y_hi) through a stored point.
        (FourSidedQuery(-1e18, 1e18, anchor.y, anchor.y), "4-sided"),
        (RightOpenQuery(anchor.x - 1, anchor.y, anchor.y), "right-open"),
        # A single point rectangle.
        (FourSidedQuery(anchor.x, anchor.x, anchor.y, anchor.y), "4-sided"),
        # Unbounded on every side.
        (RangeQuery(), "unbounded"),
    ]
    engines = make_engines(points)
    for rect, expected_label in degenerate:
        assert classify(rect) == expected_label
        expected = canon(range_skyline(points, rect))
        for engine in engines:
            plan = engine.explain(rect)
            assert plan.structure == EXPECTED_STRUCTURE[expected_label]
            result = engine.query(QueryRequest(rect, consistency="fresh"))
            assert canon(result.points) == expected, (
                engine.backend.name,
                expected_label,
            )


# ----------------------------------------------------------------------
# Backend equivalence on a hypothesis-generated workload
# ----------------------------------------------------------------------
@st.composite
def workloads(draw):
    n_initial = draw(st.integers(min_value=6, max_value=24))
    n_pool = draw(st.integers(min_value=0, max_value=10))
    total = n_initial + n_pool
    xs = draw(
        st.lists(
            st.integers(min_value=0, max_value=100_000),
            min_size=total,
            max_size=total,
            unique=True,
        )
    )
    ys = draw(
        st.lists(
            st.integers(min_value=0, max_value=100_000),
            min_size=total,
            max_size=total,
            unique=True,
        )
    )
    points = [
        Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))
    ]
    initial, pool = points[:n_initial], points[n_initial:]
    ops = []
    live = list(initial)
    pending = list(pool)
    for code in draw(
        st.lists(st.integers(min_value=0, max_value=3), max_size=24)
    ):
        if code == 0 and pending:
            ops.append(("insert", pending.pop()))
        elif code == 1 and live:
            victim_index = draw(
                st.integers(min_value=0, max_value=len(live) - 1)
            )
            ops.append(("delete", live.pop(victim_index)))
        else:
            a = draw(st.integers(min_value=0, max_value=100_000))
            b = draw(st.integers(min_value=0, max_value=100_000))
            c = draw(st.integers(min_value=0, max_value=100_000))
            d = draw(st.integers(min_value=0, max_value=100_000))
            x_lo, x_hi = sorted((float(a), float(b)))
            y_lo, y_hi = sorted((float(c), float(d)))
            shape = draw(st.integers(min_value=0, max_value=5))
            if shape == 0:
                rect = TopOpenQuery(x_lo, x_hi, y_lo)
            elif shape == 1:
                rect = RightOpenQuery(x_lo, y_lo, y_hi)
            elif shape == 2:
                rect = FourSidedQuery(x_lo, x_hi, y_lo, y_hi)
            elif shape == 3:
                rect = LeftOpenQuery(x_hi, y_lo, y_hi)
            elif shape == 4:
                rect = DominanceQuery(x_lo, y_lo)
            else:
                rect = RangeQuery()
            ops.append(("query", rect))
    ops.append(("query", RangeQuery()))  # always compare the full skyline
    return initial, ops


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_backends_agree_on_hypothesis_workloads(workload):
    initial, ops = workload
    local = SkylineEngine.local(
        initial, dynamic=True, em_config=EMConfig(block_size=8, memory_blocks=16)
    )
    sharded = SkylineEngine.sharded(
        initial,
        ServiceConfig(
            shard_count=3, block_size=8, memory_blocks=16, delta_threshold=8
        ),
    )
    for op, payload in ops:
        if op == "insert":
            a = local.insert(payload)
            b = sharded.insert(payload)
            assert a.applied and b.applied
        elif op == "delete":
            a = local.delete(payload)
            b = sharded.delete(payload)
            assert a.applied == b.applied
        else:
            ra = local.query(payload)
            rb = sharded.query(payload)
            assert canon(ra.points) == canon(rb.points)
            assert ra.total_results == rb.total_results
    assert len(local) == len(sharded)
    assert local.attributed_io() == local.io_total() - local.build_io
    assert sharded.attributed_io() == sharded.io_total() - sharded.build_io


# ----------------------------------------------------------------------
# Lifecycle: describe and durability passthrough
# ----------------------------------------------------------------------
def test_engine_describe_shapes():
    points = make_points(100)
    local, sharded = make_engines(points)
    for engine in (local, sharded):
        engine.query(RangeQuery())
        status = engine.describe()
        assert status["engine"]["requests_served"] == 1
        assert status["engine"]["io_total"] == engine.io_total()
        assert status["backend"]["backend"] == engine.backend.name
    # The sharded backend surfaces the service's public counter blocks.
    backend_status = sharded.describe()["backend"]
    assert {"hits", "misses", "entries", "hit_rate"} <= set(
        backend_status["result_cache"]
    )
    assert backend_status["update_path"] == "leveled"
    memtable_row = backend_status["levels"][0]
    assert {"level", "records", "tombstones", "capacity", "merge_debt"} <= set(
        memtable_row
    )


def test_engine_durability_open_close_passthrough():
    points = make_points(60, universe=5_000)
    engine = SkylineEngine.sharded(
        points,
        ServiceConfig(
            shard_count=2,
            block_size=16,
            memory_blocks=16,
            durability=True,
            wal_group_commit=4,
        ),
    )
    engine.insert(Point(90_000.0, 90_000.0, 7_000))
    assert engine.delete(points[3]).applied
    engine.close()  # WAL tail forced durable
    store = engine.backend.service.store
    reopened = SkylineEngine.open(store)
    assert len(reopened) == len(engine)
    assert canon(reopened.query(RangeQuery()).points) == canon(
        engine.query(RangeQuery()).points
    )
    detail = reopened.describe()["backend"]["durability_detail"]
    assert detail["recovery"]["recovery_io"] >= 0
    # Recovery cost is build cost, not request cost.
    assert reopened.attributed_io() == reopened.io_total() - reopened.build_io
