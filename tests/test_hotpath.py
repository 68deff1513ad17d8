"""Hot-path equivalence tests: columnar kernels and the serving tier's
read lane.

The columnar kernels are a pure speed play: they must be
*indistinguishable* from the implementation they replaced -- identical
answers, identical block ledgers.  Hypothesis drives the equivalence
properties over both column backends (numpy and the pure-python
``array`` fallback) by flipping the module's backend switch; the
read-lane tests drive closed-loop clients through the server and hold
their answers to a directly queried engine and the served engine's
ledger partition exact.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columns
from repro.core.columns import PointColumns, filter_rect, sort_points_by_x
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.engine import QueryRequest, SkylineEngine, UpdateRequest
from repro.serve import ServerConfig, SkylineServer
from repro.service.merge import (
    merge_component_skylines,
    merge_component_skylines_objects,
    merge_shard_skylines,
    merge_shard_skylines_objects,
)

# ----------------------------------------------------------------------
# Backend switching
# ----------------------------------------------------------------------
BACKENDS = ["python-array"] + (["numpy"] if columns._np is not None else [])


@contextmanager
def _backend(name: str):
    """Run the columnar kernels on the given backend, with the
    small-input cutoff disabled so tiny hypothesis cases still exercise
    the vectorized paths."""
    saved = (columns.HAVE_NUMPY, columns.SMALL_MERGE_CUTOFF)
    columns.HAVE_NUMPY = name == "numpy"
    columns.SMALL_MERGE_CUTOFF = 0
    try:
        yield
    finally:
        columns.HAVE_NUMPY, columns.SMALL_MERGE_CUTOFF = saved


# Distinct coordinates (the service's general-position invariant): draw
# unique x and unique y pools and zip them into points.
def _points_strategy(max_size: int = 60):
    return st.integers(min_value=2, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.integers(0, 10_000), min_size=n, max_size=n, unique=True
            ),
            st.lists(
                st.integers(0, 10_000), min_size=n, max_size=n, unique=True
            ),
        )
    )


def _mk_points(coords) -> list:
    xs, ys = coords
    return [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]


def _canon(points):
    return [(p.x, p.y, p.ident) for p in points]


# ----------------------------------------------------------------------
# Columnar merge kernels vs object references
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(coords=_points_strategy(), k=st.integers(1, 5), data=st.data())
def test_component_merge_matches_objects(coords, k, data):
    points = _mk_points(coords)
    assignment = data.draw(
        st.lists(
            st.integers(0, k - 1),
            min_size=len(points),
            max_size=len(points),
        )
    )
    sources = [[] for _ in range(k)]
    for point, slot in zip(points, assignment):
        sources[slot].append(point)
    sources = [sorted(s, key=lambda p: p.x) for s in sources]
    expected = _canon(merge_component_skylines_objects(sources))
    for name in BACKENDS:
        with _backend(name):
            columnar = [PointColumns.from_points(s) for s in sources]
            got = merge_component_skylines(columnar)
            assert _canon(got) == expected, name
            # Plain sequences are accepted per source too.
            assert _canon(merge_component_skylines(sources)) == expected


@settings(max_examples=60, deadline=None)
@given(coords=_points_strategy(), k=st.integers(1, 5))
def test_shard_merge_matches_objects(coords, k):
    points = sorted(_mk_points(coords), key=lambda p: p.x)
    band = max(1, len(points) // k)
    # Per-shard skylines over an x-disjoint partition, in shard order.
    per_shard = [
        merge_component_skylines_objects([points[i : i + band]])
        for i in range(0, len(points), band)
    ]
    expected = _canon(merge_shard_skylines_objects(per_shard))
    for name in BACKENDS:
        with _backend(name):
            assert _canon(merge_shard_skylines(per_shard)) == expected, name


@settings(max_examples=60, deadline=None)
@given(
    coords=_points_strategy(),
    window=st.tuples(
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
)
def test_filter_rect_matches_scan(coords, window):
    points = sorted(_mk_points(coords), key=lambda p: p.x)
    x_lo, x_hi = sorted(window[:2])
    y_lo, y_hi = sorted(window[2:])
    expected = _canon(
        [p for p in points if x_lo <= p.x <= x_hi and y_lo <= p.y <= y_hi]
    )
    for name in BACKENDS:
        with _backend(name):
            cols = PointColumns.from_points(points)
            assert _canon(filter_rect(cols, x_lo, x_hi, y_lo, y_hi)) == expected


@settings(max_examples=40, deadline=None)
@given(coords=_points_strategy())
def test_sort_points_by_x_matches_sorted(coords):
    points = _mk_points(coords)
    expected = _canon(sorted(points, key=lambda p: p.x))
    for name in BACKENDS:
        with _backend(name):
            result = sort_points_by_x(points)
            assert _canon(result) == expected, name


def test_columnar_results_are_original_objects():
    points = [Point(float(i), float(100 - i), i) for i in range(100)]
    cols = PointColumns.from_points(points)
    for got in (
        merge_component_skylines([cols]),
        filter_rect(cols, 10.0, 90.0, 0.0, 200.0),
        sort_points_by_x(points),
    ):
        assert all(any(g is p for p in points) for g in got)


# ----------------------------------------------------------------------
# The read lane
# ----------------------------------------------------------------------
def _mk_engine(seed: int = 0) -> SkylineEngine:
    import random

    rng = random.Random(seed)
    xs = rng.sample(range(100_000), 1500)
    ys = rng.sample(range(100_000), 1500)
    points = [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]
    return SkylineEngine.sharded(
        points, shard_count=4, block_size=16, memory_blocks=8, cache_capacity=0
    )


def _partition_holds(engine: SkylineEngine) -> bool:
    return (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


def _run_clients(server: SkylineServer, rects, clients: int = 4):
    """Closed-loop clients with two requests outstanding each."""
    per = len(rects) // clients
    answers = {}
    lock = threading.Lock()

    def loop(cid: int) -> None:
        pending = []
        local = {}
        for rect in rects[cid * per : (cid + 1) * per]:
            pending.append(
                (rect, server.submit_query(QueryRequest(rect=rect, consistency="fresh")))
            )
            if len(pending) >= 2:
                done, future = pending.pop(0)
                local[(done.x_lo, done.x_hi)] = _canon(
                    future.result(timeout=60.0).points
                )
        for done, future in pending:
            local[(done.x_lo, done.x_hi)] = _canon(
                future.result(timeout=60.0).points
            )
        with lock:
            answers.update(local)

    threads = [threading.Thread(target=loop, args=(cid,)) for cid in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers


def test_closed_loop_reads_on_one_lane_match_the_engine():
    # Batch composition follows gather timing, and with it each shard's
    # buffer-pool access order, so block totals are not compared across
    # live runs (test_serve pins composition and compares ledgers).
    rects = [
        RangeQuery(x_lo=i * 2000.0, x_hi=(i + 1) * 2000.0 - 1.0)
        for i in range(32)
    ]
    engine = _mk_engine()
    config = ServerConfig(gather_window=0.002, max_batch=16)
    with SkylineServer(engine, config) as server:
        answers = _run_clients(server, rects)
        metrics = server.metrics.describe()
    assert metrics["served"] == metrics["submitted"] == len(rects)
    assert _partition_holds(engine)
    direct = _mk_engine()
    assert answers == {
        (rect.x_lo, rect.x_hi): _canon(direct.query(rect).points)
        for rect in rects
    }


def test_pinned_version_reporting():
    engine = _mk_engine(seed=1)
    config = ServerConfig(gather_window=0.0)
    with SkylineServer(engine, config) as server:
        first = server.query(RangeQuery(x_lo=0.0, x_hi=50_000.0))
        assert first.serving.pinned_version == 0
        written = server.update(
            UpdateRequest.insert(Point(123_456.5, 123_456.5, 999_999))
        )
        assert written.serving.pinned_version == 1
        after = server.query(RangeQuery(x_lo=0.0, x_hi=200_000.0))
        assert after.serving.pinned_version == 1
        status = server.describe()
    assert status["server"]["writes_applied"] == 1
    assert _partition_holds(engine)
