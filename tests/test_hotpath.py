"""Hot-path equivalence tests: columnar kernels and snapshot-concurrent
read batches.

The columnar kernels are a pure speed play: they must be
*indistinguishable* from the implementation they replaced -- identical
answers, identical block ledgers.  Hypothesis drives the equivalence
properties over both column backends (numpy and the pure-python
``array`` fallback) by flipping the module's backend switch; the
concurrency tests run the serving tier's serial and snapshot-concurrent
read disciplines against identical engines and hold their answers and
ledgers equal.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.locks import ReadWriteGate, tracked_rw_gate
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
# ReadWriteGate
# ----------------------------------------------------------------------
def test_gate_counts_readers_and_serializes_writers():
    gate: ReadWriteGate = tracked_rw_gate("test.hotpath.gate")
    assert gate.readers == 0
    with gate.read():
        assert gate.readers == 1
        with gate.read():  # another reader may share the gate
            assert gate.readers == 2
    assert gate.readers == 0

    entered = threading.Event()
    release = threading.Event()
    observed: list = []

    def writer() -> None:
        with gate.write():
            entered.set()
            release.wait(timeout=10.0)
            observed.append(gate.readers)

    thread = threading.Thread(target=writer)
    thread.start()
    assert entered.wait(timeout=10.0)

    blocked_reader_done = threading.Event()

    def reader() -> None:
        with gate.read():
            blocked_reader_done.set()

    reader_thread = threading.Thread(target=reader)
    reader_thread.start()
    # The reader cannot enter while the writer holds the gate.
    assert not blocked_reader_done.wait(timeout=0.05)
    release.set()
    assert blocked_reader_done.wait(timeout=10.0)
    thread.join()
    reader_thread.join()
    assert observed == [0]


def test_gate_prefers_waiting_writers():
    gate: ReadWriteGate = tracked_rw_gate("test.hotpath.gate2")
    reader_in = threading.Event()
    release_reader = threading.Event()
    writer_done = threading.Event()
    late_reader_in = threading.Event()
    order: list = []

    def first_reader() -> None:
        with gate.read():
            reader_in.set()
            release_reader.wait(timeout=10.0)

    def writer() -> None:
        with gate.write():
            order.append("writer")
        writer_done.set()

    def late_reader() -> None:
        with gate.read():
            late_reader_in.set()
            order.append("late-reader")

    threading.Thread(target=first_reader).start()
    assert reader_in.wait(timeout=10.0)
    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    while gate._writers_waiting == 0:  # writer registered as waiting
        pass
    late = threading.Thread(target=late_reader)
    late.start()
    # Write preference: the late reader must not slip past the waiting
    # writer even though a reader currently holds the gate.
    assert not late_reader_in.wait(timeout=0.05)
    release_reader.set()
    assert writer_done.wait(timeout=10.0)
    assert late_reader_in.wait(timeout=10.0)
    writer_thread.join()
    late.join()
    assert order == ["writer", "late-reader"]


# ----------------------------------------------------------------------
# Snapshot-concurrent read batches
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


def test_concurrent_read_batches_match_serial():
    rects = [
        RangeQuery(x_lo=i * 2000.0, x_hi=(i + 1) * 2000.0 - 1.0)
        for i in range(32)
    ]
    results = {}
    ledgers = {}
    for concurrency in (1, 4):
        engine = _mk_engine()
        config = ServerConfig(
            gather_window=0.002, max_batch=16, read_concurrency=concurrency
        )
        with SkylineServer(engine, config) as server:
            results[concurrency] = _run_clients(server, rects)
            status = server.describe()
        assert status["server"]["read_concurrency"] == concurrency
        assert _partition_holds(engine)
        ledgers[concurrency] = (
            engine.io_total(),
            engine.attributed_io(),
            engine.maintenance_io(),
        )
    assert results[1] == results[4]
    assert ledgers[1] == ledgers[4]


def test_pinned_version_reporting():
    engine = _mk_engine(seed=1)
    config = ServerConfig(gather_window=0.0, read_concurrency=4)
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


def test_read_concurrency_degrades_safely():
    # A backend without a uid-keyed worker pool (no sharded service)
    # falls back to serial reads.
    local = SkylineEngine.local(
        [Point(float(i), float(50 - i), i) for i in range(50)]
    )
    with SkylineServer(local, ServerConfig(read_concurrency=8)) as server:
        server.query(RangeQuery(x_lo=0.0, x_hi=100.0))
        status = server.describe()
    assert status["server"]["read_concurrency"] == 1
