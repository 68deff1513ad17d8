"""Negative tests: each runtime sanitizer must catch an injected violation.

Every test here injects a bug the sanitizers exist to catch -- a racy
double-thread ledger charge, a lock-order inversion in a toy server, a
corrupted report partition -- and asserts the sanitizer raises.  The
positive case (the real system is clean under the sanitizers) is the
whole test suite run with ``REPRO_SANITIZE=1`` in CI.
"""

from __future__ import annotations

import threading

import pytest

from repro import Point, SkylineEngine, TopOpenQuery
from repro.analysis import locks, sanitize
from repro.analysis.locks import LockOrderTracker, TrackedLock, tracked_lock
from repro.analysis.sanitize import (
    LedgerRaceError,
    LockOrderError,
    PartitionError,
)
from repro.em.counters import IOStats
from repro.engine.report import ExecutionReport


@pytest.fixture
def sanitizer_state():
    """Snapshot and restore the global sanitizer switches around a test
    (the suite may already be running under ``REPRO_SANITIZE=1``)."""
    saved = (sanitize.ledger_checks, sanitize.partition_checks, locks.tracker())
    yield
    sanitize.ledger_checks = saved[0]
    sanitize.partition_checks = saved[1]
    locks.install_tracker(saved[2])


def _charge_in_thread(stats: IOStats) -> Exception | None:
    """Charge ``stats`` once from a fresh thread; return what it raised."""
    box: list = [None]

    def run() -> None:
        try:
            stats.record_read()
        except Exception as exc:  # noqa: BLE001 - surfacing for assertion
            box[0] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    return box[0]


# ----------------------------------------------------------------------
# Ledger-ownership sanitizer
# ----------------------------------------------------------------------
def test_unsynchronized_cross_thread_charge_raises(sanitizer_state) -> None:
    sanitize.enable(ledger=True, partition=False, lock_order=False)
    stats = IOStats()
    stats.record_read()  # owned by this thread, at the current epoch
    error = _charge_in_thread(stats)
    assert isinstance(error, LedgerRaceError)


def test_charge_after_sync_point_is_a_legal_handoff(sanitizer_state) -> None:
    sanitize.enable(ledger=True, partition=False, lock_order=False)
    stats = IOStats()
    stats.record_write()
    sanitize.sync_point()  # declared handoff: ownership may move
    assert _charge_in_thread(stats) is None
    assert stats.total == 2


def test_tracked_lock_acquisition_is_a_sync_point(sanitizer_state) -> None:
    sanitize.enable(ledger=True, partition=False, lock_order=False)
    stats = IOStats()
    stats.record_read()
    with tracked_lock("test.handoff"):
        pass
    assert _charge_in_thread(stats) is None


def test_reset_clears_ownership(sanitizer_state) -> None:
    sanitize.enable(ledger=True, partition=False, lock_order=False)
    stats = IOStats()
    stats.record_read()
    stats.reset()
    assert _charge_in_thread(stats) is None


def test_sanitizers_off_by_default_admit_races(sanitizer_state) -> None:
    sanitize.disable()
    stats = IOStats()
    stats.record_read()
    assert _charge_in_thread(stats) is None  # nobody is watching


# ----------------------------------------------------------------------
# Lock-order sanitizer (toy server with two locks)
# ----------------------------------------------------------------------
def test_lock_order_inversion_raises_before_deadlock(sanitizer_state) -> None:
    locks.install_tracker(LockOrderTracker())
    admission = TrackedLock("toy.admission")
    engine = TrackedLock("toy.engine")
    # The dispatcher path establishes admission -> engine...
    with admission:
        with engine:
            pass
    # ...so a writer path taking engine -> admission is an inversion,
    # reported at acquisition time instead of deadlocking under load.
    with pytest.raises(LockOrderError, match="inversion"):
        with engine:
            with admission:
                pass


def test_reacquiring_a_held_lock_raises(sanitizer_state) -> None:
    locks.install_tracker(LockOrderTracker())
    a1 = TrackedLock("toy.same")
    a2 = TrackedLock("toy.same")  # same rank, different instance
    with pytest.raises(LockOrderError, match="already held"):
        with a1:
            with a2:
                pass


def test_dynamic_edges_must_be_in_the_static_graph(sanitizer_state) -> None:
    locks.install_tracker(
        LockOrderTracker(allowed_edges={("toy.a", "toy.b")})
    )
    a = TrackedLock("toy.a")
    b = TrackedLock("toy.b")
    c = TrackedLock("toy.c")
    with a:
        with b:  # declared statically: fine
            pass
    with pytest.raises(LockOrderError, match="static lock-order graph"):
        with a:
            with c:  # never declared: a missing calls() annotation
                pass


def test_tracker_held_stack_bookkeeping(sanitizer_state) -> None:
    tracker = LockOrderTracker()
    locks.install_tracker(tracker)
    a = TrackedLock("toy.outer")
    b = TrackedLock("toy.inner")
    with a:
        with b:
            assert tracker.held_locks() == ("toy.outer", "toy.inner")
    assert tracker.held_locks() == ()
    assert ("toy.outer", "toy.inner") in tracker.observed_edges()


# ----------------------------------------------------------------------
# Report-partition sanitizer
# ----------------------------------------------------------------------
def _small_engine() -> SkylineEngine:
    return SkylineEngine.local(
        [Point(1, 5), Point(2, 3), Point(4, 4), Point(6, 1)], dynamic=True
    )


def test_partition_checks_pass_on_honest_traffic(sanitizer_state) -> None:
    sanitize.enable(ledger=True, partition=True, lock_order=False)
    engine = _small_engine()
    engine.query(TopOpenQuery(0, 5, 0))
    engine.insert(Point(3, 6))
    engine.drop_caches()
    engine.query(TopOpenQuery(0, 7, 0))
    assert (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


def test_corrupted_attribution_is_reported(sanitizer_state) -> None:
    sanitize.enable(ledger=False, partition=True, lock_order=False)
    engine = _small_engine()
    engine.query(TopOpenQuery(0, 5, 0))
    engine._attributed += 7  # inject: a report charged phantom blocks
    with pytest.raises(PartitionError, match="exceed the backend ledger"):
        engine.query(TopOpenQuery(0, 5, 0))


def test_negative_report_component_is_reported(sanitizer_state) -> None:
    sanitize.enable(ledger=False, partition=True, lock_order=False)
    engine = _small_engine()
    bad = ExecutionReport(
        backend="local-index",
        kind="query",
        variant="top-open",
        structure="chunked",
        reads=-1,
        writes=0,
    )
    with pytest.raises(PartitionError, match="negative component"):
        engine._san_post(bad)


def test_backend_traffic_outside_the_engine_is_external(sanitizer_state) -> None:
    sanitize.enable(ledger=False, partition=True, lock_order=False)
    engine = _small_engine()
    engine.query(TopOpenQuery(0, 5, 0))
    # Drive the backend directly, bypassing the engine: legitimate in
    # mixed-layer tests, and must not be blamed on any report.
    engine.backend.drop_caches()
    engine.backend.execute_many([TopOpenQuery(0, 7, 0)], "fresh")
    result = engine.query(TopOpenQuery(0, 7, 0))  # must not raise
    assert result.report.blocks >= 0
    assert engine._external_io > 0
    assert (
        engine.attributed_io()
        + engine.maintenance_io()
        + engine._external_io
        == engine.io_total() - engine.build_io
    )
