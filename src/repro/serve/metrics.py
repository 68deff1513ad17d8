"""Server-level metrics: throughput, latency percentiles, queue health.

One :class:`ServerMetrics` instance aggregates everything the serving
tier observes -- counters (served / shed / timed out / coalesced),
bounded reservoirs of recent latencies, and queue-depth gauges.  All
mutators take an internal lock: the dispatcher and the writer lane
update concurrently, and ``describe()`` may be called from any caller
thread.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Sequence

from repro.analysis.locks import tracked_lock

#: Recent end-to-end latencies (and queue waits) each reservoir keeps for
#: percentile reporting.
LATENCY_SAMPLES = 8192


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 <= q <= 1) by rank; 0.0 on empty input.

    The same nearest-rank convention as the benchmark sweeps: index
    ``min(len - 1, floor(q * len))`` into the sorted values -- robust for
    the small-to-moderate sample counts serving benchmarks produce.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return float(ordered[index])


class ServerMetrics:
    """Thread-safe counters and latency reservoirs of one server."""

    def __init__(self) -> None:
        self._lock = tracked_lock("serve.metrics")
        self.started_at = time.perf_counter()
        self.submitted_reads = 0
        self.submitted_writes = 0
        self.served_reads = 0
        self.served_writes = 0
        self.shed = 0
        self.timed_out = 0
        # Submissions answered from another caller's execution (fan-in
        # beyond 1), and the read batches / unique executions behind them.
        self.coalesced_followers = 0
        self.read_batches = 0
        self.executed_reads = 0
        self.max_read_queue_depth = 0
        self.max_write_queue_depth = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_SAMPLES)
        self._queue_waits: Deque[float] = deque(maxlen=LATENCY_SAMPLES)

    # ------------------------------------------------------------------
    # Recording (dispatcher / writer / submit paths)
    # ------------------------------------------------------------------
    def note_submit(self, lane_write: bool, queue_depth: int) -> None:
        with self._lock:
            if lane_write:
                self.submitted_writes += 1
                self.max_write_queue_depth = max(
                    self.max_write_queue_depth, queue_depth
                )
            else:
                self.submitted_reads += 1
                self.max_read_queue_depth = max(
                    self.max_read_queue_depth, queue_depth
                )

    def note_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def note_timeout(self, queue_wait_s: float) -> None:
        with self._lock:
            self.timed_out += 1
            self._queue_waits.append(queue_wait_s)

    def note_read_batch(self, gathered: int, executed: int) -> None:
        """One read batch: ``gathered`` submissions answered by
        ``executed`` executions (the rest shared one of them)."""
        with self._lock:
            self.read_batches += 1
            self.executed_reads += executed
            self.coalesced_followers += gathered - executed

    def note_served(
        self, lane_write: bool, queue_wait_s: float, latency_s: float
    ) -> None:
        with self._lock:
            if lane_write:
                self.served_writes += 1
            else:
                self.served_reads += 1
            self._queue_waits.append(queue_wait_s)
            self._latencies.append(latency_s)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def latencies(self) -> List[float]:
        with self._lock:
            return list(self._latencies)

    def describe(self) -> Dict[str, object]:
        with self._lock:
            elapsed = max(1e-9, time.perf_counter() - self.started_at)
            served = self.served_reads + self.served_writes
            submitted = self.submitted_reads + self.submitted_writes
            latencies = list(self._latencies)
            waits = list(self._queue_waits)
        return {
            "elapsed_s": round(elapsed, 6),
            "submitted": submitted,
            "served": served,
            "served_reads": self.served_reads,
            "served_writes": self.served_writes,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "shed_rate": round(self.shed / submitted, 4) if submitted else 0.0,
            "throughput_rps": round(served / elapsed, 3),
            "read_batches": self.read_batches,
            "executed_reads": self.executed_reads,
            "coalesced_followers": self.coalesced_followers,
            "mean_coalesce_fanin": round(
                (self.executed_reads + self.coalesced_followers)
                / max(1, self.executed_reads),
                3,
            ),
            "latency_p50_s": round(percentile(latencies, 0.50), 6),
            "latency_p95_s": round(percentile(latencies, 0.95), 6),
            "latency_p99_s": round(percentile(latencies, 0.99), 6),
            "queue_wait_p99_s": round(percentile(waits, 0.99), 6),
            "max_read_queue_depth": self.max_read_queue_depth,
            "max_write_queue_depth": self.max_write_queue_depth,
        }
