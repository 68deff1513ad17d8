"""Serving-tier responses: every served request carries a ServingReport.

The engine's :class:`~repro.engine.report.ExecutionReport` explains what a
request cost *inside* the storage stack (its exact block-transfer ledger
delta); the :class:`ServingReport` explains what happened to it *in front
of* the stack -- how long it queued, how long its batch executed, how many
concurrent callers it was coalesced with, and whether admission control
shed it or its deadline expired first.  Together the two reports account
for a request end to end: ``queue_wait_s + service_s`` is the latency the
caller observed, and the block counts are the same currency every
benchmark in the repo reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.core.point import Point
from repro.engine.report import ExecutionReport, QueryResult, UpdateResult

LANE_READ = "read"
LANE_WRITE = "write"
LANE_NOTIFY = "notify"


@dataclass(frozen=True)
class ServingReport:
    """How the serving runtime handled one submission.

    Attributes
    ----------
    lane:
        ``"read"`` (gathered, coalesced, batch-executed), ``"write"``
        (the single serialized writer lane), or ``"notify"`` (the
        subscription delta lane -- reports attached to terminal
        subscription failures).
    queue_wait_s:
        Seconds between submission and the start of execution -- the
        admission/backpressure cost the bounded queues keep bounded.
    service_s:
        Seconds the executing call took.  For a read this is the
        *batch's* execution time, shared by every request it served.
    coalesce_fanin:
        How many concurrent submissions this execution answered (1 = the
        request ran alone; ``n > 1`` means ``n - 1`` other callers were
        served from the same computation) -- the engine report's
        ``coalesce_fanin``.
    batch_size:
        Submissions gathered into the executing batch (reads; 1 on the
        writer lane).
    batch_blocks:
        The executing batch's block-transfer ledger delta.  A read's
        per-request ``ExecutionReport`` carries zero blocks (the batch
        cannot be split per request); this field keeps the shared charge
        visible next to each response.
    shed:
        Admission control rejected the submission (it never executed).
    timed_out:
        The submission's deadline expired while it was still queued (it
        never executed).
    pinned_version:
        The server's writes-applied counter at the moment this request
        executed -- the write version a read batch was pinned against.
        A batch and a write never overlap (they take turns on the
        server's engine lock), so a read reporting version ``v`` saw
        exactly the first ``v`` applied writes.  ``None`` on reports
        produced before execution (sheds, queue timeouts).
    """

    lane: str
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    coalesce_fanin: int = 1
    batch_size: int = 1
    batch_blocks: int = 0
    shed: bool = False
    timed_out: bool = False
    pinned_version: Optional[int] = None

    @property
    def latency_s(self) -> float:
        """End-to-end seconds the caller waited: queue plus service."""
        return self.queue_wait_s + self.service_s


@dataclass(frozen=True)
class ServedQuery:
    """A query response: the engine result plus its serving report."""

    result: QueryResult
    serving: ServingReport

    @property
    def points(self) -> List[Point]:
        return self.result.points

    @property
    def report(self) -> ExecutionReport:
        """The engine-side :class:`~repro.engine.report.ExecutionReport`."""
        return self.result.report

    def __len__(self) -> int:
        return len(self.result.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.result.points)


@dataclass(frozen=True)
class ServedUpdate:
    """An update response: the engine result plus its serving report."""

    result: UpdateResult
    serving: ServingReport

    @property
    def applied(self) -> bool:
        return self.result.applied

    @property
    def report(self) -> ExecutionReport:
        """The engine-side :class:`~repro.engine.report.ExecutionReport`."""
        return self.result.report
