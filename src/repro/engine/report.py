"""Responses: every engine call returns its data plus an execution report.

The report's block counts are the *ledger delta of this one request*: the
engine snapshots the backend's I/O counters immediately before and after
executing, so summing ``report.blocks`` over every request served since
the engine attached reproduces the backend ledger total exactly (asserted
by ``tests/test_engine.py``).  Cache hits, shard pruning and tombstone
fallbacks -- the service-tier effects that make a measured cost differ
from the paper's bound -- are called out as fields so a dashboard can
explain each request's charge next to ``plan.predicted_io(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.core.point import Point
from repro.engine.plan import QueryPlan

KIND_QUERY = "query"
KIND_BATCH = "batch"
KIND_STREAM = "stream"
KIND_DELTA = "delta"


@dataclass(frozen=True)
class ExecutionReport:
    """What one request actually cost and which machinery served it.

    Attributes
    ----------
    backend:
        Backend name (``"local-index"`` or ``"sharded-service"``).
    kind:
        ``"query"``, ``"insert"`` or ``"delete"``.
    variant:
        The Figure-2 label for queries; the op name for updates.
    structure:
        The structure that served a query (per the plan), or the
        backend's write path for updates.
    reads / writes:
        This request's *attributed* block-transfer ledger delta, split by
        direction.  The bounded incremental merge work piggybacked on an
        update is split out into ``maintenance_blocks`` instead, so the
        ledger never loses a transfer between reports.
    maintenance_blocks:
        Transfers of incremental merge debt this update paid alongside
        its own work (leveled update path).  Counted in the engine's
        ``maintenance_io()``, not in ``blocks``, so the partition
        ``attributed + maintenance == total - build`` stays exact while
        per-update charges reflect the bounded step, not the amortised
        backlog.
    cache_hit:
        Whether the result came from the backend's result cache (then
        ``blocks`` is typically 0).
    shards_visited / shards_pruned:
        Router fan-out on the sharded backend (1 / 0 on the monolithic).
    tombstone_fallback:
        Whether a tombstone inside the rectangle forced at least one
        visited shard to rescan its resident points instead of using its
        static structure.
    coalesced:
        Whether another request's execution in the same
        :meth:`~repro.engine.SkylineEngine.query_batch_shared` batch
        answered this one: an identical rectangle, or one nested inside
        it with the same top-right corner.  ``cache_hit`` and
        ``tombstone_fallback`` then describe that execution.  Always
        ``False`` for a request executed on its own.
    coalesce_fanin:
        How many requests of the batch the computation that answered
        this one answered, itself included (1 = it ran alone).
    result_size:
        ``k`` -- the full result size before pagination.
    predicted_io:
        ``plan.predicted_io(k)``: the paper bound instantiated at the
        observed output size, for charged-vs-predicted comparisons.
    """

    backend: str
    kind: str
    variant: str
    structure: str
    reads: int
    writes: int
    cache_hit: bool = False
    shards_visited: int = 0
    shards_pruned: int = 0
    tombstone_fallback: bool = False
    coalesced: bool = False
    coalesce_fanin: int = 1
    result_size: int = 0
    predicted_io: Optional[float] = None
    maintenance_blocks: int = 0

    @property
    def blocks(self) -> int:
        """Total block transfers charged on this request's ledger delta."""
        return self.reads + self.writes


@dataclass(frozen=True)
class QueryResult:
    """Points plus provenance: the page, its plan, and its report.

    ``points`` is the requested page (after ``cursor``/``limit``), in
    increasing x-order; ``total_results`` is the full answer size ``k``;
    ``next_cursor`` is the resume token for the following page (``None``
    when this page ends the result).
    """

    points: List[Point]
    total_results: int
    next_cursor: Optional[float]
    plan: QueryPlan
    report: ExecutionReport

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of an :class:`repro.engine.UpdateRequest`.

    ``applied`` is ``False`` only for a delete that found no live victim;
    an insert either applies or raises (coordinate collision on the
    service, static index on a non-dynamic local backend).
    """

    applied: bool
    report: ExecutionReport


@dataclass(frozen=True)
class StreamPage:
    """One page of a resumable top-k stream (``kind="stream"``).

    Pages come from an immutable snapshot pinned when the stream opened,
    so consecutive pages tile the snapshot's answer exactly -- no point
    is skipped or repeated however many updates land between pages.

    ``next_cursor`` is the last point's x and doubles as a
    :attr:`~repro.engine.requests.QueryRequest.cursor` resume token: a
    caller that outlives its snapshot can continue against live data with
    a fresh paginated query.  ``exhausted`` marks the final page; the
    ``report``'s blocks are the transfers this page's pops charged (zero
    for a page served from memory-resident snapshot records).
    """

    points: List[Point]
    next_cursor: Optional[float]
    exhausted: bool
    report: ExecutionReport

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)


@dataclass(frozen=True)
class SkylineDelta:
    """One subscription notification (``kind="delta"``).

    ``entered``/``left`` are the points that joined and dropped out of
    the subscribed rectangle's skyline since the previous notification;
    replaying every delta in ``revision`` order over the initial
    snapshot reconstructs the naive recomputed answer exactly (asserted
    by ``tests/test_stream.py``).  The ``report`` carries the ledger
    delta of the recomputation that derived the notification -- a
    subscription skipped by write-version scoping emits no delta and
    charges nothing.
    """

    entered: List[Point]
    left: List[Point]
    revision: int
    report: ExecutionReport

    @property
    def empty(self) -> bool:
        """Whether the notification changes nothing (never delivered)."""
        return not self.entered and not self.left
