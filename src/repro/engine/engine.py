"""``SkylineEngine``: the one front door for the whole stack.

The engine is a thin, backend-agnostic request/response layer: requests
go in (:class:`~repro.engine.requests.QueryRequest` /
:class:`~repro.engine.requests.UpdateRequest`), and every response comes
back with a per-request :class:`~repro.engine.report.ExecutionReport`
whose block counts are that request's exact ledger delta.  ``explain``
returns the :class:`~repro.engine.plan.QueryPlan` -- structure choice
plus the paper's bound instantiated with the backend's actual ``B`` and
``n`` -- without executing anything.

Accounting invariant
--------------------
The engine snapshots the backend ledger around every call, so::

    attributed_io() + maintenance_io() == backend ledger total - build_io

holds after any sequence of queries, updates and cache drops served
through the engine (compactions an update triggers are charged to that
update's report; cache hits charge 0; cache drops flush dirty blocks
into ``maintenance_io``).  ``tests/test_engine.py`` asserts the equality
exactly on both backends.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.analysis import sanitize as _sanitize
from repro.analysis.locks import tracked_lock
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.em.config import EMConfig
from repro.em.counters import IOSnapshot
from repro.engine.backends import (
    Backend,
    LocalIndexBackend,
    ShardedServiceBackend,
)
from repro.engine.plan import QueryPlan
from repro.engine.report import (
    KIND_BATCH,
    KIND_QUERY,
    ExecutionReport,
    QueryResult,
    UpdateResult,
)
from repro.engine.requests import QueryRequest, UpdateRequest
from repro.service.config import ServiceConfig
from repro.service.durability import DurableStore

Request = Union[QueryRequest, UpdateRequest]
Response = Union[QueryResult, UpdateResult]
QueryLike = Union[QueryRequest, RangeQuery]
_T = TypeVar("_T")


def _paginate(
    points: List[Point], cursor: Optional[float], limit: Optional[int]
) -> Tuple[List[Point], Optional[float]]:
    """Apply the cursor (strictly-after-x) and limit; return the page and
    the resume token (``None`` when the page ends the result).

    Results are in increasing x-order, so a page is a prefix of the
    remaining suffix and the last point's x is a valid resume token.
    """
    if cursor is not None:
        points = [p for p in points if p.x > cursor]
    if limit is None or len(points) <= limit:
        return points, None
    page = points[:limit]
    return page, page[-1].x


def _answered_by(rects: Sequence[RangeQuery]) -> List[int]:
    """For each rectangle of a batch, the position of the one whose
    execution answers it (its own for a leader).

    A point inside a rectangle nested in another with the same top-right
    corner has all its dominators between itself and that corner, so
    inside its own rectangle: filtering the larger answer is exact, and
    identical rectangles are the trivial case.  Visiting in
    ``(x_lo, y_lo)`` order, ties in batch order, puts every possible
    container first, and nesting with a shared corner is transitive, so
    each rectangle joins the first leader containing it or leads.
    """
    answered_by = list(range(len(rects)))
    leaders: List[int] = []
    for i in sorted(answered_by, key=lambda i: (rects[i].x_lo, rects[i].y_lo)):
        r = rects[i]
        for j in leaders:
            o = rects[j]
            if (r.x_hi, r.y_hi) == (o.x_hi, o.y_hi) and (
                r.x_lo >= o.x_lo and r.y_lo >= o.y_lo
            ):
                answered_by[i] = j
                break
        else:
            leaders.append(i)
    return answered_by


class SkylineEngine:
    """Typed request/response facade over a pluggable :class:`Backend`."""

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        # Ledger value when the engine attached: everything before it
        # (index construction, recovery) is build cost, not request cost.
        self.build_io = backend.io_total()
        self.requests_served = 0
        self._attributed = 0
        # Ledger charges from engine-level maintenance (cache drops flush
        # dirty blocks) -- real transfers, but not any one request's.
        self._maintenance = 0
        # Ledger traffic that bypassed the engine (callers driving the
        # raw service/index next to an attached engine).  Tracked by the
        # report-partition sanitizer so the identity stays exact over
        # engine-served traffic; see :meth:`_san_pre`.
        self._external_io = 0
        # Group accounting for snapshot-concurrent read batches
        # (:meth:`query_batch_shared`): the books lock serializes only
        # the partition bookkeeping at group open/close -- the batches
        # themselves run concurrently between the two.
        self._books = tracked_lock("engine.books")
        self._shared_readers = 0
        self._group_before: Optional[IOSnapshot] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def local(
        cls,
        points: Iterable[Point],
        *,
        dynamic: bool = False,
        epsilon: float = 0.5,
        em_config: Optional[EMConfig] = None,
    ) -> "SkylineEngine":
        """An engine over a single :class:`repro.RangeSkylineIndex`."""
        return cls(
            LocalIndexBackend.build(
                list(points), dynamic=dynamic, epsilon=epsilon, em_config=em_config
            )
        )

    @classmethod
    def sharded(
        cls,
        points: Iterable[Point],
        config: Optional[ServiceConfig] = None,
        store: Optional[DurableStore] = None,
        **overrides: object,
    ) -> "SkylineEngine":
        """An engine over a :class:`repro.service.SkylineService`."""
        return cls(
            ShardedServiceBackend.build(
                list(points), config, store=store, **overrides
            )
        )

    @classmethod
    def open(
        cls,
        store: DurableStore,
        config: Optional[ServiceConfig] = None,
        **overrides: object,
    ) -> "SkylineEngine":
        """Durability passthrough: recover the service ``store`` holds.

        Recovery I/O is part of :attr:`build_io` (the engine attaches
        after it), and the recovery cost breakdown stays available via
        ``engine.describe()["backend"]["durability_detail"]["recovery"]``.
        """
        return cls(ShardedServiceBackend.open(store, config, **overrides))

    # ------------------------------------------------------------------
    # Report-partition sanitizer (active under ``REPRO_SANITIZE=1``)
    # ------------------------------------------------------------------
    def _san_pre(self) -> None:
        """Settle the ledger before serving: any positive gap between the
        backend ledger and the engine's books is traffic that bypassed
        the engine -- recorded as external, excluded from blame.  A
        *negative* gap means the engine attributed transfers the ledger
        never saw: corrupted bookkeeping, reported immediately."""
        if not _sanitize.partition_checks:
            return
        gap = (
            self.backend.io_total()
            - self.build_io
            - self._attributed
            - self._maintenance
            - self._external_io
        )
        if gap > 0:
            self._external_io += gap
        elif gap < 0:
            raise _sanitize.PartitionError(
                f"engine books exceed the backend ledger by {-gap} blocks "
                f"(attributed={self._attributed}, "
                f"maintenance={self._maintenance}, "
                f"external={self._external_io}, build={self.build_io}, "
                f"ledger={self.backend.io_total()}) -- a report charged "
                "transfers the ledger never recorded"
            )

    def _san_settle(self) -> None:
        """After serving: ``attributed + maintenance (+ external) ==
        total - build`` must hold *exactly* -- the reports partition the
        ledger."""
        if not _sanitize.partition_checks:
            return
        gap = (
            self.backend.io_total()
            - self.build_io
            - self._attributed
            - self._maintenance
            - self._external_io
        )
        if gap != 0:
            raise _sanitize.PartitionError(
                f"report partition violated by {gap} blocks after serving: "
                f"attributed={self._attributed} + "
                f"maintenance={self._maintenance} + "
                f"external={self._external_io} != "
                f"ledger={self.backend.io_total()} - build={self.build_io}"
            )

    def _san_post(self, report: ExecutionReport) -> None:
        """Component sanity of one report, then the partition identity."""
        if not _sanitize.partition_checks:
            return
        if report.reads < 0 or report.writes < 0 or report.maintenance_blocks < 0:
            raise _sanitize.PartitionError(
                f"report carries a negative component: reads={report.reads}, "
                f"writes={report.writes}, "
                f"maintenance_blocks={report.maintenance_blocks} "
                f"({report.kind}/{report.variant} on {report.backend})"
            )
        self._san_settle()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(request: QueryLike) -> QueryRequest:
        if isinstance(request, QueryRequest):
            return request
        return QueryRequest(rect=request)

    def explain(self, request: QueryLike) -> QueryPlan:
        """The plan -- structure choice and instantiated paper bound --
        without executing the request."""
        return self.backend.plan(self._coerce(request))

    def query(self, request: QueryLike) -> QueryResult:
        """Execute one read; returns the page plus plan and report."""
        req = self._coerce(request)
        plan = self.backend.plan(req)
        self._san_pre()
        before = self.backend.snapshot()
        # repro: calls(ShardedServiceBackend.execute_many)
        points, trace = self.backend.execute_many([req.rect], req.consistency)[0]
        delta = self.backend.snapshot() - before
        k = len(points)
        page, next_cursor = _paginate(points, req.cursor, req.limit)
        report = ExecutionReport(
            backend=self.backend.name,
            kind=KIND_QUERY,
            variant=req.variant,
            structure=plan.structure,
            reads=delta.reads,
            writes=delta.writes,
            cache_hit=trace.cache_hit,
            shards_visited=trace.shards_visited,
            shards_pruned=trace.shards_pruned,
            tombstone_fallback=trace.tombstone_fallback,
            result_size=k,
            predicted_io=plan.predicted_io(k),
        )
        self.requests_served += 1
        self._attributed += report.blocks
        self._san_post(report)
        return QueryResult(
            points=page,
            total_results=k,
            next_cursor=next_cursor,
            plan=plan,
            report=report,
        )

    def query_many(self, requests: Sequence[QueryLike]) -> List[QueryResult]:
        """Execute a batch of reads, one result (with report) each.

        Requests are served in order through :meth:`query`, so every
        report keeps its exact per-request ledger delta; a repeated
        rectangle is a result-cache hit on the sharded backend from its
        second occurrence on.  When batch throughput matters more than
        per-request attribution, use :meth:`query_batch_shared`, which
        runs the whole batch as one backend call and answers identical
        and nested rectangles from one execution.
        """
        return [self.query(request) for request in requests]

    def query_batch_shared(
        self, requests: Sequence[QueryLike]
    ) -> Tuple[List[QueryResult], ExecutionReport]:
        """Execute a batch of reads as one backend call; safe for
        snapshot-concurrent callers.

        The one place a batch's reads share work, on either backend:
        identical rectangles share one execution, and a rectangle inside
        another with the same ``x_hi`` and ``y_hi`` filters that one's
        answer (:func:`_answered_by`).  Nothing writes during the call,
        so the rectangle alone decides sharing, with no
        ``(uid, write_version)`` scope.  The rest execute in batch order
        through the backend's native batch executor (per-shard
        worklists); pagination then applies per request to its full
        answer.  A batch runs cache-bypassing iff any request asks for
        ``consistency="fresh"``.

        A batch's ledger delta cannot be split per request, so each
        per-request report carries zero blocks, its own plan's shard
        fan-out, and ``coalesced``/``coalesce_fanin`` plus the
        ``cache_hit``/``tombstone_fallback`` flags of the execution that
        answered it; the returned *batch report* carries the blocks --
        counted once in :meth:`attributed_io`, so the accounting
        identity still holds.

        Any number of overlapping calls may execute concurrently,
        provided no write runs beside them -- the serving tier's
        read/write gate enforces exactly that.  Ledger accounting happens
        at **group** granularity: the call that opens a group (shared
        readers 0 -> 1) settles the books and snapshots the ledger; the
        call that closes it (readers back to 0) attributes the whole
        group's ledger delta to its own batch report and re-checks the
        partition identity; calls in between return a zero-block batch
        report.  That is the per-request discipline of one batch, lifted
        to overlapping batches: the group delta is race-free because
        every reader only decrements after its execution returned, so
        the closer's snapshot has seen all of the group's charges.  With
        no overlap every call is both opener and closer, and its batch
        report carries exactly its own ledger delta.

        A failing call just leaves the group; its ledger traffic is
        absorbed as external by the next :meth:`_san_pre`, the same
        discipline a failing single query gets.
        """
        reqs = [self._coerce(request) for request in requests]
        consistency = (
            "fresh" if any(r.consistency == "fresh" for r in reqs) else "cached"
        )
        plans = [self.backend.plan(r) for r in reqs]
        answered_by = _answered_by([r.rect for r in reqs])
        leaders = [i for i, leader in enumerate(answered_by) if leader == i]
        with self._books:
            if self._shared_readers == 0:
                self._san_pre()
                self._group_before = self.backend.snapshot()
            self._shared_readers += 1
        try:
            # repro: calls(ShardedServiceBackend.execute_many)
            executed = self.backend.execute_many(
                [reqs[i].rect for i in leaders], consistency
            )
            answers = dict(zip(leaders, executed))
            fanin = Counter(answered_by)
            results: List[QueryResult] = []
            total_k = 0
            predicted = 0.0
            for i, (req, plan) in enumerate(zip(reqs, plans)):
                leader = answered_by[i]
                points, trace = answers[leader]
                if leader != i:
                    points = req.rect.filter(points)
                k = len(points)
                total_k += k
                predicted += plan.predicted_io(k)
                page, next_cursor = _paginate(points, req.cursor, req.limit)
                results.append(
                    QueryResult(
                        points=page,
                        total_results=k,
                        next_cursor=next_cursor,
                        plan=plan,
                        report=ExecutionReport(
                            backend=self.backend.name,
                            kind=KIND_QUERY,
                            variant=req.variant,
                            structure=plan.structure,
                            reads=0,
                            writes=0,
                            cache_hit=trace.cache_hit,
                            shards_visited=plan.shards_visited,
                            shards_pruned=plan.shards_pruned,
                            tombstone_fallback=trace.tombstone_fallback,
                            coalesced=leader != i,
                            coalesce_fanin=fanin[leader],
                            result_size=k,
                            predicted_io=plan.predicted_io(k),
                        ),
                    )
                )
        except BaseException:
            with self._books:
                self._shared_readers -= 1
                if self._shared_readers == 0:
                    self._group_before = None
            raise
        with self._books:
            self._shared_readers -= 1
            delta: Optional[IOSnapshot] = None
            if self._shared_readers == 0:
                assert self._group_before is not None
                delta = self.backend.snapshot() - self._group_before
                self._group_before = None
            batch_report = ExecutionReport(
                backend=self.backend.name,
                kind=KIND_BATCH,
                variant=KIND_BATCH,
                structure=KIND_BATCH,
                reads=delta.reads if delta is not None else 0,
                writes=delta.writes if delta is not None else 0,
                result_size=total_k,
                predicted_io=predicted,
            )
            self.requests_served += len(reqs)
            self._attributed += batch_report.blocks
            if delta is not None:
                self._san_post(batch_report)
        return results, batch_report

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def update(self, request: UpdateRequest) -> UpdateResult:
        """Execute one write; the report charges exactly this request's
        ledger delta.

        The bounded incremental merge work piggybacked on the update is
        split out: it lands in :meth:`maintenance_io` (and the report's
        ``maintenance_blocks``), so the attributed charge reflects the
        update's own bounded work while the partition
        ``attributed + maintenance == total - build`` stays exact.  A
        major compaction the update triggers (the tombstone-reclaim
        valve) is part of its attributed charge.
        """
        self._san_pre()
        before = self.backend.snapshot()
        maintenance_before = self.backend.maintenance_snapshot()
        applied = self.backend.apply(request)
        delta = self.backend.snapshot() - before
        maintenance = self.backend.maintenance_snapshot() - maintenance_before
        report = ExecutionReport(
            backend=self.backend.name,
            kind=request.op,
            variant=request.op,
            structure=self.backend.write_path,
            reads=delta.reads - maintenance.reads,
            writes=delta.writes - maintenance.writes,
            maintenance_blocks=maintenance.total,
        )
        self.requests_served += 1
        self._attributed += report.blocks
        self._maintenance += maintenance.total
        self._san_post(report)
        return UpdateResult(applied=applied, report=report)

    def insert(self, point: Point) -> UpdateResult:
        return self.update(UpdateRequest.insert(point))

    def delete(self, point: Point) -> UpdateResult:
        return self.update(UpdateRequest.delete(point))

    def execute(self, request: Request) -> Response:
        """Unified dispatch: query or update, by request type."""
        if isinstance(request, UpdateRequest):
            return self.update(request)
        return self.query(request)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.backend)

    def io_total(self) -> int:
        """Backend ledger total (build + every request served)."""
        return self.backend.io_total()

    def attributed_io(self) -> int:
        """Sum of ``report.blocks`` over every request this engine served.

        Equals ``io_total() - build_io - maintenance_io()`` whenever all
        traffic goes through the engine -- the per-request reports
        partition the ledger exactly.
        """
        return self._attributed

    def maintenance_io(self) -> int:
        """Transfers charged by engine-level maintenance (cache drops
        flushing dirty blocks), which belong to no single request."""
        return self._maintenance

    def describe(self) -> Dict[str, object]:
        return {
            "engine": {
                "requests_served": self.requests_served,
                "build_io": self.build_io,
                "attributed_io": self._attributed,
                "maintenance_io": self._maintenance,
                "io_total": self.io_total(),
            },
            "backend": self.backend.describe(),
        }

    def _maintain(self, operation: Callable[[], _T]) -> _T:
        """Run one maintenance call and charge its ledger delta to
        :meth:`maintenance_io` -- real transfers, but no request's -- so
        the accounting identity keeps holding."""
        self._san_pre()
        before = self.backend.snapshot()
        result = operation()
        self._maintenance += (self.backend.snapshot() - before).total
        self._san_settle()
        return result

    def drop_caches(self) -> None:
        """Empty every buffer pool (cold-cache measurements charge the
        paper's worst-case cost on the next request).

        Evicting dirty frames flushes them -- those writes are charged to
        :meth:`maintenance_io`, keeping the accounting identity exact.
        """
        self._maintain(self.backend.drop_caches)

    def compact(self) -> None:
        """Fold pending writes into the static structures now (a no-op on
        the monolithic backend, which applies updates in place).

        Use this instead of reaching for the raw service when driving
        compaction from an external scheduler (``auto_compact=False``):
        the rebuild cost lands in :meth:`maintenance_io`, so the
        accounting identity keeps holding.
        """
        self._maintain(self.backend.compact)

    def drain(self, sid: Optional[int] = None) -> Dict[str, int]:
        """Pay all outstanding incremental merge debt now (a no-op on
        backends without a merge scheduler); returns the drain counters.

        The explicit drain of the leveled update path: completes the
        active merge and every queued one in one call, charging the
        remaining debt to :meth:`maintenance_io` -- the accounting
        identity keeps holding, and subsequent queries run against fully
        merged levels.  With ``sid`` only that shard's private tower is
        drained (per-shard towers make a single shard's maintenance an
        independently payable unit); its neighbours' debt is untouched.
        """
        return self._maintain(lambda: self.backend.drain(sid))

    def split_shard(self, sid: int, cut: Optional[float] = None) -> Optional[float]:
        """Split shard ``sid`` of a sharded backend (see
        :meth:`repro.service.SkylineService.split_shard`); a no-op
        returning ``None`` on the monolithic backend.

        The split's transfers land on the service's maintenance ledger;
        the engine folds them into :meth:`maintenance_io`, so the
        accounting identity keeps holding.  Updates that trigger an
        *adaptive* split inside :meth:`update` need no special handling
        -- their reports already split out the maintenance delta.
        """
        return self._maintain(lambda: self.backend.split_shard(sid, cut))

    def merge_shards(self, sid: int) -> Optional[float]:
        """Merge shards ``sid`` and ``sid + 1`` of a sharded backend (see
        :meth:`repro.service.SkylineService.merge_shards`); a no-op
        returning ``None`` on the monolithic backend.  Charged like
        :meth:`split_shard`."""
        return self._maintain(lambda: self.backend.merge_shards(sid))

    def fold_shard(self, sid: int) -> int:
        """Fold shard ``sid`` of a sharded backend in place (see
        :meth:`repro.service.SkylineService.fold_shard`); a no-op
        returning 0 on the monolithic backend.  Charged like
        :meth:`split_shard`."""
        return self._maintain(lambda: self.backend.fold_shard(sid))

    def close(self) -> int:
        """Shut the backend down cleanly (WAL flush on a durable service).

        The flush's ledger charge lands in :meth:`maintenance_io`, so the
        accounting identity still holds after shutdown.
        """
        return self._maintain(self.backend.close)
