"""``SkylineServer``: the concurrent request runtime in front of the engine.

The engine serves one caller at a time; this server turns it into a
front end for many.  Submissions (sync callers and asyncio coroutines
alike) land on bounded intake queues; a single **dispatcher** thread
gathers reads and hands each gathered batch to one
:meth:`~repro.engine.SkylineEngine.query_batch_shared` call, which
shares one execution among identical and nested rectangles across
callers and runs its per-shard worklists on the persistent uid-keyed
:class:`~repro.serve.workers.ShardWorkerPool`;
a single **writer lane** thread serializes updates, so writes interleave
safely with read batches (the two lanes exclude each other on one engine
lock, and nothing else ever touches the engine).  Admission control is a
property of the queues: they are bounded, and a full queue either blocks
the submitter or sheds the request with a typed
:class:`~repro.serve.errors.Overloaded` failure, while per-request
deadlines fail still-queued work with
:class:`~repro.serve.errors.DeadlineExceeded` -- so queue wait, and with
it tail latency, cannot grow without bound no matter the offered load.

**Arrival-aware gathering.**  The dispatcher keeps an EWMA of read
inter-arrival gaps and waits up to ``config.gather_window`` for more
reads only while that mean gap is no longer than the window (or before
any estimate exists); when reads arrive further apart, waiting cannot
grow a batch, so it drains whatever is already queued and dispatches at
once.  :meth:`SkylineServer.describe` reports the window in effect.

**Subscriptions** (:meth:`SkylineServer.subscribe`) ride the same
lanes as continuous queries: after the writer lane applies each update
it pumps a :class:`~repro.stream.SubscriptionManager`, which uses the
per-shard ``(uid, write_version)`` scopes to recompute only the
subscriptions overlapping a written shard, and the resulting deltas fan
out to bounded per-subscriber queues (thread iterators, ``async for``
via :meth:`ServerSubscription.deltas`, or inline callbacks) with the
same deadline and shed semantics as the intake queues.

Every response pairs the engine's per-request
:class:`~repro.engine.report.ExecutionReport` with a
:class:`~repro.serve.report.ServingReport` (queue wait, service time,
coalesce fan-in, shed/timeout flags), and :meth:`SkylineServer.describe`
exposes the server-level picture: throughput, p50/p95/p99 latency, queue
depths, shed rate, worker-pool state, and the engine's ledger partition
underneath.  The server keeps no sharing logic of its own: fan-in and
executed counts are read off the engine's per-request reports.

Consistency model: a read batch executes against the state left by every
write that completed before the batch started; a caller that awaits its
update future before submitting a read therefore reads its own write.
Ordering *between* concurrent callers is whatever the queues produce,
exactly as in any networked service.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import (
    AsyncIterator,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Union,
)

from concurrent.futures import Future, ThreadPoolExecutor

from repro.analysis.locks import tracked_lock, tracked_rw_gate
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.engine.engine import QueryLike, SkylineEngine
from repro.engine.report import SkylineDelta
from repro.engine.requests import QueryRequest, SubscribeRequest, UpdateRequest
from repro.serve.config import MAX_WRITE_QUEUE, ServerConfig
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    ServerClosed,
    ServingError,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.report import (
    LANE_NOTIFY,
    LANE_READ,
    LANE_WRITE,
    ServedQuery,
    ServedUpdate,
    ServingReport,
)
from repro.serve.workers import ShardWorkerPool
from repro.stream.subscriptions import SubscriptionManager

Request = Union[QueryRequest, UpdateRequest]

#: How long the lane threads sleep on an empty queue before re-checking
#: the stop flag.  Purely an implementation detail of shutdown latency.
_IDLE_POLL_S = 0.02

#: EWMA smoothing factor of the read inter-arrival gap estimate.
GATHER_ALPHA = 0.2
#: Each observed gap enters the EWMA capped at this many gather windows,
#: so after an idle pause back-to-back reads pull the estimate back under
#: the window within 8 arrivals (``4 * (1 - 0.2) ** 7 < 1``).
GATHER_GAP_CAP = 4.0


@dataclass
class _Submission:
    """One enqueued request: the payload, its future, and its clock."""

    request: Request
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    deadline_at: Optional[float] = None


#: What a subscription queue carries: deltas, a terminal failure, or the
#: ``None`` close sentinel.
_Notification = Union[SkylineDelta, ServingError, None]


class ServerSubscription:
    """Client handle for one continuous query registered on the server.

    Deltas arrive on a bounded queue (capacity
    ``config.max_subscription_queue``); consume them with :meth:`get`,
    by iterating the handle from a thread, or with ``async for delta in
    handle.deltas()`` from asyncio.  Passing ``callback=`` to
    :meth:`SkylineServer.subscribe` instead invokes the callback inline
    on the notification thread -- keep callbacks fast and never call
    back into the server's blocking API from one.

    Admission control applies to subscribers too: a consumer that stops
    draining its queue is cancelled with a terminal
    :class:`~repro.serve.errors.Overloaded`, and a subscription past its
    deadline gets :class:`~repro.serve.errors.DeadlineExceeded`;
    terminal failures are raised by the consuming side when reached.
    A cleanly closed subscription just ends its iterators.
    """

    def __init__(
        self,
        server: "SkylineServer",
        sub_id: int,
        request: SubscribeRequest,
        capacity: int,
        callback: Optional[Callable[[SkylineDelta], None]] = None,
        deadline_at: Optional[float] = None,
    ) -> None:
        self._server = server
        self.sub_id = sub_id
        self.request = request
        self.deadline_at = deadline_at
        self._callback = callback
        self._queue: "queue.Queue[_Notification]" = queue.Queue(capacity)
        self._ended = threading.Event()
        self.delivered = 0

    # -- delivery side (server threads) --------------------------------
    def _push(self, delta: SkylineDelta) -> bool:
        """Deliver one delta; ``False`` means overflow (caller sheds)."""
        if self._ended.is_set():
            return True
        if self._callback is not None:
            self._callback(delta)
            self.delivered += 1
            return True
        try:
            self._queue.put_nowait(delta)
        except queue.Full:
            return False
        self.delivered += 1
        return True

    def _terminate(self, exc: Optional[ServingError]) -> None:
        """End the subscription; consumers see ``exc`` (or a clean end)."""
        if self._ended.is_set():
            return
        self._ended.set()
        try:
            self._queue.put_nowait(exc)
        except queue.Full:
            # Evict the oldest pending delta so the terminal marker fits.
            try:
                self._queue.get_nowait()
            except queue.Empty:
                pass
            try:
                self._queue.put_nowait(exc)
            except queue.Full:
                pass

    # -- consumer side --------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether the subscription has ended (no more deltas coming)."""
        return self._ended.is_set()

    def close(self) -> None:
        """Unsubscribe cleanly (idempotent); pending deltas still drain."""
        self._server.unsubscribe(self.sub_id)

    def _resolve(self, item: _Notification) -> Optional[SkylineDelta]:
        if item is None:
            return None
        if isinstance(item, ServingError):
            raise item
        return item

    def get(self, timeout: Optional[float] = None) -> Optional[SkylineDelta]:
        """The next delta; ``None`` once the subscription ended cleanly.

        Raises the terminal :class:`~repro.serve.errors.ServingError` if
        the server cancelled the subscription, and ``queue.Empty`` if
        ``timeout`` elapses with nothing delivered.
        """
        if self._ended.is_set() and self._queue.empty():
            return None
        return self._resolve(self._queue.get(timeout=timeout))

    def __iter__(self) -> Iterator[SkylineDelta]:
        """Blocking delta iterator for thread consumers."""
        while True:
            if self._ended.is_set() and self._queue.empty():
                return
            try:
                item = self._queue.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                continue
            delta = self._resolve(item)
            if delta is None:
                return
            yield delta

    async def deltas(self) -> AsyncIterator[SkylineDelta]:
        """``async for`` delta iterator for asyncio consumers."""
        while True:
            if self._ended.is_set() and self._queue.empty():
                return
            try:
                item = await asyncio.to_thread(
                    self._queue.get, True, _IDLE_POLL_S
                )
            except queue.Empty:
                continue
            delta = self._resolve(item)
            if delta is None:
                return
            yield delta


class SkylineServer:
    """A bounded-queue, batch-gathering front end over a
    :class:`~repro.engine.SkylineEngine`.

    Parameters
    ----------
    engine:
        The engine to serve.  On a sharded backend the server installs a
        persistent uid-keyed worker pool as the service's batch executor
        (see :mod:`repro.serve.workers`); a local backend is served
        through the same lanes without a pool.
    config:
        Serving tunables; defaults to :class:`ServerConfig()`.
    start:
        Start the lane threads immediately (default).  Pass ``False`` to
        pre-load the queues first -- e.g. a benchmark staging a
        deterministic burst -- then call :meth:`start`.
    """

    def __init__(
        self,
        engine: SkylineEngine,
        config: Optional[ServerConfig] = None,
        *,
        start: bool = True,
    ) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        self.pool: Optional[ShardWorkerPool] = None
        service = getattr(engine.backend, "service", None)
        if service is not None:
            self.pool = ShardWorkerPool(service)
            service.batch_executor = self.pool
        self._read_queue: "queue.Queue[_Submission]" = queue.Queue(
            self.config.max_read_queue
        )
        self._write_queue: "queue.Queue[_Submission]" = queue.Queue(
            MAX_WRITE_QUEUE
        )
        # Read batches run concurrently against a frozen snapshot (the
        # gate's read side); writer-lane updates and subscription pumps
        # take the exclusive write side.  Nothing else may touch the
        # engine while the server owns it (reprolint enforces it: every
        # self.engine call must hold the gate).
        self._gate = tracked_rw_gate("serve.server.engine")  # repro: guards(engine)
        # Effective read concurrency: batches may only overlap when the
        # uid-keyed worker pool pins every shard ledger to one worker
        # thread.
        workers = self.config.read_concurrency
        if self.pool is None:
            workers = 1
        self._read_workers = workers
        self._read_executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="skyserve-read"
            )
            if workers > 1
            else None
        )
        # Writes applied so far; each read batch reports the value it
        # executed against (its pinned write version).  Bumped only by
        # the writer lane while it holds the gate's write side.
        self._writes_applied = 0
        # Continuous queries: the manager diffs skylines and scopes the
        # recomputation; the handle table maps sub ids to client queues.
        self._subscriptions = SubscriptionManager(engine)
        self._handles: Dict[int, ServerSubscription] = {}
        self._handles_lock = tracked_lock(
            "serve.server.subscribers"
        )  # repro: guards(subscription handles)
        self._notified = 0
        self._notify_blocks = 0
        self._subs_shed = 0
        # Arrival-gap estimate -- touched only by the dispatcher thread
        # (describe() reads are monotonic snapshots, no lock needed).
        self._arrival_ewma: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        self._dispatcher: Optional[threading.Thread] = None
        self._writer: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SkylineServer":
        """Start the dispatcher and writer-lane threads (idempotent)."""
        if self._closed:
            raise ServerClosed("server already stopped")
        if self._started:
            return self
        self._started = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="skyserve-dispatch", daemon=True
        )
        self._writer = threading.Thread(
            target=self._writer_loop, name="skyserve-writer", daemon=True
        )
        self._dispatcher.start()
        self._writer.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the lanes; with ``drain`` (default) serve everything
        already queued first.  Idempotent.  Submissions after ``stop``
        fail with :class:`ServerClosed`."""
        if self._closed:
            return
        self._closed = True
        if self._started and drain:
            while not (
                self._read_queue.empty() and self._write_queue.empty()
            ):
                time.sleep(_IDLE_POLL_S)
        self._stop.set()
        for thread in (self._dispatcher, self._writer):
            if thread is not None:
                thread.join()
        if self._read_executor is not None:
            # In-flight read batches complete before the pool goes away.
            self._read_executor.shutdown(wait=True)
        for lane in (self._read_queue, self._write_queue):
            while True:
                try:
                    submission = lane.get_nowait()
                except queue.Empty:
                    break
                submission.future.set_exception(
                    ServerClosed("server stopped before this request ran")
                )
        with self._handles_lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle._terminate(None)
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "SkylineServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission (sync callers; returns concurrent futures)
    # ------------------------------------------------------------------
    def _deadline_at(
        self, enqueued_at: float, deadline: Optional[float]
    ) -> Optional[float]:
        return None if deadline is None else enqueued_at + deadline

    def _admit(
        self, lane: "queue.Queue[_Submission]", submission: _Submission, write: bool
    ) -> Future:
        """Admission control: bounded enqueue under the configured policy."""
        if self._closed:
            raise ServerClosed("server is stopped")
        lane_name = LANE_WRITE if write else LANE_READ
        try:
            if self.config.backpressure == "shed":
                lane.put_nowait(submission)
            else:
                lane.put(submission, timeout=self.config.submit_timeout)
        except queue.Full:
            self.metrics.note_shed()
            submission.future.set_exception(
                Overloaded(
                    f"{lane_name} queue full "
                    f"({lane.maxsize} pending, policy={self.config.backpressure})",
                    ServingReport(lane=lane_name, shed=True),
                )
            )
            return submission.future
        self.metrics.note_submit(write, lane.qsize())
        return submission.future

    def submit_query(
        self, request: QueryLike, *, deadline: Optional[float] = None
    ) -> "Future[ServedQuery]":
        """Enqueue one read; the future resolves to a :class:`ServedQuery`
        (or fails with :class:`Overloaded` / :class:`DeadlineExceeded`)."""
        req = request if isinstance(request, QueryRequest) else QueryRequest(rect=request)
        submission = _Submission(req)
        submission.deadline_at = self._deadline_at(submission.enqueued_at, deadline)
        return self._admit(self._read_queue, submission, write=False)

    def submit_update(
        self, request: UpdateRequest, *, deadline: Optional[float] = None
    ) -> "Future[ServedUpdate]":
        """Enqueue one write on the serialized writer lane."""
        submission = _Submission(request)
        submission.deadline_at = self._deadline_at(submission.enqueued_at, deadline)
        return self._admit(self._write_queue, submission, write=True)

    # Blocking convenience wrappers -----------------------------------
    def query(
        self,
        request: QueryLike,
        *,
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> ServedQuery:
        return self.submit_query(request, deadline=deadline).result(timeout)

    def update(
        self,
        request: UpdateRequest,
        *,
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> ServedUpdate:
        return self.submit_update(request, deadline=deadline).result(timeout)

    def insert(self, point: Point, **kwargs: object) -> ServedUpdate:
        return self.update(UpdateRequest.insert(point), **kwargs)  # type: ignore[arg-type]

    def delete(self, point: Point, **kwargs: object) -> ServedUpdate:
        return self.update(UpdateRequest.delete(point), **kwargs)  # type: ignore[arg-type]

    # Async counterparts ----------------------------------------------
    async def aquery(
        self, request: QueryLike, *, deadline: Optional[float] = None
    ) -> ServedQuery:
        """``await``-able read: wraps the submission future for asyncio."""
        return await asyncio.wrap_future(
            self.submit_query(request, deadline=deadline)
        )

    async def aupdate(
        self, request: UpdateRequest, *, deadline: Optional[float] = None
    ) -> ServedUpdate:
        """``await``-able write on the serialized writer lane."""
        return await asyncio.wrap_future(
            self.submit_update(request, deadline=deadline)
        )

    async def ainsert(self, point: Point, **kwargs: object) -> ServedUpdate:
        return await self.aupdate(UpdateRequest.insert(point), **kwargs)  # type: ignore[arg-type]

    async def adelete(self, point: Point, **kwargs: object) -> ServedUpdate:
        return await self.aupdate(UpdateRequest.delete(point), **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Subscription lane: register -> pump on writes -> deliver deltas
    # ------------------------------------------------------------------
    def subscribe(
        self,
        request: Union[SubscribeRequest, RangeQuery],
        *,
        callback: Optional[Callable[[SkylineDelta], None]] = None,
        deadline: Optional[float] = None,
    ) -> ServerSubscription:
        """Register a continuous query; returns the delta handle.

        The handle's initial delta (the current skyline, when the
        request asks for a snapshot) is already enqueued on return.
        Subsequent deltas are derived after each applied write by the
        writer lane, with write-version scoping skipping subscriptions
        whose shards were untouched -- see
        :class:`repro.stream.SubscriptionManager`.  ``deadline`` bounds
        the subscription's *lifetime* in seconds: past it, the next
        delivery attempt cancels it with
        :class:`~repro.serve.errors.DeadlineExceeded`.
        """
        if self._closed:
            raise ServerClosed("server is stopped")
        req = (
            request
            if isinstance(request, SubscribeRequest)
            else SubscribeRequest(rect=request)
        )
        now = time.perf_counter()
        with self._gate.write():
            # repro: calls(SubscriptionManager.register)
            sub, initial = self._subscriptions.register(req)
        handle = ServerSubscription(
            self,
            sub.sub_id,
            req,
            self.config.max_subscription_queue,
            callback=callback,
            deadline_at=self._deadline_at(now, deadline),
        )
        with self._handles_lock:
            self._handles[handle.sub_id] = handle
        # Deliver the initial snapshot outside the handle-table lock so a
        # callback subscriber never runs under it.
        if not initial.empty and handle._push(initial):
            with self._handles_lock:
                self._notified += 1
                self._notify_blocks += initial.report.blocks
        return handle

    def unsubscribe(self, sub_id: int) -> bool:
        """Drop a subscription cleanly; returns whether it was live."""
        return self._cancel(sub_id, None)

    def _cancel(self, sub_id: int, exc: Optional[ServingError]) -> bool:
        with self._handles_lock:
            handle = self._handles.pop(sub_id, None)
        self._subscriptions.unregister(sub_id)
        if handle is None:
            return False
        handle._terminate(exc)
        return True

    def _pump_subscriptions(self) -> None:
        """Derive and deliver deltas after an applied write (writer lane)."""
        with self._handles_lock:
            if not self._handles:
                return
        with self._gate.write():
            # repro: calls(SubscriptionManager.pump)
            deltas = self._subscriptions.pump()
        if deltas:
            self._deliver(deltas)

    def _deliver(self, deltas: Dict[int, SkylineDelta]) -> None:
        now = time.perf_counter()
        with self._handles_lock:
            targets = [
                (sid, self._handles[sid])
                for sid in deltas
                if sid in self._handles
            ]
        for sid, handle in targets:
            if handle.deadline_at is not None and now > handle.deadline_at:
                self.metrics.note_timeout(now - handle.deadline_at)
                self._cancel(
                    sid,
                    DeadlineExceeded(
                        "subscription deadline expired",
                        ServingReport(lane=LANE_NOTIFY, timed_out=True),
                    ),
                )
                continue
            if handle._push(deltas[sid]):
                with self._handles_lock:
                    self._notified += 1
                    self._notify_blocks += deltas[sid].report.blocks
            else:
                # The consumer stopped draining: shed it, like any
                # over-capacity submission.
                self.metrics.note_shed()
                with self._handles_lock:
                    self._subs_shed += 1
                self._cancel(
                    sid,
                    Overloaded(
                        f"subscription queue full "
                        f"({self.config.max_subscription_queue} pending "
                        f"deltas undrained)",
                        ServingReport(lane=LANE_NOTIFY, shed=True),
                    ),
                )

    # ------------------------------------------------------------------
    # Read lane: gather -> batch-execute -> fan out
    # ------------------------------------------------------------------
    def current_gather_window(self) -> float:
        """The gather window now in effect: ``config.gather_window`` while
        the mean read inter-arrival gap is no longer than it (or before
        any estimate exists), else ``0`` -- company arriving further apart
        than the window cannot join a batch inside it."""
        window = self.config.gather_window
        if self._arrival_ewma is None or self._arrival_ewma <= window:
            return window
        return 0.0

    def _observe_arrivals(self, batch: List[_Submission]) -> None:
        """Fold a gathered batch's inter-arrival gaps, each capped at
        :data:`GATHER_GAP_CAP` windows, into the EWMA (dispatcher thread
        only)."""
        cap = GATHER_GAP_CAP * self.config.gather_window
        previous = self._last_arrival
        for arrived_at in sorted(s.enqueued_at for s in batch):
            if previous is not None:
                gap = min(cap, max(0.0, arrived_at - previous))
                self._arrival_ewma = (
                    gap
                    if self._arrival_ewma is None
                    else GATHER_ALPHA * gap
                    + (1 - GATHER_ALPHA) * self._arrival_ewma
                )
            previous = arrived_at
        self._last_arrival = previous

    def _dispatch_loop(self) -> None:
        # Read batches handed to the read-lane executor whose results are
        # still pending.  Dispatcher-thread private, so no lock is needed.
        inflight: List["Future[None]"] = []
        while not self._stop.is_set():
            inflight = [f for f in inflight if not f.done()]
            window = self.current_gather_window()
            if inflight and window > 0:
                # Pipelined gather: while a batch executes, the next
                # window is already open -- anchored at the previous
                # dispatch, not at the next arrival -- so the window's
                # wait runs down *during* execution.  This is where the
                # concurrent read lane's throughput gain over the serial
                # discipline comes from: the serial loop below can only
                # start its window after the inline execution returns,
                # paying window + execution per cycle.
                batch = []
            else:
                # Block for the first read -- bounded, so the stop flag
                # is still seen -- rather than poll an empty queue.
                try:
                    batch = [self._read_queue.get(timeout=_IDLE_POLL_S)]
                except queue.Empty:
                    continue
            horizon = time.perf_counter() + window
            while len(batch) < self.config.max_batch:
                remaining = horizon - time.perf_counter()
                try:
                    if remaining <= 0:
                        batch.append(self._read_queue.get_nowait())
                    else:
                        batch.append(self._read_queue.get(timeout=remaining))
                except queue.Empty:
                    break
            if not batch:
                continue
            self._observe_arrivals(batch)
            if self._read_executor is not None:
                # The executor caps batches in flight at
                # read_concurrency; each runs under the gate's read side
                # against the same pinned write version.
                inflight.append(
                    self._read_executor.submit(self._serve_read_batch, batch)
                )
            else:
                self._serve_read_batch(batch)

    def _expire(self, submission: _Submission, now: float, lane: str) -> bool:
        """Fail a still-queued submission whose deadline has passed."""
        if submission.deadline_at is None or now <= submission.deadline_at:
            return False
        wait = now - submission.enqueued_at
        self.metrics.note_timeout(wait)
        submission.future.set_exception(
            DeadlineExceeded(
                f"deadline expired after {wait * 1000:.1f} ms in the "
                f"{lane} queue",
                ServingReport(lane=lane, queue_wait_s=wait, timed_out=True),
            )
        )
        return True

    def _serve_read_batch(self, batch: List[_Submission]) -> None:
        now = time.perf_counter()
        live = [s for s in batch if not self._expire(s, now, LANE_READ)]
        if not live:
            return
        started = time.perf_counter()
        try:
            with self._gate.read():
                pinned = self._writes_applied
                # The engine shares one execution among identical and
                # nested rectangles; each result's report says which.
                # repro: calls(SkylineEngine.query_batch_shared)
                results, batch_report = self.engine.query_batch_shared(
                    [s.request for s in live]
                )
        except BaseException as exc:
            for submission in live:
                submission.future.set_exception(exc)
            return
        service_s = time.perf_counter() - started
        executed = sum(1 for result in results if not result.report.coalesced)
        self.metrics.note_read_batch(len(live), executed)
        for submission, result in zip(live, results):
            serving = ServingReport(
                lane=LANE_READ,
                queue_wait_s=started - submission.enqueued_at,
                service_s=service_s,
                coalesce_fanin=result.report.coalesce_fanin,
                batch_size=len(live),
                batch_blocks=batch_report.blocks,
                pinned_version=pinned,
            )
            self.metrics.note_served(
                False, serving.queue_wait_s, serving.latency_s
            )
            submission.future.set_result(ServedQuery(result, serving))

    # ------------------------------------------------------------------
    # Write lane: one thread, strictly serialized
    # ------------------------------------------------------------------
    def _writer_loop(self) -> None:
        while not self._stop.is_set():
            try:
                submission = self._write_queue.get(timeout=_IDLE_POLL_S)
            except queue.Empty:
                continue
            if self._expire(submission, time.perf_counter(), LANE_WRITE):
                continue
            started = time.perf_counter()
            try:
                with self._gate.write():
                    # repro: calls(SkylineEngine.update)
                    result = self.engine.update(submission.request)
                    # Bumped before the write side releases, so every
                    # read batch admitted afterwards pins the new version.
                    self._writes_applied += 1
            except BaseException as exc:
                submission.future.set_exception(exc)
                continue
            serving = ServingReport(
                lane=LANE_WRITE,
                queue_wait_s=started - submission.enqueued_at,
                service_s=time.perf_counter() - started,
                batch_blocks=result.report.blocks,
                pinned_version=self._writes_applied,
            )
            self.metrics.note_served(True, serving.queue_wait_s, serving.latency_s)
            submission.future.set_result(ServedUpdate(result, serving))
            # Notify continuous queries about the applied write.  Scope
            # checks make this cheap: only subscriptions overlapping a
            # written shard recompute, the rest are skipped at zero I/O.
            self._pump_subscriptions()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Server metrics plus the engine's own description underneath."""
        with self._gate.read():
            # repro: calls(SkylineEngine.describe)
            engine_status = self.engine.describe()
        with self._handles_lock:
            subscription_status = {
                "active": len(self._handles),
                "notified": self._notified,
                "notify_blocks": self._notify_blocks,
                "shed": self._subs_shed,
            }
        subscription_status.update(self._subscriptions.describe())
        status: Dict[str, object] = {
            "server": {
                "running": self._started and not self._closed,
                "gather_window_s": self.current_gather_window(),
                "configured_gather_window_s": self.config.gather_window,
                "arrival_ewma_s": self._arrival_ewma,
                "max_batch": self.config.max_batch,
                "read_concurrency": self._read_workers,
                "writes_applied": self._writes_applied,
                "backpressure": self.config.backpressure,
                "max_read_queue": self.config.max_read_queue,
                "max_write_queue": MAX_WRITE_QUEUE,
                "read_queue_depth": self._read_queue.qsize(),
                "write_queue_depth": self._write_queue.qsize(),
                "subscriptions": subscription_status,
                **self.metrics.describe(),
            },
        }
        if self.pool is not None:
            status["server"]["worker_pool"] = self.pool.describe()  # type: ignore[index]
        status.update(engine_status)
        return status
