"""Persistent per-shard workers keyed by shard *uid*.

The service's default batch executor (:func:`repro.service.batch
.execute_worklists`) runs every worklist on the calling thread.  A
serving runtime executes batches continuously, and several at once, so
this pool keeps one long-lived worker thread per shard **uid** -- the
stable identity that survives topology changes -- and installs itself as
the service's pluggable ``batch_executor``.  Between batches the workers
stay warm (thread, per-worker counters, and the shard machine's buffer
pool they repeatedly drive); across an online split or merge only the
rewritten shards' workers are retired and the children's created,
exactly mirroring how the result cache scopes invalidation to rewritten
uids.

Accounting stays exact because each worklist runs on exactly one worker,
each shard machine charges a private ledger, and nothing is shared
between workers: the pool charges bit-identical totals to the inline
executor, and concurrent read batches never race a shard's counter.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.analysis import sanitize as _sanitize
from repro.analysis.locks import tracked_condition, tracked_lock
from repro.service.batch import ShardAnswer, ShardQueryFn, WorkItem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import SkylineService

# One dispatched unit: one shard's worklist of a read batch, the function
# that answers it, and the future the answers land on.
_Task = Tuple[int, List[WorkItem], ShardQueryFn, "Future"]


class _ShardWorker:
    """One daemon thread bound to one shard uid for the shard's lifetime."""

    def __init__(self, uid: int) -> None:
        self.uid = uid
        self.batches = 0
        self.items = 0
        self._tasks: "list" = []
        self._available = tracked_condition("serve.workers.available")
        self._stopped = False
        self.thread = threading.Thread(
            target=self._loop, name=f"skyserve-shard-{uid}", daemon=True
        )
        self.thread.start()

    def submit(self, task: _Task) -> None:
        with self._available:
            self._tasks.append(task)
            self._available.notify()

    def stop(self) -> None:
        with self._available:
            self._stopped = True
            self._available.notify()

    def _loop(self) -> None:
        while True:
            with self._available:
                while not self._tasks and not self._stopped:
                    self._available.wait()
                if self._stopped and not self._tasks:
                    return
                sid, items, shard_query, future = self._tasks.pop(0)
            try:
                result = [
                    ((position, sid), shard_query(sid, query))
                    for position, query in items
                ]
            except BaseException as exc:  # surfaced on the batch future
                future.set_exception(exc)
                continue
            self.items += len(items)
            self.batches += 1
            future.set_result(result)


class ShardWorkerPool:
    """A uid-keyed pool of persistent shard workers.

    Instances are callables with the executor signature
    ``(worklists, shard_query) -> {(position, sid): answer}`` expected by
    :attr:`repro.service.SkylineService.batch_executor`: the pool *is*
    the fan-out, one dedicated worker per live shard.
    """

    def __init__(self, service: "SkylineService") -> None:
        self.service = service
        self.workers: Dict[int, _ShardWorker] = {}
        self.created = 0
        self.retired = 0
        # Concurrent read batches call sync() from several dispatcher
        # threads at once; the worker table reconciliation must not race.
        self._sync_lock = tracked_lock("serve.workers.sync")

    # ------------------------------------------------------------------
    # Topology tracking
    # ------------------------------------------------------------------
    def sync(self) -> Dict[int, int]:
        """Reconcile workers with the live topology; returns sid -> uid.

        Called at the start of every batch (topology only moves between
        batches: the server's writer lane and read batches are mutually
        exclusive).  Workers for vanished uids are retired; new uids get
        fresh workers; everyone else stays warm.
        """
        with self._sync_lock:
            live = {shard.sid: shard.uid for shard in self.service.shards}
            alive = set(live.values())
            for uid in list(self.workers):
                if uid not in alive:
                    # repro: calls(_ShardWorker.stop)
                    self.workers.pop(uid).stop()
                    self.retired += 1
            for uid in alive:
                if uid not in self.workers:
                    self.workers[uid] = _ShardWorker(uid)
                    self.created += 1
            return live

    # ------------------------------------------------------------------
    # Batch execution (the service's batch_executor hook)
    # ------------------------------------------------------------------
    def __call__(
        self,
        worklists: Dict[int, List[WorkItem]],
        shard_query: ShardQueryFn,
    ) -> Dict[Tuple[int, int], ShardAnswer]:
        """Run each worklist on its shard's worker; returns the answers.

        Waits for every worklist before it returns or re-raises the first
        failure (in shard order): once the call is over, no worker still
        reads a shard for this batch.
        """
        # Batch entry is a declared handoff point: shard ledgers last
        # charged by the caller (build, compaction) may now be charged by
        # the uid-bound workers.
        _sanitize.sync_point()
        uid_of_sid = self.sync()
        futures: List[Future] = []
        for sid in sorted(worklists):
            future: Future = Future()
            # repro: calls(_ShardWorker.submit)
            self.workers[uid_of_sid[sid]].submit(
                (sid, worklists[sid], shard_query, future)
            )
            futures.append(future)
        # exception() blocks until its worklist is done, failed or not.
        errors = [future.exception() for future in futures]
        # And batch exit hands the ledgers back to the caller.
        _sanitize.sync_point()
        for error in errors:
            if error is not None:
                raise error
        results: Dict[Tuple[int, int], ShardAnswer] = {}
        for future in futures:
            results.update(future.result())
        return results

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        for worker in self.workers.values():
            worker.stop()
        self.workers.clear()

    def describe(self) -> Dict[str, object]:
        return {
            "workers": len(self.workers),
            "created": self.created,
            "retired": self.retired,
            "per_worker": {
                uid: {"batches": w.batches, "items": w.items}
                for uid, w in sorted(self.workers.items())
            },
        }
