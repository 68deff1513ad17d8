"""Span tracing installed from outside the program.

:class:`Tracer` replaces public functions of each layer with timing
wrappers for the length of one traced pass and restores them after; no
file of the program is edited.  Every wrapper records, per span name,
the call count, the inclusive time, the *self* time (inclusive minus
the time of spans it called on the same thread), the longest single
call, and optionally a ledger delta read from the call's receiver.

Spans nest per thread.  Work a span hands to another thread (the
serving tier's shard workers) is that thread's own span, and the
handing-off span's self time is its wait for it, so self times add up
to the busy time of each thread.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.em.cache import BufferPool
from repro.engine.backends import ShardedServiceBackend
from repro.engine.engine import SkylineEngine
from repro.serve.workers import ShardWorkerPool
from repro.service import service as service_module
from repro.service.durability.wal import WriteAheadLog
from repro.service.lsm.levels import LevelManager
from repro.service.service import SkylineService
from repro.service.shard import Shard
from repro.service.topology import TopologyManager
from repro.stream.subscriptions import SubscriptionManager
from repro.structures.dynamic_topopen import DynamicTopOpenStructure
from repro.structures.foursided import FourSidedStructure
from repro.structures.topopen_static import StaticTopOpenStructure

Probe = Callable[[Any], int]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    ledger: int = 0

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.max_s = max(self.max_s, other.max_s)
        self.ledger += other.ledger


class Tracer:
    """Install, collect and remove span wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, SpanStats]] = []
        self._tables_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _table(self) -> Dict[str, SpanStats]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {}
            self._local.table = table
            self._local.stack = []
            with self._tables_lock:
                self._tables.append(table)
        return table

    def wrap(
        self, owner: object, attr: str, name: str, probe: Optional[Probe] = None
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``probe(receiver)`` -- the first positional argument -- is read
        before and after the call; the difference accumulates as the
        span's ledger delta.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            table = tracer._table()
            stack: List[Tuple[str, List[float]]] = tracer._local.stack
            # A span re-entered under its own name (a WAL append that
            # group-commits, say) is counted once: its calls, inclusive
            # time and ledger belong to the outermost instance.
            outer = all(entry[0] != name for entry in stack)
            frame = [0.0]
            stack.append((name, frame))
            before = probe(args[0]) if probe is not None and outer else 0
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1][0] += elapsed
                stats = table.get(name)
                if stats is None:
                    stats = table[name] = SpanStats()
                stats.self_s += elapsed - frame[0]
                if outer:
                    stats.calls += 1
                    stats.total_s += elapsed
                    stats.max_s = max(stats.max_s, elapsed)
                    if probe is not None:
                        stats.ledger += probe(args[0]) - before

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count_hits(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` as ``name.hit`` / ``name.miss``,
        by whether the receiver's ``hits`` counter moved, without timing
        them (for per-block calls, where a span would cost more than the
        call)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def counted(receiver: Any, *args: Any, **kwargs: Any) -> Any:
            before = receiver.hits
            result = original(receiver, *args, **kwargs)
            table = tracer._table()
            key = name + (".hit" if receiver.hits != before else ".miss")
            stats = table.get(key)
            if stats is None:
                stats = table[key] = SpanStats()
            stats.calls += 1
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans(self) -> Dict[str, SpanStats]:
        merged: Dict[str, SpanStats] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, stats in list(table.items()):
                merged.setdefault(name, SpanStats()).add(stats)
        return merged


class GcMonitor:
    """Full (generation-2) collections and their pauses, via
    ``gc.callbacks``.  Installed in every run, traced or not."""

    def __init__(self) -> None:
        self.count = 0
        self.pause_max_s = 0.0
        self.pause_total_s = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            pause = time.perf_counter() - self._started
            self._started = None
            self.count += 1
            self.pause_total_s += pause
            self.pause_max_s = max(self.pause_max_s, pause)

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the metrics name."""
    def engine_reads(engine: Any) -> int:
        return engine.backend.snapshot().reads

    def wal_blocks(wal: Any) -> int:
        return wal.store.stats.total

    # serve -> engine -> backend
    tracer.wrap(SkylineEngine, "query", "engine.query", engine_reads)
    tracer.wrap(SkylineEngine, "query_batch_shared", "engine.query_batch_shared", engine_reads)
    tracer.wrap(SkylineEngine, "update", "engine.update")
    tracer.wrap(ShardedServiceBackend, "plan", "engine.plan")
    # service: batch execution, shard fan-out, tower components, kernels
    tracer.wrap(SkylineService, "query_many_traced", "service.query_many_traced")
    tracer.wrap(SkylineService, "insert", "service.insert")
    tracer.wrap(SkylineService, "delete", "service.delete")
    tracer.wrap(SkylineService, "compact", "service.compact")
    tracer.wrap(SkylineService, "_component_query", "lsm.component_query")
    tracer.wrap(ShardWorkerPool, "__call__", "service.executor")
    tracer.wrap(service_module, "execute_worklists", "service.executor")
    tracer.wrap(service_module, "merge_shard_skylines", "merge.kernel")
    tracer.wrap(service_module, "merge_component_skylines", "merge.kernel")
    tracer.wrap(Shard, "query", "shard.query")
    # the paper's structures
    tracer.wrap(FourSidedStructure, "query_four_sided", "structures.foursided")
    tracer.wrap(StaticTopOpenStructure, "query_top_open", "structures.topopen")
    tracer.wrap(DynamicTopOpenStructure, "query_top_open", "structures.topopen")
    # write side
    tracer.wrap(LevelManager, "tick", "lsm.tick")
    tracer.wrap(LevelManager, "seal", "lsm.seal")
    tracer.wrap(TopologyManager, "maybe_rebalance", "topology.step")
    for method in ("log_insert", "log_delete", "log_flush", "log_compact",
                   "log_drain", "log_split", "log_merge", "log_fold", "flush"):
        tracer.wrap(WriteAheadLog, method, "durability.wal", wal_blocks)
    tracer.wrap(SubscriptionManager, "pump", "stream.pump")
    # em: buffer-pool hits, counted per block access
    tracer.count_hits(BufferPool, "get", "em.pool")
