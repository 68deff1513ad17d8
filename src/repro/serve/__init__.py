"""Async serving runtime in front of :class:`repro.engine.SkylineEngine`.

The engine answers one caller at a time; this package turns it into a
service for many.  :class:`SkylineServer` accepts submissions from sync
callers and asyncio coroutines, gathers reads within a small window
into one engine batch (where identical and nested rectangles across
callers share one computation), runs each batch's per-shard worklists on
persistent uid-keyed workers (:class:`ShardWorkerPool`), serializes
writes on a dedicated lane, and
applies admission control -- bounded queues with block or shed
backpressure plus per-request deadlines -- so tail latency stays bounded
past saturation.  Every response pairs the engine's block-exact
:class:`~repro.engine.report.ExecutionReport` with a
:class:`ServingReport`; ``server.describe()`` reports throughput,
latency percentiles, queue depths, shed rate and the worker-pool state.

>>> from repro.engine import SkylineEngine
>>> from repro.serve import SkylineServer
>>> engine = SkylineEngine.sharded(points)
>>> with SkylineServer(engine) as server:
...     served = server.query(RangeQuery(x_hi=0.5))
...     served.points, served.serving.queue_wait_s
"""

from repro.serve.config import BACKPRESSURE_POLICIES, ServerConfig
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    ServerClosed,
    ServingError,
)
from repro.serve.metrics import ServerMetrics, percentile
from repro.serve.report import (
    LANE_NOTIFY,
    LANE_READ,
    LANE_WRITE,
    ServedQuery,
    ServedUpdate,
    ServingReport,
)
from repro.serve.server import ServerSubscription, SkylineServer
from repro.serve.workers import ShardWorkerPool

__all__ = [
    "BACKPRESSURE_POLICIES",
    "DeadlineExceeded",
    "LANE_NOTIFY",
    "LANE_READ",
    "LANE_WRITE",
    "Overloaded",
    "ServedQuery",
    "ServedUpdate",
    "ServerClosed",
    "ServerConfig",
    "ServerMetrics",
    "ServerSubscription",
    "ServingError",
    "ServingReport",
    "ShardWorkerPool",
    "SkylineServer",
    "percentile",
]
