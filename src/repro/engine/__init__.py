"""repro.engine -- the unified request/response front door of the stack.

One typed API over every deployment shape the library supports::

    from repro.engine import QueryRequest, SkylineEngine

    engine = SkylineEngine.sharded(points, shard_count=8)   # or .local(points)
    plan = engine.explain(QueryRequest(rect))    # structure + paper bound, no I/O
    result = engine.query(QueryRequest(rect, limit=10))
    result.points                                # the page, in x-order
    result.report.blocks                         # this request's ledger delta
    result.report.predicted_io                   # the bound at the observed k

Backends are pluggable (:class:`Backend` is a protocol):
:class:`LocalIndexBackend` serves from one
:class:`repro.RangeSkylineIndex` on a single simulated machine, and
:class:`ShardedServiceBackend` serves from a
:class:`repro.service.SkylineService` (sharding, batching, result cache,
log-merge updates, durability -- ``SkylineEngine.open(store)`` recovers a
crashed durable service behind the same API).  Reports carry each
request's exact block-transfer ledger delta, so summing them reproduces
the backend ledger total -- see :mod:`repro.engine.engine`.
"""

from repro.engine.backends import (
    Backend,
    LocalIndexBackend,
    QueryTrace,
    ShardedServiceBackend,
)
from repro.engine.engine import SkylineEngine
from repro.engine.plan import (
    BOUND_DYNAMIC_EASY,
    BOUND_FOUR_SIDED,
    BOUND_STATIC_EASY,
    BOUND_UPDATE_LEVELED,
    QueryPlan,
    ScopePlan,
    amortized_update_io,
    bound_for,
)
from repro.engine.report import (
    ExecutionReport,
    QueryResult,
    SkylineDelta,
    StreamPage,
    UpdateResult,
)
from repro.engine.requests import (
    CONSISTENCY_LEVELS,
    OP_DELETE,
    OP_INSERT,
    QueryRequest,
    StreamRequest,
    SubscribeRequest,
    UpdateRequest,
)

__all__ = [
    "SkylineEngine",
    "Backend",
    "LocalIndexBackend",
    "ShardedServiceBackend",
    "QueryTrace",
    "QueryRequest",
    "UpdateRequest",
    "StreamRequest",
    "SubscribeRequest",
    "QueryResult",
    "UpdateResult",
    "StreamPage",
    "SkylineDelta",
    "ExecutionReport",
    "QueryPlan",
    "ScopePlan",
    "bound_for",
    "BOUND_STATIC_EASY",
    "BOUND_DYNAMIC_EASY",
    "BOUND_FOUR_SIDED",
    "BOUND_UPDATE_LEVELED",
    "amortized_update_io",
    "CONSISTENCY_LEVELS",
    "OP_INSERT",
    "OP_DELETE",
]
