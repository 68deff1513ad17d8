"""Batch execution: per-shard worklists in locality order.

``query_many`` work is regrouped from *per-query* to *per-shard*: every
(query, shard) pair the router produces is appended to the owning shard's
worklist, each worklist is sorted by (variant, x_lo, y_lo) so consecutive
sub-queries walk nearby root-to-leaf paths of the same structure and reuse
warm buffer-pool frames, and then the worklists execute.  The default
executor, :func:`execute_worklists`, runs them one after another on the
calling thread; the serving tier installs its persistent uid-keyed
:class:`~repro.serve.workers.ShardWorkerPool` instead, which runs each
worklist on its shard's dedicated worker.  Either way each shard's
worklist runs on exactly one thread, and each shard owns its buffer pool
*and* its private :class:`~repro.em.counters.IOStats` ledger, so the two
executors charge bit-identical totals (asserted by ``tests/test_serve.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.core.point import Point
from repro.core.queries import RangeQuery, classify

# One unit of shard-local work: the index of the query in the caller's batch
# plus the query itself.
WorkItem = Tuple[int, RangeQuery]
# One shard-local answer: the local skyline plus whether a tombstone forced
# the shard to rescan its resident points (computed once, here, and surfaced
# through the service's per-query traces).
ShardAnswer = Tuple[List[Point], bool]
ShardQueryFn = Callable[[int, RangeQuery], ShardAnswer]
# The pluggable batch-executor protocol (``SkylineService.batch_executor``):
# anything with execute_worklists' signature can run the per-shard fan-out,
# e.g. the serving tier's persistent uid-keyed worker pool.
BatchExecutor = Callable[
    [Dict[int, List[WorkItem]], ShardQueryFn],
    Dict[Tuple[int, int], ShardAnswer],
]


def build_worklists(
    indexed_queries: Sequence[WorkItem],
    shard_ids_by_position: Mapping[int, Sequence[int]],
) -> Dict[int, List[WorkItem]]:
    """Group a query batch into per-shard worklists in locality order.

    ``shard_ids_by_position`` carries the router's (already computed)
    overlapping-shard list for every query position, so routing happens
    exactly once per query.
    """
    worklists: Dict[int, List[WorkItem]] = {}
    for position, query in indexed_queries:
        for sid in shard_ids_by_position[position]:
            worklists.setdefault(sid, []).append((position, query))
    for items in worklists.values():
        items.sort(key=lambda item: (classify(item[1]), item[1].x_lo, item[1].y_lo))
    return worklists


def execute_worklists(
    worklists: Dict[int, List[WorkItem]],
    shard_query: ShardQueryFn,
) -> Dict[Tuple[int, int], ShardAnswer]:
    """Run every worklist on the calling thread, shard by shard; returns
    ``(query position, sid) -> local answer``."""
    return {
        (position, sid): shard_query(sid, query)
        for sid in sorted(worklists)
        for position, query in worklists[sid]
    }
