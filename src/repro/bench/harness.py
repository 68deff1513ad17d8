"""Measurement helpers shared by all benchmarks."""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.em.config import EMConfig
from repro.em.storage import StorageManager
from repro.service import SkylineService


def make_storage(block_size: int = 64, memory_blocks: int = 32) -> StorageManager:
    """A fresh simulated machine for one benchmark configuration."""
    return StorageManager(EMConfig(block_size=block_size, memory_blocks=memory_blocks))


def space_amp(service: SkylineService) -> float:
    """Blocks in use per live point, in units of ``1/B``: ``blocks_in_use *
    B / live points``, as perfbench reports it."""
    blocks = service.blocks_in_use() * service.config.block_size
    return round(blocks / max(1, len(service)), 3)


def measure_build(
    storage: StorageManager, builder: Callable[[], object]
) -> Tuple[object, int]:
    """Build a structure and return it with the I/Os the construction charged."""
    before = storage.snapshot()
    structure = builder()
    delta = storage.snapshot() - before
    return structure, delta.total


def measure_queries(
    storage: StorageManager,
    structure,
    queries: Sequence[RangeQuery],
    cold_cache: bool = True,
) -> Tuple[float, float]:
    """Average (I/Os, output size) per query.

    With ``cold_cache`` the buffer pool is dropped before each query, so the
    figure reflects the worst-case cost the paper's bounds describe rather
    than cross-query cache reuse.
    """
    total_io = 0
    total_k = 0
    for query in queries:
        if cold_cache:
            storage.drop_cache()
        before = storage.snapshot()
        result = structure.query(query)
        total_io += (storage.snapshot() - before).total
        total_k += len(result)
    count = max(1, len(queries))
    return total_io / count, total_k / count


def average_query_ios(
    storage: StorageManager,
    run_query: Callable[[RangeQuery], List[Point]],
    queries: Sequence[RangeQuery],
    cold_cache: bool = True,
) -> Tuple[float, float]:
    """Like :func:`measure_queries` but for a bare query callable."""
    total_io = 0
    total_k = 0
    for query in queries:
        if cold_cache:
            storage.drop_cache()
        before = storage.snapshot()
        result = run_query(query)
        total_io += (storage.snapshot() - before).total
        total_k += len(result)
    count = max(1, len(queries))
    return total_io / count, total_k / count


def measure_updates(
    storage: StorageManager,
    apply_update: Callable[[Point], None],
    points: Iterable[Point],
    cold_cache: bool = False,
) -> float:
    """Average I/Os per update over a stream of points."""
    total_io = 0
    count = 0
    for point in points:
        if cold_cache:
            storage.drop_cache()
        before = storage.snapshot()
        apply_update(point)
        total_io += (storage.snapshot() - before).total
        count += 1
    return total_io / max(1, count)
