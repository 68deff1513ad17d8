"""External merge sort with exact I/O accounting.

Implements the textbook ``O((n/B) log_{M/B}(n/B))`` multiway merge sort of
Aggarwal--Vitter.  The naive range-skyline baseline (Section 1.2 of the
paper) and several construction paths rely on it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional

from repro.em.file import EMFile
from repro.em.storage import StorageManager


def external_sort(
    storage: StorageManager,
    source: EMFile,
    key: Optional[Callable[[Any], Any]] = None,
) -> EMFile:
    """Sort ``source`` into a new :class:`EMFile` using multiway merge sort.

    The memory budget is taken from ``storage.config``: initial runs hold
    ``M`` records, and each merge pass merges up to ``M/B - 1`` runs.
    """
    key = key or (lambda record: record)
    runs = _build_initial_runs(storage, source, key)
    fan_in = max(2, storage.config.memory_blocks - 1)
    while len(runs) > 1:
        runs = [
            _merge_runs(storage, runs[i : i + fan_in], key)
            for i in range(0, len(runs), fan_in)
        ]
    if not runs:
        empty = EMFile(storage, name=f"{source.name}.sorted")
        empty.close()
        return empty
    return runs[0]


def _build_initial_runs(
    storage: StorageManager, source: EMFile, key: Callable[[Any], Any]
) -> List[EMFile]:
    """Scan the input once, emitting memory-sized sorted runs."""
    memory_records = storage.config.memory_words
    runs: List[EMFile] = []
    buffer: List[Any] = []
    for record in source.scan():
        buffer.append(record)
        if len(buffer) >= memory_records:
            runs.append(_write_run(storage, buffer, key, len(runs), source.name))
            buffer = []
    if buffer:
        runs.append(_write_run(storage, buffer, key, len(runs), source.name))
    return runs


def _write_run(
    storage: StorageManager,
    buffer: List[Any],
    key: Callable[[Any], Any],
    index: int,
    base_name: str,
) -> EMFile:
    buffer.sort(key=key)
    return EMFile.from_records(storage, buffer, name=f"{base_name}.run{index}")


def _merge_runs(
    storage: StorageManager,
    runs: List[EMFile],
    key: Callable[[Any], Any],
) -> EMFile:
    """Merge up to ``M/B - 1`` sorted runs into one longer sorted run."""
    if len(runs) == 1:
        return runs[0]
    output = EMFile(storage, name=f"{runs[0].name}.merged")
    iterators: List[Iterator[Any]] = [run.scan() for run in runs]
    heap: List[Any] = []
    for run_index, iterator in enumerate(iterators):
        _push_next(heap, iterator, run_index, key)
    while heap:
        _, _, record, run_index = heapq.heappop(heap)
        output.append(record)
        _push_next(heap, iterators[run_index], run_index, key)
    output.close()
    return output


_tiebreak = 0


def _push_next(
    heap: List[Any],
    iterator: Iterator[Any],
    run_index: int,
    key: Callable[[Any], Any],
) -> None:
    global _tiebreak
    try:
        record = next(iterator)
    except StopIteration:
        return
    _tiebreak += 1
    heapq.heappush(heap, (key(record), _tiebreak, record, run_index))


def merge_sorted_files(
    storage: StorageManager,
    left: EMFile,
    right: EMFile,
    key: Optional[Callable[[Any], Any]] = None,
) -> EMFile:
    """Merge two already-sorted files in a single linear pass.

    Used by the SABE construction (Section 2.3): merging the x-sorted left
    endpoints with the stream of right endpoints costs ``O(n/B)`` I/Os.
    """
    key = key or (lambda record: record)
    return _merge_runs(storage, [left, right], key)
