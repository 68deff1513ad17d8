"""Building the PPB-tree over ``Sigma(P)`` (Section 2.3).

The paper's SABE construction exploits that, because ``Sigma(P)`` is nesting
and monotonic, every update of the sweep happens at the *leftmost* leaf of
the current snapshot B-tree, so that leaf (and the path above it) can be
kept buffered in memory and located for free.  We realise the same effect
through the buffer pool: the sweep inserts a segment at its left endpoint
and deletes it at its right endpoint, and since all these updates touch the
same (leftmost) root-to-leaf path, the path stays resident and the measured
construction cost is dominated by the ``O(n/B)`` block creations --
the linear behaviour Theorem 1 claims.  ``build_segment_ppbtree`` can also
be run with a cold cache per update to exhibit the ``O(n log_B n)`` cost of
the classic construction, which the SABE benchmark compares against.

Both builds consume ``Sigma(P)`` records ``(x_left, x_right, y, value)``
(see :func:`repro.segments.reduction.sigma_records`) and store ``value``
under key ``y``: the static top-open structure stores a point's position,
:func:`build_segment_ppbtree` the segment itself.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Any, Iterable, Iterator, List, Tuple

from repro.em.storage import StorageManager
from repro.ppbtree.ppbtree import MultiversionBTree
from repro.segments.reduction import SigmaRecord
from repro.segments.segment import HorizontalSegment

Event = Tuple[float, int, Any]


def sweep_events(segments: Iterable[HorizontalSegment]) -> List[Event]:
    """The sorted endpoint event list of the sweep.

    Each event is ``(x, kind, segment)`` with ``kind`` 0 for a deletion
    (right endpoint) and 1 for an insertion (left endpoint); deletions sort
    before insertions at equal x so a point's dominated predecessors leave
    the snapshot before its own segment enters.  Events are ordered by
    ``(x, kind, y)``, ties kept in input order.
    """
    return [
        (x, kind, record[3])
        for x, kind, record in _iter_events(_segment_records(segments))
    ]


def _iter_events(records: Iterable[SigmaRecord]) -> Iterator[Event]:
    """:func:`sweep_events` of records as a stream: insertions sorted by
    left endpoint and deletions by right endpoint, merged with deletions
    first at equal x.

    Both sorts are stable, so the order is exactly the one a single sort of
    all events by ``(x, kind, y)`` gives, without holding an event tuple
    per endpoint for the whole sweep.
    """
    records = list(records)
    inserts = sorted(records, key=itemgetter(0, 2))
    deletes = sorted(
        (r for r in records if not math.isinf(r[1])), key=itemgetter(1, 2)
    )
    return heapq.merge(
        ((r[1], 0, r) for r in deletes),
        ((r[0], 1, r) for r in inserts),
        key=itemgetter(0, 1),
    )


def build_sigma_ppbtree(
    storage: StorageManager,
    records: Iterable[SigmaRecord],
    cold_cache: bool = False,
) -> MultiversionBTree:
    """Build the PPB-tree of ``Sigma(P)`` records, keyed on y.

    With ``cold_cache`` the buffer pool is dropped before every update,
    which reproduces the I/O behaviour of the classic (non-SABE)
    construction the paper compares against.
    """
    tree = MultiversionBTree(storage)
    for x, kind, (_, _, y, value) in _iter_events(records):
        if cold_cache:
            storage.drop_cache()
        if kind == 1:
            tree.insert(y, value, version=x)
        else:
            tree.delete(y, version=x)
    return tree


def build_segment_ppbtree(
    storage: StorageManager,
    segments: Iterable[HorizontalSegment],
    cold_cache: bool = False,
) -> MultiversionBTree:
    """:func:`build_sigma_ppbtree` over segments, each stored as its own
    record's value."""
    return build_sigma_ppbtree(storage, _segment_records(segments), cold_cache)


def _segment_records(segments: Iterable[HorizontalSegment]) -> List[SigmaRecord]:
    return [(s.x_left, s.x_right, s.y, s) for s in segments]
