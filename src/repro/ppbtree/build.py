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
"""

from __future__ import annotations

import heapq
import math
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, List, Tuple

from repro.em.storage import StorageManager
from repro.ppbtree.ppbtree import MultiversionBTree
from repro.segments.segment import HorizontalSegment

Event = Tuple[float, int, HorizontalSegment]


def sweep_events(segments: Iterable[HorizontalSegment]) -> List[Event]:
    """The sorted endpoint event list of the sweep.

    Each event is ``(x, kind, segment)`` with ``kind`` 0 for a deletion
    (right endpoint) and 1 for an insertion (left endpoint); deletions sort
    before insertions at equal x so a point's dominated predecessors leave
    the snapshot before its own segment enters.  Events are ordered by
    ``(x, kind, y)``, ties kept in input order.
    """
    return list(_iter_events(segments))


def _iter_events(segments: Iterable[HorizontalSegment]) -> Iterator[Event]:
    """:func:`sweep_events` as a stream: insertions sorted by left endpoint
    and deletions by right endpoint, merged with deletions first at equal x.

    Both sorts are stable, so the order is exactly the one a single sort of
    all events by ``(x, kind, y)`` gives, without holding an event tuple
    per endpoint for the whole sweep.
    """
    segments = list(segments)
    inserts = sorted(segments, key=attrgetter("x_left", "y"))
    deletes = sorted(
        (s for s in segments if not math.isinf(s.x_right)),
        key=attrgetter("x_right", "y"),
    )
    return heapq.merge(
        ((s.x_right, 0, s) for s in deletes),
        ((s.x_left, 1, s) for s in inserts),
        key=itemgetter(0, 1),
    )


def build_segment_ppbtree(
    storage: StorageManager,
    segments: Iterable[HorizontalSegment],
    cold_cache: bool = False,
) -> MultiversionBTree:
    """Build the PPB-tree of ``Sigma(P)`` keyed on segment y-coordinate.

    With ``cold_cache`` the buffer pool is dropped before every update,
    which reproduces the I/O behaviour of the classic (non-SABE)
    construction the paper compares against.
    """
    tree = MultiversionBTree(storage)
    for x, kind, segment in _iter_events(segments):
        if cold_cache:
            storage.drop_cache()
        if kind == 1:
            tree.insert(segment.y, segment, version=x)
        else:
            tree.delete(segment.y, version=x)
    return tree
