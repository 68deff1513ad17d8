"""Computing ``Sigma(P)`` with the stack sweep of Section 2.2.

The algorithm sweeps a vertical line left to right over the x-sorted points,
maintaining on a stack the points whose ``leftdom`` has not been met yet
(these are exactly the skyline of the points seen so far).  When the next
point ``p`` is higher than the stack top ``q``, then ``p = leftdom(q)`` and
the segment ``sigma(q) = [x_q, x_p[ x y_q`` is emitted.  Segments are output
in non-decreasing order of their right endpoints, the order the SABE
PPB-tree construction consumes them in, and the whole pass costs ``O(n/B)``
I/Os when the input is an x-sorted :class:`~repro.em.EMFile`.

:func:`sigma_records` is the one sweep.  It runs over ``(x, y, value)``
triples and emits plain ``(x_left, x_right, y, value)`` records, so a
caller that names points by position (the static top-open structure)
builds nothing the cycle collector keeps tracking.  :func:`compute_sigma`
and :func:`compute_sigma_emfile` are views of the same sweep as
:class:`~repro.segments.segment.HorizontalSegment` objects.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.point import Point
from repro.em.file import EMFile
from repro.em.storage import StorageManager
from repro.segments.segment import HorizontalSegment

#: ``(x_left, x_right, y, value)``: the segment ``[x_left, x_right[ x y``
#: of the point ``value`` stands for.
SigmaRecord = Tuple[float, float, float, Any]


def sigma_records(items: Iterable[Tuple[float, float, Any]]) -> Iterator[SigmaRecord]:
    """``Sigma(P)`` of ``(x, y, value)`` triples sorted by increasing x.

    Yields one record per triple, bounded records in non-decreasing order
    of ``x_right`` (ties broken by lower y first), then the unbounded
    records of the points left on the stack.  Raises ``ValueError`` when
    x decreases, or when a segment would have non-positive length: two
    points share an x and the later one is higher.
    """
    stack: List[Tuple[float, float, Any]] = []
    previous_x = -math.inf
    for item in items:
        x, y, _ = item
        if x < previous_x:
            raise ValueError("points must be sorted by increasing x-coordinate")
        previous_x = x
        while stack and stack[-1][1] < y:
            x_left, y_left, value = stack.pop()
            if x <= x_left:
                raise ValueError(f"segment must have positive length: [{x_left}, {x}[")
            yield (x_left, x, y_left, value)
        stack.append(item)
    # Remaining stack entries are maximal points: unbounded segments.
    for x_left, y_left, value in stack:
        if x_left == math.inf:
            raise ValueError(f"segment must have positive length: [{x_left}, inf[")
        yield (x_left, math.inf, y_left, value)


def compute_sigma(points_sorted_by_x: Sequence[Point]) -> List[HorizontalSegment]:
    """In-memory ``Sigma(P)`` of points already sorted by increasing x.

    Returns segments ordered by non-decreasing right-endpoint x-coordinate
    (ties broken by lower y first), mirroring the emission order of the
    sweep.
    """
    return [
        HorizontalSegment(x_left, x_right, y, source=point)
        for x_left, x_right, y, point in sigma_records(
            (p.x, p.y, p) for p in points_sorted_by_x
        )
    ]


def compute_sigma_emfile(
    storage: StorageManager, points_file: EMFile
) -> Tuple[EMFile, int]:
    """``Sigma(P)`` of an x-sorted point file, with I/O accounting.

    Streams the input once and writes the segments to a fresh
    :class:`~repro.em.EMFile`; the stack lives in memory, as in the paper
    (its size is bounded by the current skyline size, but only its top is
    ever inspected, so keeping it in memory is the standard convention --
    spilling it to a disk stack would preserve the O(n/B) bound).

    Returns the output file and the number of segments written.
    """
    output = EMFile(storage, name=f"{points_file.name}.sigma")
    count = 0
    for x_left, x_right, y, point in sigma_records(
        (p.x, p.y, p) for p in points_file.scan()
    ):
        output.append(HorizontalSegment(x_left, x_right, y, source=point))
        count += 1
    output.close()
    return output, count


def leftdom_map(points: Iterable[Point]) -> Dict[Point, Optional[Point]]:
    """``leftdom(p)`` for every point, via the segment reduction.

    The left dominator of a point is the right endpoint of its segment.
    Points whose segment is unbounded have no dominator (``None``).
    """
    pts = sorted(points, key=lambda p: p.x)
    mapping: Dict[Point, Optional[Point]] = {}
    by_x: Dict[float, Point] = {p.x: p for p in pts}
    for segment in compute_sigma(pts):
        source = segment.source
        assert source is not None
        if segment.is_unbounded:
            mapping[source] = None
        else:
            mapping[source] = by_x[segment.x_right]
    return mapping
