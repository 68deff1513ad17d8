"""Columnar (struct-of-arrays) point kernels for the query hot path.

The ledger already charges the paper's block-transfer costs; this module
attacks the orthogonal axis -- *seconds*.  A :class:`PointColumns` holds
a point set as parallel x/y/ident arrays (numpy ``float64`` columns when
numpy is importable, stdlib ``array('d')`` otherwise), and the kernels
below replace the per-object hot loops of the merge path:

* :func:`merge_skyline_sources` -- the decreasing-x running-max-y sweep
  of :func:`repro.service.merge.merge_component_skylines`, run as one
  argsort plus one vectorized prefix-max scan over the union's columns
  instead of a lambda-keyed sort of ``Point`` objects;
* :func:`sweep_concatenated` -- the same sweep specialised to inputs
  already in increasing-x order (the x-disjoint per-shard merge), which
  needs no sort at all: one suffix-max scan;
* :func:`filter_rect` / :func:`x_window` -- vectorized in-rectangle
  filtering over x-sorted columns (bisect the x-window, mask the rest).

``Point`` objects are materialised only at the response boundary: a
``PointColumns`` built from an existing point list keeps the object
references, so kernels return the *original* objects by index -- results
are identical to the object path's, not merely equal.

Everything here is pure in-memory compute over already-resident data.
No kernel touches a :class:`~repro.em.disk.DiskModel`, a
:class:`~repro.em.storage.StorageManager` or an
:class:`~repro.em.counters.IOStats` ledger, so there is nothing to
charge and nothing for ``tools/reprolint``'s uncharged-I/O pass to flag
-- the convention for new fast paths is that they either charge a ledger
or stay off the block-transfer APIs entirely (see DESIGN.md, "Columnar
kernels and the charging boundary").

numpy stays an *optional* extra (see ``pyproject.toml``): the pure-python
``array``-module fallback is selected automatically when numpy is not
importable, or forced with ``REPRO_NO_NUMPY=1`` (the CI leg that proves
tier-1 passes without numpy sets it explicitly).
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.point import Point

_np: Optional[Any]
if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:  # pragma: no branch
    try:
        import numpy as _np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
        _np = None

#: Whether the numpy backend is active (``False`` under ``REPRO_NO_NUMPY=1``
#: or when numpy is simply not installed).
HAVE_NUMPY: bool = _np is not None

#: Below this many candidates the object-path loop beats kernel setup
#: overhead (array extraction, numpy dispatch), so the kernels fall back
#: to the plain scan.  Answers are identical either way.
SMALL_MERGE_CUTOFF = 48


def backend_name() -> str:
    """The active column backend: ``"numpy"`` or ``"python-array"``."""
    return "numpy" if HAVE_NUMPY else "python-array"


class PointColumns:
    """An immutable struct-of-arrays view of a point sequence.

    ``xs``/``ys`` are parallel coordinate columns; ``idents`` the parallel
    payload column.  When built :meth:`from_points`, the original objects
    are retained so :meth:`point_at` returns *the same* ``Point``
    instances the object path would -- materialisation is a list index,
    not an object construction.
    """

    __slots__ = ("xs", "ys", "idents", "_points")

    def __init__(
        self,
        xs: Any,
        ys: Any,
        idents: Sequence[Optional[int]],
        points: Optional[Sequence[Point]] = None,
    ) -> None:
        self.xs = xs
        self.ys = ys
        self.idents = idents
        self._points = points

    @classmethod
    def from_points(cls, points: Sequence[Point]) -> "PointColumns":
        """Columnise ``points`` (one attribute pass; objects retained)."""
        n = len(points)
        if HAVE_NUMPY:
            assert _np is not None
            xs = _np.fromiter((p.x for p in points), dtype=_np.float64, count=n)
            ys = _np.fromiter((p.y for p in points), dtype=_np.float64, count=n)
        else:
            xs = array("d", (p.x for p in points))
            ys = array("d", (p.y for p in points))
        idents = [p.ident for p in points]
        return cls(xs, ys, idents, points)

    def __len__(self) -> int:
        return len(self.xs)

    def point_at(self, index: int) -> Point:
        """The ``index``-th point: the retained original when available,
        a freshly materialised ``Point`` otherwise."""
        if self._points is not None:
            return self._points[index]
        return Point(float(self.xs[index]), float(self.ys[index]), self.idents[index])

    def take(self, indices: Sequence[int]) -> List[Point]:
        """Materialise the given row indices, in the given order."""
        pts = self._points
        if pts is not None:
            return [pts[i] for i in indices]
        return [self.point_at(i) for i in indices]

    def to_points(self) -> List[Point]:
        """The whole column set as a point list."""
        return self.take(range(len(self)))

    # -- x-sorted helpers ----------------------------------------------
    def bisect_x_left(self, x: float) -> int:
        """``bisect_left`` on the (x-sorted) x column."""
        if HAVE_NUMPY:
            assert _np is not None
            return int(_np.searchsorted(self.xs, x, side="left"))
        return bisect_left(self.xs, x)

    def bisect_x_right(self, x: float) -> int:
        """``bisect_right`` on the (x-sorted) x column."""
        if HAVE_NUMPY:
            assert _np is not None
            return int(_np.searchsorted(self.xs, x, side="right"))
        return bisect_right(self.xs, x)


#: What the merge kernels accept per source: a plain point sequence or an
#: already-columnised set.
ColumnsLike = Union[PointColumns, Sequence[Point]]


def _source_points(source: ColumnsLike) -> Sequence[Point]:
    if isinstance(source, PointColumns):
        return source.to_points()
    return source


def _object_sweep(sources: Sequence[ColumnsLike]) -> List[Point]:
    """The reference object-path sweep (also the small-input fast path)."""
    candidates = [p for source in sources for p in _source_points(source)]
    candidates.sort(key=lambda p: (-p.x, -p.y))
    best_y = float("-inf")
    kept: List[Point] = []
    for point in candidates:
        if point.y > best_y:
            kept.append(point)
            best_y = point.y
    kept.reverse()
    return kept


def merge_skyline_sources(sources: Sequence[ColumnsLike]) -> List[Point]:
    """Skyline of the union of ``sources`` (arbitrary, overlapping
    x-ranges), sorted by increasing x.

    The vectorized form of the decreasing-x running-max-y sweep: one
    argsort of the concatenated columns by ``(x, y)`` (reversed, so the
    scan runs in decreasing x with decreasing-y tie order), one prefix-max
    over the permuted y column, one boolean gather.  Identical answers to
    the object path by construction; only seconds move.
    """
    total = sum(len(s) for s in sources)
    if total < SMALL_MERGE_CUTOFF or not HAVE_NUMPY:
        return _object_sweep(sources)
    assert _np is not None
    xs = _np.empty(total, dtype=_np.float64)
    ys = _np.empty(total, dtype=_np.float64)
    all_points: List[Point] = []
    offset = 0
    for source in sources:
        n = len(source)
        if n == 0:
            continue
        if isinstance(source, PointColumns):
            xs[offset:offset + n] = source.xs
            ys[offset:offset + n] = source.ys
            pts = source._points
            if pts is not None:
                all_points.extend(pts)
            else:
                all_points.extend(source.to_points())
        else:
            xs[offset:offset + n] = _np.fromiter(
                (p.x for p in source), dtype=_np.float64, count=n
            )
            ys[offset:offset + n] = _np.fromiter(
                (p.y for p in source), dtype=_np.float64, count=n
            )
            all_points.extend(source)
        offset += n
    # Ascending (x, y) reversed == descending x with descending-y ties:
    # exactly the object path's sort key (-x, -y).
    order = _np.lexsort((ys, xs))[::-1]
    y_sorted = ys[order]
    running = _np.maximum.accumulate(y_sorted)
    keep = _np.empty(total, dtype=bool)
    keep[0] = True
    # Strict survivor rule: y must exceed the max among strictly-larger x
    # (and, on x-ties, among same-x candidates already seen with larger y
    # -- which dominate identically, so dropping them matches the object
    # path's behaviour exactly).
    keep[1:] = y_sorted[1:] > running[:-1]
    kept_desc = order[keep]
    return [all_points[i] for i in kept_desc[::-1].tolist()]


def sweep_concatenated(parts: Sequence[Sequence[Point]]) -> List[Point]:
    """Skyline sweep over parts whose concatenation is increasing-x sorted
    (the x-disjoint per-shard merge): no sort, one suffix-max scan.

    A candidate survives iff its y strictly exceeds the maximum y of
    every candidate to its right -- the same strict rule as
    :func:`merge_skyline_sources`, exploiting that shard results arrive
    x-sorted and x-disjoint in shard order.
    """
    total = sum(len(part) for part in parts)
    if total == 0:
        return []
    if total < SMALL_MERGE_CUTOFF or not HAVE_NUMPY:
        best_y = float("-inf")
        kept_rev: List[Point] = []
        for part in reversed(parts):
            for point in reversed(part):
                if point.y > best_y:
                    kept_rev.append(point)
                    best_y = point.y
        kept_rev.reverse()
        return kept_rev
    assert _np is not None
    ys = _np.empty(total, dtype=_np.float64)
    all_points: List[Point] = []
    offset = 0
    for part in parts:
        n = len(part)
        if n == 0:
            continue
        ys[offset:offset + n] = _np.fromiter(
            (p.y for p in part), dtype=_np.float64, count=n
        )
        all_points.extend(part)
        offset += n
    suffix = _np.maximum.accumulate(ys[::-1])[::-1]
    keep = _np.empty(total, dtype=bool)
    keep[-1] = True
    keep[:-1] = ys[:-1] > suffix[1:]
    return [all_points[i] for i in _np.nonzero(keep)[0].tolist()]


def x_window(columns: PointColumns, x_lo: float, x_hi: float) -> Tuple[int, int]:
    """Index range ``[lo, hi)`` of points with ``x_lo <= x <= x_hi`` in an
    x-sorted column set (one bisect per side, no scan)."""
    return columns.bisect_x_left(x_lo), columns.bisect_x_right(x_hi)


def filter_rect(
    columns: PointColumns,
    x_lo: float,
    x_hi: float,
    y_lo: float,
    y_hi: float,
) -> List[Point]:
    """Points of an x-sorted column set inside the closed rectangle,
    in increasing-x order -- the vectorized in-rectangle filter."""
    lo, hi = x_window(columns, x_lo, x_hi)
    if lo >= hi:
        return []
    if HAVE_NUMPY and hi - lo >= SMALL_MERGE_CUTOFF:
        assert _np is not None
        window_ys = columns.ys[lo:hi]
        mask = (window_ys >= y_lo) & (window_ys <= y_hi)
        indices = (_np.nonzero(mask)[0] + lo).tolist()
        return columns.take(indices)
    ys = columns.ys
    return columns.take(
        [i for i in range(lo, hi) if y_lo <= ys[i] <= y_hi]
    )


def sort_points_by_x(points: List[Point]) -> List[Point]:
    """Sort a point list by increasing x via a columnar argsort.

    Drop-in replacement for ``points.sort(key=lambda p: p.x)`` at result
    assembly boundaries (BBS output);
    returns a new list and leaves the input untouched.
    """
    n = len(points)
    if n < SMALL_MERGE_CUTOFF or not HAVE_NUMPY:
        return sorted(points, key=lambda p: p.x)
    assert _np is not None
    xs = _np.fromiter((p.x for p in points), dtype=_np.float64, count=n)
    return [points[i] for i in _np.argsort(xs, kind="stable").tolist()]
