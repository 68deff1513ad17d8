"""The SABE static top-open structure (Section 2 / Theorem 1).

Composition:

* a range-max B-tree over x-coordinates supplies ``beta'``, the highest
  y-coordinate inside the query rectangle, in ``O(log_B n)`` I/Os;
* the segment set ``Sigma(P)`` (Section 2.2) stored in a partially
  persistent B-tree keyed on y answers the converted vertical-segment
  stabbing query in ``O(log_B n + k/B)`` I/Os.

Both components are built in ``O(n/B)`` I/Os from x-sorted input
(``build_sorted``), which is the "sort-aware build-efficient" property the
paper proves; ``construction_io`` exposes the measured figure so the SABE
benchmark can compare against the classic super-linear construction.

Neither component holds a point object.  The range-max B-tree maps x to
y, and the PPB-tree stores each point's position in :attr:`points`, the
structure's sorted point list, so a built structure keeps tracked Python
objects per block rather than per point (DESIGN §3).  The same holds for
the axis-exchanged structure :meth:`StaticTopOpenStructure.right_open`
builds: it indexes the points themselves with x and y exchanged, so no
swapped copy of a point exists.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Sequence

from repro.btree.rangemax import RangeMaxBTree
from repro.core.point import Point, require_general_position
from repro.core.queries import RangeQuery
from repro.em.storage import StorageManager
from repro.ppbtree.build import build_sigma_ppbtree
from repro.ppbtree.ppbtree import MultiversionBTree
from repro.segments.reduction import sigma_records


class StaticTopOpenStructure:
    """Linear-space static structure for top-open range skyline queries."""

    def __init__(self, storage: StorageManager, points: Iterable[Point]) -> None:
        self._build(storage, sorted(points, key=attrgetter("x")))

    @classmethod
    def build_sorted(
        cls, storage: StorageManager, points_sorted_by_x: Sequence[Point]
    ) -> "StaticTopOpenStructure":
        """SABE construction from x-sorted points (skips the sort)."""
        instance = cls.__new__(cls)
        instance._build(storage, list(points_sorted_by_x))
        return instance

    @classmethod
    def right_open(
        cls, storage: StorageManager, points: Iterable[Point]
    ) -> "StaticTopOpenStructure":
        """The structure over ``points`` with x and y exchanged.

        Its :meth:`query_top_open` ``(y_lo, y_hi, x_lo)`` answers the
        right-open rectangle ``[x_lo, inf[ x [y_lo, y_hi]`` with the stored
        points, sorted by y: dominance, and so the skyline, is symmetric
        under exchanging the axes.
        """
        instance = cls.__new__(cls)
        instance._build(storage, sorted(points, key=attrgetter("y")), exchanged=True)
        return instance

    def _build(
        self, storage: StorageManager, ordered: List[Point], exchanged: bool = False
    ) -> None:
        """Build over ``ordered``, sorted by x (by y when ``exchanged``).

        Refuses, with ``ValueError`` and before any I/O, a block size the
        PPB-tree cannot run at (B < 8) and two points sharing exactly one
        coordinate: ``Sigma(P)`` would give the dominated one a segment of
        zero length, or one that reports it.  Exact twins are accepted.
        """
        MultiversionBTree.node_limits(storage.block_size)
        xs = [p.x for p in ordered]
        ys = [p.y for p in ordered]
        require_general_position(xs, ys)
        if exchanged:
            xs, ys = ys, xs
        self.storage = storage
        self.points = ordered
        # Each point's x in this structure's frame, by position.
        self._xs = xs
        before = storage.snapshot()
        self.range_max = RangeMaxBTree.build_sorted(storage, xs, ys)
        self.ppb_tree: MultiversionBTree = build_sigma_ppbtree(
            storage, sigma_records(zip(xs, ys, range(len(xs))))
        )
        self.construction_io = (storage.snapshot() - before).total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: RangeQuery) -> List[Point]:
        """Maxima of ``P`` inside a top-open rectangle, sorted by x."""
        if not query.is_top_open:
            raise ValueError("StaticTopOpenStructure answers top-open queries only")
        return self.query_top_open(query.x_lo, query.x_hi, query.y_lo)

    def query_top_open(self, x_lo: float, x_hi: float, y_lo: float) -> List[Point]:
        """Answer ``[x_lo, x_hi] x [y_lo, inf[`` per the reduction of Section 2.1."""
        if not self.points:
            return []
        beta_prime = self.range_max.max_y_in(x_lo, x_hi)
        if beta_prime is None or beta_prime < y_lo:
            return []
        # Report the segments of Sigma(P) stabbed by the vertical segment
        # x_hi x [y_lo, beta'].  Such segments are alive at version x_hi;
        # each stores its point's position, and a stable sort on the
        # positions' x keeps the tree's order among equal x.
        positions: List[int] = self.ppb_tree.range_query(x_hi, y_lo, beta_prime)
        positions.sort(key=self._xs.__getitem__)
        points = self.points
        return [points[i] for i in positions]

    def query_contour(self, x_hi: float) -> List[Point]:
        """Contour query (Figure 2g): the skyline of points left of ``x_hi``."""
        return self.query_top_open(float("-inf"), x_hi, float("-inf"))

    def query_dominance(self, x_lo: float, y_lo: float) -> List[Point]:
        """Dominance query (Figure 2e): skyline of the upper-right quadrant."""
        return self.query_top_open(x_lo, float("inf"), y_lo)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def block_count(self) -> int:
        """Blocks used by the PPB-tree component (dominates the space)."""
        return self.ppb_tree.block_count()

    def __len__(self) -> int:
        return len(self.points)


def build_top_open(
    storage: StorageManager, points: Iterable[Point]
) -> StaticTopOpenStructure:
    """Convenience constructor mirroring the other structures' helpers."""
    return StaticTopOpenStructure(storage, points)


def top_open_query_bound(n: int, k: int, block_size: int) -> float:
    """The theoretical ``O(log_B n + k/B)`` I/O bound (for benchmark tables)."""
    import math

    if n <= 1:
        return 1.0
    return math.log(max(2, n), max(2, block_size)) + k / block_size
