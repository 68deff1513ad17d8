"""The range-max B-tree used by the static top-open structure (Theorem 1).

Keys are the x-coordinates of the points and values their y-coordinates;
the maintained aggregate is the maximum y-coordinate, so ``max_y_in(x_lo,
x_hi)`` -- the value ``beta'`` the query algorithm of Section 2.1 needs --
costs ``O(log_B n)`` I/Os.  Keys and values are plain numbers, so a leaf
holds no reference to a point object.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.btree.btree import BTree
from repro.btree.bulk import bulk_load_sorted
from repro.core.point import Point
from repro.em.storage import StorageManager


class RangeMaxBTree:
    """A B-tree mapping x to y, answering max-y range queries."""

    def __init__(self, storage: StorageManager, points: Optional[Iterable[Point]] = None) -> None:
        self.storage = storage
        self.tree = BTree(storage, aggregate=max)
        if points is not None:
            for point in points:
                self.insert(point)

    @classmethod
    def build_sorted(
        cls, storage: StorageManager, xs: Sequence[float], ys: Sequence[float]
    ) -> "RangeMaxBTree":
        """Linear-I/O construction from increasing ``xs`` and their ``ys``
        (SABE requirement).  Allocates only the bulk-loaded tree's blocks."""
        instance = cls.__new__(cls)
        instance.storage = storage
        instance.tree = bulk_load_sorted(storage, list(zip(xs, ys)), aggregate=max)
        return instance

    def insert(self, point: Point) -> None:
        """Index ``point.y`` under ``point.x``."""
        self.tree.insert(point.x, point.y)

    def delete(self, point: Point) -> bool:
        """Remove the entry stored under ``point.x``."""
        return self.tree.delete(point.x)

    def max_y_in(self, x_lo: float, x_hi: float) -> Optional[float]:
        """Maximum y-coordinate among points with x in ``[x_lo, x_hi]``."""
        return self.tree.range_aggregate(x_lo, x_hi)

    def __len__(self) -> int:
        return len(self.tree)
