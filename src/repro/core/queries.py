"""The seven range-skyline query variants of Figure 2.

Every query is an axis-parallel rectangle ``[x_lo, x_hi] x [y_lo, y_hi]``
with some sides grounded at infinity.  A query object knows which points it
contains; the skyline *within* the query is computed by
:func:`repro.core.skyline.range_skyline` or by the I/O structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from repro.core.point import Point

INF = math.inf


@dataclass(frozen=True)
class RangeQuery:
    """A general (possibly unbounded) axis-parallel query rectangle."""

    x_lo: float = -INF
    x_hi: float = INF
    y_lo: float = -INF
    y_hi: float = INF

    def __post_init__(self) -> None:
        # Negated so a NaN side, which compares false, is rejected too.
        if not self.x_lo <= self.x_hi:
            raise ValueError(f"empty x-range [{self.x_lo}, {self.x_hi}]")
        if not self.y_lo <= self.y_hi:
            raise ValueError(f"empty y-range [{self.y_lo}, {self.y_hi}]")

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside the (closed) rectangle."""
        return (
            self.x_lo <= point.x <= self.x_hi
            and self.y_lo <= point.y <= self.y_hi
        )

    def filter(self, points: Iterable[Point]) -> List[Point]:
        """All points of the iterable inside the rectangle."""
        return [p for p in points if self.contains(p)]

    # ------------------------------------------------------------------
    # Shape predicates used to route queries to specialised structures
    # ------------------------------------------------------------------
    @property
    def is_top_open(self) -> bool:
        """Whether the top edge is grounded (``y_hi = +inf``)."""
        return self.y_hi == INF

    @property
    def is_bottom_open(self) -> bool:
        return self.y_lo == -INF

    @property
    def is_left_open(self) -> bool:
        return self.x_lo == -INF

    @property
    def is_right_open(self) -> bool:
        return self.x_hi == INF

    @property
    def open_side_count(self) -> int:
        """How many of the four sides are at infinity."""
        return sum(
            (
                self.is_top_open,
                self.is_bottom_open,
                self.is_left_open,
                self.is_right_open,
            )
        )

    @property
    def is_four_sided(self) -> bool:
        """Whether all four sides are finite."""
        return self.open_side_count == 0


class TopOpenQuery(RangeQuery):
    """``[x_lo, x_hi] x [y_lo, +inf[`` -- Figure 2a."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float) -> None:
        super().__init__(x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=INF)


class RightOpenQuery(RangeQuery):
    """``[x_lo, +inf[ x [y_lo, y_hi]`` -- Figure 2b."""

    def __init__(self, x_lo: float, y_lo: float, y_hi: float) -> None:
        super().__init__(x_lo=x_lo, x_hi=INF, y_lo=y_lo, y_hi=y_hi)


class BottomOpenQuery(RangeQuery):
    """``[x_lo, x_hi] x ]-inf, y_hi]`` -- Figure 2c."""

    def __init__(self, x_lo: float, x_hi: float, y_hi: float) -> None:
        super().__init__(x_lo=x_lo, x_hi=x_hi, y_lo=-INF, y_hi=y_hi)


class LeftOpenQuery(RangeQuery):
    """``]-inf, x_hi] x [y_lo, y_hi]`` -- Figure 2d."""

    def __init__(self, x_hi: float, y_lo: float, y_hi: float) -> None:
        super().__init__(x_lo=-INF, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi)


class DominanceQuery(RangeQuery):
    """2-sided with top and right edges grounded -- Figure 2e."""

    def __init__(self, x_lo: float, y_lo: float) -> None:
        super().__init__(x_lo=x_lo, x_hi=INF, y_lo=y_lo, y_hi=INF)


class AntiDominanceQuery(RangeQuery):
    """2-sided with bottom and left edges grounded -- Figure 2f."""

    def __init__(self, x_hi: float, y_hi: float) -> None:
        super().__init__(x_lo=-INF, x_hi=x_hi, y_lo=-INF, y_hi=y_hi)


class ContourQuery(RangeQuery):
    """1-sided half-plane to the left of a vertical line -- Figure 2g."""

    def __init__(self, x_hi: float) -> None:
        super().__init__(x_lo=-INF, x_hi=x_hi, y_lo=-INF, y_hi=INF)


class FourSidedQuery(RangeQuery):
    """A fully bounded rectangle ``[x_lo, x_hi] x [y_lo, y_hi]``."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> None:
        super().__init__(x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi)


def classify(query: RangeQuery) -> str:
    """A human-readable label of the query's shape (used in reports)."""
    top, bottom = query.is_top_open, query.is_bottom_open
    left, right = query.is_left_open, query.is_right_open
    open_count = query.open_side_count
    if open_count == 0:
        return "4-sided"
    if open_count == 1:
        if top:
            return "top-open"
        if bottom:
            return "bottom-open"
        if left:
            return "left-open"
        return "right-open"
    if open_count == 2:
        if top and right:
            return "dominance"
        if bottom and left:
            return "anti-dominance"
        if top and bottom:
            return "x-slab"
        if left and right:
            return "y-slab"
        return "2-sided"
    if open_count == 3:
        if not right:
            return "contour"
        return "1-sided"
    return "unbounded"
