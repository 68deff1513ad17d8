"""Horizontal segments produced by the point-to-segment reduction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.point import Point


@dataclass(frozen=True, order=True, slots=True)
class HorizontalSegment:
    """A horizontal segment ``[x_left, x_right[ x y``.

    ``x_right = +inf`` encodes the segment of a maximal point (a point with
    no dominator).  ``source`` carries the originating data point so query
    answers can be mapped back to points without an extra lookup.
    """

    x_left: float
    x_right: float
    y: float
    source: Optional[Point] = None

    def __post_init__(self) -> None:
        if self.x_right <= self.x_left:
            raise ValueError(
                f"segment must have positive length: [{self.x_left}, {self.x_right}["
            )

    @property
    def length(self) -> float:
        """Length of the x-interval (``inf`` for unbounded segments)."""
        return self.x_right - self.x_left

    @property
    def is_unbounded(self) -> bool:
        """Whether the segment extends to ``x = +inf``."""
        return math.isinf(self.x_right)

    def covers_x(self, x: float) -> bool:
        """Whether the half-open x-interval ``[x_left, x_right[`` contains ``x``."""
        return self.x_left <= x < self.x_right

    def intersects_vertical(self, x: float, y_lo: float, y_hi: float) -> bool:
        """Whether this segment intersects the vertical segment ``x x [y_lo, y_hi]``."""
        return self.covers_x(x) and y_lo <= self.y <= y_hi

    def left_endpoint(self) -> Point:
        """The left endpoint as a point (carries the source identity)."""
        ident = self.source.ident if self.source is not None else None
        return Point(self.x_left, self.y, ident)

    def x_interval_contains(self, other: "HorizontalSegment") -> bool:
        """Whether this segment's x-interval contains the other's."""
        return self.x_left <= other.x_left and other.x_right <= self.x_right

    def x_interval_disjoint(self, other: "HorizontalSegment") -> bool:
        """Whether the two x-intervals are disjoint."""
        return self.x_right <= other.x_left or other.x_right <= self.x_left

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.x_left}, {self.x_right}[ x {self.y}"
