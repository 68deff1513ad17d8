"""Planar points and the dominance relation of the paper (Section 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True, order=True, slots=True)
class Point:
    """A planar point ``(x, y)`` with an optional identifier payload.

    Ordering is lexicographic on ``(x, y)`` so that sorting a list of points
    sorts them by x-coordinate with y as a tie-breaker, the order every
    construction algorithm in the paper assumes.
    """

    x: float
    y: float
    ident: Optional[int] = None

    def dominates(self, other: "Point") -> bool:
        """Whether this point dominates ``other`` (``x >= x'`` and ``y >= y'``).

        Following the paper, a point does not dominate itself (the relation
        is only applied to distinct points), but for convenience we return
        ``False`` on equal coordinates.
        """
        if self.x == other.x and self.y == other.y:
            return False
        return self.x >= other.x and self.y >= other.y

    def strictly_dominates(self, other: "Point") -> bool:
        """Dominance with both coordinates strictly larger."""
        return self.x > other.x and self.y > other.y

    def mirrored_y(self) -> "Point":
        """The point ``(x, -y)`` used by the dynamic structure (Section 4)."""
        return Point(self.x, -self.y, self.ident)

    def as_tuple(self) -> Tuple[float, float]:
        """The bare coordinate pair."""
        return (self.x, self.y)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"({self.x}, {self.y})"


def dominates(p: Point, q: Point) -> bool:
    """Functional form of :meth:`Point.dominates`."""
    return p.dominates(q)


def strictly_dominates(p: Point, q: Point) -> bool:
    """Functional form of :meth:`Point.strictly_dominates`."""
    return p.strictly_dominates(q)


def in_general_position(points: Sequence[Point]) -> bool:
    """Whether no two points share an x- or a y-coordinate."""
    xs = {p.x for p in points}
    ys = {p.y for p in points}
    return len(xs) == len(points) and len(ys) == len(points)


def require_general_position(xs: Sequence[float], ys: Sequence[float]) -> None:
    """``ValueError`` when two of the points ``zip(xs, ys)`` share one
    coordinate but not the other; exact twins pass."""
    distinct_x, distinct_y = len(set(xs)), len(set(ys))
    if distinct_x == distinct_y == len(xs):
        return
    if not distinct_x == len(set(zip(xs, ys))) == distinct_y:
        raise ValueError("points must be in general position: two share an x or a y")


def ensure_general_position(points: Iterable[Point]) -> List[Point]:
    """Perturb duplicated coordinates by symbolic tie-breaking.

    The paper assumes general position and notes that ties can be broken by
    standard techniques.  We break ties deterministically by nudging later
    duplicates by an infinitesimal rank-dependent epsilon, which preserves
    the dominance relation among originally distinct coordinates.
    """
    result: List[Point] = []
    seen_x: dict = {}
    seen_y: dict = {}
    for point in points:
        x, y = point.x, point.y
        if x in seen_x:
            seen_x[x] += 1
            x = x + seen_x[x] * 1e-9
        else:
            seen_x[x] = 0
        if y in seen_y:
            seen_y[y] += 1
            y = y + seen_y[y] * 1e-9
        else:
            seen_y[y] = 0
        result.append(Point(x, y, point.ident))
    return result


def resolve_victim_index(points: Sequence[Point], target: Point) -> Optional[int]:
    """The index of the stored point ``delete(target)`` should remove.

    One-victim semantics shared by every structure in the stack: among
    the points matching ``target``'s coordinates, one whose ``ident``
    equals ``target.ident`` is preferred, otherwise the first coordinate
    match; ``None`` when nothing matches.  Centralised so the facade, the
    dynamic top-open structure and the 4-sided structure can never drift
    apart on which coordinate twin dies.
    """
    fallback: Optional[int] = None
    for index, p in enumerate(points):
        if p.x == target.x and p.y == target.y:
            if p.ident == target.ident:
                return index
            if fallback is None:
                fallback = index
    return fallback


def leftmost_dominator(point: Point, points: Sequence[Point]) -> Optional[Point]:
    """``leftdom(p)``: the leftmost point of ``points`` dominating ``point``.

    Quadratic reference implementation used to validate the sweep in
    :mod:`repro.segments.reduction`.
    """
    best: Optional[Point] = None
    for candidate in points:
        if candidate.dominates(point):
            if best is None or candidate.x < best.x:
                best = candidate
    return best
