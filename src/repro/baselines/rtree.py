"""An R-tree with branch-and-bound skyline search (Papadias et al.).

This is the strongest practical baseline the paper cites for range skyline
queries in external memory: the points are packed into an R-tree with the
Sort-Tile-Recursive (STR) heuristic, and a query runs the BBS algorithm --
a best-first traversal ordered by ``mindist`` (the sum of coordinates
mirrored so that dominating corners come first) that prunes every entry
dominated by an already reported point.  BBS is I/O-heuristic: the paper
notes it "cannot guarantee better worst case query I/Os than the naive
solution", which the benchmark tables confirm on adversarial inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.core.columns import sort_points_by_x
from repro.core.point import Point
from repro.core.queries import RangeQuery
from repro.em.storage import StorageManager


@dataclass(frozen=True)
class Rect:
    """An axis-parallel bounding rectangle."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def intersects(self, query: RangeQuery) -> bool:
        return not (
            self.x_hi < query.x_lo
            or self.x_lo > query.x_hi
            or self.y_hi < query.y_lo
            or self.y_lo > query.y_hi
        )

    def upper_right(self) -> Tuple[float, float]:
        """The corner that dominates everything inside the rectangle."""
        return (self.x_hi, self.y_hi)

    @classmethod
    def of_points(cls, points: Iterable[Point]) -> "Rect":
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return cls(min(xs), max(xs), min(ys), max(ys))

    @classmethod
    def of_rects(cls, rects: Iterable["Rect"]) -> "Rect":
        rects = list(rects)
        return cls(
            min(r.x_lo for r in rects),
            max(r.x_hi for r in rects),
            min(r.y_lo for r in rects),
            max(r.y_hi for r in rects),
        )


@dataclass
class _RTreeNode:
    is_leaf: bool
    rect: Rect
    points: List[Point] = field(default_factory=list)
    children: List[int] = field(default_factory=list)
    child_rects: List[Rect] = field(default_factory=list)

    def record_size(self) -> int:
        return max(1, len(self.points) if self.is_leaf else len(self.children))


class RTree:
    """A static R-tree bulk-loaded with Sort-Tile-Recursive packing."""

    def __init__(self, storage: StorageManager, points: Iterable[Point]) -> None:
        self.storage = storage
        self.points = list(points)
        self.fanout = storage.block_size
        self.root_id: Optional[int] = None
        self.root_rect: Optional[Rect] = None
        if self.points:
            self.root_id, self.root_rect = self._build(self.points)

    def _build(self, points: List[Point]) -> Tuple[int, Rect]:
        block = self.storage.block_size
        slices = max(1, math.ceil(math.sqrt(math.ceil(len(points) / block))))
        ordered = sorted(points, key=lambda p: p.x)
        slice_size = math.ceil(len(ordered) / slices)
        leaves: List[Tuple[int, Rect]] = []
        for start in range(0, len(ordered), slice_size):
            strip = sorted(ordered[start : start + slice_size], key=lambda p: p.y)
            for leaf_start in range(0, len(strip), block):
                chunk = strip[leaf_start : leaf_start + block]
                rect = Rect.of_points(chunk)
                node = _RTreeNode(is_leaf=True, rect=rect, points=chunk)
                leaves.append((self.storage.create(node), rect))
        level = leaves
        while len(level) > 1:
            next_level: List[Tuple[int, Rect]] = []
            for start in range(0, len(level), self.fanout):
                group = level[start : start + self.fanout]
                rect = Rect.of_rects(r for _, r in group)
                node = _RTreeNode(
                    is_leaf=False,
                    rect=rect,
                    children=[node_id for node_id, _ in group],
                    child_rects=[r for _, r in group],
                )
                next_level.append((self.storage.create(node), rect))
            level = next_level
        return level[0]

    def block_count(self) -> int:
        """Blocks occupied by the tree."""
        if self.root_id is None:
            return 0
        count, stack = 0, [self.root_id]
        while stack:
            node = self.storage.read(stack.pop())
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count


class RTreeBBS:
    """Branch-and-bound range skyline search over an :class:`RTree`."""

    def __init__(self, storage: StorageManager, points: Iterable[Point]) -> None:
        self.tree = RTree(storage, points)
        self.storage = storage

    def query(self, query: RangeQuery) -> List[Point]:
        """Skyline of ``P ∩ Q`` via best-first traversal with dominance pruning."""
        if self.tree.root_id is None:
            return []
        result: List[Point] = []
        heap: List[Tuple[float, int, str, object]] = []
        counter = 0

        def push(kind: str, payload: object, corner: Tuple[float, float]) -> None:
            nonlocal counter
            # Max-ordering on x + y of the dominating corner: entries whose
            # best possible point is most dominant are expanded first.
            heapq.heappush(heap, (-(corner[0] + corner[1]), counter, kind, payload))
            counter += 1

        push("node", self.tree.root_id, self.tree.root_rect.upper_right())
        while heap:
            _, _, kind, payload = heapq.heappop(heap)
            if kind == "point":
                point = payload  # type: ignore[assignment]
                if not self._dominated(point, result):
                    result.append(point)
                continue
            node = self.storage.read(payload)
            if not node.rect.intersects(query):
                continue
            if self._corner_dominated(node.rect, query, result):
                continue
            if node.is_leaf:
                for point in node.points:
                    if query.contains(point) and not self._dominated(point, result):
                        push("point", point, (point.x, point.y))
            else:
                for child_id, rect in zip(node.children, node.child_rects):
                    if rect.intersects(query) and not self._corner_dominated(
                        rect, query, result
                    ):
                        push("node", child_id, rect.upper_right())
        return sort_points_by_x(result)

    def _dominated(self, point: Point, result: List[Point]) -> bool:
        return any(other.dominates(point) for other in result)

    def _corner_dominated(
        self, rect: Rect, query: RangeQuery, result: List[Point]
    ) -> bool:
        """Whether the best corner of ``rect`` (clipped to Q) is already dominated."""
        corner = Point(min(rect.x_hi, query.x_hi), min(rect.y_hi, query.y_hi))
        return any(
            other.dominates(corner) or (other.x >= corner.x and other.y >= corner.y)
            for other in result
        )

    def block_count(self) -> int:
        """Blocks occupied by the underlying R-tree."""
        return self.tree.block_count()

    def __len__(self) -> int:
        return len(self.tree.points)
