"""The 4-sided range skyline structure of Theorem 6.

A weight-balanced base tree with fanout ``f ~ (n/B)^eps`` (hence constant
height ``O(1/eps)``) indexes the x-coordinates; every internal node ``u``
except the root stores a *right-open* structure ``R(u)`` over the points
of its subtree,
realised as a :class:`~repro.structures.dynamic_topopen.DynamicTopOpenStructure`
on the coordinate-swapped point set (dominance, and therefore the skyline,
is invariant under swapping the axes, and a right-open query becomes a
top-open query after the swap).

A 4-sided query walks the ``O((n/B)^eps / log(n/B))`` canonical nodes of
its x-range from right to left, keeping the highest reported y-coordinate
``beta*``; each canonical node contributes the skyline of its subtree
restricted to ``]beta*, y_hi]`` via one right-open query on ``R(u)``.  The
boundary leaves are handled with one block read each.  A canonical node
is always a child, never the root, so the root carries no ``R(u)``: a
query that would need it (one that contains the whole x-range) is a
right-open query, which :class:`repro.RangeSkylineIndex` sends to its own
right-open structure.  Updates insert into the O(1) right-open structures
along the leaf path and rebuild the base tree periodically, for
``O(log(n/B))`` amortized I/Os.

Two layouts share this code.  The dynamic one (the default) leaves room
for in-place updates: base leaves are half full and every ``R(u)`` is a
fanout-2 tree (``eps = 0``) with half-full leaves.  A static structure
(``dynamic=False``, what a static :class:`repro.RangeSkylineIndex` builds)
is only ever rebuilt, so it packs full: base leaves of ``B`` points, and
each ``R(u)`` bulk-loaded with full leaves, queue records of ``B``
elements and this structure's own ``eps``.  Full leaves drop a base-tree
level, and with it one ``R(u)`` copy of every point; records of ``B``
keep the reporting term at ``k/B``.  Updates on it raise ``TypeError``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.point import Point, resolve_victim_index
from repro.core.queries import FourSidedQuery, RangeQuery
from repro.core.skyline import skyline
from repro.em.storage import StorageManager
from repro.structures.dynamic_topopen import DynamicTopOpenStructure


def _swap(point: Point) -> Point:
    """Swap the axes of a point (dominance-preserving)."""
    return Point(point.y, point.x, point.ident)


def _strictly_above(value: float) -> float:
    if math.isinf(value):
        return value
    return math.nextafter(value, math.inf)


@dataclass
class _LeafBlock:
    """A leaf of the base tree: up to ``B`` points sorted by x.

    ``xs`` and ``ys`` hold the points' coordinates as two columns: the
    same records laid out for :meth:`FourSidedStructure._leaf_skyline` to
    scan without touching a :class:`Point` it does not report.  Every
    write of a leaf refills them (:meth:`fill_columns`).
    """

    points: List[Point] = field(default_factory=list)
    xs: "array[float]" = field(default_factory=lambda: array("d"))
    ys: "array[float]" = field(default_factory=lambda: array("d"))

    def fill_columns(self) -> None:
        """Rewrite the coordinate columns from :attr:`points`."""
        self.xs = array("d", [p.x for p in self.points])
        self.ys = array("d", [p.y for p in self.points])

    @property
    def is_leaf(self) -> bool:
        return True

    def record_size(self) -> int:
        return max(1, len(self.points))

    def x_max(self) -> float:
        return self.points[-1].x if self.points else -math.inf


@dataclass
class _InternalBlock:
    """An internal node: children, separators, and its right-open
    structure (``None`` at the root, which no query reads)."""

    children: List[int] = field(default_factory=list)
    separators: List[float] = field(default_factory=list)
    right_open: Optional[DynamicTopOpenStructure] = None

    @property
    def is_leaf(self) -> bool:
        return False

    def record_size(self) -> int:
        return max(1, len(self.children))

    def child_index_for(self, x: float) -> int:
        for index, separator in enumerate(self.separators):
            if x <= separator:
                return index
        return len(self.children) - 1


class FourSidedStructure:
    """Linear-space structure for general (4-sided) range skyline queries.

    ``dynamic=False`` builds the packed static layout of the module
    docstring and refuses :meth:`insert` and :meth:`delete`.
    """

    def __init__(
        self,
        storage: StorageManager,
        points: Optional[Iterable[Point]] = None,
        epsilon: float = 0.5,
        dynamic: bool = True,
    ) -> None:
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        self.storage = storage
        self.epsilon = epsilon
        self.dynamic = dynamic
        self.points: List[Point] = sorted(points or [], key=lambda p: p.x)
        self.root_id: Optional[int] = None
        self._updates_since_build = 0
        self._size_at_build = 0
        self._rebuild()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _fanout_for(self, n: int) -> int:
        blocks = max(2, n // max(1, self.storage.block_size))
        # An internal node must fit one block, so the fanout is capped at B.
        return max(2, min(self.storage.block_size, math.ceil(blocks ** self.epsilon)))

    def _rebuild(self) -> None:
        """Rebuild the whole base tree (used initially and after many updates)."""
        self._updates_since_build = 0
        self._size_at_build = len(self.points)
        # Dynamic leaves are filled to half a block so subsequent insertions
        # have room before the next (amortized) rebuild; static ones are full.
        if self.dynamic:
            leaf_fill = max(2, self.storage.block_size // 2)
        else:
            leaf_fill = self.storage.block_size
        fanout = self._fanout_for(len(self.points))
        ordered = sorted(self.points, key=lambda p: p.x)
        if not ordered:
            self.root_id = self.storage.create(_LeafBlock(points=[]))
            return
        # Each point is swapped once; a node's subtree is a contiguous run
        # of ``ordered``, so its right-open structure gets the same run of
        # ``swapped`` and each leaf its run of the coordinate columns.
        # Level entries are (block id, x-max, run start, run end).
        swapped = [_swap(p) for p in ordered]
        xs = array("d", [p.x for p in ordered])
        ys = array("d", [p.y for p in ordered])
        level: List[Tuple[int, float, int, int]] = []
        for start in range(0, len(ordered), leaf_fill):
            end = min(start + leaf_fill, len(ordered))
            leaf = _LeafBlock(ordered[start:end], xs[start:end], ys[start:end])
            leaf_id = self.storage.create(leaf)
            level.append((leaf_id, ordered[end - 1].x, start, end))
        while len(level) > 1:
            next_level: List[Tuple[int, float, int, int]] = []
            # One group left means this level builds the root.
            is_root = len(level) <= fanout
            for start in range(0, len(level), fanout):
                group = level[start : start + fanout]
                run_start, run_end = group[0][2], group[-1][3]
                right_open = None if is_root else DynamicTopOpenStructure(
                    self.storage,
                    points=swapped[run_start:run_end],
                    epsilon=0.0 if self.dynamic else self.epsilon,
                    dynamic=self.dynamic,
                )
                node = _InternalBlock(
                    children=[entry[0] for entry in group],
                    separators=[entry[1] for entry in group],
                    right_open=right_open,
                )
                node_id = self.storage.create(node)
                next_level.append((node_id, group[-1][1], run_start, run_end))
            level = next_level
        self.root_id = level[0][0]

    # ------------------------------------------------------------------
    # Updates (amortized O(log(n/B)) I/Os)
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Insert a point; the base tree is rebuilt periodically."""
        self._require_dynamic()
        self.points.append(point)
        self._updates_since_build += 1
        if self._needs_rebuild():
            self._rebuild()
            return
        path = self._descend(point.x)
        leaf_id, leaf = path[-1]
        if len(leaf.points) + 1 > self.storage.block_size:
            # The leaf block is full: rebalance by rebuilding the base tree
            # (amortized against the Omega(B) updates that filled the leaf).
            self._rebuild()
            return
        leaf.points.append(point)
        leaf.points.sort(key=lambda p: p.x)
        leaf.fill_columns()
        self.storage.write(leaf_id, leaf)
        for node_id, node in path[:-1]:
            # A point past the rightmost separator descends into the last
            # child; its subtree's recorded x-max must be raised, or
            # _decompose would treat the subtree as fully contained in
            # rectangles the new point sticks out of (leaking an
            # out-of-range point through the node's right-open answer).
            index = node.child_index_for(point.x)
            if node.separators[index] < point.x:
                node.separators[index] = point.x
                self.storage.write(node_id, node)
            if node.right_open is not None:
                node.right_open.insert(_swap(point))

    def delete(self, point: Point) -> bool:
        """Delete one point with matching coordinates; returns success.

        Among coordinate twins, a stored point whose ``ident`` equals
        ``point.ident`` is preferred, and that *resolved* victim (with its
        stored ``ident``) is what gets removed from the leaf and from the
        swapped right-open structures along the path -- so every secondary
        structure drops the same identity as the primary point list.
        """
        self._require_dynamic()
        victim = resolve_victim_index(self.points, point)
        if victim is None:
            return False
        stored = self.points[victim]
        del self.points[victim]
        self._updates_since_build += 1
        if self._needs_rebuild():
            self._rebuild()
            return True
        path = self._descend(stored.x)
        leaf_id, leaf = path[-1]
        leaf_victim = resolve_victim_index(leaf.points, stored)
        if leaf_victim is not None:
            del leaf.points[leaf_victim]
            leaf.fill_columns()
        self.storage.write(leaf_id, leaf)
        for node_id, node in path[:-1]:
            if node.right_open is not None:
                node.right_open.delete(_swap(stored))
        return True

    def _require_dynamic(self) -> None:
        if not self.dynamic:
            raise TypeError(
                "this structure was packed statically; pass dynamic=True to update it"
            )

    def _needs_rebuild(self) -> bool:
        threshold = max(16, self._size_at_build // 2)
        return self._updates_since_build >= threshold

    def _descend(self, x: float) -> List[Tuple[int, object]]:
        path: List[Tuple[int, object]] = []
        node_id = self.root_id
        while True:
            node = self.storage.read(node_id)
            path.append((node_id, node))
            if node.is_leaf:
                return path
            node_id = node.children[node.child_index_for(x)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: RangeQuery) -> List[Point]:
        """Maxima of ``P`` inside an arbitrary axis-parallel rectangle."""
        return self.query_four_sided(query.x_lo, query.x_hi, query.y_lo, query.y_hi)

    def query_four_sided(
        self, x_lo: float, x_hi: float, y_lo: float, y_hi: float
    ) -> List[Point]:
        """Answer ``[x_lo, x_hi] x [y_lo, y_hi]`` in O((n/B)^eps + k/B) I/Os."""
        if self.root_id is None or not self.points:
            return []
        root = self.storage.read(self.root_id)
        if root.is_leaf:
            return self._leaf_skyline(root, x_lo, x_hi, y_lo, y_hi)
        units = self._decompose(x_lo, x_hi)
        result: List[Point] = []
        # Exclusive lower bound on y-coordinates still worth reporting; starts
        # just below y_lo so that points with y exactly y_lo qualify, then grows
        # to the highest reported y (which any unreported candidate to the left
        # would be dominated by).
        beta_exclusive = y_lo if math.isinf(y_lo) else math.nextafter(y_lo, -math.inf)
        for unit in units:
            if isinstance(unit, _LeafBlock):
                found = self._leaf_skyline(
                    unit, x_lo, x_hi, _strictly_above(beta_exclusive), y_hi
                )
            else:
                # _decompose never yields the root, the one node without
                # an R(u).
                swapped = unit.right_open.query_top_open(
                    _strictly_above(beta_exclusive), y_hi, -math.inf
                )
                found = [Point(p.y, p.x, p.ident) for p in swapped]
            if found:
                result.extend(found)
                beta_exclusive = max(beta_exclusive, max(p.y for p in found))
        deduped = {(p.x, p.y): p for p in result}
        return sorted(deduped.values(), key=lambda p: p.x)

    def _decompose(self, x_lo: float, x_hi: float) -> List[object]:
        """Canonical units covering the x-range, ordered by *descending* x.

        Each unit is either a fully-contained internal node (answered through
        its right-open structure) or a leaf block (boundary leaves and
        fully-contained leaves alike are answered by one block read).
        """
        units: List[Tuple[float, object]] = []

        def walk(node_id: int) -> None:
            node = self.storage.read(node_id)
            if node.is_leaf:
                # Units are x-disjoint, so ordering by the unit's maximum x
                # orders them right-to-left.
                x_key = node.points[-1].x if node.points else -math.inf
                units.append((x_key, node))
                return
            for index, child_id in enumerate(node.children):
                prev_sep = node.separators[index - 1] if index > 0 else -math.inf
                child_hi = node.separators[index]
                if prev_sep >= x_hi:
                    break
                if child_hi < x_lo:
                    continue
                if prev_sep >= x_lo and child_hi <= x_hi:
                    child = self.storage.read(child_id)
                    units.append((child_hi, child))
                else:
                    walk(child_id)

        walk(self.root_id)
        units.sort(key=lambda item: -item[0])
        return [node for _, node in units]

    def _leaf_skyline(
        self, leaf: _LeafBlock, x_lo: float, x_hi: float, y_lo: float, y_hi: float
    ) -> List[Point]:
        """The skyline of the leaf's points inside the rectangle, by x.

        Bisects the x-window in the ``xs`` column and sweeps the ``ys``
        column right to left, reporting a position when its y lies in
        ``[y_lo, y_hi]`` and exceeds every y selected to its right; only
        reported positions are looked up in ``points``.  When a reported
        point shares its x with another point of the window, the sweep's
        order among them is not :func:`skyline`'s, so that case returns
        ``skyline`` of the filtered points.
        """
        xs, ys = leaf.xs, leaf.ys
        lo = bisect_left(xs, x_lo)
        hi = bisect_right(xs, x_hi, lo)
        found: List[int] = []
        best = -math.inf
        for i in range(hi - 1, lo - 1, -1):
            y = ys[i]
            if y_lo <= y <= y_hi and y > best:
                found.append(i)
                best = y
        points = leaf.points
        for i in found:
            x = xs[i]
            if (i > lo and xs[i - 1] == x) or (i + 1 < hi and xs[i + 1] == x):
                return skyline([p for p in points[lo:hi] if y_lo <= p.y <= y_hi])
        found.reverse()
        return [points[i] for i in found]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def height(self) -> int:
        """Levels of the base tree (constant for fixed epsilon)."""
        levels = 1
        node = self.storage.read(self.root_id)
        while not node.is_leaf:
            levels += 1
            node = self.storage.read(node.children[0])
        return levels


def four_sided_query_bound(n: int, k: int, block_size: int, epsilon: float) -> float:
    """The theoretical ``(n/B)^eps + k/B`` bound for benchmark tables."""
    blocks = max(2, n // max(1, block_size))
    return blocks ** epsilon + k / block_size + 1.0
