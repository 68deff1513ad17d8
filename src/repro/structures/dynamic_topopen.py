"""The dynamic top-open structure of Section 4.2 (Theorem 4).

An ``(a, 2a)``-tree with ``a = 2 B^eps`` indexes the x-order of the mirrored
point set ``P~ = {(x, -y)}``.  Every node carries an I/O-CPQA over the
elements of its subtree in x-order with key ``-y``: attrition then removes
exactly the dominated points, so a node's queue *is* the skyline of its
subtree.  A node's queue is obtained by ``CatenateAndAttrite``-ing its
children's queues left to right; because the queues are persistent and each
internal node keeps a copy of its children's queue descriptors (the paper's
"representative blocks"), recomputing the queues along a root-to-leaf path
after an update touches only the path's own blocks.

A top-open query ``[x_lo, x_hi] x [y_lo, inf[`` concatenates the queues of
the O(a log_a(n/B)) canonical nodes of the x-range (plus temporary queues
over the in-range points of the two boundary leaves) and pops elements until
the key exceeds ``-y_lo``, reporting the range skyline top-down in
``O(log_{2B^eps}(n/B) + k/B^{1-eps})`` I/Os.

A structure built with ``dynamic=False`` is only ever bulk-loaded, so it is
packed full: every leaf holds the most a leaf may hold (``2 *
leaf_capacity`` points, at most ``B``) and every queue record ``B``
elements, which keeps the ``k/B`` reporting term of the static bounds;
:meth:`insert` and :meth:`delete` then raise ``TypeError``.  The 4-sided
structure of Theorem 6 builds its right-open structures this way inside a
static index.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.point import Point, resolve_victim_index
from repro.core.queries import RangeQuery
from repro.em.storage import StorageManager
from repro.pqa.iocpqa import IOCPQA

_X = attrgetter("x")


@dataclass
class _Leaf:
    """A leaf block: points sorted by x plus the leaf's skyline queue."""

    points: List[Point] = field(default_factory=list)
    queue: Optional[IOCPQA] = None

    @property
    def is_leaf(self) -> bool:
        return True

    def record_size(self) -> int:
        return max(1, len(self.points))

    def x_max(self) -> float:
        return self.points[-1].x if self.points else -math.inf


@dataclass
class _Internal:
    """An internal block: children, separators and queue descriptors."""

    children: List[int] = field(default_factory=list)
    separators: List[float] = field(default_factory=list)  # max x per child
    child_queues: List[Optional[IOCPQA]] = field(default_factory=list)
    queue: Optional[IOCPQA] = None

    @property
    def is_leaf(self) -> bool:
        return False

    def record_size(self) -> int:
        return max(1, len(self.children))

    def x_max(self) -> float:
        return self.separators[-1] if self.separators else -math.inf

    def child_index_for(self, x: float) -> int:
        for index, separator in enumerate(self.separators):
            if x <= separator:
                return index
        return len(self.children) - 1


class DynamicTopOpenStructure:
    """Dynamic, linear-space top-open range skyline structure (Theorem 4).

    ``dynamic=False`` packs the bulk-loaded layout full (full leaves, queue
    records of ``B`` elements) and refuses updates with ``TypeError``.
    """

    def __init__(
        self,
        storage: StorageManager,
        points: Optional[Iterable[Point]] = None,
        epsilon: float = 0.5,
        dynamic: bool = True,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.storage = storage
        self.epsilon = epsilon
        self.dynamic = dynamic
        block = storage.block_size
        # Leaves hold between ``leaf_capacity`` and ``2 * leaf_capacity``
        # points and must fit one block; internal nodes hold between
        # ``fanout`` and ``2 * fanout`` children under the same constraint.
        self.fanout = min(max(2, math.ceil(2 * block ** epsilon)), max(2, block // 2))
        self.leaf_capacity = max(2, block // 2)
        if dynamic:
            self.record_capacity = max(1, int(round(block ** (1.0 - epsilon))))
        else:
            self.record_capacity = block
        self._count = 0
        self.root_id = self.storage.create(_Leaf(points=[], queue=self._empty_queue()))
        if points is not None:
            self.bulk_load(sorted(points, key=lambda p: p.x))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _empty_queue(self) -> IOCPQA:
        return IOCPQA.empty(self.storage, self.record_capacity)

    def _leaf_queue(self, points: Sequence[Point]) -> IOCPQA:
        """The skyline queue of a leaf (elements in x-order keyed by -y)."""
        return IOCPQA.build(
            self.storage,
            [(-p.y, p) for p in points],
            self.record_capacity,
        )

    def bulk_load(self, points_sorted_by_x: Sequence[Point]) -> None:
        """SABE bulk construction from x-sorted points (O(n/B) block writes)."""
        if not points_sorted_by_x:
            return
        # Free the placeholder root.
        self.storage.free(self.root_id)
        self._count = len(points_sorted_by_x)
        level: List[Tuple[int, float, IOCPQA]] = []
        if self.dynamic:
            capacity = self.leaf_capacity
        else:
            # Never split, so fill each leaf to the most it may hold.
            capacity = min(self.storage.block_size, 2 * self.leaf_capacity)
        for start in range(0, len(points_sorted_by_x), capacity):
            chunk = list(points_sorted_by_x[start : start + capacity])
            queue = self._leaf_queue(chunk)
            leaf_id = self.storage.create(_Leaf(points=chunk, queue=queue))
            level.append((leaf_id, chunk[-1].x, queue))
        while len(level) > 1:
            next_level: List[Tuple[int, float, IOCPQA]] = []
            for start in range(0, len(level), self.fanout):
                group = level[start : start + self.fanout]
                queue = self._catenate([q for _, _, q in group])
                node = _Internal(
                    children=[node_id for node_id, _, _ in group],
                    separators=[x_max for _, x_max, _ in group],
                    child_queues=[q for _, _, q in group],
                    queue=queue,
                )
                node_id = self.storage.create(node)
                next_level.append((node_id, group[-1][1], queue))
            level = next_level
        self.root_id = level[0][0]

    def _catenate(self, queues: Sequence[Optional[IOCPQA]]) -> IOCPQA:
        """CatenateAndAttrite a left-to-right sequence of child queues."""
        result: Optional[IOCPQA] = None
        for queue in queues:
            if queue is None:
                continue
            result = queue if result is None else result.catenate_and_attrite(queue)
        return result if result is not None else self._empty_queue()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Insert ``point`` in O(log_{2B^eps}(n/B)) I/Os (plus leaf queue writes)."""
        self._require_dynamic()
        path = self._descend(point.x)
        leaf_id, leaf = path[-1]
        leaf.points.append(point)
        leaf.points.sort(key=lambda p: p.x)
        leaf.queue = self._leaf_queue(leaf.points)
        self.storage.write(leaf_id, leaf)
        self._count += 1
        if len(leaf.points) > 2 * self.leaf_capacity:
            self._split_leaf(path)
        self._refresh_path(point.x)

    def delete(self, point: Point) -> bool:
        """Delete the point with ``point``'s coordinates; returns success.

        Among coordinate twins, a stored point whose ``ident`` equals
        ``point.ident`` is preferred, so the structure removes the same
        identity as every other structure indexing the same point set
        (the facade's right-open structure stores the axis-swapped copy of
        each point, and the swap preserves ``ident``).
        """
        self._require_dynamic()
        path = self._descend(point.x)
        leaf_id, leaf = path[-1]
        victim = resolve_victim_index(leaf.points, point)
        if victim is None:
            return False
        del leaf.points[victim]
        leaf.queue = self._leaf_queue(leaf.points)
        self.storage.write(leaf_id, leaf)
        self._count -= 1
        self._refresh_path(point.x)
        return True

    def _require_dynamic(self) -> None:
        if not self.dynamic:
            raise TypeError(
                "this structure was packed statically; pass dynamic=True to update it"
            )

    def _descend(self, x: float) -> List[Tuple[int, object]]:
        path: List[Tuple[int, object]] = []
        node_id = self.root_id
        while True:
            node = self.storage.read(node_id)
            path.append((node_id, node))
            if node.is_leaf:
                return path
            node_id = node.children[node.child_index_for(x)]

    def _refresh_path(self, x: float) -> None:
        """Propagate the updated leaf queue to all ancestors of the leaf at ``x``."""
        path = self._descend(x)
        child_id, child = path[-1]
        for node_id, node in reversed(path[:-1]):
            index = node.children.index(child_id)
            # A separator only needs to upper-bound its subtree's x values.
            # When a delete empties the child, its x_max() degenerates to
            # -inf; keeping the old separator preserves the non-decreasing
            # separator order, otherwise an ancestor would report -inf as
            # the subtree maximum and range queries would skip siblings
            # that still hold points.
            new_max = child.x_max()
            if new_max != -math.inf:
                node.separators[index] = new_max
            node.child_queues[index] = child.queue
            node.queue = self._catenate(node.child_queues)
            self.storage.write(node_id, node)
            child_id, child = node_id, node

    def _split_leaf(self, path: List[Tuple[int, object]]) -> None:
        leaf_id, leaf = path[-1]
        mid = len(leaf.points) // 2
        right_points = leaf.points[mid:]
        leaf.points = leaf.points[:mid]
        leaf.queue = self._leaf_queue(leaf.points)
        self.storage.write(leaf_id, leaf)
        right = _Leaf(points=right_points, queue=self._leaf_queue(right_points))
        right_id = self.storage.create(right)
        if len(path) == 1:
            root = _Internal(
                children=[leaf_id, right_id],
                separators=[leaf.x_max(), right.x_max()],
                child_queues=[leaf.queue, right.queue],
            )
            root.queue = self._catenate(root.child_queues)
            self.root_id = self.storage.create(root)
            return
        self._insert_child_after(path[:-1], leaf_id, right_id, right.x_max(), right.queue)

    def _insert_child_after(
        self,
        path: List[Tuple[int, object]],
        existing_id: int,
        new_id: int,
        new_separator: float,
        new_queue: IOCPQA,
    ) -> None:
        parent_id, parent = path[-1]
        index = parent.children.index(existing_id)
        existing = self.storage.read(existing_id)
        parent.separators[index] = existing.x_max()
        parent.child_queues[index] = existing.queue
        parent.children.insert(index + 1, new_id)
        parent.separators.insert(index + 1, new_separator)
        parent.child_queues.insert(index + 1, new_queue)
        parent.queue = self._catenate(parent.child_queues)
        self.storage.write(parent_id, parent)
        if len(parent.children) > 2 * self.fanout:
            self._split_internal(path)

    def _split_internal(self, path: List[Tuple[int, object]]) -> None:
        node_id, node = path[-1]
        mid = len(node.children) // 2
        right = _Internal(
            children=node.children[mid:],
            separators=node.separators[mid:],
            child_queues=node.child_queues[mid:],
        )
        right.queue = self._catenate(right.child_queues)
        node.children = node.children[:mid]
        node.separators = node.separators[:mid]
        node.child_queues = node.child_queues[:mid]
        node.queue = self._catenate(node.child_queues)
        self.storage.write(node_id, node)
        right_id = self.storage.create(right)
        if len(path) == 1:
            root = _Internal(
                children=[node_id, right_id],
                separators=[node.x_max(), right.x_max()],
                child_queues=[node.queue, right.queue],
            )
            root.queue = self._catenate(root.child_queues)
            self.root_id = self.storage.create(root)
            return
        self._insert_child_after(path[:-1], node_id, right_id, right.x_max(), right.queue)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: RangeQuery) -> List[Point]:
        """Maxima inside a top-open rectangle, sorted by x."""
        if not query.is_top_open:
            raise ValueError("DynamicTopOpenStructure answers top-open queries only")
        return self.query_top_open(query.x_lo, query.x_hi, query.y_lo)

    def query_top_open(self, x_lo: float, x_hi: float, y_lo: float) -> List[Point]:
        """Answer ``[x_lo, x_hi] x [y_lo, inf[`` via queue concatenation."""
        if self._count == 0:
            return []
        queues = self._range_queues(self.root_id, x_lo, x_hi)
        combined = self._catenate(queues)
        threshold = -y_lo
        popped, _ = combined.pop_while(lambda key: key <= threshold)
        points = [payload for _, payload in popped]
        points.sort(key=lambda p: p.x)
        return points

    def _range_queues(
        self, node_id: int, x_lo: float, x_hi: float
    ) -> List[IOCPQA]:
        """Queues of the canonical decomposition of ``[x_lo, x_hi]`` under ``node_id``."""
        node = self.storage.read(node_id)
        if node.is_leaf:
            points = node.points
            lo = bisect_left(points, x_lo, key=_X)
            hi = bisect_right(points, x_hi, lo, key=_X)
            if lo == hi:
                return []
            if lo == 0 and hi == len(points) and node.queue is not None:
                return [node.queue]
            return [
                IOCPQA.build_in_memory(
                    self.storage,
                    [(-p.y, p) for p in points[lo:hi]],
                    self.record_capacity,
                )
            ]
        queues: List[IOCPQA] = []
        separators = node.separators
        # Separators are non-decreasing (see _refresh_path), so every
        # child before the first whose separator reaches x_lo holds only
        # points left of x_lo.
        for index in range(bisect_left(separators, x_lo), len(node.children)):
            # The child's points all have x in (prev_sep, child_hi].
            prev_sep = separators[index - 1] if index > 0 else -math.inf
            child_hi = separators[index]
            if prev_sep >= x_hi:
                break
            if prev_sep >= x_lo and child_hi <= x_hi:
                # Canonical node: its whole subtree is inside the x-range, so
                # its pre-built queue (stored in this block) is used directly.
                queue = node.child_queues[index]
                if queue is not None:
                    queues.append(queue)
                continue
            queues.extend(self._range_queues(node.children[index], x_lo, x_hi))
        return queues

    # ------------------------------------------------------------------
    # Accounting / introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def height(self) -> int:
        """Number of levels of the base tree."""
        levels = 1
        node = self.storage.read(self.root_id)
        while not node.is_leaf:
            levels += 1
            node = self.storage.read(node.children[0])
        return levels

    def global_skyline(self) -> List[Point]:
        """The skyline of the whole point set (the root queue's content)."""
        root = self.storage.read(self.root_id)
        queue = root.queue
        if queue is None:
            return []
        return sorted((payload for _, payload in queue.items()), key=lambda p: p.x)


def dynamic_query_bound(n: int, k: int, block_size: int, epsilon: float) -> float:
    """The theoretical query bound ``log_{2B^eps}(n/B) + k/B^{1-eps}``."""
    blocks = max(2, n // max(1, block_size))
    base = max(2.0, 2 * block_size ** epsilon)
    return math.log(blocks, base) + k / max(1.0, block_size ** (1.0 - epsilon)) + 1.0


def dynamic_update_bound(n: int, block_size: int, epsilon: float) -> float:
    """The theoretical update bound ``log_{2B^eps}(n/B)``."""
    blocks = max(2, n // max(1, block_size))
    base = max(2.0, 2 * block_size ** epsilon)
    return math.log(blocks, base) + 1.0
