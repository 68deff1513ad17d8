"""High-level facade routing each query to the right structure.

The paper answers a rectangle whose top or right edge is grounded in
O(log_B n + k/B) I/Os (Theorem 1), and needs the O((n/B)^eps + k/B)
4-sided structure (Theorem 6) only for a rectangle that cuts both the top
and the right of the point set.  :class:`RangeSkylineIndex` keeps one
structure of each kind and routes with
:func:`repro.core.queries.choose_structure`, which reads the index's own
extent: a rectangle whose ``y_hi`` is at or above the largest indexed y
goes to the top-open structure, otherwise one whose ``x_hi`` is at or
beyond the largest indexed x goes to the right-open structure, and only
the rest go to the 4-sided structure.  The rule is exact: no indexed
point lies above ``y_max``, so dropping the condition ``y <= y_hi``
removes nothing (and likewise for x).  Slabs are easy cases of it: an
x-slab is top-open with ``y_lo = -inf``, a y-slab right-open with
``x_lo = -inf``.

Right-open queries are served by a top-open structure with the axes
exchanged (dominance is symmetric under swapping them), exactly as
Theorem 6 uses right-open structures internally.  A static index builds
it over its own points (:meth:`StaticTopOpenStructure.right_open`); a
dynamic one over a coordinate-swapped copy, which Theorem 4's structure
updates in place.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Optional, Sequence

from repro.core.point import Point, require_general_position, resolve_victim_index
from repro.core.queries import (
    INF,
    STRUCTURE_FOUR_SIDED,
    STRUCTURE_RIGHT_OPEN,
    STRUCTURE_TOP_OPEN,
    RangeQuery,
    choose_structure,
    classify,
)
from repro.em.storage import StorageManager
from repro.structures.dynamic_topopen import DynamicTopOpenStructure
from repro.structures.foursided import FourSidedStructure
from repro.structures.topopen_static import StaticTopOpenStructure


def structure_epsilon(structure: str, epsilon: float) -> float:
    """The epsilon ``structure`` runs with inside an index built with
    ``epsilon`` (the planner quotes it in the paper bounds).  The 4-sided
    structure's is floored at 0.25: smaller values make its base-tree
    fanout degenerate."""
    if structure == STRUCTURE_FOUR_SIDED:
        return max(0.25, epsilon)
    return epsilon


def _swap(point: Point) -> Point:
    return Point(point.y, point.x, point.ident)


class RangeSkylineIndex:
    """One index, every query variant of Figure 2, with the paper's costs.

    Parameters
    ----------
    storage:
        The simulated machine to charge I/Os to.
    points:
        The initial point set.
    dynamic:
        With ``dynamic=True`` the easy orientations are backed by the
        dynamic structure of Theorem 4 (so :meth:`insert` / :meth:`delete`
        are supported) and the 4-sided structure keeps room for in-place
        updates; otherwise the static structures of Theorems 1 and 6 are
        used, the 4-sided one packed full (see
        :mod:`repro.structures.foursided`), and updates raise ``TypeError``.
    epsilon:
        The query/update trade-off knob of Theorems 4 and 6.

    :attr:`x_max` and :attr:`y_max` are at or above the largest indexed
    coordinates; :meth:`query` routes on them.  Inserts raise them and
    deletes leave them, since any value at or above the true maximum
    still routes exactly.

    A dynamic index rejects, with ``ValueError`` before any I/O, points
    or an insert that would give two live points one x but different y
    (or one y but different x), which the structures answer wrongly.
    Exact coordinate twins stay: answers agree with
    :func:`repro.range_skyline` on their coordinates, and :meth:`delete`
    tells them apart by ``ident``.
    """

    def __init__(
        self,
        storage: StorageManager,
        points: Iterable[Point],
        dynamic: bool = False,
        epsilon: float = 0.5,
    ) -> None:
        self.storage = storage
        self.dynamic = dynamic
        self.epsilon = epsilon
        self.points: List[Point] = list(points)
        if dynamic:
            require_general_position([p.x for p in self.points], [p.y for p in self.points])
            # Live coordinates; only the last twin's delete frees them.
            self._xs = {p.x for p in self.points}
            self._ys = {p.y for p in self.points}
        self.x_max = max((p.x for p in self.points), default=-INF)
        self.y_max = max((p.y for p in self.points), default=-INF)
        if dynamic:
            self._top_open = DynamicTopOpenStructure(
                storage, points=self.points, epsilon=epsilon
            )
            self._right_open = DynamicTopOpenStructure(
                storage, points=[_swap(p) for p in self.points], epsilon=epsilon
            )
        else:
            self._top_open = StaticTopOpenStructure(storage, self.points)
            self._right_open = StaticTopOpenStructure.right_open(storage, self.points)
        self._four_sided = FourSidedStructure(
            storage,
            self.points,
            epsilon=structure_epsilon(STRUCTURE_FOUR_SIDED, epsilon),
            dynamic=dynamic,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: RangeQuery) -> List[Point]:
        """Maxima of the indexed points inside ``query``, sorted by x."""
        if not self.points:
            return []
        structure = self.route(query)
        if structure == STRUCTURE_TOP_OPEN:
            return self._top_open.query_top_open(query.x_lo, query.x_hi, query.y_lo)
        if structure == STRUCTURE_RIGHT_OPEN:
            found = self._right_open.query_top_open(query.y_lo, query.y_hi, query.x_lo)
            if self.dynamic:
                found = [_swap(p) for p in found]
            return sorted(found, key=attrgetter("x"))
        return self._four_sided.query_four_sided(
            query.x_lo, query.x_hi, query.y_lo, query.y_hi
        )

    def route(self, query: RangeQuery) -> str:
        """The structure :meth:`query` runs for ``query``: the extent rule
        of the module docstring, over this index's :attr:`x_max` and
        :attr:`y_max`.  The engine's planner calls it too."""
        return choose_structure(query, self.x_max, self.y_max)

    def query_many(self, queries: Sequence[RangeQuery]) -> List[List[Point]]:
        """Answer a batch of queries; ``result[i]`` answers ``queries[i]``.

        The batch is executed grouped by query variant and, within a group,
        in increasing ``x_lo`` order, so consecutive queries descend through
        the same structure along nearby root-to-leaf paths and reuse warm
        buffer-pool frames.  :class:`repro.service.SkylineService` exposes the
        same method, so callers can swap a monolithic index for the sharded
        service without changing the calling code.
        """
        order = sorted(
            range(len(queries)),
            key=lambda i: (classify(queries[i]), queries[i].x_lo, queries[i].y_lo),
        )
        results: List[Optional[List[Point]]] = [None] * len(queries)
        for i in order:
            results[i] = self.query(queries[i])
        return results  # type: ignore[return-value]

    def skyline(self) -> List[Point]:
        """The skyline of the whole point set."""
        return self._top_open.query_top_open(float("-inf"), float("inf"), float("-inf"))

    # ------------------------------------------------------------------
    # Updates (dynamic mode only)
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> None:
        """Insert a point (requires ``dynamic=True``); ``ValueError`` if
        it shares exactly one coordinate with a live point."""
        self._require_dynamic()
        taken = point.x in self._xs or point.y in self._ys
        if taken and resolve_victim_index(self.points, point) is None:
            raise ValueError(f"coordinate collision with a live point: {point}")
        self._xs.add(point.x)
        self._ys.add(point.y)
        self.points.append(point)
        self.x_max = max(self.x_max, point.x)
        self.y_max = max(self.y_max, point.y)
        self._top_open.insert(point)
        self._right_open.insert(_swap(point))
        self._four_sided.insert(point)

    def delete(self, point: Point) -> bool:
        """Delete a point by coordinates (requires ``dynamic=True``).

        Exactly one stored point is removed: among the points matching the
        coordinates, one whose ``ident`` equals ``point.ident`` is preferred,
        so deleting ``Point(x, y, 7)`` never silently drops a coordinate
        twin ``Point(x, y, 8)``.  The victim is resolved *once*, here, and
        the resolved point (with its stored ``ident``) is handed to every
        structure -- including the axis-swapped right-open structure, whose
        own delete also prefers an exact ``ident`` match -- so all three
        structures and the point list drop the same identity.
        """
        self._require_dynamic()
        victim_index = resolve_victim_index(self.points, point)
        if victim_index is None:
            return False
        victim = self.points[victim_index]
        removed = self._top_open.delete(victim)
        if removed:
            self._right_open.delete(_swap(victim))
            self._four_sided.delete(victim)
            del self.points[victim_index]
            if resolve_victim_index(self.points, victim) is None:
                self._xs.discard(victim.x)
                self._ys.discard(victim.y)
        return removed

    def _require_dynamic(self) -> None:
        if not self.dynamic:
            raise TypeError(
                "this index was built statically; pass dynamic=True to support updates"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    def io_total(self) -> int:
        """Block transfers charged to the underlying simulated machine so far."""
        return self.storage.io_total()

    @property
    def four_sided_epsilon(self) -> float:
        """The epsilon the 4-sided structure actually runs with.

        The facade floors the knob for the 4-sided structure (see
        :func:`structure_epsilon`, which the engine's planner also uses
        when instantiating Theorem 6's bound).
        """
        return self._four_sided.epsilon
