"""High-level facade routing each query variant to the right structure.

The paper separates the *easy* variants (top-open, right-open, dominance,
contour -- answerable in O(log_B n + k/B) or better) from the *hard* ones
(left-open, bottom-open, anti-dominance and general 4-sided -- which
provably require Omega((n/B)^eps + k/B) I/Os with linear space).
:class:`RangeSkylineIndex` mirrors that separation: it keeps one top-open
structure for each "easy" orientation and a 4-sided structure for everything
else, and dispatches on the shape of the query rectangle.

Right-open queries are served by a top-open structure over the
coordinate-swapped point set (dominance is symmetric under swapping the
axes), exactly as Theorem 6 uses right-open structures internally.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.point import Point, resolve_victim_index
from repro.core.queries import RangeQuery, classify
from repro.em.storage import StorageManager
from repro.structures.dynamic_topopen import DynamicTopOpenStructure
from repro.structures.foursided import FourSidedStructure
from repro.structures.topopen_static import StaticTopOpenStructure


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
        are supported); otherwise the static structures of Theorems 1 and 6
        are used and updates raise ``TypeError``.
    epsilon:
        The query/update trade-off knob of Theorems 4 and 6.
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
        swapped = [_swap(p) for p in self.points]
        if dynamic:
            self._top_open = DynamicTopOpenStructure(
                storage, points=self.points, epsilon=epsilon
            )
            self._right_open = DynamicTopOpenStructure(
                storage, points=swapped, epsilon=epsilon
            )
        else:
            self._top_open = StaticTopOpenStructure(storage, self.points)
            self._right_open = StaticTopOpenStructure(storage, swapped)
        self._four_sided = FourSidedStructure(storage, self.points, epsilon=max(0.25, epsilon))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, query: RangeQuery) -> List[Point]:
        """Maxima of the indexed points inside ``query``, sorted by x."""
        if not self.points:
            return []
        label = classify(query)
        if label in ("top-open", "dominance", "contour", "unbounded", "1-sided"):
            return self._top_open.query_top_open(query.x_lo, query.x_hi, query.y_lo)
        if label == "right-open":
            swapped = self._right_open.query_top_open(query.y_lo, query.y_hi, query.x_lo)
            return sorted((_swap(p) for p in swapped), key=lambda p: p.x)
        # Left-open, bottom-open, anti-dominance, slabs and 4-sided queries
        # are exactly as hard as the general case (Theorem 5), so they all go
        # to the 4-sided structure (Theorem 6).
        return self._four_sided.query_four_sided(
            query.x_lo, query.x_hi, query.y_lo, query.y_hi
        )

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
        """Insert a point (requires ``dynamic=True``)."""
        self._require_dynamic()
        self.points.append(point)
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

        The facade floors the knob at 0.25 for the 4-sided structure
        (very small epsilons make its base-tree fanout degenerate); the
        engine's planner quotes this value when instantiating Theorem 6's
        bound.
        """
        return self._four_sided.epsilon
