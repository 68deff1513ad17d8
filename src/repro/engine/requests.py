"""Typed request objects: the engine's single write/read entry format.

Every call into :class:`repro.engine.SkylineEngine` is a request object.
A :class:`QueryRequest` wraps the query rectangle (any shape of Figure 2;
the variant is auto-classified via :func:`repro.core.queries.classify`)
plus serving options -- ``limit``/``cursor`` pagination and a consistency
hint -- and an :class:`UpdateRequest` names an insert or delete victim.
The streaming tier (:mod:`repro.stream`) adds two more shapes:
a :class:`StreamRequest` opens a resumable top-k iterator over a pinned
snapshot, and a :class:`SubscribeRequest` registers a continuous query
whose answer is pushed as deltas.  Requests are frozen dataclasses, so
they can be logged, hashed, retried and replayed verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.point import Point
from repro.core.queries import RangeQuery, classify

#: ``cached`` lets the backend serve from its (epoch-keyed, always
#: consistent) result cache; ``fresh`` forces recomputation from the
#: structures, e.g. to measure the paper's bounds without cache luck.
CONSISTENCY_LEVELS = ("cached", "fresh")

OP_INSERT = "insert"
OP_DELETE = "delete"


def _check_page_length(name: str, value: object) -> None:
    """A page length must be an ``int`` (not a ``bool``) of at least 1:
    anything else would reach pagination only after the query charged
    its I/O, or page by a rounded or infinite length."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class QueryRequest:
    """One range-skyline read.

    Attributes
    ----------
    rect:
        The (possibly unbounded) query rectangle.  Its Figure-2 variant is
        derived, never supplied: see :attr:`variant`.
    limit:
        Maximum number of points to return: ``None`` (all) or an ``int``
        of at least 1.  Results are in increasing x-order, so a truncated
        page is a prefix and the response carries a cursor for the rest.
    cursor:
        Resume token from a previous page: only points with ``x`` strictly
        greater than the cursor are returned.  Pass the previous
        :attr:`repro.engine.QueryResult.next_cursor` verbatim.
    consistency:
        ``"cached"`` (default) or ``"fresh"`` -- see
        :data:`CONSISTENCY_LEVELS`.
    """

    rect: RangeQuery = field(default_factory=RangeQuery)
    limit: Optional[int] = None
    cursor: Optional[float] = None
    consistency: str = "cached"

    def __post_init__(self) -> None:
        if self.limit is not None:
            _check_page_length("limit", self.limit)
        if self.cursor is not None and math.isnan(self.cursor):
            raise ValueError("cursor must not be NaN")
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_LEVELS}, "
                f"got {self.consistency!r}"
            )

    @property
    def variant(self) -> str:
        """The Figure-2 label of the rectangle (``classify(rect)``)."""
        return classify(self.rect)


@dataclass(frozen=True)
class UpdateRequest:
    """One write: insert a point, or delete a live point by coordinates.

    Deletes follow the one-victim semantics of the whole stack: among
    coordinate twins a point whose ``ident`` matches is preferred.  An
    insert's coordinates must be finite.
    """

    op: str
    point: Point

    def __post_init__(self) -> None:
        if self.op not in (OP_INSERT, OP_DELETE):
            raise ValueError(
                f"op must be {OP_INSERT!r} or {OP_DELETE!r}, got {self.op!r}"
            )
        if self.op == OP_INSERT and not (
            math.isfinite(self.point.x) and math.isfinite(self.point.y)
        ):
            raise ValueError(f"insert coordinates must be finite, got {self.point}")

    @classmethod
    def insert(cls, point: Point) -> "UpdateRequest":
        return cls(OP_INSERT, point)

    @classmethod
    def delete(cls, point: Point) -> "UpdateRequest":
        return cls(OP_DELETE, point)


@dataclass(frozen=True)
class StreamRequest:
    """One resumable top-k read: open an incremental iterator.

    Where a :class:`QueryRequest` with ``limit``/``cursor`` re-executes
    the rectangle for every page (and therefore observes updates that
    land between pages), a stream request pins a *component snapshot* at
    open time: the persistent I/O-CPQA descriptors (or the one result
    computed through the engine) are captured once, and every subsequent
    page pops from that immutable value.  Interleaved updates can neither
    tear a page nor make the iterator skip or repeat a point.  See
    :class:`repro.stream.ResumableTopK`.

    Attributes
    ----------
    rect:
        The query rectangle the snapshot answers.
    page_size:
        Points per :class:`~repro.engine.report.StreamPage`: an ``int`` of
        at least 1.
    consistency:
        Passed to the one snapshot-pinning query (``"cached"`` /
        ``"fresh"``, see :data:`CONSISTENCY_LEVELS`).
    """

    rect: RangeQuery = field(default_factory=RangeQuery)
    page_size: int = 16
    consistency: str = "cached"

    def __post_init__(self) -> None:
        _check_page_length("page_size", self.page_size)
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_LEVELS}, "
                f"got {self.consistency!r}"
            )

    @property
    def variant(self) -> str:
        """The Figure-2 label of the rectangle (``classify(rect)``)."""
        return classify(self.rect)


@dataclass(frozen=True)
class SubscribeRequest:
    """One continuous query: a standing rectangle answered by deltas.

    A subscription receives :class:`~repro.engine.report.SkylineDelta`
    notifications -- the points that *entered* and *left* the rectangle's
    skyline -- instead of full answers.  Recomputation is scoped by the
    per-shard ``(uid, write_version)`` generations the result cache
    already tracks: a subscription whose rectangle overlaps no written
    shard is skipped entirely, costing zero block transfers.  See
    :class:`repro.stream.SubscriptionManager`.

    Attributes
    ----------
    rect:
        The standing query rectangle.
    consistency:
        Consistency of each recomputation (``"cached"`` / ``"fresh"``).
    initial_snapshot:
        Whether registration delivers the current skyline as the first
        delta (every point "entering"); with ``False`` the subscriber
        starts from an empty replay state and only sees changes.
    """

    rect: RangeQuery = field(default_factory=RangeQuery)
    consistency: str = "cached"
    initial_snapshot: bool = True

    def __post_init__(self) -> None:
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_LEVELS}, "
                f"got {self.consistency!r}"
            )

    @property
    def variant(self) -> str:
        """The Figure-2 label of the rectangle (``classify(rect)``)."""
        return classify(self.rect)
