"""Node and entry payloads of the multiversion B-tree."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List

INF = math.inf


@dataclass(slots=True)
class MVEntry:
    """A versioned entry.

    For leaf nodes ``value`` is the stored payload (a segment); for internal
    nodes it is the block id of a child.  The entry is *live* during the
    half-open version interval ``[start, end)``; ``end = inf`` means it has
    not been (logically) deleted yet.
    """

    key: Any
    start: float
    end: float = INF
    value: Any = None

    def alive_at(self, version: float) -> bool:
        """Whether the entry belongs to the snapshot of ``version``."""
        return self.start <= version < self.end

    @property
    def alive_now(self) -> bool:
        """Whether the entry is live in the current (latest) version."""
        return self.end == INF


@dataclass(slots=True)
class MVNode:
    """One block of the multiversion B-tree (leaf or internal).

    ``entries`` are kept in ``(key, start)`` order and ``live`` counts the
    entries alive in the current version.  ``live`` is counted once when the
    node is made; after that the tree adjusts both on every update, so
    inserts and deletes bisect instead of sorting and read ``live`` instead
    of rescanning.
    """

    is_leaf: bool
    entries: List[MVEntry] = field(default_factory=list)
    live: int = field(init=False)

    def __post_init__(self) -> None:
        self.live = sum(1 for entry in self.entries if entry.alive_now)

    def record_size(self) -> int:
        """Size in records (one per entry)."""
        return max(1, len(self.entries))

    def live_entries(self, version: float = INF) -> List[MVEntry]:
        """Entries alive at ``version`` (current version by default)."""
        if version == INF:
            return [entry for entry in self.entries if entry.alive_now]
        return [entry for entry in self.entries if entry.alive_at(version)]

    def live_count(self) -> int:
        """Number of currently live entries."""
        return self.live

    def __len__(self) -> int:
        return len(self.entries)
