"""Node payload and entry layout of the multiversion B-tree.

An entry is a plain tuple ``(key, start, end, value)``.  For leaf nodes
``value`` is the stored payload; for internal nodes it is the block id of
a child.  The entry is *live* during the half-open version interval
``[start, end)``; ``end = inf`` means it has not been (logically) deleted
yet, and ending an entry replaces its tuple in the node's list.

Entries are tuples rather than class instances because CPython stops
tracking a tuple of atomic values (numbers, strings) at its first
collection: a tree whose keys and values are numbers adds one tracked
node per block, not one tracked object per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Tuple

INF = math.inf

#: ``(key, start, end, value)``.
Entry = Tuple[Any, float, float, Any]


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
    entries: List[Entry] = field(default_factory=list)
    live: int = field(init=False)

    def __post_init__(self) -> None:
        self.live = sum(1 for entry in self.entries if entry[2] == INF)

    def record_size(self) -> int:
        """Size in records (one per entry)."""
        return max(1, len(self.entries))

    def live_entries(self, version: float = INF) -> List[Entry]:
        """Entries alive at ``version`` (current version by default)."""
        if version == INF:
            return [entry for entry in self.entries if entry[2] == INF]
        return [entry for entry in self.entries if entry[1] <= version < entry[2]]

    def end_live(self, version: float) -> List[Entry]:
        """End every currently live entry at ``version``; returns them as
        they were before, in list order."""
        entries = self.entries
        ended: List[Entry] = []
        for index, entry in enumerate(entries):
            if entry[2] == INF:
                ended.append(entry)
                entries[index] = (entry[0], entry[1], version, entry[3])
        self.live = 0
        return ended

    def live_count(self) -> int:
        """Number of currently live entries."""
        return self.live

    def __len__(self) -> int:
        return len(self.entries)
