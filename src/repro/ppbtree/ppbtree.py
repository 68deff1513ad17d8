"""The multiversion (partially persistent) B-tree.

Updates are applied to the *current* version, which must be non-decreasing
over the lifetime of the tree (the sweep over x-coordinates guarantees
this).  Past versions remain queryable forever: ``range_query(version, lo,
hi)`` and ``scan_from(version, lo, visitor)`` run against the snapshot
B-tree of ``version`` in ``O(log_B n + k/B)`` I/Os, because every node
guarantees a minimum number of entries alive at each version it spans
(the weak version condition of Becker et al.).
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Callable, List, Optional, Tuple

from repro.em.storage import StorageManager
from repro.ppbtree.nodes import INF, Entry, MVNode

# Every node keeps its entries in this order, so searches bisect instead of
# sorting and a live filter of ``entries`` is already in key order.
_entry_order = itemgetter(0, 1)
_entry_key = itemgetter(0)
_root_start = itemgetter(0)


class MultiversionBTree:
    """A partially persistent B-tree over totally ordered keys."""

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage
        (
            self.capacity,
            self.live_min,
            self.strong_low,
            self.strong_high,
        ) = self.node_limits(storage.block_size)
        # roots[i] = (first version covered, block id); kept sorted by version.
        self.roots: List[Tuple[float, int]] = []
        self.current_version = -INF
        self.update_count = 0
        self.version_copies = 0

    @staticmethod
    def node_limits(block_size: int) -> Tuple[int, int, int, int]:
        """``(capacity, live_min, strong_low, strong_high)`` of a node in a
        block of ``block_size`` records; ``ValueError`` below B = 8."""
        # A restructuring step adds up to two routers to a parent before it
        # checks the parent's capacity, so a node at capacity must still fit
        # its block with two more entries.  From B = 12 up a node keeps four
        # entries of slack.
        capacity = min(max(8, block_size - 4), block_size - 2)
        live_min = max(2, capacity // 5)
        strong_low = max(live_min + 1, (2 * capacity) // 5)
        strong_high = max(strong_low + 2, (4 * capacity) // 5)
        if strong_high >= capacity:
            # A version copy that does not split must leave room for the
            # insert that caused it, or the insert would copy forever.
            raise ValueError(
                f"block size {block_size} is too small for a multiversion "
                "B-tree node (the strong version condition needs B >= 8)"
            )
        return capacity, live_min, strong_low, strong_high

    # ------------------------------------------------------------------
    # Updates (applied at non-decreasing versions)
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any, version: float) -> None:
        """Insert ``key -> value`` effective from ``version`` on."""
        self._advance_version(version)
        self.update_count += 1
        entry = (key, version, INF, value)
        if not self.roots:
            root = MVNode(is_leaf=True, entries=[entry])
            root_id = self.storage.create(root)
            self.roots.append((version, root_id))
            return
        while True:
            path = self._descend_current(key)
            leaf_id, leaf = path[-1]
            if len(leaf.entries) + 1 > self.capacity:
                self._restructure(path, version)
                continue
            bisect.insort(leaf.entries, entry, key=_entry_order)
            leaf.live += 1
            self.storage.write(leaf_id, leaf)
            return

    def delete(self, key: Any, version: float) -> bool:
        """Logically delete the live entry with ``key`` as of ``version``."""
        self._advance_version(version)
        if not self.roots:
            return False
        self.update_count += 1
        path = self._descend_current(key)
        leaf_id, leaf = path[-1]
        entries = leaf.entries
        index = bisect.bisect_left(entries, key, key=_entry_key)
        while index < len(entries) and entries[index][0] == key:
            if entries[index][2] == INF:
                break
            index += 1
        else:
            return False
        entry_key, start, _, value = entries[index]
        entries[index] = (entry_key, start, version, value)
        leaf.live -= 1
        self.storage.write(leaf_id, leaf)
        if leaf.live < self.live_min and len(path) > 1:
            self._restructure(path, version)
        return True

    def _advance_version(self, version: float) -> None:
        if version < self.current_version:
            raise ValueError(
                f"versions must be non-decreasing: {version} < {self.current_version}"
            )
        self.current_version = version

    # ------------------------------------------------------------------
    # Queries against arbitrary versions
    # ------------------------------------------------------------------
    def root_for(self, version: float) -> Optional[int]:
        """Block id of the root of the snapshot at ``version``.

        The last root whose first version is ``<= version``; ``roots`` is
        sorted by version, so this is one bisection.
        """
        index = bisect.bisect_right(self.roots, version, key=_root_start)
        return self.roots[index - 1][1] if index else None

    def range_query(self, version: float, key_lo: Any, key_hi: Any) -> List[Any]:
        """Values of entries alive at ``version`` with key in ``[key_lo, key_hi]``."""
        results: List[Any] = []

        def visitor(key: Any, value: Any) -> bool:
            if key > key_hi:
                return False
            results.append(value)
            return True

        self.scan_from(version, key_lo, visitor)
        return results

    def scan_from(
        self, version: float, key_lo: Any, visitor: Callable[[Any, Any], bool]
    ) -> None:
        """Visit entries alive at ``version`` with key >= ``key_lo`` in key order.

        ``visitor(key, value)`` returns ``False`` to stop the scan.  Because
        every node on the snapshot holds Omega(capacity) live entries, the
        cost is ``O(log_B n + k/B)`` I/Os for ``k`` visited entries.
        """
        root_id = self.root_for(version)
        if root_id is None:
            return
        self._scan_node(root_id, version, key_lo, visitor)

    def _scan_node(
        self,
        node_id: int,
        version: float,
        key_lo: Any,
        visitor: Callable[[Any, Any], bool],
    ) -> bool:
        """Returns ``False`` when the visitor asked to stop."""
        node: MVNode = self.storage.read(node_id)
        live = node.live_entries(version)
        if node.is_leaf:
            for key, _, _, value in live:
                if key < key_lo:
                    continue
                if not visitor(key, value):
                    return False
            return True
        for index, entry in enumerate(live):
            upper = live[index + 1][0] if index + 1 < len(live) else INF
            # The child rooted at ``entry`` covers keys in [its key, upper)
            # within this snapshot; the first child also covers keys below
            # its router.
            if upper <= key_lo and index + 1 < len(live):
                continue
            if not self._scan_node(entry[3], version, key_lo, visitor):
                return False
        return True

    def snapshot_items(self, version: float) -> List[Tuple[Any, Any]]:
        """All (key, value) pairs alive at ``version`` in key order."""
        items: List[Tuple[Any, Any]] = []

        def visitor(key: Any, value: Any) -> bool:
            items.append((key, value))
            return True

        self.scan_from(version, -INF, visitor)
        return items

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def block_count(self) -> int:
        """Number of blocks ever created for this tree (the paper's space)."""
        return self._count_blocks()

    def _count_blocks(self) -> int:
        self.storage.flush()
        seen: set = set()
        stack = [root_id for _, root_id in self.roots]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            # repro: uncharged-io(space accounting walks every reachable block to count them; the paper's space bound is measured out-of-band, not charged as transfers)
            node: MVNode = self.storage.disk.peek(node_id)
            if not node.is_leaf:
                stack.extend(entry[3] for entry in node.entries)
        return len(seen)

    # ------------------------------------------------------------------
    # Descent and restructuring (the version-copy machinery)
    # ------------------------------------------------------------------
    def _descend_current(self, key: Any) -> List[Tuple[int, MVNode]]:
        """Path of (block id, node) from the current root to the target leaf."""
        root_id = self.roots[-1][1]
        path: List[Tuple[int, MVNode]] = []
        node_id = root_id
        while True:
            node: MVNode = self.storage.read(node_id)
            path.append((node_id, node))
            if node.is_leaf:
                return path
            # The last live router with key <= ``key``, else the first live
            # router (which also covers keys below it).
            entries = node.entries
            index = bisect.bisect_right(entries, key, key=_entry_key)
            while index and entries[index - 1][2] != INF:
                index -= 1
            if index:
                node_id = entries[index - 1][3]
            else:
                node_id = next(e for e in entries if e[2] == INF)[3]

    def _restructure(self, path: List[Tuple[int, MVNode]], version: float) -> None:
        """Version-copy the last node of ``path`` (merging / splitting as needed)."""
        node_id, node = path[-1]
        parent = path[-2] if len(path) > 1 else None
        self.version_copies += 1

        live = node.end_live(version)
        self.storage.write(node_id, node)
        copied = [(key, version, INF, value) for key, _, _, value in live]
        dead_ids = [node_id]

        # Merge with a live sibling when too few entries survive.
        if parent is not None and len(copied) < self.strong_low:
            sibling = self._take_sibling(parent, node_id, version)
            if sibling is not None:
                sibling_id, sibling_live = sibling
                copied.extend(
                    (key, version, INF, value) for key, _, _, value in sibling_live
                )
                dead_ids.append(sibling_id)

        copied.sort(key=_entry_key)
        new_nodes: List[Tuple[int, MVNode]] = []
        if len(copied) > self.strong_high:
            mid = len(copied) // 2
            halves = [copied[:mid], copied[mid:]]
        else:
            halves = [copied]
        for half in halves:
            new_node = MVNode(is_leaf=node.is_leaf, entries=half)
            new_id = self.storage.create(new_node)
            new_nodes.append((new_id, new_node))

        if parent is None:
            self._install_new_root(new_nodes, version)
            return
        parent_id, parent_node = parent
        # End the parent entries of every dead child and add routers for the
        # new nodes.
        parent_entries = parent_node.entries
        for index, (key, start, end, child_id) in enumerate(parent_entries):
            if end == INF and child_id in dead_ids:
                parent_entries[index] = (key, start, version, child_id)
                parent_node.live -= 1
        for new_id, new_node in new_nodes:
            router = new_node.entries[0][0] if new_node.entries else -INF
            bisect.insort(
                parent_entries, (router, version, INF, new_id), key=_entry_order
            )
            parent_node.live += 1
        self.storage.write(parent_id, parent_node)
        if (
            len(parent_node.entries) > self.capacity
            or parent_node.live < self.live_min
        ):
            self._restructure(path[:-1], version)

    def _take_sibling(
        self, parent: Tuple[int, MVNode], node_id: int, version: float
    ) -> Optional[Tuple[int, List[Entry]]]:
        """Pick a live sibling of ``node_id``, end its live entries, return them."""
        parent_id, parent_node = parent
        live_children = parent_node.live_entries()
        position = next(
            (i for i, e in enumerate(live_children) if e[3] == node_id), None
        )
        if position is None:
            return None
        sibling_entry: Optional[Entry] = None
        if position + 1 < len(live_children):
            sibling_entry = live_children[position + 1]
        elif position > 0:
            sibling_entry = live_children[position - 1]
        if sibling_entry is None:
            return None
        sibling_id = sibling_entry[3]
        sibling: MVNode = self.storage.read(sibling_id)
        sibling_live = sibling.end_live(version)
        self.storage.write(sibling_id, sibling)
        return sibling_id, sibling_live

    def _install_new_root(
        self, new_nodes: List[Tuple[int, MVNode]], version: float
    ) -> None:
        if len(new_nodes) == 1:
            self.roots.append((version, new_nodes[0][0]))
            return
        entries = []
        for new_id, new_node in new_nodes:
            router = new_node.entries[0][0] if new_node.entries else -INF
            entries.append((router, version, INF, new_id))
        is_leaf = False
        root = MVNode(is_leaf=is_leaf, entries=entries)
        root_id = self.storage.create(root)
        self.roots.append((version, root_id))
