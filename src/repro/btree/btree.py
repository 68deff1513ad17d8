"""A disk-resident B-tree with optional subtree aggregation.

Every node lives in its own simulated block, so the I/O cost of a search is
the height ``O(log_B n)``, an insertion or deletion costs ``O(log_B n)``
reads plus the writes along the path, and a range scan over ``k`` results
costs ``O(log_B n + k/B)`` thanks to leaf sibling pointers.

The optional ``aggregate`` hook maintains, for every child of an internal
node, a summary of that child's subtree (``max`` for the range-max tree of
Theorem 1).  :meth:`BTree.range_aggregate` then answers "max over a key
range" style queries along two root-to-leaf paths.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.btree.node import InternalNode, LeafNode
from repro.em.storage import StorageManager


class BTree:
    """An external-memory B-tree mapping totally ordered keys to values."""

    def __init__(
        self,
        storage: StorageManager,
        leaf_capacity: Optional[int] = None,
        fanout: Optional[int] = None,
        aggregate: Optional[Callable[[List[Any]], Any]] = None,
    ) -> None:
        self.storage = storage
        self.leaf_capacity = leaf_capacity or storage.block_size
        self.fanout = fanout or storage.block_size
        if self.leaf_capacity < 2 or self.fanout < 4:
            raise ValueError("leaf_capacity must be >= 2 and fanout >= 4")
        self.aggregate = aggregate
        self._count = 0
        self.root_id = self.storage.create(LeafNode())

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def is_empty(self) -> bool:
        return self._count == 0

    def height(self) -> int:
        """Number of levels (1 for a single leaf)."""
        levels = 1
        node = self.storage.read(self.root_id)
        while not node.is_leaf:
            levels += 1
            node = self.storage.read(node.children[0])
        return levels

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: Any) -> Optional[Any]:
        """The value stored under ``key`` or ``None``."""
        leaf = self._find_leaf(key)
        index = _lower_bound(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return None

    def __contains__(self, key: Any) -> bool:
        return self.search(key) is not None

    def predecessor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """The largest ``(key', value)`` with ``key' <= key``."""
        return self._boundary_entry(key, want_predecessor=True)

    def successor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """The smallest ``(key', value)`` with ``key' >= key``."""
        return self._boundary_entry(key, want_predecessor=False)

    def min_entry(self) -> Optional[Tuple[Any, Any]]:
        """The smallest key together with its value."""
        node = self.storage.read(self.root_id)
        while not node.is_leaf:
            node = self.storage.read(node.children[0])
        if node.keys:
            return node.keys[0], node.values[0]
        return None

    def max_entry(self) -> Optional[Tuple[Any, Any]]:
        """The largest key together with its value."""
        node = self.storage.read(self.root_id)
        while not node.is_leaf:
            node = self.storage.read(node.children[-1])
        if node.keys:
            return node.keys[-1], node.values[-1]
        return None

    def range_scan(self, key_lo: Any, key_hi: Any) -> Iterator[Tuple[Any, Any]]:
        """All ``(key, value)`` pairs with ``key_lo <= key <= key_hi``.

        Walks leaf sibling pointers, so the cost is ``O(log_B n + k/B)``.
        """
        leaf = self._find_leaf(key_lo)
        while leaf is not None:
            for key, value in zip(leaf.keys, leaf.values):
                if key > key_hi:
                    return
                if key >= key_lo:
                    yield key, value
            if leaf.next_leaf is None:
                return
            leaf = self.storage.read(leaf.next_leaf)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All entries in key order."""
        return self.range_scan(float("-inf"), float("inf"))

    def range_aggregate(self, key_lo: Any, key_hi: Any) -> Optional[Any]:
        """The aggregate of all values with keys in ``[key_lo, key_hi]``.

        Requires the tree to have been built with an ``aggregate`` hook.
        Visits the two boundary root-to-leaf paths and combines whole-subtree
        aggregates in between: ``O(log_B n)`` I/Os.  Inside a node the
        range is found by bisection, and the hook runs once over the values
        and stored aggregates a child-by-child walk would collect, in the
        same order, so the answer does not depend on the hook.
        """
        if self.aggregate is None:
            raise ValueError("tree was built without an aggregate function")
        collected: List[Any] = []
        self._collect_range_aggregate(self.root_id, key_lo, key_hi, collected)
        if not collected:
            return None
        return self.aggregate(collected)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert (or overwrite) ``key`` with ``value``."""
        result = self._insert(self.root_id, key, value)
        if result is not None:
            separator, new_child_id = result
            old_root_id = self.root_id
            root = InternalNode(
                children=[old_root_id, new_child_id],
                separators=[separator, self._subtree_max_key(new_child_id)],
                aggregates=[
                    self._subtree_aggregate(old_root_id),
                    self._subtree_aggregate(new_child_id),
                ],
            )
            self.root_id = self.storage.create(root)

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns whether it was present."""
        removed = self._delete(self.root_id, key)
        if removed:
            root = self.storage.read(self.root_id)
            if not root.is_leaf and len(root.children) == 1:
                only_child = root.children[0]
                self.storage.free(self.root_id)
                self.root_id = only_child
        return removed

    # ------------------------------------------------------------------
    # Internal helpers: search
    # ------------------------------------------------------------------
    def _find_leaf(self, key: Any) -> LeafNode:
        node = self.storage.read(self.root_id)
        while not node.is_leaf:
            node = self.storage.read(node.children[node.child_index_for(key)])
        return node

    def _boundary_entry(
        self, key: Any, want_predecessor: bool
    ) -> Optional[Tuple[Any, Any]]:
        leaf = self._find_leaf(key)
        if want_predecessor:
            best: Optional[Tuple[Any, Any]] = None
            for k, v in zip(leaf.keys, leaf.values):
                if k <= key:
                    best = (k, v)
            if best is not None:
                return best
            # The predecessor may live in an earlier leaf; walk down again
            # along the max path of the left part of the tree.
            return self._predecessor_slow(key)
        for k, v in zip(leaf.keys, leaf.values):
            if k >= key:
                return (k, v)
        if leaf.next_leaf is not None:
            next_leaf = self.storage.read(leaf.next_leaf)
            if next_leaf.keys:
                return next_leaf.keys[0], next_leaf.values[0]
        return None

    def _predecessor_slow(self, key: Any) -> Optional[Tuple[Any, Any]]:
        best: Optional[Tuple[Any, Any]] = None
        node = self.storage.read(self.root_id)
        while not node.is_leaf:
            chosen = 0
            for index, separator in enumerate(node.separators):
                if separator <= key or index == 0:
                    chosen = index
                if separator > key:
                    break
            # Prefer the rightmost child whose subtree can contain keys <= key.
            candidate = node.child_index_for(key)
            node = self.storage.read(node.children[max(chosen, min(candidate, len(node.children) - 1))])
        for k, v in zip(node.keys, node.values):
            if k <= key:
                best = (k, v)
        return best

    def _collect_range_aggregate(
        self, node_id: int, key_lo: Any, key_hi: Any, out: List[Any]
    ) -> None:
        node = self.storage.read(node_id)
        if node.is_leaf:
            keys = node.keys
            lo = bisect_left(keys, key_lo)
            out.extend(node.values[lo : bisect_right(keys, key_hi, lo)])
            return
        # Separators are subtree maxima: children before ``first`` hold
        # only keys below ``key_lo``, children after ``stop`` only keys
        # above ``key_hi``, and every child strictly between them lies
        # wholly inside the range.
        separators = node.separators
        first = bisect_left(separators, key_lo)
        last = len(node.children) - 1
        if first > last or (first > 0 and separators[first - 1] > key_hi):
            return
        stop = min(bisect_left(separators, key_hi, first), last)
        self._collect_child_aggregate(node, first, key_lo, key_hi, out)
        if stop > first:
            out.extend(node.aggregates[first + 1 : stop])
            self._collect_child_aggregate(node, stop, key_lo, key_hi, out)

    def _collect_child_aggregate(
        self, node: InternalNode, index: int, key_lo: Any, key_hi: Any, out: List[Any]
    ) -> None:
        """The stored aggregate of child ``index`` when its whole subtree
        lies in the range, else what its subtree contributes."""
        prev_max = node.separators[index - 1] if index > 0 else -math.inf
        if prev_max >= key_lo and node.separators[index] <= key_hi:
            out.append(node.aggregates[index])
        else:
            self._collect_range_aggregate(node.children[index], key_lo, key_hi, out)

    # ------------------------------------------------------------------
    # Internal helpers: insertion
    # ------------------------------------------------------------------
    def _insert(
        self, node_id: int, key: Any, value: Any
    ) -> Optional[Tuple[Any, int]]:
        node = self.storage.read(node_id)
        if node.is_leaf:
            return self._insert_into_leaf(node_id, node, key, value)
        index = node.child_index_for(key)
        child_id = node.children[index]
        split = self._insert(child_id, key, value)
        node.separators[index] = self._subtree_max_key(child_id)
        node.aggregates[index] = self._subtree_aggregate(child_id)
        if split is not None:
            separator, new_child_id = split
            node.separators[index] = separator
            node.aggregates[index] = self._subtree_aggregate(child_id)
            node.children.insert(index + 1, new_child_id)
            node.separators.insert(index + 1, self._subtree_max_key(new_child_id))
            node.aggregates.insert(index + 1, self._subtree_aggregate(new_child_id))
        self.storage.write(node_id, node)
        if len(node.children) > self.fanout:
            return self._split_internal(node_id, node)
        return None

    def _insert_into_leaf(
        self, node_id: int, leaf: LeafNode, key: Any, value: Any
    ) -> Optional[Tuple[Any, int]]:
        index = _lower_bound(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value
        else:
            leaf.keys.insert(index, key)
            leaf.values.insert(index, value)
            self._count += 1
        self.storage.write(node_id, leaf)
        if len(leaf.keys) > self.leaf_capacity:
            return self._split_leaf(node_id, leaf)
        return None

    def _split_leaf(self, node_id: int, leaf: LeafNode) -> Tuple[Any, int]:
        mid = len(leaf.keys) // 2
        right = LeafNode(
            keys=leaf.keys[mid:], values=leaf.values[mid:], next_leaf=leaf.next_leaf
        )
        right_id = self.storage.create(right)
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        leaf.next_leaf = right_id
        self.storage.write(node_id, leaf)
        return leaf.keys[-1], right_id

    def _split_internal(self, node_id: int, node: InternalNode) -> Tuple[Any, int]:
        mid = len(node.children) // 2
        right = InternalNode(
            children=node.children[mid:],
            separators=node.separators[mid:],
            aggregates=node.aggregates[mid:],
        )
        right_id = self.storage.create(right)
        node.children = node.children[:mid]
        node.separators = node.separators[:mid]
        node.aggregates = node.aggregates[:mid]
        self.storage.write(node_id, node)
        return node.separators[-1], right_id

    # ------------------------------------------------------------------
    # Internal helpers: deletion
    # ------------------------------------------------------------------
    def _delete(self, node_id: int, key: Any) -> bool:
        node = self.storage.read(node_id)
        if node.is_leaf:
            index = _lower_bound(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return False
            del node.keys[index]
            del node.values[index]
            self._count -= 1
            self.storage.write(node_id, node)
            return True
        index = node.child_index_for(key)
        child_id = node.children[index]
        removed = self._delete(child_id, key)
        if not removed:
            return False
        child = self.storage.read(child_id)
        if self._underflowing(child):
            self._rebalance_child(node_id, node, index)
            node = self.storage.read(node_id)
        else:
            node.separators[index] = self._subtree_max_key(child_id)
            node.aggregates[index] = self._subtree_aggregate(child_id)
            self.storage.write(node_id, node)
        return True

    def _underflowing(self, node: Any) -> bool:
        if node.is_leaf:
            return len(node.keys) < max(1, self.leaf_capacity // 4)
        return len(node.children) < max(2, self.fanout // 4)

    def _rebalance_child(
        self, parent_id: int, parent: InternalNode, index: int
    ) -> None:
        """Merge an underflowing child with a sibling (splitting again if fat)."""
        sibling_index = index - 1 if index > 0 else index + 1
        if sibling_index < 0 or sibling_index >= len(parent.children):
            # Single child: nothing to merge with; just refresh metadata.
            child_id = parent.children[index]
            parent.separators[index] = self._subtree_max_key(child_id)
            parent.aggregates[index] = self._subtree_aggregate(child_id)
            self.storage.write(parent_id, parent)
            return
        left_index, right_index = sorted((index, sibling_index))
        left_id = parent.children[left_index]
        right_id = parent.children[right_index]
        left = self.storage.read(left_id)
        right = self.storage.read(right_id)
        if left.is_leaf:
            merged_keys = left.keys + right.keys
            merged_values = left.values + right.values
            if len(merged_keys) <= self.leaf_capacity:
                left.keys, left.values = merged_keys, merged_values
                left.next_leaf = right.next_leaf
                self.storage.write(left_id, left)
                self._drop_child(parent, right_index)
                self.storage.free(right_id)
            else:
                mid = len(merged_keys) // 2
                left.keys, left.values = merged_keys[:mid], merged_values[:mid]
                right.keys, right.values = merged_keys[mid:], merged_values[mid:]
                self.storage.write(left_id, left)
                self.storage.write(right_id, right)
        else:
            merged_children = left.children + right.children
            merged_separators = left.separators + right.separators
            merged_aggregates = left.aggregates + right.aggregates
            if len(merged_children) <= self.fanout:
                left.children = merged_children
                left.separators = merged_separators
                left.aggregates = merged_aggregates
                self.storage.write(left_id, left)
                self._drop_child(parent, right_index)
                self.storage.free(right_id)
            else:
                mid = len(merged_children) // 2
                left.children = merged_children[:mid]
                left.separators = merged_separators[:mid]
                left.aggregates = merged_aggregates[:mid]
                right.children = merged_children[mid:]
                right.separators = merged_separators[mid:]
                right.aggregates = merged_aggregates[mid:]
                self.storage.write(left_id, left)
                self.storage.write(right_id, right)
        self._refresh_child_metadata(parent, left_index)
        if right_index < len(parent.children):
            self._refresh_child_metadata(parent, right_index)
        self.storage.write(parent_id, parent)

    def _drop_child(self, parent: InternalNode, index: int) -> None:
        del parent.children[index]
        del parent.separators[index]
        del parent.aggregates[index]

    def _refresh_child_metadata(self, parent: InternalNode, index: int) -> None:
        child_id = parent.children[index]
        parent.separators[index] = self._subtree_max_key(child_id)
        parent.aggregates[index] = self._subtree_aggregate(child_id)

    # ------------------------------------------------------------------
    # Subtree metadata
    # ------------------------------------------------------------------
    def _subtree_max_key(self, node_id: int) -> Any:
        node = self.storage.read(node_id)
        if node.is_leaf:
            return node.keys[-1] if node.keys else float("-inf")
        return node.separators[-1] if node.separators else float("-inf")

    def _subtree_aggregate(self, node_id: int) -> Any:
        if self.aggregate is None:
            return None
        node = self.storage.read(node_id)
        if node.is_leaf:
            return self.aggregate(node.values) if node.values else None
        present = [agg for agg in node.aggregates if agg is not None]
        return self.aggregate(present) if present else None


def _lower_bound(keys: List[Any], key: Any) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo
