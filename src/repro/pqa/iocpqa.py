"""The I/O-efficient catenable priority queue with attrition (I/O-CPQA).

Semantics (Section 4.1 of the paper): the queue holds elements from a total
order; ``InsertAndAttrite`` and ``CatenateAndAttrite`` remove ("attrite")
every existing element that is >= the newly arriving minimum.  A direct
consequence is that the surviving content, read in queue order, is always a
*strictly increasing* sequence whose first element is the minimum.

Representation.  The paper organises surviving elements into records of
``Theta(b)`` elements arranged in several deques with a carefully
maintained potential so that every operation moves O(1) records in the
worst case.  This implementation reaches the same I/O bounds with a simpler
persistent representation (see DESIGN.md §5):

* elements live in immutable *record blocks* of at most ``record_capacity``
  sorted elements, each occupying one simulated disk block;
* a queue value is an immutable descriptor tree -- leaves reference record
  blocks through ``(block, offset, cap)`` views, inner nodes are
  concatenation nodes caching the minimum of their subtree;
* attrition never touches disk: truncating a queue below a value ``e``
  merely lowers the ``cap`` of one boundary leaf and drops whole subtrees
  whose cached minimum is >= ``e``;
* ``CatenateAndAttrite`` therefore costs zero block transfers,
  ``FindMin`` is answered from the cached minimum, ``DeleteMin`` reads each
  record block at most once across a run of consecutive deletions (O(1)
  worst case, O(1/b) amortized with the block cached), and
  ``InsertAndAttrite`` buffers up to ``record_capacity`` new elements in a
  pinned in-memory tail before writing one block (O(1/b) amortized writes).

All operations are *non-destructive*: they return new queue values that
share structure with their inputs, which is exactly the confluent
persistence the dynamic range-skyline structure of Section 4.2 requires.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.em.storage import StorageManager

Key = Any
Item = Tuple[Key, Any]

_INF = math.inf


# ----------------------------------------------------------------------
# Descriptor nodes (immutable, in-memory; record payloads live on disk)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _RecordLeaf:
    """A view ``block[offset:]`` restricted to keys strictly below ``cap``."""

    block_id: int
    offset: int
    cap: Key
    min_item: Item

    @property
    def min_key(self) -> Key:
        return self.min_item[0]


@dataclass(frozen=True)
class _MemLeaf:
    """A small run of elements that has not been written to disk yet."""

    items: Tuple[Item, ...]

    @property
    def min_item(self) -> Item:
        return self.items[0]

    @property
    def min_key(self) -> Key:
        return self.items[0][0]


@dataclass(frozen=True)
class _Concat:
    """Concatenation of two non-empty subqueues (left precedes right)."""

    left: "_Node"
    right: "_Node"

    @property
    def min_item(self) -> Item:
        return self.left.min_item

    @property
    def min_key(self) -> Key:
        return self.left.min_item[0]


_Node = Union[_RecordLeaf, _MemLeaf, _Concat]


class IOCPQA:
    """A persistent I/O-efficient catenable priority queue with attrition."""

    def __init__(
        self,
        storage: StorageManager,
        record_capacity: Optional[int] = None,
        _root: Optional[_Node] = None,
        _tail: Tuple[Item, ...] = (),
    ) -> None:
        self.storage = storage
        if record_capacity is not None and record_capacity < 1:
            raise ValueError("record_capacity must be >= 1")
        self.record_capacity = record_capacity or storage.block_size
        self._root = _root
        self._tail = _tail

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, storage: StorageManager, record_capacity: Optional[int] = None
    ) -> "IOCPQA":
        """A fresh empty queue."""
        return cls(storage, record_capacity)

    @classmethod
    def build(
        cls,
        storage: StorageManager,
        items: Sequence[Item],
        record_capacity: Optional[int] = None,
    ) -> "IOCPQA":
        """Build a queue from elements given in insertion (queue) order.

        Attrition is applied exactly as if the elements had been inserted
        one by one; the surviving increasing run is packed into full record
        blocks, so the construction writes ``O(survivors / b)`` blocks.
        """
        queue = cls(storage, record_capacity)
        return queue._from_sorted_run(_attrite_run(items))

    @classmethod
    def build_in_memory(
        cls,
        storage: StorageManager,
        items: Sequence[Item],
        record_capacity: Optional[int] = None,
    ) -> "IOCPQA":
        """Build a *temporary* queue whose records stay in memory.

        Used for the per-query queues over the O(B) in-range points of the
        two boundary leaves in the dynamic top-open structure: those points
        were just read from the leaf block, so wrapping them costs no
        further I/O (the queue lives only for the duration of the query).
        """
        queue = cls(storage, record_capacity)
        surviving = _attrite_run(items)
        if not surviving:
            return queue
        root = _MemLeaf(tuple(surviving))
        return cls(storage, queue.record_capacity, _root=root, _tail=())

    def _from_sorted_run(self, run: List[Item]) -> "IOCPQA":
        if not run:
            return IOCPQA(self.storage, self.record_capacity)
        capacity = self.record_capacity
        leaves: List[_Node] = []
        for start in range(0, len(run), capacity):
            chunk = run[start : start + capacity]
            block_id = self.storage.create(list(chunk))
            leaves.append(
                _RecordLeaf(block_id=block_id, offset=0, cap=_INF, min_item=chunk[0])
            )
        root = _balanced_concat(leaves)
        return IOCPQA(self.storage, self.record_capacity, _root=root, _tail=())

    def _like(self, root: Optional[_Node], tail: Tuple[Item, ...]) -> "IOCPQA":
        return IOCPQA(self.storage, self.record_capacity, _root=root, _tail=tail)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """Whether no surviving element remains."""
        return self._root is None and not self._tail

    def find_min(self) -> Optional[Item]:
        """The minimum (key, payload) without removing it; ``None`` if empty."""
        if self._root is not None:
            return self._root.min_item
        if self._tail:
            return self._tail[0]
        return None

    def min_key(self) -> Optional[Key]:
        """The minimum key, or ``None`` when empty."""
        item = self.find_min()
        return item[0] if item is not None else None

    # ------------------------------------------------------------------
    # Updates (persistent: each returns a new queue)
    # ------------------------------------------------------------------
    def delete_min(self) -> Tuple[Optional[Item], "IOCPQA"]:
        """Remove the minimum; returns ``(item, new_queue)``.

        ``item`` is ``None`` when the queue was empty (and the queue is
        returned unchanged).
        """
        if self._root is not None:
            item, new_root = self._delete_min_node(self._root)
            return item, self._like(new_root, self._tail)
        if self._tail:
            return self._tail[0], self._like(None, self._tail[1:])
        return None, self

    def insert_and_attrite(self, key: Key, payload: Any = None) -> "IOCPQA":
        """Insert ``key`` and attrite every element >= ``key``."""
        tail = self._tail
        root = self._root
        if tail and key > tail[0][0]:
            # The whole on-disk part survives (its keys are < tail[0] < key).
            cut = bisect.bisect_left([k for k, _ in tail], key)
            tail = tail[:cut] + ((key, payload),)
        else:
            # The tail is wiped out; truncate the tree part.
            root = _truncate(root, key)
            tail = ((key, payload),)
        queue = self._like(root, tail)
        if len(tail) >= self.record_capacity:
            queue = queue._flush_tail()
        return queue

    def catenate_and_attrite(self, other: "IOCPQA") -> "IOCPQA":
        """``{e in self | e < min(other)} ++ other`` as a new queue."""
        other_min = other.min_key()
        if other_min is None:
            return self
        my_min = self.min_key()
        if my_min is None or my_min >= other_min:
            # Everything in this queue is attrited.
            return self._like(other._root, other._tail)
        root = self._root
        tail = self._tail
        if tail and tail[0][0] < other_min:
            cut = bisect.bisect_left([k for k, _ in tail], other_min)
            tail = tail[:cut]
        else:
            root = _truncate(root, other_min)
            tail = ()
        surviving_self = _concat_nodes(root, _MemLeaf(tail) if tail else None)
        combined = _concat_nodes(surviving_self, other._root)
        return self._like(combined, other._tail)

    def _flush_tail(self) -> "IOCPQA":
        """Write the in-memory tail out as a record block."""
        if not self._tail:
            return self
        block_id = self.storage.create(list(self._tail))
        leaf = _RecordLeaf(
            block_id=block_id, offset=0, cap=_INF, min_item=self._tail[0]
        )
        return self._like(_concat_nodes(self._root, leaf), ())

    # ------------------------------------------------------------------
    # Bulk helpers used by the range-skyline structures
    # ------------------------------------------------------------------
    def pop_while(
        self, predicate: Callable[[Key], bool], limit: Optional[int] = None
    ) -> Tuple[List[Item], "IOCPQA"]:
        """Repeatedly DeleteMin while ``predicate(min_key)`` holds.

        Returns the popped items (in increasing key order) and the remaining
        queue.  This is exactly the reporting loop of the dynamic top-open
        query (Section 4.2).
        """
        popped: List[Item] = []
        queue = self
        while True:
            if limit is not None and len(popped) >= limit:
                break
            head = queue.find_min()
            if head is None or not predicate(head[0]):
                break
            item, queue = queue.delete_min()
            assert item is not None
            popped.append(item)
        return popped, queue

    def items(self) -> List[Item]:
        """All surviving elements in increasing key order (reads every record)."""
        result: List[Item] = []
        if self._root is not None:
            self._collect(self._root, result)
        result.extend(self._tail)
        return result

    def keys(self) -> List[Key]:
        """All surviving keys in increasing order."""
        return [key for key, _ in self.items()]

    def __len__(self) -> int:
        return len(self.items())

    def reachable_record_blocks(self) -> set:
        """The set of record block ids referenced by this queue value.

        The paper's space bound counts blocks holding surviving elements;
        this is the corresponding quantity for the persistent representation
        (shared blocks are counted once).
        """
        blocks: set = set()
        if self._root is not None:
            _collect_blocks(self._root, blocks)
        return blocks

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _delete_min_node(
        self, node: _Node
    ) -> Tuple[Item, Optional[_Node]]:
        if isinstance(node, _Concat):
            item, new_left = self._delete_min_node(node.left)
            if new_left is None:
                return item, node.right
            return item, _Concat(left=new_left, right=node.right)
        if isinstance(node, _MemLeaf):
            item = node.items[0]
            rest = node.items[1:]
            return item, (_MemLeaf(rest) if rest else None)
        # _RecordLeaf: read its block (one I/O, then cached by the pool).
        records: List[Item] = self.storage.read(node.block_id)
        item = records[node.offset]
        next_offset = node.offset + 1
        if next_offset < len(records) and records[next_offset][0] < node.cap:
            new_leaf = _RecordLeaf(
                block_id=node.block_id,
                offset=next_offset,
                cap=node.cap,
                min_item=records[next_offset],
            )
            return item, new_leaf
        return item, None

    def _collect(self, node: _Node, out: List[Item]) -> None:
        if isinstance(node, _Concat):
            self._collect(node.left, out)
            self._collect(node.right, out)
            return
        if isinstance(node, _MemLeaf):
            out.extend(node.items)
            return
        records: List[Item] = self.storage.read(node.block_id)
        for item in records[node.offset :]:
            if item[0] >= node.cap:
                break
            out.append(item)


# ----------------------------------------------------------------------
# Node-level helpers
# ----------------------------------------------------------------------
def _attrite_run(items: Sequence[Item]) -> List[Item]:
    """The survivors of inserting ``items`` one by one with attrition.

    The survivors form a strictly increasing stack, and a new key attrites
    exactly the suffix of keys ``>=`` it, so each element is pushed and
    popped at most once.
    """
    surviving: List[Item] = []
    for key, payload in items:
        while surviving and surviving[-1][0] >= key:
            surviving.pop()
        surviving.append((key, payload))
    return surviving


def _truncate(node: Optional[_Node], threshold: Key) -> Optional[_Node]:
    """Remove every element with key >= ``threshold`` (lazy, zero I/O)."""
    if node is None:
        return None
    if node.min_key >= threshold:
        return None
    if isinstance(node, _Concat):
        if node.right.min_key >= threshold:
            return _truncate(node.left, threshold)
        truncated_right = _truncate(node.right, threshold)
        return _concat_nodes(node.left, truncated_right)
    if isinstance(node, _MemLeaf):
        keys = [k for k, _ in node.items]
        cut = bisect.bisect_left(keys, threshold)
        return _MemLeaf(node.items[:cut]) if cut else None
    new_cap = threshold if threshold < node.cap else node.cap
    return _RecordLeaf(
        block_id=node.block_id,
        offset=node.offset,
        cap=new_cap,
        min_item=node.min_item,
    )


def _concat_nodes(left: Optional[_Node], right: Optional[_Node]) -> Optional[_Node]:
    if left is None:
        return right
    if right is None:
        return left
    return _Concat(left=left, right=right)


def _balanced_concat(leaves: List[_Node]) -> Optional[_Node]:
    """A balanced concatenation tree over a list of leaves."""
    if not leaves:
        return None
    if len(leaves) == 1:
        return leaves[0]
    mid = len(leaves) // 2
    left = _balanced_concat(leaves[:mid])
    right = _balanced_concat(leaves[mid:])
    return _concat_nodes(left, right)


def _collect_blocks(node: _Node, out: set) -> None:
    if isinstance(node, _Concat):
        _collect_blocks(node.left, out)
        _collect_blocks(node.right, out)
    elif isinstance(node, _RecordLeaf):
        out.add(node.block_id)


def iterate_items(queue: IOCPQA) -> Iterator[Item]:
    """Convenience iterator over a queue's surviving elements."""
    return iter(queue.items())
