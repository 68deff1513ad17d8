"""Partially persistent (multiversion) B-tree -- the PPB-tree of Section 2.

The static top-open structure stores the segment set ``Sigma(P)`` in a
partially persistent B-tree keyed on y-coordinate, where a segment is
inserted at the version equal to its left endpoint's x-coordinate and
deleted at its right endpoint's x-coordinate.  A vertical-segment stabbing
query at ``x = alpha`` is then a range query on the snapshot B-tree of
version ``alpha``.

The implementation follows the multiversion B-tree of Becker et al. (the
reference the paper cites): entries are ``(key, start, end, value)``
tuples carrying version intervals, nodes are rebuilt by version copies
with strong-condition key splits / merges, and a small in-memory root
index maps versions to roots.
"""

from repro.ppbtree.nodes import MVNode
from repro.ppbtree.ppbtree import MultiversionBTree
from repro.ppbtree.build import build_segment_ppbtree, build_sigma_ppbtree, sweep_events

__all__ = [
    "MVNode",
    "MultiversionBTree",
    "build_segment_ppbtree",
    "build_sigma_ppbtree",
    "sweep_events",
]
