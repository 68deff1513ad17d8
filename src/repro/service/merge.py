"""Cross-shard and cross-component skyline merging.

Correctness of the shard merge (top-open semantics generalise to every
variant): shards partition the x-axis, so for a candidate ``p`` from shard
``i`` every potential dominator with strictly larger x lives in shard
``i`` itself or in a shard to the right.  Within the shard, ``p`` already
survived the local skyline computation.  Across shards the x-coordinate of
any right-shard point exceeds ``p.x``, hence it dominates ``p`` exactly
when its y is ``>= p.y``.  The highest point of ``Q ∩ shard_j`` is never
locally dominated, so it appears in shard ``j``'s local result -- meaning
the running maximum y over the local results of shards ``> i`` equals the
maximum y over *all* their points inside ``Q``.  A candidate therefore
survives globally iff its y strictly exceeds that running maximum, which
is what :func:`merge_shard_skylines` checks in one right-to-left pass.

Execution of both merges is columnar (:mod:`repro.core.columns`): the
per-object lambda sort became an argsort over parallel coordinate arrays
plus a vectorized running-max scan, with ``Point`` objects materialised
only at the response boundary.  The ``*_objects`` reference
implementations below are the semantics the kernels must reproduce --
``benchmarks/bench_hotpath.py`` times one against the other and
``tests/test_hotpath.py`` holds them identical under hypothesis.  All of
this is in-memory compute over resident candidates: no block transfers
happen on either path, so charging is untouched (see DESIGN.md,
"Columnar kernels and the charging boundary").
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.columns import (
    ColumnsLike,
    merge_skyline_sources,
    sweep_concatenated,
)
from repro.core.point import Point


def merge_shard_skylines(per_shard: Sequence[Sequence[Point]]) -> List[Point]:
    """Merge per-shard skylines (in increasing-x shard order) into one.

    Each element of ``per_shard`` must be the skyline of one shard's points
    inside the query, sorted by increasing x.  One right-to-left pass keeps
    a candidate iff its y strictly exceeds the maximum y seen in shards to
    its right; the result is the global skyline, sorted by increasing x.
    Because the concatenation of the inputs is already increasing-x sorted,
    the columnar kernel needs no sort at all -- one suffix-max scan.
    """
    return sweep_concatenated(per_shard)


def merge_shard_skylines_objects(
    per_shard: Sequence[Sequence[Point]],
) -> List[Point]:
    """Reference object-path shard merge (see :func:`merge_shard_skylines`).

    The running maximum is tracked inside the survivor scan itself -- each
    shard's results are visited exactly once per pass, with no second
    ``max()`` rescan.
    """
    parts: List[List[Point]] = []
    best_y = float("-inf")
    for results in reversed(per_shard):
        if not results:
            continue
        surviving: List[Point] = []
        top = best_y
        for p in results:
            if p.y > best_y:
                surviving.append(p)
            if p.y > top:
                top = p.y
        if surviving:
            parts.append(surviving)
        best_y = top
    parts.reverse()
    return [p for part in parts for p in part]


def merge_component_skylines(sources: Sequence[ColumnsLike]) -> List[Point]:
    """Merge candidate sets from overlapping components into one skyline.

    This is :func:`merge_shard_skylines` generalised from the x-disjoint
    shard partition to ``k + 1`` arbitrary sources -- the base-shard merge,
    one local answer per immutable level component, and the in-memory
    memtable candidates -- whose x-ranges overlap freely.  The same
    right-to-left running-max-y argument applies once the pass runs over
    the *union* in decreasing-x order: with globally distinct coordinates
    (the service's general-position invariant), a candidate survives in
    the union's skyline iff its y strictly exceeds the maximum y among all
    candidates of strictly larger x.  Sources need not be skylines
    themselves -- points dominated within their own source are dominated in
    the union too, so the sweep drops them the same way.  Every source
    must contain only points inside the query rectangle; a source may be a
    plain point sequence or a :class:`repro.core.columns.PointColumns`
    candidate set (components hand their columns over directly, skipping
    per-point extraction).  Returns the skyline sorted by increasing x.
    """
    return merge_skyline_sources(sources)


def merge_component_skylines_objects(
    sources: Sequence[Sequence[Point]],
) -> List[Point]:
    """Reference object-path component merge (lambda-keyed sort + sweep)."""
    candidates = [p for source in sources for p in source]
    candidates.sort(key=lambda p: (-p.x, -p.y))
    best_y = float("-inf")
    kept: List[Point] = []
    for point in candidates:
        if point.y > best_y:
            kept.append(point)
            best_y = point.y
    kept.reverse()
    return kept
