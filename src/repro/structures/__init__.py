"""External-memory range-skyline structures (the paper's main results).

===========================  ==========================================
Structure                    Paper result
===========================  ==========================================
StaticTopOpenStructure       Theorem 1  (R^2, O(log_B n + k/B) query)
RayDragStructure             Lemma 4    (ray dragging in O(1) I/Os)
FewPointStructure            Lemma 5    (top-open on few points)
RankSpaceTopOpenStructure    Theorem 2  (rank space, O(1 + k/B) query)
GridTopOpenStructure         Corollary 1 ([U]^2, O(log log_B U + k/B))
DynamicTopOpenStructure      Theorem 4  (dynamic, I/O-CPQA based;
                             ``dynamic=False`` packs it full)
FourSidedStructure           Theorem 6  (4-sided, O((n/B)^eps + k/B);
                             ``dynamic=False`` packs it full)
===========================  ==========================================

A static :class:`repro.RangeSkylineIndex` builds the packed 4-sided
structure: full base leaves and full right-open structures at its own
``eps``, which takes a 12.5k-point structure at B=64 from 2776 blocks to
617.

All structures share the same conventions: points come from
:mod:`repro.core`, blocks are charged through a
:class:`~repro.em.StorageManager`, and queries return the maximal points of
``P`` intersected with the query rectangle, sorted by increasing x.
"""

from repro.structures.topopen_static import StaticTopOpenStructure
from repro.structures.raydrag import RayDragStructure
from repro.structures.fewpoint import FewPointStructure
from repro.structures.rankspace_topopen import RankSpaceTopOpenStructure
from repro.structures.grid_topopen import GridTopOpenStructure
from repro.structures.dynamic_topopen import DynamicTopOpenStructure
from repro.structures.foursided import FourSidedStructure

__all__ = [
    "StaticTopOpenStructure",
    "RayDragStructure",
    "FewPointStructure",
    "RankSpaceTopOpenStructure",
    "GridTopOpenStructure",
    "DynamicTopOpenStructure",
    "FourSidedStructure",
]
