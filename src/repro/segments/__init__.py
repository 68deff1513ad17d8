"""Reduction of top-open range skyline to segment intersection (Section 2).

Each point ``p`` is converted into the horizontal segment
``sigma(p) = [x_p, x_{leftdom(p)}[ x y_p``; a top-open query becomes a
vertical-segment stabbing query over the resulting set ``Sigma(P)``, which
is *nesting* and *monotonic* (Lemma 2) -- the properties that make the
linear-I/O SABE construction of the PPB-tree possible.
"""

from repro.segments.segment import HorizontalSegment
from repro.segments.reduction import (
    SigmaRecord,
    compute_sigma,
    compute_sigma_emfile,
    leftdom_map,
    sigma_records,
)
from repro.segments.properties import is_monotonic, is_nesting

__all__ = [
    "HorizontalSegment",
    "SigmaRecord",
    "sigma_records",
    "compute_sigma",
    "compute_sigma_emfile",
    "leftdom_map",
    "is_nesting",
    "is_monotonic",
]
