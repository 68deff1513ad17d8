"""Synthetic point-set generators.

The distributions follow the conventions of the skyline literature the paper
cites (Borzsonyi et al.): *independent/uniform*, *correlated* (few skyline
points; easy) and *anti-correlated* (huge skyline; hard), plus clustered
data and rank-space permutations.  All generators produce points in general
position (distinct x and distinct y coordinates), as the paper assumes.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.core.point import Point


def _general_position(
    n: int, universe: int, rng: random.Random, y_of_x
) -> List[Point]:
    xs = rng.sample(range(universe), n)
    raw_ys = [y_of_x(x) for x in xs]
    # Break y ties by replacing duplicates with unused values near the original.
    order = sorted(range(n), key=lambda i: raw_ys[i])
    ys = [0.0] * n
    used: set = set()
    for rank, index in enumerate(order):
        candidate = raw_ys[index]
        while candidate in used:
            candidate += 1e-6 * (1 + rng.random())
        used.add(candidate)
        ys[index] = candidate
    return [Point(float(x), float(y), ident=i) for i, (x, y) in enumerate(zip(xs, ys))]


def uniform_points(
    n: int, universe: int = 1_000_000, seed: Optional[int] = None
) -> List[Point]:
    """Independently uniform coordinates (the default benchmark input)."""
    rng = random.Random(seed)
    return _general_position(
        n, universe, rng, lambda _x: rng.uniform(0, universe)
    )


def correlated_points(
    n: int, universe: int = 1_000_000, spread: float = 0.05, seed: Optional[int] = None
) -> List[Point]:
    """Positively correlated coordinates: tiny skylines, easy queries."""
    rng = random.Random(seed)
    return _general_position(
        n,
        universe,
        rng,
        lambda x: x + rng.gauss(0, spread * universe),
    )


def anticorrelated_points(
    n: int, universe: int = 1_000_000, spread: float = 0.05, seed: Optional[int] = None
) -> List[Point]:
    """Negatively correlated coordinates: skylines of size Theta(n)."""
    rng = random.Random(seed)
    return _general_position(
        n,
        universe,
        rng,
        lambda x: (universe - x) + rng.gauss(0, spread * universe),
    )


def clustered_points(
    n: int,
    universe: int = 1_000_000,
    clusters: int = 16,
    spread: float = 0.02,
    seed: Optional[int] = None,
) -> List[Point]:
    """Gaussian clusters, as produced by product catalogues with price bands."""
    rng = random.Random(seed)
    centres = [
        (rng.uniform(0, universe), rng.uniform(0, universe)) for _ in range(clusters)
    ]

    def y_of_x(x: float) -> float:
        cx, cy = centres[rng.randrange(clusters)]
        return cy + rng.gauss(0, spread * universe)

    return _general_position(n, universe, rng, y_of_x)


def zipf_x_points(
    n: int,
    universe: int = 1_000_000,
    alpha: float = 4.0,
    hot_center: float = 0.5,
    ident_base: int = 0,
    seed: Optional[int] = None,
) -> List[Point]:
    """Zipf-skewed x-coordinates: most points land in a narrow hot band.

    The x offset from ``hot_center * universe`` is ``u^alpha * universe / 2``
    (``u`` uniform), so with ``alpha = 4`` a share ``0.01 ** 0.25``, about
    32%, of the points lies within 1/2% of the universe of the centre, and
    about 70% within 1/8 of it -- the skewed insert stream that makes a
    *static* shard topology collapse onto one machine and that
    ``benchmarks/bench_resharding.py`` stresses.  y is uniform.
    Coordinates are jittered per index so the output is in general
    position (distinct x and y) and disjoint from the integer-coordinate
    sets the other generators produce; ``ident_base`` offsets the idents
    so a stream can be appended to an existing base set.
    """
    rng = random.Random(seed)
    center = hot_center * universe
    points = []
    for i in range(n):
        offset = (rng.random() ** alpha) * (universe / 2.0)
        if rng.random() < 0.5:
            offset = -offset
        x = min(max(center + offset, 0.0), float(universe))
        # The fractional part is unique per index: general position by
        # construction, whatever the integer parts collide on.
        x = x + (i + 1) / (2.0 * (n + 1))
        y = rng.uniform(0, universe) + (i + 1) / (2.0 * (n + 1))
        points.append(Point(x, y, ident=ident_base + i))
    return points


def grid_permutation_points(n: int, seed: Optional[int] = None) -> List[Point]:
    """A random permutation matrix: the canonical rank-space input of Theorem 2."""
    rng = random.Random(seed)
    permutation = list(range(n))
    rng.shuffle(permutation)
    return [Point(float(i), float(permutation[i]), ident=i) for i in range(n)]
