"""Seeded input generation for the three benchmark workloads.

Everything the system under test receives is produced here, up front,
from the ``--seed`` argument alone: the base point set, the rectangle
streams, and (for ``mixed-write``) the full op schedule.  The drivers
then replay these inputs; nothing is generated inside a timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import Point
from repro.core.queries import INF, RangeQuery
from repro.workloads.points import (
    anticorrelated_points,
    uniform_points,
    zipf_x_points,
)

UNIVERSE = 1_000_000
#: Seconds of untimed reads (at the workload's read rate) before each
#: open-loop window, so caches and buffer pools start warm.
WARMUP_S = 2.0
#: Untimed reads before the closed-loop window.
ADHOC_WARMUP = 1000

#: Figure-2 shapes the rectangle streams mix.  Top-open and dominance
#: route to the top-open structures (Thm 1); x-slab, 4-sided and
#: left-open route to the 4-sided structure (Thm 6).
SHAPES = ("top-open", "dominance", "x-slab", "4-sided", "left-open")


@dataclass(frozen=True)
class WorkloadSpec:
    """The fixed shape of one workload; README.md tabulates the rest
    (loop type, data distribution, traffic) and why each exists."""

    points: int
    shards: int
    rate_ops_s: Optional[float]  # open loops only
    # Set-up builds per untraced run (median reported as setup_s).
    setup_repeats: int


SPECS: Dict[str, WorkloadSpec] = {
    "read-hot": WorkloadSpec(
        points=50_000,
        shards=4,
        rate_ops_s=200.0,
        setup_repeats=3,
    ),
    "adhoc-read": WorkloadSpec(
        points=50_000,
        shards=4,
        rate_ops_s=None,
        setup_repeats=3,
    ),
    "mixed-write": WorkloadSpec(
        points=20_000,
        shards=16,
        rate_ops_s=100.0,
        setup_repeats=5,
    ),
}


def _shaped_rect(
    rng: random.Random,
    shape: str,
    lo: float,
    hi: float,
    widths: Tuple[float, float] = (0.04, 0.2),
) -> RangeQuery:
    """One rectangle of ``shape`` whose finite sides span a fraction of
    ``[lo, hi]`` drawn from ``widths``."""
    span = hi - lo

    def interval() -> Tuple[float, float]:
        width = span * rng.uniform(*widths)
        start = rng.uniform(lo, hi - width)
        return start, start + width

    if shape == "top-open":
        x_lo, x_hi = interval()
        return RangeQuery(x_lo, x_hi, rng.uniform(lo, hi - 0.1 * span), INF)
    if shape == "dominance":
        return RangeQuery(
            rng.uniform(lo, hi - 0.2 * span), INF, rng.uniform(lo, hi - 0.2 * span), INF
        )
    if shape == "x-slab":
        x_lo, x_hi = interval()
        return RangeQuery(x_lo, x_hi, -INF, INF)
    if shape == "4-sided":
        x_lo, x_hi = interval()
        y_lo, y_hi = interval()
        return RangeQuery(x_lo, x_hi, y_lo, y_hi)
    # left-open
    y_lo, y_hi = interval()
    return RangeQuery(-INF, rng.uniform(lo + 0.1 * span, hi), y_lo, y_hi)


def _anticorrelated_rect(rng: random.Random, shape: str) -> RangeQuery:
    """A rectangle centred on the anti-correlated data's diagonal band
    (``y ~ U - x``), so every shape catches a long staircase (large k)."""
    u = UNIVERSE
    cx = rng.uniform(0.1 * u, 0.9 * u)
    cy = u - cx
    w = u * rng.uniform(0.04, 0.15)
    h = u * rng.uniform(0.04, 0.15)
    if shape == "top-open":
        return RangeQuery(cx - w, cx + w, cy - h, INF)
    if shape == "dominance":
        return RangeQuery(cx - w, INF, cy - h, INF)
    if shape == "x-slab":
        return RangeQuery(cx - w, cx + w, -INF, INF)
    if shape == "4-sided":
        return RangeQuery(cx - w, cx + w, cy - h, cy + h)
    return RangeQuery(-INF, cx + w, cy - h, cy + h)


#: Shape mix of the ad-hoc stream: mostly Thm-6 (4-sided structure)
#: shapes, which is where an ad-hoc analytical query lands.
_ADHOC_WEIGHTS = (("top-open", 2), ("dominance", 1), ("x-slab", 2), ("4-sided", 4), ("left-open", 1))


@dataclass
class ReadHotInputs:
    points: List[Point]
    pool: List[RangeQuery]
    schedule: List[int]  # pool index of the i-th read
    dues: List[float]  # send time of the i-th read, seconds from start
    warmup: List[int]  # pool indices read before the measured window
    probe: List[Tuple[str, Point]]


@dataclass
class AdhocInputs:
    points: List[Point]
    rects: List[RangeQuery]
    warmup: List[RangeQuery]
    probe: List[Tuple[str, Point]]


@dataclass
class MixedInputs:
    points: List[Point]
    ops: List[Tuple[str, object]]  # ("read", rect) | ("insert", p) | ("delete", p)
    dues: List[float]  # send time of the i-th op, seconds from start
    subscriptions: List[RangeQuery]
    warmup: List[RangeQuery]  # reads before the measured window


def poisson_dues(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """Send times of a Poisson arrival process at ``rate`` per second
    over ``seconds`` -- independent users, not a metronome, so requests
    do not phase-lock with the server's own periodic work."""
    dues: List[float] = []
    t = rng.expovariate(rate)
    while t < seconds:
        dues.append(t)
        t += rng.expovariate(rate)
    return dues


def _zipf_schedule(rng: random.Random, size: int, count: int, s: float) -> List[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(size)]
    return rng.choices(range(size), weights=weights, k=count)


def _write_probe(
    rng: random.Random, base: List[Point], count: int, ident_base: int
) -> List[Tuple[str, Point]]:
    """A fixed closed-loop write phase for the read-only workloads: 95%
    inserts of fresh off-grid points, 5% deletes of base points (fewer
    than the ``delta_threshold * level_growth`` tombstones that would
    trigger a reclaim compaction)."""
    used_x = {p.x for p in base}
    used_y = {p.y for p in base}
    victims = rng.sample(base, count // 20)
    ops: List[Tuple[str, Point]] = []
    made = 0
    while len(ops) < count - len(victims):
        x = rng.uniform(0, UNIVERSE) + 0.25
        y = rng.uniform(0, UNIVERSE) + 0.25
        if x in used_x or y in used_y:
            continue
        used_x.add(x)
        used_y.add(y)
        ops.append(("insert", Point(x, y, ident=ident_base + made)))
        made += 1
    for i, victim in enumerate(victims):
        ops.insert(20 * i + 19, ("delete", victim))
    return ops


def read_hot(seed: int, run_seconds: float, probe_writes: int) -> ReadHotInputs:
    spec = SPECS["read-hot"]
    rng = random.Random(f"read-hot/{seed}")
    points = uniform_points(spec.points, universe=UNIVERSE, seed=rng.randrange(2**31))
    pool = [
        _shaped_rect(rng, SHAPES[i % len(SHAPES)], 0.0, float(UNIVERSE))
        for i in range(2000)
    ]
    rng.shuffle(pool)
    assert spec.rate_ops_s is not None
    # Evenly spaced: a steady stream the gather window batches alike.
    dues = [i / spec.rate_ops_s for i in range(int(spec.rate_ops_s * run_seconds))]
    schedule = _zipf_schedule(rng, len(pool), len(dues), 1.0)
    warmup = _zipf_schedule(rng, len(pool), int(spec.rate_ops_s * WARMUP_S), 1.0)
    probe = _write_probe(rng, points, probe_writes, ident_base=10 * spec.points)
    return ReadHotInputs(points, pool, schedule, dues, warmup, probe)


def adhoc_read(seed: int, max_reads: int, probe_writes: int) -> AdhocInputs:
    spec = SPECS["adhoc-read"]
    rng = random.Random(f"adhoc-read/{seed}")
    points = anticorrelated_points(
        spec.points, universe=UNIVERSE, seed=rng.randrange(2**31)
    )
    shapes = [s for s, w in _ADHOC_WEIGHTS for _ in range(w)]
    rects = [_anticorrelated_rect(rng, rng.choice(shapes)) for _ in range(max_reads)]
    warmup = [_anticorrelated_rect(rng, rng.choice(shapes)) for _ in range(ADHOC_WARMUP)]
    probe = _write_probe(rng, points, probe_writes, ident_base=10 * spec.points)
    return AdhocInputs(points, rects, warmup, probe)


#: Hot-band centres the mixed-write insert stream jumps between.
HOT_CENTRES = (0.2, 0.5, 0.8)
#: Side lengths (share of the universe) of mixed-write reads: small
#: enough that read batches hold the server's gate for a small share of
#: the time, so most writes do not queue behind one.
MIXED_READ_WIDTHS = (0.005, 0.03)
#: Skew of the hot band: about 70% of a band's inserts land within
#: 1/32 of the universe of its centre (one of the 16 shards).
HOT_ALPHA = 8.0
#: Deletes pick base points at least this share of the universe away
#: from every hot centre (outside the shards the hot bands fold).
COLD_MARGIN = 0.1


def mixed_write(seed: int, run_seconds: float) -> MixedInputs:
    """Op schedule of the mixed-write open loop.

    Even slots are reads of fresh 4-sided / top-open rectangles; odd
    slots are writes.  Of the writes, one in five deletes an earlier
    (base-loaded) point chosen uniformly from the x-range away from the
    hot bands, the rest insert from a ``zipf_x_points`` hot band that
    jumps to the next of :data:`HOT_CENTRES` six times per run.  Base
    tombstones outside the hot shards are consumed only by a major
    compaction, so the tombstone-reclaim compaction fires at the same
    delete of every run.
    """
    spec = SPECS["mixed-write"]
    rng = random.Random(f"mixed-write/{seed}")
    points = uniform_points(spec.points, universe=UNIVERSE, seed=rng.randrange(2**31))
    assert spec.rate_ops_s is not None
    dues = poisson_dues(rng, spec.rate_ops_s, run_seconds)
    # Reads and writes in random order, half each; every fifth write is
    # a delete, so deletes (and tombstones) arrive at a fixed cadence.
    kinds = ["read"] * (len(dues) // 2) + ["write"] * (len(dues) - len(dues) // 2)
    rng.shuffle(kinds)
    writes = kinds.count("write")
    inserts_needed = writes - writes // 5
    band_len = max(1, inserts_needed // 6)
    used_x: Set[float] = {p.x for p in points}
    used_y: Set[float] = {p.y for p in points}
    inserts: List[Point] = []
    band = 0
    while len(inserts) < inserts_needed:
        centre = HOT_CENTRES[band % len(HOT_CENTRES)]
        batch = zipf_x_points(
            band_len,
            universe=UNIVERSE,
            alpha=HOT_ALPHA,
            hot_center=centre,
            ident_base=10 * spec.points + len(inserts),
            seed=rng.randrange(2**31),
        )
        for p in batch:
            if p.x in used_x or p.y in used_y:
                continue
            used_x.add(p.x)
            used_y.add(p.y)
            inserts.append(p)
        band += 1
    del inserts[inserts_needed:]
    cold = [
        p for p in points
        if all(abs(p.x - c * UNIVERSE) > COLD_MARGIN * UNIVERSE for c in HOT_CENTRES)
    ]
    ops: List[Tuple[str, object]] = []
    next_insert = 0
    written = 0
    for kind in kinds:
        if kind == "read":
            shape = "4-sided" if rng.random() < 0.7 else "top-open"
            ops.append(
                ("read", _shaped_rect(rng, shape, 0.0, float(UNIVERSE), MIXED_READ_WIDTHS))
            )
            continue
        written += 1
        if written % 5 == 0:
            ops.append(("delete", cold.pop(rng.randrange(len(cold)))))
        else:
            ops.append(("insert", inserts[next_insert]))
            next_insert += 1
    # Top-open watchers on the four cold regions the deletes land in:
    # a delete recomputes the one above it, an insert none.
    subscriptions = [
        RangeQuery(lo * UNIVERSE, (lo + 0.1) * UNIVERSE, 0.5 * UNIVERSE, INF)
        for lo in (0.0, 0.3, 0.6, 0.9)
    ]
    warmup = [
        _shaped_rect(rng, "4-sided", 0.0, float(UNIVERSE), MIXED_READ_WIDTHS)
        for _ in range(int(spec.rate_ops_s / 2 * WARMUP_S))
    ]
    return MixedInputs(points, ops, dues, subscriptions, warmup)
