"""Resharding benchmarks: adaptive vs static topology under Zipf-x skew.

The scenario the online topology manager exists for: a service built
balanced over a uniform base set is then hit by a *skewed* mixed stream
-- Zipf-x inserts concentrated in a narrow hot band, deletes of recent
points, interleaved hot and wide probes.  Three services run the
identical workload:

* **static** -- ``adaptive_topology=False``: shard cuts frozen between
  compactions, the hot band's weight piles up in the level components
  (and one base shard), hot queries pay a growing level fan-out and
  tombstone rescans of ever-bigger components;
* **adaptive** -- ``ServiceConfig(adaptive_topology=True)``: the
  :class:`~repro.service.topology.TopologyManager` splits the hot shard
  once its range load reaches twice the target and folds a shard whose
  tower reaches one block, each a bounded local operation charged to
  maintenance;
* **uniform baseline** -- the ideal: a service freshly built
  size-balanced over the *final* live point set, probed with the same
  query sequence.  This is what a stop-the-world global rebuild would
  buy; the adaptive service has to get near it without ever paying one.

Claims, asserted by :func:`check`:

* **mean query I/O**: adaptive stays within 1.3x of the uniform
  baseline at n >= 50k, where static exceeds 2x;
* **p99 single-request transfers**: adaptive stays near the baseline
  (within 2x) while static's p99 degrades beyond it;
* **bounded steps**: no single split/merge charges more than
  ``SPLIT_COST_FACTOR * ceil(touched / B)`` transfers -- the hot shard's
  own ``O(n_shard/B)`` rebuild cost, never a global rebuild -- and the
  static service's compaction count stays 0 (nothing global happened);
* the **ledger partition** ``attributed + maintenance == total - build``
  holds on every cell.

``benchmarks/bench_resharding.py`` drives the sweep (pytest or
``--quick`` CLI) and persists the table to ``BENCH_resharding.json``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.reporting import BenchmarkTable
from repro.core.point import Point
from repro.core.queries import FourSidedQuery, TopOpenQuery
from repro.engine import QueryRequest, SkylineEngine
from repro.service import ServiceConfig
from repro.workloads import uniform_points, zipf_x_points

Summary = Dict[str, Dict[str, float]]

#: Per-step cost bound: a split/merge touching ``t`` records may charge at
#: most this many transfers per ``ceil(t/B)`` block of them.  The factor
#: covers reading the inputs, writing the two children and building their
#: static indexes -- a constant number of passes over the data (the
#: codebase's static build measures ~15-25 transfers per input block), so
#: the charge is O(n_shard/B) with the constant made explicit and
#: asserted.  :func:`check` additionally pins *locality*: the worst step
#: must stay under a quarter of the measured cost of one global rebuild.
SPLIT_COST_FACTOR = 32.0
GLOBAL_REBUILD_FRACTION = 0.25

#: On the per-shard-tower path a split or merge is a *metadata move*: the
#: retiring bases are adopted as zero-I/O components and whole tower
#: component sets change owner by reference, so the only charges are the
#: children's empty base builds plus the durable topology record.  The
#: worst split/merge step must therefore stay under this fraction of the
#: rebuild-style per-input-block bound folds are still allowed.
METADATA_MOVE_FRACTION = 0.1

HOT_CENTER = 0.5
HOT_HALF_WIDTH = 0.02


def _probes(universe: int, count: int, seed: int) -> List[object]:
    """Alternating narrow hot-band and wide probes (3 hot : 1 wide, the
    skew a hot region attracts).

    Hot probes use *narrow* x-windows (well under one shard's range):
    the access pattern x-sharding serves -- a balanced topology answers
    them from one or two structures, while a layout whose hot region's
    weight sits in few fat structures cannot prune anything.
    """
    rng = random.Random(seed)
    center = HOT_CENTER * universe
    half = HOT_HALF_WIDTH * universe
    probes: List[object] = []
    for i in range(count):
        if i % 4 == 3:
            lo, hi = sorted(rng.uniform(0, universe) for _ in range(2))
            probes.append(TopOpenQuery(lo, hi, rng.uniform(0, universe / 2)))
        else:
            mid = rng.uniform(center - half, center + half)
            width = rng.uniform(0.0005, 0.005) * universe
            lo, hi = mid - width / 2, mid + width / 2
            if i % 2 == 0:
                probes.append(TopOpenQuery(lo, hi, rng.uniform(0, universe)))
            else:
                y_lo, y_hi = sorted(rng.uniform(0, universe) for _ in range(2))
                probes.append(FourSidedQuery(lo, hi, y_lo, y_hi))
    return probes


def _percentile(values: Sequence[int], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return float(ordered[index])


def _service_config(mode: str, **common: object) -> ServiceConfig:
    return ServiceConfig(adaptive_topology=(mode == "adaptive"), **common)


def _probe_pass(engine: SkylineEngine, probes: List[object]) -> List[int]:
    """One cold-cache pass over the probe sequence; per-probe transfers.

    Cold caches make each request pay its real worst-case transfers --
    warm pools would hide exactly the structure growth this bench exists
    to expose.
    """
    costs: List[int] = []
    for probe in probes:
        engine.drop_caches()
        response = engine.query(QueryRequest(probe, consistency="fresh"))
        costs.append(response.report.blocks)
    return costs


def _drive(
    engine: SkylineEngine,
    stream: List[Point],
    probes: List[object],
    query_every: int,
    delete_every: int,
) -> Tuple[List[int], Dict[str, float]]:
    """Run the mixed stream; returns during-run probe costs and counters."""
    service = engine.backend.service
    recent: List[Point] = []
    probe_iter = iter(probes)
    query_costs: List[int] = []
    deletes = 0
    for i, point in enumerate(stream):
        if i % delete_every == delete_every - 1 and recent:
            victim = recent.pop()
            result = engine.delete(victim)
            assert result.applied
            deletes += 1
        else:
            result = engine.insert(point)
            # Deletes target near-past inserts: hot data churns hot.
            recent.append(point)
            if len(recent) > 8:
                recent.pop(0)
        if i % query_every == query_every - 1:
            try:
                probe = next(probe_iter)
            except StopIteration:
                probe_iter = iter(probes)
                probe = next(probe_iter)
            engine.drop_caches()
            response = engine.query(QueryRequest(probe, consistency="fresh"))
            query_costs.append(response.report.blocks)
    assert (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    ), "ledger partition broke"
    counters = {
        "deletes": float(deletes),
        "splits": float(service.topology.splits),
        "merges": float(service.topology.merges),
        "folds": float(service.topology.folds),
        "compactions": float(service.compactions),
        "shards": float(len(service.shards)),
        "tombstones": float(len(service.delta.tombstones)),
    }
    return query_costs, counters


def run_resharding_sweep(
    n_base: int = 50_000,
    updates: int = 16_000,
    query_every: int = 24,
    delete_every: int = 8,
    shard_count: int = 32,
    block_size: int = 64,
    memory_blocks: int = 32,
    delta_threshold: int = 128,
    level_growth: int = 2,
    merge_step_blocks: int = 8,
    universe: int = 1_000_000,
    seed: int = 0,
) -> Tuple[BenchmarkTable, Summary]:
    """The adaptive-vs-static-vs-uniform-baseline sweep (module doc).

    Nothing global may happen in any evolving cell -- the static service
    shows what frozen cuts cost and the adaptive one must absorb the skew
    with bounded local splits/merges alone; ``compactions == 0`` is
    asserted for both.
    """
    base = uniform_points(n_base, universe=universe, seed=seed)
    stream = zipf_x_points(
        updates,
        universe=universe,
        hot_center=HOT_CENTER,
        ident_base=10_000_000,
        seed=seed + 1,
    )
    probes = _probes(universe, max(4, updates // query_every), seed + 2)
    common = dict(
        shard_count=shard_count,
        block_size=block_size,
        memory_blocks=memory_blocks,
        delta_threshold=delta_threshold,
        level_growth=level_growth,
        merge_step_blocks=merge_step_blocks,
        # auto_compact on the leveled path only seals the memtable and
        # schedules bounded merges -- never a global rebuild (asserted:
        # compactions stays 0 in every cell).
        auto_compact=True,
    )
    table = BenchmarkTable(
        f"Resharding under Zipf-x skew -- base n={n_base}, {updates} mixed "
        f"updates, B={block_size}"
    )
    summary: Summary = {}
    final_live: List[Point] = []
    for mode in ("static", "adaptive"):
        engine = SkylineEngine.sharded(base, _service_config(mode, **common))
        started = time.perf_counter()
        during_costs, counters = _drive(
            engine, stream, probes, query_every, delete_every
        )
        service = engine.backend.service
        worst_step_ratio = 0.0
        worst_step_io = 0.0
        worst_move_ratio = 0.0
        if mode == "adaptive":
            final_live = service.live_points()
            for entry in service.topology.history:
                touched = max(1, int(entry["touched"]))
                blocks = -(-touched // block_size)  # ceil
                ratio = int(entry["charged"]) / blocks
                if entry["op"] in ("split", "merge"):
                    # Metadata moves: ownership changes, no record blocks.
                    worst_move_ratio = max(worst_move_ratio, ratio)
                worst_step_ratio = max(worst_step_ratio, ratio)
                worst_step_io = max(worst_step_io, float(entry["charged"]))
        # The headline metric is the *end state*: one full cold probe
        # pass after the whole skewed stream has landed, identical for
        # all three services (the during-run costs average over the
        # not-yet-degraded early states and would flatter the static
        # topology).
        query_costs = _probe_pass(engine, probes)
        elapsed = time.perf_counter() - started
        cell = {
            "seconds": round(elapsed, 6),
            "mean_query_io": round(sum(query_costs) / len(query_costs), 3),
            "p99_query_io": _percentile(query_costs, 0.99),
            "max_query_io": float(max(query_costs)),
            "during_mean_query_io": round(
                sum(during_costs) / len(during_costs), 3
            ),
            "during_p99_query_io": _percentile(during_costs, 0.99),
            "worst_step_ratio": round(worst_step_ratio, 3),
            "worst_move_ratio": round(worst_move_ratio, 3),
            "worst_step_io": worst_step_io,
            "maintenance_io": float(engine.maintenance_io()),
            "ledger_ok": 1.0,
            **counters,
        }
        summary[mode] = cell
    # The ideal a stop-the-world global rebuild would buy: size-balanced
    # cuts over the final live set, same config, probed identically.
    started = time.perf_counter()
    baseline = SkylineEngine.sharded(
        final_live, _service_config("static", **common)
    )
    baseline_costs = _probe_pass(baseline, probes)
    summary["uniform-baseline"] = {
        "seconds": round(time.perf_counter() - started, 6),
        "mean_query_io": round(sum(baseline_costs) / len(baseline_costs), 3),
        "p99_query_io": _percentile(baseline_costs, 0.99),
        "max_query_io": float(max(baseline_costs)),
        "shards": float(len(baseline.backend.service.shards)),
        # The measured price of one stop-the-world global rebuild over
        # the final live set: the locality yardstick for split costs.
        "global_rebuild_io": float(baseline.build_io),
        "ledger_ok": 1.0,
    }
    for mode in ("uniform-baseline", "static", "adaptive"):
        cell = summary[mode]
        table.add(
            measured_io=cell["mean_query_io"],
            seconds=cell.get("seconds"),
            topology=mode,
            p99=cell["p99_query_io"],
            shards=cell["shards"],
            splits=cell.get("splits", 0.0),
            merges=cell.get("merges", 0.0),
            folds=cell.get("folds", 0.0),
            compactions=cell.get("compactions", 0.0),
            worst_step_ratio=cell.get("worst_step_ratio", 0.0),
            maintenance_io=cell.get("maintenance_io", 0.0),
        )
    return table, summary


def check(summary: Summary) -> None:
    """The acceptance assertions both pytest and the CLI enforce."""
    baseline = summary["uniform-baseline"]
    static = summary["static"]
    adaptive = summary["adaptive"]
    base_mean = max(1e-9, baseline["mean_query_io"])
    adaptive_ratio = adaptive["mean_query_io"] / base_mean
    static_ratio = static["mean_query_io"] / base_mean
    assert adaptive_ratio <= 1.3, (
        f"adaptive mean query I/O {adaptive['mean_query_io']} is "
        f"{adaptive_ratio:.2f}x the uniform baseline {baseline['mean_query_io']}"
        " (must stay within 1.3x)"
    )
    assert static_ratio >= 2.0, (
        f"static mean query I/O {static['mean_query_io']} is only "
        f"{static_ratio:.2f}x the uniform baseline -- the degradation the "
        "adaptive topology protects against is not being exercised"
    )
    base_p99 = max(1e-9, baseline["p99_query_io"])
    assert adaptive["p99_query_io"] / base_p99 <= 2.0, (
        f"adaptive p99 {adaptive['p99_query_io']} strays beyond 2x the "
        f"baseline p99 {baseline['p99_query_io']}"
    )
    assert adaptive["splits"] >= 1, "the skew never triggered a split"
    assert adaptive["compactions"] == 0 and static["compactions"] == 0, (
        "no service may pay a global rebuild in this sweep"
    )
    assert adaptive["worst_step_ratio"] <= SPLIT_COST_FACTOR, (
        f"a topology step charged {adaptive['worst_step_ratio']:.2f}x "
        f"ceil(touched/B), beyond the O(n_shard/B) factor {SPLIT_COST_FACTOR}"
    )
    move_bound = METADATA_MOVE_FRACTION * SPLIT_COST_FACTOR
    assert adaptive["worst_move_ratio"] <= move_bound, (
        f"a split/merge charged {adaptive['worst_move_ratio']:.2f}x "
        f"ceil(touched/B) -- not a metadata move (bound {move_bound}: "
        "per-shard towers hand components over whole, nothing is rebuilt)"
    )
    rebuild = max(1.0, baseline["global_rebuild_io"])
    assert adaptive["worst_step_io"] <= GLOBAL_REBUILD_FRACTION * rebuild, (
        f"the worst step ({adaptive['worst_step_io']} transfers) is not "
        f"local: a full global rebuild measures {rebuild}"
    )
    assert adaptive["ledger_ok"] and static["ledger_ok"]
