"""Update-path benchmark: the leveled write path's cost profile.

The sweep drives a mixed read/write workload through the sharded
service's leveled update path and measures, per cell:

* **mean update I/O** -- the average block transfers per insert/delete,
  counting both the update's own attributed charge and the incremental
  merge debt it paid (``maintenance_blocks``), so the amortisation
  cannot hide work;
* **max single-op I/O spike** -- the worst transfer count any single
  update charged, bounded by ``ServiceConfig.merge_step_blocks``;
* **mean query I/O** -- cache-bypassing probes interleaved with the
  updates, which fan across the level structures; the bound is 1.5x the
  mean the removed stop-the-world ``O(n/B)`` rebuild path measured on
  the same op sequence (:data:`LEGACY_MEAN_QUERY_IO`);
* **space amplification** -- ``blocks_in_use * B / live points`` at the
  end of the cell, which ``tools/bench_guard`` holds to the committed
  baseline;
* the **ledger partition** -- ``attributed + maintenance == total -
  build`` is asserted on every cell before its row is recorded.

``benchmarks/bench_updates.py`` drives the sweep (pytest or ``--quick``
CLI) and persists the table to ``BENCH_updates.json`` via
:func:`repro.bench.reporting.write_json_report`.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import space_amp
from repro.bench.reporting import BenchmarkTable
from repro.core.point import Point
from repro.core.queries import FourSidedQuery, RangeQuery, TopOpenQuery
from repro.engine import QueryRequest, SkylineEngine, amortized_update_io
from repro.service import ServiceConfig
from repro.workloads import uniform_points

Summary = Dict[str, Dict[str, float]]

#: The sweep's ``ServiceConfig.merge_step_blocks``; :func:`check` holds
#: every cell's worst single-update spike to it.
MERGE_STEP_BLOCKS = 8

#: Mean query I/O of the deleted stop-the-world update path (flat delta,
#: ``O(n/B)`` rebuild at the delta threshold) on this sweep's op
#: sequence, frozen from its last run and keyed by mode and ``n``.  A
#: full compaction after every threshold-many updates kept its queries on
#: fresh base shards, which is the cost the leveled path's level fan-out
#: is held to.
LEGACY_MEAN_QUERY_IO: Dict[str, Dict[int, float]] = {
    "quick": {50_000: 108.667},
    "full": {10_000: 66.375, 50_000: 167.812},
}


def _fresh_updates(count: int, seed: int) -> List[Point]:
    rng = random.Random(seed)
    xs = rng.sample(range(2_000_000, 2_000_000 + 20 * count), count)
    ys = rng.sample(range(2_000_000, 2_000_000 + 20 * count), count)
    return [
        Point(float(x), float(y), 1_000_000 + i)
        for i, (x, y) in enumerate(zip(xs, ys))
    ]


def _probe_queries(universe: int, count: int, seed: int) -> List[RangeQuery]:
    """A fixed mix of top-open and 4-sided probes over the base universe."""
    rng = random.Random(seed)
    probes: List[RangeQuery] = []
    for _ in range(count):
        a, b = sorted(rng.uniform(0, universe) for _ in range(2))
        c = rng.uniform(0, universe)
        probes.append(TopOpenQuery(a, b, c))
        lo, hi = sorted(rng.uniform(0, universe) for _ in range(2))
        probes.append(FourSidedQuery(a, b, lo, hi))
    return probes


def run_update_path_sweep(
    ns: Sequence[int] = (10_000, 50_000),
    updates: int = 256,
    query_every: int = 8,
    shard_count: int = 8,
    block_size: int = 64,
    memory_blocks: int = 32,
    delta_threshold: int = 128,
    merge_step_blocks: int = MERGE_STEP_BLOCKS,
    universe: int = 1_000_000,
    seed: int = 0,
) -> Tuple[BenchmarkTable, Summary]:
    """The update-path sweep described in the module doc.

    Every cell runs the identical op sequence: mostly inserts with one
    delete per eight updates, a pair of cache-bypassing probes every
    ``query_every`` updates, all through the engine so each op's exact
    ledger delta (attributed plus maintenance) is observable.  ``updates``
    must exceed ``delta_threshold`` so at least one memtable seal and
    merge happen inside the measured window.
    """
    if updates <= delta_threshold:
        raise ValueError("updates must exceed delta_threshold so a memtable "
                         "seal happens inside the measured window")
    table = BenchmarkTable(
        f"Update path -- {updates} mixed updates, "
        f"B={block_size}, memtable={delta_threshold}, "
        f"step={merge_step_blocks}"
    )
    summary: Summary = {}
    for n in ns:
        base = uniform_points(n, universe=universe, seed=seed)
        payloads = _fresh_updates(updates, seed=seed + 1)
        probes = _probe_queries(universe, max(2, updates // query_every), seed + 2)
        engine = SkylineEngine.sharded(
            base,
            ServiceConfig(
                shard_count=shard_count,
                block_size=block_size,
                memory_blocks=memory_blocks,
                delta_threshold=delta_threshold,
                merge_step_blocks=merge_step_blocks,
            ),
        )
        service = engine.backend.service
        rng = random.Random(seed + 3)
        live = list(base)
        update_costs: List[int] = []
        query_costs: List[int] = []
        probe_iter = iter(probes)
        started = time.perf_counter()
        for i, point in enumerate(payloads):
            if i % 8 == 7 and live:
                victim = live.pop(rng.randrange(len(live)))
                result = engine.delete(victim)
                assert result.applied
            else:
                result = engine.insert(point)
                live.append(point)
            update_costs.append(
                result.report.blocks + result.report.maintenance_blocks
            )
            if i % query_every == query_every - 1:
                try:
                    probe = next(probe_iter)
                except StopIteration:
                    probe_iter = iter(probes)
                    probe = next(probe_iter)
                query = engine.query(
                    QueryRequest(probe, consistency="fresh")
                )
                query_costs.append(query.report.blocks)
        elapsed = time.perf_counter() - started
        # The partition invariant must hold on every cell.
        assert (
            engine.attributed_io() + engine.maintenance_io()
            == engine.io_total() - engine.build_io
        ), f"ledger partition broke: n={n}"
        plan = engine.explain(RangeQuery())
        mean_update = sum(update_costs) / len(update_costs)
        max_spike = max(update_costs)
        mean_query = sum(query_costs) / len(query_costs)
        cell = {
            "mean_update_io": round(mean_update, 3),
            "max_update_spike": max_spike,
            "mean_query_io": round(mean_query, 3),
            "compactions": service.compactions,
            "merges_completed": service.merges_completed,
            "maintenance_io": engine.maintenance_io(),
            "space_amp": space_amp(service),
            "levels": max(
                (len(tower.levels) for tower in service.towers()),
                default=0,
            ),
            "amortized_bound": round(
                amortized_update_io(
                    len(service),
                    block_size,
                    service.config.level_growth,
                    delta_threshold,
                ),
                3,
            ),
            "ledger_ok": 1,
        }
        summary[f"n={n}/leveled"] = cell
        table.add(
            measured_io=max_spike,
            seconds=elapsed,
            n=n,
            mean_update_io=cell["mean_update_io"],
            mean_query_io=cell["mean_query_io"],
            compactions=service.compactions,
            merges=cell["merges_completed"],
            levels=cell["levels"],
            maintenance_io=cell["maintenance_io"],
            space_amp=cell["space_amp"],
            update_bound=plan.update_bound,
        )
    return table, summary


def check(summary: Summary, quick: bool) -> None:
    """The acceptance assertions both pytest and the CLI run enforce."""
    legacy = LEGACY_MEAN_QUERY_IO["quick" if quick else "full"]
    for key, cell in sorted(summary.items()):
        n = int(key.split("/")[0].split("=")[1])
        assert n in legacy, (
            f"{key}: no frozen legacy mean query I/O to hold the cell to"
        )
        assert cell["compactions"] == 0
        assert cell["merges_completed"] >= 1
        assert cell["ledger_ok"]
        assert cell["max_update_spike"] <= MERGE_STEP_BLOCKS, (
            f"{key}: max single-update spike {cell['max_update_spike']} "
            f"exceeds merge_step_blocks={MERGE_STEP_BLOCKS}"
        )
        assert cell["mean_query_io"] <= 1.5 * legacy[n], (
            f"{key}: mean query I/O {cell['mean_query_io']} exceeds 1.5x "
            f"the legacy path's {legacy[n]}"
        )
