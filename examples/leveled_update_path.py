"""The leveled update path: bounded write spikes, visible level lifecycle.

Scenario: a write-heavy deployment keeps absorbing inserts and deletes
while serving queries.  When the memtable fills it seals into an
immutable component and a compaction scheduler merges levels downward in
bounded increments piggybacked on later updates -- so the worst single
update pays merge_step_blocks transfers, never an O(n/B) shard rebuild.

The example streams an insert mix through the service, prints the worst
single-update spike next to n/B, then walks the level lifecycle: memtable ->
frozen -> L1..Lk (engine.explain shows the layout and the instantiated
amortized bound), drain() to pay all merge debt at once, and compact()
as the explicit operator-driven fold back into the base shards.
"""

from __future__ import annotations

import random

from repro import Point, TopOpenQuery
from repro.engine import QueryRequest, SkylineEngine
from repro.service import ServiceConfig


def stream(base, payloads):
    engine = SkylineEngine.sharded(
        base,
        ServiceConfig(
            shard_count=4,
            block_size=32,
            memory_blocks=16,
            delta_threshold=64,
            merge_step_blocks=8,
        ),
    )
    spikes = []
    for point in payloads:
        result = engine.insert(point)
        spikes.append(result.report.blocks + result.report.maintenance_blocks)
    return engine, spikes


def main() -> None:
    rng = random.Random(7)
    n = 4_000
    xs = rng.sample(range(40 * n), n)
    ys = rng.sample(range(40 * n), n)
    base = [Point(float(x), float(y), i) for i, (x, y) in enumerate(zip(xs, ys))]
    payloads = [
        Point(1_000_000.0 + i * 1.25, 1_000_000.0 + i * 1.5, 100_000 + i)
        for i in range(200)
    ]

    engine, spikes = stream(base, payloads)
    service = engine.backend.service
    n_over_b = n / service.config.block_size
    print(
        f"200-insert stream: mean {sum(spikes) / len(spikes):.2f} I/Os per "
        f"update, worst single update {max(spikes)} I/Os "
        f"(n/B = {n_over_b:.0f})"
    )
    assert max(spikes) <= service.config.merge_step_blocks < n_over_b

    print("\nlevel lifecycle after the stream (memtable is level 0):")
    for row in service.describe()["levels"]:
        print(
            f"  L{row['level']}: {row['records']:4d} records / capacity "
            f"{row['capacity']:5d}, tombstones {row['tombstones']}, "
            f"merge debt {row['merge_debt']}"
        )
    print(f"  scheduler: {service.describe()['scheduler']}")

    plan = engine.explain(QueryRequest(TopOpenQuery(0.0, 2_000_000.0, 0.0)))
    print(f"\nexplain(): update path '{plan.update_path}', layout "
          f"{list(plan.level_layout)}")
    print(f"  amortized update bound: {plan.update_bound} "
          f"= {plan.update_io:.3f} transfers at the current B/n")

    drained = engine.drain()
    print(f"\ndrain(): paid {drained['merge_io']} transfers of merge debt, "
          f"{drained['merges_completed']} merges completed so far")
    engine.compact()
    print("compact(): everything folded into "
          f"{service.describe()['shard_count']} rebuilt base shards; "
          f"levels now {[r['level'] for r in service.describe()['levels'][1:]]}")
    print(f"\nledger partition: attributed {engine.attributed_io()} + "
          f"maintenance {engine.maintenance_io()} == "
          f"{engine.io_total() - engine.build_io} (total - build)")
    assert (
        engine.attributed_io() + engine.maintenance_io()
        == engine.io_total() - engine.build_io
    )


if __name__ == "__main__":
    main()
