"""Service tier: sharded ``query_many`` vs the monolithic index.

The bench asserts that on shard-prunable workloads -- narrow
top-open batches whose x-extent is well under one shard's range -- the
sharded :class:`repro.service.SkylineService` performs fewer total block
transfers than the monolithic :class:`repro.RangeSkylineIndex`, at every
shard count in the sweep, because the router prunes non-overlapping shards
and the serving shards' structures are ``shard_count`` times smaller.

The run also persists every table to ``BENCH_service.json`` (schema v1,
see :func:`repro.bench.reporting.write_json_report`) so later PRs can
track the performance trajectory, and prints a warm hot-window traffic
table for the cache/batching picture.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.bench_service import run_prunable_sweep, run_traffic_sweep
from repro.bench.reporting import write_json_report

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_service.json"


@pytest.fixture(scope="module")
def sweeps():
    prunable_table, prunable_summary = run_prunable_sweep()
    traffic_table, traffic_summary = run_traffic_sweep()
    write_json_report(
        [prunable_table, traffic_table],
        str(JSON_PATH),
        meta={
            "experiment": "service_vs_monolithic",
            "prunable_summary": prunable_summary,
            "traffic_summary": traffic_summary,
        },
    )
    return prunable_table, prunable_summary, traffic_table, traffic_summary


def test_sharded_batches_prune_io(sweeps, capsys):
    """Sharded query_many beats the monolithic index on prunable batches."""
    prunable_table, prunable_summary, traffic_table, _ = sweeps
    with capsys.disabled():
        prunable_table.show()
        traffic_table.show()
        print(f"\nwrote {JSON_PATH.name}")
    for workload, cell in prunable_summary.items():
        mono = cell["monolithic"]
        sharded = {k: v for k, v in cell.items() if k.startswith("shards=")}
        assert sharded, f"no sharded rows for {workload}"
        for engine, io in sharded.items():
            assert io < mono, (
                f"{workload}: {engine} used {io} block transfers, "
                f"monolithic used {mono}"
            )


def test_json_report_written(sweeps):
    """BENCH_service.json exists and carries the versioned schema."""
    import json

    payload = json.loads(JSON_PATH.read_text())
    assert payload["schema"] == 1
    assert len(payload["tables"]) == 2
    assert payload["meta"]["experiment"] == "service_vs_monolithic"
    titles = [table["title"] for table in payload["tables"]]
    assert any("Shard-prunable" in title for title in titles)
