"""Durability tier: WAL amortisation and recovery cost, with JSON output.

The bench asserts that:

* WAL group commit amortises durability writes exactly as modelled --
  ``floor(U / g) * ceil(g / B)`` block writes for ``U`` updates at group
  size ``g`` (ratio 1.0 across the sweep), monotonically fewer writes as
  ``g`` grows;
* recovery cost is the snapshot-cadence trade-off: sparser snapshots keep
  fewer snapshot blocks but replay a longer WAL suffix, and every
  recovered service matches the pre-shutdown state point-for-point.

Run under pytest (full sweep) or standalone::

    PYTHONPATH=src python benchmarks/bench_durability.py [--quick]

Both modes persist every table plus the final store counters to
``BENCH_durability.json`` (schema v1, see
:func:`repro.bench.reporting.write_json_report`) so later PRs can track
the durability-overhead trajectory.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.bench_durability import run_recovery_sweep, run_wal_overhead_sweep
from repro.bench.reporting import counters_table, write_json_report

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_durability.json"

QUICK = {
    "wal": dict(n=512, updates=128, group_commits=(1, 4, 16)),
    "recovery": dict(n=1024, updates=180, snapshot_cadences=(1, 2, 4)),
}
FULL = {
    "wal": dict(n=2048, updates=512, group_commits=(1, 4, 16, 64)),
    "recovery": dict(n=4096, updates=480, snapshot_cadences=(1, 2, 4)),
}


def run_sweeps(quick: bool = False):
    params = QUICK if quick else FULL
    wal_table, wal_summary = run_wal_overhead_sweep(**params["wal"])
    recovery_table, recovery_summary = run_recovery_sweep(**params["recovery"])
    sparsest = max(recovery_summary, key=lambda key: int(key.split("=")[1]))
    counters = counters_table(
        "Final durability counters (sparsest-cadence recovery run)",
        dict(recovery_summary[sparsest]),
    )
    write_json_report(
        [wal_table, recovery_table, counters],
        str(JSON_PATH),
        meta={
            "experiment": "durability_overhead",
            "quick": quick,
            "wal_summary": wal_summary,
            "recovery_summary": recovery_summary,
        },
    )
    return wal_table, wal_summary, recovery_table, recovery_summary


def check(wal_summary, recovery_summary) -> None:
    """The assertions both pytest and the CLI smoke run enforce."""
    wal_writes = [
        cell["wal_writes"]
        for _, cell in sorted(
            wal_summary.items(), key=lambda kv: int(kv[0].split("=")[1])
        )
    ]
    assert all(
        later <= earlier for earlier, later in zip(wal_writes, wal_writes[1:])
    ), f"group commit failed to amortise WAL writes: {wal_writes}"
    assert wal_writes[-1] < wal_writes[0], (
        f"largest group size did not reduce WAL writes: {wal_writes}"
    )
    cadences = sorted(
        recovery_summary.items(), key=lambda kv: int(kv[0].split("=")[1])
    )
    replayed = [cell["replayed_records"] for _, cell in cadences]
    snapshot_blocks = [cell["snapshot_blocks"] for _, cell in cadences]
    assert all(
        later >= earlier for earlier, later in zip(replayed, replayed[1:])
    ), f"sparser snapshots must replay at least as much: {replayed}"
    assert all(
        later <= earlier
        for earlier, later in zip(snapshot_blocks, snapshot_blocks[1:])
    ), f"sparser snapshots must keep fewer snapshot blocks: {snapshot_blocks}"


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
import pytest  # noqa: E402


@pytest.fixture(scope="module")
def sweeps():
    return run_sweeps(quick=False)


def test_wal_amortisation_and_recovery_tradeoff(sweeps, capsys):
    wal_table, wal_summary, recovery_table, recovery_summary = sweeps
    with capsys.disabled():
        wal_table.show()
        recovery_table.show()
        print(f"\nwrote {JSON_PATH.name}")
    check(wal_summary, recovery_summary)
    # The WAL model is exact: measured == predicted at every group size.
    for row in wal_table.rows:
        assert row.ratio == 1.0, f"WAL write model broke: {row.params}"


def test_json_report_written(sweeps):
    import json

    payload = json.loads(JSON_PATH.read_text())
    assert payload["schema"] == 1
    assert payload["meta"]["experiment"] == "durability_overhead"
    assert len(payload["tables"]) == 3


# ----------------------------------------------------------------------
# CLI entry point (CI smoke run: --quick)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep for CI smoke runs (same assertions, less work)",
    )
    args = parser.parse_args(argv)
    wal_table, wal_summary, recovery_table, recovery_summary = run_sweeps(
        quick=args.quick
    )
    wal_table.show()
    recovery_table.show()
    check(wal_summary, recovery_summary)
    print(f"\nok -- wrote {JSON_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
