"""Update path: leveled incremental merges, no stop-the-world rebuild.

Claims:

* the **max single-update I/O spike** is at most ``merge_step_blocks``
  at every n of the mixed read/write workload, so no update pays an
  ``O(n/B)`` rebuild;
* **mean query I/O** stays within 1.5x of the mean the removed
  stop-the-world compaction path measured on the same op sequence (the
  level fan-out is cheap next to the base shards);
* the **ledger partition** ``attributed + maintenance == total - build``
  holds on every bench cell.

Run under pytest (full sweep) or standalone::

    PYTHONPATH=src python benchmarks/bench_updates.py [--quick]

Both modes persist the table to ``BENCH_updates.json``
(schema v1, see :func:`repro.bench.reporting.write_json_report`); the
quick mode still includes the n = 50k cell the acceptance criterion is
stated against, just with fewer interleaved probes.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.bench_updates import check, run_update_path_sweep
from repro.bench.reporting import write_json_report

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_updates.json"

QUICK = dict(ns=(50_000,), updates=192, query_every=16)
FULL = dict(ns=(10_000, 50_000), updates=256, query_every=8)


def run_sweeps(quick: bool = False):
    params = QUICK if quick else FULL
    table, summary = run_update_path_sweep(**params)
    write_json_report(
        [table],
        str(JSON_PATH),
        meta={
            "experiment": "update_path_leveled",
            "quick": quick,
            "summary": summary,
        },
    )
    return table, summary


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
import pytest  # noqa: E402


@pytest.fixture(scope="module")
def sweeps():
    return run_sweeps(quick=False)


def test_leveled_update_path_bounds_spikes_and_query_io(sweeps, capsys):
    table, summary = sweeps
    with capsys.disabled():
        table.show()
        print(f"\nwrote {JSON_PATH.name}")
    check(summary, quick=False)


def test_json_report_written(sweeps):
    import json

    payload = json.loads(JSON_PATH.read_text())
    assert payload["schema"] == 1
    assert payload["meta"]["experiment"] == "update_path_leveled"
    assert payload["tables"]


# ----------------------------------------------------------------------
# CLI entry point (CI smoke run: --quick)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n=50k cell only, fewer probes (same assertions)",
    )
    args = parser.parse_args(argv)
    table, summary = run_sweeps(quick=args.quick)
    table.show()
    check(summary, quick=args.quick)
    print(f"\nok -- wrote {JSON_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
