"""Serving tier: coalescing I/O savings, shed-bounded tails, closed loop.

Claims (ISSUE 6 acceptance):

* on a Zipf-skewed multi-client read burst, **cross-caller coalescing
  reduces total block transfers** versus serving every submission alone
  (``max_batch=1``) -- with the result cache off, so the saving is
  in the ledger, not cache luck -- and both modes return identical
  per-request answers;
* past saturation, the **shed backpressure policy keeps the served p99
  latency bounded** (at most the deep-queue blocking policy's p99) while
  accounting for every submission (``served + shed == submitted``);
* a **closed-loop run** with concurrent reader/writer clients reports
  throughput and p50/p95/p99 per cell, and the engine's **ledger
  partition** ``attributed + maintenance == total - build`` holds
  exactly in every cell.

Run under pytest (full sweep) or standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]

Both modes persist the comparison table to ``BENCH_serving.json``
(schema v1, see :func:`repro.bench.reporting.write_json_report`); the
quick mode shrinks the burst but keeps every cell and assertion.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.bench_serving import check, run_serving_sweep
from repro.bench.reporting import write_json_report

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_serving.json"

QUICK = dict(n=2048, clients=6, requests_per_client=32, saturation_burst=192)
FULL = dict()


def run_sweeps(quick: bool = False):
    params = QUICK if quick else FULL
    table, summary = run_serving_sweep(**params)
    write_json_report(
        [table],
        str(JSON_PATH),
        meta={
            "experiment": "serving_coalescing_and_backpressure",
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


def test_serving_coalesces_and_bounds_tails(sweeps, capsys):
    table, summary = sweeps
    with capsys.disabled():
        table.show()
        print(f"\nwrote {JSON_PATH.name}")
    check(summary)


def test_json_report_written(sweeps):
    import json

    payload = json.loads(JSON_PATH.read_text())
    assert payload["schema"] == 1
    assert (
        payload["meta"]["experiment"] == "serving_coalescing_and_backpressure"
    )
    assert payload["tables"]


# ----------------------------------------------------------------------
# CLI entry point (CI smoke run: --quick)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller burst and client count (same cells and assertions)",
    )
    args = parser.parse_args(argv)
    table, summary = run_sweeps(quick=args.quick)
    table.show()
    check(summary)
    print(f"\nok -- wrote {JSON_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
