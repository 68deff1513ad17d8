"""Streaming tier: scoped delta notifications, window amortization.

The bench asserts that:

* on a Zipf-skewed insert stream watched by **>= 8 subscribers**,
  continuous-subscription **delta delivery costs at least 3x fewer block
  transfers** than naively re-querying every subscription on every
  update -- the per-shard ``(uid, write_version)`` scopes skip every
  subscription whose shards were untouched;
* maintaining a sliding-window skyline through the I/O-CPQA's attrition
  (:class:`repro.stream.WindowedSkyline`) costs **less amortized I/O per
  appended point** than replaying the window into the dynamic
  ``DynamicTopOpenStructure`` (insert-new / delete-expired), with both
  structures reporting identical checkpoint skylines;
* the engine's ledger partition ``attributed + maintenance == total -
  build`` is asserted after **every notification batch**, and the window
  structure's own partition (``append + expire + query == total``) at
  every checkpoint.

Run under pytest (full sweep) or standalone::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--quick]

Both modes persist the comparison table to ``BENCH_streaming.json``
(schema v1, see :func:`repro.bench.reporting.write_json_report`); the
quick mode shrinks the streams but keeps every cell and assertion
(including the 8-subscriber floor).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.bench_streaming import check, run_streaming_sweep
from repro.bench.reporting import write_json_report

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_streaming.json"

QUICK = dict(n=1024, updates=96, window=192, stream_len=1024, query_every=32)
FULL = dict()


def run_sweeps(quick: bool = False):
    params = QUICK if quick else FULL
    table, summary = run_streaming_sweep(**params)
    write_json_report(
        [table],
        str(JSON_PATH),
        meta={
            "experiment": "streaming_deltas_and_windows",
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


def test_streaming_deltas_beat_naive_and_windows_amortize(sweeps, capsys):
    table, summary = sweeps
    with capsys.disabled():
        table.show()
        print(f"\nwrote {JSON_PATH.name}")
    check(summary)


def test_json_report_written(sweeps):
    import json

    payload = json.loads(JSON_PATH.read_text())
    assert payload["schema"] == 1
    assert payload["meta"]["experiment"] == "streaming_deltas_and_windows"
    assert payload["tables"]


# ----------------------------------------------------------------------
# CLI entry point (CI smoke run: --quick)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller streams (same cells, assertions and subscriber floor)",
    )
    args = parser.parse_args(argv)
    table, summary = run_sweeps(quick=args.quick)
    table.show()
    check(summary)
    print(f"\nok -- wrote {JSON_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
