"""Online topology: adaptive split/merge/fold vs a frozen shard layout.

Claims, asserted by :func:`repro.bench.bench_resharding.check`:

* under a Zipf-x mixed workload at n >= 50k, the adaptive-topology
  service keeps **mean query I/O within 1.3x** of the uniform-balanced
  baseline (a service freshly rebuilt size-balanced over the final live
  set) while the **static topology exceeds 2x**;
* **p99 single-request transfers** of the adaptive service stay near the
  baseline's;
* **no single split/merge/fold step** charges more than the hot shard's
  own ``O(n_shard/B)`` rebuild cost (asserted as a linear per-record
  bound *and* as a small fraction of one measured global rebuild), and
  no evolving service ever pays a global compaction;
* the **ledger partition** ``attributed + maintenance == total - build``
  holds on every cell.

Run under pytest (full sweep) or standalone::

    PYTHONPATH=src python benchmarks/bench_resharding.py [--quick]

Both modes persist the comparison table to ``BENCH_resharding.json``
(schema v1, see :func:`repro.bench.reporting.write_json_report`); the
quick mode keeps the n = 50k cell the acceptance criterion is stated
against, just with fewer interleaved probes.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.bench_resharding import check, run_resharding_sweep
from repro.bench.reporting import write_json_report

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_resharding.json"

QUICK = dict(query_every=64)
FULL = dict(query_every=24)


def run_sweeps(quick: bool = False):
    params = QUICK if quick else FULL
    table, summary = run_resharding_sweep(**params)
    write_json_report(
        [table],
        str(JSON_PATH),
        meta={
            "experiment": "resharding_adaptive_vs_static_topology",
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


def test_adaptive_topology_tracks_balanced_baseline(sweeps, capsys):
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
        payload["meta"]["experiment"]
        == "resharding_adaptive_vs_static_topology"
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
        help="same n=50k cell, fewer interleaved probes (same assertions)",
    )
    args = parser.parse_args(argv)
    table, summary = run_sweeps(quick=args.quick)
    table.show()
    check(summary)
    print(f"\nok -- wrote {JSON_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
