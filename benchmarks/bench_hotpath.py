"""Hot path: columnar merge kernels and closed-loop served reads.

Claims:

* the **columnar merge kernels** answer identically to the per-object
  reference sweeps and run at least **2x faster** in wall-clock terms,
  while charging zero block transfers on either side (they are pure
  in-memory compute over resident candidates);
* **closed-loop reads** through the server's read lane are all served,
  each answer equals ``range_skyline`` over the cell's points, and the
  cell reports its throughput; the engine's **ledger partition**
  ``attributed + maintenance == total - build`` holds in every cell.

Run under pytest (full sweep) or standalone::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]

Both modes persist the comparison table to ``BENCH_hotpath.json``
(schema v1, see :func:`repro.bench.reporting.write_json_report`); the
quick mode shrinks the serving cell but keeps every cell and assertion.
The merge cell runs at full size in both modes: below about 80k
candidates the object lists stay cache-resident and the columnar
advantage falls under 2x on a 2-vCPU VM (1.6x at 30k).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.bench_hotpath import check, run_hotpath_sweep
from repro.bench.reporting import write_json_report

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_hotpath.json"

QUICK = dict(
    serving_n=8192,
    clients=6,
    requests_per_client=16,
)
FULL = dict()


def run_sweeps(quick: bool = False):
    params = QUICK if quick else FULL
    table, summary = run_hotpath_sweep(**params)
    write_json_report(
        [table],
        str(JSON_PATH),
        meta={
            "experiment": "hotpath_columnar_concurrent_reads",
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


def test_hotpath_speedups_with_identical_ledgers(sweeps, capsys):
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
        payload["meta"]["experiment"] == "hotpath_columnar_concurrent_reads"
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
        help="smaller inputs (same cells and assertions)",
    )
    args = parser.parse_args(argv)
    table, summary = run_sweeps(quick=args.quick)
    table.show()
    check(summary)
    print(f"\nok -- wrote {JSON_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
