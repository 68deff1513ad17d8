"""Table 1, row 5 / Theorem 6 (static part): 4-sided range skyline queries.

Claim: O(n/B) space and O((n/B)^eps + k/B) query I/Os, which is optimal in
the indexability model (the matching lower bound is exercised by
``bench_table1_antidominance_lb``).  The sweep varies n and eps.  Its rows
measure the packed static layout (``dynamic=False``, the one static indexes
build); each row also builds the dynamic layout over the same points and
checks that the static one uses no more blocks and no more query I/Os.
"""

from __future__ import annotations

import pytest

from repro.api import RangeSkylineIndex
from repro.bench import BenchmarkTable, measure_queries
from repro.bench.harness import make_storage
from repro.structures.foursided import FourSidedStructure, four_sided_query_bound
from repro.workloads import four_sided_queries, uniform_points

BLOCK_SIZE = 64
SWEEP = [(512, 0.5), (1024, 0.5), (2048, 0.5), (2048, 0.25), (2048, 0.75)]
QUERIES_PER_CONFIG = 8


def run_sweep() -> BenchmarkTable:
    table = BenchmarkTable("Table 1 row 5 -- 4-sided range skyline (static)")
    for n, epsilon in SWEEP:
        points = uniform_points(n, seed=n + int(100 * epsilon))
        queries = four_sided_queries(points, QUERIES_PER_CONFIG, selectivity=0.4, seed=n)
        layouts = {}
        for dynamic in (False, True):
            storage = make_storage(block_size=BLOCK_SIZE)
            structure = FourSidedStructure(storage, points, epsilon=epsilon, dynamic=dynamic)
            io_per_query, avg_k = measure_queries(storage, structure, queries)
            layouts[dynamic] = (io_per_query, avg_k, storage.blocks_in_use(), structure.height())
        io_per_query, avg_k, blocks, height = layouts[False]
        dynamic_io, _, dynamic_blocks, _ = layouts[True]
        table.add(
            measured_io=io_per_query,
            predicted=four_sided_query_bound(n, int(avg_k), BLOCK_SIZE, epsilon),
            n=n,
            eps=epsilon,
            B=BLOCK_SIZE,
            avg_k=round(avg_k, 1),
            height=height,
            blocks=blocks,
            dynamic_io=round(dynamic_io, 2),
            dynamic_blocks=dynamic_blocks,
        )
    return table


@pytest.fixture(scope="module")
def sweep_table() -> BenchmarkTable:
    return run_sweep()


def test_foursided_query_shape(benchmark, sweep_table, capsys):
    """Measured I/Os track (n/B)^eps + k/B within a constant factor."""
    with capsys.disabled():
        sweep_table.show()
    assert sweep_table.max_ratio_spread() < 15.0

    storage = make_storage(block_size=BLOCK_SIZE)
    points = uniform_points(512, seed=5)
    structure = FourSidedStructure(storage, points, epsilon=0.5, dynamic=False)
    query = four_sided_queries(points, 1, selectivity=0.4, seed=5)[0]
    benchmark(lambda: structure.query(query))


def test_static_layout_is_no_larger_and_no_slower(sweep_table):
    """Per row, the packed static layout uses at most the dynamic layout's
    blocks and its cold query I/Os."""
    for row in sweep_table.rows:
        assert row.params["blocks"] <= row.params["dynamic_blocks"], row.params
        assert row.measured_io <= row.params["dynamic_io"], row.params


def test_query_many_batches_match_and_share_warmth(capsys):
    """The facade's batch API answers like sequential queries, cheaper.

    ``RangeSkylineIndex.query_many`` orders the batch by (variant, x_lo),
    so consecutive 4-sided queries descend overlapping base-tree paths;
    with a warm buffer pool the batch never costs more block transfers
    than the same queries issued cold one at a time.
    """
    n = 2048
    storage = make_storage(block_size=BLOCK_SIZE)
    points = uniform_points(n, seed=n)
    index = RangeSkylineIndex(storage, points)
    queries = four_sided_queries(points, QUERIES_PER_CONFIG, selectivity=0.4, seed=n)

    sequential_io = 0
    sequential = []
    for query in queries:
        storage.drop_cache()
        before = storage.io_total()
        sequential.append(index.query(query))
        sequential_io += storage.io_total() - before

    storage.drop_cache()
    before = storage.io_total()
    batch = index.query_many(queries)
    batch_io = storage.io_total() - before

    assert [sorted((p.x, p.y) for p in r) for r in batch] == [
        sorted((p.x, p.y) for p in r) for r in sequential
    ]
    assert batch_io <= sequential_io
    with capsys.disabled():
        print(
            f"\nquery_many: {batch_io} I/Os for the batch vs "
            f"{sequential_io} cold sequential"
        )
