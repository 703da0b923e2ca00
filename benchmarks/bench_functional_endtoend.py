"""Functional end-to-end benchmarks (correctness anchor for the model-scale results).

These benchmarks time the *real* execution path — driver, tree invocation,
serverless workers scanning the object store, SQS result collection, and the
functional exchange — on generated data, and verify the answers against the
NumPy reference implementations.  They complement the paper-scale models used
by the figure benchmarks.
"""

import numpy as np
import pytest

from repro.analysis.experiments import run_tpch_query
from repro.cloud.s3 import ObjectStore
from repro.exchange.multilevel import MultiLevelExchange
from repro.workload.queries import reference_q1, reference_q6
from repro.workload.tpch import LineitemGenerator


def test_endtoend_q1(benchmark, experiment_report, functional_stack):
    env, dataset, driver = functional_stack
    result = benchmark.pedantic(
        lambda: run_tpch_query(driver, dataset, "q1"), rounds=3, iterations=1
    )
    reference = reference_q1(LineitemGenerator(scale_factor=0.002).generate())
    np.testing.assert_allclose(result.column("sum_qty"), reference["sum_qty"], rtol=1e-9)
    experiment_report(
        "",
        "Functional end-to-end — TPC-H Q1 on generated data",
        f"  workers {result.statistics.num_workers}, rows scanned {result.statistics.rows_scanned:,}, "
        f"result groups {result.num_rows}, answers match the NumPy reference",
    )


def test_endtoend_q6(benchmark, experiment_report, functional_stack):
    env, dataset, driver = functional_stack
    result = benchmark.pedantic(
        lambda: run_tpch_query(driver, dataset, "q6"), rounds=3, iterations=1
    )
    reference = reference_q6(LineitemGenerator(scale_factor=0.002).generate())
    assert result.scalar() == pytest.approx(reference, rel=1e-9)
    pruned = sum(r.row_groups_pruned for r in result.worker_results)
    total = sum(r.row_groups_total for r in result.worker_results)
    experiment_report(
        "",
        "Functional end-to-end — TPC-H Q6 on generated data",
        f"  workers {result.statistics.num_workers}, row groups pruned {pruned}/{total}, "
        f"revenue matches the NumPy reference",
    )


def test_endtoend_two_level_exchange(benchmark, experiment_report):
    P = 16
    rng = np.random.default_rng(3)
    tables = [
        {"key": rng.integers(0, 10_000, 2000).astype(np.int64), "v": rng.random(2000)}
        for _ in range(P)
    ]

    def run_exchange():
        exchange = MultiLevelExchange(ObjectStore(), P, keys=["key"], levels=2)
        return exchange, exchange.run(tables)

    exchange, result = benchmark.pedantic(run_exchange, rounds=3, iterations=1)
    rows_in = sum(len(t["key"]) for t in tables)
    rows_out = sum(len(t.get("key", [])) for t in result)
    experiment_report(
        "",
        "Functional end-to-end — two-level exchange with write combining",
        f"  {P} workers, {rows_in:,} rows shuffled, {exchange.stats.put_requests} PUTs "
        f"(2P = {2 * P}), {exchange.stats.get_requests} GETs; no rows lost: {rows_in == rows_out}",
    )
    assert rows_in == rows_out
