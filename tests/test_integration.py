"""Integration tests exercising the full stack together.

These tests combine the pieces the unit tests cover in isolation: data
generation, the SQL and dataflow frontends, the optimizer, the serverless
driver/worker path, the exchange operator, and the cost accounting.
"""

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.driver.driver import LambadaDriver
from repro.engine.join import hash_join
from repro.engine.table import concat_tables, table_num_rows
from repro.exchange.multilevel import MultiLevelExchange
from repro.frontend.dataframe import LambadaSession
from repro.frontend.sql import SqlCatalog, parse_sql
from repro.plan.expressions import col
from repro.workload.queries import Q1_SHIPDATE_CUTOFF_DAYS, q1_sql, reference_q1, tpch_catalog
from repro.workload.tpch import LineitemGenerator, generate_lineitem_dataset


def test_full_stack_q1_over_replicated_dataset():
    """Replicating files (the paper's SF-10k trick) scales counts proportionally
    while leaving averages unchanged."""
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.0005, num_files=2)
    replicated = []
    for copy in range(3):
        for index, path in enumerate(dataset.paths):
            data = env.s3.get_object("tpch", path.split("/", 3)[3]).data
            env.s3.put_object("tpch", f"lineitem-x3/copy-{copy}-part-{index}.lpq", data)
            replicated.append(f"s3://tpch/lineitem-x3/copy-{copy}-part-{index}.lpq")
    driver = LambadaDriver(env, memory_mib=2048)

    base = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    scaled = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=replicated)))
    np.testing.assert_allclose(scaled.column("count_order"), 3 * base.column("count_order"))
    np.testing.assert_allclose(scaled.column("sum_qty"), 3 * base.column("sum_qty"))
    np.testing.assert_allclose(scaled.column("avg_qty"), base.column("avg_qty"), rtol=1e-9)
    assert scaled.statistics.num_workers == 3 * base.statistics.num_workers


def test_sql_and_dataflow_agree():
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.0005, num_files=2)
    driver = LambadaDriver(env)
    session = LambadaSession(driver)

    sql_result = driver.execute(parse_sql(q1_sql(), SqlCatalog({"lineitem": dataset.paths})))
    flow_result = (
        session.from_parquet(dataset.paths)
        .filter(col("l_shipdate") <= Q1_SHIPDATE_CUTOFF_DAYS)
        .group_by("l_returnflag", "l_linestatus")
        .agg(
            ("sum", col("l_quantity"), "sum_qty"),
            ("sum", col("l_extendedprice") * (1 - col("l_discount")) * (1 + col("l_tax")),
             "sum_charge"),
        )
        .order_by("l_returnflag", "l_linestatus")
        .collect()
    )
    np.testing.assert_allclose(sql_result.column("sum_qty"), flow_result.column("sum_qty"))
    np.testing.assert_allclose(sql_result.column("sum_charge"), flow_result.column("sum_charge"))


def test_cost_accounting_consistency():
    """The driver's per-query cost is consistent with the environment ledger."""
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.0005, num_files=2)
    driver = LambadaDriver(env)
    env.ledger.reset()
    result = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    # The ledger has metered lambda GiB-seconds for exactly the workers' durations.
    gib_seconds = env.ledger.total("lambda", "gib_seconds")
    expected = sum(result.statistics.worker_durations) * 2048 / 1024
    assert gib_seconds == pytest.approx(expected, rel=1e-6)
    # The S3 GET count in the statistics matches the metered count.
    assert env.ledger.total("s3", "get_requests") >= result.statistics.get_requests


def test_repartitioned_join_through_exchange():
    """A distributed hash join built from the exchange operator: both sides are
    repartitioned on the join key, then joined locally per worker."""
    num_workers = 9
    env = CloudEnvironment.create()
    rng = np.random.default_rng(13)

    orders = {
        "o_orderkey": np.arange(300, dtype=np.int64),
        "o_total": rng.random(300) * 1000,
    }
    items = {
        "l_orderkey": rng.integers(0, 300, 900).astype(np.int64),
        "l_price": rng.random(900) * 100,
    }

    # Split both relations over the workers round-robin (as a scan would).
    def split(table, parts):
        return [
            {name: column[i::parts] for name, column in table.items()} for i in range(parts)
        ]

    left_shards = split(items, num_workers)
    right_shards = split(orders, num_workers)

    left_exchange = MultiLevelExchange(env.s3, num_workers, keys=["l_orderkey"], levels=2, tag="jl")
    right_exchange = MultiLevelExchange(env.s3, num_workers, keys=["o_orderkey"], levels=2, tag="jr")
    left_parts = left_exchange.run(left_shards)
    right_parts = right_exchange.run(right_shards)

    joined_parts = [
        hash_join(left_parts[w] or {"l_orderkey": np.zeros(0), "l_price": np.zeros(0)},
                  right_parts[w] or {"o_orderkey": np.zeros(0), "o_total": np.zeros(0)},
                  "l_orderkey", "o_orderkey")
        for w in range(num_workers)
    ]
    joined = concat_tables([part for part in joined_parts if table_num_rows(part)])

    # Reference: single-node join.
    reference = hash_join(items, orders, "l_orderkey", "o_orderkey")
    assert table_num_rows(joined) == table_num_rows(reference)
    assert joined["l_price"].sum() == pytest.approx(reference["l_price"].sum())
    assert joined["o_total"].sum() == pytest.approx(reference["o_total"].sum())


def test_query_after_exchange_buckets_exist():
    """Creating exchange buckets at installation time does not interfere with queries."""
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.0005, num_files=2)
    # An exchange run creates its buckets (and leaves its objects) in the store.
    MultiLevelExchange(env.s3, 4, keys=["l_orderkey"], levels=2).run([{}] * 4)
    driver = LambadaDriver(env)
    result = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    table = LineitemGenerator(scale_factor=0.0005).generate()
    np.testing.assert_allclose(result.column("sum_qty"), reference_q1(table)["sum_qty"])


def test_multiple_queries_reuse_warm_instances():
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.0005, num_files=2)
    driver = LambadaDriver(env)
    tables = tpch_catalog(lineitem=dataset.paths)
    first = driver.execute(parse_sql(q1_sql(), tables))
    second = driver.execute(parse_sql(q1_sql(), tables))
    # The second (hot) run is at least as fast as the first.
    assert second.statistics.max_worker_seconds <= first.statistics.max_worker_seconds + 1e-9
