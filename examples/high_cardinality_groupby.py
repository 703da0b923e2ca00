"""High-cardinality group-by with the shuffle-based aggregation path.

The driver-merge path used for TPC-H Q1/Q6 is perfect when the result has a
handful of groups, but a group-by on ``l_orderkey`` produces (almost) one group
per order — far too many to merge on the laptop.  This example uses the
two-wave shuffle aggregation built on the paper's exchange operator:

* map workers — as many as the input's listed bytes are worth — scan their
  files, pre-aggregate, hash-partition the partial aggregates by the group
  key, and write one combined object each;
* reduce workers read the slices addressed to them and merge their disjoint
  share of the groups;
* the driver only concatenates the reduce outputs.

It also shows the central statistics catalog skipping workers whose files
cannot match a selective predicate.

Run with:  python examples/high_cardinality_groupby.py
"""

import numpy as np

from repro import CloudEnvironment, LambadaDriver, col, parse_sql
from repro.driver.catalog import StatisticsCatalog
from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.plan.logical import AggregateSpec
from repro.workload import generate_lineitem_dataset, q6_sql, tpch_catalog
from repro.workload.tpch import LineitemGenerator


def main() -> None:
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.005, num_files=16)
    print(f"dataset: {dataset.num_files} files, {dataset.total_rows} rows\n")

    # -- shuffle-based aggregation -------------------------------------------------
    coordinator = ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=8)
    result, stats = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[
            AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
            AggregateSpec("count", None, "items"),
        ],
        order_by=["l_orderkey"],
    )
    # ``stats`` is a QueryStatistics, the record every query reports.
    mappers = sum(stats.map_fleets.values())
    print("shuffle-based group-by on l_orderkey:")
    print(f"  workers {stats.num_workers} ({mappers} map, "
          f"{stats.num_workers - mappers} reduce), rows scanned {stats.rows_scanned:,}")
    print(f"  modelled latency {stats.latency_seconds:.3f} s "
          f"(slowest worker {stats.max_worker_seconds:.3f} s), "
          f"cost {stats.cost_total * 100:.4f} ¢")
    print(f"  partition objects written/read: {stats.partition_objects_written} / "
          f"{stats.partition_objects_read}")
    print(f"  result groups: {stats.result_rows:,}")

    # Verify against a single-node NumPy computation.
    table = LineitemGenerator(scale_factor=0.005).generate()
    keys, inverse = np.unique(table["l_orderkey"], return_inverse=True)
    expected_revenue = np.bincount(
        inverse, weights=table["l_extendedprice"] * (1 - table["l_discount"])
    )
    print(f"  matches NumPy reference: "
          f"{np.allclose(np.sort(result['revenue']), np.sort(expected_revenue))}\n")

    # -- central statistics catalog --------------------------------------------------
    driver = LambadaDriver(env, memory_mib=1792)
    catalog = StatisticsCatalog(env.dynamodb)
    catalog.register_dataset(env.s3, "lineitem", dataset.paths)
    q6 = parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths))
    without = driver.execute(q6)
    with_catalog = driver.execute(q6, catalog=catalog, dataset_name="lineitem")
    print("central statistics catalog on TPC-H Q6:")
    print(f"  workers invoked without catalog: {without.statistics.num_workers}")
    print(f"  workers invoked with catalog:    {with_catalog.statistics.num_workers}")
    print(f"  identical results: "
          f"{np.isclose(without.column('revenue')[0], with_catalog.column('revenue')[0])}")
    print(f"  cost: {without.statistics.cost_total * 100:.4f} ¢ -> "
          f"{with_catalog.statistics.cost_total * 100:.4f} ¢")


if __name__ == "__main__":
    main()
