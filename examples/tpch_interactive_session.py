"""Interactive analytics on cold data: a "lone-wolf data scientist" session.

The paper motivates serverless analytics with a data scientist who runs a
handful of interactive queries against a cold dataset (§1, §2.1): explore a
sample, refine the query, then run it on the full dataset — paying only for
the queries themselves.

This example walks through such a session on TPC-H LINEITEM using the SQL
frontend:

* a sample query on a small slice of the files,
* TPC-H Q6 (highly selective; min/max pruning lets most workers return
  immediately),
* TPC-H Q1 (scans almost everything; grouped aggregation),
* a worker-configuration comparison (memory size and files per worker),
* the total bill of the session.

Run with:  python examples/tpch_interactive_session.py
"""

import repro
from repro.workload import generate_lineitem_dataset, q1_sql, q6_sql


def describe(result, label: str) -> None:
    stats = result.statistics
    pruned = sum(r.counters["scan", "row_groups_pruned"] for r in result.worker_results)
    total = sum(r.counters["scan", "row_groups_total"] for r in result.worker_results)
    print(f"  {label:<28} latency {stats.latency_seconds:6.2f} s   "
          f"cost {stats.cost_total * 100:7.4f} ¢   "
          f"workers {stats.num_workers:3d}   "
          f"row groups pruned {pruned}/{total}")


def main() -> None:
    session = repro.connect(memory_mib=1792)
    dataset = generate_lineitem_dataset(
        session.env.s3, scale_factor=0.005, num_files=16, row_group_rows=2048
    )
    session.register(dataset)
    session.register_table("sample", dataset.paths[:2])

    print(f"dataset: {dataset.num_files} files, {dataset.total_rows} rows\n")

    # -- explore a sample first (the 'sample query' of the usage model) -----------
    print("1. sample exploration")
    sample = session.sql(
        "SELECT l_returnflag, count(*) AS n, avg(l_extendedprice) AS avg_price "
        "FROM sample GROUP BY l_returnflag ORDER BY l_returnflag")
    describe(sample, "sample group-by")
    for flag, n, price in zip(sample.column("l_returnflag"),
                              sample.column("n"),
                              sample.column("avg_price")):
        print(f"      returnflag={int(flag)}  rows={int(n):6d}  avg price={price:10.2f}")

    # -- the real queries on the full dataset ---------------------------------------
    print("\n2. full-dataset queries")
    q6 = session.sql(q6_sql())
    describe(q6, "TPC-H Q6 (selective)")
    print(f"      revenue = {q6.column('revenue')[0]:,.2f}")

    q1 = session.sql(q1_sql())
    describe(q1, "TPC-H Q1 (scan-heavy)")
    print(f"      groups = {q1.num_rows}")

    # -- worker configuration exploration (the paper's Figure 10) --------------------
    print("\n3. worker configurations for Q1 (memory x files-per-worker)")
    for memory in (1024, 1792, 3008):
        session.driver.set_memory(memory)
        for files_per_worker in (1, 4):
            result = session.sql(q1_sql(), files_per_worker=files_per_worker)
            describe(result, f"M={memory} MiB, F={files_per_worker}")

    # -- the bill ----------------------------------------------------------------------
    print("\n4. session bill (everything metered by the simulated cloud)")
    for dimension, dollars in sorted(session.env.cost_breakdown().items()):
        if dollars:
            print(f"      {dimension:<24} ${dollars:.6f}")
    print(f"      {'total':<24} ${session.env.total_cost():.6f}")


if __name__ == "__main__":
    main()
