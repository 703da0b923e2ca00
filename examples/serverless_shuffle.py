"""Purely serverless shuffle: the exchange operator in action.

The paper's key systems contribution is an exchange (shuffle) operator that
works without any always-on infrastructure: workers communicate only through
the object store.  Every sender writes one combined object per round, and a
multi-level scheme cuts the number of (billable, rate-limited) slice reads
from O(P²) to O(P·P^(1/k)) (§4.4, Table 2, Figure 9).

This example:

1. runs the one-level and the two-level exchange on real data and compares
   their request counts against Table 2's write-combined rows,
2. uses the exchange to build a distributed hash join, and
3. prints the analytic cost model at the paper's fleet sizes.

Run with:  python examples/serverless_shuffle.py
"""

import numpy as np

from repro.cloud import CloudEnvironment
from repro.engine.join import hash_join
from repro.engine.table import concat_tables, table_num_rows
from repro.exchange import ExchangeCostModel, MultiLevelExchange
from repro.exchange.partition import partition_assignments


def make_shards(num_workers: int, rows_per_worker: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        {
            "key": rng.integers(0, 100_000, rows_per_worker).astype(np.int64),
            "value": rng.random(rows_per_worker),
        }
        for _ in range(num_workers)
    ]


def check_placement(tables, num_workers: int) -> bool:
    for worker, table in enumerate(tables):
        if not table:
            continue
        if not np.all(partition_assignments(table, ["key"], num_workers) == worker):
            return False
    return True


def main() -> None:
    env = CloudEnvironment.create()
    num_workers = 16
    shards = make_shards(num_workers, rows_per_worker=2000)
    total_rows = sum(table_num_rows(t) for t in shards)
    print(f"shuffling {total_rows} rows across {num_workers} serverless workers\n")

    # -- 1. one-level vs two-level exchange -------------------------------------------
    side = int(np.sqrt(num_workers))
    for levels, model in ((1, num_workers ** 2), (2, 2 * num_workers * side)):
        exchange = MultiLevelExchange(
            env.s3, num_workers, keys=["key"], levels=levels, tag=f"l{levels}"
        )
        result = exchange.run(shards)
        stats = exchange.stats
        print(f"{levels}-level exchange:")
        print(f"  placement correct: {check_placement(result, num_workers)}")
        print(f"  PUT requests: {stats.put_requests}  ({levels}*P = {levels * num_workers})")
        print(f"  slice reads: {stats.get_requests} GETs + {stats.empty_parts_elided} "
              f"empty, elided  (model: {model}), LIST/HEAD: "
              f"{stats.list_requests + stats.head_requests}")

    # -- 2. a distributed join built on the exchange ---------------------------------------
    print("\ndistributed hash join via repartitioning:")
    rng = np.random.default_rng(7)
    orders = {"o_orderkey": np.arange(500, dtype=np.int64), "o_total": rng.random(500)}
    items = {"l_orderkey": rng.integers(0, 500, 3000).astype(np.int64),
             "l_price": rng.random(3000)}
    split = lambda t, p: [{k: v[i::p] for k, v in t.items()} for i in range(p)]  # noqa: E731
    left = MultiLevelExchange(env.s3, num_workers, keys=["l_orderkey"], levels=2, tag="jl")
    right = MultiLevelExchange(env.s3, num_workers, keys=["o_orderkey"], levels=2, tag="jr")
    left_parts = left.run(split(items, num_workers))
    right_parts = right.run(split(orders, num_workers))
    joined = concat_tables([
        hash_join(lp, rp, "l_orderkey", "o_orderkey")
        for lp, rp in zip(left_parts, right_parts)
        if table_num_rows(lp) and table_num_rows(rp)
    ])
    reference = hash_join(items, orders, "l_orderkey", "o_orderkey")
    print(f"  joined rows: {table_num_rows(joined)} "
          f"(reference: {table_num_rows(reference)})")

    # -- 3. the analytic cost model at paper scale ------------------------------------------
    print("\nper-worker request cost at the paper's fleet sizes (Figure 9):")
    model = ExchangeCostModel()
    header = f"  {'P':>6} " + " ".join(f"{v:>10}" for v in ("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc"))
    print(header)
    for workers in (64, 256, 1024, 4096, 16384):
        row = [f"{model.cost(v, workers)['cost_per_worker']:.2e}"
               for v in ("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc")]
        print(f"  {workers:>6} " + " ".join(f"{value:>10}" for value in row))


if __name__ == "__main__":
    main()
