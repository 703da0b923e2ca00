"""Table 2 — cost models of the S3-based exchange algorithms.

Reproduces the request-count formulas and additionally validates the
write-combined rows against the *measured* request counts of the executed
exchange on a small worker fleet (an end-to-end check the paper's table
cannot give).
"""

import numpy as np

from repro.analysis.figures import table2_exchange_models
from repro.cloud.s3 import ObjectStore
from repro.exchange.multilevel import MultiLevelExchange


def test_tab2_exchange_models(benchmark, experiment_report):
    rows = benchmark(table2_exchange_models, 1024)
    experiment_report(
        "",
        "Table 2 — request counts of the exchange variants (P = 1024)",
        f"  {'variant':<8} {'#reads':>14} {'#writes':>14} {'#lists':>10} {'#scans':>7}",
    )
    for row in rows:
        experiment_report(
            f"  {row['variant']:<8} {row['reads']:>14,.0f} {row['writes']:>14,.0f} "
            f"{row['lists']:>10,.0f} {row['scans']:>7.0f}"
        )

    # Validate the write-combined rows against the executed exchange at
    # P = 16: every sender PUTs one object per round, every receiver reads
    # one slice of each group member's object (fetched, or elided when
    # empty), and the offset directories travel with the announcements.
    P = 16
    rng = np.random.default_rng(0)
    tables = [
        {"key": rng.integers(0, 1000, 64).astype(np.int64), "v": rng.random(64)}
        for _ in range(P)
    ]
    experiment_report("", f"  measured on the executed exchange at P = {P}:")
    for levels in (1, 2):
        exchange = MultiLevelExchange(ObjectStore(), P, keys=["key"], levels=levels)
        exchange.run(tables)
        stats = exchange.stats
        reads = stats.get_requests + stats.empty_parts_elided
        side = round(P ** (1 / levels))
        experiment_report(
            f"    {levels}l-wc  writes {stats.put_requests:>4} (model: {levels * P})"
            f"  reads {reads:>4} (model: {levels * P * side};"
            f" {stats.empty_parts_elided} empty, elided)"
            f"  lists {stats.list_requests}  heads {stats.head_requests}"
        )
        assert stats.put_requests == levels * P
        assert reads == levels * P * side
        assert stats.list_requests == stats.head_requests == 0
