"""Figure 11 — distribution of per-worker processing time (effect of push-downs).

Q1 selects ~98 % of LINEITEM, Q6 only ~2 %; thanks to min/max pruning on the
sorted ``l_shipdate`` column, workers whose files fall entirely outside the
predicate range return after reading only the footer.  The benchmark
regenerates the bimodal distribution at paper scale and verifies the same
behaviour on the functional execution path, including a pruning-off ablation.
"""

import numpy as np

from repro.analysis.experiments import figure11_processing_time_distribution, run_tpch_query
from repro.cloud.network import BandwidthModel
from repro.plan.optimizer import optimize
from repro.frontend.sql import parse_sql
from repro.workload.queries import q6_sql, tpch_catalog


def test_fig11_processing_time_distribution(benchmark, experiment_report):
    data = benchmark(figure11_processing_time_distribution, 320)
    experiment_report(
        "",
        "Figure 11 — per-worker processing time distribution (320 workers, F=1, M=1792 MiB)",
        f"  {'percentile':>10} {'Q1 [s]':>8} {'Q6 [s]':>8}",
    )
    q1 = np.array(data["q1"])
    q6 = np.array(data["q6"])
    for percentile in (1, 10, 25, 50, 75, 90, 99):
        experiment_report(
            f"  {percentile:>9}% {np.percentile(q1, percentile):>8.2f} "
            f"{np.percentile(q6, percentile):>8.2f}"
        )
    q1_fast = float((q1 < 0.5).mean())
    q6_fast = float((q6 < 0.5).mean())
    experiment_report(
        f"  -> workers returning almost immediately (metadata-only): "
        f"Q1 {q1_fast:.0%} (paper: ~2%), Q6 {q6_fast:.0%} (paper: ~80%); "
        f"the rest take ~2-3 s (paper: 2-3 s)"
    )
    assert q1_fast < 0.15
    assert q6_fast > 0.6
    assert 1.0 < np.percentile(q1, 75) < 5.0


def test_fig11_functional_pruning_ablation(benchmark, experiment_report, functional_stack):
    """Ablation: Q6 with and without min/max pruning on the functional path."""
    env, dataset, driver = functional_stack

    def run_both():
        # These files are far below the scan's break-even and would arrive
        # whole with the open request either way; a zero-latency model makes
        # the read plan exact, so the bytes show what pruning avoided.
        default_model, env.bandwidth = env.bandwidth, BandwidthModel(request_latency_seconds=0.0)
        try:
            with_pruning = run_tpch_query(driver, dataset, "q6")
            physical, _ = optimize(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
            physical.worker_template.prune_ranges = []
            without_pruning = driver.execute(physical)
        finally:
            env.bandwidth = default_model
        return with_pruning, without_pruning

    with_pruning, without_pruning = benchmark.pedantic(run_both, rounds=1, iterations=1)
    pruned = sum(r.counters["scan", "row_groups_pruned"] for r in with_pruning.worker_results)
    total = sum(r.counters["scan", "row_groups_total"] for r in with_pruning.worker_results)
    experiment_report(
        "",
        "Figure 11 (functional ablation) — Q6 row-group pruning on generated data",
        f"  with pruning:    {pruned}/{total} row groups pruned, "
        f"{with_pruning.statistics.bytes_read:,} bytes read, "
        f"slowest worker {with_pruning.statistics.max_worker_seconds:.3f} s",
        f"  without pruning: 0/{total} row groups pruned, "
        f"{without_pruning.statistics.bytes_read:,} bytes read, "
        f"slowest worker {without_pruning.statistics.max_worker_seconds:.3f} s",
        f"  both return the same answer: "
        f"{np.isclose(with_pruning.column('revenue')[0], without_pruning.column('revenue')[0])}",
    )
    assert pruned > 0.5 * total
    assert with_pruning.statistics.bytes_read < without_pruning.statistics.bytes_read
    assert np.isclose(with_pruning.column("revenue")[0], without_pruning.column("revenue")[0])
