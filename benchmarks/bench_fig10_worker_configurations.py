"""Figure 10 — TPC-H Q1 with varying memory (M) and files per worker (F).

Two layers, as described in DESIGN.md:

* the *paper-scale model* regenerates the cost/latency points of Figure 10 at
  SF 1000 (320 files of ~500 MB, 80-320 workers), and
* the *functional run* executes Q1 end to end on generated data at several
  worker configurations, verifying that the same qualitative trade-offs appear
  in the real execution path.
"""


from repro.analysis.experiments import figure10_worker_configurations, run_tpch_query


def test_fig10_paper_scale_model(benchmark, experiment_report):
    data = benchmark(figure10_worker_configurations)
    experiment_report(
        "",
        "Figure 10 — TPC-H Q1 at SF 1000, paper-scale model",
        "  latency with the priced number of result-queue pollers | with one poller",
        "  (a) F=1, varying memory M:",
        f"  {'M [MiB]':>8} {'cold':>6} {'latency [s]':>12} {'1 poller [s]':>13} {'cost [cent]':>12}",
    )
    for row in sorted(data["varying_memory"], key=lambda r: (r["memory_mib"], r["cold"])):
        experiment_report(
            f"  {row['memory_mib']:>8} {str(row['cold']):>6} {row['latency_seconds']:>12.2f} "
            f"{row['latency_one_poller_seconds']:>13.2f} {row['cost_cents']:>12.2f}"
        )
    experiment_report(
        "  (b) M=1792 MiB, varying files per worker F:",
        f"  {'F':>8} {'cold':>6} {'latency [s]':>12} {'1 poller [s]':>13} {'cost [cent]':>12}",
    )
    for row in sorted(data["varying_files"], key=lambda r: (r["files_per_worker"], r["cold"])):
        experiment_report(
            f"  {row['files_per_worker']:>8} {str(row['cold']):>6} {row['latency_seconds']:>12.2f} "
            f"{row['latency_one_poller_seconds']:>13.2f} {row['cost_cents']:>12.2f}"
        )

    hot = {r["memory_mib"]: r for r in data["varying_memory"] if not r["cold"]}
    files_hot = {r["files_per_worker"]: r for r in data["varying_files"] if not r["cold"]}
    experiment_report(
        f"  -> larger workers are faster up to 1792 MiB "
        f"({hot[512]['latency_seconds']:.1f}s at 512 -> {hot[1792]['latency_seconds']:.1f}s at 1792), "
        f"beyond that only the price rises; fewer workers (F=4) are slower but cheaper; "
        f"all hot runs return in < 10 s (paper: both hot and cold < 10 s, cost 1-4 cents); "
        f"at M=1792 F=1 the priced pollers return {hot[1792]['latency_seconds']:.2f} s, one "
        f"poller {hot[1792]['latency_one_poller_seconds']:.2f} s (paper: 3.4-4.4 s)"
    )
    for row in data["varying_memory"] + data["varying_files"] + data["grid"]:
        assert row["latency_seconds"] <= row["latency_one_poller_seconds"]
    assert hot[1792]["latency_seconds"] < hot[512]["latency_seconds"]
    assert hot[3008]["cost_cents"] > hot[1792]["cost_cents"]
    assert hot[1792]["latency_seconds"] < 10
    assert files_hot[4]["latency_seconds"] > files_hot[1]["latency_seconds"]


def test_fig10_functional_ablation(benchmark, experiment_report, functional_stack):
    """Functional-scale ablation: the same (M, F) trade-offs on real execution."""
    env, dataset, driver = functional_stack

    def run_configurations():
        results = {}
        for memory in (512, 1792):
            driver.set_memory(memory)
            for files_per_worker in (1, 4):
                result = run_tpch_query(driver, dataset, "q1", files_per_worker=files_per_worker)
                results[(memory, files_per_worker)] = result.statistics
        driver.set_memory(1792)
        return results

    results = benchmark.pedantic(run_configurations, rounds=1, iterations=1)
    experiment_report(
        "",
        "Figure 10 (functional ablation) — Q1 on generated data",
        f"  {'M [MiB]':>8} {'F':>3} {'workers':>8} {'modelled latency [s]':>21} {'cost [cent]':>12}",
    )
    for (memory, files), stats in sorted(results.items()):
        experiment_report(
            f"  {memory:>8} {files:>3} {stats.num_workers:>8} "
            f"{stats.latency_seconds:>21.3f} {stats.cost_total * 100:>12.5f}"
        )
    assert results[(1792, 1)].max_worker_seconds < results[(512, 1)].max_worker_seconds
    assert results[(1792, 4)].num_workers < results[(1792, 1)].num_workers
