"""Ablation — central statistics catalog (the §5.3 "would not even be started" optimisation).

The paper notes that ~80 % of the Q6 workers only read their file's footer and
return an empty result, and that a central min/max index would avoid starting
them at all.  This ablation runs Q6 with and without the
:class:`~repro.driver.catalog.StatisticsCatalog` on the functional stack and at
paper scale, quantifying the saved invocations and cost.
"""

import numpy as np

from repro.analysis.experiments import PaperScaleModel, shipdate_prune_fraction
from repro.driver.catalog import StatisticsCatalog
from repro.frontend.sql import parse_sql
from repro.workload.queries import q6_sql, tpch_catalog


def test_catalog_pruning_ablation(benchmark, experiment_report, functional_stack):
    env, dataset, driver = functional_stack
    catalog = StatisticsCatalog(env.dynamodb)
    catalog.register_dataset(env.s3, "lineitem", dataset.paths)

    q6 = parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths))

    def run_both():
        without = driver.execute(q6)
        with_catalog = driver.execute(q6, catalog=catalog, dataset_name="lineitem")
        return without, with_catalog

    without, with_catalog = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert np.isclose(without.column("revenue")[0], with_catalog.column("revenue")[0])
    assert with_catalog.statistics.num_workers < without.statistics.num_workers

    # Paper-scale estimate of the same effect: Q6 prunes ~85 % of the files,
    # so a catalog-aware driver would start ~15 % of the workers.
    prune_fraction = shipdate_prune_fraction("q6")
    full_model = PaperScaleModel(query="q6", memory_mib=1792)
    invoked = int(round(full_model.num_workers * (1 - prune_fraction)))
    experiment_report(
        "",
        "Ablation — central statistics catalog (TPC-H Q6)",
        f"  functional run: {without.statistics.num_workers} workers without catalog, "
        f"{with_catalog.statistics.num_workers} with catalog; identical results; "
        f"cost {without.statistics.cost_total * 100:.4f} -> "
        f"{with_catalog.statistics.cost_total * 100:.4f} cents",
        f"  paper scale (SF 1000): {full_model.num_workers} workers without catalog, "
        f"~{invoked} with catalog ({prune_fraction:.0%} of invocations avoided)",
    )
