"""Table 1 — characteristics of function invocations per region.

Reproduces the invocation latency and rate table and validates the derived
fleet-startup times the rest of the system depends on.
"""

from repro.analysis.figures import table1_invocation_characteristics
from repro.driver.invocation import (
    FlatInvocationModel,
    InvocationModel,
    TreeInvocationModel,
)


def test_tab1_invocation_characteristics(benchmark, experiment_report):
    rows = benchmark(table1_invocation_characteristics)
    experiment_report(
        "",
        "Table 1 — characteristics of function invocations",
        f"  {'region':<8} {'single inv. [ms]':>18} {'concurrent [inv/s]':>20} {'intra-region [inv/s]':>22}",
    )
    for row in rows:
        experiment_report(
            f"  {row['region']:<8} {row['single_invocation_ms']:>18.0f} "
            f"{row['concurrent_rate_per_s']:>20.0f} {row['intra_region_rate_per_s']:>22.0f}"
        )
    experiment_report(
        "  -> invoking 1000 workers from the driver alone takes "
        + ", ".join(
            f"{1000 / FlatInvocationModel(region=row['region']).rate:.1f}s ({row['region']})"
            for row in rows
        )
        + "  (paper: 3.4-4.4 s)"
    )
    experiment_report(
        f"  {'4096 cold workers running after [s]':<38} {'flat':>8} {'sqrt(P) tree':>14} {'priced':>8}"
    )
    for row in rows:
        flat, tree, priced = (
            shape(region=row["region"]).plan(4096)
            for shape in (FlatInvocationModel, TreeInvocationModel, InvocationModel)
        )
        experiment_report(
            f"  {row['region']:<38} {flat.time_to_start_all:>8.2f} "
            f"{tree.time_to_start_all:>8.2f} ({tree.first_generation:>3}) "
            f"{priced.time_to_start_all:>8.2f} ({priced.first_generation})"
        )
        assert tree.first_generation == 64
        assert priced.time_to_start_all <= tree.time_to_start_all < flat.time_to_start_all
    by_region = {row["region"]: row for row in rows}
    assert by_region["eu"]["single_invocation_ms"] == 36
    assert by_region["ap"]["concurrent_rate_per_s"] == 222
