"""Figure 5 — two-level invocation of 4096 workers.

Reproduces the invocation-timeline experiment: the driver invokes ~sqrt(P)
first-generation workers which each invoke ~sqrt(P) second-generation workers.
Includes the flat-invocation ablation the paper compares against (13-18 s)
and the shape the driver prices from the two invocation rates.
"""

import numpy as np

from repro.analysis.figures import figure5_invocation_timeline


def test_fig5_two_level_invocation(benchmark, experiment_report):
    data = benchmark(figure5_invocation_timeline, 4096)
    before = np.array(data["before_own_invocation"])
    own = np.array(data["own_invocation"])
    invoking = np.array(data["invoking_workers"])
    completion = before + own + invoking
    experiment_report(
        "",
        "Figure 5 — two-level invocation of 4096 workers (cold start)",
        f"  first-generation workers: {data['first_generation']}",
        f"  {'worker':>8} {'before own inv. [s]':>20} {'own invocation [s]':>20} {'invoking workers [s]':>21}",
    )
    for index in range(0, data["first_generation"], 8):
        experiment_report(
            f"  {index:>8} {before[index]:>20.2f} {own[index]:>20.2f} {invoking[index]:>21.2f}"
        )
    experiment_report(
        f"  last worker invocation initiated at {completion.max():.2f} s "
        f"(paper: ~2.5 s); whole fleet running at {data['all_started_seconds']:.2f} s",
        f"  flat driver-only invocation would take {data['flat_invocation_seconds']:.1f} s "
        f"(paper: 13-18 s) -> speed-up {data['flat_invocation_seconds'] / data['all_started_seconds']:.1f}x",
        f"  priced from Table 1 (what the driver does): {data['priced_first_generation']} "
        f"first-generation workers, whole fleet running at "
        f"{data['priced_all_started_seconds']:.2f} s",
    )
    assert completion.max() < 3.5
    assert data["flat_invocation_seconds"] > 13
    assert data["first_generation"] == 64
    assert data["priced_all_started_seconds"] <= data["all_started_seconds"] < 3.0
