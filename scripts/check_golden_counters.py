#!/usr/bin/env python
"""Compare the exact counters of a traced end-to-end run against the golden file.

Usage::

    python3 benchmarks/e2e/run.py --sweeps 2 --trace 1 --seed 7 --output trace.jsonl
    python scripts/check_golden_counters.py trace.jsonl            # exit 1 on a change
    python scripts/check_golden_counters.py trace.jsonl --record   # rewrite the golden

The compared metrics are the per-layer metrics of ``BENCHMARK.json`` that
are deterministic for a seed: every one whose unit is ``count``, ``bytes``,
``model_s`` or ``GiB.s``, plus ``driver.cost_vs_ledger_ratio``, except the
``trace.*`` bookkeeping — 26 per workload.  They must match exactly: a
change that moves one on purpose re-records the golden file and says which
moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_e2e_counters.json"
EXACT_UNITS = {"count", "bytes", "model_s", "GiB.s"}
EXTRA = {"driver.cost_vs_ledger_ratio"}


def exact_metrics() -> List[str]:
    """Names of the compared per-layer metrics, in declaration order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return [
        metric["name"]
        for metric in declared
        if not metric["name"].startswith("trace.")
        and (metric["unit"] in EXACT_UNITS or metric["name"] in EXTRA)
    ]


def counters(trace_path: str) -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: value}}`` of the compared metrics in a run's output."""
    names = exact_metrics()
    by_workload = {}
    for line in Path(trace_path).read_text().splitlines():
        record = json.loads(line)
        metrics = record["metrics"]
        by_workload[record["workload"]] = {name: metrics[name]["value"] for name in names}
    return by_workload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="JSON lines written by run.py --trace 1 --output")
    parser.add_argument("--record", action="store_true", help="rewrite the golden file")
    arguments = parser.parse_args(argv)
    current = counters(arguments.trace)
    if arguments.record:
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"recorded {sum(map(len, current.values()))} values to {GOLDEN.name}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    moved = []
    for workload, values in sorted(golden.items()):
        if workload not in current:
            moved.append(f"{workload}: not in the run")
            continue
        moved += [
            f"{workload}: {name} {value!r} -> {current[workload][name]!r}"
            for name, value in values.items()
            if current[workload][name] != value
        ]
    print("\n".join(moved) if moved else
          f"{sum(map(len, golden.values()))} counters identical on {len(golden)} workloads")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
