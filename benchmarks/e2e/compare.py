#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --output`` appended (one JSON object per
line, any number of runs and seeds per workload; ``--trace 0`` records only
are used).  For every (workload, end-to-end metric) it prints both medians,
the relative change of B against A, the run-to-run spread (interquartile
range over the median, the wider of the two sides, given two or more runs)
and a label:

* ``same`` / ``worse`` / ``better`` — the change is within / beyond the
  metric's bound;
* ``unresolved`` — the spread is wider than the bound, so the runs cannot
  tell.

The modelled metrics repeat exactly for a seed, so they are compared seed by
seed to the last bit: any difference is ``worse`` or ``better``.  Exits 1 if
any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: Metrics the simulator computes: deterministic for a seed.
EXACT = ("modelled_latency_s", "modelled_cost_usd", "cloud_requests")


def load(path: str) -> Dict[str, List[dict]]:
    """``workload -> end-to-end records`` of one ``--output`` file."""
    records: Dict[str, List[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    records[record["workload"]].append(record)
    return records


def values(records: List[dict], metric: str) -> List[float]:
    return [record["metrics"][metric]["value"] for record in records]


def spread(sample: List[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(sample) < 2:
        return 0.0
    first, _, third = statistics.quantiles(sample, n=4)
    return (third - first) / statistics.median(sample)


def compare(a: Dict[str, List[dict]], b: Dict[str, List[dict]], declared: List[dict]) -> List[dict]:
    rows = []
    for workload in a:
        if workload not in b:
            continue
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            side_a, side_b = values(a[workload], name), values(b[workload], name)
            median_a, median_b = statistics.median(side_a), statistics.median(side_b)
            change = sign * (median_b - median_a) / median_a
            width = max(spread(side_a), spread(side_b))
            if name in EXACT:
                by_seed = {record["seed"]: record["metrics"][name]["value"]
                           for record in a[workload]}
                differing = [
                    sign * (record["metrics"][name]["value"] - by_seed[record["seed"]])
                    for record in b[workload]
                    if record["seed"] in by_seed
                    and record["metrics"][name]["value"] != by_seed[record["seed"]]
                ]
                if not differing:
                    label = "same"
                else:
                    label = "worse" if sum(differing) > 0 else "better"
            elif width > bound:
                label = "unresolved"
            elif change > bound:
                label = "worse"
            elif change < -bound:
                label = "better"
            else:
                label = "same"
            rows.append({"workload": workload, "metric": name, "a": median_a, "b": median_b,
                         "change": change, "spread": width, "bound": bound, "label": label,
                         "runs": (len(side_a), len(side_b))})
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    rows = compare(load(argv[0]), load(argv[1]), declared)
    if not rows:
        print("no workload has end-to-end records in both files", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  label (runs A/B)")
    for row in rows:
        print(f"{row['workload']:<16} {row['metric']:<20} {row['a']:>12.6g} {row['b']:>12.6g} "
              f"{row['change']:>+9.4f} {row['spread']:>7.4f} {row['bound']:>6.3g}  "
              f"{row['label']} ({row['runs'][0]}/{row['runs'][1]})")
    return 1 if any(row["label"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
