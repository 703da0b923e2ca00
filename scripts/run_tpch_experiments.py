#!/usr/bin/env python
"""TPC-H experiment runner: ten queries, modelled metrics, correctness column.

Runs the supported TPC-H queries — the single-table aggregates (Q1, Q6), the
two-table joins (Q3, Q12, Q14), and the N-way join DAGs (Q5, Q7, Q9, Q10,
Q18) — end to end through ``repro.connect`` / ``Session.register`` /
``Session.sql`` on a generated dataset, and writes a structured trajectory::

    PYTHONPATH=src python scripts/run_tpch_experiments.py \
        [--sf 0.002] [--runs 3] [--warmup 1] [--query q5 --query q9 ...] \
        [--output BENCH_tpch.json]

Reported per query: median/min modelled latency and modelled dollars over
``--runs`` measured executions (after ``--warmup`` unmeasured ones), worker
and DAG-stage counts, each join query's scan fleets (files, stored bytes and
the mappers that ran, by exchange tag), the exchange request profile
(combined PUTs, ranged GETs, and LIST/HEAD discovery requests), and a
**correctness column** — every
measured run is compared bit-identically against a single-pass NumPy
reference over the raw generator tables.  The ``dag_join`` summary section
aggregates the five DAG queries for the regression guard in
``scripts/check_bench_regression.py``: all of them must stay correct and
issue **zero** discovery requests per wave (the write-combined exchange
announces offsets through the result-queue barrier).

Deterministic by construction: fixed dataset seed, modelled (never
wall-clock) latency and cost.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.cloud.environment import CloudEnvironment  # noqa: E402
from repro.frontend.sql import parse_sql  # noqa: E402
from repro.plan.optimizer import optimize  # noqa: E402
from repro.workload import queries as q  # noqa: E402
from repro.workload.tpch import (  # noqa: E402
    CustomerGenerator,
    LineitemGenerator,
    NationGenerator,
    OrdersGenerator,
    PartGenerator,
    RegionGenerator,
    SupplierGenerator,
    generate_customer_dataset,
    generate_lineitem_dataset,
    generate_nation_dataset,
    generate_orders_dataset,
    generate_part_dataset,
    generate_region_dataset,
    generate_supplier_dataset,
)

ALL_QUERIES = ("q1", "q3", "q5", "q6", "q7", "q9", "q10", "q12", "q14", "q18")
DAG_QUERIES = ("q5", "q7", "q9", "q10", "q18")


def build_stack(store, scale_factor: float, files: int, seed: int):
    """Generate the seven relations as datasets plus raw reference tables."""
    datasets = {
        "lineitem": generate_lineitem_dataset(
            store, scale_factor=scale_factor, num_files=files, seed=seed
        ),
        "orders": generate_orders_dataset(
            store, scale_factor=scale_factor, num_files=max(2, files // 2), seed=seed
        ),
        "customer": generate_customer_dataset(
            store, scale_factor=scale_factor, seed=seed
        ),
        "supplier": generate_supplier_dataset(
            store, scale_factor=scale_factor, seed=seed
        ),
        "part": generate_part_dataset(store, scale_factor=scale_factor, seed=seed),
        "nation": generate_nation_dataset(store, scale_factor=scale_factor, seed=seed),
        "region": generate_region_dataset(store, scale_factor=scale_factor, seed=seed),
    }
    tables = {
        "lineitem": LineitemGenerator(scale_factor, seed=seed).generate(),
        "orders": OrdersGenerator(scale_factor, seed=seed).generate(),
        "customer": CustomerGenerator(scale_factor, seed=seed).generate(),
        "supplier": SupplierGenerator(scale_factor, seed=seed).generate(),
        "part": PartGenerator(scale_factor, seed=seed).generate(),
        "nation": NationGenerator(scale_factor, seed=seed).generate(),
        "region": RegionGenerator(scale_factor, seed=seed).generate(),
    }
    return datasets, tables


def build_cases(tables):
    """``name -> (SQL text, reference table)`` for every query."""
    t = tables
    return {
        "q1": (q.q1_sql(), q.reference_q1(t["lineitem"])),
        "q3": (q.q3_sql(), q.reference_q3(t["lineitem"], t["orders"])),
        "q5": (
            q.q5_sql(),
            q.reference_q5(t["lineitem"], t["orders"], t["customer"],
                           t["supplier"], t["nation"], t["region"]),
        ),
        "q6": (q.q6_sql(), {"revenue": np.asarray([q.reference_q6(t["lineitem"])])}),
        "q7": (
            q.q7_sql(),
            q.reference_q7(t["lineitem"], t["orders"], t["customer"],
                           t["supplier"]),
        ),
        "q9": (
            q.q9_sql(),
            q.reference_q9(t["lineitem"], t["part"], t["supplier"],
                           t["orders"], t["nation"]),
        ),
        "q10": (
            q.q10_sql(),
            q.reference_q10(t["lineitem"], t["orders"], t["customer"],
                            t["nation"]),
        ),
        "q12": (q.q12_sql(), q.reference_q12(t["lineitem"], t["orders"])),
        "q14": (q.q14_sql(), q.reference_q14(t["lineitem"], t["part"])),
        "q18": (
            q.q18_sql(),
            q.reference_q18(t["lineitem"], t["orders"], t["customer"]),
        ),
    }


def tables_equal(reference, table, exact: bool) -> bool:
    """Compare an engine result against its NumPy reference.

    The DAG queries (``exact=True``) must be *bit-identical*: their measures
    are exactly integer-valued in float64, so summation order cannot show.
    The legacy queries sum cent-rounded prices, where partial-aggregate
    merge order moves the last few ULPs — those are held to ``rtol=1e-9``
    (the same bound the test suite uses for them).
    """
    if set(reference) != set(table):
        return False
    for name in reference:
        lhs = np.asarray(table[name])
        rhs = np.asarray(reference[name])
        if lhs.shape != rhs.shape:
            return False
        if exact:
            if not np.array_equal(lhs, rhs, equal_nan=True):
                return False
        elif not np.allclose(lhs, rhs, rtol=1e-9, equal_nan=True):
            return False
    return True


def run(arguments: argparse.Namespace) -> dict:
    env = CloudEnvironment.create()
    datasets, tables = build_stack(
        env.s3, arguments.sf, arguments.files, arguments.seed
    )
    cases = build_cases(tables)
    # Through the public surface, registered datasets and all: the catalog
    # then knows every relation's stored size, which is what the shuffle
    # coordinator prices its exchange fan-out from.
    session = repro.connect(env, memory_mib=arguments.memory_mib)
    for dataset in datasets.values():
        session.register(dataset)

    names = arguments.query or list(ALL_QUERIES)
    unknown = sorted(set(names) - set(ALL_QUERIES))
    if unknown:
        raise SystemExit(f"unknown queries: {', '.join(unknown)}")

    results = {}
    for name in names:
        sql, reference = cases[name]
        exact = name in DAG_QUERIES
        for _ in range(arguments.warmup):
            session.sql(sql)

        latencies, dollars, correct = [], [], True
        last = None
        for _ in range(arguments.runs):
            last = session.sql(sql)
            latencies.append(last.statistics.latency_seconds)
            dollars.append(last.statistics.cost_total)
            correct = correct and tables_equal(reference, last.table, exact)

        stats = last.statistics
        exchange = stats.exchange
        results[name] = {
            "correct": bool(correct),
            "comparison": "bit_identical" if exact else "allclose_rtol_1e-9",
            "rows": int(last.num_rows),
            "runs": arguments.runs,
            "dag_stages": int(stats.dag_stages),
            "join_waves": int(stats.join_waves),
            "broadcast_stages": int(stats.broadcast_stages),
            "workers": int(stats.num_workers),
            "modelled_latency_median_seconds": statistics.median(latencies),
            "modelled_latency_min_seconds": min(latencies),
            "modelled_cost_median_dollars": statistics.median(dollars),
            "exchange_put_requests": int(exchange.put_requests),
            "exchange_combined_put_requests": int(exchange.combined_put_requests),
            "exchange_get_requests": int(exchange.get_requests),
            "discovery_list_requests": int(exchange.list_requests),
            "discovery_head_requests": int(exchange.head_requests),
            "gc_objects_deleted": int(stats.gc_objects_deleted),
            "gc_list_requests": int(stats.gc_list_requests),
            "max_worker_seconds": float(stats.max_worker_seconds),
        }
        if stats.map_fleets:
            physical, _ = optimize(parse_sql(sql, session.catalog))
            planned = {fleet["tag"]: fleet for fleet in physical.waves()[0]["fleets"]}
            results[name]["map_fleets"] = {
                tag: {
                    "files": planned[tag]["files"],
                    "input_bytes": planned[tag]["input_bytes"],
                    "mappers": mappers,
                }
                for tag, mappers in stats.map_fleets.items()
            }
        print(
            f"{name:<4} {'ok' if correct else 'WRONG':<5} "
            f"rows {results[name]['rows']:>5}  "
            f"stages {results[name]['dag_stages']} "
            f"in {results[name]['join_waves']} wave(s)  "
            f"latency {results[name]['modelled_latency_median_seconds']:6.2f} s  "
            f"cost {results[name]['modelled_cost_median_dollars'] * 100:8.4f} ¢  "
            f"discovery {results[name]['discovery_list_requests'] + results[name]['discovery_head_requests']}"
        )

    dag_measured = [n for n in names if n in DAG_QUERIES]
    if dag_measured:
        results["dag_join"] = {
            "queries": dag_measured,
            "correct_fraction": sum(
                results[n]["correct"] for n in dag_measured
            ) / len(dag_measured),
            "min_dag_stages": min(results[n]["dag_stages"] for n in dag_measured),
            # Executed waves: the scan wave plus the join waves that ran
            # (stages with broadcastable build sides fuse into one wave).
            "total_waves": sum(results[n]["join_waves"] + 1 for n in dag_measured),
            "max_join_waves": max(results[n]["join_waves"] for n in dag_measured),
            "gc_list_requests": sum(
                results[n]["gc_list_requests"] for n in dag_measured
            ),
            "discovery_list_requests": sum(
                results[n]["discovery_list_requests"] for n in dag_measured
            ),
            "discovery_head_requests": sum(
                results[n]["discovery_head_requests"] for n in dag_measured
            ),
            "combined_put_requests": sum(
                results[n]["exchange_combined_put_requests"] for n in dag_measured
            ),
            "max_worker_seconds": max(
                results[n]["max_worker_seconds"] for n in dag_measured
            ),
        }

    return {
        "config": {
            "scale_factor": arguments.sf,
            "files": arguments.files,
            "seed": arguments.seed,
            "runs": arguments.runs,
            "warmup": arguments.warmup,
            "memory_mib": arguments.memory_mib,
            "queries": names,
            "cpu_count": os.cpu_count(),
        },
        "results": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sf", type=float, default=0.002,
                        help="TPC-H scale factor of the generated dataset")
    parser.add_argument("--files", type=int, default=4,
                        help="LINEITEM file count (ORDERS gets half)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=3,
                        help="measured executions per query")
    parser.add_argument("--warmup", type=int, default=1,
                        help="unmeasured executions per query before timing")
    parser.add_argument("--memory-mib", type=int, default=2048)
    parser.add_argument("--query", action="append", default=None,
                        metavar="NAME",
                        help="run only this query (repeatable); default all")
    parser.add_argument("--output", default="BENCH_tpch.json")
    arguments = parser.parse_args()

    trajectory = run(arguments)
    with open(arguments.output, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")

    results = trajectory["results"]
    wrong = [n for n, m in results.items() if m.get("correct") is False]
    print(f"\nwrote {arguments.output}: {len(results)} sections")
    if wrong:
        print(f"INCORRECT results: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
