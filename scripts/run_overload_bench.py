#!/usr/bin/env python
"""Overload bench: N tenants submitting a TPC-H Q1/Q6/Q3 mix concurrently.

Drives a :class:`~repro.driver.driver.QuerySession` — the PR 9 overload
control plane: admission gate, per-tenant token-bucket budgets, shared
circuit-breaker board, per-query retry budgets and cancellation — with a
round-robin multi-tenant workload, optionally under a seeded
:func:`~repro.cloud.faults.brownout_plan` storm, and writes a structured
trajectory::

    PYTHONPATH=src python scripts/run_overload_bench.py \
        [--tenants 3] [--queries 12] [--brownout] [--output BENCH_overload.json]

Reported per run: completed / rejected / cancelled / failed counts (typed
rejection reasons broken out), p50/p99 *modelled* query latency, modelled
dollars per query, the admission controller's session counters, and every
breaker's final state and transition log.  Deterministic by construction:
fixed dataset seeds, a seeded storm, and modelled (never wall-clock) latency
and cost.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cloud.environment import CloudEnvironment  # noqa: E402
from repro.cloud.faults import brownout_plan  # noqa: E402
from repro.driver.admission import AdmissionConfig  # noqa: E402
from repro.driver.driver import QuerySession  # noqa: E402
from repro.driver.resilience import ResiliencePolicy  # noqa: E402
from repro.errors import (  # noqa: E402
    QueryCancelledError,
    QueryRejectedError,
    RetryBudgetExhaustedError,
)
from repro.frontend.sql import parse_sql  # noqa: E402
from repro.workload.queries import q1_sql, q3_sql, q6_sql, tpch_catalog  # noqa: E402
from repro.workload.tpch import (  # noqa: E402
    generate_lineitem_dataset,
    generate_orders_dataset,
)

QUERY_MIX = ("q1", "q6", "q3")


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run(arguments: argparse.Namespace) -> dict:
    env = CloudEnvironment.create()
    lineitem = generate_lineitem_dataset(
        env.s3,
        scale_factor=arguments.scale_factor,
        num_files=arguments.files,
        row_group_rows=4096,
    )
    orders = generate_orders_dataset(
        env.s3,
        scale_factor=arguments.scale_factor,
        num_files=max(2, arguments.files // 2),
        row_group_rows=4096,
        seed=7,
    )
    catalog = tpch_catalog(lineitem=lineitem.paths, orders=orders.paths)
    plans = {
        name: parse_sql(sql(), catalog)
        for name, sql in (("q1", q1_sql), ("q6", q6_sql), ("q3", q3_sql))
    }
    tenants = [f"tenant-{index}" for index in range(arguments.tenants)]

    storm = None
    if arguments.brownout:
        # Caps strictly below the retry budgets so every admitted query
        # provably converges or fails typed (see tests/test_overload_chaos.py).
        storm = brownout_plan(
            seed=arguments.seed, storm_rate=0.2, capacity_limit=6, max_count=12
        )
        env.install_fault_plan(storm)

    admission = AdmissionConfig(
        max_concurrent_queries=arguments.max_concurrent,
        max_queued_queries=arguments.max_queued,
        tenant_invocation_capacity=arguments.invocation_budget,
        tenant_dollar_capacity=arguments.dollar_budget,
    )
    latencies = []
    dollars = []
    outcomes = {"completed": 0, "cancelled": 0, "failed": 0}
    rejected: dict = {}
    per_query = []
    try:
        with QuerySession(
            env,
            admission=admission,
            resilience_policy=ResiliencePolicy(max_attempts=14),
        ) as session:
            handles = []
            for index in range(arguments.queries):
                query = QUERY_MIX[index % len(QUERY_MIX)]
                tenant = tenants[index % len(tenants)]
                try:
                    handle = session.submit(plans[query], tenant=tenant)
                except QueryRejectedError as error:
                    rejected[error.reason] = rejected.get(error.reason, 0) + 1
                    per_query.append(
                        {"query": query, "tenant": tenant,
                         "outcome": f"rejected:{error.reason}"}
                    )
                    continue
                handles.append((query, tenant, handle))
            for query, tenant, handle in handles:
                record = {"query": query, "tenant": tenant}
                try:
                    result = handle.result(timeout=300.0)
                except QueryCancelledError as error:
                    outcomes["cancelled"] += 1
                    record["outcome"] = f"cancelled:{error.stage}"
                except RetryBudgetExhaustedError:
                    outcomes["failed"] += 1
                    record["outcome"] = "failed:retry_budget"
                except Exception as error:  # noqa: BLE001 - report and continue
                    outcomes["failed"] += 1
                    record["outcome"] = f"failed:{type(error).__name__}"
                else:
                    outcomes["completed"] += 1
                    statistics = result.statistics
                    latencies.append(statistics.latency_seconds)
                    dollars.append(statistics.cost_total)
                    record.update(
                        outcome="completed",
                        modelled_latency_seconds=statistics.latency_seconds,
                        cost_dollars=statistics.cost_total,
                        retries=statistics.resilience.retries,
                        budget_spent=statistics.overload["retry_budget"][
                            "spent_total"
                        ],
                    )
                per_query.append(record)
            session_dict = session.to_dict()
    finally:
        env.install_fault_plan(None)

    return {
        "config": {
            "tenants": arguments.tenants,
            "queries": arguments.queries,
            "query_mix": list(QUERY_MIX),
            "scale_factor": arguments.scale_factor,
            "files": arguments.files,
            "brownout": bool(arguments.brownout),
            "seed": arguments.seed,
            "max_concurrent": arguments.max_concurrent,
            "max_queued": arguments.max_queued,
            "dollar_budget": arguments.dollar_budget,
            "invocation_budget": arguments.invocation_budget,
        },
        "outcomes": {**outcomes, "rejected": rejected},
        "modelled_latency_p50_seconds": percentile(latencies, 0.50) if latencies else None,
        "modelled_latency_p99_seconds": percentile(latencies, 0.99) if latencies else None,
        "dollars_total": sum(dollars),
        "dollars_per_query": sum(dollars) / len(dollars) if dollars else None,
        "faults_injected": storm.to_dict() if storm is not None else {},
        "session": session_dict,
        "per_query": per_query,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--queries", type=int, default=12)
    parser.add_argument("--scale-factor", type=float, default=0.002)
    parser.add_argument("--files", type=int, default=8)
    parser.add_argument("--max-concurrent", type=int, default=4)
    parser.add_argument("--max-queued", type=int, default=8)
    parser.add_argument("--dollar-budget", type=float, default=1.0)
    parser.add_argument("--invocation-budget", type=float, default=4096.0)
    parser.add_argument("--brownout", action="store_true",
                        help="install a seeded brownout storm")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output", default="BENCH_overload.json")
    arguments = parser.parse_args()

    trajectory = run(arguments)
    with open(arguments.output, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")

    outcomes = trajectory["outcomes"]
    print(
        f"{arguments.queries} queries / {arguments.tenants} tenants"
        + (" under brownout" if arguments.brownout else "")
        + f": {outcomes['completed']} completed, "
        f"{sum(outcomes['rejected'].values())} rejected, "
        f"{outcomes['cancelled']} cancelled, {outcomes['failed']} failed"
    )
    if trajectory["modelled_latency_p50_seconds"] is not None:
        print(
            f"modelled latency p50 {trajectory['modelled_latency_p50_seconds']:.3f}s "
            f"p99 {trajectory['modelled_latency_p99_seconds']:.3f}s, "
            f"${trajectory['dollars_per_query']:.6f}/query"
        )
    print(f"wrote {arguments.output}")
    return 1 if outcomes["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
