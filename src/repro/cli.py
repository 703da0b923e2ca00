"""Command-line interface.

Because the cloud substrate is an in-process simulation, the CLI runs
self-contained sessions: each invocation creates an environment, generates (or
registers) a dataset, executes the requested action, and prints the results
and the bill.  Subcommands:

``demo-query``
    Generate a TPC-H dataset and run a SQL query (default: TPC-H Q6) end to
    end on the serverless stack through the public ``repro.connect()``
    session, printing the result, the modelled latency, and the cost
    breakdown.  ``--tpch q5`` (or q7/q9/q10/q18) generates every relation
    the query joins and schedules it as a multi-wave join DAG;
    ``--explain`` prints the optimizer's join order and the wave plan.

``exchange-cost``
    Print the Table 2 / Figure 9 request counts and per-worker costs of the
    exchange variants for a given fleet size.

``invocation``
    Print the time to start a fleet of a given size flat, through the paper's
    ⌈√P⌉ tree, and in the shape the driver prices from Table 1 (Figure 5);
    then what draining that fleet's result queue adds after the last worker,
    with one polling thread and with the priced number of them.

``qaas``
    Print the Figure 12 comparison (Lambada vs Athena vs BigQuery) for a
    query and scale factor.

``verify-dataset``
    Generate a dataset and checksum-scan every object end to end (footer,
    per-chunk crcs, full decode), optionally flipping a byte in some files
    first to demonstrate detection.  Prints, per intact file, its size, the
    size of its footer and how many column chunks the writer stored in each
    encoding.  Exits non-zero if corruption is found.

``overload-demo``
    Submit a batch of concurrent queries from several tenants through the
    admission-controlled :class:`~repro.driver.driver.QuerySession`,
    optionally under a seeded brownout storm, and print the per-query
    outcomes, admission counters, and circuit-breaker states.

Run ``python -m repro.cli <subcommand> --help`` for the options of each
subcommand.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import PaperScaleModel
from repro.baselines.qaas import AthenaModel, BigQueryModel
from repro.cloud.environment import CloudEnvironment
from repro.driver.catalog import StatisticsCatalog
from repro.driver.invocation import (
    FlatInvocationModel,
    InvocationModel,
    TreeInvocationModel,
)
from repro.exchange.cost_model import EXCHANGE_VARIANTS, ExchangeCostModel
from repro.frontend.session import connect
from repro.frontend.sql import SqlCatalog, parse_sql
from repro.plan.physical import describe_exchange_fan_out, describe_executed_waves
from repro.workload import queries as tpch_queries
from repro.workload.queries import q6_sql
from repro.workload.tpch import (
    generate_customer_dataset,
    generate_lineitem_dataset,
    generate_nation_dataset,
    generate_orders_dataset,
    generate_part_dataset,
    generate_region_dataset,
    generate_supplier_dataset,
)

#: The SQL text and the relations each packaged TPC-H query needs.
TPCH_QUERIES = {
    "q1": ("q1_sql", ("lineitem",)),
    "q3": ("q3_sql", ("lineitem", "orders")),
    "q5": ("q5_sql", ("lineitem", "orders", "customer", "supplier", "nation", "region")),
    "q6": ("q6_sql", ("lineitem",)),
    "q7": ("q7_sql", ("lineitem", "orders", "customer", "supplier")),
    "q9": ("q9_sql", ("lineitem", "part", "supplier", "orders", "nation")),
    "q10": ("q10_sql", ("lineitem", "orders", "customer", "nation")),
    "q12": ("q12_sql", ("lineitem", "orders")),
    "q14": ("q14_sql", ("lineitem", "part")),
    "q18": ("q18_sql", ("lineitem", "orders", "customer")),
}

_RELATION_GENERATORS = {
    "lineitem": generate_lineitem_dataset,
    "orders": generate_orders_dataset,
    "customer": generate_customer_dataset,
    "supplier": generate_supplier_dataset,
    "part": generate_part_dataset,
    "nation": generate_nation_dataset,
    "region": generate_region_dataset,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lambada reproduction: serverless analytics on cold data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo-query", help="run a SQL query on a generated dataset")
    demo.add_argument("--sql", default=None, help="SQL statement (default: the --tpch query)")
    demo.add_argument("--tpch", default="q6", choices=sorted(TPCH_QUERIES),
                      help="packaged TPC-H query; its relations are generated "
                           "automatically (N-way queries run as a join DAG)")
    demo.add_argument("--scale-factor", type=float, default=0.002, help="TPC-H scale factor")
    demo.add_argument("--files", type=int, default=8, help="number of LINEITEM files")
    demo.add_argument("--memory-mib", type=int, default=1792, help="worker memory size")
    demo.add_argument("--files-per-worker", type=int, default=1, help="files per worker (F)")
    demo.add_argument("--num-workers", type=int, default=None,
                      help="fleet size (join queries size both waves from this)")
    demo.add_argument("--cold", action="store_true", help="force cold starts")
    demo.add_argument("--explain", action="store_true",
                      help="print the optimizer report and wave schedule")
    demo.add_argument("--use-catalog", action="store_true",
                      help="skip fully-pruned files via the statistics catalog "
                           "(single-table queries only)")

    exchange = subparsers.add_parser("exchange-cost", help="exchange request-cost model (Table 2 / Figure 9)")
    exchange.add_argument("--workers", type=int, default=1024, help="fleet size P")

    invocation = subparsers.add_parser("invocation", help="flat vs two-level vs priced invocation times (Figure 5)")
    invocation.add_argument("--workers", type=int, default=4096, help="fleet size P")
    invocation.add_argument("--region", default="eu", choices=["eu", "us", "sa", "ap"])

    qaas = subparsers.add_parser("qaas", help="Lambada vs Athena vs BigQuery (Figure 12)")
    qaas.add_argument("--query", default="q1", choices=["q1", "q6"])
    qaas.add_argument("--scale-factor", type=int, default=1000)
    qaas.add_argument("--memory-mib", type=int, default=1792)

    verify = subparsers.add_parser(
        "verify-dataset", help="checksum-scan every object of a generated dataset"
    )
    verify.add_argument("--scale-factor", type=float, default=0.002, help="LINEITEM scale factor")
    verify.add_argument("--files", type=int, default=8, help="number of dataset files")
    verify.add_argument("--corrupt", type=int, default=0,
                        help="flip one byte in this many files before verifying")
    verify.add_argument("--seed", type=int, default=0, help="corruption placement seed")

    overload = subparsers.add_parser(
        "overload-demo",
        help="concurrent multi-tenant submission with admission control",
    )
    overload.add_argument("--tenants", type=int, default=3, help="number of tenants")
    overload.add_argument("--queries", type=int, default=8,
                          help="total queries submitted (round-robin over tenants)")
    overload.add_argument("--scale-factor", type=float, default=0.002,
                          help="LINEITEM scale factor")
    overload.add_argument("--files", type=int, default=4, help="number of dataset files")
    overload.add_argument("--max-concurrent", type=int, default=4,
                          help="admission gate: queries executing at once")
    overload.add_argument("--max-queued", type=int, default=4,
                          help="admission queue bound before fail-fast rejection")
    overload.add_argument("--dollar-budget", type=float, default=1.0,
                          help="per-tenant modelled-dollar budget")
    overload.add_argument("--brownout", action="store_true",
                          help="install a seeded S3 throttle storm + Lambda capacity cap")
    overload.add_argument("--seed", type=int, default=7, help="brownout fault seed")

    return parser


def _run_demo_query(args: argparse.Namespace, out) -> int:
    session = connect(memory_mib=args.memory_mib)
    sql_builder, relations = TPCH_QUERIES[args.tpch]
    datasets = {}
    for relation in relations:
        generator = _RELATION_GENERATORS[relation]
        kwargs = {"scale_factor": args.scale_factor}
        if relation == "lineitem":
            kwargs["num_files"] = args.files
        datasets[relation] = generator(session.env.s3, **kwargs)
        session.register(datasets[relation])
    sql = args.sql or getattr(tpch_queries, sql_builder)()
    lineitem = datasets.get("lineitem")

    execute_kwargs = {"cold": args.cold}
    if args.num_workers is not None:
        execute_kwargs["num_workers"] = args.num_workers
    if len(relations) == 1:
        execute_kwargs["files_per_worker"] = args.files_per_worker
        if args.use_catalog:
            statistics_catalog = StatisticsCatalog(session.env.dynamodb)
            statistics_catalog.register_dataset(
                session.env.s3, "lineitem", lineitem.paths
            )
            execute_kwargs["catalog"] = statistics_catalog
            execute_kwargs["dataset_name"] = "lineitem"

    result = session.sql(sql, **execute_kwargs)

    for relation, dataset in datasets.items():
        print(f"dataset: {relation}: {dataset.num_files} files, "
              f"{dataset.total_rows} rows", file=out)
    print(f"query:   {sql}", file=out)
    if args.explain:
        print("plan:", file=out)
        for line in result.explain().splitlines():
            print(f"  {line}", file=out)
    print(f"result ({result.num_rows} rows):", file=out)
    names = list(result.table.keys())
    print("  " + " | ".join(f"{name:>16}" for name in names), file=out)
    for index in range(result.num_rows):
        row = " | ".join(f"{result.table[name][index]:>16.4f}" for name in names)
        print("  " + row, file=out)
    stats = result.statistics
    print(f"workers: {stats.num_workers}   modelled latency: {stats.latency_seconds:.2f} s   "
          f"cost: {stats.cost_total * 100:.4f} cents", file=out)
    if stats.dag_stages > 1:
        print(f"join DAG: {stats.dag_stages} stages in {stats.join_waves} wave(s)   "
              f"exchange discovery requests: {stats.exchange.list_requests + stats.exchange.head_requests}   "
              f"gc'd exchange objects: {stats.gc_objects_deleted}", file=out)
        print(describe_exchange_fan_out(
            stats.exchange_partitions, stats.estimated_exchange_bytes,
            stats.exchange.bytes_written,
        ), file=out)
        print(describe_executed_waves(stats.wave_stages), file=out)
    print("cost breakdown:", file=out)
    print(f"  lambda duration  ${stats.cost_lambda_duration:.6f}", file=out)
    print(f"  lambda requests  ${stats.cost_lambda_requests:.6f}", file=out)
    print(f"  s3 requests      ${stats.cost_s3_requests:.6f}", file=out)
    print(f"  sqs requests     ${stats.cost_sqs_requests:.6f}", file=out)
    print(stats.describe_latency(), file=out)
    return 0


def _run_exchange_cost(args: argparse.Namespace, out) -> int:
    model = ExchangeCostModel()
    print(f"exchange request counts and costs for P = {args.workers}", file=out)
    print(f"  {'variant':<8} {'#reads':>14} {'#writes':>14} {'total $':>12} {'$/worker':>12}", file=out)
    for variant in EXCHANGE_VARIANTS:
        counts = model.requests(variant, args.workers)
        cost = model.cost(variant, args.workers)
        print(
            f"  {variant:<8} {counts['reads']:>14,.0f} {counts['writes']:>14,.0f} "
            f"{cost['total_cost']:>12.4f} {cost['cost_per_worker']:>12.2e}",
            file=out,
        )
    return 0


def _run_invocation(args: argparse.Namespace, out) -> int:
    print(f"starting {args.workers} workers in region {args.region!r}", file=out)
    for label, model in (
        ("flat (driver only)", FlatInvocationModel(region=args.region)),
        ("two-level tree (√P)", TreeInvocationModel(region=args.region)),
        ("priced (driver's choice)", InvocationModel(region=args.region)),
    ):
        plan = model.plan(args.workers)
        print(
            f"  {label + ':':<26}{plan.time_to_start_all:8.3f} s"
            f"   first generation: {plan.first_generation} workers",
            file=out,
        )
    # The priced fleet, every worker running 2.5 s, drained by a sequentially
    # polling driver and by the priced number of pollers.
    plan = InvocationModel(region=args.region).plan(args.workers)
    completion = plan.worker_start_times() + 2.5
    for label, pollers in (("collection, one poller", 1), ("collection, priced", None)):
        collection = plan.collection(completion, pollers)
        print(
            f"  {label + ':':<26}{collection.seconds:8.3f} s after the last worker"
            f"   pollers: {collection.pollers}   receives: {collection.receives}",
            file=out,
        )
    return 0


def _run_qaas(args: argparse.Namespace, out) -> int:
    lambada = PaperScaleModel(
        query=args.query, scale_factor=args.scale_factor, memory_mib=args.memory_mib
    )
    athena = AthenaModel().estimate(args.query, args.scale_factor)
    bigquery_hot = BigQueryModel().estimate(args.query, args.scale_factor, cold=False)
    bigquery_cold = BigQueryModel().estimate(args.query, args.scale_factor, cold=True)
    print(f"TPC-H {args.query.upper()} at SF {args.scale_factor}", file=out)
    print(f"  {'system':<16} {'latency [s]':>12} {'cost [$]':>10}", file=out)
    print(f"  {'lambada (hot)':<16} {lambada.latency_seconds():>12.1f} "
          f"{lambada.cost_dollars()['total']:>10.4f}", file=out)
    print(f"  {'athena':<16} {athena.latency_seconds:>12.1f} {athena.cost_dollars:>10.4f}", file=out)
    print(f"  {'bigquery (hot)':<16} {bigquery_hot.latency_seconds:>12.1f} "
          f"{bigquery_hot.cost_dollars:>10.4f}", file=out)
    print(f"  {'bigquery (cold)':<16} {bigquery_cold.cold_latency_seconds:>12.1f} "
          f"{bigquery_cold.cost_dollars:>10.4f}", file=out)
    return 0


def _run_verify_dataset(args: argparse.Namespace, out) -> int:
    import random

    from repro.cloud.s3 import parse_s3_path
    from repro.engine.table import table_num_rows
    from repro.formats.parquet import ColumnarFile

    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=args.scale_factor, num_files=args.files
    )
    rng = random.Random(args.seed)
    targets = set(
        rng.sample(range(dataset.num_files), min(args.corrupt, dataset.num_files))
    )
    for index in sorted(targets):
        bucket, key = parse_s3_path(dataset.paths[index])
        data = bytearray(env.s3.get_object(bucket, key).data)
        data[rng.randrange(len(data))] ^= 0xFF
        env.s3.put_object(bucket, key, bytes(data))

    print(f"verifying {dataset.num_files} files "
          f"({len(targets)} deliberately corrupted)", file=out)
    corrupt = 0
    for path in dataset.paths:
        bucket, key = parse_s3_path(path)
        data = env.s3.get_object(bucket, key).data
        try:
            file = ColumnarFile.from_bytes(data, verify=True, name=path)
            rows = table_num_rows(file.read_table())
            chunks = " ".join(
                f"{encoding.name}={count}"
                for encoding, count in file.metadata.encoding_counts().items()
            )
            print(f"  ok       {path}  rows={rows} "
                  f"row_groups={len(file.row_groups)} bytes={len(data)} "
                  f"footer={len(file.metadata.pack())} chunks: {chunks}", file=out)
        except Exception as exc:  # noqa: BLE001 - any decode failure = corrupt
            corrupt += 1
            layer = getattr(exc, "layer", None) or "unknown"
            offset = getattr(exc, "offset", None)
            where = f" offset={offset}" if offset is not None else ""
            print(f"  CORRUPT  {path}  layer={layer}{where}: {exc}", file=out)
    status = "FAILED" if corrupt else "clean"
    print(f"verification {status}: {dataset.num_files - corrupt}/{dataset.num_files} "
          f"files intact", file=out)
    return 1 if corrupt else 0


def _run_overload_demo(args: argparse.Namespace, out) -> int:
    from repro.cloud.faults import brownout_plan
    from repro.driver.admission import AdmissionConfig
    from repro.driver.driver import QuerySession
    from repro.errors import QueryRejectedError

    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=args.scale_factor, num_files=args.files
    )
    catalog = SqlCatalog({"lineitem": dataset.paths})
    plan = parse_sql(q6_sql(), catalog)
    if args.brownout:
        env.install_fault_plan(brownout_plan(seed=args.seed))
        print(f"brownout installed: seeded S3 throttle storm + Lambda capacity cap "
              f"(seed {args.seed})", file=out)

    admission = AdmissionConfig(
        max_concurrent_queries=args.max_concurrent,
        max_queued_queries=args.max_queued,
        tenant_dollar_capacity=args.dollar_budget,
    )
    tenants = [f"tenant-{index}" for index in range(args.tenants)]
    outcomes = {"completed": 0, "rejected": 0, "failed": 0}
    with QuerySession(env, admission=admission) as session:
        handles = []
        for index in range(args.queries):
            tenant = tenants[index % len(tenants)]
            try:
                handles.append((index, tenant, session.submit(plan, tenant=tenant)))
            except QueryRejectedError as error:
                outcomes["rejected"] += 1
                print(f"  query {index:>2} [{tenant}]  REJECTED ({error.reason})", file=out)
        for index, tenant, handle in handles:
            error = handle.exception()
            if error is None:
                stats = handle.result().statistics
                outcomes["completed"] += 1
                print(f"  query {index:>2} [{tenant}]  ok  "
                      f"latency={stats.latency_seconds:.2f}s  "
                      f"retries={stats.resilience.retries}  "
                      f"cost=${stats.cost_total:.6f}", file=out)
            else:
                outcomes["failed"] += 1
                print(f"  query {index:>2} [{tenant}]  FAILED "
                      f"({type(error).__name__}: {error})", file=out)
        stats = session.stats
        print(f"admission: {stats.admitted}/{stats.submitted} admitted, "
              f"peak {stats.peak_in_flight} in flight / {stats.peak_queued} queued",
              file=out)
        for tenant in tenants:
            levels = session.tenant_levels(tenant)
            row = stats.tenants.get(tenant, {})
            print(f"  {tenant}: spent {row.get('invocations_spent', 0.0):.0f} "
                  f"invocations / ${row.get('dollars_spent', 0.0):.6f}; "
                  f"budget left ${levels['dollars']:.6f}", file=out)
        breaker_states = {
            service: block["state"]
            for service, block in session.breakers.to_dict().items()
        }
        print(f"breakers: {breaker_states}", file=out)
    return 0 if outcomes["failed"] == 0 else 1


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo-query": _run_demo_query,
        "exchange-cost": _run_exchange_cost,
        "invocation": _run_invocation,
        "qaas": _run_qaas,
        "verify-dataset": _run_verify_dataset,
        "overload-demo": _run_overload_demo,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
