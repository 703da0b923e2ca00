"""The Lambada driver: query coordinator.

The driver deploys the worker function once ("installation"), then executes
queries by compiling them, running the worker fleet through one
:meth:`~repro.driver.dispatch.QueryContext.run` — failed workers re-invoked
— over one transport picked per query: Lambda + SQS, the transport every
shuffle wave uses too (its first round in the shape the launch plan prices,
one hop or the two-level tree of §4.2), or the process pool.  Stragglers are
hedged by one more call of the same transport, and the
partial results are merged locally (the driver scope of the physical plan).
Each query opens one :class:`~repro.driver.dispatch.QueryContext` (its id,
jitter stream, counters, span tree, retry budget and cancellation token, with
the driver's breaker board); the scan fleet, its hedges and a join plan's
every wave run under it.  It reports per-query statistics — modelled
end-to-end latency, placed on the span tree (:mod:`repro.driver.spans`), and
the full dollar-cost breakdown — which the evaluation benchmarks consume.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig
from repro.cloud.s3 import SharedObjectMirror
from repro.config import DEFAULT_RESILIENCE, IntegrityConfig
from repro.counters import CounterViews, Counts, LayerView, billed, counted, viewed
from repro.driver import spans
from repro.driver.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    CancellationToken,
)
from repro.driver.breakers import BreakerBoard, RetryBudget
from repro.driver.dispatch import FleetLabels, QueryContext, current_attempts
from repro.driver.invocation import InvocationModel, LaunchPlan, build_invocation_tree
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    ResiliencePolicy,
    pick_stragglers,
)
from repro.driver.shuffle import (
    JOIN_MAP_FUNCTION_NAME,
    JOIN_REDUCE_FUNCTION_NAME,
    ShuffleConfig,
    ShuffleJoinCoordinator,
    _gc_cancelled_query,
    expand_glob_paths,
    merge_driver_scope,
)
from repro.driver.worker import (
    COLD_EXECUTION_PENALTY,
    WORKER_FUNCTION_NAME,
    make_worker_handler,
)
from repro.engine.pipeline import WorkerResult
from repro.exchange.codec import verify_frame
from repro.engine.table import Table, table_num_rows
from repro.errors import ExecutionError, QueryCancelledError
from repro.plan.logical import LogicalPlan
from repro.plan.optimizer import OptimizerReport, optimize
from repro.plan.physical import (
    DagPhysicalPlan,
    PhysicalPlan,
    describe_exchange_fan_out,
    describe_executed_waves,
    resolve_udf,
)

#: What the scan fleet's and the process pool's pump points and retry-budget
#: accounts are called (a scan's first pump point is its first poll,
#: ``"collect"``).
SCAN_FLEET = FleetLabels(dispatch=None, retry="retry round", budget="driver_retries")
POOL_FLEET = FleetLabels(
    dispatch="pooled dispatch", retry="pooled retry", budget="pool_retries"
)


class _QueryViews(CounterViews):
    """The counts and dollars only a query's statistics show."""

    bytes_read = counted("scan", "bytes_read")
    get_requests = counted("scan", "get_requests")
    row_groups_shortcircuited = counted("scan", "row_groups_shortcircuited")
    rows_decode_saved = counted("scan", "rows_decode_saved")
    column_chunks_skipped = counted("scan", "column_chunks_skipped")
    cost_lambda_duration = billed("lambda.gib_seconds")
    cost_lambda_requests = billed("lambda.invocations")
    cost_s3_requests = billed("s3.")
    cost_sqs_requests = billed("sqs.")
    cost_dynamodb_requests = billed("dynamodb.")


@dataclass
class QueryStatistics(_QueryViews, spans.QueryClock):
    """Performance and cost statistics of one query execution.

    The counts — rows, bytes and GETs of the scans, the late-materialization
    and join counters, each summed over the fleet, and the ``exchange``,
    ``resilience`` and ``integrity`` blocks — are read-only views over the
    query's counter record (:attr:`~repro.driver.dispatch.QueryContext.counters`);
    the dollars are read-only views over the query's bill, the metering
    ledger's price of the records made while the query ran
    (:meth:`~repro.driver.dispatch.QueryContext.bill`), so ``cost_total`` is
    exactly what the simulated cloud billed the query; the timings are
    read-only views over the query's span tree
    (:attr:`~repro.driver.dispatch.QueryContext.trace`, placed on the modelled
    clock by :mod:`repro.driver.spans`), which :meth:`trace` renders.  The
    other fields are what the driver priced and planned.
    """

    num_workers: int
    memory_mib: int
    cold: bool
    #: Modelled time until every worker of the fleet was running: the
    #: launch span's end.
    invocation_seconds: float = viewed()
    #: Modelled execution time of the slowest / median worker.
    max_worker_seconds: float = viewed()
    median_worker_seconds: float = viewed()
    #: Modelled end-to-end query latency seen by the user: the query span's
    #: end.
    latency_seconds: float = viewed()
    rows_scanned: int = viewed()
    bytes_read: int = viewed()
    get_requests: int = viewed()
    #: Dollar cost breakdown, by service: Lambda GiB-seconds and requests,
    #: S3 requests (scans, exchange, LISTs of globs and sweeps, spills), SQS
    #: requests (result sends and the receives the driver issued) and the
    #: §5.3 catalog's DynamoDB reads; they sum to ``cost_total``.
    cost_lambda_duration: float = viewed()
    cost_lambda_requests: float = viewed()
    cost_s3_requests: float = viewed()
    cost_sqs_requests: float = viewed()
    cost_dynamodb_requests: float = viewed()
    #: Late-materialization scan counters: row groups whose selection vector
    #: short-circuited, rows never fully decoded, column-chunk downloads
    #: avoided.
    row_groups_shortcircuited: int = viewed()
    rows_decode_saved: int = viewed()
    column_chunks_skipped: int = viewed()
    #: Exchange-plane requests and bytes (non-zero only for plans with an
    #: exchange hop).
    exchange: LayerView = viewed()
    #: Join counters (non-zero only for join plans): rows entering the
    #: probe/build sides of the join kernels after repartitioning, and rows
    #: the kernels produced.
    join_probe_rows: int = viewed()
    join_build_rows: int = viewed()
    join_output_rows: int = viewed()
    #: Fault-tolerance counters: retries, hedges won/lost, injected faults
    #: survived, degradation fallbacks, wasted modelled cost.  All-zero on a
    #: clean run.
    resilience: LayerView = viewed()
    #: Data-integrity counters: bytes whose checksums were verified on read,
    #: mismatches by site, re-reads vs re-executions.
    integrity: LayerView = viewed()
    #: Per-worker modelled execution durations (every wave's accepted
    #: attempts), seconds.
    worker_durations: List[float] = viewed()
    #: Result collection (the collection span, priced by
    #: :class:`~repro.driver.invocation.CollectionPlan`): what the modelled
    #: queue drain adds after the last worker finished, and its polling
    #: threads and receive requests.  A scan's ``latency_seconds`` is the
    #: last completion + ``collection_seconds`` + the resilience block's
    #: backoff.  ``collection_receives`` is the modelled drain's count; the
    #: bill (``cost_sqs_requests``) counts the receives the driver issued.
    collection_seconds: float = viewed()
    collection_pollers: int = viewed()
    collection_receives: int = viewed()
    #: Logical join stages of the plan (1 for a binary join,
    #: ``len(dag.stages)`` for an N-way join DAG, 0 for a repartitioned
    #: aggregation; 1 for scan queries too, where no join exists but the
    #: field keeps a uniform meaning).
    dag_stages: int = 1
    #: The join waves that actually ran, each the DAG stages it executed —
    #: its first stage repartitioned, the others fused in as broadcast joins
    #: (decided at run time from the build sides' sizes; empty for scans).
    wave_stages: List[List[int]] = field(default_factory=list)
    #: Join workers started per wave (the exchange's hash partitions) and
    #: the planner's byte estimate they were priced from (0 = unknown; both 0
    #: for scans); ``exchange.bytes_written`` is what the run measured.
    exchange_partitions: int = 0
    estimated_exchange_bytes: int = 0
    #: Mappers each scan fleet of a DAG started, by exchange tag (``"L"``,
    #: ``"R"``, ``"R1"``, ...; empty for scans).
    map_fleets: Dict[str, int] = field(default_factory=dict)
    #: Exchange objects the coordinator deleted: each wave's consumed inputs,
    #: spilled results, and whatever a post-fault sweep found (0 for scans).
    gc_objects_deleted: int = 0
    #: LIST requests of the coordinator's end-of-query orphan sweep, which
    #: only runs after a fault (0 on a clean run).
    gc_list_requests: int = 0
    #: Overload-control block: this query's retry-budget spend plus the
    #: owning driver's circuit-breaker states and transition log at query
    #: end.  ``None`` only for catalog-pruned empty results, which never
    #: touch the fleet.
    overload: Optional[Dict[str, Any]] = None
    #: The query's counter record, span tree and bill (its context's).
    _counters: Counts = field(default_factory=Counts, repr=False)
    _trace: spans.Span = field(default_factory=lambda: spans.Span("query"), repr=False)
    _bill: Callable[[], Dict[str, float]] = field(default=dict, repr=False)

    @property
    def join_waves(self) -> int:
        """Join waves executed (0 for scans, at most ``dag_stages``)."""
        return len(self.wave_stages)

    @property
    def broadcast_stages(self) -> int:
        """Join stages that ran as a broadcast join inside an earlier wave."""
        return sum(len(wave) - 1 for wave in self.wave_stages if wave)

    def describe_latency(self) -> str:
        """The critical path of the modelled latency, as one line
        (:func:`repro.driver.spans.describe_latency`): the launch, then the
        workers — for a scan the stretch from the last start to the last
        completion, for a DAG its barriered waves — then what the
        result-queue drain adds, and any backoff the retry machinery charged;
        the terms sum to ``latency_seconds``.
        """
        return spans.describe_latency(self._trace, self.resilience.backoff_seconds)


#: What a join's :class:`QueryStatistics` takes from its coordinator run as is.
_RUN_FIELDS = (
    "dag_stages", "wave_stages", "exchange_partitions", "estimated_exchange_bytes",
    "map_fleets", "gc_objects_deleted", "gc_list_requests",
)


@dataclass
class QueryResult:
    """Result of one query execution."""

    table: Table
    reduce_value: Optional[Any]
    statistics: QueryStatistics
    worker_results: List[WorkerResult]
    optimizer_report: Optional[OptimizerReport] = None
    #: Rendering of the executed physical plan (``physical.explain()``).
    plan_explain: str = ""

    def column(self, name: str) -> np.ndarray:
        """One result column as a NumPy array."""
        return np.asarray(self.table[name])

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """Result rows as plain dicts of Python scalars, in result order."""
        names = list(self.table)
        columns = [np.asarray(self.table[name]) for name in names]
        return [
            {name: column[index].item() for name, column in zip(names, columns)}
            for index in range(self.num_rows)
        ]

    def explain(self) -> str:
        """The executed schedule: join order, waves, and push-downs.

        Combines the optimizer's report (join order, pruned columns,
        estimated costs) with the physical plan's rendering, the critical
        path of the modelled latency and, for join plans, how the stages were
        grouped into waves at run time.
        """
        parts = []
        if self.optimizer_report is not None:
            parts.append(self.optimizer_report.describe())
        if self.plan_explain:
            parts.append(self.plan_explain)
        if self.statistics.collection_receives:
            parts.append(self.statistics.describe_latency())
        if self.statistics.wave_stages:
            parts.append(
                describe_exchange_fan_out(
                    self.statistics.exchange_partitions,
                    self.statistics.estimated_exchange_bytes,
                    self.statistics.exchange.bytes_written,
                )
            )
            parts.append(describe_executed_waves(self.statistics.wave_stages))
        return "\n".join(parts) if parts else "(no plan recorded)"

    def scalar(self) -> float:
        """The single value of a scalar (one row, one column) result."""
        if self.reduce_value is not None:
            return float(self.reduce_value)
        if len(self.table) != 1:
            raise ExecutionError(f"result has {len(self.table)} columns, expected 1")
        column = next(iter(self.table.values()))
        if len(column) != 1:
            raise ExecutionError(f"result has {len(column)} rows, expected 1")
        return float(column[0])

    @property
    def num_rows(self) -> int:
        """Number of result rows."""
        return table_num_rows(self.table)


class LambadaDriver:
    """Coordinates query execution over the serverless worker fleet."""

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        function_name: str = WORKER_FUNCTION_NAME,
        result_queue: str = "lambada-result-queue",
        worker_timeout_seconds: float = 900.0,
        execution_mode: str = "serial",
        max_parallel_invocations: Optional[int] = None,
        shuffle_config: Optional[ShuffleConfig] = None,
        resilience_policy: Optional[ResiliencePolicy] = None,
        integrity: Optional[IntegrityConfig] = None,
        breakers: Optional[BreakerBoard] = None,
    ):
        """``execution_mode`` selects how the simulated fleet runs.

        ``"serial"`` (default) invokes the tree roots one after another, as the
        seed implementation did.  ``"threads"`` drives them through a thread
        pool: workers are independent pure functions over the (thread-safe)
        simulated services, so large-fleet runs stop paying serial Python
        overhead (but the GIL still serialises their NumPy-adjacent Python
        sections).  ``"processes"`` runs eligible fragments on a persistent
        spawn-based process pool whose inputs are mirrored in shared memory
        (:mod:`repro.driver.procpool`), the only mode whose wall-clock time
        actually scales with cores; plans the pool cannot run (registry UDFs,
        join schedules) and single-core hosts fall back transparently.
        Result ordering is deterministic in every mode — results are keyed
        and merged by worker id, never by arrival order.
        ``max_parallel_invocations`` bounds the thread pool, and doubles as a
        forced process-pool size (overriding the core-count default).
        """
        if execution_mode not in ("serial", "threads", "processes"):
            raise ValueError(f"unknown execution mode {execution_mode!r}")
        self.env = env
        self.memory_mib = memory_mib
        self.function_name = function_name
        self.result_queue = result_queue
        self.worker_timeout_seconds = worker_timeout_seconds
        self.execution_mode = execution_mode
        self.max_parallel_invocations = max_parallel_invocations
        self._pool = None
        self._pool_unavailable = False
        #: The pool's inputs in shared memory, kept across queries.
        self._mirror = SharedObjectMirror()
        #: Configuration of the shuffle I/O plane used by join queries
        #: (:class:`~repro.driver.shuffle.ShuffleConfig`); ``None`` selects
        #: the write-combined default.
        self.shuffle_config = shuffle_config
        self._join_coordinator = None
        #: Launch arithmetic of every fleet this driver starts: the shape and
        #: start times priced from the region's Table 1 constants.
        self._invocation = InvocationModel(region=env.region)
        #: Retry/backoff/hedging knobs (see :mod:`repro.driver.resilience`).
        self.resilience_policy = resilience_policy or DEFAULT_RESILIENCE_POLICY
        #: Per-service circuit breakers.  Breaker state is fleet health, not
        #: query state, so the board lives as long as the driver — and a
        #: :class:`QuerySession` shares one board across all its drivers.
        self.breakers = breakers or BreakerBoard()
        #: Content-checksum knobs: workers embed checksums in everything they
        #: write and every consumer verifies on read (both default on).
        self.integrity = integrity or IntegrityConfig()
        self.install()

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        """Deploy the worker function and create the result queue.

        This is the per-installation step of the usage model (§2.1); it incurs
        no recurring cost.
        """
        config = FunctionConfig(
            name=self.function_name,
            memory_mib=self.memory_mib,
            timeout_seconds=self.worker_timeout_seconds,
            region=self.env.region,
        )
        self.env.lambda_service.deploy(config, make_worker_handler(self.env))
        self.env.sqs.create_queue(self.result_queue)

    def set_memory(self, memory_mib: int) -> None:
        """Reconfigure the worker memory size (redeploys the function)."""
        self.memory_mib = memory_mib
        self.install()

    # -- query execution -----------------------------------------------------------

    def execute(
        self,
        plan: Union[LogicalPlan, PhysicalPlan, DagPhysicalPlan],
        num_workers: Optional[int] = None,
        files_per_worker: Optional[int] = None,
        cold: bool = False,
        threads: int = 2,
        catalog: Optional["StatisticsCatalog"] = None,
        dataset_name: Optional[str] = None,
        max_worker_retries: int = 1,
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Execute a query and return its result and statistics.

        ``num_workers`` and ``files_per_worker`` control the fleet size (the
        paper's ``W`` and ``F`` parameters); by default one worker per input
        file is used.  ``cold=True`` forces cold starts (fresh function
        instances), reproducing the paper's cold-run measurements.

        When a :class:`~repro.driver.catalog.StatisticsCatalog` and the
        dataset's catalog name are given, files whose min/max statistics cannot
        match the query's prune ranges are skipped entirely, so their workers
        are never invoked (the §5.3 central-statistics optimisation).

        Failed workers are retried up to ``max_worker_retries`` times before
        the query is aborted with :class:`~repro.errors.WorkerFailedError`
        (a worker's last message is an error) or
        :class:`~repro.errors.QueryTimeoutError` (it never reported).

        A plan is a logical plan, which :func:`~repro.plan.optimizer.optimize`
        lowers first, or one of the two physical plans: a
        :class:`~repro.plan.physical.PhysicalPlan` runs as one scan fleet, a
        :class:`~repro.plan.physical.DagPhysicalPlan` — every plan with a
        join, one stage per join — runs through the shuffle-join schedule
        (:class:`~repro.driver.shuffle.ShuffleJoinCoordinator`).  Left
        to itself it prices both fleet widths from the relations' registered
        sizes: as many mappers per relation as its bytes stream in the launch
        time each mapper adds, at most one per file
        (:func:`~repro.driver.shuffle.scan_fan_out`), and as many join
        workers per wave as the exchange's bytes keep streaming
        (:func:`~repro.driver.shuffle.exchange_fan_out`); a plan without
        sizes gets one mapper per file.  ``num_workers`` caps the map fleets
        and sets the join fan-out instead.
        ``files_per_worker`` is not consulted, a failed worker is retried
        within its wave up to ``resilience_policy.max_attempts`` times
        (``max_worker_retries`` is not consulted there; a wave's failure
        names its stage), and catalog-based file pruning is rejected
        explicitly (its single-dataset statistics cannot describe two
        relations).  Either way every re-dispatch and hedge bills one more
        invocation; a backoff retry of a cloud request bills none.

        The query runs under one :class:`~repro.driver.dispatch.QueryContext`
        with the driver's breaker board.  ``deadline_seconds``/``cancel`` arm
        cooperative cancellation: the query — scan or join — unwinds with a
        typed :class:`~repro.errors.QueryCancelledError` at its next pump
        point (poll round, retry round, wave round) once cancelled or past a
        deadline measured in modelled time (the clock plus accrued backoff),
        releasing shared-memory segments and garbage-collecting its S3/SQS
        state on the way out.  Each query also draws from a retry budget
        (``resilience_policy.retry_budget``) covering backoff retries, wave
        retries, and hedges combined; exhaustion raises
        :class:`~repro.errors.RetryBudgetExhaustedError`, with the same
        cleanup, instead of grinding through a sustained brownout.
        """
        if cancel is None and deadline_seconds is not None:
            cancel = CancellationToken(deadline_seconds=deadline_seconds)
        context = QueryContext(
            self.env, self.resilience_policy, breakers=self.breakers,
            cancel=cancel, budgeted=True,
        )
        with context.scope():
            report: Optional[OptimizerReport] = None
            if isinstance(plan, LogicalPlan):
                physical, report = optimize(plan)
            else:
                physical = plan

            # Dispatch on the unified plan protocol: every physical plan carries
            # an ``engine`` tag ("scan" or "shuffle-dag"), so the driver never
            # needs to know the concrete plan class.
            if getattr(physical, "engine", "scan") == "shuffle-dag":
                if catalog is not None or dataset_name is not None:
                    raise ExecutionError(
                        "catalog-based file pruning is not supported for join plans"
                    )
                return self._execute_join(physical, report, num_workers, cold, context)

            input_files = expand_glob_paths(self.env.s3, physical.input_files)
            if catalog is not None and dataset_name is not None:
                input_files = catalog.prune_paths(
                    input_files, dataset_name, physical.worker_template.prune_ranges
                )
                if not input_files:
                    # Every file is pruned by the central statistics: the query
                    # result is empty and no worker needs to be started.
                    return self._empty_result(physical, report, cold, context)
            if not input_files:
                raise ExecutionError("query has no input files")
            physical = PhysicalPlan(
                worker_template=physical.worker_template,
                driver=physical.driver,
                input_files=input_files,
            )

            if num_workers is None:
                if files_per_worker is not None:
                    if files_per_worker <= 0:
                        raise ValueError("files_per_worker must be positive")
                    num_workers = math.ceil(len(input_files) / files_per_worker)
                else:
                    num_workers = len(input_files)
            num_workers = min(num_workers, len(input_files))

            worker_plans = physical.worker_plans(num_workers)

            if cold:
                self.env.lambda_service.reset_warm_instances(self.function_name)

            events = {
                worker_id: {
                    "worker_id": worker_id,
                    "attempt": 0,
                    "plan": worker_plan.to_dict(),
                    "result_queue": self.result_queue,
                    "query_id": context.query_id,
                    "function_name": self.function_name,
                    "threads": threads,
                    "integrity": self.integrity.to_dict(),
                }
                for worker_id, worker_plan in enumerate(worker_plans)
            }
            launch = self._invocation.plan(len(events), cold=cold)

            with context.teardown(self._gc_cancelled_scan):
                with self._transport(physical, events, launch, context) as (transport, labels):
                    by_worker = context.run(events, transport, max_worker_retries + 1, labels)
                    self._hedge_stragglers(by_worker, events, transport, context)
                context.fetch_spilled(by_worker.values(), self.integrity.verify)
                worker_results = [
                    WorkerResult.from_payload(message["result"], message.get("frame"))
                    for _, message in sorted(by_worker.items())
                ]
                context.fold(worker_results)
                table, reduce_value = self._merge(physical, worker_results)
                context.note_faults()
                spans.place_scan(
                    context.trace, launch, context.counters["resilience", "backoff_seconds"]
                )
                return QueryResult(
                    table=table,
                    reduce_value=reduce_value,
                    statistics=self._statistics(context, launch.num_workers, cold),
                    worker_results=worker_results,
                    optimizer_report=report,
                    plan_explain=physical.explain(),
                )

    def _execute_join(
        self,
        physical: DagPhysicalPlan,
        report: Optional[OptimizerReport],
        num_workers: Optional[int],
        cold: bool,
        context: QueryContext,
    ) -> QueryResult:
        """Execute a join plan through the shuffle-join coordinator.

        The DAG schedule (one scan wave repartitioning every relation by its
        join key through the write-combined exchange, then the join waves —
        stages with small build sides join in place inside the wave before
        them, non-final waves re-emit into the exchange, the final one
        computes the partial aggregates placed above the join) runs in
        :class:`~repro.driver.shuffle.ShuffleJoinCoordinator` under the
        query's ``context``, whose teardown the coordinator applies to its own
        exchange and queue.  This places the run behind one launch of every
        worker, and the final wave's result collection, on the query's span
        tree (:func:`repro.driver.spans.place_dag`); the timings, counts and
        dollars need no copying, as both statistics read the context's tree,
        record and bill.
        """
        if self._join_coordinator is None:
            # An explicit shuffle config wins; otherwise the driver's
            # integrity knobs carry over to the join exchange plane.
            config = self.shuffle_config or ShuffleConfig(integrity=self.integrity)
            self._join_coordinator = ShuffleJoinCoordinator(
                self.env,
                memory_mib=self.memory_mib,
                config=config,
                resilience_policy=self.resilience_policy,
            )
        if cold:
            for name in (JOIN_MAP_FUNCTION_NAME, JOIN_REDUCE_FUNCTION_NAME):
                self.env.lambda_service.reset_warm_instances(name)
        table, run, worker_results = self._join_coordinator.execute(
            physical, num_workers=num_workers, context=context
        )

        num_total = run.map_workers + run.reduce_workers
        launch = self._invocation.plan(num_total, cold=cold)
        spans.place_dag(context.trace, launch, run.resilience.backoff_seconds)
        return QueryResult(
            table=table,
            reduce_value=None,
            statistics=self._statistics(
                context, num_total, cold, **{name: getattr(run, name) for name in _RUN_FIELDS}
            ),
            worker_results=worker_results,
            optimizer_report=report,
            plan_explain=physical.explain(),
        )

    # -- process-pool execution plane ------------------------------------------------

    def _pool_supported(self, physical: PhysicalPlan) -> bool:
        """Whether the process pool can run this plan's fragments.

        Registry UDFs live in the driver process only (the registry is
        per-process state) and cannot be resolved inside spawned children;
        the built-in reduce UDFs are module-level and travel by name.
        """
        from repro.plan.physical import BUILTIN_REDUCE_UDFS

        template = physical.worker_template
        if template.predicate_udf is not None or template.map_udf is not None:
            return False
        if template.reduce_udf and template.reduce_udf not in BUILTIN_REDUCE_UDFS:
            return False
        return True

    def _ensure_pool(self):
        """The warm process pool, spawning it on first use; ``None`` on fallback.

        Mirrors the threads-mode single-core fallback: on a single-core host
        (unless a pool size was forced) or when spawning fails (e.g. a
        sandboxed CI runner), ``processes`` mode runs every later fleet on
        Lambda + SQS, invoked as in ``serial`` mode, with a one-line warning
        instead of raising.
        """
        if self._pool is not None:
            return self._pool
        if self._pool_unavailable:
            return None
        size = self.max_parallel_invocations or (os.cpu_count() or 1)
        if size <= 1 and self.max_parallel_invocations is None:
            self._pool_unavailable = True
            warnings.warn(
                "processes execution mode: single-core host, "
                "falling back to serial dispatch",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        from repro.driver.procpool import ProcessWorkerPool

        try:
            self._pool = ProcessWorkerPool(
                size=min(size, DEFAULT_RESILIENCE.pool_max_children)
            )
        except Exception as exc:  # noqa: BLE001 - degrade, don't fail the query
            self._pool_unavailable = True
            warnings.warn(
                f"processes execution mode: worker pool failed to start ({exc}); "
                "falling back to serial dispatch",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return self._pool

    def close(self) -> None:
        """Shut down the process pool, if one was spawned, and unlink its
        mirrored inputs; idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._mirror.close()

    @contextmanager
    def _transport(
        self,
        physical: PhysicalPlan,
        events: Dict[int, Dict],
        launch: LaunchPlan,
        context: QueryContext,
    ) -> Iterator[Tuple[Callable, FleetLabels]]:
        """The scan fleet's one transport and its labels, chosen once per query.

        The process pool when ``processes`` mode can run the plan, the pool is
        available and the query's new or changed input objects fit the free
        space of ``/dev/shm`` once the copies the query does not read are
        evicted (a tmpfs written past capacity kills the writer with SIGBUS);
        otherwise Lambda + SQS
        (:meth:`~repro.driver.dispatch.QueryContext.lambda_transport`), its
        first round launched in the shape ``launch`` priced.  The fleet, its
        retry rounds and its hedges all go through what is yielded.
        """
        pool = None
        if self.execution_mode == "processes" and self._pool_supported(physical):
            pool = self._ensure_pool()
        if pool is not None:
            files = {path for event in events.values() for path in event["plan"]["files"]}
            if not self._mirror.sync(self.env.s3, sorted(files), pool.forget_segments):
                pool = None
                warnings.warn(
                    "processes execution mode: the query's inputs do not fit "
                    "/dev/shm, running it on Lambda + SQS",
                    RuntimeWarning,
                    stacklevel=3,
                )
        if pool is None:
            self.env.sqs.purge_queue(self.result_queue)
            yield context.lambda_transport(
                self.function_name, self.result_queue, "collect", self.integrity.verify,
                launch=functools.partial(self._launch_tree, launch),
            ), SCAN_FLEET
            return
        respawns = pool.stats().get("respawns", 0)
        try:
            yield self._pool_transport(pool), POOL_FLEET
        finally:
            context.counters.note(
                "resilience", "pool_respawns", pool.stats().get("respawns", 0) - respawns
            )

    def _pool_transport(self, pool) -> Callable:
        """The process pool's transport: run the payloads on the pool's
        children over the mirrored inputs and meter each attempt.

        Every attempt comes back as a classic-shaped result message keyed by
        worker id (``want`` has no use: a call returns every outcome), metered
        by ``LambdaService.account_invocation`` in worker-id order, so
        cold/warm assignment is deterministic; the S3 GETs and bytes the
        children read go to the ledger.  An installed
        :class:`~repro.cloud.faults.FaultPlan` is consulted as on the SQS
        path: drops and timeouts are drawn before dispatch (the fragment
        never runs), a pool crash loses a completed result, and straggler
        slowdowns multiply the reported duration.
        """

        def transport(payloads: List[Dict], by_key: Dict, want: Dict) -> None:
            plan = getattr(self.env, "fault_plan", None)
            faulted: Dict[int, str] = {}
            if plan is not None:
                for payload in payloads:
                    fault = plan.invocation_fault(self.function_name)
                    if fault is not None:
                        faulted[payload["worker_id"]] = fault
            directory = self._mirror.directory
            raw = pool.run_tasks([
                (
                    "run", payload["worker_id"], payload["plan"],
                    {path: directory[path] for path in payload["plan"]["files"]},
                    self.memory_mib, payload.get("threads", 2),
                )
                for payload in payloads
                if payload["worker_id"] not in faulted
            ])
            get_requests = bytes_read = 0
            for payload in payloads:
                worker_id = payload["worker_id"]
                fault = faulted.get(worker_id)
                if fault is not None:
                    message = {"worker_id": worker_id, "status": "error"}
                else:
                    crashed = plan is not None and plan.pool_crash(
                        self.function_name, worker_id
                    )
                    message = self._pooled_message(raw.get(worker_id), worker_id)
                    if message["status"] == "ok":
                        # The child read its inputs whether or not it survives.
                        counts = message["result"]["counters"]
                        get_requests += counts.get("scan.get_requests", 0)
                        bytes_read += counts.get("scan.bytes_read", 0)
                    if crashed:
                        # The child did the work, but the injected crash loses
                        # its result.
                        message = {
                            "worker_id": worker_id,
                            "status": "error",
                            "error": "WorkerCrashError: injected pool worker crash",
                        }
                message.setdefault("attempt", payload.get("attempt", 0))
                duration = message.get("result", {}).get("duration_seconds", 0.0)
                if plan is not None and message["status"] == "ok":
                    duration *= plan.straggler_factor(self.function_name)
                # Metered like an invocation of the in-process handler.
                invocation = self.env.lambda_service.account_invocation(
                    self.function_name,
                    duration_seconds=duration,
                    cold_penalty=COLD_EXECUTION_PENALTY,
                    fault=fault,
                )
                if fault is not None:
                    message["error"] = invocation.error
                elif message["status"] == "ok":
                    message["result"]["duration_seconds"] = invocation.duration_seconds
                by_key[worker_id] = message
            now = self.env.clock.now
            self.env.ledger.record("s3", "get_requests", get_requests, now)
            self.env.ledger.record("s3", "bytes_read", bytes_read, now)

        return transport

    def _pooled_message(self, raw: Optional[tuple], worker_id: int) -> Dict:
        """Convert one pool child message into the classic result-message shape.

        The result frame arrived over the child's pipe — the same bytes a
        serial worker's message carries — and is checked here.
        """
        if raw is None:
            return {
                "worker_id": worker_id,
                "status": "error",
                "error": "no result from worker pool",
            }
        if raw[0] == "err":
            return {"worker_id": worker_id, "status": "error", "error": raw[2]}
        _, _, payload, frame = raw
        message = {"worker_id": worker_id, "status": "ok", "result": payload}
        if frame is not None:
            verify_frame(frame, key=f"pool/worker-{worker_id}")
            message["frame"] = frame
        return message

    # -- helpers --------------------------------------------------------------------

    def _launch_tree(self, launch: LaunchPlan, payloads: List[Dict], invoke) -> None:
        """Invoke the roots of the tree ``launch`` prices for ``payloads`` with
        ``invoke``, serially or through the thread pool — each pooled root in
        a copy of the calling context, so its ledger records carry the query."""
        tree = build_invocation_tree(payloads, launch)
        # On a single-core host the pool cannot overlap the workers' numpy
        # sections and only adds dispatch overhead (~10% on TPC-H Q1 at 1M
        # rows, see README "Performance notes"), so fall back to serial
        # dispatch unless the caller forced a pool size explicitly.
        single_core = (os.cpu_count() or 1) <= 1 and self.max_parallel_invocations is None
        if self.execution_mode != "threads" or len(tree) <= 1 or single_core:
            for parent in tree:
                invoke(parent)
            return
        max_workers = self.max_parallel_invocations or min(
            32, 4 * (os.cpu_count() or 4), len(tree)
        )
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, invoke, parent) for parent in tree
            ]
            for future in futures:
                future.result()

    def _statistics(
        self, context: QueryContext, num_workers: int, cold: bool, **planned: Any
    ) -> QueryStatistics:
        """The statistics of a query that ran its fleets under ``context``:
        views over its span tree, counter record and bill, beside what the
        driver planned."""
        return QueryStatistics(
            num_workers=num_workers, memory_mib=self.memory_mib, cold=cold, **planned,
            _counters=context.counters, _trace=context.trace, _bill=context.bill,
            overload=self._overload_block(context.budget),
        )

    def _overload_block(self, budget: Optional[RetryBudget]) -> Dict[str, Any]:
        """The per-query overload-control statistics block."""
        return {
            "retry_budget": budget.to_dict() if budget is not None else None,
            "breakers": self.breakers.to_dict(),
            "breaker_transitions": self.breakers.transition_count(),
        }

    def _gc_cancelled_scan(self, query_id: str) -> int:
        """Best-effort cleanup after a cancelled/budget-killed scan query:
        the shuffle plane's sweep over zero exchange buckets — spilled
        results deleted, result queue purged; returns the objects deleted."""
        return _gc_cancelled_query(self.env, query_id, 0, self.result_queue)

    def _hedge_stragglers(
        self,
        by_worker: Dict[int, Dict],
        events: Dict[int, Dict],
        transport: Callable,
        context: QueryContext,
    ) -> None:
        """Race each straggler against a speculative re-run; first result wins.

        Post-fleet quantile detection: workers whose modelled duration exceeds
        both ``hedge_factor`` x the fleet median and the absolute
        ``hedge_min_seconds`` floor are re-run once, flat, as their next
        attempt — one more call of the fleet's own ``transport``, whose
        reports land in a map of their own.  The hedge can only start once
        the straggler is *detected*, so it completes at ``threshold + hedge
        duration``; if that beats the original, the hedge's message replaces
        it in ``by_worker`` (the recompute is deterministic — data identical,
        only duration/counters differ) and the original run is attributed as
        wasted.  A homogeneous clean fleet never crosses the threshold, so
        fault-free runs take none of this path.

        Each hedge is one more attempt span of the fleet's wave with a
        ``hedge_won`` or ``hedge_lost`` event; a won hedge is the accepted
        attempt, finishing its detection threshold after its own run (latency
        only).  Both racers run to completion (a real Lambda cannot be
        cancelled) and the ledger bills both; what bought no used result — a
        won hedge's original, a lost hedge's run — is attributed as wasted.
        """
        policy = self.resilience_policy
        durations = {
            worker_id: message["result"]["duration_seconds"]
            for worker_id, message in by_worker.items()
        }
        stragglers = pick_stragglers(durations, policy)
        if not stragglers:
            return
        fleet_median = sorted(durations.values())[len(durations) // 2]
        threshold = max(policy.hedge_min_seconds, policy.hedge_factor * fleet_median)
        hedges: Dict[int, Dict] = {}
        for worker_id in stragglers:
            if not context.budget.try_charge("hedges"):
                # Hedging is optional work: when the retry budget runs dry it
                # is suppressed (and attributed), never fatal.
                context.counters.note("resilience", "fallback.hedge_suppressed")
                continue
            hedge = {**events[worker_id], "attempt": events[worker_id]["attempt"] + 1}
            hedge.pop("children", None)
            hedges[worker_id] = hedge
        if not hedges:
            return
        context.counters.note("resilience", "hedges_launched", len(hedges))
        hedged: Dict[int, Dict] = {}
        started = perf_counter()
        transport(list(hedges.values()), hedged, current_attempts(hedges))
        wave = context.trace.last("wave")
        raced = spans.record_round(wave, list(hedges), hedges, hedged, started, hedge=True)
        prices = self.env.ledger.prices
        for worker_id, hedge in hedges.items():
            message = hedged.get(worker_id, {})
            span = raced[worker_id, hedge["attempt"]]
            if message.get("status") != "ok" or message["attempt"] < hedge["attempt"]:
                # The hedge itself failed or vanished — it simply loses.
                outcome, wasted = "hedges_lost", prices.lambda_invocation_cost(1)
            elif threshold + message["result"]["duration_seconds"] < durations[worker_id]:
                by_worker[worker_id] = message
                spans.supersede(wave, worker_id, span, threshold)
                outcome = "hedges_won"
                wasted = prices.lambda_duration_cost(self.memory_mib, durations[worker_id])
            else:
                own = message["result"]["duration_seconds"]
                outcome = "hedges_lost"
                wasted = (
                    prices.lambda_invocation_cost(1)
                    + prices.lambda_duration_cost(self.memory_mib, own)
                )
            span.event(outcome.replace("hedges", "hedge"))
            context.counters.note("resilience", outcome)
            context.counters.note("resilience", "wasted_cost_dollars", wasted)

    def _empty_result(
        self,
        physical: PhysicalPlan,
        report: Optional[OptimizerReport],
        cold: bool,
        context: QueryContext,
    ) -> QueryResult:
        """Result of a query whose files were all pruned by the catalog: its
        bill is the catalog's lookups."""
        table, reduce_value = self._merge(physical, [])
        statistics = QueryStatistics(
            num_workers=0, memory_mib=self.memory_mib, cold=cold,
            _trace=context.trace, _bill=context.bill,
        )
        return QueryResult(
            table=table,
            reduce_value=reduce_value,
            statistics=statistics,
            worker_results=[],
            optimizer_report=report,
            plan_explain=physical.explain(),
        )

    def _merge(
        self, physical: PhysicalPlan, worker_results: List[WorkerResult]
    ) -> Tuple[Table, Optional[Any]]:
        """Driver-scope final phase: merge partials, finalise, sort, limit."""
        driver_plan = physical.driver
        template = physical.worker_template

        if template.reduce_udf:
            reduce_fn = resolve_udf(template.reduce_udf)
            values = [
                result.reduce_value
                for result in worker_results
                if result.reduce_value is not None
            ]
            reduce_value = functools.reduce(reduce_fn, values) if values else None
            return {}, reduce_value

        table = merge_driver_scope(
            [result.partial for result in worker_results],
            driver_plan, driver_plan.group_by, template.aggregates,
        )
        return table, None


class QueryHandle:
    """Tracking handle for one admitted query in a :class:`QuerySession`."""

    def __init__(
        self, tenant: str, cancel: CancellationToken, permit: Any
    ):
        self.tenant = tenant
        self.cancel_token = cancel
        self.permit = permit
        self.future = None

    def cancel(self) -> None:
        """Request cooperative cancellation; the query unwinds at its next
        pump point with a typed :class:`~repro.errors.QueryCancelledError`."""
        self.cancel_token.cancel()

    def done(self) -> bool:
        return self.future is not None and self.future.done()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block for the result; re-raises the query's typed failure."""
        return self.future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        return self.future.exception(timeout)


class QuerySession:
    """Concurrent query submission over one simulated fleet.

    :meth:`submit` admits a query through the
    :class:`~repro.driver.admission.AdmissionController` — raising
    :class:`~repro.errors.QueryRejectedError` *synchronously* when the
    admission queue is full or the tenant is over budget — and hands it to a
    bounded thread pool.  Each worker thread lazily creates its own
    :class:`LambadaDriver` on a **unique** result queue: result-queue polling
    consumes messages, so two drivers sharing one queue would eat each
    other's results.  All drivers share one
    :class:`~repro.driver.breakers.BreakerBoard`, because breaker state is
    fleet health — a brownout seen by one query should shed load from all of
    them.

    At completion each tenant's token buckets are reconciled against the
    query's actual metered spend (invocations made, modelled dollars), so
    budgets track real consumption rather than admission-time estimates.
    Use as a context manager, or call :meth:`close` to drain and shut down.
    """

    def __init__(
        self,
        env: CloudEnvironment,
        admission: Optional[AdmissionConfig] = None,
        breakers: Optional[BreakerBoard] = None,
        **driver_kwargs: Any,
    ):
        self.env = env
        self.admission_config = admission or AdmissionConfig()
        self.breakers = breakers or BreakerBoard()
        self.controller = AdmissionController(
            self.admission_config, now_fn=lambda: env.clock.now
        )
        self._driver_kwargs = driver_kwargs
        self._executor = ThreadPoolExecutor(
            max_workers=self.admission_config.max_concurrent_queries
        )
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._drivers: List[LambadaDriver] = []
        self._driver_serial = 0
        self._closed = False

    # -- submission -----------------------------------------------------------------

    def submit(
        self,
        plan: Union[LogicalPlan, PhysicalPlan, DagPhysicalPlan],
        tenant: str = "default",
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        invocation_estimate: Optional[float] = None,
        dollar_estimate: Optional[float] = None,
        **execute_kwargs: Any,
    ) -> QueryHandle:
        """Admit and launch one query; returns a :class:`QueryHandle`.

        Rejections (queue full, over budget) raise synchronously; every
        execution-time failure — including typed cancellation and retry-budget
        exhaustion — surfaces from ``handle.result()``.  ``execute_kwargs``
        are forwarded to :meth:`LambadaDriver.execute`.
        """
        if self._closed:
            raise ExecutionError("cannot submit to a closed session")
        permit = self.controller.admit(
            tenant,
            invocation_estimate=invocation_estimate,
            dollar_estimate=dollar_estimate,
        )
        token = cancel or CancellationToken(deadline_seconds=deadline_seconds)
        handle = QueryHandle(tenant=tenant, cancel=token, permit=permit)

        def run() -> QueryResult:
            self.controller.start(permit)
            outcome = "failed"
            actual_invocations = 0.0
            actual_dollars = 0.0
            try:
                driver = self._thread_driver()
                result = driver.execute(plan, cancel=token, **execute_kwargs)
                stats = result.statistics
                outcome = "completed"
                # The Lambda requests the statistics bill — one per attempt
                # span: a backoff retry of a cloud request (also a resilience
                # retry) invokes nothing.
                actual_invocations = float(len(spans.attempts(stats._trace)))
                actual_dollars = stats.cost_total
                return result
            except QueryCancelledError:
                outcome = "cancelled"
                raise
            finally:
                self.controller.finish(
                    permit,
                    outcome,
                    actual_invocations=actual_invocations,
                    actual_dollars=actual_dollars,
                )

        handle.future = self._executor.submit(run)
        return handle

    def _thread_driver(self) -> LambadaDriver:
        """This worker thread's driver, created on first use."""
        driver = getattr(self._tls, "driver", None)
        if driver is None:
            with self._lock:
                self._driver_serial += 1
                queue = f"lambada-result-queue-s{self._driver_serial}"
            driver = LambadaDriver(
                self.env,
                result_queue=queue,
                breakers=self.breakers,
                **self._driver_kwargs,
            )
            with self._lock:
                self._drivers.append(driver)
            self._tls.driver = driver
        return driver

    # -- reporting ------------------------------------------------------------------

    @property
    def stats(self) -> AdmissionStats:
        """Session-wide admission counters."""
        return self.controller.stats

    def tenant_levels(self, tenant: str) -> Dict[str, float]:
        """Current budget-bucket levels of one tenant."""
        return self.controller.tenant_levels(tenant)

    def to_dict(self) -> dict:
        return {
            "admission": self.controller.stats.to_dict(),
            "config": self.admission_config.to_dict(),
            "breakers": self.breakers.to_dict(),
        }

    def close(self) -> None:
        """Drain in-flight queries and shut down every per-thread driver."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        for driver in self._drivers:
            driver.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
