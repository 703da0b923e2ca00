"""The Lambada driver: query coordinator.

The driver deploys the worker function once ("installation"), then executes
queries by compiling them, running the worker fleet through
:func:`repro.driver.dispatch.run_fleet` — invoked in the shape its launch
plan prices (one hop, or the two-level tree of §4.2 for a large fleet), or on
the process pool; failed workers re-invoked — and merging the partial results
locally (the driver scope of the physical plan).  It reports per-query
statistics — modelled end-to-end latency and the full dollar-cost breakdown —
which the evaluation benchmarks consume.
"""

from __future__ import annotations

import functools
import math
import os
import random
import threading
import uuid
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig
from repro.cloud.s3 import SharedObjectExport
from repro.config import DEFAULT_RESILIENCE, IntegrityConfig
from repro.driver.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    CancellationToken,
)
from repro.driver.breakers import BreakerBoard, RetryBudget
from repro.driver.dispatch import (
    FleetLabels,
    collect_results,
    current_attempts,
    run_fleet,
)
from repro.driver.integrity import IntegrityStats, fetch_spilled_result
from repro.driver.invocation import (
    CollectionPlan,
    InvocationModel,
    LaunchPlan,
    build_invocation_tree,
)
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    TRANSIENT_CLOUD_ERRORS,
    AttemptLog,
    ResiliencePolicy,
    ResilienceStats,
    call_with_backoff,
    fault_delta,
    fault_snapshot,
    pick_stragglers,
)
from repro.driver.shuffle import (
    JOIN_MAP_FUNCTION_NAME,
    JOIN_REDUCE_FUNCTION_NAME,
    ShuffleConfig,
    ShuffleJoinCoordinator,
    _gc_cancelled_query,
    expand_glob_paths,
    join_costs,
    merge_driver_scope,
)
from repro.driver.worker import (
    COLD_EXECUTION_PENALTY,
    WORKER_FUNCTION_NAME,
    make_worker_handler,
)
from repro.engine.pipeline import WorkerResult
from repro.exchange.basic import ExchangeStats
from repro.exchange.codec import verify_frame
from repro.engine.table import Table, table_num_rows
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    RetryBudgetExhaustedError,
    WorkerFailedError,
)
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


@dataclass
class QueryStatistics:
    """Performance and cost statistics of one query execution."""

    num_workers: int
    memory_mib: int
    cold: bool
    #: Modelled time until every worker of the fleet was running.
    invocation_seconds: float
    #: Modelled execution time of the slowest / median worker.
    max_worker_seconds: float
    median_worker_seconds: float
    #: Modelled end-to-end query latency seen by the user.
    latency_seconds: float
    rows_scanned: int
    bytes_read: int
    get_requests: int
    #: Dollar cost breakdown.
    cost_lambda_duration: float
    cost_lambda_requests: float
    cost_s3_requests: float
    cost_sqs_requests: float
    #: Per-worker modelled execution durations, seconds.
    worker_durations: List[float] = field(default_factory=list)
    #: Result collection (:class:`~repro.driver.invocation.CollectionPlan`):
    #: what the queue drain adds after the last worker finished, and the
    #: polling threads and receive requests it took.  ``latency_seconds`` is
    #: the last completion + ``collection_seconds`` + the resilience block's
    #: backoff.
    collection_seconds: float = 0.0
    collection_pollers: int = 0
    collection_receives: int = 0
    #: Late-materialization scan counters, summed over the fleet: row groups
    #: whose selection vector short-circuited, rows never fully decoded, and
    #: column-chunk downloads avoided.
    row_groups_shortcircuited: int = 0
    rows_decode_saved: int = 0
    column_chunks_skipped: int = 0
    #: Exchange-plane request/byte counters, summed over the fleet (non-zero
    #: only for plans with an exchange hop, e.g. the shuffle-aggregate and
    #: shuffle-join paths).
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    #: Join-wave counters, summed over the fleet (non-zero only for join
    #: plans): rows entering the probe/build sides of the join kernels after
    #: repartitioning, and rows the kernels produced.
    join_probe_rows: int = 0
    join_build_rows: int = 0
    join_output_rows: int = 0
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
    #: Fault-tolerance counters for this query: retries, hedges won/lost,
    #: injected faults survived, degradation fallbacks, wasted modelled cost.
    #: All-zero on a clean run.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: Data-integrity counters: bytes whose checksums were verified on read,
    #: detected mismatches by site, and how recovery resolved them (re-reads
    #: vs re-executions).  All-zero mismatches on a corruption-free run.
    integrity: IntegrityStats = field(default_factory=IntegrityStats)
    #: Overload-control block: this query's retry-budget spend plus the
    #: owning driver's circuit-breaker states and transition log at query
    #: end.  ``None`` only for catalog-pruned empty results, which never
    #: touch the fleet.
    overload: Optional[Dict[str, Any]] = None

    @property
    def join_waves(self) -> int:
        """Join waves executed (0 for scans, at most ``dag_stages``)."""
        return len(self.wave_stages)

    @property
    def broadcast_stages(self) -> int:
        """Join stages that ran as a broadcast join inside an earlier wave."""
        return sum(len(wave) - 1 for wave in self.wave_stages if wave)

    @property
    def cost_total(self) -> float:
        """Total dollar cost of the query.

        Retried and hedged invocations are billed inside the components like
        any other request; ``resilience.wasted_cost_dollars`` reports which
        part of this total bought nothing (it is an attribution, not an
        extra charge).
        """
        return (
            self.cost_lambda_duration
            + self.cost_lambda_requests
            + self.cost_s3_requests
            + self.cost_sqs_requests
        )

    def describe_latency(self) -> str:
        """The critical path of the modelled latency, as one line.

        The launch, then the workers — for a scan the stretch from the last
        start to the last completion, for a DAG its barriered waves — then
        what the result-queue drain adds, and any backoff the retry machinery
        charged; the terms sum to ``latency_seconds``.
        """
        backoff = self.resilience.backoff_seconds
        terms = [("launch", self.invocation_seconds)]
        if self.wave_stages:
            joiners = self.exchange_partitions * len(self.wave_stages)
            scans = self.worker_durations[:-joiners]
            joins = self.worker_durations[-joiners:]
            waves = [
                max(joins[start : start + self.exchange_partitions])
                for start in range(0, joiners, self.exchange_partitions)
            ]
            plural = "" if len(waves) == 1 else "s"
            terms.append(("scan wave", max(scans)))
            terms.append((f"{len(waves)} join wave{plural}", sum(waves)))
        else:
            last_completion = self.latency_seconds - backoff - self.collection_seconds
            terms.append(("last worker", last_completion - self.invocation_seconds))
        terms.append(("collection", self.collection_seconds))
        line = f"latency {self.latency_seconds:.3f} s = " + " + ".join(
            f"{label} {seconds:.3f}" for label, seconds in terms
        )
        pollers = "poller" if self.collection_pollers == 1 else "pollers"
        receives = "receive" if self.collection_receives == 1 else "receives"
        line += (
            f" ({self.collection_pollers} {pollers},"
            f" {self.collection_receives} {receives})"
        )
        if backoff:
            line += f" + backoff {backoff:.3f}"
        return line


def _collection_fields(collection: CollectionPlan) -> Dict[str, Any]:
    """The :class:`QueryStatistics` fields a collection plan fills."""
    return {
        "collection_seconds": collection.seconds,
        "collection_pollers": collection.pollers,
        "collection_receives": collection.receives,
    }


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
        spawn-based process pool with shared-memory input/result planes
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
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        #: Per-service circuit breakers.  Breaker state is fleet health, not
        #: query state, so the board lives as long as the driver — and a
        #: :class:`QuerySession` shares one board across all its drivers.
        self.breakers = breakers or BreakerBoard()
        # Per-query overload context, armed by execute() and read by the
        # retry/hedge/collect helpers (avoids threading four extra arguments
        # through every call chain).  A driver runs one query at a time;
        # concurrency comes from one driver per session worker thread.
        self._active_cancel: Optional[CancellationToken] = None
        self._active_budget: Optional[RetryBudget] = None
        self._active_now = None
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
        the query is aborted with :class:`~repro.errors.WorkerFailedError`.

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
        (``max_worker_retries`` is not consulted there), and catalog-based
        file pruning is rejected explicitly (its single-dataset statistics
        cannot describe two relations).

        ``deadline_seconds``/``cancel`` arm cooperative cancellation: the
        query unwinds with a typed
        :class:`~repro.errors.QueryCancelledError` at its next pump point
        (poll round, retry round, wave round), releasing shared-memory
        segments and garbage-collecting its S3/SQS state on the way out.
        Each query also draws from a retry budget
        (``resilience_policy.retry_budget``) covering backoff retries, wave
        retries, and hedges combined; exhaustion raises
        :class:`~repro.errors.RetryBudgetExhaustedError` instead of grinding
        through a sustained brownout.
        """
        # Per-query jitter stream: reseeding here makes backoff draws a
        # function of this query alone, not of how many ran before it.
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        if cancel is None and deadline_seconds is not None:
            cancel = CancellationToken(deadline_seconds=deadline_seconds)

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
            return self._execute_join(
                physical, report, num_workers=num_workers, cold=cold,
                cancel=cancel,
            )

        input_files = expand_glob_paths(self.env.s3, physical.input_files)
        if catalog is not None and dataset_name is not None:
            input_files = catalog.prune_paths(
                input_files, dataset_name, physical.worker_template.prune_ranges
            )
            if not input_files:
                # Every file is pruned by the central statistics: the query
                # result is empty and no worker needs to be started.
                return self._empty_result(physical, report, cold)
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
        query_id = uuid.uuid4().hex[:12]

        if cold:
            self.env.lambda_service.reset_warm_instances(self.function_name)

        payloads = [
            {
                "worker_id": worker_id,
                "attempt": 0,
                "plan": worker_plan.to_dict(),
                "result_queue": self.result_queue,
                "query_id": query_id,
                "function_name": self.function_name,
                "threads": threads,
                "integrity": self.integrity.to_dict(),
            }
            for worker_id, worker_plan in enumerate(worker_plans)
        ]
        launch = self._invocation.plan(len(payloads), cold=cold)

        resilience = ResilienceStats()
        integrity_stats = IntegrityStats()
        faults_before = fault_snapshot(self.env)

        def now_fn() -> float:
            # Modelled "now" for breaker windows and deadlines: environment
            # clock plus the backoff this query has already accrued.
            return self.env.clock.now + resilience.backoff_seconds

        budget = RetryBudget(
            self.resilience_policy.retry_budget,
            query_id=query_id,
            breaker_states=self.breakers.states,
        )
        if cancel is not None:
            cancel.bind(now_fn, query_id=query_id)
        self._active_cancel = cancel
        self._active_budget = budget
        self._active_now = now_fn
        prices = self.env.ledger.prices

        def on_retry(key: int, retry: Dict, error: str) -> None:
            # Retries are flat whatever shape the launch had; the failure
            # feeds the lambda breaker, and its request fee bought nothing.
            retry.pop("children", None)
            self._record_worker_failure(error)
            resilience.wasted_cost_dollars += prices.lambda_invocation_cost(1)

        try:
            attempt_log = AttemptLog()
            by_worker = None
            if self.execution_mode == "processes" and self._pool_supported(physical):
                by_worker = self._run_pooled(
                    payloads, max_worker_retries + 1, resilience, attempt_log, on_retry
                )
            pooled = by_worker is not None
            if not pooled:
                # The classic dispatch — and where a pool that is unavailable
                # (single core / spawn failure) or gave up mid-query (respawn
                # storm / open invocation breaker) falls back to, from scratch.
                self.env.sqs.purge_queue(self.result_queue)
                attempt_log = AttemptLog()
                events = {payload["worker_id"]: payload for payload in payloads}
                by_worker = run_fleet(
                    events,
                    self._scan_transport(
                        events, query_id, launch, resilience, integrity_stats
                    ),
                    max_worker_retries + 1, self.resilience_policy, self._jitter_rng,
                    resilience, SCAN_FLEET, attempt_log, integrity=integrity_stats,
                    cancel=cancel, budget=budget, on_retry=on_retry,
                )
                self._fetch_spilled(by_worker.values(), resilience, integrity_stats)
            worker_results = self._parse_results(
                by_worker, expected=len(payloads), attempt_log=attempt_log
            )
            hedge_billed_seconds = 0.0
            if pooled:
                # Fold the workers' simulated S3 traffic into the ledger (the
                # classic path meters it inside ObjectStore per request).
                now = self.env.clock.now
                self.env.ledger.record(
                    "s3", "get_requests",
                    sum(r.get_requests for r in worker_results), now,
                )
                self.env.ledger.record(
                    "s3", "bytes_read",
                    sum(r.bytes_read for r in worker_results), now,
                )
            else:
                worker_results, hedge_billed_seconds = self._hedge_stragglers(
                    worker_results, by_worker, payloads, query_id, resilience,
                    integrity=integrity_stats,
                )

            table, reduce_value = self._merge(physical, worker_results)
            statistics = self._build_statistics(
                physical, worker_results, launch=launch, cold=cold,
                resilience=resilience, fault_snapshot=faults_before,
                extra_billed_seconds=hedge_billed_seconds,
                integrity=integrity_stats,
            )
            statistics.overload = self._overload_block(budget)
            return QueryResult(
                table=table,
                reduce_value=reduce_value,
                statistics=statistics,
                worker_results=worker_results,
                optimizer_report=report,
                plan_explain=physical.explain(),
            )
        except (QueryCancelledError, RetryBudgetExhaustedError):
            # Typed teardown: a query that will never consume its results
            # must not leave spilled objects or queued messages behind.
            self._gc_cancelled_scan(query_id)
            raise
        finally:
            self._active_cancel = None
            self._active_budget = None
            self._active_now = None

    def _execute_join(
        self,
        physical: DagPhysicalPlan,
        report: Optional[OptimizerReport],
        num_workers: Optional[int],
        cold: bool,
        cancel: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Execute a join plan through the shuffle-join coordinator.

        The DAG schedule (one scan wave repartitioning every relation by its
        join key through the write-combined exchange, then the join waves —
        stages with small build sides join in place inside the wave before
        them, non-final waves re-emit into the exchange, the final one
        computes the partial aggregates placed above the join) runs in
        :class:`~repro.driver.shuffle.ShuffleJoinCoordinator`; this wrapper
        folds its worker results into the same :class:`QueryStatistics` shape
        scan queries report, with the exchange and join counters threaded
        through.
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
        budget = RetryBudget(
            self.resilience_policy.retry_budget,
            breaker_states=self.breakers.states,
        )
        table, join_stats, worker_results = self._join_coordinator.execute(
            physical,
            num_workers=num_workers,
            cancel=cancel,
            breakers=self.breakers,
            budget=budget,
            now_fn=lambda: self.env.clock.now,
        )

        durations = [result.duration_seconds for result in worker_results]
        num_total = join_stats.num_workers
        launch = self._invocation.plan(num_total, cold=cold)
        invocation_seconds = launch.time_to_start_all
        # Only the final wave's results travel to the driver: its workers
        # start together behind the launch and every earlier wave (whose
        # modelled_latency_seconds already includes the coordinator's
        # backoff), and the queue is long-polled while they run.
        final_wave = np.asarray(durations[-join_stats.exchange_partitions:])
        collection = launch.collection(
            invocation_seconds
            + join_stats.modelled_latency_seconds
            - final_wave.max()
            + final_wave
        )
        statistics = QueryStatistics(
            num_workers=num_total,
            memory_mib=self.memory_mib,
            cold=cold,
            invocation_seconds=invocation_seconds,
            max_worker_seconds=float(max(durations)) if durations else 0.0,
            median_worker_seconds=float(np.median(durations)) if durations else 0.0,
            latency_seconds=collection.finish,
            rows_scanned=join_stats.rows_scanned,
            bytes_read=sum(result.bytes_read for result in worker_results),
            get_requests=sum(result.get_requests for result in worker_results),
            **join_costs(
                self.env.ledger.prices, self.memory_mib, join_stats, worker_results,
                final_receives=collection.receives,
            ),
            worker_durations=durations,
            **_collection_fields(collection),
            exchange=join_stats.exchange,
            join_probe_rows=join_stats.join_probe_rows,
            join_build_rows=join_stats.join_build_rows,
            join_output_rows=join_stats.join_output_rows,
            dag_stages=join_stats.dag_stages,
            wave_stages=join_stats.wave_stages,
            exchange_partitions=join_stats.exchange_partitions,
            estimated_exchange_bytes=join_stats.estimated_exchange_bytes,
            map_fleets=join_stats.map_fleets,
            gc_objects_deleted=join_stats.gc_objects_deleted,
            gc_list_requests=join_stats.gc_list_requests,
            resilience=join_stats.resilience,
            integrity=join_stats.integrity,
        )
        statistics.overload = self._overload_block(budget)
        return QueryResult(
            table=table,
            reduce_value=None,
            statistics=statistics,
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
        sandboxed CI runner), ``processes`` mode degrades to serial dispatch
        with a one-line warning instead of raising.
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
        """Shut down the process pool, if one was spawned; idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _run_pooled(
        self,
        payloads: List[Dict],
        rounds: int,
        resilience: ResilienceStats,
        attempt_log: AttemptLog,
        on_retry,
    ) -> Optional[Dict[int, Dict]]:
        """Run the fleet on the process pool; ``None`` means "fall back".

        The SQS control plane is bypassed — worker results come back through
        shared-memory segments — but as classic-shaped messages, so
        ``execute`` parses, merges and prices them with the same tail as the
        classic path, and every pool task is metered through
        ``LambdaService.account_invocation``: invocation cold/warm
        bookkeeping, the ledger, and the cost model stay identical.
        """
        pool = self._ensure_pool()
        if pool is None:
            return None
        respawns_before = pool.stats().get("respawns", 0)

        def give_up() -> bool:
            if "lambda" in self.breakers.open_services():
                # Invocation-plane brownout: stop feeding the pool and run
                # this query serially.  Unlike the respawn-storm path the
                # pool stays up — the breaker recovers on its own.
                resilience.note_fallback("processes_to_serial")
                return True
            respawn_delta = pool.stats().get("respawns", 0) - respawns_before
            if respawn_delta <= self.resilience_policy.pool_respawn_limit:
                return False
            # Respawn storm: the pool keeps losing children mid-query.
            # Degrade to serial dispatch instead of thrashing further.
            resilience.pool_respawns = respawn_delta
            resilience.note_fallback("processes_to_serial")
            warnings.warn(
                f"processes execution mode: {respawn_delta} pool "
                "respawns in one query, falling back to serial dispatch",
                RuntimeWarning,
                stacklevel=5,  # give_up < run_fleet < _run_pooled < execute < caller
            )
            self.close()
            self._pool_unavailable = True
            return True

        all_files = sorted({path for p in payloads for path in p["plan"]["files"]})
        export = SharedObjectExport.create(self.env.s3, all_files)
        try:
            # A cancellation at either pump point unwinds through here:
            # result segments are unlinked round by round, the export below.
            by_worker = run_fleet(
                {payload["worker_id"]: payload for payload in payloads},
                lambda attempts, by_key: by_key.update(
                    self._run_pooled_round(pool, export, attempts)
                ),
                rounds, self.resilience_policy, self._jitter_rng, resilience,
                POOL_FLEET, attempt_log, cancel=self._active_cancel,
                budget=self._active_budget, on_retry=on_retry, give_up=give_up,
            )
        finally:
            pool.forget_segments([export.name])
            export.close()
        if by_worker is not None:
            resilience.pool_respawns = pool.stats().get("respawns", 0) - respawns_before
        return by_worker

    def _run_pooled_round(
        self,
        pool,
        export: SharedObjectExport,
        payloads: List[Dict],
    ) -> Dict[int, Dict]:
        """Dispatch one wave of payloads to the pool and meter each attempt.

        Returns classic-shaped result messages keyed by worker id, so the
        downstream retry/parse machinery is shared with the SQS path.
        Invocations are accounted in worker-id order (the dispatch order),
        keeping cold/warm assignment deterministic like serial invocation.

        An installed :class:`~repro.cloud.faults.FaultPlan` is consulted here,
        mirroring the SQS path: dropped/timed-out invocations are decided
        before dispatch (the fragment never runs), pool-crash injections lose
        a completed result (its segment is still unlinked), and straggler
        slowdowns multiply the reported duration.
        """
        plan = getattr(self.env, "fault_plan", None)
        faulted: Dict[int, str] = {}
        if plan is not None:
            for payload in payloads:
                fault = plan.invocation_fault(self.function_name)
                if fault is not None:
                    faulted[payload["worker_id"]] = fault
        tasks = [
            (
                "run",
                payload["worker_id"],
                payload["plan"],
                export.name,
                export.directory,
                self.memory_mib,
                payload.get("threads", 2),
            )
            for payload in payloads
            if payload["worker_id"] not in faulted
        ]
        raw = pool.run_tasks(tasks)
        by_worker: Dict[int, Dict] = {}
        for payload in payloads:
            worker_id = payload["worker_id"]
            fault = faulted.get(worker_id)
            if fault is not None:
                if fault == "drop":
                    error = "InvocationDropped: injected invocation drop"
                    duration = 0.0
                else:
                    error = (
                        "FunctionTimeout: injected hang killed at the "
                        f"{self.worker_timeout_seconds:.1f}s timeout"
                    )
                    duration = self.worker_timeout_seconds
                self.env.lambda_service.account_invocation(
                    self.function_name, duration_seconds=duration, from_driver=True
                )
                by_worker[worker_id] = {
                    "worker_id": worker_id,
                    "attempt": payload.get("attempt", 0),
                    "status": "error",
                    "error": error,
                }
                continue
            raw_result = raw.get(worker_id)
            crashed = plan is not None and plan.pool_crash(
                self.function_name, worker_id
            )
            message = self._pooled_message(raw_result, worker_id)
            if crashed:
                # The child did the work, but the injected crash loses its
                # result (the segment it wrote is already unlinked).
                message = {
                    "worker_id": worker_id,
                    "status": "error",
                    "error": "WorkerCrashError: injected pool worker crash",
                }
            message.setdefault("attempt", payload.get("attempt", 0))
            duration = message.get("result", {}).get("duration_seconds", 0.0)
            if plan is not None and message.get("status") == "ok":
                duration *= plan.straggler_factor(self.function_name)
            # Meter the attempt exactly like an invocation of the in-process
            # handler: cold/warm bookkeeping, ledger, invocation log, and the
            # cold execution penalty on the modelled duration.
            invocation = self.env.lambda_service.account_invocation(
                self.function_name,
                duration_seconds=duration,
                from_driver=True,
                cold_penalty=COLD_EXECUTION_PENALTY,
            )
            if message.get("status") == "ok":
                message["result"]["duration_seconds"] = invocation.duration_seconds
            by_worker[worker_id] = message
        return by_worker

    def _pooled_message(self, raw: Optional[tuple], worker_id: int) -> Dict:
        """Convert one pool child message into the classic result-message shape.

        The result frame is copied out of its shared-memory segment — the
        same bytes a serial worker's message carries — checked, and the
        segment unlinked at once, so no segment outlives the round that
        produced it.
        """
        if raw is None:
            return {
                "worker_id": worker_id,
                "status": "error",
                "error": "no result from worker pool",
            }
        if raw[0] == "err":
            return {"worker_id": worker_id, "status": "error", "error": raw[2]}
        _, _, payload, result_segment, nbytes = raw
        message = {"worker_id": worker_id, "status": "ok", "result": payload}
        if result_segment is not None:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=result_segment)
            try:
                message["frame"] = bytes(segment.buf[:nbytes])
            finally:
                segment.close()
                segment.unlink()
            verify_frame(message["frame"], key=result_segment)
        return message

    # -- helpers --------------------------------------------------------------------

    def _invoke(self, payload: Dict, resilience: ResilienceStats) -> None:
        """Invoke one worker from the driver.

        Transient rejections (capacity brownouts throttle the fleet with
        :class:`~repro.errors.TooManyRequestsError`) are retried with backoff
        through the driver's breaker board and the active query's retry
        budget, instead of aborting the fleet on the first rejection.
        """
        call_with_backoff(
            self.env.lambda_service.invoke,
            self.function_name,
            payload,
            from_driver=True,
            policy=self.resilience_policy,
            rng=self._jitter_rng,
            stats=resilience,
            breakers=self.breakers,
            budget=self._active_budget,
            now_fn=self._active_now,
        )

    def _invoke_tree(self, tree: List[Dict], resilience: ResilienceStats) -> None:
        """Invoke the tree roots, serially or through the thread pool."""
        invoke = functools.partial(self._invoke, resilience=resilience)

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
            futures = [pool.submit(invoke, parent) for parent in tree]
            for future in futures:
                future.result()

    #: Worker-reported error prefixes that mean the invocation plane itself
    #: failed (vs. a data error inside a healthy worker).
    _LAMBDA_FAILURE_PREFIXES = (
        "InvocationDropped",
        "FunctionTimeout",
        "WorkerCrashError",
        "no result message",
    )

    def _record_worker_failure(self, error: str) -> None:
        """Charge an invocation-plane worker failure to the lambda breaker.

        Worker failures arrive as strings in result messages (or as missing
        messages), never as raised exceptions, so
        :meth:`~repro.driver.breakers.BreakerBoard.classify` cannot see them;
        a sustained invocation-side failure storm still needs to trip the
        lambda breaker and drive degradation.
        """
        if error.startswith(self._LAMBDA_FAILURE_PREFIXES):
            self.breakers.breakers["lambda"].record_failure(self._active_now())

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

    def _scan_transport(
        self,
        events: Dict[int, Dict],
        query_id: str,
        launch: LaunchPlan,
        resilience: ResilienceStats,
        integrity: IntegrityStats,
    ):
        """The scan fleet's transport: invoke over Lambda, report over SQS.

        The first call starts the fleet in the shape ``launch`` priced (one
        hop, or the two-level tree); later calls are retries, invoked flat
        from the driver.  Either way the result queue is then polled for the
        whole fleet at its current attempts.
        """
        launched = False

        def transport(payloads: List[Dict], by_key: Dict[int, Dict]) -> None:
            nonlocal launched
            if launched:
                for payload in payloads:
                    self._invoke(payload, resilience)
            else:
                self._invoke_tree(build_invocation_tree(payloads, launch), resilience)
            launched = True
            collect_results(
                self.env.sqs, self.result_queue, query_id, current_attempts(events),
                by_key, "collect", resilience=resilience,
                verify=self.integrity.verify, integrity=integrity,
                cancel=self._active_cancel,
            )

        return transport

    def _fetch_spilled(
        self, messages, resilience: ResilienceStats, integrity: IntegrityStats
    ) -> None:
        """Fetch the frames accepted ``messages`` spilled to S3, in place.

        With backoff — the pointed-to object may be transiently invisible
        under an injected read-after-write lag — and, with verification on,
        it must be the frame its message describes; a corrupt first read
        (in-flight corruption) is cured by one re-issued GET counted as a
        re-read.
        """
        for message in messages:
            if "result_s3" in message:
                message["frame"] = fetch_spilled_result(
                    self.env.s3, message, self.integrity.verify, integrity,
                    policy=self.resilience_policy, rng=self._jitter_rng,
                    stats=resilience, breakers=self.breakers,
                    budget=self._active_budget, now_fn=self._active_now,
                )

    def _parse_results(
        self,
        by_worker: Dict[int, Dict],
        expected: int,
        attempt_log: AttemptLog,
    ) -> List[WorkerResult]:
        """Turn grouped messages into WorkerResults, surfacing remaining failures."""
        failures = sorted(
            (m for m in by_worker.values() if m.get("status") != "ok"),
            key=lambda message: message["worker_id"],
        )
        if failures:
            first = failures[0]
            error = first.get("error", "unknown error")
            attempts = list(attempt_log.for_worker(first["worker_id"]))
            attempts.append({"attempt": first.get("attempt", 0), "error": error})
            raise WorkerFailedError(first["worker_id"], error, attempts=attempts)
        if len(by_worker) != expected:
            raise QueryTimeoutError(
                f"got results from {len(by_worker)} distinct workers, expected {expected}"
            )
        return [
            WorkerResult.from_payload(message["result"], message.get("frame"))
            for _, message in sorted(by_worker.items())
        ]

    def _hedge_stragglers(
        self,
        worker_results: List[WorkerResult],
        by_worker: Dict[int, Dict],
        payloads: List[Dict],
        query_id: str,
        resilience: ResilienceStats,
        integrity: Optional[IntegrityStats] = None,
    ) -> Tuple[List[WorkerResult], float]:
        """Speculatively re-invoke straggler workers; first result wins.

        Post-wave quantile detection: workers whose modelled duration exceeds
        both ``hedge_factor`` x the fleet median and the absolute
        ``hedge_min_seconds`` floor are re-invoked once, flat.  The hedge can
        only start once the straggler is *detected*, so its effective
        completion is ``threshold + hedge duration``; if that beats the
        original, the hedge's result replaces it (the recompute is
        deterministic — data identical, only duration/counters differ) and
        the original run's duration cost is attributed as wasted.  A
        homogeneous clean fleet never crosses the threshold, so fault-free
        runs take none of this path.
        """
        policy = self.resilience_policy
        ordered_ids = sorted(by_worker)
        durations = {
            worker_id: worker_results[index].duration_seconds
            for index, worker_id in enumerate(ordered_ids)
        }
        stragglers = pick_stragglers(durations, policy)
        if not stragglers:
            return worker_results, 0.0
        fleet_median = sorted(durations.values())[len(durations) // 2]
        threshold = max(policy.hedge_min_seconds, policy.hedge_factor * fleet_median)
        payload_by_worker = {payload["worker_id"]: payload for payload in payloads}
        prices = self.env.ledger.prices
        index_of = {worker_id: index for index, worker_id in enumerate(ordered_ids)}
        launched: Dict[int, int] = {}  # straggler -> its hedge's attempt
        for worker_id in stragglers:
            if not self._active_budget.try_charge("hedges"):
                # Hedging is optional work: when the retry budget runs dry it
                # is suppressed (and attributed), never fatal.
                resilience.note_fallback("hedge_suppressed")
                continue
            hedge_payload = dict(payload_by_worker[worker_id])
            hedge_payload.pop("children", None)
            hedge_payload["attempt"] = by_worker[worker_id].get("attempt", 0) + 1
            try:
                self.env.lambda_service.invoke(
                    self.function_name, hedge_payload, from_driver=True
                )
            except TRANSIENT_CLOUD_ERRORS as error:
                # A brownout-rejected hedge simply never enters the race;
                # the original attempt's result stands.
                self.breakers.record_failure(error, self._active_now())
                resilience.note_fallback("hedge_rejected")
                continue
            resilience.hedges_launched += 1
            launched[worker_id] = hedge_payload["attempt"]
        if not launched:
            return worker_results, 0.0
        hedged: Dict[int, Dict] = {}
        collect_results(
            self.env.sqs, self.result_queue, query_id, launched, hedged, "collect",
            resilience=resilience, verify=self.integrity.verify,
            integrity=integrity, cancel=self._active_cancel,
        )
        self._fetch_spilled(hedged.values(), resilience, integrity)
        # Both racers run to completion and bill their full duration (a real
        # Lambda cannot be cancelled); the loser's extra seconds are billed on
        # top of the per-worker winner durations and attributed as waste.
        extra_billed_seconds = 0.0
        for worker_id in launched:
            message = hedged.get(worker_id)
            if message is None or message.get("status") != "ok":
                # The hedge itself failed or vanished — it simply loses.
                resilience.hedges_lost += 1
                resilience.wasted_cost_dollars += prices.lambda_invocation_cost(1)
                continue
            hedge_result = WorkerResult.from_payload(
                message["result"], message.get("frame")
            )
            effective = threshold + hedge_result.duration_seconds
            original = durations[worker_id]
            if effective < original:
                hedge_result.duration_seconds = effective
                worker_results[index_of[worker_id]] = hedge_result
                resilience.hedges_won += 1
                extra_billed_seconds += original
                resilience.wasted_cost_dollars += prices.lambda_duration_cost(
                    self.memory_mib, original
                )
            else:
                resilience.hedges_lost += 1
                extra_billed_seconds += hedge_result.duration_seconds
                resilience.wasted_cost_dollars += (
                    prices.lambda_invocation_cost(1)
                    + prices.lambda_duration_cost(
                        self.memory_mib, hedge_result.duration_seconds
                    )
                )
        return worker_results, extra_billed_seconds

    def _empty_result(
        self,
        physical: PhysicalPlan,
        report: Optional[OptimizerReport],
        cold: bool,
    ) -> QueryResult:
        """Result of a query whose files were all pruned by the catalog."""
        table, reduce_value = self._merge(physical, [])
        statistics = QueryStatistics(
            num_workers=0,
            memory_mib=self.memory_mib,
            cold=cold,
            invocation_seconds=0.0,
            max_worker_seconds=0.0,
            median_worker_seconds=0.0,
            latency_seconds=0.0,
            rows_scanned=0,
            bytes_read=0,
            get_requests=0,
            cost_lambda_duration=0.0,
            cost_lambda_requests=0.0,
            cost_s3_requests=0.0,
            cost_sqs_requests=0.0,
            worker_durations=[],
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

    def _build_statistics(
        self,
        physical: PhysicalPlan,
        worker_results: List[WorkerResult],
        launch: LaunchPlan,
        cold: bool,
        resilience: ResilienceStats,
        fault_snapshot: Optional[Dict[str, int]],
        extra_billed_seconds: float,
        integrity: IntegrityStats,
    ) -> QueryStatistics:
        """Compute modelled latency and dollar cost of the query.

        ``extra_billed_seconds`` bills execution time that bought no used
        result but was still charged (e.g. the losing side of a hedge race);
        it affects cost, never latency.
        """
        resilience.faults_injected = fault_delta(self.env, fault_snapshot)
        prices = self.env.ledger.prices
        durations = [result.duration_seconds for result in worker_results]
        num_workers = launch.num_workers
        start_times = launch.worker_start_times()
        completion = start_times[: len(durations)] + np.asarray(durations)
        # Result collection overlaps the fleet: the queue is long-polled
        # while the workers run.
        collection = launch.collection(completion)
        # Backoff between retry rounds is charged to the modelled latency.
        latency = collection.finish + resilience.backoff_seconds

        rows_scanned = sum(result.rows_scanned for result in worker_results)
        bytes_read = sum(result.bytes_read for result in worker_results)
        get_requests = sum(result.get_requests for result in worker_results)
        shortcircuited = sum(result.row_groups_shortcircuited for result in worker_results)
        decode_saved = sum(result.rows_decode_saved for result in worker_results)
        chunks_skipped = sum(result.column_chunks_skipped for result in worker_results)
        exchange = ExchangeStats()
        for result in worker_results:
            if result.exchange_stats:
                exchange.merge(ExchangeStats.from_dict(result.exchange_stats))
            if result.integrity_stats:
                integrity.merge(IntegrityStats.from_dict(result.integrity_stats))

        cost_lambda_duration = sum(
            prices.lambda_duration_cost(self.memory_mib, duration) for duration in durations
        ) + prices.lambda_duration_cost(self.memory_mib, extra_billed_seconds)
        # Every actually-made invocation request is billed, including retries
        # and hedges (their wasted share is attributed in the resilience block).
        cost_lambda_requests = prices.lambda_invocation_cost(
            num_workers + resilience.retries + resilience.hedges_launched
        )
        cost_s3 = prices.s3_get_cost(get_requests)
        # Each worker sends one result message; the driver's receives drain them.
        cost_sqs = prices.sqs_cost(num_workers + collection.receives)

        return QueryStatistics(
            num_workers=num_workers,
            memory_mib=self.memory_mib,
            cold=cold,
            invocation_seconds=launch.time_to_start_all,
            max_worker_seconds=float(max(durations)) if durations else 0.0,
            median_worker_seconds=float(np.median(durations)) if durations else 0.0,
            latency_seconds=latency,
            rows_scanned=rows_scanned,
            bytes_read=bytes_read,
            get_requests=get_requests,
            cost_lambda_duration=cost_lambda_duration,
            cost_lambda_requests=cost_lambda_requests,
            cost_s3_requests=cost_s3,
            cost_sqs_requests=cost_sqs,
            worker_durations=durations,
            **_collection_fields(collection),
            row_groups_shortcircuited=shortcircuited,
            rows_decode_saved=decode_saved,
            column_chunks_skipped=chunks_skipped,
            exchange=exchange,
            resilience=resilience,
            integrity=integrity,
        )


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
                actual_invocations = float(
                    stats.num_workers
                    + stats.resilience.retries
                    + stats.resilience.hedges_launched
                )
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
