"""The Lambada driver: query coordinator.

The driver deploys the worker function once ("installation"), then executes
queries by compiling them into a
:class:`~repro.plan.physical.DagPhysicalPlan` and running it through the one
wave body of :class:`~repro.driver.shuffle.ShuffleJoinCoordinator`, every
fleet through one :meth:`~repro.driver.dispatch.QueryContext.wave` — failed
workers re-invoked, stragglers hedged.  A scan's one wave runs on the
driver's own function and result queue, over one transport picked per query:
Lambda + SQS, its first round in the shape the launch plan prices (one hop
or the two-level tree of §4.2), or the process pool; the partial results are
merged locally (the driver scope of the physical plan).  Each query opens one
:class:`~repro.driver.dispatch.QueryContext` (its id, jitter stream,
counters, span tree, retry budget and cancellation token, with the driver's
breaker board); every wave runs under it.  It reports one
:class:`~repro.driver.spans.QueryStatistics` — modelled end-to-end latency,
placed on the span tree (:mod:`repro.driver.spans`), and the full
dollar-cost breakdown — which the evaluation benchmarks consume.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig
from repro.cloud.s3 import SharedObjectMirror
from repro.config import DEFAULT_RESILIENCE, IntegrityConfig
from repro.driver import spans
from repro.driver.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    CancellationToken,
)
from repro.driver.breakers import BreakerBoard, RetryBudget
from repro.driver.dispatch import FleetLabels, QueryContext
from repro.driver.invocation import InvocationModel, LaunchPlan, build_invocation_tree
from repro.driver.resilience import DEFAULT_RESILIENCE_POLICY, ResiliencePolicy
from repro.driver.shuffle import (
    JOIN_MAP_FUNCTION_NAME,
    JOIN_REDUCE_FUNCTION_NAME,
    ScanWave,
    ShuffleConfig,
    ShuffleJoinCoordinator,
    expand_glob_paths,
    fold_reduce_values,
    merge_driver_scope,
)
from repro.driver.spans import QueryStatistics
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
    BUILTIN_REDUCE_UDFS,
    DagPhysicalPlan,
    WorkerPlan,
    describe_exchange_fan_out,
    describe_executed_waves,
)

#: What the scan fleet's and the process pool's pump points and retry-budget
#: accounts are called (a scan's first pump point is its first poll,
#: ``"collect"``).
SCAN_FLEET = FleetLabels(dispatch=None, retry="retry round", budget="driver_retries")
POOL_FLEET = FleetLabels(
    dispatch="pooled dispatch", retry="pooled retry", budget="pool_retries"
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
        """Reconfigure the worker memory size: redeploys the scan function,
        and the join functions too once a join query has deployed them."""
        self.memory_mib = memory_mib
        self.install()
        if self._join_coordinator is not None:
            self._join_coordinator = self._make_join_coordinator()

    def _make_join_coordinator(self) -> ShuffleJoinCoordinator:
        """A join coordinator at the driver's memory size; building it
        deploys the join functions at that size."""
        # An explicit shuffle config wins; otherwise the driver's integrity
        # knobs carry over to the join exchange plane.
        config = self.shuffle_config or ShuffleConfig(integrity=self.integrity)
        return ShuffleJoinCoordinator(
            self.env,
            memory_mib=self.memory_mib,
            config=config,
            resilience_policy=self.resilience_policy,
        )

    # -- query execution -----------------------------------------------------------

    def execute(
        self,
        plan: Union[LogicalPlan, DagPhysicalPlan],
        num_workers: Optional[int] = None,
        files_per_worker: Optional[int] = None,
        cold: bool = False,
        threads: int = 2,
        catalog: Optional["StatisticsCatalog"] = None,
        dataset_name: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
    ) -> QueryResult:
        """Execute a query and return its result and statistics.

        A logical plan is lowered by :func:`~repro.plan.optimizer.optimize`
        first; every :class:`~repro.plan.physical.DagPhysicalPlan` then runs
        through the one wave body of
        :class:`~repro.driver.shuffle.ShuffleJoinCoordinator`.  A scan (a plan
        without exchange) is its scan wave alone, run on this driver's
        function, result queue and transport (:meth:`_transport`), one worker
        per input file (the paper's ``W``), at most ``num_workers`` or one per
        ``files_per_worker`` files (``F``).  A plan with an exchange prices
        its fleets from the relations' registered sizes; ``num_workers`` caps
        its map fleets and sets its join fan-out.  ``cold=True`` forces cold
        starts (fresh function instances), as in the paper's cold runs.

        With a :class:`~repro.driver.catalog.StatisticsCatalog` and the
        dataset's catalog name, a scan skips the files whose min/max
        statistics cannot match its prune ranges (§5.3); a plan with an
        exchange rejects them (one dataset's statistics cannot describe two
        relations).

        Every fleet runs through one
        :meth:`~repro.driver.dispatch.QueryContext.wave` under one
        :class:`~repro.driver.dispatch.QueryContext` with the driver's breaker
        board: failed workers are re-invoked within
        ``resilience_policy.max_attempts`` attempts (then
        :class:`~repro.errors.WorkerFailedError` or
        :class:`~repro.errors.QueryTimeoutError`), stragglers are hedged.
        ``deadline_seconds``/``cancel`` arm cooperative cancellation: a typed
        :class:`~repro.errors.QueryCancelledError` at the next pump point,
        like an exhausted retry budget's
        :class:`~repro.errors.RetryBudgetExhaustedError`, releases the
        query's S3/SQS state on the way out.
        """
        if cancel is None and deadline_seconds is not None:
            cancel = CancellationToken(deadline_seconds=deadline_seconds)
        context = QueryContext(
            self.env, self.resilience_policy, breakers=self.breakers,
            cancel=cancel, budgeted=True,
        )
        with context.scope():
            report: Optional[OptimizerReport] = None
            physical = plan
            if isinstance(plan, LogicalPlan):
                physical, report = optimize(plan)
            if physical.has_exchange:
                if catalog is not None or dataset_name is not None:
                    raise ExecutionError(
                        "catalog-based file pruning is not supported for join plans"
                    )
                functions = (JOIN_MAP_FUNCTION_NAME, JOIN_REDUCE_FUNCTION_NAME)
            else:
                physical, num_workers = self._scan_files(
                    physical, num_workers, files_per_worker, catalog, dataset_name
                )
                if not physical.base.files:
                    # Every file is pruned by the central statistics: the
                    # result is empty and no worker needs to be started.
                    return self._empty_result(physical, report, cold, context)
                functions = (self.function_name,)
            if self._join_coordinator is None:
                self._join_coordinator = self._make_join_coordinator()
            if cold:
                for name in functions:
                    self.env.lambda_service.reset_warm_instances(name)
            scan = ScanWave(
                self.function_name, self.result_queue,
                lambda events: self._transport(
                    physical.base, events, self._invocation.plan(len(events), cold=cold), context
                ),
                {"function_name": self.function_name, "threads": threads,
                 "integrity": self.integrity.to_dict()},
            )
            table, statistics, worker_results = self._join_coordinator.execute(
                physical, num_workers=num_workers, context=context, final_scan=scan
            )
            launch = self._invocation.plan(statistics.num_workers, cold=cold)
            place = spans.place_dag if physical.has_exchange else spans.place_scan
            place(context.trace, launch, statistics.resilience.backoff_seconds)
            statistics.cold = cold
            statistics.overload = self._overload_block(context.budget)
            reduce_udf = physical.base.reduce_udf
            return QueryResult(
                table=table,
                reduce_value=(
                    fold_reduce_values(reduce_udf, worker_results) if reduce_udf else None
                ),
                statistics=statistics,
                worker_results=worker_results,
                optimizer_report=report,
                plan_explain=physical.explain(),
            )

    def _scan_files(
        self,
        physical: DagPhysicalPlan,
        num_workers: Optional[int],
        files_per_worker: Optional[int],
        catalog: Optional["StatisticsCatalog"],
        dataset_name: Optional[str],
    ) -> Tuple[DagPhysicalPlan, Optional[int]]:
        """A scan's input files — its globs expanded, one LIST each, and the
        files the catalog rules out dropped — and its fleet cap, ``num_workers``
        or one worker per ``files_per_worker`` files."""
        files = expand_glob_paths(self.env.s3, physical.base.files)
        if catalog is not None and dataset_name is not None:
            files = catalog.prune_paths(files, dataset_name, physical.base.prune_ranges)
        elif not files:
            raise ExecutionError("query has no input files")
        if num_workers is None and files_per_worker is not None:
            if files_per_worker <= 0:
                raise ValueError("files_per_worker must be positive")
            num_workers = math.ceil(len(files) / files_per_worker)
        return dataclasses.replace(physical, base=physical.base.with_files(files)), num_workers

    # -- process-pool execution plane ------------------------------------------------

    def _pool_supported(self, fragment: WorkerPlan) -> bool:
        """Whether the process pool can run this scan fragment.

        Registry UDFs live in the driver process only (the registry is
        per-process state) and cannot be resolved inside spawned children;
        the built-in reduce UDFs are module-level and travel by name.
        """
        if fragment.predicate_udf is not None or fragment.map_udf is not None:
            return False
        return not fragment.reduce_udf or fragment.reduce_udf in BUILTIN_REDUCE_UDFS

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
        fragment: WorkerPlan,
        events: Dict[int, Dict],
        launch: LaunchPlan,
        context: QueryContext,
    ) -> Iterator[Tuple[Callable, FleetLabels]]:
        """A scan's one transport and its labels, chosen once per query.

        The process pool when ``processes`` mode can run ``fragment``, the pool is
        available and the query's new or changed input objects fit the free
        space of ``/dev/shm`` once the copies the query does not read are
        evicted (a tmpfs written past capacity kills the writer with SIGBUS);
        otherwise Lambda + SQS
        (:meth:`~repro.driver.dispatch.QueryContext.lambda_transport`), its
        first round launched in the shape ``launch`` priced.  The fleet, its
        retry rounds and its hedges all go through what is yielded.
        """
        pool = None
        if self.execution_mode == "processes" and self._pool_supported(fragment):
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

    def _overload_block(self, budget: Optional[RetryBudget]) -> Dict[str, Any]:
        """The per-query overload-control statistics block."""
        return {
            "retry_budget": budget.to_dict() if budget is not None else None,
            "breakers": self.breakers.to_dict(),
            "breaker_transitions": self.breakers.transition_count(),
        }

    def _empty_result(
        self,
        physical: DagPhysicalPlan,
        report: Optional[OptimizerReport],
        cold: bool,
        context: QueryContext,
    ) -> QueryResult:
        """Result of a scan whose files were all pruned by the catalog: its
        bill is the catalog's lookups."""
        statistics = QueryStatistics(
            num_workers=0, memory_mib=self.memory_mib, cold=cold,
            _trace=context.trace, _bill=context.bill,
        )
        return QueryResult(
            table={} if physical.base.reduce_udf else merge_driver_scope(
                [], physical.driver, physical.group_by, physical.aggregates
            ),
            reduce_value=None,
            statistics=statistics,
            worker_results=[],
            optimizer_report=report,
            plan_explain=physical.explain(),
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
        plan: Union[LogicalPlan, DagPhysicalPlan],
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
