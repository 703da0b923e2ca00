"""FaaS runtime modelled on AWS Lambda.

Functions are plain Python callables registered ("deployed") under a name
together with a :class:`FunctionConfig`.  Invoking a function runs the handler
*in-process and synchronously*, which keeps the execution deterministic and
debuggable, while the service layers the performance and billing model on top:

* **CPU share** — proportional to the configured memory, with one full vCPU
  at 1792 MiB (paper §4.1, Figure 4).
* **Invocation latency** — per-region round-trip latency and invocation rates
  from the paper's Table 1.
* **Cold vs warm starts** — the first invocation of each concurrent instance
  pays a cold-start penalty; later reuses are warm.
* **Billing** — GiB-seconds of the *modelled* duration plus a per-request fee,
  metered into the shared ledger.
* **Concurrency limit** — invocations beyond the account limit are rejected
  with :class:`~repro.errors.TooManyRequestsError`.

Handlers receive ``(event, context)``.  The :class:`InvocationContext` lets the
handler account modelled time (``context.charge(seconds)``) and gives access to
its configuration, mirroring how the real Lambda context exposes memory size
and remaining time.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.clock import VirtualClock
from repro.cloud.faults import attempt_scope
from repro.cloud.metering import MeteringLedger
from repro.config import (
    GiB,
    INVOCATION_LATENCY_SECONDS,
    INVOCATION_RATE_DRIVER,
    INVOCATION_RATE_INTRA_REGION,
    LAMBDA_COLD_START_SECONDS,
    LAMBDA_DEFAULT_CONCURRENCY_LIMIT,
    LAMBDA_MAX_MEMORY_MIB,
    LAMBDA_MEMORY_PER_VCPU_MIB,
    LAMBDA_MIN_MEMORY_MIB,
    LAMBDA_WARM_START_SECONDS,
    MiB,
)
from repro.errors import FunctionNotFoundError, FunctionOutOfMemoryError, TooManyRequestsError


def cpu_share_for_memory(memory_mib: int) -> float:
    """Fraction of vCPUs allocated to a function of ``memory_mib``.

    AWS allocates CPU proportionally to memory, with exactly one vCPU at
    1792 MiB.  A 3008 MiB function therefore owns ~1.68 vCPUs, matching the
    1.67x two-thread speed-up the paper measures in Figure 4.
    """
    if memory_mib <= 0:
        raise ValueError("memory_mib must be positive")
    return memory_mib / LAMBDA_MEMORY_PER_VCPU_MIB


def compute_throughput(memory_mib: int, threads: int) -> float:
    """Relative compute throughput versus a single-thread 1792 MiB baseline.

    This is the quantity plotted in the paper's Figure 4: below 1792 MiB the
    throughput is proportional to memory regardless of thread count; above,
    a single thread is capped at 1.0 while a second thread can exploit the
    extra CPU share up to the total allocation.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    share = cpu_share_for_memory(memory_mib)
    return min(share, float(threads), max(share, 0.0)) if threads > 1 else min(share, 1.0)


@dataclass(frozen=True)
class FunctionConfig:
    """Deployment-time configuration of a serverless function."""

    name: str
    memory_mib: int = 2048
    timeout_seconds: float = 900.0
    region: str = "eu"

    def __post_init__(self):
        if not (LAMBDA_MIN_MEMORY_MIB <= self.memory_mib <= LAMBDA_MAX_MEMORY_MIB):
            raise ValueError(
                f"memory must be between {LAMBDA_MIN_MEMORY_MIB} and "
                f"{LAMBDA_MAX_MEMORY_MIB} MiB, got {self.memory_mib}"
            )
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if self.region not in INVOCATION_LATENCY_SECONDS:
            raise ValueError(f"unknown region {self.region!r}")


class InvocationContext:
    """Runtime context handed to each handler invocation."""

    def __init__(self, config: FunctionConfig, invocation_id: int, cold_start: bool):
        self.config = config
        self.invocation_id = invocation_id
        self.cold_start = cold_start
        #: Injected straggler slowdown (1.0 = none); handlers multiply their
        #: modelled execution duration by this so the slowdown shows up both
        #: in billing and in the duration they report to the driver.
        self.straggler_factor = 1.0
        self._charged_seconds = 0.0
        self._peak_memory_bytes = 0

    @property
    def memory_mib(self) -> int:
        """Configured memory of the function."""
        return self.config.memory_mib

    @property
    def charged_seconds(self) -> float:
        """Modelled execution time charged so far."""
        return self._charged_seconds

    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of modelled execution time."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._charged_seconds += seconds

    def note_memory_use(self, bytes_used: int) -> None:
        """Report peak memory use; exceeding the limit fails the invocation."""
        self._peak_memory_bytes = max(self._peak_memory_bytes, bytes_used)
        if self._peak_memory_bytes > self.config.memory_mib * MiB:
            raise FunctionOutOfMemoryError(
                f"used {self._peak_memory_bytes} bytes with a limit of "
                f"{self.config.memory_mib} MiB"
            )


@dataclass
class InvocationResult:
    """Outcome of one function invocation."""

    function_name: str
    invocation_id: int
    payload: Any
    error: Optional[str]
    cold_start: bool
    #: Time between the invocation request and the handler starting, seconds.
    startup_seconds: float
    #: Modelled execution duration of the handler, seconds.
    duration_seconds: float

    @property
    def succeeded(self) -> bool:
        """Whether the handler completed without raising."""
        return self.error is None

    @property
    def total_seconds(self) -> float:
        """Startup plus execution time."""
        return self.startup_seconds + self.duration_seconds


Handler = Callable[[Dict[str, Any], InvocationContext], Any]


class LambdaService:
    """Registry and runtime for serverless functions."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[MeteringLedger] = None,
        concurrency_limit: int = LAMBDA_DEFAULT_CONCURRENCY_LIMIT,
        region: str = "eu",
    ):
        if region not in INVOCATION_LATENCY_SECONDS:
            raise ValueError(f"unknown region {region!r}")
        self.clock = clock or VirtualClock()
        self.ledger = ledger if ledger is not None else MeteringLedger()
        self.concurrency_limit = concurrency_limit
        self.region = region
        self._functions: Dict[str, FunctionConfig] = {}
        self._handlers: Dict[str, Handler] = {}
        self._warm_instances: Dict[str, int] = {}
        self._active = 0
        self._next_invocation_id = 0
        self._lock = threading.RLock()
        #: All invocation results in order, for post-hoc analysis.
        self.invocation_log: List[InvocationResult] = []
        #: Optional fault-injection plan (see :mod:`repro.cloud.faults`).
        self.fault_plan = None

    # -- deployment -----------------------------------------------------------

    def deploy(self, config: FunctionConfig, handler: Handler) -> None:
        """Deploy (or replace) a function.  Replacing resets warm instances."""
        with self._lock:
            self._functions[config.name] = config
            self._handlers[config.name] = handler
            self._warm_instances[config.name] = 0

    def delete_function(self, name: str) -> None:
        """Remove a deployed function."""
        with self._lock:
            self._require_function(name)
            del self._functions[name]
            del self._handlers[name]
            del self._warm_instances[name]

    def list_functions(self) -> List[str]:
        """Names of all deployed functions."""
        with self._lock:
            return sorted(self._functions)

    def get_config(self, name: str) -> FunctionConfig:
        """Configuration of a deployed function."""
        with self._lock:
            self._require_function(name)
            return self._functions[name]

    def reset_warm_instances(self, name: Optional[str] = None) -> None:
        """Forget warm instances, forcing cold starts (used by benchmarks)."""
        with self._lock:
            if name is None:
                for key in self._warm_instances:
                    self._warm_instances[key] = 0
            else:
                self._require_function(name)
                self._warm_instances[name] = 0

    def _require_function(self, name: str) -> None:
        if name not in self._functions:
            raise FunctionNotFoundError(name)

    # -- invocation model ----------------------------------------------------

    def invocation_latency(self, from_driver: bool = True) -> float:
        """One-way request latency of a single invocation (Table 1)."""
        if from_driver:
            return INVOCATION_LATENCY_SECONDS[self.region]
        # Intra-region invocations have data-centre-internal latency.
        return 0.005

    def invocation_rate(self, from_driver: bool = True) -> float:
        """Sustainable invocations per second from one invoker (Table 1)."""
        if from_driver:
            return INVOCATION_RATE_DRIVER[self.region]
        return INVOCATION_RATE_INTRA_REGION[self.region]

    # -- invocation ------------------------------------------------------------

    def invoke(
        self,
        name: str,
        event: Dict[str, Any],
        from_driver: bool = True,
    ) -> InvocationResult:
        """Invoke a function synchronously and return its result.

        The handler runs in-process; exceptions are captured into the result
        (as Lambda reports function errors in the response rather than
        failing the Invoke API call), except for service-level errors such as
        the concurrency limit which raise immediately.
        """
        plan = self.fault_plan
        with self._lock:
            self._require_function(name)
            if self._active >= self.concurrency_limit:
                raise TooManyRequestsError(
                    f"concurrency limit of {self.concurrency_limit} reached"
                )
            if plan is not None and plan.decide("lambda.admit", name, active=self._active):
                # Injected brownout fleet cap: same shape as the service's own
                # concurrency rejection, so driver retry/breaker paths treat
                # both identically.
                raise TooManyRequestsError(
                    f"injected capacity brownout: fleet cap reached invoking {name}"
                )
            self._active += 1
            handler = self._handlers[name]

        def run(context: InvocationContext) -> Tuple[Any, Optional[str], Optional[str]]:
            try:
                # The invocation, and the handler's requests, draw as this
                # worker attempt.
                with attempt_scope(name, event):
                    fault = plan.decide("lambda.run", name) if plan is not None else None
                    if fault is not None and fault.fault == "straggler":
                        context.straggler_factor = fault.rule.factor
                    elif fault is not None:
                        # A drop or timeout skips the handler, so no result
                        # message is ever posted — the driver only notices at
                        # its wave deadline.
                        return None, None, fault.fault
                    return handler(event, context), None, None
            except Exception as exc:  # noqa: BLE001 - report any handler failure
                return None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}", None
            finally:
                with self._lock:
                    self._active -= 1

        return self._metered(name, from_driver, run)

    def account_invocation(
        self,
        name: str,
        duration_seconds: float,
        from_driver: bool = True,
        cold_penalty: float = 1.0,
        fault: Optional[str] = None,
    ) -> InvocationResult:
        """Meter one invocation whose handler executed *outside* the service
        (the process pool's workers): :meth:`invoke`'s own metering step with
        only the handler call skipped.

        ``cold_penalty`` scales ``duration_seconds`` when this invocation
        lands cold, mirroring the execution-slowdown factor the in-process
        worker handler applies.  ``fault`` is the injected ``"drop"`` or
        ``"timeout"`` the caller drew for it (the fragment never ran).
        """

        def run(context: InvocationContext) -> Tuple[Any, Optional[str], Optional[str]]:
            context.charge(duration_seconds * (cold_penalty if context.cold_start else 1.0))
            return None, None, fault

        return self._metered(name, from_driver, run)

    def _metered(
        self,
        name: str,
        from_driver: bool,
        run: Callable[[InvocationContext], Tuple[Any, Optional[str], Optional[str]]],
    ) -> InvocationResult:
        """The one metering step of every invocation.

        Cold/warm instance bookkeeping, then ``run(context)`` — the handler,
        or what stands in for it — which returns ``(payload, error, fault)``
        with its modelled time charged to ``context``; then the injected
        fault's error and duration (``"drop"``: the Invoke is accepted but the
        function never runs; ``"timeout"``: it hangs and is killed at its
        timeout), the timeout clamp, the ledger records — the invocation's
        only bill — and the invocation log.
        """
        with self._lock:
            self._require_function(name)
            invocation_id = self._next_invocation_id
            self._next_invocation_id += 1
            config = self._functions[name]
            cold = self._warm_instances[name] <= 0
            if cold:
                # A cold start provisions a new instance that stays warm.
                self._warm_instances[name] += 1

        startup = self.invocation_latency(from_driver) + (
            LAMBDA_COLD_START_SECONDS if cold else LAMBDA_WARM_START_SECONDS
        )
        context = InvocationContext(config, invocation_id, cold)
        payload, error, fault = run(context)
        duration = context.charged_seconds
        if fault == "drop":
            error = "InvocationDropped: injected invocation drop"
            duration = 0.0
        elif fault == "timeout":
            error = (
                f"FunctionTimeout: injected hang killed at the "
                f"{config.timeout_seconds:.1f}s timeout"
            )
            duration = config.timeout_seconds
        if duration > config.timeout_seconds:
            error = error or (
                f"FunctionTimeout: modelled duration {duration:.1f}s exceeds "
                f"timeout {config.timeout_seconds:.1f}s"
            )
            duration = config.timeout_seconds
        gib_seconds = config.memory_mib * MiB / GiB * duration
        self.ledger.record("lambda", "invocations", 1, self.clock.now)
        self.ledger.record("lambda", "gib_seconds", gib_seconds, self.clock.now)
        result = InvocationResult(
            function_name=name,
            invocation_id=invocation_id,
            payload=payload,
            error=error,
            cold_start=cold,
            startup_seconds=startup,
            duration_seconds=duration,
        )
        with self._lock:
            self.invocation_log.append(result)
        return result

    # -- statistics -----------------------------------------------------------

    def total_invocations(self) -> int:
        """Number of invocations performed since creation."""
        with self._lock:
            return len(self.invocation_log)
