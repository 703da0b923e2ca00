"""Per-service circuit breakers and per-query retry budgets.

PR 7's retry machinery assumes faults are *transient*: every retry loop backs
off and tries again, forever bounded only by its own attempt count.  Under a
sustained brownout (an S3 throttle storm, a capped Lambda fleet) that
assumption inverts — retries are almost certainly doomed, and the failure
mode is slow, expensive, and invisible.  This module adds the two standard
overload-control primitives on top:

* :class:`CircuitBreaker` — one per service (S3 / Lambda / SQS), counting
  failures in a rolling modelled-time window.  Past the threshold the breaker
  *opens*; retry sites then charge the remaining cooldown to modelled latency
  (instead of issuing doomed requests) and proceed as *half-open* probes.
  Enough probe successes close the breaker again.  A shuffle mapper retried
  while the S3 breaker is open writes its one combined object again, under
  its fresh attempt prefix — there is no cheaper write plane to fall back to.
* :class:`RetryBudget` — a per-query cap on the *combined* spend of
  ``call_with_backoff`` retries, wave retries, driver re-invocations, and
  hedges.  Exhaustion raises
  :class:`~repro.errors.RetryBudgetExhaustedError`, converting the endless
  grind into a fast failure attributed to exactly what was spent and which
  breakers were open.

Both consume *modelled* time (the environment clock plus accumulated modelled
backoff), never wall-clock time, so breaker schedules are as deterministic as
the fault schedules that trip them.  On the fault-free path neither class is
ever touched: breakers record only failures, and budgets only charge on
retries — keeping armed-plane overhead within the benchmark ceiling.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.config import DEFAULT_RESILIENCE
from repro.driver.resilience import DEFAULT_RESILIENCE_POLICY
from repro.errors import (
    NoSuchKeyError,
    RetryBudgetExhaustedError,
    SlowDownError,
    TooManyRequestsError,
)

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Services with a breaker on the board.
BREAKER_SERVICES = ("s3", "lambda", "sqs")


class CircuitBreaker:
    """A rolling-window circuit breaker for one service.

    States follow the textbook machine: ``closed`` (normal; failures are
    counted in a rolling window) → ``open`` (threshold exceeded; callers
    should wait out the cooldown) → ``half_open`` (cooldown elapsed; a few
    probe requests decide) → back to ``closed`` on enough probe successes or
    straight back to ``open`` on a probe failure.

    ``now`` is always modelled seconds supplied by the caller; the breaker
    holds no clock of its own.  Thread-safe: the driver's retry loops and the
    shuffle coordinators share one board per driver.
    """

    def __init__(
        self,
        service: str,
        failure_threshold: int = DEFAULT_RESILIENCE.breaker_failure_threshold,
        window_seconds: float = DEFAULT_RESILIENCE.breaker_window_seconds,
        cooldown_seconds: float = DEFAULT_RESILIENCE.breaker_cooldown_seconds,
        half_open_probes: int = DEFAULT_RESILIENCE.breaker_half_open_probes,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.service = service
        self.failure_threshold = failure_threshold
        self.window_seconds = window_seconds
        self.cooldown_seconds = cooldown_seconds
        self.half_open_probes = half_open_probes
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures: deque = deque()  # modelled timestamps
        self._opened_at = 0.0
        self._probe_successes = 0
        #: Transition log: ``(modelled_now, from_state, to_state)`` tuples.
        self.transitions: List[tuple] = []

    # -- internal (call under lock) -------------------------------------------

    def _transition(self, now: float, to_state: str) -> None:
        self.transitions.append((now, self._state, to_state))
        self._state = to_state

    def _prune(self, now: float) -> None:
        while self._failures and self._failures[0] < now - self.window_seconds:
            self._failures.popleft()

    # -- recording -------------------------------------------------------------

    def record_failure(self, now: float) -> None:
        """Count one failed request against the rolling window."""
        with self._lock:
            if self._state == HALF_OPEN:
                # A failed probe re-opens immediately and restarts the cooldown.
                self._failures.clear()
                self._probe_successes = 0
                self._opened_at = now
                self._transition(now, OPEN)
                return
            self._prune(now)
            self._failures.append(now)
            if self._state == CLOSED and len(self._failures) >= self.failure_threshold:
                self._opened_at = now
                self._transition(now, OPEN)

    def record_success(self, now: float) -> None:
        """Count one successful request (only probes change state)."""
        with self._lock:
            if self._state != HALF_OPEN:
                return
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._failures.clear()
                self._probe_successes = 0
                self._transition(now, CLOSED)

    # -- querying --------------------------------------------------------------

    def wait_seconds(self, now: float) -> float:
        """Remaining cooldown before a request should be attempted.

        Returns 0.0 for closed/half-open breakers.  For an open breaker whose
        cooldown has elapsed, transitions to half-open (this call *is* the
        probe admission) and returns 0.0; otherwise returns the remaining
        cooldown so the caller can charge it to modelled latency and then
        proceed straight to the probe.
        """
        with self._lock:
            if self._state != OPEN:
                return 0.0
            remaining = self._opened_at + self.cooldown_seconds - now
            if remaining <= 0.0:
                self._probe_successes = 0
                self._transition(now, HALF_OPEN)
                return 0.0
            return remaining

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "window_failures": len(self._failures),
                "transitions": [
                    {"at_seconds": round(at, 6), "from": frm, "to": to}
                    for at, frm, to in self.transitions
                ],
            }


class BreakerBoard:
    """One breaker per cloud service, plus error-to-service classification.

    A driver owns one board for its whole lifetime (breaker state is fleet
    health, not query state), while each query gets its own
    :class:`RetryBudget`.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_RESILIENCE.breaker_failure_threshold,
        window_seconds: float = DEFAULT_RESILIENCE.breaker_window_seconds,
        cooldown_seconds: float = DEFAULT_RESILIENCE.breaker_cooldown_seconds,
        half_open_probes: int = DEFAULT_RESILIENCE.breaker_half_open_probes,
    ):
        self.breakers: Dict[str, CircuitBreaker] = {
            service: CircuitBreaker(
                service,
                failure_threshold=failure_threshold,
                window_seconds=window_seconds,
                cooldown_seconds=cooldown_seconds,
                half_open_probes=half_open_probes,
            )
            for service in BREAKER_SERVICES
        }

    @staticmethod
    def classify(error: BaseException) -> Optional[str]:
        """Which service's breaker a failure counts against (or ``None``).

        Throttles and missing keys are storage-side; concurrency rejections
        are invocation-side.  Anything unrecognised counts against no breaker
        — budgets still bound it.
        """
        if isinstance(error, (SlowDownError, NoSuchKeyError)):
            return "s3"
        if isinstance(error, TooManyRequestsError):
            return "lambda"
        return None

    def record_failure(self, error: BaseException, now: float) -> Optional[str]:
        """Route one failure to its breaker; returns the service charged."""
        service = self.classify(error)
        if service is not None:
            self.breakers[service].record_failure(now)
        return service

    def record_success(self, service: str, now: float) -> None:
        breaker = self.breakers.get(service)
        if breaker is not None:
            breaker.record_success(now)

    def wait_seconds(self, service: str, now: float) -> float:
        breaker = self.breakers.get(service)
        return 0.0 if breaker is None else breaker.wait_seconds(now)

    def open_services(self) -> List[str]:
        return [s for s, b in self.breakers.items() if b.state != CLOSED]

    def states(self) -> Dict[str, str]:
        return {service: b.state for service, b in self.breakers.items()}

    def transition_count(self) -> int:
        return sum(len(b.transitions) for b in self.breakers.values())

    def to_dict(self) -> dict:
        return {service: b.to_dict() for service, b in self.breakers.items()}


class RetryBudget:
    """A per-query cap on combined retry/hedge spend.

    Every repair action — a ``call_with_backoff`` re-attempt, a wave
    re-invocation, a driver retry round, a hedge launch — charges one unit
    under a category label.  :meth:`charge` raises
    :class:`~repro.errors.RetryBudgetExhaustedError` once the cap is reached;
    :meth:`try_charge` is the non-raising variant for optional work (hedges
    are suppressed rather than fatal when the budget runs dry).
    """

    def __init__(
        self,
        limit: int = DEFAULT_RESILIENCE_POLICY.retry_budget,
        query_id: str = "",
        breaker_states: Optional[Callable[[], Dict[str, str]]] = None,
    ):
        if limit < 1:
            raise ValueError("retry budget limit must be >= 1")
        self.limit = limit
        self.query_id = query_id
        self._breaker_states = breaker_states
        self._lock = threading.Lock()
        self._spent: Dict[str, int] = {}
        self._total = 0

    def charge(self, category: str, amount: int = 1) -> None:
        """Spend ``amount`` units, raising once the budget is exhausted."""
        with self._lock:
            if self._total + amount > self.limit:
                spent = dict(self._spent)
                total = self._total
            else:
                self._spent[category] = self._spent.get(category, 0) + amount
                self._total += amount
                return
        raise RetryBudgetExhaustedError(
            f"query {self.query_id or '<unnamed>'} exhausted its retry budget "
            f"({total}/{self.limit} spent, +{amount} {category} refused)",
            query_id=self.query_id,
            spent=spent,
            breaker_states=self._breaker_states() if self._breaker_states else {},
        )

    def try_charge(self, category: str, amount: int = 1) -> bool:
        """Spend ``amount`` units if available; False (no raise) otherwise."""
        with self._lock:
            if self._total + amount > self.limit:
                return False
            self._spent[category] = self._spent.get(category, 0) + amount
            self._total += amount
            return True

    @property
    def spent_total(self) -> int:
        with self._lock:
            return self._total

    @property
    def remaining(self) -> int:
        with self._lock:
            return self.limit - self._total

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "limit": self.limit,
                "spent_total": self._total,
                "spent": dict(self._spent),
            }


__all__ = [
    "CircuitBreaker",
    "BreakerBoard",
    "RetryBudget",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BREAKER_SERVICES",
]
