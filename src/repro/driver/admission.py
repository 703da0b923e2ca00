"""Admission control for concurrent query submission.

ROADMAP item 2 asks for "an admission controller + fair scheduler with
per-tenant budgets".  This module is the driver-side half of that: the
primitives :class:`~repro.driver.driver.QuerySession` uses to run N in-flight
queries over the shared simulated fleet without letting any one tenant (or an
overload spike) degrade everyone:

* :class:`AdmissionController` — a max-concurrency gate plus a *bounded*
  admission queue.  Submissions beyond the queue bound fail fast with
  :class:`~repro.errors.QueryRejectedError` (``reason="queue_full"``) instead
  of building an invisible backlog.
* :class:`TokenBucket` / per-tenant budgets — each tenant holds two buckets,
  one in Lambda invocations and one in modelled dollars, refilled on the
  environment's *modelled* clock.  An over-budget submission is rejected
  typed (``reason="invocation_budget"`` / ``"dollar_budget"``) before any
  fleet resource is spent.  Estimates are charged at admission and reconciled
  against the query's actual metered spend at completion, so budgets track
  real consumption, not guesses.
* :class:`CancellationToken` — cooperative cancellation with optional
  deadline, threaded from the driver through wave dispatch into worker/pool
  paths.  ``check(stage)`` raises
  :class:`~repro.errors.QueryCancelledError` at well-defined pump points;
  the driver's cleanup paths then release /dev/shm segments and
  garbage-collect S3/SQS state.  ``cancel_at_stage`` arms a deterministic
  self-cancel at the first check of a named stage, which is how the test
  suite provokes exact mid-map-wave / mid-reduce-wave cancellations without
  races.
* :class:`AdmissionStats` — the per-session counters block surfaced next to
  the ``resilience`` block in query statistics.

Everything here is modelled-time based (no wall-clock sleeping) and
thread-safe; the controller is shared by the session's worker threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.errors import QueryCancelledError, QueryRejectedError


class TokenBucket:
    """A token bucket on the modelled clock.

    ``capacity`` bounds the burst; ``refill_per_second`` tokens accrue per
    modelled second (the virtual clock only advances when tests or benchmarks
    drive it, so within one query the bucket is effectively static).  Not
    thread-safe on its own — the owning controller serialises access.
    """

    def __init__(self, capacity: float, refill_per_second: float = 0.0):
        if capacity <= 0:
            raise ValueError("bucket capacity must be positive")
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._level = float(capacity)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last_refill and self.refill_per_second > 0.0:
            self._level = min(
                self.capacity,
                self._level + (now - self._last_refill) * self.refill_per_second,
            )
        self._last_refill = max(self._last_refill, now)

    def try_take(self, amount: float, now: float) -> bool:
        """Take ``amount`` tokens if available; False leaves the level as-is."""
        self._refill(now)
        if amount > self._level:
            return False
        self._level -= amount
        return True

    def adjust(self, amount: float, now: float) -> None:
        """Reconcile by ``amount`` (positive = extra spend, negative = refund).

        Unlike :meth:`try_take` this never refuses: actual spend already
        happened, so the level may go negative — the tenant then stays
        rejected until refill pays the debt off.
        """
        self._refill(now)
        self._level = min(self.capacity, self._level - amount)

    @property
    def level(self) -> float:
        return self._level


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the admission gate and the per-tenant budgets."""

    #: Queries executing at once across the session.
    max_concurrent_queries: int = 4
    #: Admitted-but-waiting queries tolerated before fail-fast rejection.
    max_queued_queries: int = 8
    #: Per-tenant invocation budget: burst capacity and modelled refill rate.
    tenant_invocation_capacity: float = 4096.0
    tenant_invocation_refill_per_second: float = 0.0
    #: Per-tenant modelled-dollar budget.
    tenant_dollar_capacity: float = 1.0
    tenant_dollar_refill_per_second: float = 0.0
    #: Charged at admission time, reconciled against actuals at completion.
    default_invocation_estimate: float = 16.0
    default_dollar_estimate: float = 0.001

    def to_dict(self) -> dict:
        return {
            "max_concurrent_queries": self.max_concurrent_queries,
            "max_queued_queries": self.max_queued_queries,
            "tenant_invocation_capacity": self.tenant_invocation_capacity,
            "tenant_dollar_capacity": self.tenant_dollar_capacity,
        }


@dataclass
class AdmissionStats:
    """Counters of one admission controller (session-wide)."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Rejections by typed reason: queue_full / invocation_budget / dollar_budget.
    rejected: Dict[str, int] = field(default_factory=dict)
    peak_in_flight: int = 0
    peak_queued: int = 0
    #: Per-tenant admitted/rejected counts and reconciled actual spend.
    tenants: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def note_rejection(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def tenant(self, name: str) -> Dict[str, float]:
        return self.tenants.setdefault(
            name,
            {
                "admitted": 0,
                "rejected": 0,
                "invocations_spent": 0.0,
                "dollars_spent": 0.0,
            },
        )

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": dict(self.rejected),
            "peak_in_flight": self.peak_in_flight,
            "peak_queued": self.peak_queued,
            "tenants": {name: dict(row) for name, row in self.tenants.items()},
        }


@dataclass
class AdmissionPermit:
    """One admitted query's claim on the gate and its tenant's budgets."""

    tenant: str
    invocation_estimate: float
    dollar_estimate: float
    queued: bool = False


class AdmissionController:
    """Max-concurrency gate + bounded queue + per-tenant token buckets.

    ``admit`` is called on the submitting thread and either returns an
    :class:`AdmissionPermit` or raises :class:`QueryRejectedError`; the
    session then hands the permitted query to its executor.  ``start`` flips
    a queued permit to in-flight when a worker thread picks it up, and
    ``finish`` releases the slot and reconciles the tenant's buckets against
    the query's actual metered spend.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        self.config = config or AdmissionConfig()
        self._now_fn = now_fn or (lambda: 0.0)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._queued = 0
        self._invocations: Dict[str, TokenBucket] = {}
        self._dollars: Dict[str, TokenBucket] = {}
        self.stats = AdmissionStats()

    def _buckets(self, tenant: str) -> tuple:
        if tenant not in self._invocations:
            self._invocations[tenant] = TokenBucket(
                self.config.tenant_invocation_capacity,
                self.config.tenant_invocation_refill_per_second,
            )
            self._dollars[tenant] = TokenBucket(
                self.config.tenant_dollar_capacity,
                self.config.tenant_dollar_refill_per_second,
            )
        return self._invocations[tenant], self._dollars[tenant]

    def admit(
        self,
        tenant: str = "default",
        invocation_estimate: Optional[float] = None,
        dollar_estimate: Optional[float] = None,
    ) -> AdmissionPermit:
        """Admit one submission or raise a typed :class:`QueryRejectedError`."""
        invocation_estimate = (
            self.config.default_invocation_estimate
            if invocation_estimate is None
            else float(invocation_estimate)
        )
        dollar_estimate = (
            self.config.default_dollar_estimate
            if dollar_estimate is None
            else float(dollar_estimate)
        )
        now = self._now_fn()
        with self._lock:
            self.stats.submitted += 1
            row = self.stats.tenant(tenant)
            queued = self._in_flight >= self.config.max_concurrent_queries
            if queued and self._queued >= self.config.max_queued_queries:
                self.stats.note_rejection("queue_full")
                row["rejected"] += 1
                raise QueryRejectedError(
                    f"admission queue full ({self._queued} waiting, "
                    f"{self._in_flight} in flight)",
                    tenant=tenant,
                    reason="queue_full",
                )
            invocations, dollars = self._buckets(tenant)
            if not invocations.try_take(invocation_estimate, now):
                self.stats.note_rejection("invocation_budget")
                row["rejected"] += 1
                raise QueryRejectedError(
                    f"tenant {tenant!r} is out of invocation budget "
                    f"({invocations.level:.0f} tokens left, "
                    f"{invocation_estimate:.0f} needed)",
                    tenant=tenant,
                    reason="invocation_budget",
                )
            if not dollars.try_take(dollar_estimate, now):
                # Give back the invocation tokens the first bucket took.
                invocations.adjust(-invocation_estimate, now)
                self.stats.note_rejection("dollar_budget")
                row["rejected"] += 1
                raise QueryRejectedError(
                    f"tenant {tenant!r} is out of dollar budget "
                    f"(${dollars.level:.6f} left, "
                    f"${dollar_estimate:.6f} needed)",
                    tenant=tenant,
                    reason="dollar_budget",
                )
            if queued:
                self._queued += 1
                self.stats.peak_queued = max(self.stats.peak_queued, self._queued)
            else:
                self._in_flight += 1
                self.stats.peak_in_flight = max(
                    self.stats.peak_in_flight, self._in_flight
                )
            self.stats.admitted += 1
            row["admitted"] += 1
            return AdmissionPermit(
                tenant=tenant,
                invocation_estimate=invocation_estimate,
                dollar_estimate=dollar_estimate,
                queued=queued,
            )

    def start(self, permit: AdmissionPermit) -> None:
        """A worker thread picked a queued permit up: queued -> in-flight."""
        with self._lock:
            if permit.queued:
                permit.queued = False
                self._queued -= 1
                self._in_flight += 1
                self.stats.peak_in_flight = max(
                    self.stats.peak_in_flight, self._in_flight
                )

    def finish(
        self,
        permit: AdmissionPermit,
        outcome: str,
        actual_invocations: float = 0.0,
        actual_dollars: float = 0.0,
    ) -> None:
        """Release the slot and reconcile estimates against actual spend.

        ``outcome`` is ``"completed"`` / ``"failed"`` / ``"cancelled"``.
        Actual spend replaces the admission-time estimate in the tenant's
        buckets: the difference is charged (or refunded), so a tenant's
        remaining budget always reflects what its queries really consumed.
        """
        now = self._now_fn()
        with self._lock:
            if permit.queued:
                permit.queued = False
                self._queued -= 1
            else:
                self._in_flight -= 1
            invocations, dollars = self._buckets(permit.tenant)
            invocations.adjust(actual_invocations - permit.invocation_estimate, now)
            dollars.adjust(actual_dollars - permit.dollar_estimate, now)
            row = self.stats.tenant(permit.tenant)
            row["invocations_spent"] += actual_invocations
            row["dollars_spent"] += actual_dollars
            if outcome == "completed":
                self.stats.completed += 1
            elif outcome == "cancelled":
                self.stats.cancelled += 1
            else:
                self.stats.failed += 1

    def tenant_levels(self, tenant: str) -> Dict[str, float]:
        """Current bucket levels of one tenant (for reports and tests)."""
        now = self._now_fn()
        with self._lock:
            invocations, dollars = self._buckets(tenant)
            invocations._refill(now)
            dollars._refill(now)
            return {
                "invocations": invocations.level,
                "dollars": dollars.level,
            }


class CancellationToken:
    """Cooperative cancellation + deadline for one query.

    The driver calls :meth:`check` at its pump points (poll rounds, retry
    rounds, wave rounds, pooled rounds); a set token or an expired deadline
    raises :class:`QueryCancelledError` there, and the surrounding cleanup
    paths release segments and garbage-collect cloud state.

    ``deadline_seconds`` is measured in *modelled* time from :meth:`bind`
    (environment clock plus accumulated modelled backoff — the driver binds
    the right now-function at execute start).  ``cancel_at_stage`` arms a
    deterministic self-cancel at the first check of that stage, used by tests
    to hit exact mid-wave points without thread races.
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        cancel_at_stage: Optional[str] = None,
        query_id: str = "",
    ):
        self.deadline_seconds = deadline_seconds
        self.cancel_at_stage = cancel_at_stage
        self.query_id = query_id
        self._cancelled = threading.Event()
        self._now_fn: Optional[Callable[[], float]] = None
        self._started_at = 0.0
        #: Stage label at which the cancellation was observed.
        self.observed_stage: str = ""

    def bind(self, now_fn: Callable[[], float], query_id: str = "") -> None:
        """Attach the modelled now-function; starts the deadline clock."""
        self._now_fn = now_fn
        self._started_at = now_fn()
        if query_id:
            self.query_id = query_id

    def cancel(self) -> None:
        """Request cancellation; the query unwinds at its next check."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def elapsed_seconds(self) -> float:
        if self._now_fn is None:
            return 0.0
        return self._now_fn() - self._started_at

    def check(self, stage: str) -> None:
        """Raise :class:`QueryCancelledError` if cancelled or past deadline."""
        if self.cancel_at_stage is not None and stage == self.cancel_at_stage:
            self._cancelled.set()
        if self._cancelled.is_set():
            self.observed_stage = self.observed_stage or stage
            raise QueryCancelledError(
                f"query {self.query_id or '<unnamed>'} cancelled at {stage}",
                query_id=self.query_id,
                stage=stage,
            )
        if self.deadline_seconds is not None and self._now_fn is not None:
            elapsed = self._now_fn() - self._started_at
            if elapsed > self.deadline_seconds:
                self._cancelled.set()
                self.observed_stage = self.observed_stage or stage
                raise QueryCancelledError(
                    f"query {self.query_id or '<unnamed>'} exceeded its "
                    f"{self.deadline_seconds:.1f}s deadline at {stage} "
                    f"({elapsed:.1f}s modelled elapsed)",
                    query_id=self.query_id,
                    stage=stage,
                    deadline=True,
                )


__all__ = [
    "TokenBucket",
    "AdmissionConfig",
    "AdmissionStats",
    "AdmissionPermit",
    "AdmissionController",
    "CancellationToken",
]
