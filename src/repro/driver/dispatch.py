"""One way to run a fleet: dispatch, collect, retry — under one query context.

The paper's driver does one thing per fleet, whatever it computes (§3.2–3.3):
invoke the workers, learn of completion through the SQS result queue,
re-invoke what failed.  This module is that path, once, for the scan fleet
and every shuffle wave: :meth:`QueryContext.lambda_transport` the one Lambda +
SQS transport (a caller passes only data — function, queue, stage label and,
for the scan, the launcher of its first round), :func:`run_fleet` the loop
whose retry step is the one booking of a re-dispatch, :func:`raise_unfinished`
the one typed failure, :func:`collect_results` the queue's only poller.  A
scan fleet's other transport, the process pool, is a closure of the same
shape; a hedge is one more call of either.

What a query's fleets share — its id, jitter stream, counters, breaker board,
retry budget and cancellation token — is one :class:`QueryContext`, opened
once per query; every fleet, driver-side cloud request and spilled-result
read of the query goes through it, and so does the cleanup of a typed abort.
"""

from __future__ import annotations

import random
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.config import DEFAULT_RESILIENCE
from repro.driver.breakers import RetryBudget
from repro.driver.integrity import IntegrityStats, fetch_spilled_result, open_message
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    AttemptLog,
    ResiliencePolicy,
    ResilienceStats,
    call_with_backoff,
    decorrelated_jitter,
    fault_delta,
    fault_snapshot,
    merge_attempt_message,
)
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    RetryBudgetExhaustedError,
    WorkerFailedError,
)

#: What a worker that never reported (dropped invocation, crash) failed with.
NO_RESULT_ERROR = "no result message (lost invocation or worker crash)"

#: Worker errors that mean the invocation plane itself failed, not a worker.
LAMBDA_FAILURE_PREFIXES = (
    "InvocationDropped", "FunctionTimeout", "WorkerCrashError", NO_RESULT_ERROR,
)


@dataclass(frozen=True)
class FleetLabels:
    """What a fleet's pump points and retry charges are called.

    Data on the call (the cancellation and overload suites pin the names per
    caller), so the loop never asks which caller it serves.
    """

    #: Cancellation stage checked before the first dispatch, if any.
    dispatch: Optional[str]
    #: Cancellation stage checked before every retry round.
    retry: str
    #: Retry-budget account one re-dispatched worker is charged to.
    budget: str
    #: Stage the fleet's typed failure names, if any.
    stage: Optional[str] = None


def current_attempts(events: Dict) -> Dict:
    """``{key: attempt}`` of a fleet as dispatched so far — what a poll wants."""
    return {key: int(event.get("attempt", 0)) for key, event in events.items()}


def failed_keys(events: Dict, by_key: Dict) -> List:
    """Keys of ``events`` that hold no ok result yet, sorted."""
    return sorted(key for key in events if by_key.get(key, {}).get("status") != "ok")


def collect_results(
    sqs: Any,
    queue: str,
    query_id: str,
    want: Dict,
    by_key: Dict,
    label: str,
    resilience: Optional[ResilienceStats] = None,
    verify: bool = True,
    integrity: Optional[IntegrityStats] = None,
    cancel: Optional[Any] = None,
) -> int:
    """Poll ``queue`` until every key of ``want`` reported; returns how many did.

    ``want`` maps fleet keys — the worker id, or ``(side, worker_id)`` for
    messages that name a side — to the attempt dispatched for them.  Messages
    of ``query_id`` are folded into ``by_key`` under (key, attempt) dedup:
    duplicate and stale deliveries are counted into ``resilience`` and
    dropped, keys outside ``want`` are dropped uncounted.  A key is satisfied
    by a message (ok *or* error) of at least its wanted attempt — an older
    one cannot end the poll, so a retry is never confused with the attempt it
    superseded.  A corrupt message is counted into ``integrity`` and dropped:
    its worker looks missing and is re-invoked, so it never contributes rows.
    ``cancel`` is checked before every receive under the stage ``label``; the
    poll budget is bounded (the wave deadline), and what it leaves missing is
    absent from, or stale in, ``by_key``.
    """
    missing = {
        key
        for key, attempt in want.items()
        if key not in by_key or int(by_key[key].get("attempt", 0)) < attempt
    }
    max_polls = max(
        DEFAULT_RESILIENCE.min_poll_rounds,
        len(want) * DEFAULT_RESILIENCE.poll_rounds_per_worker,
    )
    for _ in range(max_polls):
        if cancel is not None:
            cancel.check(label)
        for message in sqs.receive_messages(queue, max_messages=10):
            payload = open_message(message.body, verify, integrity)
            if payload is None or payload.get("query_id") != query_id:
                continue  # corrupt, or stale from an earlier query
            side, key = payload.get("side"), payload.get("worker_id", -1)
            if side is not None:
                key = (side, key)
            if key not in want:
                continue
            merge_attempt_message(by_key, key, payload, resilience)
            if int(payload.get("attempt", 0)) >= want[key]:
                missing.discard(key)
        if not missing:
            break
    return len(want) - len(missing)


def run_fleet(
    context: "QueryContext",
    events: Dict,
    transport: Callable[[List[Dict], Dict, Dict], None],
    rounds: int,
    labels: FleetLabels,
    attempt_log: AttemptLog,
) -> Dict:
    """Dispatch ``events`` and re-dispatch what failed; returns ``{key: message}``.

    ``events`` maps fleet keys to invocation payloads; ``transport(payloads,
    by_key, want)`` starts the given payloads and folds their reports into
    ``by_key`` until every key of ``want`` — here always the whole fleet at
    its current attempts — reported.  Up to ``rounds - 1`` times, the
    workers that failed or never reported are re-dispatched in key order as
    their next attempt (``events`` is updated in place) after one jittered
    backoff from the ``context``'s stream, charged to the modelled latency
    and never slept.  Each re-dispatch is booked here, whatever the fleet:
    its failed attempt lands in ``attempt_log`` (one entry is one more
    billed invocation), an invocation-plane error is a failure of the Lambda
    breaker, its request fee is wasted, the retry budget is charged.  An
    exhausted fleet is returned as it stands.
    """
    resilience, policy, cancel = context.resilience, context.policy, context.cancel
    if cancel is not None and labels.dispatch is not None:
        cancel.check(labels.dispatch)
    by_key: Dict = {}
    transport([events[key] for key in sorted(events)], by_key, current_attempts(events))
    invocation_fee = context.env.ledger.prices.lambda_invocation_cost(1)
    sleep = 0.0
    for _ in range(rounds - 1):
        failed = failed_keys(events, by_key)
        if not failed:
            break
        if cancel is not None:
            cancel.check(labels.retry)
        sleep = decorrelated_jitter(
            sleep, context.rng, policy.backoff_base_seconds, policy.backoff_cap_seconds
        )
        resilience.backoff_seconds += sleep
        for key in failed:
            error = by_key.get(key, {}).get("error") or NO_RESULT_ERROR
            previous = int(events[key].get("attempt", 0))
            attempt_log.record(key, previous, error, backoff_seconds=sleep)
            if error.startswith("IntegrityError"):
                # At-rest corruption no re-GET cured: the retry re-executes.
                context.integrity.re_executions += 1
            if context.breakers is not None and error.startswith(LAMBDA_FAILURE_PREFIXES):
                # A string, not an exception the board could classify.
                context.breakers.breakers["lambda"].record_failure(context.now())
            resilience.wasted_cost_dollars += invocation_fee
            retry = {**events[key], "attempt": previous + 1}
            retry.pop("children", None)  # a re-dispatch is flat
            events[key] = retry
            if context.budget is not None:
                context.budget.charge(labels.budget)
            resilience.retries += 1
        transport([events[key] for key in failed], by_key, current_attempts(events))
    return by_key


def raise_unfinished(
    events: Dict, by_key: Dict, attempt_log: AttemptLog, stage: Optional[str] = None
) -> None:
    """Raise the typed failure of a fleet that still lacks an ok result:
    :class:`~repro.errors.WorkerFailedError` with the attempt history of the
    first worker whose last message is an error, else
    :class:`~repro.errors.QueryTimeoutError`; ``stage`` prefixes either."""
    failed = failed_keys(events, by_key)
    if not failed:
        return
    prefix = f"{stage}: " if stage else ""
    for key in failed:
        message = by_key.get(key)
        if message is not None:
            error = message.get("error", "unknown error")
            attempts = attempt_log.for_worker(key) + [
                {"attempt": int(message.get("attempt", 0)), "error": error}
            ]
            worker_id = key[1] if isinstance(key, tuple) else key
            raise WorkerFailedError(worker_id, prefix + error, attempts=attempts)
    raise QueryTimeoutError(
        f"{prefix}got results from {len(events) - len(failed)} distinct workers, "
        f"expected {len(events)}"
    )


class QueryContext:
    """Everything one query's fleets share, opened once per query.

    ``query_id``; the jitter stream, seeded from ``policy`` so backoff draws
    are a function of this query alone; the ``resilience`` and ``integrity``
    counters and the fault plan's counts when the query opened; the breaker
    board; with ``budgeted``, a :class:`~repro.driver.breakers.RetryBudget`
    of ``policy.retry_budget`` named after the query; and the cancellation
    token, bound to :meth:`now`.  Without a board, a budget or a token the
    context charges no breaker, caps no retry and never cancels.

    :meth:`call` is :func:`~repro.driver.resilience.call_with_backoff`,
    :meth:`collect` :func:`collect_results` and :meth:`run` :func:`run_fleet`
    then :func:`raise_unfinished` with all of the above; :meth:`fetch_spilled`
    reads spilled results; :meth:`teardown` is the one cleanup of a typed
    abort.
    """

    def __init__(
        self, env: Any, policy: ResiliencePolicy = DEFAULT_RESILIENCE_POLICY,
        breakers: Optional[Any] = None, cancel: Optional[Any] = None,
        budgeted: bool = False,
    ):
        self.env = env
        self.policy = policy
        self.query_id = uuid.uuid4().hex[:12]
        self.rng = random.Random(policy.jitter_seed)
        self.resilience = ResilienceStats()
        self.integrity = IntegrityStats()
        self.breakers = breakers
        states = breakers.states if breakers is not None else None
        self.budget = (
            RetryBudget(policy.retry_budget, self.query_id, states) if budgeted else None
        )
        self.cancel = cancel
        self._faults_before = fault_snapshot(env)
        if cancel is not None:
            cancel.bind(self.now, query_id=self.query_id)

    def now(self) -> float:
        """Modelled now of breaker windows and the deadline: the environment
        clock plus the backoff this query has accrued."""
        return self.env.clock.now + self.resilience.backoff_seconds

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, transient cloud errors retried with backoff
        charged to this query, its board and its budget."""
        return call_with_backoff(
            fn, *args, policy=self.policy, rng=self.rng, stats=self.resilience,
            breakers=self.breakers, budget=self.budget, now_fn=self.now, **kwargs,
        )

    def collect(
        self, queue: str, want: Dict, by_key: Dict, label: str, verify: bool
    ) -> int:
        """:func:`collect_results` of this query's messages on ``queue``."""
        return collect_results(
            self.env.sqs, queue, self.query_id, want, by_key, label,
            resilience=self.resilience, verify=verify, integrity=self.integrity,
            cancel=self.cancel,
        )

    def lambda_transport(
        self, function_name: str, queue: str, label: str, verify: bool,
        launch: Optional[Callable[[List[Dict], Callable[[Dict], Any]], None]] = None,
    ) -> Callable[[List[Dict], Dict, Dict], None]:
        """The Lambda + SQS transport of one fleet.

        Every payload is invoked through :meth:`call` (a capacity brownout's
        rejection is retried with backoff, not fatal); the first call goes
        through ``launch(payloads, invoke)`` when given, every later one —
        retry rounds, hedges — flat.  Then ``queue`` is polled under the
        stage ``label`` until every key of ``want`` reported at its attempt.
        """

        def invoke(payload: Dict) -> Any:
            return self.call(self.env.lambda_service.invoke, function_name, payload)

        def transport(payloads: List[Dict], by_key: Dict, want: Dict) -> None:
            nonlocal launch
            if launch is None:
                for payload in payloads:
                    invoke(payload)
            else:
                launch(payloads, invoke)
                launch = None
            self.collect(queue, want, by_key, label, verify)

        return transport

    def run(
        self, events: Dict, transport: Callable[[List[Dict], Dict, Dict], None],
        rounds: int, labels: FleetLabels, attempt_log: AttemptLog,
    ) -> Dict:
        """:func:`run_fleet` of one of this query's fleets; one ok message per
        event, or its :func:`raise_unfinished` failure."""
        by_key = run_fleet(self, events, transport, rounds, labels, attempt_log)
        raise_unfinished(events, by_key, attempt_log, labels.stage)
        return by_key

    def fetch_spilled(self, messages: Iterable[Dict], verify: bool) -> None:
        """Fetch, in place, the frames accepted ``messages`` spilled to S3
        (:func:`~repro.driver.integrity.fetch_spilled_result`, with backoff)."""
        for message in messages:
            if "result_s3" in message:
                message["frame"] = fetch_spilled_result(
                    self.env.s3, message, verify, self.integrity,
                    policy=self.policy, rng=self.rng, stats=self.resilience,
                    breakers=self.breakers, budget=self.budget, now_fn=self.now,
                )

    def note_faults(self) -> None:
        """Record what the fault plan injected since the query opened."""
        self.resilience.faults_injected = fault_delta(self.env, self._faults_before)

    @contextmanager
    def teardown(self, collect_garbage: Callable[[str], Any]) -> Iterator[None]:
        """Run the body; on a typed abort — :class:`~repro.errors.QueryCancelledError`
        or :class:`~repro.errors.RetryBudgetExhaustedError` — call
        ``collect_garbage(query_id)`` (the query's exchange objects, spills and
        queue) and re-raise: a query that will never consume its results must
        leave nothing behind."""
        try:
            yield
        except (QueryCancelledError, RetryBudgetExhaustedError):
            collect_garbage(self.query_id)
            raise
