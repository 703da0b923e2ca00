"""One way to run a fleet: dispatch, collect, retry — under one query context.

The paper's driver does one thing per fleet, whatever it computes (§3.2–3.3):
invoke the workers, learn of completion through the SQS result queue,
re-invoke what failed.  This module is that path, once, for the scan fleet
and every shuffle wave: :meth:`QueryContext.wave` the one way a fleet runs —
one retry limit (``policy.max_attempts`` rounds), one hedge race, one fold of
the accepted results — :meth:`QueryContext.lambda_transport` the one Lambda +
SQS transport (a caller passes only data — function, queue, stage label and,
for the scan, the launcher of its first round), :func:`run_fleet` the loop
whose retry step is the one booking of a re-dispatch, :func:`raise_unfinished`
the one typed failure, :func:`collect_results` the queue's only poller.  A
scan fleet's other transport, the process pool, is a closure of the same
shape; a hedge is one more call of either.

What a query's fleets share — its id, jitter stream, counter record, breaker
board, retry budget and cancellation token — is one :class:`QueryContext`,
opened once per query; every fleet, driver-side cloud request and
spilled-result read of the query goes through it, and so does the cleanup of
a typed abort.  Inside its :meth:`~QueryContext.scope` every ledger record is
tagged with the query, and the query's dollars are the price of those
records (:meth:`~QueryContext.bill`); its time is one span tree
(:mod:`repro.driver.spans`).
"""

from __future__ import annotations

import itertools
import random
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cloud.faults import FAULT_SCOPE
from repro.cloud.metering import QUERY_TAG
from repro.config import DEFAULT_RESILIENCE
from repro.counters import Counts
from repro.driver import spans
from repro.driver.breakers import RetryBudget
from repro.driver.integrity import fetch_spilled_result, open_message
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    ResiliencePolicy,
    call_with_backoff,
    decorrelated_jitter,
    merge_attempt_message,
    pick_stragglers,
)
from repro.engine.pipeline import WorkerResult
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
    counts: Optional[Counts] = None,
    cancel: Optional[Any] = None,
) -> int:
    """Poll ``queue`` until every key of ``want`` reported; returns how many did.

    ``want`` maps fleet keys — the worker id, or ``(side, worker_id)`` for
    messages that name a side — to the attempt dispatched for them.  Messages
    of ``query_id`` are folded into ``by_key`` under (key, attempt) dedup:
    duplicate and stale deliveries are noted into ``counts`` and dropped,
    keys outside ``want`` are dropped uncounted.  A key is satisfied
    by a message (ok *or* error) of at least its wanted attempt — an older
    one cannot end the poll, so a retry is never confused with the attempt it
    superseded.  A corrupt message is noted into ``counts`` and dropped:
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
            payload = open_message(message.body, counts)
            if payload is None or payload.get("query_id") != query_id:
                continue  # corrupt, or stale from an earlier query
            side, key = payload.get("side"), payload.get("worker_id", -1)
            if side is not None:
                key = (side, key)
            if key not in want:
                continue
            merge_attempt_message(by_key, key, payload, counts)
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
) -> Dict:
    """Dispatch ``events`` and re-dispatch what failed; returns ``{key: message}``.

    ``events`` maps fleet keys to invocation payloads; ``transport(payloads,
    by_key, want)`` starts the given payloads and folds their reports into
    ``by_key`` until every key of ``want`` — here always the whole fleet at
    its current attempts — reported.  Up to ``rounds - 1`` times, the
    workers that failed or never reported are re-dispatched in key order as
    their next attempt (``events`` is updated in place) after one jittered
    backoff from the ``context``'s stream, charged to the modelled latency
    and never slept.  The fleet is one wave span of the context's trace, each
    payload a round dispatched one attempt span, recorded after the round.
    Each re-dispatch is booked here, whatever the fleet: it is one
    ``redispatch`` event — key, failed attempt, error, backoff — on the
    failed attempt, and one more billed invocation; an invocation-plane
    error is a failure of the Lambda breaker, its request fee is wasted, the
    retry budget is charged.  An exhausted fleet is returned as it stands.
    """
    policy, cancel = context.policy, context.cancel
    if cancel is not None and labels.dispatch is not None:
        cancel.check(labels.dispatch)
    by_key: Dict = {}
    wave = spans.Span("wave", context.trace, label=labels.stage or "scan")
    attempts: Dict = {}

    def dispatch(keys: List) -> None:
        started = perf_counter()
        transport([events[key] for key in keys], by_key, current_attempts(events))
        attempts.update(spans.record_round(wave, keys, events, by_key, started))

    dispatch(sorted(events))
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
        context.counters.note("resilience", "backoff_seconds", sleep)
        for key in failed:
            error = by_key.get(key, {}).get("error") or NO_RESULT_ERROR
            previous = int(events[key].get("attempt", 0))
            attempts[key, previous].event(
                "redispatch", key=key, attempt=previous, error=error, backoff_seconds=sleep
            )
            if error.startswith("IntegrityError"):
                # At-rest corruption no re-GET cured: the retry re-executes.
                context.counters.note("integrity", "re_executions")
            if context.breakers is not None and error.startswith(LAMBDA_FAILURE_PREFIXES):
                # A string, not an exception the board could classify.
                context.breakers.breakers["lambda"].record_failure(context.now())
            context.counters.note("resilience", "wasted_cost_dollars", invocation_fee)
            retry = {**events[key], "attempt": previous + 1}
            retry.pop("children", None)  # a re-dispatch is flat
            events[key] = retry
            if context.budget is not None:
                context.budget.charge(labels.budget)
            context.counters.note("resilience", "retries")
        dispatch(failed)
    spans.accept(attempts, by_key)
    wave.wall_end = perf_counter()
    return by_key


def raise_unfinished(
    events: Dict, by_key: Dict, trace: spans.Span, stage: Optional[str] = None
) -> None:
    """Raise the typed failure of a fleet that still lacks an ok result:
    :class:`~repro.errors.WorkerFailedError` with the attempt history of the
    first worker whose last message is an error — its ``redispatch`` events
    in the query span ``trace``, read only then, then that message — else
    :class:`~repro.errors.QueryTimeoutError`; ``stage`` prefixes either."""
    failed = failed_keys(events, by_key)
    if not failed:
        return
    prefix = f"{stage}: " if stage else ""
    for key in failed:
        message = by_key.get(key)
        if message is not None:
            error = message.get("error", "unknown error")
            history = spans.redispatches(trace)
            attempts = [event for event in history if event["key"] == key] + [
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
    are a function of this query alone; the query's two records, which the
    statistics only read — ``counters``, every count keyed by ``(layer,
    name)`` (:mod:`repro.counters`), and ``trace``, the query span of its
    span tree (:mod:`repro.driver.spans`), whose ``redispatch`` events
    :func:`~repro.driver.spans.redispatches` lists — the fault scope that
    positions its driver-side fault draws; the breaker board; with
    ``budgeted``, a :class:`~repro.driver.breakers.RetryBudget` of
    ``policy.retry_budget`` named after the query; and the cancellation
    token, bound to :meth:`now`.
    Without a board, a budget or a token the context charges no breaker, caps
    no retry and never cancels.

    :meth:`scope` is the stretch of the query — planning to teardown — whose
    ledger records are its own, and :meth:`bill` their price; the query
    span's wall clock ends when the outermost one exits.
    :meth:`call` is :func:`~repro.driver.resilience.call_with_backoff`,
    :meth:`collect` :func:`collect_results` and :meth:`wave` runs a fleet
    with all of the above — :func:`run_fleet`, :func:`raise_unfinished`, the
    hedge race — and adds its accepted results to the record;
    :meth:`fetch_spilled` reads spilled results; :meth:`teardown` is the one
    cleanup of a typed abort.
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
        self.counters = Counts()
        self.trace = spans.Span("query", query_id=self.query_id)
        # The query id is random, so it stays out of the draw key.
        self.fault_scope = ("driver", itertools.count())
        self.breakers = breakers
        states = breakers.states if breakers is not None else None
        self.budget = (
            RetryBudget(policy.retry_budget, self.query_id, states) if budgeted else None
        )
        self.cancel = cancel
        if cancel is not None:
            cancel.bind(self.now, query_id=self.query_id)

    @contextmanager
    def scope(self) -> Iterator["QueryContext"]:
        """Tag every ledger record and fault injection made in this context —
        and in the thread hops that carry it (``contextvars.copy_context().run``)
        — with the query's id, and draw its driver-side faults in the query's
        scope, until the block exits, however it exits."""
        token = QUERY_TAG.set(self.query_id)
        scope = FAULT_SCOPE.set(self.fault_scope)
        try:
            yield self
        finally:
            FAULT_SCOPE.reset(scope)
            QUERY_TAG.reset(token)
            self.trace.wall_end = perf_counter()  # the outermost scope's exit is last

    def bill(self) -> Dict[str, float]:
        """The query's dollars per billing dimension: the ledger's price of
        the records made in its :meth:`scope`."""
        return self.env.ledger.cost_breakdown(self.query_id)

    def now(self) -> float:
        """Modelled now of breaker windows and the deadline: the environment
        clock plus the backoff this query has accrued."""
        return self.env.clock.now + self.counters["resilience", "backoff_seconds"]

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, transient cloud errors retried with backoff
        charged to this query, its board and its budget."""
        return call_with_backoff(
            fn, *args, policy=self.policy, rng=self.rng, counts=self.counters,
            breakers=self.breakers, budget=self.budget, now_fn=self.now, **kwargs,
        )

    def collect(self, queue: str, want: Dict, by_key: Dict, label: str) -> int:
        """:func:`collect_results` of this query's messages on ``queue``."""
        return collect_results(
            self.env.sqs, queue, self.query_id, want, by_key, label,
            counts=self.counters, cancel=self.cancel,
        )

    def lambda_transport(
        self, function_name: str, queue: str, label: str,
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
            self.collect(queue, want, by_key, label)

        return transport

    def wave(
        self, events: Dict, transport: Callable[[List[Dict], Dict, Dict], None],
        labels: FleetLabels, memory_mib: int,
    ) -> Tuple[List[Dict], List[WorkerResult]]:
        """Run one of this query's fleets — the scan fleet on either transport,
        a shuffle map or join wave — and fold its accepted results: their
        messages and worker results, in key order.

        :func:`run_fleet` for ``policy.max_attempts`` rounds, one wave span of
        the trace; a fleet still lacking an ok result raises its
        :func:`raise_unfinished` failure.  Then the stragglers of the finished
        fleet are raced against hedges (:meth:`_hedge`), the rounds it
        re-dispatched are noted as ``("resilience", "wave_retries")`` — every
        round re-dispatches the workers the one before it left failing, so the
        highest attempt is their number — and the accepted results' counters
        are added to the record.  ``memory_mib`` is the fleet's function size,
        which prices a hedge's wasted seconds.
        """
        by_key = run_fleet(self, events, transport, max(1, self.policy.max_attempts), labels)
        raise_unfinished(events, by_key, self.trace, labels.stage)
        self._hedge(by_key, events, transport, memory_mib)
        rounds = max(int(event.get("attempt", 0)) for event in events.values())
        self.counters.note("resilience", "wave_retries", rounds)
        messages = [by_key[key] for key in sorted(by_key)]
        results = [
            WorkerResult.from_payload(message["result"])
            for message in messages
        ]
        for result in results:
            self.counters.update(result.counters)
        return messages, results

    def _hedge(
        self, by_key: Dict, events: Dict, transport: Callable[[List[Dict], Dict, Dict], None],
        memory_mib: int,
    ) -> None:
        """Race each straggler of a finished fleet against a speculative
        re-run; first result wins.

        Post-fleet quantile detection (:func:`pick_stragglers`): a worker whose
        modelled duration exceeds the detection threshold is re-run once,
        flat, as its next attempt — one more call of the fleet's own
        ``transport``, whose reports land in a map of their own.  The hedge
        can only start once the straggler is *detected*, so it completes at
        ``threshold + hedge duration``; if that beats the original, the
        hedge's message replaces it in ``by_key`` (the recompute is
        deterministic — data identical, only duration/counters differ).  A
        homogeneous clean fleet never crosses the threshold, so fault-free
        runs take none of this path.  Hedging is optional work: when the
        retry budget runs dry a hedge is suppressed (and attributed), never
        fatal.

        Each hedge is one more attempt span of the fleet's wave with a
        ``hedge_won`` or ``hedge_lost`` event; a won hedge is the accepted
        attempt, finishing its detection threshold after its own run (latency
        only).  Both racers run to completion (a real Lambda cannot be
        cancelled) and the ledger bills both; what bought no used result — a
        won hedge's original, a lost hedge's run — is attributed as wasted.
        """
        durations = {key: spans.duration(message) for key, message in by_key.items()}
        stragglers, threshold = pick_stragglers(durations, self.policy)
        hedges: Dict = {}
        for key in stragglers:
            if self.budget is not None and not self.budget.try_charge("hedges"):
                self.counters.note("resilience", "fallback.hedge_suppressed")
                continue
            hedges[key] = {**events[key], "attempt": int(events[key].get("attempt", 0)) + 1}
            hedges[key].pop("children", None)
        if not hedges:
            return
        self.counters.note("resilience", "hedges_launched", len(hedges))
        hedged: Dict = {}
        started = perf_counter()
        transport(list(hedges.values()), hedged, current_attempts(hedges))
        wave = self.trace.last("wave")
        raced = spans.record_round(wave, list(hedges), hedges, hedged, started, hedge=True)
        prices = self.env.ledger.prices
        for key, hedge in hedges.items():
            message = hedged.get(key, {})
            span = raced[key, hedge["attempt"]]
            if message.get("status") != "ok" or message["attempt"] < hedge["attempt"]:
                # The hedge itself failed or vanished — it simply loses.
                outcome, wasted = "hedges_lost", prices.lambda_invocation_cost(1)
            elif threshold + spans.duration(message) < durations[key]:
                by_key[key] = message
                spans.supersede(wave, key, span, threshold)
                outcome = "hedges_won"
                wasted = prices.lambda_duration_cost(memory_mib, durations[key])
            else:
                outcome = "hedges_lost"
                wasted = prices.lambda_invocation_cost(1) + prices.lambda_duration_cost(
                    memory_mib, spans.duration(message)
                )
            span.event(outcome.replace("hedges", "hedge"))
            self.counters.note("resilience", outcome)
            self.counters.note("resilience", "wasted_cost_dollars", wasted)

    def fetch_spilled(self, messages: Iterable[Dict]) -> None:
        """Fetch, in place, the frames accepted ``messages`` spilled to S3
        (:func:`~repro.driver.integrity.fetch_spilled_result`, with backoff)."""
        for message in messages:
            if "result_s3" in message:
                message["frame"] = fetch_spilled_result(
                    self.env.s3, message, self.counters,
                    policy=self.policy, rng=self.rng,
                    breakers=self.breakers, budget=self.budget, now_fn=self.now,
                )

    def note_faults(self) -> None:
        """Note what the fault plan injected into this query and is not noted
        yet as ``("resilience", "fault.<kind>")``."""
        plan = getattr(self.env, "fault_plan", None)
        if plan is None:
            return
        for kind, count in plan.injected_into(self.query_id).items():
            noted = self.counters["resilience", f"fault.{kind}"]
            if count > noted:
                self.counters.note("resilience", f"fault.{kind}", count - noted)

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
