"""The one fleet path: transport, dispatch loop, retry booking, typed failure.

``run_fleet`` is driven with fake transports and the one Lambda + SQS
transport over a fake service and queue (no cloud at all), so what the path
itself guarantees — round bound, one jitter draw per retry round, where its
labels go, how a re-dispatch is booked, which failure an unfinished fleet
raises — is pinned apart from any fleet; ``collect_results`` is driven
against the simulated queue.  The structure guards at the bottom keep the
path from quietly forking again.
"""

from __future__ import annotations

import ast
import random
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cloud.clock import VirtualClock
from repro.cloud.faults import FaultPlan, FaultRule
from repro.cloud.metering import MeteringLedger
from repro.counters import Counts, LayerView
from repro.driver import spans
from repro.driver.breakers import BreakerBoard
from repro.driver.dispatch import (
    NO_RESULT_ERROR,
    FleetLabels,
    QueryContext,
    collect_results,
    raise_unfinished,
    run_fleet,
)
from repro.driver.integrity import post_result
from repro.driver.shuffle import JOIN_REDUCE_FUNCTION_NAME, ShuffleJoinCoordinator
from repro.errors import ExecutionError, QueryTimeoutError, WorkerFailedError
from repro.frontend.sql import parse_sql
from repro.workload.queries import q3_sql, tpch_catalog
from repro.workload.tpch import generate_orders_dataset

LABELS = FleetLabels(dispatch="test dispatch", retry="test retry", budget="test_retries")
SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro"
DRIVER_SOURCES = SOURCES / "driver"
FEE = MeteringLedger().prices.lambda_invocation_cost(1)


class CountingRandom(random.Random):
    """Counts the backoff draws (``decorrelated_jitter`` draws ``uniform``)."""

    draws = 0

    def uniform(self, a, b):
        self.draws += 1
        return super().uniform(a, b)


class Recorder:
    """Stands in for the cancellation token and the retry budget."""

    def __init__(self):
        self.stages = []
        self.charges = []

    def check(self, stage):
        self.stages.append(stage)

    def charge(self, account):
        self.charges.append(account)


class FakeQueue:
    """Stands in for SQS: signed result messages per queue, received in order."""

    def __init__(self):
        self.bodies = defaultdict(list)

    def send(self, queue, message):
        post_result(SimpleNamespace(sqs=self), queue, message)

    def send_message(self, queue, body):
        self.bodies[queue].append(body)

    def receive_messages(self, queue, max_messages=10):
        taken = self.bodies[queue][:max_messages]
        del self.bodies[queue][:max_messages]
        return [SimpleNamespace(body=body) for body in taken]


class FakeLambda:
    """Stands in for the Lambda service: a worker posts ``outcome(payload)``
    to ``queue`` (``None``: the invocation is lost)."""

    def __init__(self, sqs, queue, outcome):
        self.sqs, self.queue, self.outcome = sqs, queue, outcome
        self.invoked = []

    def invoke(self, name, payload, from_driver=True):
        key = (payload["side"], payload["worker_id"]) if "side" in payload else payload["worker_id"]
        self.invoked.append((name, key, payload["attempt"], "children" in payload))
        message = self.outcome(payload)
        if message is not None:
            self.sqs.send(self.queue, {"query_id": payload["query_id"], **message})


def _context(outcome=lambda payload: None, queue="fake-queue"):
    """A query context over a fake service and queue, with a counting rng."""
    sqs = FakeQueue()
    env = SimpleNamespace(
        clock=VirtualClock(), ledger=MeteringLedger(), sqs=sqs,
        lambda_service=FakeLambda(sqs, queue, outcome),
    )
    context = QueryContext(env)
    context.rng = CountingRandom(5)
    return context


def _fleet(transport, rounds, events=None, context=None):
    """Run a three-worker fleet; returns (by_key, events, resilience block,
    re-dispatch events, rng)."""
    context = context or _context()
    events = events or {key: {"worker_id": key, "attempt": 0} for key in (2, 0, 1)}
    by_key = run_fleet(context, events, transport, rounds, LABELS)
    history = spans.redispatches(context.trace)
    return by_key, events, LayerView(context.counters, "resilience"), history, context.rng


def _for_worker(history, key):
    """The re-dispatch events of one worker."""
    return [event for event in history if event["key"] == key]


def _failing(ok_from_attempt, error="boom"):
    """Transport whose workers 1 and 2 fail until the given attempt."""
    calls = []

    def transport(payloads, by_key, want):
        calls.append([(p["worker_id"], p["attempt"]) for p in payloads])
        for payload in payloads:
            healthy = payload["worker_id"] == 0 or payload["attempt"] >= ok_from_attempt
            message = {"worker_id": payload["worker_id"], "attempt": payload["attempt"]}
            message.update(
                {"status": "ok"} if healthy else {"status": "error", "error": error}
            )
            by_key[payload["worker_id"]] = message

    return transport, calls


def test_clean_fleet_is_one_transport_call_and_no_draw():
    transport, calls = _failing(ok_from_attempt=0)
    by_key, _, resilience, attempt_log, rng = _fleet(transport, rounds=4)
    assert calls == [[(0, 0), (1, 0), (2, 0)]]  # one call, in key order
    assert sorted(by_key) == [0, 1, 2]
    assert rng.draws == 0 and resilience.clean and resilience.backoff_seconds == 0.0
    assert len(attempt_log) == 0 and resilience.wasted_cost_dollars == 0.0


def test_only_failed_workers_are_redispatched_with_one_draw_per_round():
    transport, calls = _failing(ok_from_attempt=2)
    by_key, events, resilience, attempt_log, rng = _fleet(transport, rounds=4)
    assert calls == [[(0, 0), (1, 0), (2, 0)], [(1, 1), (2, 1)], [(1, 2), (2, 2)]]
    assert all(message["status"] == "ok" for message in by_key.values())
    # Seeded chaos backoff stays reproducible: exactly one draw a retry round.
    assert rng.draws == 2
    assert resilience.retries == 4 and resilience.wave_retries == 0
    assert resilience.backoff_seconds > 0.0
    assert [event["attempt"] for _, event in sorted(events.items())] == [0, 2, 2]
    assert [entry["attempt"] for entry in _for_worker(attempt_log, 1)] == [0, 1]
    assert _for_worker(attempt_log, 0) == []
    # One log entry — one billed invocation — per re-dispatch.
    assert len(attempt_log) == resilience.retries == 4


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_an_exhausted_fleet_is_returned_after_at_most_rounds_calls(rounds):
    transport, calls = _failing(ok_from_attempt=99)
    by_key, _, resilience, _, rng = _fleet(transport, rounds=rounds)
    assert len(calls) == rounds and rng.draws == rounds - 1
    assert resilience.retries == 2 * (rounds - 1)
    # The loop hands an exhausted fleet back; raise_unfinished types it.
    assert [by_key[key]["status"] for key in (0, 1, 2)] == ["ok", "error", "error"]


def test_a_silent_worker_is_retried_as_lost():
    def transport(payloads, by_key, want):
        for payload in payloads:
            if payload["attempt"]:
                by_key[payload["worker_id"]] = {"status": "ok", "attempt": payload["attempt"]}

    context = _context()
    context.breakers = BreakerBoard()
    by_key, _, resilience, attempt_log, _ = _fleet(transport, rounds=2, context=context)
    assert [_for_worker(attempt_log, key)[0]["error"] for key in (0, 1, 2)] == [
        NO_RESULT_ERROR
    ] * 3
    assert sorted(by_key) == [0, 1, 2]
    # Silence is an invocation-plane failure: the Lambda breaker counts it.
    assert context.breakers.to_dict()["lambda"]["window_failures"] == 3
    assert resilience.wasted_cost_dollars == pytest.approx(3 * FEE)


def test_every_round_polls_for_the_whole_fleet_at_its_current_attempts():
    inner, _ = _failing(ok_from_attempt=2)
    wants = []

    def transport(payloads, by_key, want):
        wants.append(dict(want))
        inner(payloads, by_key, want)

    by_key, _, _, _, _ = _fleet(transport, rounds=4)
    # Retries re-dispatch only the failed workers, but every round's poll
    # covers the fleet, healthy worker 0 included.
    assert wants == [{0: 0, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 1}, {0: 0, 1: 2, 2: 2}]
    assert all(message["status"] == "ok" for message in by_key.values())


def test_labels_name_both_pump_points_and_the_budget_account():
    transport, _ = _failing(ok_from_attempt=2)
    recorder = Recorder()
    context = _context()
    context.cancel = context.budget = recorder
    _fleet(transport, rounds=3, context=context)
    assert recorder.stages == ["test dispatch", "test retry", "test retry"]
    assert recorder.charges == ["test_retries"] * 4
    assert context.counters["integrity", "re_executions"] == 0  # "boom" is no IntegrityError

    silent = Recorder()
    context = _context()
    context.cancel = silent
    run_fleet(
        context, {0: {"attempt": 0}}, lambda payloads, by_key, want: None, 2,
        FleetLabels(dispatch=None, retry="again", budget="x"),
    )
    assert silent.stages == ["again"]  # no dispatch pump point without a label


def test_a_retry_payload_never_carries_children():
    transport, calls = _failing(ok_from_attempt=1)
    events = {
        key: {"worker_id": key, "attempt": 0, "children": [1]} for key in (0, 1, 2)
    }
    _, events, _, attempt_log, _ = _fleet(transport, rounds=2, events=events)
    assert "children" in events[0] and "children" not in events[1]
    assert [entry["error"] for entry in _for_worker(attempt_log, 1)] == ["boom"]
    assert calls[1] == [(1, 1), (2, 1)]


@pytest.mark.parametrize(
    "error, breaker_failures",
    [
        ("InvocationDropped: injected invocation drop", 1),
        ("FunctionTimeout: injected hang", 1),
        ("WorkerCrashError: injected pool worker crash", 1),
        ("RuntimeError: a data error in a healthy worker", 0),
    ],
)
def test_a_re_dispatch_is_booked_once_whatever_the_fleet(error, breaker_failures):
    """The breaker counts invocation-plane errors only; every re-dispatch
    wastes one invocation fee and is one attempt-log entry."""
    transport, _ = _failing(ok_from_attempt=1, error=error)
    context = _context()
    context.breakers = BreakerBoard()
    _, _, resilience, attempt_log, _ = _fleet(transport, rounds=2, context=context)
    assert context.breakers.to_dict()["lambda"]["window_failures"] == 2 * breaker_failures
    assert resilience.wasted_cost_dollars == pytest.approx(2 * FEE)
    assert len(attempt_log) == resilience.retries == 2


# ---------------------------------------------------------------------------
# The one Lambda + SQS transport over a fake service and queue
# ---------------------------------------------------------------------------


def _worker(fail_until):
    """A worker outcome: error until ``fail_until[key]``, ok from then on;
    a key mapped to ``None`` never reports."""

    def outcome(payload):
        key = (payload["side"], payload["worker_id"]) if "side" in payload else payload["worker_id"]
        message = {"worker_id": payload["worker_id"], "attempt": payload["attempt"]}
        if "side" in payload:
            message["side"] = payload["side"]
        until = fail_until.get(key, 0)
        if until is None:
            return None
        if payload["attempt"] < until:
            return {**message, "status": "error", "error": f"RuntimeError: {key}"}
        # An ok message carries the worker's (here empty) result header.
        return {**message, "status": "ok", "result": {}}

    return outcome


def test_the_first_round_goes_through_the_launcher_and_later_rounds_are_flat():
    context = _context(_worker({1: 1}))
    events = {
        key: {"worker_id": key, "attempt": 0, "query_id": context.query_id}
        for key in range(3)
    }
    launched = []

    def launch(payloads, invoke):
        launched.append([payload["worker_id"] for payload in payloads])
        for payload in payloads:
            invoke({**payload, "children": []})

    transport = context.lambda_transport("fn", "fake-queue", "collect", launch=launch)
    messages, _ = context.wave(events, transport, LABELS, 2048)
    assert launched == [[0, 1, 2]]
    assert context.env.lambda_service.invoked == [
        ("fn", 0, 0, True), ("fn", 1, 0, True), ("fn", 2, 0, True), ("fn", 1, 1, False),
    ]
    assert [message["status"] for message in messages] == ["ok"] * 3
    # A hedge is one more call of the same transport: flat, never launched.
    hedged = {}
    transport([{**events[2], "attempt": 1}], hedged, {2: 1})
    assert context.env.lambda_service.invoked[-1] == ("fn", 2, 1, False)
    assert hedged[2]["attempt"] == 1


def _wave(context, events, what="join stage 0"):
    """A shuffle wave — ``context.wave`` over the stage's transport and
    labels — on the fake service and queue; its messages."""
    coordinator = SimpleNamespace(result_queue="fake-queue")
    transport, labels = ShuffleJoinCoordinator._stage(coordinator, context, "fn", what)
    return context.wave(events, transport, labels, 2048)[0]


def _wave_events(context, keys):
    return {
        key: {"side": key[0], "worker_id": key[1], "attempt": 0, "query_id": context.query_id}
        for key in keys
    }


@pytest.mark.parametrize(
    "fail_until, rounds, retries",
    [({}, 0, 0), ({("S0", 1): 1}, 1, 1), ({("S0", 0): 1, ("S0", 1): 2}, 2, 3)],
)
def test_wave_retries_count_the_rounds_re_dispatched(fail_until, rounds, retries):
    context = _context(_worker(fail_until))
    events = _wave_events(context, [("S0", 0), ("S0", 1), ("S0", 2)])
    messages = _wave(context, events)
    assert [message["status"] for message in messages] == ["ok"] * 3
    assert context.counters["resilience", "wave_retries"] == rounds
    assert context.counters["resilience", "retries"] == retries
    # Waves are flat and serial: every invocation carries no children.
    assert not any(children for *_, children in context.env.lambda_service.invoked)


def test_an_error_message_takes_precedence_over_silence():
    events = {key: {"attempt": 1} for key in range(3)}
    trace = spans.Span("query")
    spans.Span("attempt", spans.Span("wave", trace), key=2, attempt=0).event(
        "redispatch", key=2, attempt=0, error="RuntimeError: first"
    )
    by_key = {
        0: {"status": "ok", "attempt": 0},
        2: {"status": "error", "error": "RuntimeError: second", "attempt": 1},
    }
    # Worker 1 never reported, but worker 2's error names the failure.
    with pytest.raises(WorkerFailedError) as excinfo:
        raise_unfinished(events, by_key, trace, "join stage 1")
    text = str(excinfo.value)
    assert text.startswith("worker 2 failed: join stage 1: RuntimeError: second")
    assert "attempt 0: RuntimeError: first" in text and "attempt 1: RuntimeError: second" in text

    with pytest.raises(QueryTimeoutError, match="got results from 2 distinct workers, expected 3"):
        raise_unfinished(events, {**by_key, 2: {"status": "ok", "attempt": 1}}, trace)
    assert raise_unfinished(events, {key: {"status": "ok"} for key in range(3)}, trace) is None


def test_a_wave_that_loses_a_worker_on_every_attempt_times_out_naming_its_stage():
    context = _context(_worker({("S0", 1): None}))
    events = _wave_events(context, [("S0", 0), ("S0", 1)])
    with pytest.raises(QueryTimeoutError, match="^join stage 0: got results from 1 distinct"):
        _wave(context, events)
    # An error on the last attempt types the failure instead.
    context = _context(_worker({("S0", 1): 99}))
    with pytest.raises(WorkerFailedError, match=r"worker 1 failed: join stage 0: RuntimeError"):
        _wave(context, _wave_events(context, [("S0", 0), ("S0", 1)]))


def test_a_join_wave_that_loses_its_worker_raises_a_timeout_naming_it(driver, dataset):
    """End to end: every join-wave invocation dropped.  Both errors are
    :class:`~repro.errors.ExecutionError`; a worker that never reported is
    a timeout, not a worker failure."""
    env = driver.env
    orders = generate_orders_dataset(env.s3, scale_factor=0.001, num_files=2, seed=7)
    env.install_fault_plan(
        FaultPlan([FaultRule("lambda", "drop", 1.0, match=JOIN_REDUCE_FUNCTION_NAME)], seed=1)
    )
    tables = tpch_catalog(lineitem=dataset.paths, orders=orders.paths)
    try:
        with pytest.raises(QueryTimeoutError, match="^join: got results from 0") as excinfo:
            driver.execute(parse_sql(q3_sql(), tables))
    finally:
        env.install_fault_plan(None)
    assert isinstance(excinfo.value, ExecutionError)
    # Every dropped attempt fed the driver board's Lambda breaker.
    assert driver.breakers.to_dict()["lambda"]["window_failures"] >= 1


# ---------------------------------------------------------------------------
# collect_results against the simulated queue
# ---------------------------------------------------------------------------

QUEUE = "dispatch-test-queue"


def _send(env, **message):
    post_result(env, QUEUE, {"query_id": "q", "status": "ok", **message})


@pytest.fixture
def queue_env(env):
    env.sqs.create_queue(QUEUE)
    return env


def test_a_stale_lower_attempt_never_satisfies_want(queue_env):
    _send(queue_env, worker_id=0, attempt=0, status="error", error="old")
    counts = Counts()
    resilience = LayerView(counts, "resilience")
    by_key = {}
    reported = collect_results(
        queue_env.sqs, QUEUE, "q", {0: 1}, by_key, "collect", counts=counts
    )
    # Folded (the caller sees the error), but the poll ran its whole budget.
    assert reported == 0 and by_key[0]["error"] == "old"

    _send(queue_env, worker_id=0, attempt=1)
    _send(queue_env, worker_id=0, attempt=0, status="error", error="old")
    reported = collect_results(
        queue_env.sqs, QUEUE, "q", {0: 1}, by_key, "collect", counts=counts
    )
    assert reported == 1 and by_key[0]["attempt"] == 1
    assert resilience.stale_messages_ignored == 1


def test_messages_outside_want_and_of_other_queries_are_dropped(queue_env):
    _send(queue_env, worker_id=7, attempt=0)
    _send(queue_env, worker_id=0, attempt=0, query_id="another")
    _send(queue_env, worker_id=0, attempt=0, side="L")
    _send(queue_env, worker_id=0, attempt=0)
    _send(queue_env, worker_id=0, attempt=0)
    counts = Counts()
    resilience = LayerView(counts, "resilience")
    by_key = {}
    reported = collect_results(
        queue_env.sqs, QUEUE, "q", {0: 0}, by_key, "collect", counts=counts
    )
    assert reported == 1 and list(by_key) == [0]
    assert resilience.duplicate_messages_ignored == 1

    _send(queue_env, worker_id=0, attempt=0, side="L")
    sided = {}
    assert collect_results(queue_env.sqs, QUEUE, "q", {("L", 0): 0}, sided, "x") == 1
    assert list(sided) == [("L", 0)]


def test_every_poll_is_a_pump_point_under_the_callers_label(queue_env):
    recorder = Recorder()
    _send(queue_env, worker_id=0, attempt=0)
    collect_results(queue_env.sqs, QUEUE, "q", {0: 0}, {}, "my wave", cancel=recorder)
    assert recorder.stages == ["my wave"]


# ---------------------------------------------------------------------------
# Structure guard: one loop, one poller
# ---------------------------------------------------------------------------


def _calls(path: Path, name: str) -> int:
    """Calls of ``name`` (plain or as an attribute) in one source file."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            callee = node.func
            called = getattr(callee, "id", None) or getattr(callee, "attr", None)
            count += called == name
    return count


def _modules_calling(name: str) -> dict:
    counts = {path.name: _calls(path, name) for path in DRIVER_SOURCES.glob("*.py")}
    return {module: count for module, count in counts.items() if count}


def _context_waves() -> dict:
    """``context.wave(...)`` calls per module under ``driver/``."""
    counts = {}
    for path in DRIVER_SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            callee = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(callee, ast.Attribute)
                and callee.attr == "wave"
                and getattr(callee.value, "id", None) == "context"
            ):
                counts[path.name] = counts.get(path.name, 0) + 1
    return counts


def test_the_retry_loop_and_the_poller_exist_once():
    assert set(_modules_calling("decorrelated_jitter")) == {"dispatch.py", "resilience.py"}
    assert set(_modules_calling("receive_messages")) == {"dispatch.py"}
    # One loop with one caller in all of src/, QueryContext.wave, which
    # every fleet goes through, all in the coordinator's one wave body: the
    # scan wave (a scan's on the driver's transport, either one) and the
    # join waves (the facade's are the same call sites).
    callers = {
        str(path.relative_to(SOURCES)): count
        for path in sorted(SOURCES.rglob("*.py"))
        if (count := _calls(path, "run_fleet"))
    }
    assert callers == {"driver/dispatch.py": 1}
    assert _context_waves() == {"shuffle.py": 2}
    # One hedge race, inside that method.
    assert _modules_calling("pick_stragglers") == {"dispatch.py": 1}
    # One Lambda + SQS transport, which both of them build.
    assert _modules_calling("lambda_transport") == {"driver.py": 1, "shuffle.py": 1}
    importers = set()
    for path in DRIVER_SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "open_message" for alias in node.names
            ):
                importers.add(path.name)
    assert importers == {"dispatch.py"}


def _outer_functions_using(path: Path, matches) -> set:
    """Names of the module functions and class methods of ``path`` (nested
    functions count as their outermost one) whose body has a node ``matches``."""
    tree = ast.parse(path.read_text())
    outer = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            outer += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {
        function.name
        for function in outer
        if any(matches(node) for node in ast.walk(function))
    }


def _lambda_service_call(*names):
    def matches(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and getattr(node.value, "attr", None) == "lambda_service"
        )

    return matches


def test_the_driver_reaches_workers_only_through_its_two_transports():
    reached = {
        (path.relative_to(SOURCES).as_posix(), name)
        for path in SOURCES.rglob("*.py")
        for name in _outer_functions_using(path, _lambda_service_call("invoke"))
    }
    # The one Lambda + SQS transport, and the tree's second generation.
    assert reached == {
        ("driver/dispatch.py", "lambda_transport"),
        ("driver/worker.py", "make_worker_handler"),
    }
    driver = DRIVER_SOURCES / "driver.py"
    # The process pool: its tasks, metered by the service's own step.
    assert _outer_functions_using(driver, _lambda_service_call("account_invocation")) == {
        "_pool_transport"
    }
    assert _outer_functions_using(
        driver, lambda node: isinstance(node, ast.Attribute) and node.attr == "run_tasks"
    ) == {"_pool_transport"}
    # Fault text is the service's: the pool spells out no injected error.
    pool = next(
        node for node in ast.walk(ast.parse(driver.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_pool_transport"
    )
    strings = [
        node.value for node in ast.walk(pool)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert not any("InvocationDropped" in text or "FunctionTimeout" in text for text in strings)


def test_unfinished_fleet_errors_are_raised_only_in_dispatch():
    raisers = {}
    for path in DRIVER_SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = getattr(node.exc.func, "id", None)
                if name in ("WorkerFailedError", "QueryTimeoutError"):
                    raisers[path.name] = raisers.get(path.name, 0) + 1
    assert raisers == {"dispatch.py": 2}


def test_lambda_is_metered_in_one_step():
    """Every Lambda ledger record is written by the service's one metering
    step, each dimension once."""
    service = SOURCES / "cloud" / "lambda_service.py"
    records = []
    for function in ast.walk(ast.parse(service.read_text())):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "record"
                and node.args
                and getattr(node.args[0], "value", None) == "lambda"
            ):
                records.append((function.name, node.args[1].value))
    assert sorted(records) == [("_metered", "gib_seconds"), ("_metered", "invocations")]


def test_no_mid_query_fallback_or_dead_hedge_knob_is_left():
    sources = DRIVER_SOURCES.parent
    for path in sources.rglob("*.py"):
        text = path.read_text()
        for name in ("give_up", "pool_respawn_limit", "hedge_enabled", "processes_to_serial"):
            assert name not in text, f"{name} in {path.relative_to(sources)}"
