"""The one dispatch loop and the one result collector.

``run_fleet`` is driven with a fake transport (no cloud at all), so what the
loop itself guarantees — round bound, one jitter draw per retry round, where
its labels go — is pinned apart from any fleet; ``collect_results`` is driven
against the simulated queue.  The structure guard at the bottom keeps the
loop from quietly forking again.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro.driver.dispatch import (
    NO_RESULT_ERROR,
    FleetLabels,
    collect_results,
    run_fleet,
)
from repro.driver.integrity import IntegrityStats
from repro.driver.resilience import AttemptLog, ResiliencePolicy, ResilienceStats

LABELS = FleetLabels(dispatch="test dispatch", retry="test retry", budget="test_retries")
DRIVER_SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro" / "driver"


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


def _fleet(transport, rounds, events=None, **kwargs):
    """Run a three-worker fleet; returns (by_key, events, resilience, log, rng)."""
    events = events or {key: {"worker_id": key, "attempt": 0} for key in (2, 0, 1)}
    resilience, attempt_log, rng = ResilienceStats(), AttemptLog(), CountingRandom(5)
    by_key = run_fleet(
        events, transport, rounds, ResiliencePolicy(), rng, resilience, LABELS,
        attempt_log, **kwargs,
    )
    return by_key, events, resilience, attempt_log, rng


def _failing(ok_from_attempt):
    """Transport whose workers 1 and 2 fail until the given attempt."""
    calls = []

    def transport(payloads, by_key, want):
        calls.append([(p["worker_id"], p["attempt"]) for p in payloads])
        for payload in payloads:
            healthy = payload["worker_id"] == 0 or payload["attempt"] >= ok_from_attempt
            message = {"worker_id": payload["worker_id"], "attempt": payload["attempt"]}
            message.update(
                {"status": "ok"} if healthy else {"status": "error", "error": "boom"}
            )
            by_key[payload["worker_id"]] = message

    return transport, calls


def test_clean_fleet_is_one_transport_call_and_no_draw():
    transport, calls = _failing(ok_from_attempt=0)
    by_key, _, resilience, _, rng = _fleet(transport, rounds=4)
    assert calls == [[(0, 0), (1, 0), (2, 0)]]  # one call, in key order
    assert sorted(by_key) == [0, 1, 2]
    assert rng.draws == 0 and resilience.clean and resilience.backoff_seconds == 0.0


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
    assert [entry["attempt"] for entry in attempt_log.for_worker(1)] == [0, 1]
    assert attempt_log.for_worker(0) == []


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_an_exhausted_fleet_is_returned_after_at_most_rounds_calls(rounds):
    transport, calls = _failing(ok_from_attempt=99)
    by_key, _, resilience, _, rng = _fleet(transport, rounds=rounds)
    assert len(calls) == rounds and rng.draws == rounds - 1
    assert resilience.retries == 2 * (rounds - 1)
    # What an exhausted fleet raises is the caller's: the loop hands it back.
    assert [by_key[key]["status"] for key in (0, 1, 2)] == ["ok", "error", "error"]


def test_a_silent_worker_is_retried_as_lost():
    def transport(payloads, by_key, want):
        for payload in payloads:
            if payload["attempt"]:
                by_key[payload["worker_id"]] = {"status": "ok", "attempt": payload["attempt"]}

    seen = []
    by_key, _, _, attempt_log, _ = _fleet(
        transport, rounds=2, on_retry=lambda key, retry, error: seen.append((key, error))
    )
    assert seen == [(key, NO_RESULT_ERROR) for key in (0, 1, 2)]
    assert attempt_log.for_worker(2)[0]["error"] == NO_RESULT_ERROR
    assert sorted(by_key) == [0, 1, 2]


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
    integrity = IntegrityStats()
    _fleet(transport, rounds=3, cancel=recorder, budget=recorder, integrity=integrity)
    assert recorder.stages == ["test dispatch", "test retry", "test retry"]
    assert recorder.charges == ["test_retries"] * 4
    assert integrity.re_executions == 0  # "boom" is no IntegrityError

    silent = Recorder()
    run_fleet(
        {0: {"attempt": 0}}, lambda payloads, by_key, want: None, 2, ResiliencePolicy(),
        random.Random(1), ResilienceStats(),
        FleetLabels(dispatch=None, retry="again", budget="x"), AttemptLog(),
        cancel=silent,
    )
    assert silent.stages == ["again"]  # no dispatch pump point without a label


def test_on_retry_edits_the_payload_that_is_redispatched():
    transport, calls = _failing(ok_from_attempt=1)
    events = {
        key: {"worker_id": key, "attempt": 0, "children": [1]} for key in (0, 1, 2)
    }

    def on_retry(key, retry, error):
        assert (retry["attempt"], error) == (1, "boom")
        retry.pop("children")

    _, events, _, _, _ = _fleet(transport, rounds=2, events=events, on_retry=on_retry)
    assert "children" in events[0] and "children" not in events[1]
    assert calls[1] == [(1, 1), (2, 1)]


# ---------------------------------------------------------------------------
# collect_results against the simulated queue
# ---------------------------------------------------------------------------

QUEUE = "dispatch-test-queue"


def _send(env, **message):
    env.sqs.send_json(QUEUE, {"query_id": "q", "status": "ok", **message})


@pytest.fixture
def queue_env(env):
    env.sqs.create_queue(QUEUE)
    return env


def test_a_stale_lower_attempt_never_satisfies_want(queue_env):
    _send(queue_env, worker_id=0, attempt=0, status="error", error="old")
    resilience = ResilienceStats()
    by_key = {}
    reported = collect_results(
        queue_env.sqs, QUEUE, "q", {0: 1}, by_key, "collect", resilience=resilience
    )
    # Folded (the caller sees the error), but the poll ran its whole budget.
    assert reported == 0 and by_key[0]["error"] == "old"

    _send(queue_env, worker_id=0, attempt=1)
    _send(queue_env, worker_id=0, attempt=0, status="error", error="old")
    reported = collect_results(
        queue_env.sqs, QUEUE, "q", {0: 1}, by_key, "collect", resilience=resilience
    )
    assert reported == 1 and by_key[0]["attempt"] == 1
    assert resilience.stale_messages_ignored == 1


def test_messages_outside_want_and_of_other_queries_are_dropped(queue_env):
    _send(queue_env, worker_id=7, attempt=0)
    _send(queue_env, worker_id=0, attempt=0, query_id="another")
    _send(queue_env, worker_id=0, attempt=0, side="L")
    _send(queue_env, worker_id=0, attempt=0)
    _send(queue_env, worker_id=0, attempt=0)
    resilience = ResilienceStats()
    by_key = {}
    reported = collect_results(
        queue_env.sqs, QUEUE, "q", {0: 0}, by_key, "collect", resilience=resilience
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


def _context_runs() -> dict:
    """``context.run(...)`` calls per module under ``driver/``."""
    counts = {}
    for path in DRIVER_SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            callee = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(callee, ast.Attribute)
                and callee.attr == "run"
                and getattr(callee.value, "id", None) == "context"
            ):
                counts[path.name] = counts.get(path.name, 0) + 1
    return counts


def test_the_retry_loop_and_the_poller_exist_once():
    assert set(_modules_calling("decorrelated_jitter")) == {"dispatch.py", "resilience.py"}
    assert set(_modules_calling("receive_messages")) == {"dispatch.py"}
    # One loop, reached through the query context: the scan fleet (over
    # either transport) and the shuffle wave — and nothing else.
    assert _modules_calling("run_fleet") == {"dispatch.py": 1}
    assert _context_runs() == {"driver.py": 1, "shuffle.py": 1}
    importers = set()
    for path in DRIVER_SOURCES.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "open_message" for alias in node.names
            ):
                importers.add(path.name)
    assert importers == {"dispatch.py"}


def _methods_using(path: Path, matches) -> set:
    """Names of the class methods of ``path`` whose body has a node ``matches``."""
    found = set()
    for cls in ast.walk(ast.parse(path.read_text())):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and any(
                matches(node) for node in ast.walk(method)
            ):
                found.add(method.name)
    return found


def test_the_driver_reaches_workers_only_through_its_two_transports():
    driver = DRIVER_SOURCES / "driver.py"

    def lambda_invoke(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr in ("invoke", "account_invocation")
            and getattr(node.value, "attr", None) == "lambda_service"
        )

    def pool_run(node):
        return isinstance(node, ast.Attribute) and node.attr == "run_tasks"

    # Fleet rounds and hedges alike: Lambda + SQS, or the process pool.
    assert _methods_using(driver, lambda_invoke) == {"_scan_transport", "_pool_transport"}
    assert _methods_using(driver, pool_run) == {"_pool_transport"}


def test_no_mid_query_fallback_or_dead_hedge_knob_is_left():
    sources = DRIVER_SOURCES.parent
    for path in sources.rglob("*.py"):
        text = path.read_text()
        for name in ("give_up", "pool_respawn_limit", "hedge_enabled", "processes_to_serial"):
            assert name not in text, f"{name} in {path.relative_to(sources)}"
