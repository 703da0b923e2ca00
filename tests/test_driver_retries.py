"""Tests for driver-side retries of failed workers."""

import pytest

from repro.driver import spans
from repro.driver.driver import LambadaDriver
from repro.driver.integrity import post_result
from repro.driver.resilience import ResiliencePolicy
from repro.errors import WorkerFailedError
from repro.frontend.sql import parse_sql
from repro.plan.logical import AggregateNode, AggregateSpec, FilterNode, ScanNode
from repro.workload.queries import reference_q6, q6_sql, tpch_catalog


class FlakyPredicate:
    """A predicate UDF that fails the first ``failures`` times it is called."""

    def __init__(self, failures: int):
        self.remaining_failures = failures

    def __call__(self, row):
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise RuntimeError("transient failure injected by the test")
        return True


def _retrying(driver, retries: int) -> LambadaDriver:
    """A driver on ``driver``'s environment whose every fleet re-dispatches a
    failed worker at most ``retries`` times (``retries + 1`` attempts)."""
    return LambadaDriver(
        driver.env, memory_mib=2048,
        resilience_policy=ResiliencePolicy(max_attempts=retries + 1),
    )


def _flaky_plan(dataset, failures: int):
    return AggregateNode(
        child=FilterNode(child=ScanNode(paths=tuple(dataset.paths)), udf=FlakyPredicate(failures)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )


def test_transient_worker_failure_is_retried(driver, dataset, lineitem_table):
    result = _retrying(driver, 1).execute(_flaky_plan(dataset, failures=1))
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))


def test_persistent_failure_raises_after_retries(driver, dataset):
    with pytest.raises(WorkerFailedError):
        _retrying(driver, 1).execute(_flaky_plan(dataset, failures=10_000))


def test_no_retries_surfaces_first_failure(driver, dataset):
    with pytest.raises(WorkerFailedError):
        _retrying(driver, 0).execute(_flaky_plan(dataset, failures=1))


def test_retry_does_not_duplicate_results(driver, dataset, lineitem_table):
    """Retried workers replace their failed attempt; partials are not double-counted."""
    result = _retrying(driver, 2).execute(_flaky_plan(dataset, failures=2))
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))
    assert len(result.worker_results) == result.statistics.num_workers


def test_retries_do_not_affect_healthy_queries(driver, dataset, lineitem_table):
    tables = tpch_catalog(lineitem=dataset.paths)
    result = _retrying(driver, 3).execute(parse_sql(q6_sql(), tables))
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)


# ---------------------------------------------------------------------------
# collect_results timeout paths
# ---------------------------------------------------------------------------

def test_collect_messages_times_out_on_empty_queue(driver):
    """No worker ever reports: the poll loop stops within its bounded budget
    and reports 0 of 3, leaving nothing folded."""
    from repro.config import DEFAULT_RESILIENCE
    from repro.driver.dispatch import collect_results

    by_key = {}
    requests_before = driver.env.ledger.total("sqs", "requests")
    reported = collect_results(
        driver.env.sqs, driver.result_queue, "no-such-query",
        {0: 0, 1: 0, 2: 0}, by_key, "collect",
    )
    polls = driver.env.ledger.total("sqs", "requests") - requests_before
    assert (reported, by_key) == (0, {})
    assert polls == DEFAULT_RESILIENCE.min_poll_rounds


def test_dropped_worker_message_times_out(driver, dataset, monkeypatch):
    """A worker whose result message is lost triggers the timeout path."""
    from repro.driver.integrity import open_message
    from repro.errors import QueryTimeoutError
    from repro.workload.queries import q6_sql, tpch_catalog

    original = driver.env.sqs.send_message
    dropped = {"count": 0}

    def dropping_send_message(queue, body):
        payload = open_message(body)
        if (
            queue == driver.result_queue
            and payload.get("worker_id") == 0
            and dropped["count"] == 0
        ):
            dropped["count"] += 1
            return None  # swallow exactly one result message
        return original(queue, body)

    monkeypatch.setattr(driver.env.sqs, "send_message", dropping_send_message)
    tables = tpch_catalog(lineitem=dataset.paths)
    with pytest.raises(QueryTimeoutError):
        _retrying(driver, 0).execute(parse_sql(q6_sql(), tables))
    assert dropped["count"] == 1


def test_stale_messages_from_other_queries_are_ignored(driver, dataset, lineitem_table):
    """Results of an earlier query id do not satisfy the current collection."""
    from repro.workload.queries import q6_sql, reference_q6, tpch_catalog

    post_result(
        driver.env, driver.result_queue,
        {"query_id": "stale-query", "worker_id": 0, "status": "ok", "result": {}},
    )
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)


# ---------------------------------------------------------------------------
# run_fleet over the scan transport
# ---------------------------------------------------------------------------

def test_retry_failures_reinvokes_only_failed_workers(driver, monkeypatch):
    """The scan fleet's transport re-invokes exactly the failed workers, flat
    (without tree children) and as attempt 1, and merges their fresh results over the
    failures; the healthy worker's message is left untouched."""
    from repro.driver.dispatch import QueryContext
    from repro.driver.driver import SCAN_FLEET

    context = QueryContext(driver.env, driver.resilience_policy)
    query_id = context.query_id
    events = {
        worker_id: {
            "worker_id": worker_id,
            "plan": {"files": [], "columns": []},
            "result_queue": driver.result_queue,
            "query_id": query_id,
            "children": [{"worker_id": 99}] if worker_id == 1 else [],
        }
        for worker_id in range(3)
    }
    invoked = []

    def fake_invoke(name, payload, from_driver=False):
        invoked.append(dict(payload))
        attempt = payload.get("attempt", 0)
        message = {"query_id": query_id, "worker_id": payload["worker_id"], "attempt": attempt}
        if payload["worker_id"] == 0:
            message.update(status="ok", result={"partial": {}})
        elif attempt == 0:
            message.update(status="error", error="injected")
        else:
            message.update(status="ok", result={"partial": {}, "rows_scanned": 7})
        post_result(driver.env, driver.result_queue, message)

    monkeypatch.setattr(driver.env.lambda_service, "invoke", fake_invoke)
    transport = context.lambda_transport(driver.function_name, driver.result_queue, "collect")
    messages, _ = context.wave(events, transport, SCAN_FLEET, driver.memory_mib)
    merged = dict(enumerate(messages))

    first, retries = invoked[:3], invoked[3:]
    assert sorted(payload["worker_id"] for payload in first) == [0, 1, 2]
    assert sorted(payload["worker_id"] for payload in retries) == [1, 2]
    assert all("children" not in payload for payload in retries)
    assert all(payload["attempt"] == 1 for payload in retries)
    assert all(message["status"] == "ok" for message in merged.values())
    resilience = context.counters
    assert resilience["resilience", "retries"] == 2
    assert resilience["resilience", "wave_retries"] == 1
    history = spans.redispatches(context.trace)
    assert [event["error"] for event in history if event["key"] == 1] == ["injected"]
    # The healthy worker's original result is untouched; retried workers
    # carry their fresh results.
    assert merged[1]["result"]["rows_scanned"] == 7
    assert merged[0]["result"] == {"partial": {}}
    assert merged[0]["attempt"] == 0


def test_stale_duplicates_cannot_end_a_retry_poll(env):
    """Re-delivered attempt-0 messages — the failed worker's stale error
    among them — must not satisfy the retry round's poll: it waits for the
    attempt it dispatched, and the query returns the retry's result."""
    from repro.cloud.faults import FaultPlan, FaultRule
    from repro.driver.driver import LambadaDriver
    from repro.workload.tpch import generate_lineitem_dataset

    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.001, num_files=30, row_group_rows=512, seed=7
    )
    driver = LambadaDriver(env, memory_mib=2048)
    env.install_fault_plan(
        FaultPlan([FaultRule("sqs", "duplicate", 1.0, max_count=30)], seed=1)
    )
    result = _retrying(driver, 1).execute(_flaky_plan(dataset, failures=1))

    resilience = result.statistics.resilience
    assert result.column("n")[0] == 6001
    assert resilience.retries == 1
    assert resilience.duplicate_messages_ignored == 30
    # The scan fleet is a wave like any other: one round re-dispatched.
    assert resilience.wave_retries == 1
    assert env.sqs.approximate_message_count(driver.result_queue) == 0


def test_retry_failures_merges_partials_without_double_count(driver, dataset,
                                                             lineitem_table):
    """Retried workers' partials merge with the healthy ones exactly once."""
    result = _retrying(driver, 3).execute(_flaky_plan(dataset, failures=3))
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))


def test_recovery_on_the_last_retry_round(driver, dataset, lineitem_table):
    """With W workers failing twice each, two retry rounds recover exactly."""
    workers = len(dataset.paths)
    result = _retrying(driver, 2).execute(
        _flaky_plan(dataset, failures=2 * workers))
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))


def test_retry_budget_exhausted_mid_recovery(driver, dataset):
    """One failure more than the retry budget covers still aborts the query."""
    workers = len(dataset.paths)
    with pytest.raises(WorkerFailedError):
        _retrying(driver, 2).execute(
            _flaky_plan(dataset, failures=2 * workers + 1))
