"""Tests for the serverless worker event handler."""

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig
from repro.driver.integrity import RESULT_BUCKET, fetch_spilled_result, open_message
from repro.driver.worker import WORKER_FUNCTION_NAME, make_worker_handler
from repro.engine.payload import decode_table
from repro.formats.parquet import write_table
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.plan.physical import WorkerPlan


@pytest.fixture
def env_with_data():
    env = CloudEnvironment.create()
    env.s3.ensure_bucket("data")
    n = 1000
    table = {"x": np.arange(n, dtype=np.float64), "g": (np.arange(n) % 3).astype(np.int64)}
    env.s3.put_object("data", "f.lpq", write_table(table, row_group_rows=250))
    env.sqs.create_queue("results")
    env.lambda_service.deploy(
        FunctionConfig(name=WORKER_FUNCTION_NAME, memory_mib=2048),
        make_worker_handler(env),
    )
    return env


def _event(worker_id=0, children=None, queue="results"):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        aggregates=[AggregateSpec("sum", col("x"), "s")],
    )
    return {
        "worker_id": worker_id,
        "plan": plan.to_dict(),
        "result_queue": queue,
        "query_id": "q-test",
        "function_name": WORKER_FUNCTION_NAME,
        "children": children or [],
    }


def test_handler_executes_plan_and_posts_result(env_with_data):
    env = env_with_data
    result = env.lambda_service.invoke(WORKER_FUNCTION_NAME, _event())
    assert result.succeeded
    messages = env.sqs.receive_messages("results", max_messages=10)
    assert len(messages) == 1
    payload = open_message(messages[0].body)
    assert payload["status"] == "ok"
    assert payload["worker_id"] == 0
    assert "partial" not in payload["result"] and "result_s3" not in payload
    partial = decode_table(payload["frame"])
    assert partial["s"][0] == pytest.approx(np.arange(1000).sum())


def test_handler_invokes_children_first(env_with_data):
    env = env_with_data
    children = [_event(worker_id=1), _event(worker_id=2)]
    for child in children:
        child.pop("children")
    result = env.lambda_service.invoke(WORKER_FUNCTION_NAME, _event(worker_id=0, children=children))
    assert result.succeeded
    messages = env.sqs.receive_messages("results", max_messages=10)
    worker_ids = sorted(open_message(m.body)["worker_id"] for m in messages)
    assert worker_ids == [0, 1, 2]
    # Parent + 2 children = 3 invocations total.
    assert env.lambda_service.total_invocations() == 3


def test_handler_reports_errors_to_queue(env_with_data):
    env = env_with_data
    event = _event()
    event["plan"]["files"] = ["s3://data/missing.lpq"]
    result = env.lambda_service.invoke(WORKER_FUNCTION_NAME, event)
    assert result.succeeded  # the handler itself did not crash
    message = open_message(env.sqs.receive_messages("results")[0].body)
    assert message["status"] == "error"
    assert "NoSuchKey" in message["error"]


def test_handler_charges_modelled_time(env_with_data):
    env = env_with_data
    env.lambda_service.invoke(WORKER_FUNCTION_NAME, _event())
    invocation = env.lambda_service.invocation_log[-1]
    assert invocation.duration_seconds > 0


def test_cold_runs_are_slower(env_with_data):
    env = env_with_data
    cold = env.lambda_service.invoke(WORKER_FUNCTION_NAME, _event(worker_id=0))
    warm = env.lambda_service.invoke(WORKER_FUNCTION_NAME, _event(worker_id=1))
    assert cold.cold_start and not warm.cold_start
    assert cold.duration_seconds > warm.duration_seconds


def test_large_results_spill_to_s3(env_with_data, monkeypatch):
    env = env_with_data
    # Lower the spill threshold so the 1000-row collect result exceeds it and
    # the queue message carries an S3 pointer instead of the payload.
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 1024)
    plan = WorkerPlan(files=["s3://data/f.lpq"], columns=["x", "g"])
    event = {
        "worker_id": 7,
        "plan": plan.to_dict(),
        "result_queue": "results",
        "query_id": "q-big",
        "function_name": WORKER_FUNCTION_NAME,
    }
    result = env.lambda_service.invoke(WORKER_FUNCTION_NAME, event)
    assert result.succeeded
    body = env.sqs.receive_messages("results")[0].body
    message = open_message(body)
    assert message["status"] == "ok" and "\n" not in body
    assert message["result_s3"] == f"s3://{RESULT_BUCKET}/q-big/worker-7.a0"
    # The counters stay in the message.
    assert message["result"]["counters"]["scan.rows_output"] == 1000
    assert env.s3.object_count(RESULT_BUCKET) == 1
    # The object is the frame itself, and the frame the message describes.
    frame = fetch_spilled_result(env.s3, message)
    assert env.s3.get_object(RESULT_BUCKET, "q-big/worker-7.a0").data == frame
    assert message["frame"] == [len(frame), int.from_bytes(frame[1:5], "little")]
    rows = decode_table(frame)
    assert rows["x"].tolist() == list(range(1000)) and rows["g"].dtype == np.int64


def test_handler_without_queue_returns_payload_only(env_with_data):
    env = env_with_data
    event = _event(queue=None)
    event["result_queue"] = None
    result = env.lambda_service.invoke(WORKER_FUNCTION_NAME, event)
    assert result.succeeded
    assert result.payload["status"] == "ok"
