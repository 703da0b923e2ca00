"""Unit tests of the seeded fault-injection plane (`repro.cloud.faults`).

Covers rule validation, seeded determinism, `max_count` caps, each site's
observable effect when a plan is installed into the environment — plus the
guarantee that *no* installed plan leaves every service bitwise on its fast
path — and that a draw depends on who asked: its scope and that scope's
ordinal, never on another scope's traffic, the transport or thread arrival.
"""

from __future__ import annotations

import contextvars
import itertools

import pytest

from repro.analysis.experiments import setup_functional_environment
from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import FAULT_SCOPE, FaultPlan, FaultRule, chaos_plan
from repro.cloud.lambda_service import FunctionConfig
from repro.driver import spans
from repro.driver.driver import LambadaDriver
from repro.errors import NoSuchKeyError, SlowDownError, WorkerCrashError
from repro.frontend.sql import parse_sql
from repro.workload.queries import q1_sql, q3_sql, tpch_catalog
from repro.workload.tpch import generate_orders_dataset


@pytest.fixture
def faulty_env():
    return CloudEnvironment.create(region="eu")


# -- rule validation ---------------------------------------------------------


def test_rule_rejects_unknown_service():
    with pytest.raises(ValueError, match="unknown fault service"):
        FaultRule("dynamo", "slowdown", 0.5)


def test_rule_rejects_unknown_fault_for_service():
    with pytest.raises(ValueError, match="unknown fault"):
        FaultRule("s3", "drop", 0.5)


def test_rule_rejects_bad_rate_and_factor():
    with pytest.raises(ValueError, match="rate"):
        FaultRule("s3", "slowdown", 1.5)
    with pytest.raises(ValueError, match="factor"):
        FaultRule("lambda", "straggler", 0.5, factor=0.5)


# -- determinism and caps ----------------------------------------------------


def _slowdown_schedule(seed: int, rolls: int) -> list:
    plan = FaultPlan([FaultRule("s3", "slowdown", 0.5)], seed=seed)
    return [
        plan.decide("s3.request", "bucket/key", operation="get") is not None
        for _ in range(rolls)
    ]


def test_same_seed_injects_identical_schedule():
    assert _slowdown_schedule(42, 64) == _slowdown_schedule(42, 64)
    assert any(_slowdown_schedule(42, 64))


def test_different_seeds_diverge():
    assert _slowdown_schedule(1, 64) != _slowdown_schedule(2, 64)


def test_max_count_caps_injections():
    plan = FaultPlan(
        [FaultRule("s3", "slowdown", 1.0, max_count=3)], seed=0
    )
    fired = [plan.decide("s3.request", "bucket/key", operation="get") for _ in range(10)]
    assert [decision.fault for decision in fired if decision] == ["slowdown"] * 3
    assert plan.injected == {"s3.slowdown": 3}
    assert plan.injected_total() == 3


def test_match_scopes_rule_to_target():
    plan = FaultPlan(
        [FaultRule("s3", "slowdown", 1.0, match="shuffle-b")], seed=0
    )
    # Unmatched: no fault.
    assert plan.decide("s3.request", "data/lineitem-0.lpq", operation="get") is None
    assert plan.decide("s3.request", "shuffle-b0/q/part", operation="get").fault == "slowdown"


# -- S3 hooks through the object store --------------------------------------


def test_installed_slowdown_throttles_get(faulty_env):
    faulty_env.s3.create_bucket("b")
    faulty_env.s3.put_object("b", "k", b"payload")
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("s3", "slowdown", 1.0, operation="get", max_count=1)])
    )
    with pytest.raises(SlowDownError, match="injected throttle"):
        faulty_env.s3.get_object("b", "k")
    # The cap is spent: the retry goes through.
    assert faulty_env.s3.get_object("b", "k").data == b"payload"


def test_read_after_write_lag_fires_once_per_key(faulty_env):
    faulty_env.s3.create_bucket("b")
    faulty_env.s3.put_object("b", "fresh", b"x")
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("s3", "read_after_write", 1.0, lag_seconds=60.0)])
    )
    with pytest.raises(NoSuchKeyError, match="read-after-write lag"):
        faulty_env.s3.get_object("b", "fresh")
    # Retrying the same key succeeds — visibility converges.
    assert faulty_env.s3.get_object("b", "fresh").data == b"x"


def test_read_after_write_spares_old_objects(faulty_env):
    faulty_env.s3.create_bucket("b")
    faulty_env.s3.put_object("b", "old", b"x")
    faulty_env.clock.advance(120.0)
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("s3", "read_after_write", 1.0, lag_seconds=5.0)])
    )
    assert faulty_env.s3.get_object("b", "old").data == b"x"


def test_crash_after_put_leaves_object_behind(faulty_env):
    faulty_env.s3.create_bucket("b")
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("s3", "crash_after_put", 1.0, max_count=1)])
    )
    with pytest.raises(WorkerCrashError, match="after PUT"):
        faulty_env.s3.put_object("b", "k", b"orphan")
    # The duplicate-write hazard: the object landed before the crash.
    assert faulty_env.s3.get_object("b", "k").data == b"orphan"


# -- Lambda hooks ------------------------------------------------------------


def _deploy_echo(env, duration=1.0):
    def handler(event, context):
        context.charge(duration * context.straggler_factor)
        return {"ran": True}

    env.lambda_service.deploy(FunctionConfig(name="fn", memory_mib=512), handler)


def test_injected_drop_skips_handler_and_bills_nothing(faulty_env):
    _deploy_echo(faulty_env)
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("lambda", "drop", 1.0, max_count=1)])
    )
    dropped = faulty_env.lambda_service.invoke("fn", {})
    assert not dropped.succeeded
    assert "InvocationDropped" in dropped.error
    assert dropped.duration_seconds == 0.0
    # Cap spent: the next invocation runs the handler normally.
    assert faulty_env.lambda_service.invoke("fn", {}).succeeded


def test_injected_timeout_bills_full_timeout(faulty_env):
    def handler(event, context):
        context.charge(1.0)
        return {}

    faulty_env.lambda_service.deploy(
        FunctionConfig(name="fn", memory_mib=512, timeout_seconds=30.0), handler
    )
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("lambda", "timeout", 1.0, max_count=1)])
    )
    result = faulty_env.lambda_service.invoke("fn", {})
    assert "FunctionTimeout" in result.error
    assert result.duration_seconds == pytest.approx(30.0)


def test_straggler_multiplies_reported_duration(faulty_env):
    _deploy_echo(faulty_env, duration=1.0)
    faulty_env.install_fault_plan(
        FaultPlan(
            [FaultRule("lambda", "straggler", 1.0, max_count=1, factor=6.0)]
        )
    )
    slow = faulty_env.lambda_service.invoke("fn", {})
    fast = faulty_env.lambda_service.invoke("fn", {})
    assert slow.succeeded and fast.succeeded
    assert slow.duration_seconds == pytest.approx(6.0 * fast.duration_seconds)


# -- SQS hooks ---------------------------------------------------------------


def test_sqs_duplicate_redelivers_message(faulty_env):
    faulty_env.sqs.create_queue("q")
    faulty_env.sqs.send_message("q", "only")
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("sqs", "duplicate", 1.0, max_count=1)])
    )
    first = faulty_env.sqs.receive_messages("q")
    second = faulty_env.sqs.receive_messages("q")
    assert [m.body for m in first] == ["only"]
    assert [m.body for m in second] == ["only"]  # injected at-least-once


def test_sqs_delay_defers_delivery(faulty_env):
    faulty_env.sqs.create_queue("q")
    faulty_env.sqs.send_message("q", "late")
    faulty_env.install_fault_plan(
        FaultPlan([FaultRule("sqs", "delay", 1.0, max_count=1)])
    )
    assert faulty_env.sqs.receive_messages("q") == []
    assert [m.body for m in faulty_env.sqs.receive_messages("q")] == ["late"]


# -- plan lifecycle ----------------------------------------------------------


def test_install_and_uninstall_fault_plan(faulty_env):
    plan = chaos_plan(seed=1)
    faulty_env.install_fault_plan(plan)
    assert faulty_env.s3.fault_plan is plan
    assert faulty_env.sqs.fault_plan is plan
    assert faulty_env.lambda_service.fault_plan is plan
    faulty_env.install_fault_plan(None)
    assert faulty_env.s3.fault_plan is None
    assert faulty_env.sqs.fault_plan is None
    assert faulty_env.lambda_service.fault_plan is None


def test_chaos_plan_covers_every_service():
    plan = chaos_plan(seed=0, rate=0.2)
    services = {rule.service for rule in plan.rules}
    assert services == {"s3", "lambda", "sqs", "pool"}
    assert all(rule.max_count is not None for rule in plan.rules)


def test_to_dict_snapshots_injected_counts():
    plan = FaultPlan([FaultRule("sqs", "delay", 1.0, max_count=2)], seed=0)
    assert plan.to_dict() == {}
    assert plan.decide("sqs.deliver", "q").fault == "delay"
    snapshot = plan.to_dict()
    assert snapshot == {"sqs.delay": 1}
    assert plan.decide("sqs.deliver", "q").fault == "delay"
    assert snapshot == {"sqs.delay": 1}  # snapshot is a copy
    assert plan.to_dict() == {"sqs.delay": 2}


# -- draws depend on who asked -----------------------------------------------


def _in_scope(key: str) -> contextvars.Context:
    """A context whose consultations draw as scope ``key``."""
    context = contextvars.copy_context()
    context.run(FAULT_SCOPE.set, (key, itertools.count()))
    return context


def test_a_scopes_decisions_do_not_move_when_another_scope_interleaves():
    rules = [FaultRule("s3", "slowdown", 0.5), FaultRule("lambda", "drop", 0.3)]

    def consult(plan, context):
        return context.run(plan.decide, "s3.request", "b/k", operation="get")

    alone_plan, alone = FaultPlan(rules, seed=7), _in_scope("fn/None/0/0")
    expected = [consult(alone_plan, alone) for _ in range(48)]
    assert 0 < sum(decision is not None for decision in expected) < 48

    plan = FaultPlan(rules, seed=7)
    scope_a, scope_b = _in_scope("fn/None/0/0"), _in_scope("fn/None/1/0")
    interleaved = []
    for turn in range(48):
        for _ in range(turn % 3):  # scope B's traffic lands between A's requests
            consult(plan, scope_b)
            scope_b.run(plan.decide, "lambda.run", "fn")
        interleaved.append(consult(plan, scope_a))
    assert interleaved == expected


class _RecordingPlan(FaultPlan):
    """A plan that records each ``lambda.run`` decision by the attempt that drew it."""

    def __init__(self, rules, seed):
        super().__init__(rules, seed)
        self.runs = {}

    def decide(self, site, target="", stamp=None, **facts):
        decision = super().decide(site, target, stamp, **facts)
        if site == "lambda.run":
            self.runs[FAULT_SCOPE.get()[0]] = decision and decision.fault
        return decision


@pytest.fixture(scope="module")
def lineitem_stack():
    return setup_functional_environment(scale_factor=0.002, num_files=8)[:2]


def test_a_worker_attempt_draws_alike_on_every_transport(lineitem_stack):
    """Serial, threads and processes: the Q1 scan fleet's attempts draw the
    same drop / timeout / straggler, on rules whose caps never bind."""
    env, dataset = lineitem_stack
    plan = parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths))
    rules = [
        FaultRule("lambda", "drop", 0.2),
        FaultRule("lambda", "timeout", 0.1),
        FaultRule("lambda", "straggler", 0.2, factor=8.0),
    ]
    drivers = {
        "serial": LambadaDriver(env),
        "threads": LambadaDriver(env, execution_mode="threads"),
        "processes": LambadaDriver(env, execution_mode="processes", max_parallel_invocations=2),
    }
    runs = {}
    try:
        for mode, driver in drivers.items():
            recording = _RecordingPlan(rules, seed=3)
            env.install_fault_plan(recording)
            try:
                driver.execute(plan)
            finally:
                env.install_fault_plan(None)
            runs[mode] = recording.runs
    finally:
        drivers["processes"].close()
    assert runs["serial"] == runs["threads"] == runs["processes"]
    drawn = set(runs["serial"].values())
    assert {"drop", "straggler", None} <= drawn


def _q3_threads_outcome():
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=4)
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.002, num_files=2, row_group_rows=512, seed=7
    )
    plan = parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders.paths))
    env.install_fault_plan(FaultPlan(
        [FaultRule("lambda", "straggler", 0.25, factor=100.0), FaultRule("sqs", "delay", 0.3)],
        seed=13,
    ))
    try:
        result = LambadaDriver(env, execution_mode="threads").execute(plan)
    finally:
        env.install_fault_plan(None)
    statistics = result.statistics
    trace = statistics._trace
    hedged = {
        (span.attrs["key"], span.attrs["attempt"])
        for span in spans.attempts(trace) if span.attrs["hedge"]
    }
    redispatched = {(event["key"], event["attempt"]) for event in spans.redispatches(trace)}
    return statistics.resilience.faults_injected, hedged, redispatched


def test_threaded_q3_under_uncapped_benign_faults_repeats_itself():
    first, second = _q3_threads_outcome(), _q3_threads_outcome()
    assert first == second
    faults, hedged, _ = first
    assert set(faults) == {"lambda.straggler", "sqs.delay"}
    assert hedged
