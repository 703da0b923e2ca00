"""The query trace: one span tree per query, on the modelled and the wall clock.

A query is a span tree — query → wave → worker attempt, plus its launch and
result collection (:mod:`repro.driver.spans`) — and its timing statistics are
views over that tree.  Over Q1 (a scan), Q3 (a binary join), Q5 (a 5-stage
DAG) and the aggregation facade, clean and under seeded
:func:`~repro.cloud.faults.chaos_plan` storms, every child lies inside its
parent on the modelled clock, every dispatched payload is one attempt span
and one billed invocation, every re-dispatch one ``redispatch`` event, the
latency is the query span's modelled end, and ``trace()`` renders every span
once on each clock.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.cloud.faults import FaultPlan, FaultRule, chaos_plan
from repro.driver import spans
from repro.driver.resilience import ResiliencePolicy
from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.workload import queries as q
from repro.workload import tpch
from tests import oracle
from tests.conftest import leaked_segments

SEED = 7
CHAOS_SEEDS = (11, 23)
CHAOS_POLICY = ResiliencePolicy(max_attempts=14)
QUERIES = {"q1": q.q1_sql, "q3": q.q3_sql, "q5": q.q5_sql}
MODES = ("serial", "threads", "processes")


@pytest.fixture(scope="module")
def stack():
    """All seven relations at SF 0.002, and a session per execution mode."""
    env = repro.CloudEnvironment.create()
    datasets = [
        getattr(tpch, f"generate_{name}_dataset")(env.s3, scale_factor=0.002, seed=SEED)
        for name in oracle.GENERATORS
    ]
    sessions = {
        mode: repro.connect(
            env, execution_mode=mode, result_queue=f"trace-{mode}",
            resilience_policy=CHAOS_POLICY, max_parallel_invocations=2,
        )
        for mode in MODES
    }
    for session in sessions.values():
        for dataset in datasets:
            session.register(dataset)
    yield env, datasets[0], sessions
    for session in sessions.values():
        session.close()


def _run(env, chaos, work):
    """``work()`` under ``chaos_plan(seed=chaos)`` (none when ``None``);
    returns its statistics and the Lambda invocations the ledger billed."""
    before = env.ledger.total("lambda", "invocations")
    if chaos is not None:
        env.install_fault_plan(chaos_plan(seed=chaos, rate=0.2, max_count=2))
    try:
        statistics = work()
    finally:
        env.install_fault_plan(None)
    return statistics, env.ledger.total("lambda", "invocations") - before


def _assert_nested(query):
    for span in query.walk():
        for child in span.children:
            assert span.start <= child.start <= child.end <= span.end, (span.name, child.name)


def _assert_renders_every_span_on_both_clocks(statistics, query):
    rendered = json.loads(json.dumps(statistics.trace()))["traceEvents"]
    complete = [event for event in rendered if event["ph"] == "X"]
    count = sum(1 for _ in query.walk())
    assert len(complete) == 2 * count
    for pid in (0, 1):
        assert sum(event["pid"] == pid for event in complete) == count
    assert all(event["dur"] >= 0 for event in complete)


def _assert_attempts_are_invocations(statistics, query, workers, billed):
    resilience = statistics.resilience
    events = spans.redispatches(query)
    assert len(spans.attempts(query)) == workers + resilience.retries + resilience.hedges_launched
    assert len(spans.attempts(query)) == billed
    assert len(events) == resilience.retries
    assert all(set(event) == {"key", "attempt", "error", "backoff_seconds"} for event in events)
    for outcome in ("hedge_won", "hedge_lost"):
        found = sum(name == outcome for span in query.walk() for name, _ in span.events)
        assert found == getattr(resilience, outcome.replace("hedge", "hedges"))


@pytest.mark.parametrize("chaos", (None,) + CHAOS_SEEDS, ids=lambda s: f"chaos{s}")
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_a_query_is_one_span_tree(stack, query, chaos):
    env, _, sessions = stack
    statistics, billed = _run(
        env, chaos, lambda: sessions["serial"].sql(QUERIES[query]()).statistics,
    )
    tree = statistics._trace
    if chaos is None:
        assert statistics.resilience.clean
    else:
        assert statistics.resilience.faults_injected
    _assert_nested(tree)
    _assert_attempts_are_invocations(statistics, tree, statistics.num_workers, billed)
    if chaos is None:
        assert len(spans.redispatches(tree)) == statistics.resilience.retries == 0
    assert statistics.latency_seconds == tree.end
    assert statistics.invocation_seconds == tree.last("launch").end
    waves = tree.find("wave")
    assert len(waves) == 1 + len(statistics.wave_stages)
    assert statistics.worker_durations == [
        spans.length(span) for wave in waves for span in spans.accepted(wave)
    ]
    assert [span.name for span in tree.children] == ["launch"] + ["wave"] * len(waves) + [
        "collection"
    ]
    _assert_renders_every_span_on_both_clocks(statistics, tree)


@pytest.mark.parametrize("chaos", (None,) + CHAOS_SEEDS, ids=lambda s: f"chaos{s}")
def test_the_aggregation_facade_is_one_span_tree(stack, chaos):
    env, lineitem, _ = stack
    coordinator = ShuffleAggregateCoordinator(env, resilience_policy=CHAOS_POLICY)
    aggregates = [AggregateSpec("sum", col("l_quantity"), "quantity")]
    statistics, billed = _run(
        env, chaos,
        lambda: coordinator.execute(lineitem.paths, ["l_suppkey"], aggregates)[1],
    )
    tree = statistics._trace
    _assert_nested(tree)
    _assert_attempts_are_invocations(statistics, tree, statistics.num_workers, billed)
    assert statistics.redispatches == len(spans.redispatches(tree))
    # The facade prices no launch and no collection: the run is the query.
    assert statistics.latency_seconds == tree.end
    assert [span.name for span in tree.children] == ["wave", "wave"]
    _assert_renders_every_span_on_both_clocks(statistics, tree)
    assert leaked_segments() == []


def _modelled(query):
    """The modelled side of a tree: every span's name, modelled interval and
    attributes (the query's id aside), in walk order."""
    return [
        (
            span.name, span.start, span.end,
            sorted((k, repr(v)) for k, v in span.attrs.items() if k != "query_id"),
            span.events,
        )
        for span in query.walk()
    ]


def test_q1s_modelled_tree_is_the_same_in_every_mode(stack):
    env, _, sessions = stack
    # An environment's very first worker runs a little longer than any later
    # one, whatever the mode; keep it out of the comparison.
    sessions["serial"].sql(q.q6_sql())
    trees = {mode: sessions[mode].sql(q.q1_sql()).statistics for mode in MODES}
    reference = _modelled(trees["serial"]._trace)
    assert [name for name, *_ in reference].count("attempt") == trees["serial"].num_workers
    for mode in ("threads", "processes"):
        assert _modelled(trees[mode]._trace) == reference, mode
    assert leaked_segments() == []


@pytest.mark.parametrize("mode", ["serial", "processes"])
def test_a_won_hedge_is_the_accepted_attempt(stack, mode):
    """A straggler slowed 400x is raced by a hedge: the hedge is an attempt
    span of the fleet's wave with a ``hedge_won`` event, accepted and ending
    its detection wait after its own run, while the straggler it beat adds
    nothing to the modelled clock."""
    env, _, sessions = stack
    sessions[mode].sql(q.q6_sql())
    env.install_fault_plan(
        FaultPlan([FaultRule("lambda", "straggler", 1.0, max_count=1, factor=400.0)], seed=5)
    )
    try:
        statistics = sessions[mode].sql(q.q6_sql()).statistics
    finally:
        env.install_fault_plan(None)
    tree = statistics._trace
    (wave,) = tree.find("wave")
    (hedge,) = [span for span in wave.children if span.attrs["hedge"]]
    assert hedge.events == [("hedge_won", {})]
    assert statistics.resilience.hedges_won == 1
    straggler = next(
        span for span in wave.children
        if span.attrs["key"] == hedge.attrs["key"] and not span.attrs["hedge"]
    )
    assert not straggler.attrs["accepted"] and straggler.start == straggler.end
    assert hedge.attrs["accepted"] and hedge.attrs["wait"] > 0.0
    assert hedge.end == hedge.start + (hedge.attrs["duration"] + hedge.attrs["wait"])
    assert statistics.worker_durations[hedge.attrs["key"]] == spans.length(hedge)
    _assert_nested(tree)
    assert len(spans.attempts(tree)) == statistics.num_workers + 1
    assert statistics.latency_seconds == tree.end == pytest.approx(0.652, abs=1e-3)
