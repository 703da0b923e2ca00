"""Tests for the Lambada driver (end-to-end query coordination)."""

import numpy as np
import pytest

from repro.config import INVOCATION_LATENCY_SECONDS
from repro.driver.driver import LambadaDriver
from repro.driver.shuffle import JOIN_MAP_FUNCTION_NAME, JOIN_REDUCE_FUNCTION_NAME
from repro.driver.invocation import InvocationModel
from repro.errors import ExecutionError, WorkerFailedError
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    LimitNode,
    OrderByNode,
    ProjectNode,
    ScanNode,
)
from repro.workload.queries import (
    q1_sql,
    q3_sql,
    q6_sql,
    reference_q1,
    reference_q6,
    tpch_catalog,
)
from repro.workload.tpch import (
    LineitemGenerator,
    generate_lineitem_dataset,
    generate_orders_dataset,
)


def test_install_deploys_function_and_queue(env, driver):
    assert driver.function_name in env.lambda_service.list_functions()
    assert driver.result_queue in env.sqs.list_queues()


def test_scalar_aggregate_query(env, driver, dataset, lineitem_table):
    plan = AggregateNode(
        child=ScanNode(paths=tuple(dataset.paths)),
        aggregates=(AggregateSpec("sum", col("l_quantity"), "total_qty"),),
    )
    result = driver.execute(plan)
    assert result.scalar() == pytest.approx(float(lineitem_table["l_quantity"].sum()))


def test_one_worker_per_file_by_default(driver, dataset):
    plan = AggregateNode(
        child=ScanNode(paths=tuple(dataset.paths)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    result = driver.execute(plan)
    assert result.statistics.num_workers == dataset.num_files
    assert len(result.worker_results) == dataset.num_files


def test_files_per_worker_controls_fleet_size(driver, dataset):
    plan = AggregateNode(
        child=ScanNode(paths=tuple(dataset.paths)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    result = driver.execute(plan, files_per_worker=2)
    assert result.statistics.num_workers == dataset.num_files // 2


def test_num_workers_capped_by_files(driver, dataset):
    plan = AggregateNode(
        child=ScanNode(paths=tuple(dataset.paths)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    result = driver.execute(plan, num_workers=1000)
    assert result.statistics.num_workers == dataset.num_files


def test_glob_expansion(driver, dataset):
    plan = AggregateNode(
        child=ScanNode(paths=(dataset.glob,)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    result = driver.execute(plan)
    assert result.scalar() == pytest.approx(dataset.total_rows)


def test_missing_input_raises(driver):
    plan = AggregateNode(
        child=ScanNode(paths=("s3://tpch/nothing/*.lpq",)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    with pytest.raises(ExecutionError):
        driver.execute(plan)


def test_worker_failure_is_surfaced(driver, dataset, env):
    # Point one file at a corrupt object to make a worker fail.
    env.s3.put_object("tpch", "lineitem/part-00000.lpq", b"corrupt bytes")
    plan = AggregateNode(
        child=ScanNode(paths=tuple(dataset.paths)),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    with pytest.raises(WorkerFailedError):
        driver.execute(plan)


def test_collect_rows_query(driver, dataset, lineitem_table):
    plan = ProjectNode(
        child=FilterNode(
            child=ScanNode(paths=tuple(dataset.paths)),
            predicate=col("l_quantity") >= 49,
        ),
        columns=("l_quantity", "l_discount"),
    )
    result = driver.execute(plan)
    expected = int((lineitem_table["l_quantity"] >= 49).sum())
    assert result.num_rows == expected
    assert set(result.table.keys()) == {"l_quantity", "l_discount"}


def test_order_by_and_limit(driver, dataset):
    plan = LimitNode(
        child=OrderByNode(
            child=AggregateNode(
                child=ScanNode(paths=tuple(dataset.paths)),
                group_by=("l_returnflag",),
                aggregates=(AggregateSpec("count", None, "n"),),
            ),
            keys=("n",),
            descending=True,
        ),
        count=2,
    )
    result = driver.execute(plan)
    assert result.num_rows == 2
    counts = result.column("n")
    assert counts[0] >= counts[1]


def test_q1_matches_reference(driver, dataset, lineitem_table):
    result = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    expected = reference_q1(lineitem_table)
    assert result.num_rows == len(expected["sum_qty"])
    for alias in ("sum_qty", "sum_base_price", "sum_disc_price", "sum_charge",
                  "avg_qty", "avg_price", "avg_disc", "count_order"):
        np.testing.assert_allclose(result.column(alias), expected[alias], rtol=1e-9)


def test_q6_matches_reference(driver, dataset, lineitem_table):
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)


def test_q6_prunes_most_row_groups(driver, dataset):
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    total_groups = sum(r.counters["scan", "row_groups_total"] for r in result.worker_results)
    pruned = sum(r.counters["scan", "row_groups_pruned"] for r in result.worker_results)
    # Q6 touches one year out of seven; most row groups are pruned (§5.3).
    assert pruned > 0.5 * total_groups


def test_q1_prunes_little(driver, dataset):
    result = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    total_groups = sum(r.counters["scan", "row_groups_total"] for r in result.worker_results)
    pruned = sum(r.counters["scan", "row_groups_pruned"] for r in result.worker_results)
    assert pruned < 0.2 * total_groups


def test_statistics_populated(driver, dataset):
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    stats = result.statistics
    assert stats.latency_seconds > 0
    assert stats.invocation_seconds > 0
    assert stats.max_worker_seconds >= stats.median_worker_seconds
    assert stats.cost_total > 0
    assert stats.cost_total == pytest.approx(
        stats.cost_lambda_duration
        + stats.cost_lambda_requests
        + stats.cost_s3_requests
        + stats.cost_sqs_requests
    )
    assert stats.rows_scanned > 0
    assert stats.bytes_read > 0
    assert len(stats.worker_durations) == stats.num_workers


def test_cold_execution_slower_and_pricier(driver, dataset):
    tables = tpch_catalog(lineitem=dataset.paths)
    hot = driver.execute(parse_sql(q1_sql(), tables), cold=False)
    cold = driver.execute(parse_sql(q1_sql(), tables), cold=True)
    assert cold.statistics.latency_seconds > hot.statistics.latency_seconds
    assert cold.statistics.cost_lambda_duration >= hot.statistics.cost_lambda_duration
    # Results are identical regardless of cold/hot.
    np.testing.assert_allclose(cold.column("sum_qty"), hot.column("sum_qty"))


def test_more_memory_lowers_latency_raises_cost(env, dataset):
    small = LambadaDriver(env, memory_mib=512, result_queue="q-small")
    large = LambadaDriver(env, memory_mib=1792, result_queue="q-large")
    tables = tpch_catalog(lineitem=dataset.paths)
    small_result = small.execute(parse_sql(q1_sql(), tables))
    large_result = large.execute(parse_sql(q1_sql(), tables))
    assert large_result.statistics.max_worker_seconds < small_result.statistics.max_worker_seconds


def test_set_memory_redeploys(driver, env):
    driver.set_memory(3008)
    assert env.lambda_service.get_config(driver.function_name).memory_mib == 3008


def test_set_memory_resizes_a_join_query(driver, dataset, env):
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.001, num_files=2, row_group_rows=512, seed=7
    )
    plan = parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders.paths))
    first = driver.execute(plan)  # deploys the join functions at 2048 MiB
    join_functions = (JOIN_MAP_FUNCTION_NAME, JOIN_REDUCE_FUNCTION_NAME)
    assert {env.lambda_service.get_config(name).memory_mib for name in join_functions} == {2048}
    driver.set_memory(1024)
    for name in join_functions:
        assert env.lambda_service.get_config(name).memory_mib == 1024
    logged = len(env.lambda_service.invocation_log)
    gib_seconds = env.ledger.total("lambda", "gib_seconds")
    second = driver.execute(plan)
    invocations = env.lambda_service.invocation_log[logged:]
    assert {result.function_name for result in invocations} >= set(join_functions)
    # Every invocation of the query, join waves included, billed at 1 GiB.
    billed = env.ledger.total("lambda", "gib_seconds") - gib_seconds
    assert billed == pytest.approx(sum(result.duration_seconds for result in invocations))
    np.testing.assert_array_equal(second.column("revenue"), first.column("revenue"))


def test_tree_invocation_used(driver, dataset, env):
    before = env.lambda_service.total_invocations()
    driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    after = env.lambda_service.total_invocations()
    assert after - before == dataset.num_files


def _record_invocations(env, monkeypatch):
    """Every ``LambdaService.invoke`` call as ``(event, from_driver)``."""
    calls = []
    invoke = env.lambda_service.invoke

    def recording_invoke(name, event, from_driver=True):
        calls.append((event, from_driver))
        return invoke(name, event, from_driver=from_driver)

    monkeypatch.setattr(env.lambda_service, "invoke", recording_invoke)
    return calls


def test_small_fleet_is_invoked_in_one_hop(driver, dataset, env, monkeypatch, lineitem_table):
    """Four workers start sooner from the driver alone than through a second
    hop: four root payloads, nobody invokes — or bills for invoking — anyone."""
    calls = _record_invocations(env, monkeypatch)
    log_before = len(env.lambda_service.invocation_log)
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table))
    assert len(calls) == 4
    assert all(from_driver for _, from_driver in calls)
    assert not any(event.get("children") for event, _ in calls)
    assert sorted(event["worker_id"] for event, _ in calls) == [0, 1, 2, 3]
    stats = result.statistics
    assert stats.invocation_seconds == pytest.approx(3 / 294.0 + 0.036 + 0.05)
    billed = [r.duration_seconds for r in env.lambda_service.invocation_log[log_before:]]
    assert sorted(billed) == pytest.approx(sorted(stats.worker_durations))


def test_large_fleet_fans_out_through_children(env, monkeypatch):
    """Forty warm workers are above the crossover: the driver invokes 34, the
    first six of them one child each, and each parent bills exactly the
    child-invocation time the plan charged."""
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.001, num_files=40, row_group_rows=512, seed=7
    )
    driver = LambadaDriver(env, memory_mib=2048)
    calls = _record_invocations(env, monkeypatch)
    log_before = len(env.lambda_service.invocation_log)
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    table = LineitemGenerator(scale_factor=0.001, seed=7).generate()
    assert result.scalar() == pytest.approx(reference_q6(table))

    roots = [event for event, from_driver in calls if from_driver]
    nested = [event for event, from_driver in calls if not from_driver]
    assert len(roots) == 34 and len(nested) == 6
    assert [len(event["children"]) for event in roots] == [1] * 6 + [0] * 28
    assert sorted(event["worker_id"] for event, _ in calls) == list(range(40))
    assert env.lambda_service.total_invocations() == 40

    stats = result.statistics
    plan = InvocationModel(region="eu").plan(40, cold=False)
    assert plan.first_generation == 34
    assert stats.invocation_seconds == plan.time_to_start_all
    billed = sum(r.duration_seconds for r in env.lambda_service.invocation_log[log_before:])
    assert billed == pytest.approx(sum(stats.worker_durations) + 6 / plan.worker_rate)


@pytest.mark.parametrize("num_files", [4, 8])
def test_latency_is_the_collection_plan_of_the_fleets_completions(env, num_files):
    """The modelled latency is an identity, in every execution mode: the
    priced launch's start times plus the workers' durations, drained by the
    collection plan — to the last digit, with no flat poll round on top."""
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.001, num_files=num_files, row_group_rows=512, seed=7
    )
    drivers = {
        "serial": LambadaDriver(env, memory_mib=2048, result_queue="q-serial"),
        "threads": LambadaDriver(
            env, memory_mib=2048, result_queue="q-threads", execution_mode="threads"
        ),
        "processes": LambadaDriver(
            env, memory_mib=2048, result_queue="q-processes",
            execution_mode="processes", max_parallel_invocations=2,
        ),
    }
    round_trip = INVOCATION_LATENCY_SECONDS["eu"]
    tables = tpch_catalog(lineitem=dataset.paths)
    try:
        # An environment's very first worker runs a little longer than any
        # later one, whatever the mode; keep it out of the comparison.
        drivers["serial"].execute(parse_sql(q6_sql(), tables), cold=False)
        for sql in (q1_sql, q6_sql):
            latencies = {}
            for mode, mode_driver in drivers.items():
                plan = parse_sql(sql(), tables)
                requests = env.ledger.total("sqs", "requests")
                stats = mode_driver.execute(plan, cold=False).statistics
                sqs = env.ledger.total("sqs", "requests") - requests
                launch = InvocationModel(region="eu").plan(num_files, cold=False)
                completion = launch.worker_start_times() + np.asarray(stats.worker_durations)
                collection = launch.collection(completion)
                assert stats.latency_seconds == collection.finish, mode
                assert stats.resilience.backoff_seconds == 0.0
                assert stats.latency_seconds == float(completion.max()) + stats.collection_seconds
                assert stats.collection_seconds == collection.seconds
                assert stats.collection_pollers == collection.pollers == 1
                assert stats.collection_receives == collection.receives == 2
                # The bill is the SQS requests the query made: one send per
                # worker and the one receive that found them all (the pool
                # returns results over its pipes and sends none).  The
                # modelled drain above prices two receives.
                assert sqs == (0 if mode == "processes" else num_files + 1), mode
                assert stats.cost_sqs_requests == env.ledger.prices.sqs_cost(int(sqs))
                # Collection overlaps the fleet: the first receive returns
                # with the first result, the second carries the rest.
                assert round_trip < stats.collection_seconds <= 2 * round_trip
                assert (
                    f"collection {stats.collection_seconds:.3f} (1 poller, 2 receives)"
                    in stats.describe_latency()
                )
                latencies[mode] = stats.latency_seconds
            assert latencies["serial"] == latencies["threads"] == latencies["processes"]
    finally:
        drivers["processes"].close()


def test_a_lone_worker_is_collected_in_one_round_trip(driver, dataset):
    tables = tpch_catalog(lineitem=dataset.paths)
    stats = driver.execute(parse_sql(q6_sql(), tables), num_workers=1, cold=False).statistics
    assert stats.num_workers == 1
    assert (stats.collection_pollers, stats.collection_receives) == (1, 1)
    assert stats.collection_seconds == pytest.approx(INVOCATION_LATENCY_SECONDS["eu"])
    # Four workers: the stagger of their starts (3 / 294 s) comes off the
    # second receive's round trip.
    four = driver.execute(parse_sql(q6_sql(), tables), cold=False).statistics
    assert four.collection_seconds / INVOCATION_LATENCY_SECONDS["eu"] == pytest.approx(
        1.72, abs=0.02
    )


def test_explain_and_describe_latency_name_the_critical_path(driver, dataset):
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)), cold=False)
    stats = result.statistics
    line = stats.describe_latency()
    assert result.explain().splitlines()[-1] == line
    assert line.startswith(f"latency {stats.latency_seconds:.3f} s = launch ")
    assert " + last worker " in line and " + collection " in line
    assert "backoff" not in line
    # The printed terms are the latency.
    terms = [float(term.split()[-1]) for term in line.split(" = ")[1].split(" (")[0].split(" + ")]
    assert sum(terms) == pytest.approx(stats.latency_seconds, abs=2e-3)


def test_scalar_on_multirow_result_raises(driver, dataset):
    result = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    with pytest.raises(ExecutionError):
        result.scalar()
