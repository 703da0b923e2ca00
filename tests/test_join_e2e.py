"""End-to-end distributed join queries (TPC-H Q3/Q12/Q14) over the shuffle plane.

Parity across scale factors, partition counts and both front ends is held by
conformance-matrix cells (``tests/conformance.py``).  The counter tests pin the acceptance criterion
that the join path rides the write-combined I/O plane (one combined PUT per
mapper, ranged GETs only, in ``QueryStatistics.exchange``).
"""

import numpy as np
import pytest

from repro.frontend.sql import SqlCatalog, parse_sql
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    JoinNode,
    ScanNode,
)
from repro.plan.expressions import col, lit
from repro.plan.optimizer import optimize
from repro.plan.physical import DagPhysicalPlan
from repro.workload.queries import q3_sql, tpch_catalog
from repro.workload.tpch import (
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    OrdersGenerator,
    generate_orders_dataset,
    generate_part_dataset,
)
from tests.conformance import Cell, check


@pytest.fixture
def orders_dataset(env):
    return generate_orders_dataset(
        env.s3, scale_factor=0.001, num_files=3, row_group_rows=512, seed=7
    )


@pytest.fixture
def part_dataset(env):
    return generate_part_dataset(
        env.s3, scale_factor=0.001, num_files=2, row_group_rows=512, seed=7
    )


@pytest.fixture(scope="session")
def orders_table():
    return OrdersGenerator(scale_factor=0.001, seed=7).generate()


# ---------------------------------------------------------------------------
# Parity: conformance-matrix cells (tests/conformance.py) — each equals
# sqlite3 and the clean serial run of its (data, width, front end)
# ---------------------------------------------------------------------------

def test_q3_matches_reference():
    check(Cell("q3"))


def test_q12_matches_reference():
    check(Cell("q12"))


def test_q14_matches_reference():
    check(Cell("q14"))


@pytest.mark.parametrize("scale_factor", [0.0005, 0.002])
@pytest.mark.parametrize("num_workers", [1, 3, 5])
def test_q3_parity_across_scales_and_partitions(scale_factor, num_workers):
    check(Cell("q3", data={0.0005: "sf0.0005", 0.002: 11}[scale_factor], width=num_workers))


def test_sql_q3_executes_end_to_end():
    check(Cell("q3", front_end="sql"))


def test_sql_q12_executes_end_to_end():
    check(Cell("q12", front_end="sql"))


def test_sql_q14_executes_end_to_end():
    check(Cell("q14", front_end="sql"))


@pytest.fixture
def catalog(dataset, orders_dataset, part_dataset):
    catalog = SqlCatalog()
    for info in (dataset, orders_dataset, part_dataset):
        catalog.register_dataset(info)
    return catalog


# ---------------------------------------------------------------------------
# Exchange and join counters (acceptance criteria)
# ---------------------------------------------------------------------------

def test_join_runs_over_write_combined_exchange(driver, dataset, orders_dataset):
    tables = tpch_catalog(lineitem=dataset.paths, orders=orders_dataset.paths)
    result = driver.execute(parse_sql(q3_sql(), tables))
    statistics = result.statistics
    exchange = statistics.exchange
    # A hand-built plan knows no sizes: one mapper per file.  Both map
    # fleets write-combine: one PUT per mapper that kept a row, none for a
    # mapper whose predicate pruned its file whole.
    mappers = len(dataset.paths) + len(orders_dataset.paths)
    assert sum(statistics.map_fleets.values()) == mappers
    kept = _senders(result, mappers)
    assert 0 < kept < mappers
    assert exchange.combined_put_requests == kept
    assert exchange.put_requests == kept
    assert exchange.ranged_get_requests > 0
    assert exchange.get_requests == exchange.ranged_get_requests
    assert exchange.head_requests == 0
    assert exchange.bytes_touched >= exchange.bytes_read
    # Join counters are threaded through WorkerResult into QueryStatistics.
    assert statistics.join_probe_rows > 0
    assert statistics.join_build_rows > 0
    assert statistics.join_output_rows > 0
    assert statistics.rows_scanned > 0
    assert statistics.cost_total > 0.0


def test_join_ranged_gets_bounded_by_slices(driver, dataset, orders_dataset):
    tables = tpch_catalog(lineitem=dataset.paths, orders=orders_dataset.paths)
    result = driver.execute(parse_sql(q3_sql(), tables), num_workers=4)
    exchange = result.statistics.exchange
    # At most one ranged GET per (sender, reducer) slice; empty slices are
    # elided without any request, and a mapper that kept no row is no sender.
    mappers = len(dataset.paths) + len(orders_dataset.paths)
    assert exchange.ranged_get_requests + exchange.empty_parts_elided == (
        _senders(result, mappers) * 4
    )


def _senders(result, mappers):
    """Mappers of a run that kept at least one row (the map wave's worker
    results come first, one per mapper)."""
    return sum(
        1 for worker in result.worker_results[:mappers]
        if worker.counters["scan", "rows_after_filter"]
    )


def test_join_per_side_pushdown_reported(driver, dataset, orders_dataset):
    tables = tpch_catalog(lineitem=dataset.paths, orders=orders_dataset.paths)
    result = driver.execute(parse_sql(q3_sql(), tables))
    report = result.optimizer_report
    assert report.join_keys == ("l_orderkey", "o_orderkey")
    assert report.left_pushed_predicates == 1  # l_shipdate > cutoff
    assert report.right_pushed_predicates == 1  # o_orderdate < cutoff
    assert report.residual_predicates == 0
    pushed = set(report.pushed_columns)
    assert "l_orderkey" in pushed and "o_orderkey" in pushed
    assert "l_tax" not in pushed  # projection push-down trims unused columns
    columns = {r.column for r in report.prune_ranges}
    assert columns == {"l_shipdate", "o_orderdate"}


def test_join_collect_rows_without_aggregate(driver, dataset, orders_dataset,
                                             lineitem_table, orders_table):
    """Aggregate-free join plans return the joined rows themselves."""
    plan = JoinNode(
        child=FilterNode(
            child=ScanNode(
                paths=tuple(dataset.paths),
                schema_columns=tuple(LINEITEM_SCHEMA.names),
            ),
            predicate=col("l_shipdate") > lit(10_500),
        ),
        right=ScanNode(
            paths=tuple(orders_dataset.paths),
            schema_columns=tuple(ORDERS_SCHEMA.names),
        ),
        left_key="l_orderkey",
        right_key="o_orderkey",
    )
    result = driver.execute(plan)
    mask = lineitem_table["l_shipdate"] > 10_500
    keys = lineitem_table["l_orderkey"][mask]
    expected = int(np.isin(keys, orders_table["o_orderkey"]).sum())
    assert result.num_rows == expected
    assert "o_totalprice" in result.table
    assert result.statistics.join_output_rows == expected


def test_residual_predicate_filters_joined_rows(driver, dataset, orders_dataset,
                                                lineitem_table, orders_table):
    """A two-sided predicate stays above the join and still applies."""
    join = JoinNode(
        child=ScanNode(
            paths=tuple(dataset.paths), schema_columns=tuple(LINEITEM_SCHEMA.names)
        ),
        right=ScanNode(
            paths=tuple(orders_dataset.paths), schema_columns=tuple(ORDERS_SCHEMA.names)
        ),
        left_key="l_orderkey",
        right_key="o_orderkey",
    )
    residual = col("l_shipdate") > col("o_orderdate")
    plan = AggregateNode(
        child=FilterNode(child=join, predicate=residual),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    physical, report = optimize(plan)
    assert isinstance(physical, DagPhysicalPlan)
    (stage,) = physical.stages
    assert stage.residual_predicate.equals(residual)
    assert report.residual_predicates == 1
    result = driver.execute(plan)

    left_idx = np.flatnonzero(
        np.isin(lineitem_table["l_orderkey"], orders_table["o_orderkey"])
    )
    order = np.argsort(orders_table["o_orderkey"])
    pos = np.searchsorted(
        orders_table["o_orderkey"][order], lineitem_table["l_orderkey"][left_idx]
    )
    matched_dates = orders_table["o_orderdate"][order][pos]
    expected = int(
        (lineitem_table["l_shipdate"][left_idx] > matched_dates).sum()
    )
    assert result.column("n")[0] == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------

def test_left_deep_join_tree_lowers_to_dag(dataset, orders_dataset, part_dataset):
    """A two-join left-deep tree lowers to a two-stage DAG physical plan."""
    inner = JoinNode(
        child=ScanNode(paths=tuple(dataset.paths)),
        right=ScanNode(paths=tuple(orders_dataset.paths)),
        left_key="l_orderkey",
        right_key="o_orderkey",
    )
    outer = JoinNode(
        child=inner,
        right=ScanNode(paths=tuple(part_dataset.paths)),
        left_key="l_partkey",
        right_key="p_partkey",
    )
    physical, report = optimize(outer)
    assert isinstance(physical, DagPhysicalPlan)
    assert len(physical.stages) == 2
    assert report.dag_stages == 2
    # One map wave followed by one join wave per stage.
    waves = physical.waves()
    assert [wave["kind"] for wave in waves] == ["map", "join", "join"]
    assert "join stage" in physical.explain()


def test_group_by_right_key_answers(driver, catalog, lineitem_table, orders_table):
    """Grouping by the build side's key works for one join as for N: the
    join stage restores the key the kernel drops from the equal probe key."""
    plan = parse_sql(
        "SELECT o_orderkey, count(*) AS n FROM lineitem JOIN orders "
        "ON l_orderkey = o_orderkey GROUP BY o_orderkey ORDER BY o_orderkey",
        catalog,
    )
    physical, _ = optimize(plan)
    assert physical.stages[0].restore_right_key
    result = driver.execute(plan)

    keys = lineitem_table["l_orderkey"]
    expected, counts = np.unique(
        keys[np.isin(keys, orders_table["o_orderkey"])], return_counts=True
    )
    assert list(result.table) == ["o_orderkey", "n"]
    np.testing.assert_array_equal(result.table["o_orderkey"], expected)
    np.testing.assert_array_equal(result.table["n"], counts)


def test_projection_above_join_keeps_only_selected_columns(driver, catalog):
    """A SELECT list without aggregates projects the joined rows exactly."""
    result = driver.execute(
        parse_sql(
            "SELECT o_orderpriority FROM lineitem JOIN orders "
            "ON l_orderkey = o_orderkey WHERE l_shipdate > 10500",
            catalog,
        )
    )
    assert list(result.table) == ["o_orderpriority"]
    assert result.num_rows > 0


def test_catalog_pruning_rejected_for_join_plans(driver, dataset, orders_dataset):
    from repro.driver.catalog import StatisticsCatalog
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError, match="catalog"):
        driver.execute(
            parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders_dataset.paths)),
            catalog=StatisticsCatalog(driver.env.dynamodb),
            dataset_name="lineitem",
        )


# -- the modelled latency of a DAG is an identity --------------------------------------


@pytest.mark.parametrize("slow", [False, True], ids=["fused", "wave-per-stage"])
@pytest.mark.parametrize("num_workers", [None, 3])
def test_dag_latency_is_the_collection_plan_of_the_final_wave(slow, num_workers):
    """Launch, scan wave and barriered join waves add up; behind them only the
    final wave's results travel to the driver, drained by the collection plan
    of that wave's completions — exactly, with no flat poll round on top."""
    from repro.config import INVOCATION_LATENCY_SECONDS
    from repro.driver.invocation import InvocationModel
    from repro.workload import queries as q
    from tests.test_join_wave_fusion import _session, _stack

    env, datasets = _stack(slow=slow)
    session = _session(env, datasets)
    round_trip = INVOCATION_LATENCY_SECONDS["eu"]
    for sql in (q.q3_sql(), q.q5_sql()):
        kwargs = {} if num_workers is None else {"num_workers": num_workers}
        requests = env.ledger.total("sqs", "requests")
        result = session.sql(sql, **kwargs)
        sqs = env.ledger.total("sqs", "requests") - requests
        stats = result.statistics
        partitions, waves = stats.exchange_partitions, len(stats.wave_stages)
        if num_workers is not None or not slow:  # a slow link prices one worker per file
            assert partitions == (num_workers or 1)
        assert waves == (stats.dag_stages if slow else 1)
        joiners = partitions * waves
        durations = stats.worker_durations
        assert len(durations) == stats.num_workers
        scan_wave = max(durations[:-joiners])
        join_waves = 0.0
        for start in range(stats.num_workers - joiners, stats.num_workers, partitions):
            join_waves += max(durations[start : start + partitions])
        backoff = stats.resilience.backoff_seconds
        assert backoff == 0.0

        launch = InvocationModel(region="eu").plan(stats.num_workers, cold=stats.cold)
        assert stats.invocation_seconds == launch.time_to_start_all
        final_wave = np.asarray(durations[-partitions:])
        collection = launch.collection(
            stats.invocation_seconds + (scan_wave + join_waves + backoff)
            - final_wave.max() + final_wave
        )
        assert stats.latency_seconds == collection.finish
        assert stats.collection_seconds == collection.seconds
        assert stats.collection_pollers == collection.pollers == 1
        assert stats.collection_receives == collection.receives
        assert 1 <= collection.receives <= partitions
        assert (collection.receives == 1) == (partitions == 1)
        assert stats.latency_seconds == pytest.approx(
            stats.invocation_seconds + scan_wave + join_waves + stats.collection_seconds
        )
        assert round_trip * (1 - 1e-9) <= stats.collection_seconds <= 2 * round_trip
        if partitions == 1:
            assert stats.collection_seconds == pytest.approx(round_trip)
        # The bill is the SQS requests the query made: one send per worker
        # and the receives that drained every wave.
        assert sqs >= stats.num_workers + len(stats.wave_stages) + 1
        assert stats.cost_sqs_requests == env.ledger.prices.sqs_cost(int(sqs))

        line = stats.describe_latency()
        plural = "" if waves == 1 else "s"
        assert line.startswith(f"latency {stats.latency_seconds:.3f} s = launch ")
        assert f" + scan wave {scan_wave:.3f} + {waves} join wave{plural} {join_waves:.3f}" in line
        assert line.endswith(
            f"collection {stats.collection_seconds:.3f} "
            f"(1 poller, {collection.receives} receive{'s' if collection.receives > 1 else ''})"
        )
        explained = result.explain().splitlines()
        assert explained[-3] == line and explained[-1].startswith("executed: wave 1 = ")
