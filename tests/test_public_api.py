"""Tests for the public package surface (imports, exports, version, examples)."""

import importlib
import pathlib
import subprocess
import sys

import pytest

import repro


def test_version_is_exposed():
    assert repro.__version__
    assert repro.__version__.count(".") == 2


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_subpackages_import_cleanly():
    for module in (
        "repro.cloud",
        "repro.formats",
        "repro.frontend",
        "repro.plan",
        "repro.engine",
        "repro.driver",
        "repro.exchange",
        "repro.workload",
        "repro.baselines",
        "repro.analysis",
        "repro.cli",
    ):
        importlib.import_module(module)


def test_subpackage_all_exports_resolve():
    for module_name in (
        "repro.cloud",
        "repro.formats",
        "repro.frontend",
        "repro.plan",
        "repro.engine",
        "repro.driver",
        "repro.exchange",
        "repro.workload",
        "repro.baselines",
    ):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"


def test_public_functions_have_docstrings():
    """Every public callable exported at the top level is documented."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"{name} lacks a docstring"


def test_examples_exist_and_compile():
    """Every example compiles and runs to completion (an example importing a
    name the package no longer has compiles, but does not run)."""
    examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
    scripts = sorted(examples_dir.glob("*.py"))
    assert len(scripts) >= 3
    for script in scripts:
        compile(script.read_text(), str(script), "exec")
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, f"{script.name}: {result.stderr}"


@pytest.mark.parametrize("script", ["quickstart.py"])
def test_quickstart_example_runs(script):
    examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
    result = subprocess.run(
        [sys.executable, str(examples_dir / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "revenue" in result.stdout


def test_nway_join_example_runs():
    examples_dir = pathlib.Path(__file__).resolve().parent.parent / "examples"
    result = subprocess.run(
        [sys.executable, str(examples_dir / "nway_join_dag.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "join DAG stages:        5" in result.stdout
    assert "discovery LIST/HEAD:    0" in result.stdout


# ---------------------------------------------------------------------------
# The stable facade: connect() -> Session -> QueryResult
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def facade_session():
    from repro.workload.tpch import (
        generate_customer_dataset,
        generate_lineitem_dataset,
        generate_orders_dataset,
    )

    session = repro.connect()
    session.register(
        generate_lineitem_dataset(session.env.s3, scale_factor=0.002, num_files=4)
    )
    session.register(
        generate_orders_dataset(session.env.s3, scale_factor=0.002, num_files=2)
    )
    session.register(generate_customer_dataset(session.env.s3, scale_factor=0.002))
    yield session
    session.close()


def test_connect_defaults_create_environment():
    session = repro.connect()
    assert session.env is session.driver.env
    assert session.tables() == []


def test_facade_sql_returns_rows_statistics_explain(facade_session):
    result = facade_session.sql(
        "SELECT count(*) AS n FROM lineitem WHERE l_discount >= 0.05"
    )
    assert len(result.rows) == 1
    assert isinstance(result.rows[0]["n"], float)
    assert result.rows[0]["n"] > 0
    assert result.statistics.cost_total > 0
    explain = result.explain()
    assert "wave 0" in explain
    assert "partial agg" in explain


def test_facade_sql_join_dag(facade_session):
    from repro.workload.queries import q18_sql

    result = facade_session.sql(q18_sql(limit=5))
    assert result.num_rows == 5
    assert result.statistics.dag_stages == 2
    assert {"c_custkey", "o_orderkey", "o_totalprice", "sum_qty"} == set(
        result.rows[0]
    )
    explain = result.explain()
    assert "join order" in explain
    assert "join stage 0" in explain
    assert "join stage 1" in explain


def test_facade_explain_without_execution(facade_session):
    from repro.workload.queries import q18_sql

    text = facade_session.explain(q18_sql())
    assert "join order" in text
    assert "wave 0: map" in text


def test_facade_register_table_and_dataflow(facade_session):
    from repro import col

    paths = facade_session.catalog.paths_of("lineitem")
    facade_session.register_table("li2", paths)
    assert "li2" in facade_session.tables()
    count = facade_session.sql("SELECT count(*) AS n FROM li2").rows[0]["n"]
    flow_count = (
        facade_session.dataflow(list(paths)).count(alias="n").collect().rows[0]["n"]
    )
    assert count == flow_count


# -- the statistics' public names -------------------------------------------
#
# ``benchmarks/e2e/run.py`` reads the statistics with ``getattr(…, 0)``: a
# dropped name would silently read 0 and an added alias could silently double
# count (``plan.workers`` sums ``num_workers``, ``map_workers`` and
# ``reduce_workers`` over whatever object a query returned, and
# ``modelled_latency_s`` sums ``latency_seconds`` and
# ``modelled_latency_seconds``).  Every query — a scan, a DAG, the
# aggregation facade's run — reports one record, so each quantity has one
# name: the names the statistics objects and their blocks had while each
# block was a class of its own, less the mutators and (de)serialisers the one
# counter record replaced (``merge``, ``from_dict``, ``note_fallback``,
# ``note_mismatch``) and the coordinator run's second names for a latency, a
# fleet size and a worker time, plus ``trace``, the query's span tree as
# Chrome trace-event JSON.  The timings are views over that tree, so a
# statistics object is built from its planned fields alone.

QUERY_STATISTICS_NAMES = {
    "broadcast_stages", "bytes_read", "cold", "collection_pollers", "collection_receives",
    "collection_seconds", "column_chunks_skipped", "cost_dynamodb_requests",
    "cost_lambda_duration", "cost_lambda_requests", "cost_s3_requests", "cost_sqs_requests",
    "cost_total",
    "dag_stages", "describe_latency", "estimated_exchange_bytes", "exchange",
    "exchange_partitions", "gc_list_requests", "gc_objects_deleted", "get_requests",
    "integrity", "invocation_seconds", "join_build_rows", "join_output_rows",
    "join_probe_rows", "join_waves", "latency_seconds", "map_fleets", "max_worker_seconds",
    "median_worker_seconds", "memory_mib", "num_workers", "overload",
    "partition_objects_read", "partition_objects_written", "redispatches", "resilience",
    "result_rows", "results_spilled", "row_groups_shortcircuited", "rows_decode_saved",
    "rows_scanned", "trace", "wave_stages", "worker_durations",
}
BLOCK_NAMES = {
    "exchange": {
        "bytes_read", "bytes_touched", "bytes_written", "combined_put_requests",
        "empty_parts_elided", "get_requests", "head_requests", "list_requests",
        "put_requests", "ranged_get_requests", "to_dict", "total_requests",
    },
    "resilience": {
        "backoff_seconds", "clean", "duplicate_messages_ignored", "fallbacks",
        "faults_injected", "hedges_launched", "hedges_lost", "hedges_won", "pool_respawns",
        "retries", "stale_messages_ignored", "to_dict", "wasted_cost_dollars", "wave_retries",
    },
    "integrity": {
        "clean", "mismatches", "re_executions", "re_reads", "to_dict", "verified_bytes",
    },
}


def _public(value) -> set:
    return {name for name in dir(value) if not name.startswith("_")}


def test_statistics_expose_exactly_their_public_names():
    from repro.driver.driver import QueryStatistics

    query = QueryStatistics(num_workers=0, memory_mib=2048, cold=False)
    assert _public(query) == QUERY_STATISTICS_NAMES
    # Dollars are views over a bill; statistics built without one bill nothing.
    assert query.cost_total == query.cost_dynamodb_requests == 0.0
    for block, names in BLOCK_NAMES.items():
        view = getattr(query, block)
        assert _public(view) == names, block
        # Every listed name reads (nothing answers only through dir()).
        assert all(getattr(view, name) is not None for name in names), block
        assert set(view.to_dict()) == names - {"clean", "to_dict", "total_requests"}
