"""Tests for the central statistics catalog and its driver integration."""

import math

import pytest

from repro.driver.catalog import FileStatistics, StatisticsCatalog
from repro.errors import PlanError
from repro.frontend.sql import parse_sql
from repro.plan.physical import PruneRange
from repro.workload.queries import (
    Q6_SHIPDATE_LOWER_DAYS,
    Q6_SHIPDATE_UPPER_DAYS,
    q1_sql,
    q6_sql,
    reference_q6,
    tpch_catalog,
)
from repro.workload.tpch import SHIPDATE_MAX_DAYS


@pytest.fixture
def catalog(env, dataset):
    catalog = StatisticsCatalog(env.dynamodb)
    catalog.register_dataset(env.s3, "lineitem", dataset.paths)
    return catalog


def test_register_records_all_files(env, dataset, catalog):
    assert catalog.dataset_paths("lineitem") == dataset.paths
    for path in dataset.paths:
        statistics = catalog.file_statistics("lineitem", path)
        assert statistics is not None
        assert statistics.num_rows > 0
        assert "l_shipdate" in statistics.column_ranges


def test_unregistered_dataset_raises(env):
    catalog = StatisticsCatalog(env.dynamodb)
    with pytest.raises(PlanError):
        catalog.dataset_paths("missing")


def test_file_statistics_match_data(env, dataset, catalog, lineitem_table):
    ranges = [catalog.file_statistics("lineitem", path).column_ranges["l_shipdate"]
              for path in dataset.paths]
    assert min(low for low, _ in ranges) == lineitem_table["l_shipdate"].min()
    assert max(high for _, high in ranges) == lineitem_table["l_shipdate"].max()


def test_may_match_logic():
    statistics = FileStatistics(
        path="s3://b/f.lpq", num_rows=10, column_ranges={"x": (10.0, 20.0)}
    )
    assert statistics.may_match([PruneRange("x", 15, 25)])
    assert statistics.may_match([PruneRange("x", 5, 12)])
    assert not statistics.may_match([PruneRange("x", 21, 30)])
    assert not statistics.may_match([PruneRange("x", -5, 9)])
    # Unknown columns are conservatively kept.
    assert statistics.may_match([PruneRange("other", 0, 1)])


def test_item_roundtrip():
    statistics = FileStatistics(
        path="s3://b/f.lpq", num_rows=5, column_ranges={"x": (1.0, 2.0), "y": (-3.0, 4.0)}
    )
    restored = FileStatistics.from_item(statistics.to_item())
    assert restored == statistics


def test_files_matching_q6_range(env, dataset, catalog):
    prune = [PruneRange("l_shipdate", Q6_SHIPDATE_LOWER_DAYS, Q6_SHIPDATE_UPPER_DAYS)]
    matching = catalog.files_matching("lineitem", prune)
    # The dataset is sorted by shipdate and split into 4 contiguous files;
    # one year matches at most 2 of them.
    assert 1 <= len(matching) <= 2
    assert set(matching) <= set(dataset.paths)


def test_files_matching_everything_with_wide_range(env, dataset, catalog):
    prune = [PruneRange("l_shipdate", -math.inf, math.inf)]
    assert catalog.files_matching("lineitem", prune) == dataset.paths


def test_prune_paths_keeps_unknown_files(env, dataset, catalog):
    paths = dataset.paths + ["s3://tpch/unknown.lpq"]
    prune = [PruneRange("l_shipdate", SHIPDATE_MAX_DAYS + 1000, SHIPDATE_MAX_DAYS + 2000)]
    kept = catalog.prune_paths(paths, "lineitem", prune)
    assert kept == ["s3://tpch/unknown.lpq"]


def test_prune_paths_no_ranges_is_identity(env, dataset, catalog):
    assert catalog.prune_paths(dataset.paths, "lineitem", []) == dataset.paths


# -- driver integration -----------------------------------------------------------------

def test_driver_skips_pruned_workers_for_q6(env, dataset, driver, catalog, lineitem_table):
    tables = tpch_catalog(lineitem=dataset.paths)
    without_catalog = driver.execute(parse_sql(q6_sql(), tables))
    with_catalog = driver.execute(
        parse_sql(q6_sql(), tables), catalog=catalog, dataset_name="lineitem"
    )
    # Same answer, fewer workers started.
    assert with_catalog.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)
    assert with_catalog.statistics.num_workers < without_catalog.statistics.num_workers
    assert with_catalog.statistics.cost_total < without_catalog.statistics.cost_total


def test_driver_with_catalog_unselective_query_unchanged(env, dataset, driver, catalog):
    tables = tpch_catalog(lineitem=dataset.paths)
    result = driver.execute(parse_sql(q1_sql(), tables), catalog=catalog, dataset_name="lineitem")
    assert result.statistics.num_workers == dataset.num_files


def test_driver_returns_empty_result_when_all_files_pruned(env, dataset, driver, catalog):
    from repro.plan.expressions import col, lit
    from repro.plan.logical import AggregateNode, AggregateSpec, FilterNode, ScanNode

    plan = AggregateNode(
        child=FilterNode(
            child=ScanNode(paths=tuple(dataset.paths)),
            predicate=col("l_shipdate") >= lit(SHIPDATE_MAX_DAYS + 10_000),
        ),
        aggregates=(AggregateSpec("count", None, "n"),),
    )
    reads = env.ledger.total("dynamodb", "read_units")
    result = driver.execute(plan, catalog=catalog, dataset_name="lineitem")
    statistics = result.statistics
    assert statistics.num_workers == 0
    # No row qualifies, and an aggregate without GROUP BY is still one row.
    assert result.table["n"].tolist() == [0.0]
    # No worker ran, but the catalog lookups that pruned every file did:
    # they are the query's whole bill.
    read_units = env.ledger.total("dynamodb", "read_units") - reads
    assert read_units >= dataset.num_files
    assert statistics.cost_total == statistics.cost_dynamodb_requests == (
        int(read_units) / 1e6 * env.ledger.prices.dynamodb_read_per_million
    )
    assert statistics.cost_total > 0.0
    for component in ("lambda_duration", "lambda_requests", "s3_requests", "sqs_requests"):
        assert getattr(statistics, f"cost_{component}") == 0.0, component


def test_registration_cost_is_one_metadata_read_per_file(env, dataset):
    before = env.ledger.total("s3", "get_requests")
    catalog = StatisticsCatalog(env.dynamodb)
    catalog.register_dataset(env.s3, "lineitem", dataset.paths)
    after = env.ledger.total("s3", "get_requests")
    # Footer + tail + HEAD per file: a handful of small requests, no data reads.
    assert after - before <= 4 * dataset.num_files
