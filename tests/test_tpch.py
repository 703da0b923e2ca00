"""Tests for the TPC-H LINEITEM generator and dataset writer."""

import numpy as np
import pytest

from repro.formats.parquet import ColumnarFile
from repro.workload.tpch import (
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    PART_SCHEMA,
    CURRENTDATE_DAYS,
    PART_TYPE_CODES,
    PROMO_TYPE_CODES,
    SHIPDATE_MAX_DAYS,
    SHIPDATE_MIN_DAYS,
    LineitemGenerator,
    OrdersGenerator,
    PartGenerator,
    generate_lineitem_dataset,
    generate_orders_dataset,
    generate_part_dataset,
    lineitem_orderkey_domain,
)


def test_row_count_scales_with_scale_factor():
    assert LineitemGenerator(0.001).num_rows == pytest.approx(6001, abs=1)
    assert LineitemGenerator(0.01).num_rows == pytest.approx(60012, abs=2)


def test_generator_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        LineitemGenerator(0)


def test_generated_columns_match_schema(lineitem_table):
    assert set(lineitem_table.keys()) == set(LINEITEM_SCHEMA.names)
    for name, column in lineitem_table.items():
        assert column.dtype == LINEITEM_SCHEMA.field(name).type.numpy_dtype


def test_generation_is_deterministic():
    first = LineitemGenerator(0.0005, seed=11).generate()
    second = LineitemGenerator(0.0005, seed=11).generate()
    np.testing.assert_array_equal(first["l_extendedprice"], second["l_extendedprice"])
    different = LineitemGenerator(0.0005, seed=12).generate()
    assert not np.array_equal(first["l_extendedprice"], different["l_extendedprice"])


def test_value_domains(lineitem_table):
    assert lineitem_table["l_quantity"].min() >= 1
    assert lineitem_table["l_quantity"].max() <= 50
    assert lineitem_table["l_discount"].min() >= 0.0
    assert lineitem_table["l_discount"].max() <= 0.10 + 1e-12
    assert lineitem_table["l_tax"].max() <= 0.08 + 1e-12
    assert lineitem_table["l_shipdate"].min() >= SHIPDATE_MIN_DAYS
    assert lineitem_table["l_shipdate"].max() <= SHIPDATE_MAX_DAYS
    assert set(np.unique(lineitem_table["l_returnflag"])) <= {0, 1, 2}
    assert set(np.unique(lineitem_table["l_linestatus"])) <= {0, 1}


def test_sorted_by_shipdate(lineitem_table):
    shipdate = lineitem_table["l_shipdate"]
    assert np.all(np.diff(shipdate) >= 0)


def test_returnflag_correlates_with_shipdate(lineitem_table):
    recent = lineitem_table["l_shipdate"] > CURRENTDATE_DAYS
    assert np.all(lineitem_table["l_returnflag"][recent] == 2)
    assert np.all(lineitem_table["l_linestatus"][recent] == 1)
    assert np.all(lineitem_table["l_linestatus"][~recent] == 0)


def test_receiptdate_after_shipdate(lineitem_table):
    assert np.all(lineitem_table["l_receiptdate"] > lineitem_table["l_shipdate"])


def test_explicit_row_count_override():
    table = LineitemGenerator(1.0).generate(num_rows=123)
    assert len(table["l_orderkey"]) == 123


# -- dataset writer ------------------------------------------------------------------

def test_dataset_files_written_and_readable(env, dataset):
    assert dataset.num_files == 4
    assert dataset.total_rows == 6001
    total = 0
    for path in dataset.paths:
        bucket, key = path[len("s3://"):].split("/", 1)
        reader = ColumnarFile.from_bytes(env.s3.get_object(bucket, key).data)
        assert reader.schema == LINEITEM_SCHEMA
        total += reader.num_rows
    assert total == dataset.total_rows


def test_dataset_files_cover_disjoint_shipdate_ranges(env, dataset):
    """Files cover contiguous, non-overlapping shipdate ranges (the property
    that makes per-file min/max pruning effective, §5.1/§5.3)."""
    ranges = []
    for path in dataset.paths:
        bucket, key = path[len("s3://"):].split("/", 1)
        reader = ColumnarFile.from_bytes(env.s3.get_object(bucket, key).data)
        mins = [g.column_meta("l_shipdate").min_value for g in reader.row_groups]
        maxes = [g.column_meta("l_shipdate").max_value for g in reader.row_groups]
        ranges.append((min(mins), max(maxes)))
    for (prev_min, prev_max), (next_min, next_max) in zip(ranges, ranges[1:]):
        assert prev_max <= next_min


def test_dataset_glob_matches_all_files(env, dataset):
    assert sorted(env.s3.glob(dataset.glob)) == sorted(dataset.paths)


def test_dataset_info_bytes_match_store(env, dataset):
    assert dataset.total_bytes == env.s3.total_bytes("tpch")


def test_generate_rejects_bad_file_count(env):
    with pytest.raises(ValueError):
        generate_lineitem_dataset(env.s3, scale_factor=0.001, num_files=0)


# ---------------------------------------------------------------------------
# ORDERS and PART generators (join workloads)
# ---------------------------------------------------------------------------

def test_orders_keys_are_unique_and_in_lineitem_domain():
    generator = OrdersGenerator(scale_factor=0.001, seed=7)
    table = generator.generate()
    keys = table["o_orderkey"]
    assert len(np.unique(keys)) == len(keys)
    domain = lineitem_orderkey_domain(0.001)
    assert keys.min() >= 1
    assert keys.max() < domain
    assert len(keys) == generator.num_rows


def test_orders_sorted_by_orderdate():
    table = OrdersGenerator(scale_factor=0.001, seed=7).generate()
    assert np.all(np.diff(table["o_orderdate"]) >= 0)


def test_orders_columns_match_schema():
    table = OrdersGenerator(scale_factor=0.001).generate()
    assert list(table) == ORDERS_SCHEMA.names


def test_orders_generation_is_deterministic():
    first = OrdersGenerator(scale_factor=0.001, seed=3).generate()
    second = OrdersGenerator(scale_factor=0.001, seed=3).generate()
    for name in first:
        np.testing.assert_array_equal(first[name], second[name])


def test_most_lineitems_match_an_order(lineitem_table):
    orders = OrdersGenerator(scale_factor=0.001, seed=7).generate()
    matched = np.isin(lineitem_table["l_orderkey"], orders["o_orderkey"])
    # ORDERS covers a quarter of the key domain, so roughly a quarter of the
    # lineitems join; the exact share varies with the draw.
    assert 0.05 < matched.mean() < 0.6


def test_part_covers_full_lineitem_partkey_domain(lineitem_table):
    part = PartGenerator(scale_factor=0.001, seed=7).generate()
    assert np.array_equal(part["p_partkey"], np.arange(1, len(part["p_partkey"]) + 1))
    assert np.isin(lineitem_table["l_partkey"], part["p_partkey"]).all()


def test_part_promo_flag_matches_type_codes():
    part = PartGenerator(scale_factor=0.01, seed=7).generate()
    np.testing.assert_array_equal(
        part["p_promo"], (part["p_type"] < PROMO_TYPE_CODES).astype(np.int32)
    )
    assert part["p_type"].min() >= 0
    assert part["p_type"].max() < PART_TYPE_CODES
    assert 0 < part["p_promo"].mean() < 1


def test_orders_dataset_written_and_readable(env):
    info = generate_orders_dataset(
        env.s3, scale_factor=0.001, num_files=3, row_group_rows=512
    )
    assert info.num_files == 3
    assert info.schema is ORDERS_SCHEMA
    total = 0
    for path in info.paths:
        bucket, key = path[len("s3://"):].split("/", 1)
        reader = ColumnarFile.from_bytes(env.s3.get_object(bucket, key).data)
        assert reader.schema == ORDERS_SCHEMA
        total += reader.num_rows
    assert total == info.total_rows


def test_part_dataset_written_and_readable(env):
    info = generate_part_dataset(
        env.s3, scale_factor=0.001, num_files=2, row_group_rows=512
    )
    assert info.num_files == 2
    assert info.schema is PART_SCHEMA
    assert info.total_rows == PartGenerator(scale_factor=0.001).num_rows
    bucket, key = info.paths[0][len("s3://"):].split("/", 1)
    reader = ColumnarFile.from_bytes(env.s3.get_object(bucket, key).data)
    assert reader.schema == PART_SCHEMA


def test_orders_dataset_files_cover_disjoint_orderdate_ranges(env):
    info = generate_orders_dataset(
        env.s3, scale_factor=0.001, num_files=3, row_group_rows=512
    )
    ranges = []
    for path in info.paths:
        bucket, key = path[len("s3://"):].split("/", 1)
        reader = ColumnarFile.from_bytes(env.s3.get_object(bucket, key).data)
        mins = [g.column_meta("o_orderdate").min_value for g in reader.row_groups]
        maxes = [g.column_meta("o_orderdate").max_value for g in reader.row_groups]
        ranges.append((min(mins), max(maxes)))
    for (_, prev_max), (next_min, _) in zip(ranges, ranges[1:]):
        assert prev_max <= next_min
