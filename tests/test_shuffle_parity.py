"""Parity fuzz tests for the shuffle I/O plane.

The shuffle-aggregate result must be *bit-for-bit* identical to the
driver-merge reference (per-mapper partial aggregates merged and finalised
centrally).  The fuzz sweep covers random tables across dtypes, NaN group
keys, string keys, and group counts small enough that most mapper×reducer
partitions are empty.
"""

import numpy as np
import pytest

from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.engine.aggregates import finalize_aggregates, merge_partials, partial_aggregate
from repro.engine.table import sort_table
from repro.formats.compression import Compression
from repro.formats.parquet import write_table
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.plan.optimizer import _decompose_aggregates


def _random_table(rng: np.random.Generator, num_rows: int, num_groups: int, nan_keys: bool):
    key = rng.integers(0, num_groups, num_rows).astype(np.int64)
    fkey = np.round(rng.integers(0, max(num_groups // 2, 1), num_rows) * 0.5, 1)
    if nan_keys:
        fkey[rng.random(num_rows) < 0.1] = np.nan
    return {
        "key": key,
        "fkey": fkey,
        # The LPQ format is numeric-only (the paper modifies dbgen likewise),
        # so the low-cardinality flag is an int32 code like l_returnflag.
        "flag": rng.integers(0, 3, num_rows).astype(np.int32),
        "value": rng.normal(0.0, 100.0, num_rows),
        "qty": rng.integers(1, 50, num_rows).astype(np.int64),
    }


def _write_dataset(env, rng: np.random.Generator, num_files: int, nan_keys: bool):
    """Random LPQ files, one row group each (so map-wave chunking is fixed)."""
    env.s3.ensure_bucket("fuzz")
    paths, tables = [], []
    for index in range(num_files):
        num_rows = int(rng.integers(5, 120))
        num_groups = int(rng.integers(2, 25))
        table = _random_table(rng, num_rows, num_groups, nan_keys)
        data = write_table(table, row_group_rows=4096, compression=Compression.FAST)
        key = f"fuzz-{index}.lpq"
        env.s3.put_object("fuzz", key, data)
        paths.append(f"s3://fuzz/{key}")
        tables.append(table)
    return paths, tables


def _driver_merge_reference(tables, group_by, aggregates):
    """The driver-merge path: per-mapper partials, merged and finalised
    centrally, with one mapper per file in mapper order."""
    partial_specs, final_specs = _decompose_aggregates(list(aggregates))
    mapper_partials = [
        merge_partials(
            [partial_aggregate(table, group_by, partial_specs)], group_by, partial_specs
        )
        for table in tables
    ]
    merged = merge_partials(mapper_partials, group_by, partial_specs)
    result = finalize_aggregates(merged, list(group_by), list(final_specs))
    return sort_table(result, list(group_by))


def _assert_tables_identical(actual, expected, context, strict_dtypes=True):
    """Bit-for-bit column equality.

    ``strict_dtypes=False`` widens integer columns to int64 first: the result
    *transport* (JSON payload for tiny tables) widens small ints identically
    on every execution path, so value equality is the meaningful check when
    comparing against an in-memory reference that never travelled.
    """
    assert list(actual.keys()) == list(expected.keys()), context
    for name in expected:
        left, right = np.asarray(actual[name]), np.asarray(expected[name])
        if not strict_dtypes:
            if left.dtype.kind in "iu":
                left = left.astype(np.int64)
            if right.dtype.kind in "iu":
                right = right.astype(np.int64)
        assert left.dtype == right.dtype, f"{context}: dtype of {name!r}"
        np.testing.assert_array_equal(left, right, err_msg=f"{context}: column {name!r}")


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_shuffle_parity_fuzz(env, seed):
    rng = np.random.default_rng(seed)
    num_files = int(rng.integers(3, 9))
    nan_keys = bool(rng.integers(0, 2))
    paths, tables = _write_dataset(env, rng, num_files, nan_keys)

    key_choices = [["key"], ["fkey"], ["flag"], ["key", "flag"], ["fkey", "flag"]]
    group_by = key_choices[int(rng.integers(0, len(key_choices)))]
    aggregates = [
        AggregateSpec("sum", col("value"), "total"),
        AggregateSpec("count", None, "n"),
        AggregateSpec("min", col("qty"), "lo"),
        AggregateSpec("max", col("qty"), "hi"),
        AggregateSpec("avg", col("value"), "mean"),
    ]
    reference = _driver_merge_reference(tables, group_by, aggregates)

    # One mapper per file, as the reference merges them: a few KB would
    # otherwise be priced at one mapper and one reducer.
    result, statistics = ShuffleAggregateCoordinator(env, num_buckets=4).execute(
        paths, group_by=group_by, aggregates=aggregates, order_by=group_by,
        num_workers=num_files,
    )
    _assert_tables_identical(result, reference, f"seed {seed}", strict_dtypes=False)
    assert statistics.map_fleets == {"L": num_files}
    assert statistics.exchange.put_requests == num_files
    assert statistics.exchange.combined_put_requests == num_files
