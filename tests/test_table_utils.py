"""Tests for in-memory table utilities."""

import numpy as np
import pytest

from repro.engine.payload import decode_table, encode_table
from repro.engine.table import (
    concat_tables,
    empty_table_like,
    filter_table,
    select_columns,
    sort_table,
    table_num_rows,
    tables_allclose,
    take_rows,
)
from repro.errors import ExecutionError, UnknownColumnError


def test_num_rows(small_table):
    assert table_num_rows(small_table) == 5
    assert table_num_rows({}) == 0


def test_num_rows_ragged_raises():
    with pytest.raises(ExecutionError):
        table_num_rows({"a": np.zeros(2), "b": np.zeros(3)})


def test_select_columns(small_table):
    selected = select_columns(small_table, ["value", "key"])
    assert list(selected.keys()) == ["value", "key"]


def test_select_missing_column_raises(small_table):
    with pytest.raises(UnknownColumnError):
        select_columns(small_table, ["nope"])


def test_filter_table(small_table):
    mask = np.array([True, False, True, False, True])
    filtered = filter_table(small_table, mask)
    np.testing.assert_array_equal(filtered["key"], [1, 3, 5])


def test_filter_table_accepts_int_mask(small_table):
    mask = np.array([1, 0, 0, 0, 1])
    assert table_num_rows(filter_table(small_table, mask)) == 2


def test_filter_wrong_length_raises(small_table):
    with pytest.raises(ExecutionError):
        filter_table(small_table, np.array([True]))


def test_concat_tables(small_table):
    combined = concat_tables([small_table, small_table])
    assert table_num_rows(combined) == 10


def test_concat_skips_empty_and_handles_all_empty(small_table):
    assert table_num_rows(concat_tables([{}, small_table])) == 5
    assert concat_tables([{}, {}]) == {}


def test_concat_mismatched_columns_raises(small_table):
    with pytest.raises(ExecutionError):
        concat_tables([small_table, {"other": np.zeros(2)}])


def test_take_rows(small_table):
    taken = take_rows(small_table, np.array([4, 0]))
    np.testing.assert_array_equal(taken["key"], [5, 1])


def test_empty_table_like():
    table = empty_table_like(["a", "b"])
    assert table_num_rows(table) == 0
    assert set(table.keys()) == {"a", "b"}


def test_payload_roundtrip(small_table):
    restored = decode_table(encode_table(small_table))
    for name in small_table:
        assert restored[name].dtype == small_table[name].dtype
        np.testing.assert_array_equal(restored[name], small_table[name])


def test_tables_allclose(small_table):
    assert tables_allclose(small_table, {k: v.copy() for k, v in small_table.items()})
    other = {k: v.copy() for k, v in small_table.items()}
    other["value"] = other["value"] + 1e-3
    assert not tables_allclose(small_table, other)
    assert not tables_allclose(small_table, {"key": small_table["key"]})


def test_sort_table_single_key():
    table = {"k": np.array([3, 1, 2]), "v": np.array([30.0, 10.0, 20.0])}
    result = sort_table(table, ["k"])
    np.testing.assert_array_equal(result["k"], [1, 2, 3])
    np.testing.assert_array_equal(result["v"], [10.0, 20.0, 30.0])


def test_sort_table_multiple_keys_lexicographic():
    table = {
        "a": np.array([1, 0, 1, 0]),
        "b": np.array([1, 1, 0, 0]),
    }
    result = sort_table(table, ["a", "b"])
    np.testing.assert_array_equal(result["a"], [0, 0, 1, 1])
    np.testing.assert_array_equal(result["b"], [0, 1, 0, 1])


def test_sort_table_descending():
    table = {"k": np.array([1, 3, 2])}
    result = sort_table(table, ["k"], descending=True)
    np.testing.assert_array_equal(result["k"], [3, 2, 1])


def test_sort_table_no_keys_is_identity(small_table):
    assert sort_table(small_table, []) is small_table


def test_sort_table_missing_key_raises(small_table):
    with pytest.raises(UnknownColumnError):
        sort_table(small_table, ["missing"])
