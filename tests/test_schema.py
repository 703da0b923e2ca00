"""Tests for schema and column types."""

import numpy as np
import pytest

from repro.errors import SchemaMismatchError, UnknownColumnError, UnsupportedTypeError
from repro.formats.schema import ColumnType, Field, Schema


def test_column_type_numpy_roundtrip():
    for ctype in ColumnType:
        assert ColumnType.from_numpy(ctype.numpy_dtype) is ctype


def test_column_type_item_sizes():
    assert ColumnType.INT32.item_size == 4
    assert ColumnType.INT64.item_size == 8
    assert ColumnType.FLOAT64.item_size == 8


def test_from_numpy_widens_small_ints():
    assert ColumnType.from_numpy(np.dtype("int16")) is ColumnType.INT32


def test_from_numpy_maps_float32_to_float64():
    assert ColumnType.from_numpy(np.dtype("float32")) is ColumnType.FLOAT64


def test_from_numpy_rejects_strings():
    with pytest.raises(UnsupportedTypeError):
        ColumnType.from_numpy(np.dtype("U10"))


def test_schema_from_pairs_and_lookup():
    schema = Schema.from_pairs([("a", ColumnType.INT64), ("b", ColumnType.FLOAT64)])
    assert schema.names == ["a", "b"]
    assert schema.field("b").type is ColumnType.FLOAT64
    assert schema.index_of("b") == 1
    assert "a" in schema
    assert "z" not in schema
    assert len(schema) == 2


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaMismatchError):
        Schema.from_pairs([("a", ColumnType.INT64), ("a", ColumnType.INT32)])


def test_schema_unknown_column_raises():
    schema = Schema.from_pairs([("a", ColumnType.INT64)])
    with pytest.raises(UnknownColumnError):
        schema.field("b")
    with pytest.raises(UnknownColumnError):
        schema.index_of("b")


def test_schema_from_table_infers_types():
    table = {"x": np.zeros(3, dtype=np.int64), "y": np.zeros(3, dtype=np.float64)}
    schema = Schema.from_table(table)
    assert schema.field("x").type is ColumnType.INT64
    assert schema.field("y").type is ColumnType.FLOAT64


def test_schema_select_preserves_order():
    schema = Schema.from_pairs(
        [("a", ColumnType.INT64), ("b", ColumnType.INT32), ("c", ColumnType.FLOAT64)]
    )
    selected = schema.select(["c", "a"])
    assert selected.names == ["c", "a"]


def test_validate_table_accepts_matching():
    schema = Schema.from_pairs([("a", ColumnType.INT64)])
    schema.validate_table({"a": np.zeros(3, dtype=np.int64)})


def test_validate_table_missing_column():
    schema = Schema.from_pairs([("a", ColumnType.INT64), ("b", ColumnType.INT64)])
    with pytest.raises(SchemaMismatchError):
        schema.validate_table({"a": np.zeros(3, dtype=np.int64)})


def test_validate_table_extra_column():
    schema = Schema.from_pairs([("a", ColumnType.INT64)])
    with pytest.raises(SchemaMismatchError):
        schema.validate_table({"a": np.zeros(3), "b": np.zeros(3)})


def test_validate_table_ragged_columns():
    schema = Schema.from_pairs([("a", ColumnType.INT64), ("b", ColumnType.INT64)])
    with pytest.raises(SchemaMismatchError):
        schema.validate_table({"a": np.zeros(3), "b": np.zeros(4)})


def test_schema_survives_a_file_footer():
    """The serialised form of a schema is the LPQ footer's schema section."""
    from repro.formats.parquet import ColumnarFile, ColumnarWriter

    schema = Schema.from_pairs(
        [("a", ColumnType.INT64), ("bé", ColumnType.FLOAT64), ("x", ColumnType.INT32)]
    )
    data = ColumnarWriter(schema).write({name: np.arange(3) for name in schema.names})
    restored = ColumnarFile.from_bytes(data).schema
    assert restored == schema
    assert restored.fields == [
        Field("a", ColumnType.INT64), Field("bé", ColumnType.FLOAT64), Field("x", ColumnType.INT32)
    ]


def test_schema_equality_and_repr():
    first = Schema.from_pairs([("a", ColumnType.INT64)])
    second = Schema.from_pairs([("a", ColumnType.INT64)])
    third = Schema.from_pairs([("a", ColumnType.INT32)])
    assert first == second
    assert first != third
    assert "a:int64" in repr(first)
