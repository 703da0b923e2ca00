"""Parity tests for encoding-aware predicate evaluation and late materialization.

Pins the encoded-chunk fast paths — :func:`evaluate_comparison`,
:func:`decode_gather`, :func:`encoded_key_codes` and the selection-vector
scan — to the decoded ``evaluate``-then-mask baseline across
PLAIN/RLE/DICTIONARY/FOR/DELTA chunks, every comparison operator,
empty/all-true/all-false selections, and mixed-encoding row groups.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import ObjectStore
from repro.engine.pipeline import execute_worker_plan_table
from repro.engine.scan import S3ScanOperator
from repro.engine.table import concat_tables, table_num_rows
from repro.formats.compression import Compression
from repro.formats.encoding import (
    Encoding,
    decode_column,
    decode_gather,
    encode_column,
    encoded_key_codes,
    evaluate_comparison,
    parse_encoded_chunk,
)
from repro.formats.parquet import ColumnarWriter
from repro.formats.schema import ColumnType, Schema
from repro.plan.expressions import col, compile_predicate, evaluate, lit
from repro.plan.logical import AggregateSpec
from repro.plan.physical import WorkerPlan

ALL_OPS = ["==", "!=", "<", "<=", ">", ">="]
ALL_ENCODINGS = list(Encoding)
UFUNCS = {
    "==": np.equal, "!=": np.not_equal,
    "<": np.less, "<=": np.less_equal,
    ">": np.greater, ">=": np.greater_equal,
}


def _chunk_datasets(rng):
    """(values, column_type) pairs covering dtypes and degenerate shapes."""
    return [
        (rng.integers(0, 8, 500).astype(np.int32), ColumnType.INT32),
        (np.sort(rng.integers(0, 40, 500)).astype(np.int64), ColumnType.INT64),
        (np.round(rng.uniform(0.0, 0.1, 500), 2), ColumnType.FLOAT64),
        (np.repeat(np.int64(7), 300), ColumnType.INT64),  # one run, one dict entry, width 0
        (np.zeros(0, dtype=np.float64), ColumnType.FLOAT64),  # empty chunk
        (np.round(rng.uniform(900.0, 105000.0, 500), 2), ColumnType.FLOAT64),  # 4-byte cents
        (rng.integers(0, 3000, 700) * 1000 - 5, ColumnType.INT64),  # 2-byte dictionary codes
        (np.cumsum(rng.integers(1, 90, 500)) + (1 << 35), ColumnType.INT64),  # sorted keys
        (rng.random(400), ColumnType.FLOAT64),  # narrows under no override
    ]


def _encoded(values, column_type, encoding):
    """``(chunk view, decoded array)`` of one chunk under an encoding override."""
    page = encode_column(values, column_type, encoding)
    width, exponent, base = page[1:4]
    arguments = (page.data, column_type, page.encoding, len(values), width, exponent, base)
    decoded = decode_column(*arguments)
    assert decoded.tobytes() == np.asarray(values, dtype=column_type.numpy_dtype).tobytes()
    return parse_encoded_chunk(*arguments), decoded


# -- evaluate_comparison parity -----------------------------------------------------


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_encoded_comparison_matches_decoded(encoding):
    rng = np.random.default_rng(42)
    for values, column_type in _chunk_datasets(rng):
        chunk, decoded = _encoded(values, column_type, encoding)
        # Thresholds that force empty, full, and partial masks.
        thresholds = [-1.0, 0.0, 3.0, 7, 0.05, 50000.0, 1e9, float(1 << 35) + 20000]
        for op in ALL_OPS:
            for threshold in thresholds:
                expected = UFUNCS[op](decoded, threshold)
                observed = evaluate_comparison(chunk, op, threshold)
                np.testing.assert_array_equal(observed, expected)
                assert observed.dtype == np.bool_


# -- decode_gather parity -----------------------------------------------------------


@pytest.mark.parametrize("encoding", ALL_ENCODINGS)
def test_decode_gather_matches_decoded_fancy_index(encoding):
    rng = np.random.default_rng(43)
    for values, column_type in _chunk_datasets(rng):
        chunk, decoded = _encoded(values, column_type, encoding)
        n = len(values)
        selections = [
            np.zeros(0, dtype=np.int64),  # empty selection
            np.arange(n, dtype=np.int64),  # all-true selection
        ]
        if n:
            selections.append(np.flatnonzero(rng.random(n) < 0.05))  # sparse
            selections.append(np.array([0, n - 1], dtype=np.int64))  # boundaries
        for selection in selections:
            gathered = decode_gather(chunk, selection)
            assert gathered.tobytes() == decoded[selection].tobytes()
            assert gathered.dtype == decoded.dtype
        # selection=None is a full decode.
        full = decode_gather(chunk, None)
        assert full.tobytes() == decoded.tobytes()
        assert full.dtype == decoded.dtype


# -- random chunks: every call on the view equals the call on the decoded array -----


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from(["codes", "cents", "keys", "dates", "wide"]),
    encoding=st.sampled_from([None, *Encoding]),
    rows=st.integers(1, 400),
)
def test_encoded_views_equal_the_decoded_array(data, shape, encoding, rows):
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    values, column_type = {
        "codes": (rng.integers(0, 300, rows) * 7919, ColumnType.INT64),
        "cents": (np.round(rng.uniform(-50.0, 70000.0, rows), 2), ColumnType.FLOAT64),
        "keys": (np.cumsum(rng.integers(0, 300, rows)) - (1 << 50), ColumnType.INT64),
        "dates": (rng.integers(8000, 8000 + rows, rows).astype(np.int32), ColumnType.INT32),
        "wide": (rng.integers(-(2 ** 62), 2 ** 62, rows), ColumnType.INT64),
    }[shape]
    chunk, decoded = _encoded(values, column_type, encoding)
    plain = parse_encoded_chunk(decoded.tobytes(), column_type, Encoding.PLAIN, rows)

    selection = np.flatnonzero(rng.random(rows) < data.draw(st.sampled_from([0.0, 0.1, 0.9, 1.0])))
    for picked in (selection, None):
        gathered = decode_gather(chunk, picked)
        assert gathered.dtype == decoded.dtype
        assert gathered.tobytes() == decode_gather(plain, picked).tobytes()
        keyed = encoded_key_codes(chunk, picked)
        if keyed is not None:
            uniques, codes = keyed
            assert np.all(uniques[1:] > uniques[:-1]) and codes.dtype == np.int64
            assert uniques[codes].tobytes() == gathered.tobytes()
        else:
            assert chunk.encoding in (Encoding.PLAIN, Encoding.FOR, Encoding.DELTA)

    threshold = data.draw(st.sampled_from(
        [float(decoded[rng.integers(rows)]), float(np.median(decoded)), -1e30, 1e30, 0.05]
    ))
    for op in ALL_OPS:
        assert np.array_equal(
            evaluate_comparison(chunk, op, threshold), evaluate_comparison(plain, op, threshold)
        )


# -- predicate compilation ----------------------------------------------------------


def test_compile_predicate_splits_conjunction():
    predicate = (col("a") >= 3) & (lit(5) > col("b")) & (col("c") != 0)
    compiled = compile_predicate(predicate)
    assert compiled.residual is None
    assert [(c.column, c.op, c.value) for c in compiled.comparisons] == [
        ("a", ">=", 3),
        ("b", "<", 5),  # literal-on-the-left comparison is flipped
        ("c", "!=", 0),
    ]


def test_compile_predicate_extracts_residual():
    predicate = (col("a") < 10) & ((col("b") * 2) > col("c")) & ((col("d") == 1) | (col("d") == 2))
    compiled = compile_predicate(predicate)
    assert [(c.column, c.op) for c in compiled.comparisons] == [("a", "<")]
    assert compiled.residual is not None
    assert compiled.residual_columns == {"b", "c", "d"}


def test_compile_predicate_none_and_pure_residual():
    assert compile_predicate(None).comparisons == ()
    assert compile_predicate(None).residual is None
    disjunction = (col("a") == 1) | (col("a") == 2)
    compiled = compile_predicate(disjunction)
    assert compiled.comparisons == ()
    assert compiled.residual is disjunction


# -- scan parity over mixed-encoding row groups -------------------------------------


@pytest.fixture
def mixed_encoding_store():
    """An LPQ file whose columns force one encoding each, 6 row groups."""
    rng = np.random.default_rng(7)
    n = 6000
    table = {
        "date": np.sort(rng.integers(0, 60, n)).astype(np.int32),  # RLE-friendly
        "disc": np.round(rng.integers(0, 11, n) / 100.0, 2),  # 11 distinct values
        "qty": rng.integers(1, 51, n).astype(np.int64),
        "price": rng.uniform(900.0, 105000.0, n),  # high cardinality
    }
    schema = Schema.from_table(table)
    writer = ColumnarWriter(
        schema,
        row_group_rows=1000,
        compression=Compression.FAST,
        encodings={
            "date": Encoding.RLE,
            "disc": Encoding.DICTIONARY,
            "qty": Encoding.DICTIONARY,
            "price": Encoding.PLAIN,
        },
    )
    store = ObjectStore()
    store.create_bucket("data")
    store.put_object("data", "mixed.lpq", writer.write(table))
    return store, table


PREDICATES = [
    # Q6 shape: band predicates over three encoded columns.
    (col("date") >= 10) & (col("date") < 20) & (col("disc") >= 0.05)
    & (col("disc") <= 0.07) & (col("qty") < 24),
    # All rows pass (full short-circuit in every group).
    col("qty") >= 1,
    # No row passes (empty short-circuit in every group).
    col("price") < 0,
    # Residual-only predicate (disjunction).
    (col("qty") == 1) | (col("qty") == 50),
    # Mixed: comparisons plus arithmetic residual.
    (col("date") < 30) & ((col("price") * (1 - col("disc"))) > 50000.0),
]


def _reference_scan(store, predicate, columns):
    """The seed path: decode everything, evaluate on arrays, mask-copy."""
    scan = S3ScanOperator(store, ["s3://data/mixed.lpq"], columns=None)
    chunks = []
    for chunk in scan.scan():
        mask = np.asarray(evaluate(predicate, chunk), dtype=bool)
        chunks.append({name: chunk[name][mask] for name in columns})
    return concat_tables(chunks), scan


@pytest.mark.parametrize("index", range(len(PREDICATES)))
def test_scan_predicate_parity_across_paths(mixed_encoding_store, index):
    store, _ = mixed_encoding_store
    predicate = PREDICATES[index]
    columns = ["price", "disc"]
    expected, _ = _reference_scan(store, predicate, columns)

    scan = S3ScanOperator(
        store, ["s3://data/mixed.lpq"], columns=columns, predicate=predicate
    )
    observed = concat_tables(list(scan.scan()))
    if table_num_rows(expected) == 0:
        assert table_num_rows(observed) == 0
        return
    assert list(observed.keys()) == columns
    for name in columns:
        np.testing.assert_array_equal(observed[name], expected[name])
        assert observed[name].dtype == expected[name].dtype


def test_scan_shortcircuit_counters(mixed_encoding_store):
    store, _ = mixed_encoding_store
    # No row anywhere satisfies price < 0: every group short-circuits empty and
    # the projected price/disc chunks are never downloaded.
    scan = S3ScanOperator(
        store,
        ["s3://data/mixed.lpq"],
        columns=["disc"],
        predicate=col("price") < 0,
    )
    assert list(scan.scan()) == []
    assert scan.counters.row_groups_shortcircuit_empty == 6
    assert scan.counters.column_chunks_skipped == 6  # disc, per group
    assert scan.counters.rows_decode_saved == 6000

    # Every row satisfies qty >= 1: full short-circuit, no gather, no saving.
    full = S3ScanOperator(
        store,
        ["s3://data/mixed.lpq"],
        columns=["price"],
        predicate=col("qty") >= 1,
    )
    result = concat_tables(list(full.scan()))
    assert table_num_rows(result) == 6000
    assert full.counters.row_groups_shortcircuit_full == 6
    assert full.counters.rows_decode_saved == 0


def test_empty_selection_downloads_fewer_bytes(mixed_encoding_store):
    store, _ = mixed_encoding_store
    # The projected column (disc) is not a predicate column, so when every
    # selection comes out empty its chunks are never downloaded at all.  A
    # zero break-even keeps the read plan exact (no whole-file open, no hole
    # read-through), so the second batch's requests and bytes are visible.
    exact = BandwidthModel(request_latency_seconds=0.0)
    selective = S3ScanOperator(
        store, ["s3://data/mixed.lpq"], columns=["disc"], predicate=col("price") < 0,
        bandwidth=exact,
    )
    list(selective.scan())
    full = S3ScanOperator(
        store, ["s3://data/mixed.lpq"], columns=["disc"], predicate=col("price") >= 5000,
        bandwidth=exact,
    )
    list(full.scan())
    # Every row group's min/max prove price >= 0: no price page is read.
    proven = S3ScanOperator(
        store, ["s3://data/mixed.lpq"], columns=["disc"], predicate=col("price") >= 0,
        bandwidth=exact,
    )
    list(proven.scan())
    # Open (tail + footer) = 2 GETs; then one batch per row group, or two.
    assert selective.counts["scan", "get_requests"] == 2 + 6
    assert full.counts["scan", "get_requests"] == 2 + 2 * 6
    assert proven.counts["scan", "get_requests"] == 2 + 6
    assert selective.counts["scan", "bytes_read"] < full.counts["scan", "bytes_read"]
    assert selective.counts["scan", "get_requests"] < full.counts["scan", "get_requests"]
    assert proven.counts["scan", "bytes_read"] < full.counts["scan", "bytes_read"]


def test_scan_reads_predicate_columns_not_in_projection(mixed_encoding_store):
    store, table = mixed_encoding_store
    scan = S3ScanOperator(
        store,
        ["s3://data/mixed.lpq"],
        columns=["price"],
        predicate=(col("qty") < 24) & (col("disc") >= 0.05),
    )
    observed = concat_tables(list(scan.scan()))
    mask = (table["qty"] < 24) & (table["disc"] >= 0.05)
    np.testing.assert_array_equal(observed["price"], table["price"][mask])
    assert list(observed.keys()) == ["price"]


# -- pipeline integration ------------------------------------------------------------


def test_pipeline_filter_consumes_scan_selection(mixed_encoding_store):
    store, table = mixed_encoding_store
    predicate = (col("date") >= 10) & (col("date") < 40) & (col("qty") < 10)
    plan = WorkerPlan(
        files=["s3://data/mixed.lpq"],
        columns=["price", "date", "qty"],
        predicate=predicate,
        aggregates=[AggregateSpec("sum", col("price"), "s"), AggregateSpec("count", None, "n")],
    )
    result, partial = execute_worker_plan_table(plan, store)
    mask = (table["date"] >= 10) & (table["date"] < 40) & (table["qty"] < 10)
    assert result.counters["scan", "rows_after_filter"] == int(mask.sum())
    assert result.counters["scan", "rows_scanned"] == 6000
    assert result.counters["scan", "rows_decode_saved"] > 0
    assert partial["n"][0] == pytest.approx(mask.sum())
    assert partial["s"][0] == pytest.approx(table["price"][mask].sum())
    # The new counters survive the result payload round-trip.
    from repro.engine.pipeline import WorkerResult

    restored = WorkerResult.from_payload(result.to_payload()).counters
    counters = result.counters
    assert restored["scan", "rows_decode_saved"] == counters["scan", "rows_decode_saved"]
    assert (
        restored["scan", "row_groups_shortcircuited"]
        == counters["scan", "row_groups_shortcircuited"]
    )
    assert restored["scan", "column_chunks_skipped"] == counters["scan", "column_chunks_skipped"]


def test_expression_and_udf_predicates_conjoin(mixed_encoding_store):
    """A plan with both predicate kinds applies BOTH: the scan consumes the
    expression's selection vector, the UDF conjunct filters on top."""
    store, table = mixed_encoding_store
    from repro.plan.physical import register_udf

    udf_ref = register_udf(lambda row: row[1] < 30)  # row = (price, date, qty)
    plan = WorkerPlan(
        files=["s3://data/mixed.lpq"],
        columns=["price", "date", "qty"],
        predicate=col("qty") < 10,
        predicate_udf=udf_ref,
        aggregates=[AggregateSpec("count", None, "n")],
    )
    result, partial = execute_worker_plan_table(plan, store)
    expected = int(((table["qty"] < 10) & (table["date"] < 30)).sum())
    assert partial["n"][0] == pytest.approx(expected)
    assert result.counters["scan", "rows_after_filter"] == expected


def test_integer_builtin_reduce_keeps_arbitrary_precision():
    """add/mul of integer values must not wrap through a fixed-width ufunc."""
    import operator

    from repro.cloud.s3 import ObjectStore
    from repro.formats.parquet import write_table
    from repro.plan.physical import register_udf

    store = ObjectStore()
    store.create_bucket("big")
    table = {"v": np.full(64, 2, dtype=np.int64)}
    store.put_object("big", "t.lpq", write_table(table))
    plan = WorkerPlan(
        files=["s3://big/t.lpq"],
        columns=["v"],
        reduce_udf=register_udf(operator.mul),
    )
    result, _ = execute_worker_plan_table(plan, store)
    assert result.reduce_value == 2 ** 64  # wraps to 0 under int64


def test_builtin_reduce_is_vectorized_and_exact(mixed_encoding_store):
    import operator

    store, table = mixed_encoding_store
    from repro.plan.physical import register_udf

    ref = register_udf(operator.add)
    assert ref == "builtin-reduce:add"
    plan = WorkerPlan(
        files=["s3://data/mixed.lpq"],
        columns=["qty"],
        map_outputs=[("value", col("qty") * 1)],
        reduce_udf=ref,
    )
    result, _ = execute_worker_plan_table(plan, store)
    assert result.reduce_value == pytest.approx(float(table["qty"].sum()))
    assert not isinstance(result.reduce_value, np.generic)  # JSON-safe scalar

    max_plan = WorkerPlan(
        files=["s3://data/mixed.lpq"],
        columns=["price"],
        map_outputs=[("value", col("price") * 1)],
        reduce_udf=register_udf(max),
    )
    max_result, _ = execute_worker_plan_table(max_plan, store)
    assert max_result.reduce_value == pytest.approx(float(table["price"].max()))


def test_dense_group_factorization_matches_sort_path():
    from repro.engine.aggregates import (
        DENSE_FACTORIZE_MAX_CARDINALITY,
        _dense_factorize,
        _group_indices,
    )

    rng = np.random.default_rng(5)
    combined = rng.integers(0, 1000, 20000)
    expected_codes, expected_inverse = np.unique(combined, return_inverse=True)
    codes, inverse = _dense_factorize(combined, 1000)
    np.testing.assert_array_equal(codes, expected_codes)
    np.testing.assert_array_equal(inverse, expected_inverse)

    # End-to-end through the multi-key group-by (cardinality 12*9 << dense max).
    table = {
        "a": rng.integers(0, 12, 5000),
        "b": rng.integers(0, 9, 5000),
        "v": rng.random(5000),
    }
    assert 12 * 9 <= DENSE_FACTORIZE_MAX_CARDINALITY
    key_table, inverse, num_groups = _group_indices(table, ["a", "b"])
    stacked = np.rec.fromarrays([table["a"], table["b"]], names=["k0", "k1"])
    expected_unique, expected_inverse = np.unique(stacked, return_inverse=True)
    assert num_groups == len(expected_unique)
    np.testing.assert_array_equal(inverse, expected_inverse)
    np.testing.assert_array_equal(key_table["a"], expected_unique["k0"])
    np.testing.assert_array_equal(key_table["b"], expected_unique["k1"])


# -- randomized fuzz over mixed encodings and predicates ----------------------------


def test_fuzz_scan_parity_random_predicates():
    rng = np.random.default_rng(99)
    for trial in range(8):
        n = int(rng.integers(500, 3000))
        table = {
            "r": np.sort(rng.integers(0, int(rng.integers(2, 30)), n)).astype(np.int64),
            "d": rng.integers(0, int(rng.integers(2, 12)), n).astype(np.int32),
            "p": rng.uniform(-1.0, 1.0, n),
        }
        writer = ColumnarWriter(
            Schema.from_table(table),
            row_group_rows=int(rng.integers(200, 900)),
            compression=Compression.NONE,
            encodings={"r": Encoding.RLE, "d": Encoding.DICTIONARY, "p": Encoding.PLAIN},
        )
        data = writer.write(table)
        store = ObjectStore()
        store.create_bucket("f")
        store.put_object("f", "t.lpq", data)

        column, op = ("r", "d", "p")[trial % 3], ALL_OPS[trial % len(ALL_OPS)]
        threshold = float(np.round(rng.uniform(-1, 15), 2))
        ops = {
            "==": np.equal, "!=": np.not_equal,
            "<": np.less, "<=": np.less_equal,
            ">": np.greater, ">=": np.greater_equal,
        }
        predicate = getattr(col(column), {
            "==": "__eq__", "!=": "__ne__", "<": "__lt__",
            "<=": "__le__", ">": "__gt__", ">=": "__ge__",
        }[op])(threshold)
        mask = ops[op](table[column], threshold)

        scan = S3ScanOperator(
            store, ["s3://f/t.lpq"], columns=["p", "r", "d"], predicate=predicate
        )
        observed = concat_tables(list(scan.scan()))
        if not mask.any():
            assert table_num_rows(observed) == 0
            continue
        for name in ("p", "r", "d"):
            np.testing.assert_array_equal(observed[name], table[name][mask])
            assert observed[name].dtype == table[name].dtype
