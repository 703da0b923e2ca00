"""The shape-adaptive group-by factorizer and the segmented batch pass.

Two properties hold the kernel in place: whichever strategy the factorizer
picks it returns what a record-array ``np.unique`` returns, and the
accumulator's one pass over a run of row groups returns the per-row-group
partial tables to the last bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import aggregates
from repro.engine.aggregates import (
    FusedBatchAccumulator,
    _factorize,
    _fits_dense,
    _group_indices,
    partial_aggregate_fused,
)
from repro.engine.scan import FusedBatch
from repro.engine.table import concat_tables
from repro.formats.encoding import unify_codes
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec

# -- (a) factorizer == record-array reference ---------------------------------------

_EXTREME_INTS = [-(2 ** 62) - 3, -(2 ** 62), -7, -1, 0, 1, 5, 2 ** 62, 2 ** 62 + 11]


def _dictionary(rng: np.random.Generator, kind: str, size: int) -> np.ndarray:
    """A strictly ascending dictionary of ``size`` distinct values."""
    if kind == "int":
        pool = np.concatenate(
            [np.array(_EXTREME_INTS, dtype=np.int64), rng.integers(-10 ** 6, 10 ** 6, 4 * size)]
        )
    elif kind == "float":
        pool = np.concatenate([[-1e300, -0.5, 0.0, 1e-300, 2.5e17], rng.normal(size=4 * size)])
    else:
        pool = np.array([chr(code) for code in range(33, 33 + max(size, 1) + 40)])
    distinct = np.unique(pool)
    return np.sort(rng.choice(distinct, size=min(size, len(distinct)), replace=False))


def _reference(keys, names):
    """``(key_table, inverse, num_groups)`` by sorting the keys as records."""
    stacked = np.rec.fromarrays(keys, names=[f"k{i}" for i in range(len(keys))])
    unique, inverse = np.unique(stacked, return_inverse=True)
    table = {name: np.asarray(unique[f"k{i}"]) for i, name in enumerate(names)}
    return table, inverse, len(unique)


def _assert_same_grouping(result, expected):
    key_table, inverse, num_groups = result
    expected_table, expected_inverse, expected_groups = expected
    assert num_groups == expected_groups
    np.testing.assert_array_equal(inverse, expected_inverse)
    assert list(key_table) == list(expected_table)
    for name, column in expected_table.items():
        np.testing.assert_array_equal(key_table[name], column)
        assert key_table[name].dtype == column.dtype


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    num_rows=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 200)),
    kinds=st.lists(st.sampled_from(["int", "float", "str"]), min_size=1, max_size=3),
    # Code space per row, 0.01 .. 10^4: both strategies, well past either edge.
    log_ratio=st.floats(-2.0, 4.0),
)
def test_factorizer_matches_record_array_reference(seed, num_rows, kinds, log_ratio):
    rng = np.random.default_rng(seed)
    names = [f"key{i}" for i in range(len(kinds))]
    target = max(1.0, 10.0 ** log_ratio * max(num_rows, 1))
    size = min(3000, max(1, int(round(target ** (1.0 / len(kinds))))))
    per_key, keys = [], []
    for kind in kinds:
        uniques = _dictionary(rng, kind, size)
        # A dictionary is a superset of what the rows hold, like a chunk's
        # dictionary after filtering.
        codes = rng.integers(0, len(uniques), num_rows)
        per_key.append((uniques, codes))
        keys.append(uniques[codes])

    expected = _reference(keys, names)
    _assert_same_grouping(_factorize(names, per_key, num_rows), expected)
    # The table path derives exact dictionaries from the values first.
    if num_rows:
        _assert_same_grouping(_group_indices(dict(zip(names, keys)), names), expected)


def test_factorizer_takes_both_strategies(monkeypatch):
    """The choice follows the shape, and the dense table is never oversized."""
    seen = []
    dense = aggregates._dense_factorize

    def spy(combined, cardinality):
        seen.append((len(combined), cardinality))
        return dense(combined, cardinality)

    monkeypatch.setattr(aggregates, "_dense_factorize", spy)
    rng = np.random.default_rng(3)
    for num_rows, size in ((5000, 9), (50, 300), (0, 1), (1, 40), (300, 30)):
        uniques = np.arange(size)
        per_key = [(uniques, rng.integers(0, size, num_rows)) for _ in range(2)]
        _factorize(["a", "b"], per_key, num_rows)
    assert seen == [(5000, 81), (0, 1), (300, 900)]
    assert all(_fits_dense(cardinality, rows) for rows, cardinality in seen)


# -- (b) a sparse code space allocates nothing its size -----------------------------


def test_sparse_code_space_allocates_nothing_its_size():
    """130 rows over 1040 x 1040 codes: the parent built >16 MiB of dense tables."""
    rng = np.random.default_rng(11)
    dictionary = np.arange(1040, dtype=np.int64)
    batch = FusedBatch(
        num_rows=130,
        values={"v": rng.random(130)},
        key_codes={
            "a": (dictionary, rng.integers(0, 1040, 130)),
            "b": (dictionary, rng.integers(0, 1040, 130)),
        },
        key_values={},
    )
    specs = [AggregateSpec("sum", col("v"), "s")]
    partial_aggregate_fused(batch, ["a", "b"], specs)  # warm caches outside the window
    tracemalloc.start()
    try:
        result = partial_aggregate_fused(batch, ["a", "b"], specs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert result["s"].sum() == pytest.approx(batch.values["v"].sum())


# -- (c) one segmented pass == the per-row-group path -------------------------------

_SPECS = [
    AggregateSpec("sum", col("v"), "s"),
    AggregateSpec("sum", col("v") * (1 - col("w")), "discounted"),
    AggregateSpec("sum", col("v"), "__m_sum"),
    AggregateSpec("count", col("v"), "__m_count"),
    AggregateSpec("count", None, "n"),
    AggregateSpec("min", col("w"), "lo"),
    AggregateSpec("max", col("v"), "hi"),
]


def _batch(rng, num_rows, keys, as_values=()):
    """A batch of ``num_rows`` rows; ``keys`` maps name -> chunk dictionary."""
    key_codes, key_values = {}, {}
    for name, dictionary in keys.items():
        codes = rng.integers(0, len(dictionary), num_rows)
        if name in as_values:
            key_values[name] = dictionary[codes]
        else:
            key_codes[name] = (dictionary, codes)
    values = {"v": rng.random(num_rows) * 1e4, "w": rng.random(num_rows)}
    return FusedBatch(num_rows=num_rows, values=values, key_codes=key_codes, key_values=key_values)


def _flags(rng, full=False):
    """Chunk dictionaries of two flag columns, the same or differing per chunk."""
    letters, digits = np.array(list("AFNR")), np.array([1, 2, 3], dtype=np.int64)
    if full:
        return {"flag": letters, "status": digits}
    return {
        "flag": np.sort(rng.choice(letters, size=rng.integers(1, 5), replace=False)),
        "status": np.sort(rng.choice(digits, size=rng.integers(1, 4), replace=False)),
    }


def _run_batch(batches):
    """The batches as one run's batch, the way the scan delivers a run: one
    dictionary per key (or the key as values), one count per row group."""
    key_codes, key_values = {}, {}
    for name in {**batches[0].key_codes, **batches[0].key_values}:
        pairs = [batch.key_codes.get(name) for batch in batches]
        unified = None if None in pairs else unify_codes(pairs)
        if unified is None:
            key_values[name] = np.concatenate([batch.materialize_key(name) for batch in batches])
        else:
            key_codes[name] = unified
    return FusedBatch(
        num_rows=sum(batch.num_rows for batch in batches),
        values={
            name: np.concatenate([batch.values[name] for batch in batches])
            for name in batches[0].values
        },
        key_codes=key_codes,
        key_values=key_values,
        group_rows=[batch.num_rows for batch in batches],
    )


def _assert_pass_equals_per_batch(batches, group_by, monkeypatch, expected_calls=None, runs=None):
    """Runs of ``batches`` (``runs``: how many batches each; default all in
    one) through the accumulator equal the batches' own partial tables."""
    per_batch = concat_tables(
        [partial_aggregate_fused(batch, group_by, _SPECS) for batch in batches]
    )
    one_by_one = FusedBatchAccumulator(group_by, _SPECS)
    for batch in batches:
        one_by_one.add(batch)
    # The accumulator reaches the kernel through the module global, the
    # binding the span tracer rebinds.
    calls = []
    kernel = aggregates.partial_aggregate_fused

    def counted(batch, keys, specs):
        calls.append(batch.num_rows)
        return kernel(batch, keys, specs)

    with monkeypatch.context() as patch:
        patch.setattr(aggregates, "partial_aggregate_fused", counted)
        accumulator = FusedBatchAccumulator(group_by, _SPECS)
        start = 0
        for length in runs or [len(batches)]:
            accumulator.add(_run_batch(batches[start:start + length]))
            start += length
        partials = accumulator.finish()
        combined = concat_tables(partials)

    for expected in (per_batch, concat_tables(one_by_one.finish())):
        assert list(combined) == list(expected)
        for name, column in expected.items():
            assert np.array_equal(combined[name], column), name
            assert combined[name].dtype == column.dtype
    assert sum(calls) == sum(batch.num_rows for batch in batches)
    if expected_calls is not None:
        assert len(calls) == expected_calls
    return partials


@pytest.mark.parametrize("seed", range(12))
def test_segmented_pass_equals_per_batch_partials(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    same_dictionaries = seed % 3 == 0
    batches = [
        _batch(rng, int(rng.integers(1, 400)), _flags(rng, full=same_dictionaries))
        for _ in range(int(rng.integers(2, 9)))
    ]
    _assert_pass_equals_per_batch(batches, ["flag", "status"], monkeypatch, expected_calls=1)


def test_pass_skips_an_empty_batch_and_spans_several_flushes(monkeypatch):
    rng = np.random.default_rng(21)
    batches = [_batch(rng, rows, _flags(rng)) for rows in (300, 0, 280, 40, 0, 310, 190, 90)]
    # Runs of 580 and 540 rows, then a lone row group: three kernel calls.
    _assert_pass_equals_per_batch(
        batches, ["flag", "status"], monkeypatch, expected_calls=3, runs=[3, 4, 1]
    )


def test_single_batch_and_no_batches(monkeypatch):
    rng = np.random.default_rng(22)
    _assert_pass_equals_per_batch(
        [_batch(rng, 77, _flags(rng))], ["flag", "status"], monkeypatch, expected_calls=1
    )
    assert FusedBatchAccumulator(["flag"], _SPECS).finish() == []


def test_pass_without_group_by_keeps_one_row_per_batch(monkeypatch):
    """Q6 shape: the batch ordinal is the only key of the pass."""
    rng = np.random.default_rng(23)
    batches = [_batch(rng, rows, {}) for rows in (120, 1, 0, 64, 300)]
    (table,) = _assert_pass_equals_per_batch(batches, [], monkeypatch, expected_calls=1)
    assert list(table) == [spec.alias for spec in _SPECS]
    assert len(table["s"]) == 4


def test_key_delivered_as_values_in_one_batch_and_codes_in_another(monkeypatch):
    rng = np.random.default_rng(24)
    batches = [
        _batch(rng, 200, _flags(rng)),
        _batch(rng, 150, _flags(rng), as_values=("status",)),
        _batch(rng, 90, _flags(rng)),
    ]
    _assert_pass_equals_per_batch(batches, ["flag", "status"], monkeypatch)


def test_high_cardinality_keys_are_aggregated_batch_by_batch(monkeypatch):
    """8 batches x 200 x 200 codes over 512 rows does not fit: no segmented pass."""
    rng = np.random.default_rng(25)
    wide = {"flag": np.arange(200, dtype=np.int64), "status": np.arange(0.0, 200.0)}
    batches = [_batch(rng, 64, wide) for _ in range(8)]
    _assert_pass_equals_per_batch(batches, ["flag", "status"], monkeypatch, expected_calls=8)


def test_aggregate_may_reference_a_code_space_group_key():
    """The parent raised UnknownColumnError: its lazy key lookup failed ``in``."""
    rng = np.random.default_rng(26)
    batches = [_batch(rng, 100, _flags(rng)) for _ in range(4)]
    group_by = ["flag", "status"]
    specs = [AggregateSpec("sum", col("status") * col("v"), "weighted")]
    per_batch = concat_tables(
        [partial_aggregate_fused(batch, group_by, specs) for batch in batches]
    )
    np.testing.assert_allclose(
        per_batch["weighted"].sum(),
        sum((batch.materialize_key("status") * batch.values["v"]).sum() for batch in batches),
    )
    accumulator = FusedBatchAccumulator(group_by, specs)
    for batch in batches:
        accumulator.add(batch)
    combined = concat_tables(accumulator.finish())
    for name, column in per_batch.items():
        assert np.array_equal(combined[name], column), name


# -- shared partials ----------------------------------------------------------------


def test_equal_partials_are_reduced_once_and_counts_need_no_input():
    table = {"g": np.array([0, 1, 0]), "v": np.array([1.0, 2.0, 4.0])}
    result = aggregates.partial_aggregate(
        table,
        ["g"],
        [
            AggregateSpec("sum", col("v"), "s"),
            AggregateSpec("sum", col("v"), "__m_sum"),
            # count(expr) counts rows: its argument is never evaluated.
            AggregateSpec("count", col("not_a_column"), "__m_count"),
            AggregateSpec("count", None, "n"),
        ],
    )
    np.testing.assert_array_equal(result["s"], [5.0, 2.0])
    assert result["__m_sum"] is result["s"]
    np.testing.assert_array_equal(result["n"], [2.0, 1.0])
    assert result["__m_count"] is result["n"]
