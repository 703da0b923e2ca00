"""The shape-adaptive group-by factorizer and the segmented batch pass.

Three properties hold the kernel in place: whichever strategy the factorizer
picks it returns what a record-array ``np.unique`` returns, a key column's
range codes return what ``np.unique`` returns, and the accumulator's one pass
over a run of row groups returns the per-row-group partial tables to the
last bit.
"""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.environment import CloudEnvironment
from repro.driver import shuffle
from repro.driver.shuffle import ShuffleAggregateCoordinator, merge_driver_scope
from repro.engine import aggregates
from repro.engine.aggregates import (
    FusedBatchAccumulator,
    _column_codes,
    _factorize,
    _fits_dense,
    _group_indices,
    partial_aggregate_fused,
)
from repro.engine.payload import encode_table
from repro.engine.scan import FusedBatch
from repro.engine.table import concat_tables, sort_table
from repro.formats.encoding import unify_codes
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.plan.physical import DriverPlan
from repro.workload.tpch import generate_lineitem_dataset

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


# -- (a') a key column's range codes == np.unique -----------------------------------

_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]


def _assert_same_as_unique(values):
    uniques, inverse = _column_codes(values)
    expected, expected_inverse = np.unique(values, return_inverse=True)
    assert uniques.dtype == expected.dtype
    np.testing.assert_array_equal(uniques, expected)
    assert inverse.dtype == expected_inverse.dtype
    assert inverse.shape == expected_inverse.shape
    np.testing.assert_array_equal(inverse, expected_inverse)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    dtype=st.sampled_from(_INT_DTYPES),
    num_rows=st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 300)),
    # Value range per row, 0.01 .. 100: both sides of the dense rule's 4 N + 64.
    log_ratio=st.floats(-2.0, 2.0),
    anchor=st.sampled_from(["min", "max", "middle", "extremes"]),
)
def test_range_codes_equal_np_unique(seed, dtype, num_rows, log_ratio, anchor):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    span = min(max(1, int(10.0 ** log_ratio * max(num_rows, 1))), info.max - info.min + 1)
    low = {
        "min": info.min,
        "max": info.max - span + 1,
        "middle": min(max(info.min, -(span // 2)), info.max - span + 1),
        "extremes": info.min,
    }[anchor]
    # Python ints throughout: the keys themselves must not wrap either.
    keys = [low + int(offset) for offset in rng.integers(0, span, num_rows)]
    if anchor == "extremes" and keys:
        keys[0], keys[-1] = info.min, info.max
    _assert_same_as_unique(np.array(keys, dtype=dtype))


def test_narrow_keys_are_widened_before_their_offset():
    """An int16 key over +-30 000 offset in int16 wraps into wrong groups."""
    rng = np.random.default_rng(31)
    for dtype, low, high, rows in (
        (np.int16, -30_000, 30_001, 17_000),
        (np.int8, -128, 128, 64),
        (np.uint8, 0, 256, 64),
        (np.int64, 2 ** 63 - 200, 2 ** 63, 100),
        (np.uint64, 2 ** 64 - 200, 2 ** 64, 100),
    ):
        values = rng.integers(low, high, rows, dtype=dtype)
        assert _fits_dense(int(values.max()) - int(values.min()) + 1, rows)
        _assert_same_as_unique(values)
    _assert_same_as_unique(np.array(list("NRAFNA")))


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


@pytest.mark.parametrize(
    "dtype, low, span, distinct, passes",
    [
        # A narrow range fits the run: one pass, like a chunk dictionary.
        (np.int64, 1, 150, 150, 1),
        (np.int16, -32_768, 150, 100, 1),
        (np.uint64, 2 ** 63 + 5, 150, 100, 1),
        # A range over the rows in hand: one call per row group.
        (np.int64, 1, 90_000, 400, None),
        (np.int16, -30_000, 60_001, 400, None),
    ],
)
def test_integer_keys_delivered_as_values_take_their_range(
    dtype, low, span, distinct, passes, monkeypatch
):
    rng = np.random.default_rng(span + distinct)
    offsets = np.sort(rng.choice(span, size=distinct, replace=False))
    keys = {
        "supp": np.array([low + int(offset) for offset in offsets], dtype=dtype),
        **_flags(rng, full=True),
    }
    batches = [
        _batch(rng, int(rng.integers(200, 400)), keys, as_values=("supp",))
        for _ in range(int(rng.integers(2, 9)))
    ]
    for group_by in (["supp"], ["flag", "supp"]):
        _assert_pass_equals_per_batch(
            batches, group_by, monkeypatch, expected_calls=passes or len(batches)
        )


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


# -- (d) the kernel's call budget on a repartitioned group-by -----------------------

#: sha256 prefixes (dtype + bytes) of every result column at SF 0.002, seed 7,
#: two files of 512-row groups, recorded when every key was sorted.
SORTED_KEY_DIGESTS = {
    "l_orderkey": {
        "l_orderkey": "626776cc41fb4b3b", "revenue": "549ae8db8f712225",
        "items": "20605a63735bd906",
    },
    "l_suppkey": {
        "l_suppkey": "17d45754d1ec1776", "revenue": "ee7df6fd34ddcf88",
        "items": "aeb3f28da3ad63ce",
    },
}


def _column_digest(column) -> str:
    column = np.ascontiguousarray(column)
    return hashlib.sha256(column.dtype.str.encode() + column.tobytes()).hexdigest()[:16]


def test_a_shuffle_group_by_stays_inside_its_kernel_call_budget(monkeypatch):
    """One kernel call per run for ``l_suppkey``, not one per row group, and no
    merge of either key sorts: the mapper merge, the reducer and the driver
    merge all take the range codes."""
    env = CloudEnvironment.create(region="eu")
    # 512-row groups hold more suppliers than a chunk dictionary may: the
    # scan delivers l_suppkey as values, like the benchmark's 2048-row groups
    # at SF 0.015.
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.002, num_files=2, row_group_rows=512, seed=7
    )
    coordinator = ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4)
    specs = [
        AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
        AggregateSpec("count", None, "items"),
    ]
    runs, kernel_calls, merge_sorts = [], [], []
    add, kernel, unique = FusedBatchAccumulator.add, aggregates.partial_aggregate_fused, np.unique

    def counted_add(self, batch):
        runs.append(batch)
        add(self, batch)

    def counted_kernel(batch, group_by, specs):
        kernel_calls.append(batch.num_rows)
        return kernel(batch, group_by, specs)

    def watched_unique(values, *args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_globals.get("__name__") == aggregates.__name__:
            callers = set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            if "partial_aggregate_fused" not in callers:
                merge_sorts.append(len(values))
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(FusedBatchAccumulator, "add", counted_add)
    monkeypatch.setattr(aggregates, "partial_aggregate_fused", counted_kernel)
    monkeypatch.setattr(np, "unique", watched_unique)
    for key in ("l_orderkey", "l_suppkey"):
        del runs[:], kernel_calls[:], merge_sorts[:]
        table, _ = coordinator.execute(
            dataset.paths, group_by=[key], aggregates=specs, order_by=[key]
        )
        assert merge_sorts == [], key
        digests = {name: _column_digest(column) for name, column in table.items()}
        assert digests == SORTED_KEY_DIGESTS[key]
        assert runs and all(key in batch.key_values for batch in runs)
        if key == "l_suppkey":
            assert all(len(batch.group_rows) > 1 for batch in runs)
            assert len(kernel_calls) == len(runs)


# -- (e) the driver merge is already in ascending key order --------------------------

_MERGE_KEYS = {
    "i": lambda rng, n: rng.integers(-5, 5, n),
    "f": lambda rng, n: np.where(rng.random(n) < 0.2, np.nan, rng.integers(-2, 3, n) * 0.5),
    "s": lambda rng, n: rng.choice(np.array(list("AFNR")), n),
}


@pytest.mark.parametrize("group_by", [["i"], ["f"], ["s"], ["s", "f", "i"], ["f", "i"]])
def test_driver_sorts_only_what_the_merge_did_not_order(group_by, monkeypatch):
    rng = np.random.default_rng(len(group_by))
    specs = [AggregateSpec("sum", col("v"), "v")]
    frames = [
        encode_table({**{key: _MERGE_KEYS[key](rng, 60) for key in group_by}, "v": rng.random(60)})
        for _ in range(3)
    ]
    sorts = []

    def counted_sort(table, keys, descending=False):
        sorts.append(list(keys))
        return sort_table(table, keys, descending)

    monkeypatch.setattr(shuffle, "sort_table", counted_sort)
    unordered = merge_driver_scope(frames, DriverPlan(final_aggregates=specs), group_by, specs)
    for order_by, descending, driver_sorts in (
        (group_by[:1], False, False),
        (group_by, False, False),
        (group_by, True, True),
        (["v"], False, True),
        (group_by[::-1], False, len(group_by) > 1),
    ):
        del sorts[:]
        plan = DriverPlan(final_aggregates=specs, order_by=order_by, descending=descending)
        table = merge_driver_scope(frames, plan, group_by, specs)
        expected = sort_table(unordered, order_by, descending)
        assert sorts == ([order_by] if driver_sorts else [])
        assert list(table) == list(expected)
        for name, column in expected.items():
            assert table[name].dtype == column.dtype
            assert table[name].tobytes() == column.tobytes(), (order_by, descending, name)


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
