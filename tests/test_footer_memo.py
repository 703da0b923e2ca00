"""A footer is parsed and checked once per distinct bytes, and a file's
statistics decisions are made once per predicate.

* ``FileMetadata.parse`` is memoized on ``(footer, data_end)``: N opens of
  one file run ``_directory_problem`` once, and readers share one
  ``FileMetadata``; a different ``data_end`` is a new entry;
* everything before the parse still runs on every open: a flipped footer
  whose crc was recomputed fails to parse (and is never kept), one whose
  crc was not fails the crc — both naming the file and ``lpq.footer``, after a clean open of
  the same file put it in the memo;
* the scan's survivors and page plans come from
  ``FileMetadata.decision``, keyed by the literals' types as well as their
  values: memoized decisions equal cold ones for NaN, ±0.0 and ``2**53`` as
  an int and as a float, and fresh NaN literals cannot grow the memo past
  ``DECISIONS_KEPT``;
* a threaded Q1 over shared footers answers bit for bit like a serial one.
"""

from __future__ import annotations

import functools
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_tpch_query
from repro.cloud.environment import CloudEnvironment
from repro.cloud.s3 import ObjectStore
from repro.driver.driver import LambadaDriver
from repro.engine.scan import S3ScanOperator
from repro.errors import CorruptFileError, IntegrityError
from repro.formats import parquet
from repro.formats.parquet import (
    DECISIONS_KEPT,
    TAIL_BYTES,
    ColumnarFile,
    ColumnarWriter,
    FileMetadata,
)
from repro.formats.schema import Schema
from repro.plan.expressions import col
from repro.plan.physical import PruneRange
from repro.workload.tpch import generate_lineitem_dataset

NAME = "data/memo.lpq"
#: The file the decision tests scan.
PATH = "s3://data/memo.lpq"


def _file(seed: int) -> bytes:
    """A small file whose bytes no other test writes."""
    rng = np.random.default_rng(seed)
    rows = 1024
    block = np.arange(rows) // 128
    table = {
        # Small values in even groups, 2**53 and beyond in odd ones.
        "big": np.where(
            block % 2 == 0, rng.integers(-50, 50, rows), (1 << 53) + rng.integers(-2, 3, rows)
        ).astype(np.int64),
        # Signed zeros, a constant, NaN and plain values, group by group.
        "flt": np.select(
            [block % 4 == 0, block % 4 == 1, block % 4 == 2],
            [np.where(rng.random(rows) < 0.5, -0.0, 0.0), np.full(rows, 7.25),
             np.where(rng.random(rows) < 0.1, np.nan, 1.5)],
            rng.integers(-40, 40, rows) / 4,
        ),
        "key": (block % 3).astype(np.int32),
        "seed": np.full(rows, seed, dtype=np.int64),
    }
    writer = ColumnarWriter(Schema.from_table(table), row_group_rows=128)
    return writer.write(table)


def _footer(data: bytes):
    """``(footer, its offset, footer length)`` of a file."""
    length = int.from_bytes(data[-TAIL_BYTES + 4:-4], "little")
    start = len(data) - TAIL_BYTES - length
    return data[start:start + length], start, length


def _footer_resealed(data: bytes) -> bytes:
    """``data`` with the footer crc in its tail recomputed, so damage to the
    footer reaches the parse instead of the crc."""
    footer, start, length = _footer(data)
    return data[:start + length] + zlib.crc32(footer).to_bytes(4, "little") + data[-12:]


def _count_directory_checks(monkeypatch) -> list:
    calls = []
    check = parquet._directory_problem

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(parquet, "_directory_problem", counted)
    return calls


def test_n_opens_of_one_file_check_its_footer_once(monkeypatch):
    calls = _count_directory_checks(monkeypatch)
    data = _file(101)
    readers = [ColumnarFile.from_bytes(data, name=NAME) for _ in range(5)]
    assert len(calls) == 1
    assert all(reader.metadata is readers[0].metadata for reader in readers)
    footer, start, _ = _footer(data)
    assert FileMetadata.parse(footer, start) is readers[0].metadata
    assert len(calls) == 1
    # The whole input is the key: another data_end misses.
    moved = FileMetadata.parse(footer, start + 1)
    assert len(calls) == 2
    assert moved is not readers[0].metadata


def test_a_flipped_unchecked_footer_still_fails_to_parse(monkeypatch):
    """A flip the footer crc does not catch (the crc recomputed after it)
    still fails the parse, every time."""
    data = _file(102)
    clean = ColumnarFile.from_bytes(data, name=NAME).metadata
    footer, start, _ = _footer(data)
    # The low bit of the head's row count: the groups no longer add up.
    broken = bytearray(data)
    broken[start] ^= 1
    calls = _count_directory_checks(monkeypatch)
    for _ in range(2):  # a footer that failed is not kept: checked again
        with pytest.raises(CorruptFileError) as raised:
            ColumnarFile.from_bytes(_footer_resealed(bytes(broken)), name=NAME)
        assert (raised.value.key, raised.value.layer) == (NAME, "lpq.footer")
        assert "row count" in str(raised.value)
    assert len(calls) == 2
    assert ColumnarFile.from_bytes(data, name=NAME).metadata is clean
    # No flipped bit anywhere in the footer hands out the clean parse.
    for position in range(len(footer)):
        flipped = bytearray(data)
        flipped[start + position] ^= 1 << position % 8
        try:
            metadata = ColumnarFile.from_bytes(_footer_resealed(bytes(flipped)), name=NAME).metadata
        except CorruptFileError as error:
            assert (error.key, error.layer) == (NAME, "lpq.footer")
        else:
            assert metadata is not clean
            assert metadata.pack() == bytes(flipped[start:start + len(footer)])


def test_a_flipped_checked_footer_still_fails_its_crc():
    data = _file(103)
    ColumnarFile.from_bytes(data, name=NAME)
    _, start, length = _footer(data)
    for position in (0, length // 2, length - 1):
        broken = bytearray(data)
        broken[start + position] ^= 0x10
        with pytest.raises(IntegrityError) as raised:
            ColumnarFile.from_bytes(bytes(broken), name=NAME)
        assert (raised.value.key, raised.value.layer) == (NAME, "lpq.footer")
        assert raised.value.offset == start


# -- statistics decisions -------------------------------------------------------

_LITERALS = [
    math.nan, 0.0, -0.0, 1 << 53, 2.0 ** 53, (1 << 53) + 1, -(1 << 53), 7.25, 1.5,
    0, 3, -50, 49, 50, 7,
]
_OPS = ["==", "!=", "<", "<=", ">", ">="]
_COMPARE = {
    "==": lambda c, v: c == v, "!=": lambda c, v: c != v,
    "<": lambda c, v: c < v, "<=": lambda c, v: c <= v,
    ">": lambda c, v: c > v, ">=": lambda c, v: c >= v,
}

_literal = st.sampled_from(_LITERALS) | st.floats(-60, 60).map(lambda x: round(x, 1))
_comparison = st.tuples(st.sampled_from(["big", "flt", "key"]), st.sampled_from(_OPS), _literal)
_range = st.tuples(
    st.sampled_from(["big", "flt", "key", "absent"]),
    st.sampled_from([-math.inf, -(1 << 53), -50, 0, -0.0, 2.0 ** 53]),
    st.sampled_from([math.inf, 1 << 53, 49, 0.0, 7.25, math.nan]),
)
_scan_spec = st.tuples(
    st.lists(_comparison, min_size=0, max_size=3),
    st.lists(_range, min_size=0, max_size=2),
    st.sampled_from([["big", "flt"], ["key"], ["flt", "key", "seed"]]),
)


def _scan(store, spec) -> S3ScanOperator:
    comparisons, ranges, columns = spec
    predicate = None
    for column, op, value in comparisons:
        conjunct = _COMPARE[op](col(column), value)
        predicate = conjunct if predicate is None else predicate & conjunct
    return S3ScanOperator(
        store, [PATH], columns=columns, predicate=predicate,
        prune_ranges=[PruneRange(*bounds) for bounds in ranges],
    )


def _shape(decision):
    """A decision with each literal as its type and value: ``2**53`` differs
    from ``2.0**53``; ``-0.0`` equals ``0.0``, as in every comparison a scan
    makes with it, and the one NaN object drawn equals itself."""
    survives, plans = decision
    return survives, [
        (
            [(c.column, c.op, type(c.value), c.value) for c in plan.comparisons],
            plan.predicate_columns, plan.constants,
        )
        for plan in plans
    ]


@pytest.fixture(scope="module")
def memo_store():
    store = ObjectStore()
    store.create_bucket("data")
    store.put_object("data", "memo.lpq", _file(104))
    return store


@settings(max_examples=120, deadline=None)
@given(specs=st.lists(_scan_spec, min_size=1, max_size=6))
def test_memoized_decisions_equal_cold_ones(memo_store, specs):
    for spec in specs:
        scan = _scan(memo_store, spec)
        (source,) = scan._open_files()
        metadata = ColumnarFile(source).metadata
        columns = spec[2]
        cold = scan._decide(metadata, columns)
        warm = metadata.decision(
            (scan._decision_key, tuple(columns)),
            lambda m: scan._decide(m, columns),
        )
        assert _shape(warm) == _shape(cold)
        assert len(metadata._decisions) <= DECISIONS_KEPT


def test_an_int_and_a_float_two_to_the_53_decide_apart(memo_store):
    """Equal and alike-hashing literals of different types are different keys:
    only the float proves ``big < 2**53`` for the small groups."""
    by_float = _scan(memo_store, ([("big", "<", 2.0 ** 53)], [], ["big"]))
    by_int = _scan(memo_store, ([("big", "<", 1 << 53)], [], ["big"]))
    assert 1 << 53 == 2.0 ** 53 and hash(1 << 53) == hash(2.0 ** 53)
    decided = {}
    for name, scan in (("float", by_float), ("int", by_int)):
        (source,) = scan._open_files()
        metadata = ColumnarFile(source).metadata
        _, plans = metadata.decision(
            (scan._decision_key, ("big",)), lambda m, s=scan: s._decide(m, ["big"])
        )
        decided[name] = [len(plan.comparisons) for plan in plans]
    assert decided["float"] == [0, 1] * 4
    assert decided["int"] == [1] * 8


def test_fresh_nan_literals_keep_the_memo_bounded(memo_store):
    scans = []
    for _ in range(1000):
        scan = _scan(memo_store, ([("flt", "<", float("nan"))], [], ["flt"]))
        assert list(scan.scan()) == []
        scans.append(scan)
    (source,) = scans[0]._open_files()
    metadata = ColumnarFile(source).metadata
    assert 0 < len(metadata._decisions) <= DECISIONS_KEPT


def test_a_threaded_q1_over_shared_footers_matches_serial(monkeypatch):
    # A memo of its own, so the threads build the shared footers' directories
    # and decisions themselves first.
    monkeypatch.setattr(
        parquet, "_parse_footer",
        functools.lru_cache(maxsize=None)(parquet._parse_footer.__wrapped__),
    )
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.002, num_files=8, row_group_rows=256, seed=11
    )
    threaded = LambadaDriver(
        env, execution_mode="threads", max_parallel_invocations=4, result_queue="memo-threads"
    )
    serial = LambadaDriver(env, execution_mode="serial", result_queue="memo-serial")
    results = [
        run_tpch_query(driver, dataset, "q1", num_workers=8).table
        for driver in (threaded, serial, threaded)
    ]
    assert parquet._parse_footer.cache_info().currsize == dataset.num_files
    expected = results[1]
    for table in (results[0], results[2]):
        assert list(table) == list(expected)
        for name in expected:
            left, right = np.asarray(expected[name]), np.asarray(table[name])
            assert (left.dtype, left.tobytes()) == (right.dtype, right.tobytes()), name
