"""Parity tests: the vectorized join kernel must match the dict kernel.

:func:`repro.engine.join.hash_join` — whichever probe strategy it picks —
must agree with the seed's dict build/probe kernel (``hash_join_dict``, kept
in ``benchmarks/_baselines.py``) *exactly*: same rows, same row order, same
dtypes, across empty, single-row, all-match, no-match, duplicate-key and
negative/NaN-key inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.join as join_module
from repro.driver.shuffle import _join_step
from repro.engine.join import hash_join
from repro.engine.table import filter_table, select_columns, table_num_rows
from repro.errors import ExecutionError, UnknownColumnError
from repro.plan.expressions import col, evaluate, expression_to_dict

from benchmarks._baselines import hash_join_dict
from tests.conformance import assert_bit_identical


def _single_key_cases():
    rng = np.random.default_rng(99)
    return {
        "empty_both": (
            {"k": np.zeros(0, dtype=np.int64), "lv": np.zeros(0, dtype=np.float32)},
            {"k": np.zeros(0, dtype=np.int64), "rv": np.zeros(0, dtype=np.int32)},
        ),
        "empty_left": (
            {"k": np.zeros(0, dtype=np.int64), "lv": np.zeros(0)},
            {"k": np.array([1, 2], dtype=np.int64), "rv": np.array([1.0, 2.0])},
        ),
        "empty_right": (
            {"k": np.array([1, 2], dtype=np.int64), "lv": np.array([1.0, 2.0])},
            {"k": np.zeros(0, dtype=np.int64), "rv": np.zeros(0)},
        ),
        "single_row": (
            {"k": np.array([7], dtype=np.int64), "lv": np.array([1.5])},
            {"k": np.array([7], dtype=np.int64), "rv": np.array([2.5])},
        ),
        "all_match": (
            {"k": np.arange(50, dtype=np.int64), "lv": rng.random(50)},
            {"k": np.arange(50, dtype=np.int64), "rv": rng.random(50)},
        ),
        "no_match": (
            {"k": np.arange(50, dtype=np.int64), "lv": rng.random(50)},
            {"k": np.arange(100, 150, dtype=np.int64), "rv": rng.random(50)},
        ),
        "duplicate_keys_both_sides": (
            {"k": np.repeat(np.arange(5, dtype=np.int64), 20), "lv": rng.random(100)},
            {"k": np.repeat(np.arange(3, 8, dtype=np.int64), 10), "rv": rng.random(50)},
        ),
        "negative_and_wide_keys": (
            {
                "k": np.array([-5, 0, 3, -(2 ** 60), 2 ** 60, -5], dtype=np.int64),
                "lv": np.arange(6.0),
            },
            {
                "k": np.array([-(2 ** 60), -5, 2 ** 60, 7], dtype=np.int64),
                "rv": np.arange(4.0),
            },
        ),
        "nan_keys_never_match": (
            {"k": np.array([1.0, np.nan, 2.0, np.nan, -0.0]), "lv": np.arange(5.0)},
            {"k": np.array([np.nan, 1.0, 0.0, 2.0, 2.0]), "rv": np.arange(5.0)},
        ),
        "random_mid_cardinality": (
            {"k": rng.integers(0, 40, 500).astype(np.int64), "lv": rng.random(500)},
            {"k": rng.integers(0, 40, 300).astype(np.int64), "rv": rng.random(300)},
        ),
        "sparse_keys_fall_back_to_searchsorted": (
            {"k": rng.integers(-(2 ** 61), 2 ** 61, 200, dtype=np.int64), "lv": rng.random(200)},
            {"k": rng.integers(-(2 ** 61), 2 ** 61, 100, dtype=np.int64), "rv": rng.random(100)},
        ),
    }


@pytest.mark.parametrize("case", list(_single_key_cases()))
def test_vectorized_matches_dict_kernel(case):
    left, right = _single_key_cases()[case]
    assert_bit_identical(
        hash_join(left, right, "k", "k"), hash_join_dict(left, right, "k", "k")
    )


def test_mixed_int_float_keys_above_2_53_match_dict_kernel():
    """Promoting mixed int/float keys to float64 would collapse 2^53+1 onto
    2^53 and invent matches; the aligned integer domain must not."""
    left = {
        "k": np.array([2 ** 53 + 1, 2 ** 53, 5, -7], dtype=np.int64),
        "lv": np.arange(4.0),
    }
    right = {
        "k": np.array([float(2 ** 53), 5.0, 5.5, -7.0, np.nan]),
        "rv": np.arange(5.0),
    }
    assert_bit_identical(
        hash_join(left, right, "k", "k"), hash_join_dict(left, right, "k", "k")
    )
    # And the reverse orientation (float probe side, int build side).
    assert_bit_identical(
        hash_join(right, left, "k", "k"), hash_join_dict(right, left, "k", "k")
    )


def test_mixed_uint64_float_keys_match_dict_kernel():
    left = {
        "k": np.array([2 ** 63 + 1024, 12, 2 ** 53], dtype=np.uint64),
        "lv": np.arange(3.0),
    }
    right = {
        "k": np.array([float(2 ** 63 + 2048), 12.0, -1.0, float(2 ** 53)]),
        "rv": np.arange(4.0),
    }
    assert_bit_identical(
        hash_join(left, right, "k", "k"), hash_join_dict(left, right, "k", "k")
    )


def test_empty_join_preserves_source_dtypes():
    left = {"k": np.zeros(0, dtype=np.int64), "lv": np.zeros(0, dtype=np.int16)}
    right = {
        "k": np.zeros(0, dtype=np.int64),
        "rv": np.zeros(0, dtype="<U3"),
        "flag": np.zeros(0, dtype=bool),
    }
    for kernel in (hash_join, hash_join_dict):
        result = kernel(left, right, "k", "k")
        assert result["k"].dtype == np.int64
        assert result["lv"].dtype == np.int16
        assert result["rv"].dtype == np.dtype("<U3")
        assert result["flag"].dtype == bool


def test_join_probe_bench_shape_parity():
    """The exact shape the hot-path benchmark times must stay in parity."""
    rng = np.random.default_rng(11)
    num_rows, build_rows = 20_000, 2_000
    left = {
        "key": rng.integers(0, build_rows, num_rows, dtype=np.int64),
        "lv": rng.random(num_rows),
    }
    right = {
        "key": rng.integers(0, build_rows, build_rows, dtype=np.int64),
        "rv": rng.random(build_rows),
        "tag": rng.integers(0, 5, build_rows, dtype=np.int32),
    }
    assert_bit_identical(
        hash_join(left, right, "key", "key"),
        hash_join_dict(left, right, "key", "key"),
    )

def test_uint64_against_int64_keys_above_2_53_match_dict_kernel():
    """NumPy promotes uint64 with int64 to float64, which collapses 2^53+1
    onto 2^53 and invents a match; the pair must compare as integers."""
    left = {"k": np.array([2 ** 53 + 1, 5], dtype=np.uint64), "lv": np.arange(2.0)}
    right = {"k": np.array([2 ** 53, 5], dtype=np.int64), "rv": np.arange(2.0)}
    result = hash_join(left, right, "k", "k")
    assert table_num_rows(result) == 1
    assert_bit_identical(result, hash_join_dict(left, right, "k", "k"))
    assert_bit_identical(
        hash_join(right, left, "k", "k"), hash_join_dict(right, left, "k", "k")
    )


def test_negative_and_huge_keys_of_a_signed_unsigned_pair_match_nothing():
    left = {"k": np.array([2 ** 64 - 1, 2 ** 63, 7], dtype=np.uint64)}
    right = {"k": np.array([-1, -(2 ** 63), 7, 7], dtype=np.int64), "rv": np.arange(4)}
    for probe, build in ((left, right), (right, left)):
        assert_bit_identical(
            hash_join(probe, build, "k", "k"), hash_join_dict(probe, build, "k", "k")
        )
    assert table_num_rows(hash_join(left, right, "k", "k")) == 2


# ---------------------------------------------------------------------------
# property: every strategy, every key dtype, same answer as the dict kernel
# ---------------------------------------------------------------------------

_INTEGER_DTYPES = [
    np.dtype(name)
    for name in ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")
]
_KEY_DTYPES = _INTEGER_DTYPES + [np.dtype(bool), np.dtype(np.float64), np.dtype(np.float32)]

#: Where a key domain starts: around zero, at the float64 and int64/uint64
#: edges.  Offsets a dtype cannot hold are clipped into its range.
_OFFSETS = [0, -100, 100, 2 ** 31 - 40, 2 ** 53 - 2, 2 ** 63 - 300, 2 ** 63 + 5,
            2 ** 64 - 300, -(2 ** 63)]


def _key_array(values, offset, dtype, tweaks):
    """``values + offset`` as ``dtype``, clipped to what it can hold; float
    keys get some entries replaced by NaN or pushed off the integers."""
    if dtype.kind == "b":
        return np.array([value % 2 == 1 for value in values], dtype=bool)
    if dtype.kind == "f":
        keys = np.array([float(value + offset) for value in values], dtype=dtype)
        for index, tweak in enumerate(tweaks[: len(keys)]):
            if tweak == 1:
                keys[index] = np.nan
            elif tweak == 2:
                keys[index] += 0.5
        return keys
    info = np.iinfo(dtype)
    return np.array(
        [min(max(value + offset, info.min), info.max) for value in values], dtype=dtype
    )


@st.composite
def _join_inputs(draw):
    width = draw(st.sampled_from([3, 40, 400, 6000, 200_000]))
    offset = draw(st.sampled_from(_OFFSETS))
    # Mostly non-empty sides: hypothesis would otherwise spend half its
    # examples on the empty list.
    sizes = st.sampled_from([0, 1, 2, 8])
    build_values = draw(
        st.lists(
            st.integers(0, width - 1),
            min_size=min(draw(sizes), width), max_size=60, unique=draw(st.booleans()),
        )
    )
    # Probes: build keys, other keys of the domain, keys off both of its ends.
    probe_values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(build_values) if build_values else st.nothing(),
                st.integers(0, width - 1),
                st.integers(-width, 2 * width),
            ),
            min_size=draw(sizes), max_size=80,
        )
    )
    tweaks = st.lists(st.sampled_from([0, 0, 0, 1, 2]), max_size=80)
    left_key = _key_array(
        probe_values, offset, draw(st.sampled_from(_KEY_DTYPES)), draw(tweaks)
    )
    right_key = _key_array(
        build_values, offset, draw(st.sampled_from(_KEY_DTYPES)), draw(tweaks)
    )
    right_key_name = draw(st.sampled_from(["k", "rk"]))
    left = {
        "k": left_key,
        "v": np.arange(len(left_key), dtype=np.int32),
        "x": np.arange(len(left_key), dtype=np.float64) / 4,
    }
    right = {
        "v": np.arange(len(right_key), dtype=np.int16) * 3,  # collides with left "v"
        right_key_name: right_key,
        "w": np.array([f"r{index}" for index in range(len(right_key))], dtype="<U4"),
    }
    suffix = draw(st.sampled_from(["_right", "_b"]))
    output_names = ["k", "v", "x", "v" + suffix, "w"]
    columns = draw(st.none() | st.lists(st.sampled_from(output_names), unique=True))
    return left, right, right_key_name, suffix, columns


@settings(max_examples=600, deadline=None)
@given(inputs=_join_inputs())
def test_hash_join_equals_the_dict_kernel(inputs):
    left, right, right_key_name, suffix, columns = inputs
    expected = hash_join_dict(left, right, "k", right_key_name, suffix)
    if columns is not None:
        expected = {name: expected[name] for name in expected if name in columns}
    assert_bit_identical(
        hash_join(left, right, "k", right_key_name, suffix, columns=columns), expected
    )


# ---------------------------------------------------------------------------
# strategy selection
# ---------------------------------------------------------------------------

@pytest.fixture
def strategy_calls(monkeypatch):
    """Counts calls of the two dense probes and of ``np.searchsorted``."""
    calls = {"positions": 0, "count_table": 0, "searchsorted": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            # A position probe that found duplicate keys handed on, it did
            # not answer.
            calls[name] += result is not None
            return result

        return wrapper

    monkeypatch.setattr(
        join_module, "_probe_positions", counted("positions", join_module._probe_positions)
    )
    monkeypatch.setattr(
        join_module, "_dense_probe_bounds",
        counted("count_table", join_module._dense_probe_bounds),
    )
    monkeypatch.setattr(np, "searchsorted", counted("searchsorted", np.searchsorted))
    return calls


def test_unique_integer_build_side_never_sorts_searches_or_expands(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the position-table probe must not call this")

    for name in ("argsort", "searchsorted", "repeat", "cumsum"):
        monkeypatch.setattr(np, name, forbidden)
    rng = np.random.default_rng(3)
    # What a hash partition leaves: unique keys spread over 12x their count.
    build_keys = rng.permutation(12_000)[:1000].astype(np.int64)
    left = {"k": rng.integers(-50, 12_050, 5000, dtype=np.int64), "lv": rng.random(5000)}
    right = {"k": build_keys, "rv": rng.random(1000)}
    result = hash_join(left, right, "k", "k")
    monkeypatch.undo()
    assert_bit_identical(result, hash_join_dict(left, right, "k", "k"))


def test_duplicate_build_keys_take_the_count_table(strategy_calls):
    rng = np.random.default_rng(4)
    left = {"k": rng.integers(0, 300, 2000, dtype=np.int64), "lv": rng.random(2000)}
    right = {"k": rng.integers(0, 300, 400, dtype=np.int64), "rv": rng.random(400)}
    assert_bit_identical(
        hash_join(left, right, "k", "k"), hash_join_dict(left, right, "k", "k")
    )
    assert strategy_calls == {"positions": 0, "count_table": 1, "searchsorted": 0}


@pytest.mark.parametrize("unique", [True, False])
@pytest.mark.parametrize("over_budget", [-1, 0, 1])
def test_span_budget_per_row_is_inclusive(strategy_calls, unique, over_budget):
    num_left, num_right = 30, 10
    span = join_module._DENSE_SPAN_PER_ROW * (num_left + num_right) + over_budget
    build_keys = np.linspace(0, span - 1, num_right).astype(np.int64) - 7
    if not unique:
        build_keys[3] = build_keys[4]
    left = {
        "k": np.concatenate([build_keys, build_keys, build_keys + 1]),
        "lv": np.arange(num_left),
    }
    right = {"k": build_keys, "rv": np.arange(num_right)}
    assert_bit_identical(
        hash_join(left, right, "k", "k"), hash_join_dict(left, right, "k", "k")
    )
    dense = over_budget <= 0
    assert strategy_calls == {
        "positions": int(dense and unique),
        "count_table": int(dense and not unique),
        "searchsorted": 0 if dense else 2,
    }


@pytest.mark.parametrize("over_cap", [0, 1])
def test_span_at_the_entry_cap(strategy_calls, over_cap):
    """Enough rows that only the absolute cap can refuse the table (the real
    cap: its 64 MiB table is built once here)."""
    span = join_module._DENSE_MAX_ENTRIES + over_cap
    num_left = span // join_module._DENSE_SPAN_PER_ROW + 8
    rng = np.random.default_rng(6)
    left = {"k": rng.integers(-5, span + 5, num_left, dtype=np.int64)}
    left["k"][:4] = [0, span - 1, span, -1]
    right = {"k": np.array([span - 1, 0, span // 2], dtype=np.int64), "rv": np.arange(3)}
    assert_bit_identical(
        hash_join(left, right, "k", "k"), hash_join_dict(left, right, "k", "k")
    )
    assert strategy_calls["positions"] == 1 - over_cap
    assert strategy_calls["searchsorted"] == 2 * over_cap


# ---------------------------------------------------------------------------
# identity pass-through, columns=
# ---------------------------------------------------------------------------

def test_probe_columns_pass_through_when_every_row_matches_once():
    rng = np.random.default_rng(8)
    right = {"n": np.arange(25, dtype=np.int64), "name": rng.integers(0, 5, 25)}
    left = {
        "n": rng.integers(0, 25, 4000, dtype=np.int64),
        "price": rng.random(4000),
        "flag": rng.integers(0, 2, 4000).astype(np.int8),
    }
    left["price"].setflags(write=False)  # a decoded frame can be a read-only view
    result = hash_join(left, right, "n", "n")
    for name, column in left.items():
        assert result[name] is column
    assert_bit_identical(result, hash_join_dict(left, right, "n", "n"))

    # One unmatched probe row and the result is gathered again.
    left["n"][17] = 99
    result = hash_join(left, right, "n", "n")
    assert table_num_rows(result) == 3999
    assert not any(np.shares_memory(result[name], left[name]) for name in left)
    assert_bit_identical(result, hash_join_dict(left, right, "n", "n"))


def test_columns_restrict_what_is_gathered():
    left = {"k": np.array([1, 2, 3]), "v": np.array([1.0, 2.0, 3.0]), "x": np.arange(3)}
    right = {"k": np.array([3, 1]), "v": np.array([30, 10]), "w": np.array(["c", "a"])}
    full = hash_join(left, right, "k", "k")
    assert list(full) == ["k", "v", "x", "v_right", "w"]
    pruned = hash_join(left, right, "k", "k", columns=["w", "v_right", "k"])
    assert_bit_identical(pruned, {name: full[name] for name in ("k", "v_right", "w")})
    assert hash_join(left, right, "k", "k", "_right", []) == {}
    # The five-positional call keeps meaning what it meant.
    assert_bit_identical(hash_join(left, right, "k", "k", "_b"), {
        "k": full["k"], "v": full["v"], "x": full["x"], "v_b": full["v_right"], "w": full["w"],
    })
    with pytest.raises(UnknownColumnError):
        hash_join(left, right, "k", "k", columns=["k", "nope"])
    # A collision is an error whether or not the column was asked for.
    with pytest.raises(ExecutionError):
        hash_join(left, {**right, "v_right": right["v"]}, "k", "k", columns=["k"])


# ---------------------------------------------------------------------------
# the join step of a wave gathers only what it keeps
# ---------------------------------------------------------------------------

def _unpruned_join_step(probe, build, step):
    """What ``_join_step`` computes, with every column gathered first."""
    joined = hash_join(probe, build, step["left_key"], step["right_key"])
    if step.get("restore_right_key"):
        joined[step["right_key"]] = joined[step["left_key"]]
    if step.get("residual") is not None:
        joined = filter_table(joined, np.asarray(evaluate(step["residual"], joined), dtype=bool))
    return select_columns(joined, step["output_columns"])


@pytest.mark.parametrize("restore", [False, True])
def test_join_step_residual_may_read_columns_it_does_not_carry(restore):
    rng = np.random.default_rng(12)
    probe = {
        "o_custkey": rng.integers(0, 40, 300, dtype=np.int64),
        "l_suppkey": rng.integers(0, 20, 300, dtype=np.int64),
        "s_nationkey": rng.integers(0, 5, 300, dtype=np.int64),
        "revenue": rng.random(300),
        "unused": rng.random(300),
    }
    build = {
        "c_custkey": rng.permutation(60)[:35].astype(np.int64),
        "c_nationkey": rng.integers(0, 5, 35, dtype=np.int64),
        "c_acctbal": rng.random(35),
    }
    residual = col("c_nationkey") == col("s_nationkey")
    if restore:
        residual = residual & (col("c_custkey") > 3)
    step = {
        "left_key": "o_custkey",
        "right_key": "c_custkey",
        "restore_right_key": restore,
        "residual": residual,
        "output_columns": ["l_suppkey", "revenue"] + (["c_custkey"] if restore else []),
    }
    wire_step = {**step, "residual_predicate": expression_to_dict(residual)}
    result = _join_step(probe, build, wire_step)
    assert 0 < table_num_rows(result) < 300
    assert_bit_identical(result, _unpruned_join_step(probe, build, step))
