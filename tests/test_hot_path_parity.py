"""Parity tests: old-vs-new hot-path implementations must agree.

The PR's acceptance criteria require the vectorized data plane to be
*semantically byte-identical* to the seed implementation: the single-pass
partition scatter must produce the same partitions as the mask-per-partition
loop, and the result frame must round-trip the same tables as the seed's
JSON ``.tolist()`` form (``benchmarks/_baselines.py``) — across empty,
single-row, high-cardinality, and negative/NaN-containing tables.
"""

import numpy as np
import pytest

from repro.engine.payload import decode_table, encode_table
from repro.engine.table import table_num_rows
from repro.exchange.partition import (
    hash_partition,
    hash_partition_masked,
    partition_scatter,
    slice_partition,
)

from benchmarks._baselines import seed_table_from_wire, seed_table_to_wire, tables_allclose


def _case_tables():
    rng = np.random.default_rng(42)
    high_cardinality = {
        "k": rng.integers(-(2 ** 60), 2 ** 60, 5000, dtype=np.int64),
        "v": rng.random(5000),
    }
    negatives_and_nans = {
        "k": np.array([-5, -5, 0, 3, -(2 ** 40), 3, -5, 0], dtype=np.int64),
        "x": np.array([np.nan, -1.5, 0.0, np.nan, np.inf, -0.0, 2.5, -np.inf]),
    }
    return {
        "empty": {"k": np.zeros(0, dtype=np.int64), "v": np.zeros(0)},
        "single_row": {"k": np.array([7], dtype=np.int64), "v": np.array([1.25])},
        "high_cardinality": high_cardinality,
        "negatives_and_nans": negatives_and_nans,
        "duplicate_heavy": {"k": np.repeat(np.arange(4, dtype=np.int64), 250)},
    }


@pytest.fixture(params=list(_case_tables()))
def case_table(request):
    return _case_tables()[request.param]


@pytest.mark.parametrize("num_partitions", [1, 3, 16])
def test_scatter_matches_mask_loop(case_table, num_partitions):
    new = hash_partition(case_table, ["k"], num_partitions)
    old = hash_partition_masked(case_table, ["k"], num_partitions)
    assert set(new) == set(old)
    for partition in old:
        assert tables_allclose(new[partition], old[partition])
        # Row order within a partition must match exactly too (stable scatter).
        for name in old[partition]:
            np.testing.assert_array_equal(
                new[partition][name], old[partition][name]
            )


def test_scatter_slices_cover_table_in_partition_order():
    table = _case_tables()["high_cardinality"]
    num_partitions = 8
    reordered, boundaries = partition_scatter(table, ["k"], num_partitions)
    assert boundaries[0] == 0
    assert boundaries[-1] == table_num_rows(table)
    pieces = [
        slice_partition(reordered, boundaries, p) for p in range(num_partitions)
    ]
    recovered = np.concatenate([piece["k"] for piece in pieces])
    np.testing.assert_array_equal(np.sort(recovered), np.sort(table["k"]))


def test_payload_roundtrip_matches_json_roundtrip(case_table):
    through_json = seed_table_from_wire(seed_table_to_wire(case_table))
    through_binary = decode_table(encode_table(case_table))
    assert tables_allclose(through_json, through_binary)


def test_payload_roundtrip_matches_original(case_table):
    restored = decode_table(encode_table(case_table))
    assert tables_allclose(restored, case_table)


def test_tables_allclose_handles_nan_columns():
    table = _case_tables()["negatives_and_nans"]
    assert tables_allclose(table, {name: col.copy() for name, col in table.items()})
