"""Tests for the multi-level exchange operator, including placement properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.s3 import ObjectStore
from repro.engine.table import table_num_rows
from repro.errors import ExchangeError
from repro.exchange.multilevel import (
    MultiLevelExchange,
    grid_coordinates,
    grid_side,
)
from repro.exchange.partition import partition_assignments


def _make_tables(num_workers: int, rows_per_worker: int = 100, seed: int = 1):
    rng = np.random.default_rng(seed)
    return [
        {
            "key": rng.integers(0, 5000, rows_per_worker).astype(np.int64),
            "value": rng.random(rows_per_worker),
        }
        for _ in range(num_workers)
    ]


# -- grid helpers --------------------------------------------------------------------

def test_grid_side_perfect_square():
    assert grid_side(16, 2) == [4, 4]


def test_grid_side_non_square_factors_exactly():
    dims = grid_side(12, 2)
    assert math.prod(dims) == 12


def test_grid_side_three_levels():
    assert math.prod(grid_side(64, 3)) == 64
    assert grid_side(64, 3) == [4, 4, 4]


def test_grid_side_one_level():
    assert grid_side(7, 1) == [7]


def test_grid_side_prime_degenerates():
    dims = grid_side(7, 2)
    assert math.prod(dims) == 7
    assert 1 in dims


def test_grid_side_rejects_bad_input():
    with pytest.raises(ExchangeError):
        grid_side(0, 2)
    with pytest.raises(ExchangeError):
        grid_side(4, 0)


def test_grid_side_matches_full_scan_reference():
    """The sqrt divisor scan must pick the same dims as the seed's O(P) scan."""

    def reference(num_workers, levels):
        dims, remaining = [], num_workers
        for level in range(levels, 1, -1):
            ideal = remaining ** (1.0 / level)
            best = None
            for candidate in range(1, remaining + 1):
                if remaining % candidate != 0:
                    continue
                if best is None or abs(candidate - ideal) < abs(best - ideal):
                    best = candidate
            dims.append(best)
            remaining //= best
        dims.append(remaining)
        return dims

    for num_workers in range(1, 200):
        for levels in (2, 3):
            assert grid_side(num_workers, levels) == reference(num_workers, levels)


def test_grid_side_handles_large_prime_quickly():
    # The seed's 1..P scan made this O(P) per level; the sqrt scan keeps large
    # degenerate fleets cheap.
    assert grid_side(15_485_863, 2) == [1, 15_485_863]


def test_grid_coordinates_roundtrip():
    dims = [4, 5, 3]
    seen = set()
    for worker in range(math.prod(dims)):
        coords = grid_coordinates(worker, dims)
        assert all(0 <= c < d for c, d in zip(coords, dims))
        seen.add(coords)
    assert len(seen) == math.prod(dims)  # one cell per worker


# -- functional exchange ---------------------------------------------------------------

@pytest.mark.parametrize("num_workers,levels", [(16, 2), (12, 2), (8, 3), (27, 3)])
def test_multilevel_places_every_row_correctly(num_workers, levels):
    store = ObjectStore()
    tables = _make_tables(num_workers)
    exchange = MultiLevelExchange(store, num_workers, keys=["key"], levels=levels)
    result = exchange.run(tables)
    assert sum(table_num_rows(t) for t in result) == sum(table_num_rows(t) for t in tables)
    for worker, table in enumerate(result):
        if not table:
            continue
        assignment = partition_assignments(table, ["key"], num_workers)
        assert np.all(assignment == worker)


def test_two_level_request_complexity():
    store = ObjectStore()
    P = 16
    exchange = MultiLevelExchange(store, P, keys=["key"], levels=2)
    exchange.run(_make_tables(P, rows_per_worker=20))
    # Table 2, write-combined 2l: 2·P·sqrt(P) slice reads, fetched or elided.
    stats = exchange.stats
    assert stats.get_requests + stats.empty_parts_elided == 2 * P * int(math.sqrt(P))


def test_two_level_write_combining_reduces_writes_to_2p():
    store = ObjectStore()
    P = 16
    exchange = MultiLevelExchange(store, P, keys=["key"], levels=2)
    exchange.run(_make_tables(P, rows_per_worker=20))
    assert exchange.stats.put_requests == 2 * P


@pytest.mark.parametrize("num_workers,levels", [(16, 1), (16, 2), (27, 3)])
def test_executed_exchange_matches_table2_write_combined_rows(num_workers, levels):
    """Table 2's write-combined k-level rows, exactly: k·P PUTs, k·P·P^(1/k)
    slice reads (a fetched slice or an elided empty one), no discovery."""
    P, k = num_workers, levels
    side = round(P ** (1 / k))
    exchange = MultiLevelExchange(ObjectStore(), P, keys=["key"], levels=k)
    exchange.run(_make_tables(P, rows_per_worker=20))
    stats = exchange.stats
    assert stats.put_requests == stats.combined_put_requests == k * P
    assert stats.get_requests + stats.empty_parts_elided == k * P * side
    assert stats.list_requests == stats.head_requests == 0


def test_one_level_reads_more_than_two_level():
    """What the second level buys: P² slice reads shrink to 2P·sqrt(P)."""
    P = 16
    reads = {}
    for levels in (1, 2):
        exchange = MultiLevelExchange(ObjectStore(), P, keys=["key"], levels=levels)
        exchange.run(_make_tables(P, rows_per_worker=20))
        reads[levels] = exchange.stats.get_requests + exchange.stats.empty_parts_elided
    assert reads == {1: P * P, 2: 2 * P * int(math.sqrt(P))}


def test_round_stats_recorded_per_round():
    store = ObjectStore()
    P = 9
    exchange = MultiLevelExchange(store, P, keys=["key"], levels=2)
    exchange.run(_make_tables(P, rows_per_worker=10))
    assert len(exchange.round_stats) == 2
    assert all(len(round_stats) == P for round_stats in exchange.round_stats)


def test_groups_are_cached_per_round():
    store = ObjectStore()
    exchange = MultiLevelExchange(store, 12, keys=["key"], levels=2)
    for dimension in range(2):
        assert exchange._groups_for_round(dimension) is exchange._groups_for_round(
            dimension
        )


def test_groups_match_coordinate_reference():
    """Vectorized group construction equals the seed's grid_coordinates loop."""
    store = ObjectStore()
    for num_workers, levels in [(16, 2), (12, 2), (24, 3), (7, 2)]:
        exchange = MultiLevelExchange(store, num_workers, keys=["key"], levels=levels)
        for dimension in range(levels):
            reference = {}
            for worker in range(num_workers):
                coords = list(grid_coordinates(worker, exchange.dims))
                coords[dimension] = -1
                reference.setdefault(tuple(coords), []).append(worker)
            expected = sorted(sorted(members) for members in reference.values())
            assert sorted(exchange._groups_for_round(dimension)) == expected


def test_route_is_pure_table_lookup():
    """Routing a batch equals the per-row coordinate map, with no Python loop."""
    store = ObjectStore()
    exchange = MultiLevelExchange(store, 24, keys=["key"], levels=2)
    rng = np.random.default_rng(8)
    targets = rng.integers(0, 24, 1000).astype(np.int64)
    for dimension in range(2):
        for group in exchange._groups_for_round(dimension):
            route = exchange._route_for_round(dimension, group)
            routed = route(targets)
            member_by_coord = {
                grid_coordinates(worker, exchange.dims)[dimension]: worker
                for worker in group
            }
            expected = np.array(
                [
                    member_by_coord[grid_coordinates(int(t), exchange.dims)[dimension]]
                    for t in targets
                ],
                dtype=np.int64,
            )
            np.testing.assert_array_equal(routed, expected)
            assert route(np.zeros(0, dtype=np.int64)).shape == (0,)


def test_explicit_dims_validated():
    store = ObjectStore()
    with pytest.raises(ExchangeError):
        MultiLevelExchange(store, 16, keys=["key"], levels=2, dims=[3, 4])
    with pytest.raises(ExchangeError):
        MultiLevelExchange(store, 16, keys=["key"], levels=2, dims=[16])


def test_wrong_table_count_raises():
    store = ObjectStore()
    exchange = MultiLevelExchange(store, 4, keys=["key"], levels=2)
    with pytest.raises(ExchangeError):
        exchange.run(_make_tables(3))


def test_exchange_of_empty_tables():
    store = ObjectStore()
    P = 4
    tables = [{"key": np.zeros(0, dtype=np.int64), "value": np.zeros(0)} for _ in range(P)]
    exchange = MultiLevelExchange(store, P, keys=["key"], levels=2)
    result = exchange.run(tables)
    assert all(table_num_rows(t) == 0 for t in result)


def test_single_worker_exchange_is_identity_like():
    store = ObjectStore()
    tables = _make_tables(1, rows_per_worker=50)
    exchange = MultiLevelExchange(store, 1, keys=["key"], levels=1)
    result = exchange.run(tables)
    assert table_num_rows(result[0]) == 50


@settings(max_examples=15, deadline=None)
@given(
    num_workers=st.sampled_from([4, 6, 8, 9, 12, 16]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_exchange_placement_property(num_workers, seed):
    """Property: after the exchange, every row is on the worker its key hashes to,
    and no row is lost or duplicated, regardless of P or seed."""
    store = ObjectStore()
    tables = _make_tables(num_workers, rows_per_worker=30, seed=seed)
    exchange = MultiLevelExchange(store, num_workers, keys=["key"], levels=2)
    result = exchange.run(tables)
    all_in = np.sort(np.concatenate([t["key"] for t in tables]))
    all_out = np.sort(np.concatenate([t["key"] for t in result if t]))
    np.testing.assert_array_equal(all_in, all_out)
    for worker, table in enumerate(result):
        if not table:
            continue
        assignment = partition_assignments(table, ["key"], num_workers)
        assert np.all(assignment == worker)
