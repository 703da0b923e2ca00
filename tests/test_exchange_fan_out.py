"""Exchange fan-out priced from bytes: the rule, that no choice of it changes
an answer, what a one-partition exchange writes, and where the estimate shows.

The rule has no switch to test through: a larger fan-out is reached by
registering a relation with a larger stored size than it has (the catalog's
size is only ever a hint), by an environment whose link is slow enough that
every byte is worth a worker (the trick of ``test_join_wave_fusion.py``), or
by passing ``num_workers``, which overrides the rule as it always overrode
the file count.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.driver.shuffle as shuffle_module
from repro.cloud.environment import CloudEnvironment
from repro.cloud.network import BandwidthModel
from repro.config import DEFAULT_SCAN_CONNECTIONS, IntegrityConfig, MiB
from repro.driver.shuffle import (
    _join_legacy_naming,
    _join_map_naming,
    _reduce_compute_seconds,
    _write_partitions,
    exchange_fan_out,
)
from repro.exchange.basic import ExchangeStats
from repro.exchange.codec import encode_partition_set, slice_crcs
from repro.exchange.partition import partition_assignments, scatter_by_assignment
from repro.frontend.sql import SqlCatalog, parse_sql
from repro.plan.optimizer import optimize
from repro.workload import queries as q

from tests.test_dag_parity import _exchange_object_count
from tests.test_join_e2e import assert_tables_match
from tests.test_join_wave_fusion import MODES, RELATIONS, SEED, SF, SLOW_LINK, _session, _stack
from tests.test_mode_parity import assert_bit_identical, leaked_segments

MEMORY_MIB = 2048
FILES = 8  # LINEITEM files = the widest fleet = the fan-out before the rule


def _break_even(bandwidth=None, memory_mib=MEMORY_MIB) -> int:
    """Bytes one join worker streams in the fixed time the model charges it."""
    bandwidth = bandwidth or BandwidthModel()
    fixed = _reduce_compute_seconds(0) + bandwidth.request_latency_seconds
    return int(fixed * bandwidth.link_bandwidth(memory_mib, DEFAULT_SCAN_CONNECTIONS))


# -- (a) the rule ------------------------------------------------------------------------


def test_break_even_is_about_thirty_mib_under_the_default_model():
    # 0.13 s of fixed time at the ~233 MiB/s a 2 GiB worker fetches with.
    assert 29 * MiB < _break_even() < 32 * MiB


@pytest.mark.parametrize("share_delta, expected", [(-1, 3), (0, 3), (1, 4)])
def test_one_byte_over_the_break_even_share_starts_one_more_worker(share_delta, expected):
    estimated = 3 * _break_even() + share_delta
    assert exchange_fan_out(BandwidthModel(), MEMORY_MIB, estimated, [FILES, 2]) == expected


def test_rule_clamps_to_one_and_to_the_widest_fleet():
    model = BandwidthModel()
    assert exchange_fan_out(model, MEMORY_MIB, 1, [FILES, 4]) == 1
    assert exchange_fan_out(model, MEMORY_MIB, _break_even(), [FILES, 4]) == 1
    assert exchange_fan_out(model, MEMORY_MIB, FILES * _break_even(), [FILES, 4]) == FILES
    assert exchange_fan_out(model, MEMORY_MIB, 10**15, [FILES, 4]) == FILES
    assert exchange_fan_out(model, MEMORY_MIB, 10**15, [1]) == 1
    # At 100 B/s (the fusion suite's unfused fixtures) any byte fills the clamp.
    assert exchange_fan_out(BandwidthModel(**SLOW_LINK), MEMORY_MIB, 100_000, [4, 2]) == 4


def test_unknown_bytes_and_explicit_workers_keep_the_fan_out_of_before():
    model = BandwidthModel()
    assert exchange_fan_out(model, MEMORY_MIB, 0, [3, FILES, 1]) == FILES
    assert exchange_fan_out(model, MEMORY_MIB, 1, [3, FILES, 1], num_workers=5) == 5
    # As before, an explicit count is not clamped to the files.
    assert exchange_fan_out(model, MEMORY_MIB, 0, [2], num_workers=16) == 16


@settings(max_examples=300, deadline=None)
@given(
    estimated=st.integers(min_value=0, max_value=2**42),
    more=st.integers(min_value=0, max_value=2**40),
    mappers=st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=7),
    num_workers=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    memory_mib=st.sampled_from([512, 1024, 2048, 3008]),
    steady=st.floats(min_value=1.0, max_value=2e9),
    burst_over=st.floats(min_value=1.0, max_value=8.0),
    slowdown=st.floats(min_value=1.0, max_value=1e6),
)
def test_fan_out_properties(
    estimated, more, mappers, num_workers, memory_mib, steady, burst_over, slowdown
):
    model = BandwidthModel(steady_bandwidth=steady, burst_bandwidth=steady * burst_over)
    chosen = exchange_fan_out(model, memory_mib, estimated, mappers, num_workers)
    if num_workers is not None:
        assert chosen == num_workers
        return
    assert 1 <= chosen <= max(mappers)
    if estimated == 0:
        assert chosen == max(mappers)
        return
    # More bytes never start fewer workers ...
    assert exchange_fan_out(model, memory_mib, estimated + more, mappers) >= chosen
    # ... and neither does a slower link: each byte takes longer to stream
    # against the same fixed time.
    slower = BandwidthModel(
        steady_bandwidth=steady / slowdown,
        burst_bandwidth=steady * burst_over / slowdown,
    )
    assert exchange_fan_out(slower, memory_mib, estimated, mappers) >= chosen
    # The share of the chosen fan-out streams within the fixed time (unless
    # the clamp cut it short), and one worker fewer would not.
    break_even = max(1, _break_even(model, memory_mib))
    if chosen < max(mappers):
        assert estimated <= chosen * break_even
    if chosen > 1:
        assert estimated > (chosen - 1) * break_even


# -- (b) sizes reach the coordinator without a request -----------------------------------


def test_sizes_travel_from_the_catalog_to_the_physical_sides():
    catalog = SqlCatalog()
    catalog.register("lineitem", ["s3://t/l/0.lpq", "s3://t/l/1.lpq"],
                     columns=("l_orderkey", "l_quantity"), size_bytes=700)
    catalog.register("orders", "s3://t/o/*.lpq", columns=("o_orderkey", "o_custkey"),
                     size_bytes=300)
    catalog.register("customer", ["s3://t/c/0.lpq"], columns=("c_custkey", "c_name"))
    sql = "SELECT sum(l_quantity) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
    binary, _ = optimize(parse_sql(sql, catalog))
    assert (binary.left.input_bytes, binary.right.input_bytes) == (700, 300)
    assert binary.as_dag().estimated_exchange_bytes == 1000

    dag, _ = optimize(parse_sql(sql + " JOIN customer ON o_custkey = c_custkey", catalog))
    assert sorted(side.input_bytes for _, side in dag.sides()) == [0, 300, 700]
    # One unknown side: the sum bounds nothing, so there is no estimate.
    assert dag.estimated_exchange_bytes == 0
    assert dag.exchange_partitions() == 2
    assert "relation sizes unknown" in dag.explain()


def test_estimated_cost_and_explain_price_the_fan_out_the_rule_returns():
    catalog = SqlCatalog()
    files = [f"s3://t/l/{index}.lpq" for index in range(FILES)]
    for size_bytes, partitions in [(0, FILES), (1000, 1), (3 * _break_even(), 4)]:
        catalog.register("lineitem", files, columns=("l_orderkey", "l_quantity"),
                         size_bytes=size_bytes)
        catalog.register("orders", ["s3://t/o/0.lpq"], columns=("o_orderkey",),
                         size_bytes=size_bytes and 1)
        plan, _ = optimize(parse_sql(
            "SELECT sum(l_quantity) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
            catalog,
        ))
        assert plan.as_dag().exchange_partitions() == partitions
        assert f"exchange: {partitions} join worker(s) per wave" in plan.explain()
        # One mapper per file either way; only the join wave's width differs.
        at_file_count = plan.estimated_cost(num_workers=FILES)
        if partitions == FILES:
            assert plan.estimated_cost() == at_file_count
        else:
            assert plan.estimated_cost() < at_file_count


# -- (c) no fan-out changes an answer ----------------------------------------------------

#: query -> (SQL, reference, the reference's relations, bit-identical?)
QUERIES = {
    "q3": (q.q3_sql, q.reference_q3, ("lineitem", "orders"), False),
    "q5": (q.q5_sql, q.reference_q5,
           ("lineitem", "orders", "customer", "supplier", "nation", "region"), True),
    "q10": (q.q10_sql, q.reference_q10, ("lineitem", "orders", "customer", "nation"), True),
    "q18": (q.q18_sql, q.reference_q18, ("lineitem", "orders", "customer"), True),
}


@pytest.fixture(scope="module")
def tables():
    return {name: generator(SF, seed=SEED).generate() for name, (_, generator) in RELATIONS.items()}


@pytest.fixture(scope="module")
def stack():
    return _stack(lineitem_files=FILES, orders_files=4)


def _inflated(datasets, size_bytes):
    """The same files, registered as if each relation stored ``size_bytes``."""
    return {
        name: dataclasses.replace(dataset, total_bytes=size_bytes)
        for name, dataset in datasets.items()
    }


@pytest.mark.parametrize("mode", MODES)
def test_answers_do_not_depend_on_the_fan_out(stack, tables, mode):
    env, datasets = stack
    kwargs = {"execution_mode": mode}
    if mode == "processes":
        kwargs["max_parallel_invocations"] = 2
    # 40 MiB a relation: Q3's two make 3 join workers, Q18's three 4, Q10's
    # four 6, and Q5's six fill the clamp at one per LINEITEM file.
    inflated = {"q3": 3, "q18": 4, "q10": 6, "q5": FILES}
    sessions = {
        "rule": _session(env, datasets, **kwargs),
        "inflated": _session(env, _inflated(datasets, 40 * MiB), **kwargs),
    }
    try:
        for name, (sql, reference, relations, exact) in QUERIES.items():
            expected = reference(*(tables[relation] for relation in relations))
            runs = {
                "rule": sessions["rule"].sql(sql()),
                "inflated": sessions["inflated"].sql(sql()),
            }
            for num_workers in (1, 2, 8):
                runs[f"w{num_workers}"] = sessions["rule"].sql(sql(), num_workers=num_workers)
            partitions = {label: run.statistics.exchange_partitions for label, run in runs.items()}
            assert partitions == {
                "rule": 1, "inflated": inflated[name], "w1": 1, "w2": 2, "w8": 8,
            }, name
            for label, run in runs.items():
                where = f"{name}/{mode}/{label}"
                stats = run.statistics
                assert stats.exchange.list_requests + stats.exchange.head_requests == 0, where
                if exact:
                    assert_bit_identical(expected, run.table, where)
                else:
                    assert_tables_match(run.table, expected, where)
            # One worker reads each sender object once; eight read it eight times.
            assert (
                runs["rule"].statistics.exchange.get_requests
                < runs["w8"].statistics.exchange.get_requests
            ), name
            assert runs["rule"].statistics.estimated_exchange_bytes == sum(
                datasets[relation].total_bytes for relation in relations
            )
            assert runs["rule"].statistics.exchange.bytes_written <= (
                runs["rule"].statistics.estimated_exchange_bytes
            )
    finally:
        for session in sessions.values():
            session.close()
    assert _exchange_object_count(env) == 0
    assert leaked_segments() == []


def test_a_slow_link_drives_the_fan_out_back_to_the_file_count(tables):
    """SF 0.01, the ``join_dag`` benchmark shape: ~1 MB of files is one join
    worker's worth on the default link and one per LINEITEM file at 100 B/s,
    where a share of a few bytes already outlasts a worker's fixed time."""
    results = {}
    for slow in (False, True):
        env, datasets = _stack(scale_factor=0.01, lineitem_files=FILES, orders_files=4, slow=slow)
        results[slow] = _session(env, datasets).sql(q.q5_sql())
        assert _exchange_object_count(env) == 0
    fast, slow = results[False].statistics, results[True].statistics
    assert (fast.exchange_partitions, slow.exchange_partitions) == (1, FILES)
    assert fast.estimated_exchange_bytes == slow.estimated_exchange_bytes > 0
    assert (fast.join_waves, slow.join_waves) == (1, 5)
    assert_bit_identical(results[False].table, results[True].table)


def test_statistics_and_explain_put_the_estimate_next_to_the_actual(stack):
    env, datasets = stack
    result = _session(env, datasets).sql(q.q18_sql())
    stats = result.statistics
    estimated = sum(datasets[name].total_bytes for name in ("lineitem", "orders", "customer"))
    assert (stats.exchange_partitions, stats.estimated_exchange_bytes) == (1, estimated)
    assert 0 < stats.exchange.bytes_written <= estimated
    lines = result.explain().splitlines()
    assert (
        f"exchange: 1 join worker(s) per wave, priced from <= {estimated} bytes "
        "through the exchange"
    ) in lines
    assert lines[-2] == (
        f"exchange: 1 join worker(s) per wave; {stats.exchange.bytes_written} bytes "
        f"written (estimated <= {estimated})"
    )
    assert lines[-1].startswith("executed: wave 1 = ")

    overridden = _session(env, datasets).sql(q.q18_sql(), num_workers=2)
    assert overridden.statistics.exchange_partitions == 2
    assert "exchange: 2 join worker(s) per wave; " in overridden.explain()


# -- (d) a one-partition exchange neither hashes nor reorders -----------------------------


def _rows(num_rows=5000, seed=3):
    rng = np.random.default_rng(seed)
    return {
        "k": rng.integers(0, 900, num_rows).astype(np.int64),
        "price": np.round(rng.uniform(1, 1000, num_rows), 2),
        "flag": rng.integers(0, 3, num_rows).astype(np.int32),
    }


def _write(env, rows, num_partitions, attempt=0):
    event = {"query_id": "q", "write_combining": True, "attempt": attempt}
    stats = ExchangeStats()
    announcement = _write_partitions(
        env, event, 4, rows, ["k"], num_partitions,
        _join_map_naming("q", "L", 2, attempt), _join_legacy_naming("q", "L", 2, attempt),
        stats, IntegrityConfig(),
    )
    return announcement, stats


def test_one_partition_write_calls_no_partitioner_and_writes_the_same_bytes(monkeypatch):
    rows = _rows()
    # What the partitioning path makes of P = 1: every hash lands on
    # partition 0 and the stable sort of all-zero ids is the identity.
    assignment = partition_assignments(rows, ["k"], 1)
    reordered, boundaries = scatter_by_assignment(rows, assignment, 1)
    payload, offsets = encode_partition_set(reordered, boundaries)
    path = _join_map_naming("q", "L", 2).combined_path(4, offsets, slice_crcs(payload, offsets))

    def forbidden(*args, **kwargs):
        raise AssertionError("the one-partition write path partitioned")

    monkeypatch.setattr(shuffle_module, "partition_assignments", forbidden)
    monkeypatch.setattr(shuffle_module, "scatter_by_assignment", forbidden)
    monkeypatch.setattr(np, "argsort", forbidden)
    env = CloudEnvironment.create()
    for bucket in _join_map_naming("q", "L", 2).buckets():
        env.s3.ensure_bucket(bucket)
    announcement, stats = _write(env, rows, 1)

    assert announcement == {
        "format": "combined", "partitions_written": 1,
        "combined_path": path, "combined_size": len(payload),
    }
    assert env.s3.get_path(path).data == payload
    assert (stats.put_requests, stats.bytes_written) == (1, len(payload))
    # The columns went out as they came in: nothing gathered them.
    for name, column in reordered.items():
        assert np.array_equal(column, rows[name])


def test_one_partition_write_of_no_rows_is_an_empty_object_like_before():
    env = CloudEnvironment.create()
    for bucket in _join_map_naming("q", "L", 2).buckets():
        env.s3.ensure_bucket(bucket)
    empty = {name: column[:0] for name, column in _rows().items()}
    announcement, stats = _write(env, empty, 1)
    assert (announcement["format"], announcement["combined_size"]) == ("combined", 0)
    assert stats.bytes_written == 0
