"""Broadcast-fused join waves: which stages fuse, that fusing changes no
answer, what a fused query requests, how a whole-object read recovers, and
that only a faulted query pays for a LIST sweep.

An *unfused* run needs no switch: the grouping is priced with the
environment's ``BandwidthModel``, so an environment whose link is slow enough
that reading even REGION whole costs more than a wave runs one wave per
stage, exactly as before fusion existed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
import repro.driver.shuffle as shuffle_module
from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import FaultPlan, FaultRule, chaos_plan
from repro.cloud.network import BandwidthModel
from repro.config import MiB
from repro.counters import Counts, LayerView
from repro.driver.admission import CancellationToken
from repro.driver.resilience import ResiliencePolicy
from repro.driver.shuffle import (
    BROADCAST_MEMORY_FRACTION,
    JOIN_RESULT_QUEUE,
    _group_join_waves,
)
from repro.errors import ExchangeError, QueryCancelledError
from repro.exchange.codec import encode_partition_set, slice_crcs
from repro.exchange.fetch import FetchPlan, SenderManifest
from repro.exchange.naming import WriteCombiningNaming
from repro.exchange.partition import partition_assignments, scatter_by_assignment
from repro.workload import queries as q
from repro.workload import tpch

from tests.test_dag_parity import _exchange_object_count
from tests.conftest import leaked_segments
from tests.test_mode_parity import assert_bit_identical

SF = 0.002
SEED = 7
MODES = ["serial", "threads", "processes"]
MEMORY_MIB = 2048

RELATIONS = {
    "lineitem": (tpch.generate_lineitem_dataset, tpch.LineitemGenerator),
    "orders": (tpch.generate_orders_dataset, tpch.OrdersGenerator),
    "customer": (tpch.generate_customer_dataset, tpch.CustomerGenerator),
    "supplier": (tpch.generate_supplier_dataset, tpch.SupplierGenerator),
    "part": (tpch.generate_part_dataset, tpch.PartGenerator),
    "nation": (tpch.generate_nation_dataset, tpch.NationGenerator),
    "region": (tpch.generate_region_dataset, tpch.RegionGenerator),
}

#: query -> (SQL, reference, the reference's relations in argument order)
DAG_QUERIES = {
    "q5": (q.q5_sql, q.reference_q5,
           ("lineitem", "orders", "customer", "supplier", "nation", "region")),
    "q7": (q.q7_sql, q.reference_q7, ("lineitem", "orders", "customer", "supplier")),
    "q9": (q.q9_sql, q.reference_q9, ("lineitem", "part", "supplier", "orders", "nation")),
    "q10": (q.q10_sql, q.reference_q10, ("lineitem", "orders", "customer", "nation")),
    "q18": (q.q18_sql, q.reference_q18, ("lineitem", "orders", "customer")),
}

#: One wave per stage: at 100 B/s reading even the one-row REGION side (one
#: 65-byte frame) whole costs more modelled time than the wave its fusion
#: would remove.
SLOW_LINK = dict(steady_bandwidth=100.0, burst_bandwidth=100.0)


def _stack(scale_factor=SF, lineitem_files=4, orders_files=2, slow=False):
    """An environment holding all seven relations; ``slow`` makes it unfused."""
    env = CloudEnvironment.create(region="eu")
    if slow:
        env.bandwidth = BandwidthModel(**SLOW_LINK)
    datasets = {}
    for relation, (write, _) in RELATIONS.items():
        files = {"lineitem": {"num_files": lineitem_files},
                 "orders": {"num_files": orders_files}}.get(relation, {})
        datasets[relation] = write(env.s3, scale_factor=scale_factor, seed=SEED, **files)
    return env, datasets


def _session(env, datasets, **driver_kwargs):
    session = repro.connect(env, **driver_kwargs)
    for dataset in datasets.values():
        session.register(dataset)
    return session


@pytest.fixture(scope="module")
def tables():
    return {name: generator(SF, seed=SEED).generate() for name, (_, generator) in RELATIONS.items()}


@pytest.fixture(scope="module")
def fused():
    return _stack()


@pytest.fixture(scope="module")
def unfused():
    return _stack(slow=True)


# -- (a) the grouping rule, on synthetic announcements ---------------------------------

P = 8
SMALL, BIG = 64 * 1024, 64 * MiB


def _build_side(*sizes):
    """A build side's sender spec: one combined object per size, P equal slices."""
    naming = WriteCombiningNaming(bucket="shuffle-b", prefix="q/R1/", num_buckets=10)
    return [
        [sender, naming.path(sender, 0), size, [size * p // P for p in range(P + 1)], None]
        for sender, size in enumerate(sizes)
    ]


def _waves(sides, bandwidth=None, memory_mib=MEMORY_MIB):
    env = CloudEnvironment.create()
    env.bandwidth = bandwidth or env.bandwidth
    return _group_join_waves(env, sides, P, memory_mib)


def test_small_build_sides_fuse_and_a_big_one_starts_a_wave():
    sides = [_build_side(SMALL), _build_side(SMALL), _build_side(BIG), _build_side(SMALL)]
    assert _waves(sides) == [[0, 1], [2, 3]]


def test_stage_zero_never_forces_a_boundary():
    # Stage 0's build side is read by partition whatever its size.
    assert _waves([_build_side(BIG), _build_side(SMALL, SMALL)]) == [[0, 1]]
    assert _waves([_build_side(BIG)]) == [[0]]


def test_fused_sides_stay_within_the_memory_share():
    # A link fast enough that only the memory cap can refuse a side.
    fast = BandwidthModel(steady_bandwidth=1e12, burst_bandwidth=1e12)
    memory_mib = 128
    side = int(0.6 * BROADCAST_MEMORY_FRACTION * memory_mib * MiB)
    sides = [_build_side(SMALL)] + [_build_side(side)] * 3
    # Two 0.6-share sides do not fit one wave; the cap counts per wave.
    assert _waves(sides, fast, memory_mib) == [[0, 1], [2, 3]]
    assert _waves([_build_side(SMALL), _build_side(2 * side)], fast, memory_mib) == [[0], [1]]


def test_break_even_is_priced_with_the_environments_bandwidth_model():
    sides = [_build_side(SMALL)] * 4
    assert _waves(sides) == [[0, 1, 2, 3]]
    assert _waves(sides, BandwidthModel(**SLOW_LINK)) == [[0], [1], [2], [3]]
    # An empty side (every row filtered away) costs nothing to broadcast.
    assert _waves([_build_side(SMALL), _build_side(0)], BandwidthModel(**SLOW_LINK)) == [[0, 1]]


# -- (b) fusing changes no answer --------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_dag_queries_bit_identical_fused_unfused_reference(fused, unfused, tables, mode):
    kwargs = {"execution_mode": mode}
    if mode == "processes":
        kwargs["max_parallel_invocations"] = 2
    sessions = [_session(*fused, **kwargs), _session(*unfused, **kwargs)]
    try:
        for name, (sql, reference, relations) in DAG_QUERIES.items():
            expected = reference(*(tables[relation] for relation in relations))
            one_wave, wave_per_stage = (session.sql(sql()) for session in sessions)
            label = f"{name}/{mode}"
            assert one_wave.statistics.join_waves == 1, label
            assert one_wave.statistics.broadcast_stages == one_wave.statistics.dag_stages - 1
            assert wave_per_stage.statistics.join_waves == wave_per_stage.statistics.dag_stages >= 2
            assert wave_per_stage.statistics.broadcast_stages == 0
            assert_bit_identical(expected, one_wave.table, f"{label}/fused")
            assert_bit_identical(expected, wave_per_stage.table, f"{label}/unfused")
            for result in (one_wave, wave_per_stage):
                exchange = result.statistics.exchange
                assert exchange.list_requests + exchange.head_requests == 0, label
    finally:
        for session in sessions:
            session.close()
    for env, _ in (fused, unfused):
        assert _exchange_object_count(env) == 0
    assert leaked_segments() == []


def _sorted_rows(table):
    names = sorted(table)
    order = np.lexsort([np.asarray(table[name]) for name in reversed(names)])
    return {name: np.asarray(table[name])[order] for name in names}


def test_aggregate_free_join_returns_the_same_row_set(fused, unfused, tables):
    sql = (
        "SELECT l_orderkey, l_linenumber, o_custkey, c_nationkey FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey "
        "WHERE o_totalprice > 250000"
    )
    results = [_session(*stack).sql(sql) for stack in (fused, unfused)]
    assert [result.statistics.join_waves for result in results] == [1, 2]

    lineitem, orders, customer = (tables[name] for name in ("lineitem", "orders", "customer"))
    keep = orders["o_totalprice"] > 250000
    order_keys, custkeys = orders["o_orderkey"][keep], orders["o_custkey"][keep]
    by_key = np.argsort(order_keys)
    position = np.searchsorted(order_keys[by_key], lineitem["l_orderkey"])
    position[position == len(order_keys)] = 0
    matched = order_keys[by_key][position] == lineitem["l_orderkey"]
    custkey = custkeys[by_key][position[matched]]
    expected = _sorted_rows({
        "l_orderkey": lineitem["l_orderkey"][matched],
        "l_linenumber": lineitem["l_linenumber"][matched],
        "o_custkey": custkey,
        "c_nationkey": customer["c_nationkey"][custkey - 1],  # dense keys from 1
    })
    assert len(expected["l_orderkey"]) > 0
    for result in results:
        assert_bit_identical(expected, _sorted_rows(result.table))


def test_explain_reports_the_executed_grouping(fused, unfused):
    one_wave, wave_per_stage = (_session(*stack).sql(q.q5_sql()) for stack in (fused, unfused))
    # The static plan text is the same either way: stages are logical.
    assert one_wave.plan_explain == wave_per_stage.plan_explain
    for stage in range(5):
        assert f"join stage {stage} on" in one_wave.plan_explain
    assert one_wave.explain().endswith("executed: wave 1 = stages 0-4 (1-4 broadcast)")
    assert wave_per_stage.explain().endswith(
        "executed: wave 1 = stage 0, wave 2 = stage 1, wave 3 = stage 2, "
        "wave 4 = stage 3, wave 5 = stage 4"
    )
    assert one_wave.statistics.num_workers < wave_per_stage.statistics.num_workers


# -- (c) what a fused Q5 requests, on the join_dag benchmark shape ---------------------------


def _assert_q5_request_pins(num_workers, partitions, mappers, puts, sizes_known=True):
    env, datasets = _stack(scale_factor=0.01, lineitem_files=8, orders_files=4)
    if not sizes_known:
        datasets = {
            name: dataclasses.replace(dataset, total_bytes=0)
            for name, dataset in datasets.items()
        }
    session = _session(env, datasets)
    session.sql(q.q5_sql(), num_workers=num_workers)  # warm: buckets and queues exist
    objects_before = env.s3.object_count()
    before = {name: env.ledger.total("s3", name)
              for name in ("list_requests", "put_requests", "get_requests")}
    result = session.sql(q.q5_sql(), num_workers=num_workers)
    stats = result.statistics
    delta = {name: env.ledger.total("s3", name) - count for name, count in before.items()}

    assert (stats.dag_stages, stats.join_waves, stats.broadcast_stages) == (5, 1, 4)
    assert stats.exchange_partitions == partitions
    assert stats.num_workers - partitions == sum(stats.map_fleets.values()) == mappers
    assert delta["list_requests"] == 0 and stats.gc_list_requests == 0
    assert stats.exchange.list_requests + stats.exchange.head_requests == 0
    # One combined PUT per mapper that kept a row, none by the join wave; no
    # spill either.
    assert stats.exchange.put_requests == delta["put_requests"] == puts
    # Every worker reads each sender object at most once, slice or whole.
    assert stats.exchange.get_requests <= partitions * puts
    assert delta["get_requests"] == stats.get_requests + stats.exchange.get_requests
    assert stats.gc_objects_deleted == puts
    assert env.s3.object_count() == objects_before


def test_fused_q5_request_pins_on_the_join_dag_shape():
    # All seven relations together store ~1 MB: every relation is worth less
    # than one mapper's break-even, so each of Q5's six fleets is one mapper
    # (8 LINEITEM files opened as one batch), one join worker reads each
    # sender object once — 7 workers in all.
    _assert_q5_request_pins(num_workers=None, partitions=1, mappers=6, puts=6)


def test_fused_q5_request_pins_when_sizes_are_unknown():
    # A plan that does not know the relations' sizes keeps one mapper per
    # file (18) and one join worker per LINEITEM file.  The ORDERS date
    # predicate prunes three of its four files whole: those mappers PUT nothing.
    _assert_q5_request_pins(
        num_workers=None, partitions=8, mappers=18, puts=15, sizes_known=False
    )


def test_fused_q5_request_pins_at_the_file_count_fan_out():
    # What ran before fan-out was priced: one join worker per LINEITEM file.
    _assert_q5_request_pins(num_workers=8, partitions=8, mappers=18, puts=15)


# -- (d) whole-object reads are verified and recover alone ------------------------------------


def _write_combined(store, sender, keys):
    table = {"k": np.asarray(keys, dtype=np.int64), "v": np.asarray(keys) * 10.0 + sender}
    assignment = partition_assignments(table, ["k"], P)
    reordered, boundaries = scatter_by_assignment(table, assignment, P)
    payload, offsets = encode_partition_set(reordered, boundaries)
    naming = WriteCombiningNaming(bucket="fx", prefix="q/R1/", num_buckets=2)
    path = naming.path(sender, 0)
    store.put_path(path, payload)
    return [sender, path, len(payload), offsets, slice_crcs(payload, offsets)], table


def test_broadcast_manifest_plans_one_whole_object_read_per_sender(env):
    rng = np.random.default_rng(5)
    entries, senders = zip(*(
        _write_combined(env.s3, sender, keys)
        for sender, keys in enumerate([rng.integers(0, 50, 40), [], rng.integers(0, 3, 6)])
    ))
    manifest = SenderManifest(list(entries), broadcast=True)
    counts = Counts()
    stats = LayerView(counts, "exchange")
    plan = FetchPlan.build([manifest], 3, P, counts)

    assert [(item.sender, item.start, item.end) for item in plan.ranges] == [
        (0, 0, entries[0][2]), (2, 0, entries[2][2]),  # the empty sender costs nothing
    ]
    assert plan.slices == sum(len(item.parts) for item in plan.ranges) > len(plan.ranges)
    (pieces,), _ = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, counts)
    assert (stats.get_requests, stats.list_requests) == (2, 0)
    assert stats.bytes_read == entries[0][2] + entries[2][2]
    assert len(pieces) == plan.slices
    got = np.sort(np.concatenate([piece["v"] for piece in pieces]))
    np.testing.assert_array_equal(got, np.sort(np.concatenate([t["v"] for t in senders])))

    # A directory that does not describe P slices is refused, not misread.
    with pytest.raises(ExchangeError):
        FetchPlan.build([SenderManifest(list(entries), broadcast=True)], 0, P + 1, counts)


def test_bit_flipped_broadcast_object_is_refetched_alone(env):
    entry, _ = _write_combined(env.s3, 0, np.arange(64))
    plan = FetchPlan.build([SenderManifest([entry], broadcast=True)], 0, P, Counts())
    clean, clean_seconds = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, Counts())
    env.install_fault_plan(FaultPlan(
        [FaultRule("s3", "bitflip", rate=1.0, operation="get", max_count=1)], seed=3
    ))
    counts = Counts()
    stats, istats = LayerView(counts, "exchange"), LayerView(counts, "integrity")
    pieces, seconds = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, counts)
    assert (stats.get_requests, istats.re_reads, sum(istats.mismatches.values())) == (2, 1, 1)
    assert seconds > clean_seconds
    for piece, reference in zip(pieces[0], clean[0]):
        assert_bit_identical(reference, piece)


def test_corrupt_broadcast_read_in_a_fused_wave_keeps_the_result(fused):
    env, datasets = fused
    session = _session(env, datasets)
    clean = session.sql(q.q5_sql())
    # R3 is ORDERS, a broadcast side of the fused wave (stage 3).
    env.install_fault_plan(FaultPlan(
        [FaultRule("s3", "bitflip", rate=1.0, operation="get", match="/R3/", max_count=1)],
        seed=11,
    ))
    try:
        result = session.sql(q.q5_sql())
    finally:
        env.install_fault_plan(None)
    assert result.statistics.join_waves == 1
    assert result.statistics.integrity.re_reads == 1
    assert result.statistics.exchange.get_requests == clean.statistics.exchange.get_requests + 1
    assert_bit_identical(clean.table, result.table)
    assert _exchange_object_count(env) == 0


# -- (e) only a faulted query sweeps by LIST ---------------------------------------------------


@pytest.mark.parametrize("seed", (11, 23))
def test_list_sweep_runs_after_chaos_and_not_after_a_clean_run(fused, seed):
    env, datasets = fused
    session = _session(env, datasets, resilience_policy=ResiliencePolicy(max_attempts=14))

    def run(**kwargs):
        lists = env.ledger.total("s3", "list_requests")
        result = session.sql(q.q5_sql(), **kwargs)
        return result, env.ledger.total("s3", "list_requests") - lists

    clean, clean_lists = run()
    assert clean.statistics.resilience.clean
    assert (clean_lists, clean.statistics.gc_list_requests) == (0, 0)

    env.install_fault_plan(chaos_plan(seed=seed, rate=0.2, max_count=2))
    try:
        stormy, stormy_lists = run(max_worker_retries=13)
    finally:
        env.install_fault_plan(None)
    assert stormy.statistics.resilience.faults_injected
    assert stormy.statistics.gc_list_requests > 0
    assert stormy_lists >= stormy.statistics.gc_list_requests
    assert_bit_identical(clean.table, stormy.table)
    assert _exchange_object_count(env) == 0


# -- (f) the statistics' dollars are the ledger's ------------------------------------------------


@pytest.mark.parametrize("query", ["q3", "q5"])
def test_fault_free_cost_total_matches_the_ledger(fused, query):
    env, datasets = fused
    session = _session(env, datasets)
    sql = {"q3": q.q3_sql, "q5": q.q5_sql}[query]()
    session.sql(sql)  # warm functions: the timed query bills no cold start
    before = env.total_cost()
    result = session.sql(sql)
    assert result.statistics.cost_total == pytest.approx(env.total_cost() - before, rel=0.02)


# -- cancellation between two join waves (needs more than one: the unfused environment) --------


def test_q5_cancel_between_join_waves_gcs_exchange_state(unfused, monkeypatch):
    """Cancelled at ``join stage 1`` — two join waves already re-emitted
    intermediates — every tag's objects are swept, and a rerun is
    bit-identical."""
    env, datasets = unfused
    session = _session(env, datasets)
    baseline = session.sql(q.q5_sql())
    before = _exchange_object_count(env)
    deleted = []
    original = shuffle_module._gc_cancelled_query

    def spy(*args, **kwargs):
        deleted.append(original(*args, **kwargs))
        return deleted[-1]

    monkeypatch.setattr(shuffle_module, "_gc_cancelled_query", spy)
    token = CancellationToken(cancel_at_stage="join stage 1")
    with pytest.raises(QueryCancelledError) as excinfo:
        session.sql(q.q5_sql(), cancel=token)
    assert excinfo.value.stage == token.observed_stage == "join stage 1"
    assert deleted and deleted[0] >= 1
    assert _exchange_object_count(env) == before
    assert env.sqs.approximate_message_count(JOIN_RESULT_QUEUE) == 0
    assert_bit_identical(baseline.table, session.sql(q.q5_sql()).table)
