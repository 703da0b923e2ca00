"""Scan fleets priced from bytes: the rule, the batched open it relies on,
that no fleet width changes an answer, and where the width shows.

A shuffle DAG starts ⌈stored bytes / break-even⌉ mappers per relation
(:func:`~repro.driver.shuffle.scan_fan_out`), the break-even being what one
mapper streams in the driver invocation interval it adds to the launch.  That
only pays because a mapper dealt k files opens them as one pipelined batch
(:func:`~repro.engine.s3io.open_sources`): ⌈k / connections⌉ round trips, not
k.  A plan that does not know its sizes keeps one mapper per file, and
``num_workers`` caps the fleets as before.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.network import BandwidthModel, TransferPlan
from repro.cloud.s3 import ObjectStore
from repro.config import DEFAULT_SCAN_CONNECTIONS, INVOCATION_RATE_DRIVER
from repro.driver.shuffle import scan_fan_out
from repro.engine.s3io import S3ObjectSource
from repro.engine.scan import S3ScanOperator
from repro.exchange.cost_model import ExchangeCostModel
from repro.formats.compression import Compression
from repro.formats.parquet import write_table
from repro.frontend.sql import SqlCatalog, parse_sql
from repro.plan.expressions import col
from repro.plan.optimizer import optimize
from repro.workload import queries as q

from tests.test_dag_parity import _exchange_object_count
from tests.test_join_e2e import assert_tables_match
from tests.test_join_wave_fusion import MODES, RELATIONS, SEED, SF, _session, _stack
from tests.conftest import leaked_segments
from tests.test_mode_parity import assert_bit_identical

MEMORY_MIB = 2048


def _break_even(bandwidth=None, memory_mib=MEMORY_MIB, region="eu") -> int:
    """Bytes one mapper streams in the driver invocation interval it adds."""
    bandwidth = bandwidth or BandwidthModel()
    link = bandwidth.link_bandwidth(memory_mib, DEFAULT_SCAN_CONNECTIONS)
    return int(link / INVOCATION_RATE_DRIVER[region])


# -- (a) the rule ------------------------------------------------------------------------


def test_break_even_is_a_driver_interval_of_streaming():
    # ~233 MiB/s at 2 GiB and four connections, over 294 invocations a second.
    assert _break_even() == 830_938
    # A slower driver (Table 1's ap: 222/s) makes each mapper worth more bytes.
    assert _break_even(region="ap") > _break_even()
    ap_bytes = 3 * _break_even(region="ap")
    assert scan_fan_out(BandwidthModel(), MEMORY_MIB, ap_bytes, 8, region="ap") == 3
    assert scan_fan_out(BandwidthModel(), MEMORY_MIB, ap_bytes, 8) == 4


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("delta, extra", [(-1, 0), (0, 0), (1, 1)])
def test_one_byte_over_k_break_evens_starts_one_more_mapper(k, delta, extra):
    bytes_ = k * _break_even() + delta
    assert scan_fan_out(BandwidthModel(), MEMORY_MIB, bytes_, 64) == k + extra


def test_unknown_bytes_and_explicit_workers_keep_the_fleets_of_before():
    model = BandwidthModel()
    assert scan_fan_out(model, MEMORY_MIB, 0, 8) == 8
    assert scan_fan_out(model, MEMORY_MIB, 10**15, 8) == 8
    assert scan_fan_out(model, MEMORY_MIB, 1, 8) == 1
    # num_workers wins, clamped to the files as it always was.
    assert scan_fan_out(model, MEMORY_MIB, 1, 8, num_workers=5) == 5
    assert scan_fan_out(model, MEMORY_MIB, 0, 2, num_workers=16) == 2
    # At the paper's 500 MB files every file is worth its own mapper.
    assert scan_fan_out(model, MEMORY_MIB, 320 * 500_000_000, 320) == 320


@settings(max_examples=300, deadline=None)
@given(
    input_bytes=st.integers(min_value=0, max_value=2**42),
    more=st.integers(min_value=0, max_value=2**40),
    files=st.integers(min_value=1, max_value=4096),
    num_workers=st.one_of(st.none(), st.integers(min_value=1, max_value=512)),
    memory_mib=st.sampled_from([512, 1024, 2048, 3008]),
    steady=st.floats(min_value=1.0, max_value=2e9),
    burst_over=st.floats(min_value=1.0, max_value=8.0),
    slowdown=st.floats(min_value=1.0, max_value=1e6),
    region=st.sampled_from(sorted(INVOCATION_RATE_DRIVER)),
)
def test_fan_out_properties(
    input_bytes, more, files, num_workers, memory_mib, steady, burst_over, slowdown, region
):
    model = BandwidthModel(steady_bandwidth=steady, burst_bandwidth=steady * burst_over)

    def rule(bandwidth=model, bytes_=input_bytes, workers=None):
        return scan_fan_out(bandwidth, memory_mib, bytes_, files, workers, region)

    chosen = rule()
    assert 1 <= chosen <= files
    if num_workers is not None:
        assert rule(workers=num_workers) == min(num_workers, files)
    if input_bytes == 0:
        assert chosen == files
        return
    # More bytes never start fewer mappers ...
    assert rule(bytes_=input_bytes + more) >= chosen
    # ... and neither does a slower link: a mapper streams fewer bytes in the
    # interval it costs.
    slower = BandwidthModel(
        steady_bandwidth=steady / slowdown, burst_bandwidth=steady * burst_over / slowdown
    )
    assert rule(bandwidth=slower) >= chosen
    # The chosen fleet's share streams within one interval (unless the file
    # clamp cut it short), and one mapper fewer would not.
    break_even = max(1, _break_even(model, memory_mib, region))
    if chosen < files:
        assert input_bytes <= chosen * break_even
    if chosen > 1:
        assert input_bytes > (chosen - 1) * break_even


# -- (b) a worker opens its files as one batch -------------------------------------------


class RecordingStore(ObjectStore):
    """An object store that logs every GET as ``(key, start, end, suffix)``."""

    def __init__(self):
        super().__init__()
        self.create_bucket("data")
        self.gets = []

    def get_object(self, bucket, key, range_start=0, range_end=None, suffix_length=None):
        result = super().get_object(bucket, key, range_start, range_end, suffix_length)
        self.gets.append((key, result.range_start, result.range_end, suffix_length is not None))
        return result


class SerialOpens(S3ScanOperator):
    """The scan as it ran before the batched open: every reader opens its own
    file with its own suffix GET, one round trip each."""

    def _open_files(self):
        return [
            S3ObjectSource(
                self.store, path, chunk_bytes=self.config.chunk_bytes,
                connections=self.config.connections, memory_mib=self.config.memory_mib,
                bandwidth=self.bandwidth, counts=self.counts,
            )
            for path in self.files
        ]


def _files(count, rows=2000, compression=Compression.GZIP):
    store = RecordingStore()
    rng = np.random.default_rng(11)
    for index in range(count):
        table = {
            "id": np.arange(index * rows, (index + 1) * rows, dtype=np.int64),
            "v": np.round(rng.uniform(0, 100, rows), 2),
            "k": rng.integers(0, 7, rows).astype(np.int32),
        }
        store.put_object("data", f"f{index}", write_table(table, row_group_rows=500,
                                                          compression=compression))
    return store, [f"s3://data/f{index}" for index in range(count)]


def _run(operator_class, store, paths, fused=False, **kwargs):
    store.gets.clear()
    scan = operator_class(store, paths, **kwargs)
    if fused:
        batches = list(scan.scan_fused(["k"]))
        output = [(b.num_rows, sorted(b.values)) for b in batches]
    else:
        output = list(scan.scan())
    return scan, output, list(store.gets)


def _same_chunks(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        if isinstance(a, dict):
            assert_bit_identical(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("fused", [False, True], ids=["scan", "scan_fused"])
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"columns": ["id", "v"], "predicate": col("k") < 3}],
    ids=["all-columns", "predicate"],
)
def test_a_one_file_worker_is_bit_identical(fused, kwargs):
    store, paths = _files(1)
    if fused:
        kwargs = {**kwargs, "columns": ["k", "v"]}
    batched, batched_out, batched_gets = _run(S3ScanOperator, store, paths, fused, **kwargs)
    serial, serial_out, serial_gets = _run(SerialOpens, store, paths, fused, **kwargs)
    _same_chunks(batched_out, serial_out)
    assert batched_gets == serial_gets
    assert dataclasses.asdict(batched.counters) == dataclasses.asdict(serial.counters)
    assert batched.counts == serial.counts
    assert batched.modelled_seconds() == serial.modelled_seconds()


@pytest.mark.parametrize("count", [2, DEFAULT_SCAN_CONNECTIONS, 7])
def test_k_files_open_in_ceil_k_over_connections_rounds(count):
    store, paths = _files(count)
    model = BandwidthModel()
    batched, batched_out, batched_gets = _run(S3ScanOperator, store, paths, bandwidth=model)
    serial, serial_out, serial_gets = _run(SerialOpens, store, paths, bandwidth=model)
    _same_chunks(batched_out, serial_out)
    # The same GETs, file by file — same bytes, same count, no probe read ...
    assert Counter(batched_gets) == Counter(serial_gets)
    assert batched.counts["scan", "get_requests"] == serial.counts["scan", "get_requests"]
    assert batched.counts["scan", "bytes_read"] == serial.counts["scan", "bytes_read"]
    # ... each file small enough to arrive whole with its open ...
    assert all(suffix for *_, suffix in batched_gets) and len(batched_gets) == count
    # ... charged as one transfer pipelined over the connections.
    opened = batched.counts["scan", "bytes_read"]
    expected = model.transfer_seconds(TransferPlan(
        total_bytes=opened, chunk_bytes=batched.config.chunk_bytes,
        connections=DEFAULT_SCAN_CONNECTIONS, memory_mib=MEMORY_MIB, requests=count,
    ))
    assert batched.counters.metadata_seconds == pytest.approx(expected, rel=1e-12)
    latency = model.request_latency_seconds
    rounds = -(-count // DEFAULT_SCAN_CONNECTIONS)
    stream = batched.counters.metadata_seconds - latency * (1 + 0.25 * (rounds - 1))
    assert 0 < stream < latency
    if count <= DEFAULT_SCAN_CONNECTIONS:
        assert batched.counters.metadata_seconds < 1.5 * latency  # one round trip
    # One after another, every open pays its own round trip.
    assert serial.counters.metadata_seconds > count * latency
    assert batched.modelled_seconds() < serial.modelled_seconds()


def test_a_footer_beyond_the_batched_tail_still_costs_one_more_get():
    # Uncompressed files and a break-even just above the tail: the batched
    # open fetches each tail, and each reader fetches its footer itself.
    store, paths = _files(3, compression=Compression.NONE)
    steady = BandwidthModel().link_bandwidth(MEMORY_MIB, 1)
    model = BandwidthModel(request_latency_seconds=64 / steady)
    batched, batched_out, batched_gets = _run(S3ScanOperator, store, paths, bandwidth=model)
    serial, serial_out, serial_gets = _run(SerialOpens, store, paths, bandwidth=model)
    _same_chunks(batched_out, serial_out)
    assert Counter(batched_gets) == Counter(serial_gets)
    assert sum(suffix for *_, suffix in batched_gets) == 3
    assert batched.counters.metadata_seconds < serial.counters.metadata_seconds


# -- (c) no fleet width changes an answer ------------------------------------------------

#: query -> (SQL, reference, the reference's relations, bit-identical?)
QUERIES = {
    "q3": (q.q3_sql, q.reference_q3, ("lineitem", "orders"), False),
    "q5": (q.q5_sql, q.reference_q5,
           ("lineitem", "orders", "customer", "supplier", "nation", "region"), True),
    "q7": (q.q7_sql, q.reference_q7, ("lineitem", "orders", "customer", "supplier"), True),
    "q9": (q.q9_sql, q.reference_q9, ("lineitem", "part", "supplier", "orders", "nation"), True),
    "q10": (q.q10_sql, q.reference_q10, ("lineitem", "orders", "customer", "nation"), True),
    "q18": (q.q18_sql, q.reference_q18, ("lineitem", "orders", "customer"), True),
}


@pytest.fixture(scope="module")
def tables():
    return {name: generator(SF, seed=SEED).generate() for name, (_, generator) in RELATIONS.items()}


@pytest.fixture(scope="module")
def stack():
    return _stack(lineitem_files=4, orders_files=2)


def _unsized(datasets):
    """The same files, registered without their stored sizes."""
    return {name: dataclasses.replace(dataset, total_bytes=0) for name, dataset in datasets.items()}


@pytest.mark.parametrize("mode", MODES)
def test_answers_do_not_depend_on_the_scan_fleet_width(stack, tables, mode):
    env, datasets = stack
    kwargs = {"execution_mode": mode}
    if mode == "processes":
        kwargs["max_parallel_invocations"] = 2
    sessions = {
        "rule": _session(env, datasets, **kwargs),
        "per-file": _session(env, _unsized(datasets), **kwargs),
    }
    try:
        for name, (sql, reference, relations, exact) in QUERIES.items():
            expected = reference(*(tables[relation] for relation in relations))
            runs = {label: session.sql(sql()) for label, session in sessions.items()}
            rule, per_file = (runs[label].statistics for label in ("rule", "per-file"))
            # SF 0.002: every relation is a fraction of one break-even.
            assert set(rule.map_fleets.values()) == {1}, name
            assert sum(per_file.map_fleets.values()) > len(rule.map_fleets), name
            assert per_file.map_fleets["L"] == len(datasets["lineitem"].paths), name
            assert rule.num_workers < per_file.num_workers, name
            for label, run in runs.items():
                where = f"{name}/{mode}/{label}"
                exchange = run.statistics.exchange
                assert exchange.list_requests + exchange.head_requests == 0, where
                if exact:
                    assert_bit_identical(expected, run.table, where)
                else:
                    assert_tables_match(run.table, expected, where)
            if exact:
                assert_bit_identical(runs["rule"].table, runs["per-file"].table, name)
    finally:
        for session in sessions.values():
            session.close()
    assert _exchange_object_count(env) == 0
    assert leaked_segments() == []


# -- (d) a mapper whose predicate keeps nothing writes nothing ---------------------------


def test_empty_map_outputs_put_nothing(stack, tables):
    """Q12 forced to one mapper per file: the ORDERS ... LINEITEM predicates
    prune three of the six files whole, and those mappers PUT nothing."""
    env, datasets = stack
    expected = q.reference_q12(tables["lineitem"], tables["orders"])
    session = _session(env, datasets)
    before = env.ledger.total("s3", "put_requests")
    result = session.sql(q.q12_sql(), num_workers=4)
    stats = result.statistics
    assert stats.map_fleets == {"L": 4, "R": 2}
    kept = [
        worker.counters["scan", "rows_after_filter"] > 0 for worker in result.worker_results[:6]
    ]
    assert kept.count(False) == 3
    assert stats.exchange.put_requests == env.ledger.total("s3", "put_requests") - before == 3
    assert stats.exchange.list_requests + stats.exchange.head_requests == 0
    assert stats.gc_objects_deleted == 3 and stats.gc_list_requests == 0
    assert_tables_match(result.table, expected, "q12")
    assert _exchange_object_count(env) == 0


# -- (e) one truth at plan time ----------------------------------------------------------


def _sized_plan(lineitem_bytes, orders_bytes):
    catalog = SqlCatalog()
    catalog.register("lineitem", [f"s3://t/l/{index}.lpq" for index in range(8)],
                     columns=("l_orderkey", "l_quantity"), size_bytes=lineitem_bytes)
    catalog.register("orders", ["s3://t/o/0.lpq", "s3://t/o/1.lpq"],
                     columns=("o_orderkey",), size_bytes=orders_bytes)
    plan, _ = optimize(parse_sql(
        "SELECT sum(l_quantity) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
        catalog,
    ))
    return plan


def test_plan_descriptors_estimate_and_explain_carry_the_rule():
    plan = _sized_plan(805_938, 3 * _break_even())
    fleets = {fleet["tag"]: fleet for fleet in plan.waves()[0]["fleets"]}
    assert {tag: fleet["mappers"] for tag, fleet in fleets.items()} == {"L": 1, "R": 2}
    assert fleets["L"]["files"] == 8 and fleets["L"]["input_bytes"] == 805_938
    explained = plan.explain()
    assert "fleet L: 8 file(s) → 1 mapper(s), priced from 805938 bytes, " in explained
    assert f"fleet R: 2 file(s) → 2 mapper(s), priced from {3 * _break_even()} bytes" in explained
    # The admission estimate counts the rule's mappers, one exchange per
    # fleet plus the join wave's.
    cost = ExchangeCostModel().cost
    assert plan.exchange_partitions() == 1
    assert plan.estimated_cost() == pytest.approx(
        sum(cost("1l-wc", workers)["total_cost"] for workers in (1, 2, 1))
    )
    # A plan without sizes keeps one mapper per file, and says nothing of it.
    unsized = _sized_plan(0, 0)
    assert [fleet["mappers"] for fleet in unsized.waves()[0]["fleets"]] == [8, 2]
    assert "fleet L: 8 file(s), partition by" in unsized.explain()
    assert "mapper(s)" not in unsized.explain()
    assert unsized.estimated_cost(num_workers=1) == pytest.approx(
        sum(cost("1l-wc", workers)["total_cost"] for workers in (1, 1, 1))
    )


def test_statistics_report_the_fleets_the_plan_priced(stack):
    env, datasets = stack
    session = _session(env, datasets)
    result = session.sql(q.q5_sql())
    stats = result.statistics
    planned = {
        fleet["tag"]: fleet["mappers"]
        for fleet in optimize(parse_sql(q.q5_sql(), session.catalog))[0].waves()[0]["fleets"]
    }
    assert stats.map_fleets == planned == {tag: 1 for tag in ("L", "R", "R1", "R2", "R3", "R4")}
    assert stats.num_workers == sum(stats.map_fleets.values()) + stats.exchange_partitions
    assert "→ 1 mapper(s), priced from" in result.explain()
    files = {
        fleet["tag"]: fleet["files"]
        for fleet in optimize(parse_sql(q.q5_sql(), session.catalog))[0].waves()[0]["fleets"]
    }
    forced = session.sql(q.q5_sql(), num_workers=2).statistics
    assert forced.map_fleets == {tag: min(2, count) for tag, count in files.items()}
    assert forced.map_fleets["L"] == 2
