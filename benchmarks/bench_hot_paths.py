"""Hot-path micro-benchmarks: payload codec, scatter, join, routing, codec.

Measures the data-movement and operator paths this repo optimises and emits a
structured trajectory (``BENCH_hot_paths.json``):

* **payload round-trip** — the shipped result message (signed JSON header,
  the table as one typed frame in base64 behind it; ``repro.driver.integrity``)
  versus the seed's JSON ``.tolist()`` form (``benchmarks/_baselines.py``),
  each through its own sender and opener as it travels on the queue;
* **partition scatter** — single-pass argsort scatter
  (:func:`repro.exchange.partition.hash_partition`) versus the seed's
  mask-per-partition loop (:func:`hash_partition_masked`);
* **join probe** — the vectorized join kernel
  (:func:`repro.engine.join.hash_join`) versus the seed's dict build/probe
  loop (``hash_join_dict`` in ``benchmarks/_baselines.py``), on two shapes:
  duplicate build keys over a dense range (the count-table probe) and the
  foreign key -> primary key join of a hash partition, unique build keys
  spread over 12x their count (the position-table probe, ``join_probe_fk``);
* **exchange route** — the multilevel exchange's table-lookup routing versus
  the seed's ``np.vectorize`` dict lookup;
* **shuffle codec** — typed partition frames (:mod:`repro.exchange.codec`)
  versus the full LPQ columnar-file writer, round-tripped, and versus zlib-1
  over raw column buffers (the wire format they replaced) in seconds and
  bytes, on the hot table and on a TPC-H-shaped one;
* **encoded eval** — predicate masks computed directly on encoded chunks
  (:func:`repro.formats.encoding.evaluate_comparison`) versus decode-then-
  compare, per encoding;
* **scan filter** — the late-materialization scan (selection-vector filtering
  and gather over dictionary/RLE chunks) versus the full-decode baseline on a
  TPC-H Q6-style predicate at ~2 % selectivity;
* **shuffle requests** — the write-combined shuffle I/O plane (one combined
  PUT per mapper, batched-LIST discovery, one ranged GET per non-empty
  slice) versus the legacy one-object-per-receiver plane, on a
  high-cardinality shuffle aggregation at 32x32 workers: absolute request
  counts, modelled S3 request cost, and wall time;
* **end-to-end query** — wall-clock latency of TPC-H Q1 on the simulated
  serverless stack: serial versus thread-pool versus shared-memory
  process-pool fleet execution, median of three runs per mode.

Run as a pytest module (records measurements through ``--bench-json``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_hot_paths.py -q \
        --bench-json BENCH_hot_paths.json

or as a plain script, which writes ``BENCH_hot_paths.json`` directly::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py
"""

from __future__ import annotations

import json
import math
import time
from types import SimpleNamespace
from typing import Callable, Dict, List
from unittest import mock

import numpy as np

import repro.driver.integrity as result_plane
from repro.config import IntegrityConfig
from repro.engine.join import hash_join
from repro.engine.payload import decode_table, encode_table
from repro.engine.table import tables_allclose
from repro.exchange.basic import deserialize_partition, serialize_partition
from repro.exchange.codec import decode_partition_slice, encode_partition_set
from repro.exchange.partition import (
    hash_partition,
    hash_partition_masked,
    partition_scatter,
    slice_partition,
)

from _baselines import hash_join_dict, seed_table_from_wire, seed_table_to_wire

#: Row count of the micro-benchmarks (the acceptance bar is "at 1M rows").
ROWS = 1_000_000

#: Partition fan-out of the scatter benchmark.  The paper's exchange runs on
#: fleets of hundreds to thousands of workers; the seed's mask loop scales
#: O(N·P) with this number while the argsort scatter is flat in it.
PARTITIONS = 512

#: Scale factor of the end-to-end run; TPC-H LINEITEM has ~6M rows per SF,
#: so 0.17 yields just over one million rows.
END_TO_END_SCALE_FACTOR = 0.17
END_TO_END_FILES = 8


def _hot_table(num_rows: int, seed: int = 7) -> Dict[str, np.ndarray]:
    """A table shaped like a shuffle input: int64 keys, metrics, a flag.

    A slice of the keys sits above 2^53 to exercise the integer hash path
    (the seed's float64 cast collapsed those keys onto one another).
    """
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 10_000_000, size=num_rows, dtype=np.int64)
    keys[: num_rows // 8] += np.int64(2) ** 53
    return {
        "key": keys,
        "value": rng.random(num_rows),
        "amount": np.round(rng.uniform(0.0, 1e5, size=num_rows), 2),
        "flag": rng.integers(0, 2, size=num_rows, dtype=np.int32),
    }


def _best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# payload round-trip
# ---------------------------------------------------------------------------

class _KeptMessage:
    """A queue that keeps the last message's text instead of delivering it."""

    def send_message(self, queue: str, body: str) -> None:
        self.body = body


def measure_payload_roundtrip(num_rows: int = ROWS, repeats: int = 3) -> Dict:
    """Seed JSON-list versus the shipped result message, through the JSON wire.

    The shipped form is what a worker posts for a result that stays on the
    queue, built by the production sender and read by the production opener
    with the spill rule lifted: a result of this size really goes to S3 as
    the raw frame, which skips the base64 too — and the seed's wire ignored
    the queue's limit just the same.
    """
    table = _hot_table(num_rows)
    wire = SimpleNamespace(sqs=_KeptMessage())

    def legacy_roundtrip():
        return seed_table_from_wire(seed_table_to_wire(table))

    def binary_roundtrip():
        result_plane.post_result(
            wire, "results", IntegrityConfig(), {"worker_id": 0}, encode_table(table),
            "bench/worker-0.a0",
        )
        message = result_plane.open_message(wire.sqs.body)
        # Verified by the opener, as in the collectors; fresh columns, as the
        # seed's decode returns them.
        return decode_table(message["frame"], verify=False)

    with mock.patch.object(result_plane, "RESULT_SPILL_BYTES", math.inf):
        assert tables_allclose(legacy_roundtrip(), binary_roundtrip())
        legacy_seconds = _best_of(legacy_roundtrip, repeats)
        binary_seconds = _best_of(binary_roundtrip, repeats)
    return {
        "num_rows": num_rows,
        "legacy_seconds": legacy_seconds,
        "binary_seconds": binary_seconds,
        "speedup": legacy_seconds / binary_seconds,
        "legacy_wire_bytes": len(seed_table_to_wire(table)),
        "binary_wire_bytes": len(wire.sqs.body),
    }


# ---------------------------------------------------------------------------
# partition scatter
# ---------------------------------------------------------------------------

def measure_partition_scatter(
    num_rows: int = ROWS, num_partitions: int = PARTITIONS, repeats: int = 3
) -> Dict:
    """Single-pass argsort scatter versus the seed's mask-per-partition loop."""
    table = _hot_table(num_rows)
    masked = hash_partition_masked(table, ["key"], num_partitions)
    scattered = hash_partition(table, ["key"], num_partitions)
    assert set(masked) == set(scattered)
    for partition in masked:
        assert tables_allclose(masked[partition], scattered[partition])

    masked_seconds = _best_of(
        lambda: hash_partition_masked(table, ["key"], num_partitions), repeats
    )
    scatter_seconds = _best_of(
        lambda: hash_partition(table, ["key"], num_partitions), repeats
    )
    return {
        "num_rows": num_rows,
        "num_partitions": num_partitions,
        "masked_seconds": masked_seconds,
        "scatter_seconds": scatter_seconds,
        "speedup": masked_seconds / scatter_seconds,
    }


# ---------------------------------------------------------------------------
# join probe
# ---------------------------------------------------------------------------

#: Build-side row count of the join benchmark; the probe side is ``ROWS``.
JOIN_BUILD_ROWS = 100_000


def _join_tables(num_rows: int, build_rows: int, seed: int = 11):
    """Probe/build tables with ~1 match per probe row plus duplicate keys."""
    rng = np.random.default_rng(seed)
    left = {
        "key": rng.integers(0, build_rows, num_rows, dtype=np.int64),
        "lv": rng.random(num_rows),
    }
    right = {
        "key": rng.integers(0, build_rows, build_rows, dtype=np.int64),
        "rv": rng.random(build_rows),
        "tag": rng.integers(0, 5, build_rows, dtype=np.int32),
    }
    return left, right


#: Key domain of the foreign-key join benchmark, as a multiple of its build
#: rows: hashing a dense primary key into 12 partitions leaves each of them
#: every twelfth key or so of the whole range.
JOIN_FK_KEY_SPREAD = 12


def _fk_join_tables(num_rows: int, build_rows: int, seed: int = 12):
    """One hash partition of a foreign key -> primary key join.

    The build side holds ``build_rows`` distinct keys of a domain
    ``JOIN_FK_KEY_SPREAD`` times as large; the probe rows reference twice as
    many keys of that domain, so half of them find their build row (the
    build relation was filtered) and half find none.
    """
    rng = np.random.default_rng(seed)
    referenced = rng.permutation(build_rows * JOIN_FK_KEY_SPREAD)[: 2 * build_rows]
    left = {
        "key": referenced[rng.integers(0, len(referenced), num_rows)].astype(np.int64),
        "lv": rng.random(num_rows),
    }
    right = {
        "key": referenced[:build_rows].astype(np.int64),
        "rv": rng.random(build_rows),
        "tag": rng.integers(0, 5, build_rows, dtype=np.int32),
    }
    return left, right


def measure_join_probe(
    num_rows: int = ROWS,
    build_rows: int = JOIN_BUILD_ROWS,
    repeats: int = 3,
    tables: Callable = _join_tables,
) -> Dict:
    """Vectorized join kernel versus the seed's dict build/probe loop."""
    left, right = tables(num_rows, build_rows)
    vectorized = hash_join(left, right, "key", "key")
    reference = hash_join_dict(left, right, "key", "key")
    for name in reference:
        np.testing.assert_array_equal(vectorized[name], reference[name])

    dict_seconds = _best_of(lambda: hash_join_dict(left, right, "key", "key"), repeats)
    vector_seconds = _best_of(lambda: hash_join(left, right, "key", "key"), repeats)
    return {
        "num_rows": num_rows,
        "build_rows": build_rows,
        "result_rows": len(vectorized["key"]),
        "dict_seconds": dict_seconds,
        "vectorized_seconds": vector_seconds,
        "speedup": dict_seconds / vector_seconds,
    }


def measure_join_probe_fk(
    num_rows: int = ROWS, build_rows: int = JOIN_BUILD_ROWS, repeats: int = 3
) -> Dict:
    """The same comparison on the shape production joins have: unique build
    keys, spread over ``JOIN_FK_KEY_SPREAD`` times their count."""
    measurement = measure_join_probe(num_rows, build_rows, repeats, _fk_join_tables)
    measurement["key_domain"] = build_rows * JOIN_FK_KEY_SPREAD
    return measurement


# ---------------------------------------------------------------------------
# exchange route
# ---------------------------------------------------------------------------

#: Fleet size of the routing benchmark (a 32x32 two-level grid).
ROUTE_WORKERS = 1024


def measure_exchange_route(
    num_targets: int = ROWS, num_workers: int = ROUTE_WORKERS, repeats: int = 3
) -> Dict:
    """Table-lookup routing versus the seed's ``np.vectorize`` dict lookup."""
    from repro.cloud.s3 import ObjectStore
    from repro.exchange.multilevel import MultiLevelExchange, grid_coordinates

    exchange = MultiLevelExchange(ObjectStore(), num_workers, keys=["key"], levels=2)
    dimension = 1
    group = exchange._groups_for_round(dimension)[0]
    rng = np.random.default_rng(13)
    targets = rng.integers(0, num_workers, num_targets, dtype=np.int64)

    # The seed implementation: per-row dict lookup through np.vectorize.
    dims = exchange.dims
    member_by_coord = {
        grid_coordinates(worker, dims)[dimension]: worker for worker in group
    }
    stride = int(math.prod(dims[:dimension]))

    def legacy_route(values: np.ndarray) -> np.ndarray:
        coords = (values // stride) % dims[dimension]
        lookup = np.vectorize(member_by_coord.__getitem__, otypes=[np.int64])
        return lookup(coords) if len(coords) else coords.astype(np.int64)

    table_route = exchange._route_for_round(dimension, group)
    np.testing.assert_array_equal(legacy_route(targets), table_route(targets))

    legacy_seconds = _best_of(lambda: legacy_route(targets), repeats)
    table_seconds = _best_of(lambda: table_route(targets), repeats)
    return {
        "num_targets": num_targets,
        "num_workers": num_workers,
        "grid_dims": list(dims),
        "legacy_seconds": legacy_seconds,
        "table_seconds": table_seconds,
        "speedup": legacy_seconds / table_seconds,
    }


# ---------------------------------------------------------------------------
# shuffle codec
# ---------------------------------------------------------------------------

def _tpch_shaped_table(num_rows: int, seed: int = 11) -> Dict[str, np.ndarray]:
    """What a TPC-H map wave ships: sorted key, 2-decimal price, discount, date."""
    rng = np.random.default_rng(seed)
    return {
        "l_orderkey": np.cumsum(rng.integers(0, 4, num_rows)).astype(np.int64),
        "l_extendedprice": np.round(rng.uniform(900.0, 105_000.0, num_rows), 2),
        "l_discount": rng.integers(0, 11, num_rows) / 100.0,
        "l_shipdate": rng.integers(8035, 10_561, num_rows).astype(np.int32),
    }


def _zlib_set_roundtrip(reordered, boundaries) -> int:
    """The wire format the typed frames replaced, minus its JSON header:
    each partition's raw column buffers through zlib-1 with a body crc on
    each side.  Returns the bytes shipped."""
    import zlib

    columns = list(reordered.values())
    shipped = 0
    for start, end in zip(boundaries[:-1].tolist(), boundaries[1:].tolist()):
        if end == start:
            continue
        body = zlib.compress(b"".join(c[start:end].tobytes() for c in columns), 1)
        zlib.crc32(body)
        shipped += len(body)
        zlib.crc32(body)
        raw = memoryview(zlib.decompress(body))
        offset = 0
        for column in columns:
            np.frombuffer(raw, dtype=column.dtype, count=end - start, offset=offset)
            offset += (end - start) * column.dtype.itemsize
    return shipped


def _typed_set_roundtrip(reordered, boundaries, compression) -> int:
    """One sender's real write (``encode_partition_set``) and every
    receiver's slice decode.  Returns the bytes shipped."""
    payload, offsets = encode_partition_set(reordered, boundaries, compression)
    view = memoryview(payload)
    for start, end in zip(offsets, offsets[1:]):
        decode_partition_slice(view[start:end])
    return len(payload)


def _lpq_set_roundtrip(reordered, boundaries, compression) -> int:
    """The same partitions through the full LPQ file writer and reader."""
    shipped = 0
    for partition in range(len(boundaries) - 1):
        data = serialize_partition(
            slice_partition(reordered, boundaries, partition), compression, fast=False
        )
        deserialize_partition(data)
        shipped += len(data)
    return shipped


def measure_shuffle_codec(
    num_rows: int = ROWS, num_partitions: int = PARTITIONS, repeats: int = 3
) -> Dict:
    """The partition-frame codec on a shuffle write, against what it replaced.

    The timed unit is what one exchange sender and its receivers do: serialise
    all ``num_partitions`` partitions of a scattered ``num_rows``-row table
    and decode every one of them.

    * ``lpq`` vs ``fast`` (``speedup``): the full LPQ writer versus typed
      frames, both with the zlib-1 block stage, where zlib dominates either;
      ``framing_lpq`` vs ``typed`` (``framing_speedup``): both with no
      compressor, which isolates what the LPQ writer adds per partition
      (per-row-group encoding choice, statistics, JSON footer).
    * ``zlib`` vs ``typed`` (``typed_speedup``, ``bytes_ratio``): zlib-1 over
      raw column buffers — the previous default wire format — versus the
      typed frames that are the default now; on the hot table and
      (``tpch_*``) on a TPC-H-shaped one (sorted int64 key, 2-decimal price,
      low-cardinality discount, int32 date), where the typed encodings must
      also ship no more bytes than zlib did.
    """
    from repro.driver.shuffle import ShuffleConfig
    from repro.formats.compression import Compression

    hot = partition_scatter(_hot_table(num_rows), ["key"], num_partitions)
    tpch = partition_scatter(_tpch_shaped_table(num_rows), ["l_orderkey"], num_partitions)
    for compression in (Compression.FAST, Compression.NONE):
        first = slice_partition(*hot, 0)
        assert tables_allclose(
            deserialize_partition(serialize_partition(first, compression, fast=False)),
            deserialize_partition(serialize_partition(first, compression, fast=True)),
        )

    lpq_seconds = _best_of(lambda: _lpq_set_roundtrip(*hot, Compression.FAST), repeats)
    fast_seconds = _best_of(lambda: _typed_set_roundtrip(*hot, Compression.FAST), repeats)
    framing_lpq = _best_of(lambda: _lpq_set_roundtrip(*hot, Compression.NONE), repeats)
    measurement = {
        "num_rows": num_rows,
        "num_partitions": num_partitions,
        "lpq_seconds": lpq_seconds,
        "fast_seconds": fast_seconds,
        "speedup": lpq_seconds / fast_seconds,
        "framing_lpq_seconds": framing_lpq,
        "lpq_bytes": _lpq_set_roundtrip(*hot, Compression.FAST),
        "fast_bytes": _typed_set_roundtrip(*hot, Compression.FAST),
    }
    default = ShuffleConfig().compression
    for prefix, scattered in (("", hot), ("tpch_", tpch)):
        typed_seconds = _best_of(
            lambda: _typed_set_roundtrip(*scattered, default), repeats
        )
        zlib_seconds = _best_of(lambda: _zlib_set_roundtrip(*scattered), repeats)
        typed_bytes = _typed_set_roundtrip(*scattered, default)
        zlib_bytes = _zlib_set_roundtrip(*scattered)
        measurement.update({
            f"{prefix}typed_seconds": typed_seconds,
            f"{prefix}zlib_seconds": zlib_seconds,
            f"{prefix}typed_speedup": zlib_seconds / typed_seconds,
            f"{prefix}typed_bytes": typed_bytes,
            f"{prefix}zlib_bytes": zlib_bytes,
            f"{prefix}bytes_ratio": typed_bytes / zlib_bytes,
        })
    measurement["framing_speedup"] = framing_lpq / measurement["typed_seconds"]
    return measurement


# ---------------------------------------------------------------------------
# encoded eval
# ---------------------------------------------------------------------------

def measure_encoded_eval(num_rows: int = ROWS, repeats: int = 3) -> Dict:
    """Comparison masks on encoded chunks versus decode-then-compare.

    One column per encoding, shaped like the TPC-H Q6 inputs: a sorted date
    column (RLE), a low-cardinality discount column (DICTIONARY), and a
    high-cardinality price column (PLAIN).
    """
    from repro.formats.encoding import (
        Encoding,
        decode_column,
        encode_column,
        evaluate_comparison,
        parse_encoded_chunk,
    )
    from repro.formats.schema import ColumnType

    rng = np.random.default_rng(23)
    cases = {
        "rle": (
            np.sort(rng.integers(0, 2526, num_rows)).astype(np.int32),
            ColumnType.INT32, Encoding.RLE, ">=", 365.0,
        ),
        "dictionary": (
            np.round(rng.integers(0, 11, num_rows) / 100.0, 2),
            ColumnType.FLOAT64, Encoding.DICTIONARY, ">=", 0.05,
        ),
        "plain": (
            rng.uniform(900.0, 105000.0, num_rows),
            ColumnType.FLOAT64, Encoding.PLAIN, "<", 50000.0,
        ),
    }
    ufuncs = {">=": np.greater_equal, "<": np.less}

    measurement: Dict = {"num_rows": num_rows}
    decoded_total = 0.0
    encoded_total = 0.0
    for name, (values, column_type, encoding, op, threshold) in cases.items():
        data = encode_column(values, column_type, encoding).data
        chunk = parse_encoded_chunk(data, column_type, encoding, num_rows)
        np.testing.assert_array_equal(
            evaluate_comparison(chunk, op, threshold),
            ufuncs[op](decode_column(data, column_type, encoding, num_rows), threshold),
        )
        decoded_seconds = _best_of(
            lambda: ufuncs[op](
                decode_column(data, column_type, encoding, num_rows), threshold
            ),
            repeats,
        )
        encoded_seconds = _best_of(
            lambda: evaluate_comparison(chunk, op, threshold), repeats
        )
        measurement[f"{name}_decoded_seconds"] = decoded_seconds
        measurement[f"{name}_encoded_seconds"] = encoded_seconds
        measurement[f"{name}_speedup"] = decoded_seconds / encoded_seconds
        decoded_total += decoded_seconds
        encoded_total += encoded_seconds
    measurement["decoded_seconds"] = decoded_total
    measurement["encoded_seconds"] = encoded_total
    measurement["speedup"] = decoded_total / encoded_total
    return measurement


# ---------------------------------------------------------------------------
# scan filter
# ---------------------------------------------------------------------------

#: Row-group size of the scan-filter benchmark file (matches the end-to-end
#: dataset's row groups).
SCAN_FILTER_GROUP_ROWS = 32_768


def _q6_store(num_rows: int):
    """A Q6-shaped LINEITEM slice as one LPQ object: sorted dates (RLE),
    low-cardinality discount/quantity (DICTIONARY), plain prices."""
    from repro.cloud.s3 import ObjectStore
    from repro.formats.compression import Compression
    from repro.formats.encoding import Encoding
    from repro.formats.parquet import ColumnarWriter
    from repro.formats.schema import Schema

    rng = np.random.default_rng(29)
    table = {
        "l_shipdate": np.sort(rng.integers(0, 2526, num_rows)).astype(np.int32),
        "l_discount": np.round(rng.integers(0, 11, num_rows) / 100.0, 2),
        "l_quantity": rng.integers(1, 51, num_rows).astype(np.int64),
        "l_extendedprice": rng.uniform(900.0, 105000.0, num_rows),
    }
    writer = ColumnarWriter(
        Schema.from_table(table),
        row_group_rows=SCAN_FILTER_GROUP_ROWS,
        compression=Compression.FAST,
        encodings={
            "l_shipdate": Encoding.RLE,
            "l_discount": Encoding.DICTIONARY,
            "l_quantity": Encoding.DICTIONARY,
            "l_extendedprice": Encoding.PLAIN,
        },
    )
    store = ObjectStore()
    store.create_bucket("bench")
    store.put_object("bench", "q6.lpq", writer.write(table))
    return store, table


def measure_scan_filter(num_rows: int = ROWS, repeats: int = 3) -> Dict:
    """Late-materialization scan versus the full-decode baseline on Q6.

    The predicate is the paper's Q6 shape — a date band over the sorted RLE
    column plus discount/quantity bands over dictionary columns — at ~2 %
    selectivity; the projection (price, discount) includes one column the
    predicate never touches.  Both paths run the same scan operator with the
    predicate pushed down; only ``ScanConfig.late_materialization`` differs.
    The zero-latency bandwidth model makes the read plan exact (one GET per
    chunk, no hole read-through), so the request counts show which chunks
    each path asked for rather than how well they coalesced.
    """
    from repro.cloud.network import BandwidthModel
    from repro.engine.scan import S3ScanOperator, ScanConfig
    from repro.engine.table import concat_tables, table_num_rows, tables_allclose
    from repro.plan.expressions import col

    store, table = _q6_store(num_rows)
    predicate = (
        (col("l_shipdate") >= 365) & (col("l_shipdate") < 730)
        & (col("l_discount") >= 0.05) & (col("l_discount") <= 0.07)
        & (col("l_quantity") < 24)
    )
    columns = ["l_extendedprice", "l_discount"]

    def run(late: bool) -> S3ScanOperator:
        scan = S3ScanOperator(
            store,
            ["s3://bench/q6.lpq"],
            columns=columns,
            config=ScanConfig(late_materialization=late),
            bandwidth=BandwidthModel(request_latency_seconds=0.0),
            predicate=predicate,
        )
        scan.result = concat_tables(list(scan.scan()))
        return scan

    late_scan = run(True)
    baseline_scan = run(False)
    assert tables_allclose(late_scan.result, baseline_scan.result)
    selected = table_num_rows(late_scan.result)

    baseline_seconds = _best_of(lambda: run(False), repeats)
    late_seconds = _best_of(lambda: run(True), repeats)
    return {
        "num_rows": num_rows,
        "selected_rows": selected,
        "selectivity": selected / num_rows,
        "row_groups": late_scan.counters.row_groups_total,
        "row_groups_shortcircuited": late_scan.counters.row_groups_shortcircuited,
        "rows_decode_saved": late_scan.counters.rows_decode_saved,
        "column_chunks_skipped": late_scan.counters.column_chunks_skipped,
        "baseline_get_requests": baseline_scan.statistics.get_requests,
        "late_get_requests": late_scan.statistics.get_requests,
        "baseline_seconds": baseline_seconds,
        "late_seconds": late_seconds,
        "speedup": baseline_seconds / late_seconds,
    }


# ---------------------------------------------------------------------------
# shuffle requests
# ---------------------------------------------------------------------------

#: Fleet size of the shuffle-request benchmark (32 mappers x 32 reducers).
SHUFFLE_WORKERS = 32

#: Scale factor of the shuffle benchmark; ~1.02M LINEITEM rows.
SHUFFLE_SCALE_FACTOR = 0.17


def measure_shuffle_requests(
    scale_factor: float = SHUFFLE_SCALE_FACTOR,
    num_workers: int = SHUFFLE_WORKERS,
    repeats: int = 3,
) -> Dict:
    """Write-combined shuffle I/O plane versus the legacy O(P²) object plane.

    Runs the same high-cardinality shuffle aggregation (group by
    ``l_orderkey``) twice over one simulated environment: once with the
    legacy one-object-per-receiver map wave, once with write combining (one
    combined object per mapper, offsets in the key, one ranged GET per
    non-empty slice).  Records the absolute request counts of both planes —
    the quantity the paper's §4.4 cost analysis is about — plus the wall-time
    effect of collapsing P² requests to O(P).
    """
    from repro.cloud.environment import CloudEnvironment
    from repro.driver.shuffle import ShuffleAggregateCoordinator, ShuffleConfig
    from repro.engine.table import tables_allclose
    from repro.plan.expressions import col
    from repro.plan.logical import AggregateSpec
    from repro.workload.tpch import generate_lineitem_dataset
    from repro.formats.compression import Compression

    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(
        env.s3,
        scale_factor=scale_factor,
        num_files=num_workers,
        row_group_rows=32_768,
        compression=Compression.FAST,
    )
    aggregates = [
        AggregateSpec("sum", col("l_quantity"), "total_qty"),
        AggregateSpec("count", None, "n"),
    ]

    def run(write_combining: bool):
        coordinator = ShuffleAggregateCoordinator(
            env, config=ShuffleConfig(write_combining=write_combining)
        )
        start = time.perf_counter()
        result, statistics = coordinator.execute(
            dataset.paths,
            group_by=["l_orderkey"],
            aggregates=aggregates,
            order_by=["l_orderkey"],
        )
        return result, statistics, time.perf_counter() - start

    # Untimed warmup (imports, numpy warmup, page faults), then interleaved
    # best-of-``repeats`` timed runs per plane over the same warmed
    # environment, so ambient noise (GC, page cache) hits both planes alike.
    run(True)
    legacy_seconds = combined_seconds = float("inf")
    legacy_result = legacy_stats = combined_result = combined_stats = None
    for _ in range(repeats):
        result, stats, seconds = run(False)
        if seconds < legacy_seconds:
            legacy_result, legacy_stats, legacy_seconds = result, stats, seconds
        result, stats, seconds = run(True)
        if seconds < combined_seconds:
            combined_result, combined_stats, combined_seconds = result, stats, seconds
    assert tables_allclose(legacy_result, combined_result)
    legacy_exchange = legacy_stats.exchange
    combined_exchange = combined_stats.exchange

    # Modelled S3 request cost of the exchange (PUT/LIST billed alike, the
    # paper's Figure 9 pricing): the quantity write combining collapses.
    from repro.cloud.pricing import DEFAULT_PRICES

    def request_cost(stats):
        return DEFAULT_PRICES.s3_put_cost(
            stats.put_requests + stats.list_requests
        ) + DEFAULT_PRICES.s3_get_cost(stats.get_requests + stats.head_requests)

    legacy_cost = request_cost(legacy_exchange)
    combined_cost = request_cost(combined_exchange)

    return {
        "num_rows": dataset.total_rows,
        "num_workers": combined_stats.map_workers,
        "result_rows": combined_stats.result_rows,
        # The request-cost table of the README (paper Table 3 shape).
        "legacy_put_requests": legacy_exchange.put_requests,
        "legacy_get_requests": legacy_exchange.get_requests,
        "legacy_list_requests": legacy_exchange.list_requests,
        "legacy_total_requests": legacy_exchange.total_requests,
        "combined_put_requests": combined_exchange.put_requests,
        "combined_get_requests": combined_exchange.get_requests,
        "combined_ranged_get_requests": combined_exchange.ranged_get_requests,
        "combined_list_requests": combined_exchange.list_requests,
        "combined_head_requests": combined_exchange.head_requests,
        "combined_total_requests": combined_exchange.total_requests,
        "empty_slices_elided": combined_exchange.empty_parts_elided,
        "bytes_shipped": combined_exchange.bytes_read,
        "bytes_touched": combined_exchange.bytes_touched,
        "put_collapse": legacy_exchange.put_requests / combined_exchange.put_requests,
        "data_request_collapse": (
            (legacy_exchange.put_requests + legacy_exchange.get_requests)
            / (combined_exchange.put_requests + combined_exchange.get_requests)
        ),
        "legacy_request_cost": legacy_cost,
        "combined_request_cost": combined_cost,
        "request_cost_collapse": legacy_cost / combined_cost,
        # Modelled latency: each worker pays one S3 round-trip per request it
        # issues, so collapsing the map wave's P PUTs to one is directly
        # visible here (the in-process wall clock charges no network latency).
        "legacy_modelled_seconds": legacy_stats.modelled_latency_seconds,
        "combined_modelled_seconds": combined_stats.modelled_latency_seconds,
        "modelled_speedup": (
            legacy_stats.modelled_latency_seconds
            / combined_stats.modelled_latency_seconds
        ),
        "legacy_seconds": legacy_seconds,
        "combined_seconds": combined_seconds,
        "speedup": legacy_seconds / combined_seconds,
    }


# ---------------------------------------------------------------------------
# join end-to-end
# ---------------------------------------------------------------------------

#: Fleet size of the join benchmark (16 mappers per side, 16 join workers).
JOIN_E2E_WORKERS = 16

#: Scale factor of the join benchmark; ~300k LINEITEM + ~75k ORDERS rows.
JOIN_E2E_SCALE_FACTOR = 0.05


def measure_join_e2e(
    scale_factor: float = JOIN_E2E_SCALE_FACTOR,
    num_workers: int = JOIN_E2E_WORKERS,
    repeats: int = 3,
) -> Dict:
    """Distributed TPC-H Q3 over the write-combined versus legacy exchange.

    Runs the full multi-stage join schedule (two map waves repartitioning
    LINEITEM and ORDERS by order key, a join wave probing the slices and
    computing the partial aggregates above the join, driver merge) twice over
    one simulated environment: once with the legacy one-object-per-receiver
    repartition plane, once with write combining.  Records the absolute
    request counts of both planes, the modelled request cost and latency, and
    the wall-time effect — the join-path analogue of the §4.4 shuffle table.
    """
    from repro.cloud.environment import CloudEnvironment
    from repro.cloud.pricing import DEFAULT_PRICES
    from repro.driver.driver import LambadaDriver
    from repro.driver.shuffle import ShuffleConfig
    from repro.engine.table import tables_allclose
    from repro.formats.compression import Compression
    from repro.workload.queries import q3_plan
    from repro.workload.tpch import generate_lineitem_dataset, generate_orders_dataset

    env = CloudEnvironment.create()
    lineitem = generate_lineitem_dataset(
        env.s3,
        scale_factor=scale_factor,
        num_files=num_workers,
        row_group_rows=32_768,
        compression=Compression.FAST,
    )
    orders = generate_orders_dataset(
        env.s3,
        scale_factor=scale_factor,
        num_files=num_workers,
        row_group_rows=32_768,
        compression=Compression.FAST,
    )
    plan = q3_plan(lineitem.paths, orders.paths)
    drivers = {
        combining: LambadaDriver(
            env, shuffle_config=ShuffleConfig(write_combining=combining)
        )
        for combining in (False, True)
    }

    def run(write_combining: bool):
        start = time.perf_counter()
        result = drivers[write_combining].execute(plan, num_workers=num_workers)
        return result, time.perf_counter() - start

    # Untimed warmup, then interleaved best-of-``repeats`` timed runs per
    # plane over the same warmed environment.
    run(True)
    legacy_seconds = combined_seconds = float("inf")
    legacy_result = combined_result = None
    for _ in range(repeats):
        result, seconds = run(False)
        if seconds < legacy_seconds:
            legacy_result, legacy_seconds = result, seconds
        result, seconds = run(True)
        if seconds < combined_seconds:
            combined_result, combined_seconds = result, seconds
    assert tables_allclose(legacy_result.table, combined_result.table)
    legacy_exchange = legacy_result.statistics.exchange
    combined_exchange = combined_result.statistics.exchange

    def request_cost(stats):
        return DEFAULT_PRICES.s3_put_cost(
            stats.put_requests + stats.list_requests
        ) + DEFAULT_PRICES.s3_get_cost(stats.get_requests + stats.head_requests)

    legacy_cost = request_cost(legacy_exchange)
    combined_cost = request_cost(combined_exchange)
    combined_stats = combined_result.statistics

    return {
        "num_rows": lineitem.total_rows + orders.total_rows,
        "lineitem_rows": lineitem.total_rows,
        "orders_rows": orders.total_rows,
        "num_workers": num_workers,
        "result_rows": combined_result.num_rows,
        "join_probe_rows": combined_stats.join_probe_rows,
        "join_build_rows": combined_stats.join_build_rows,
        "join_output_rows": combined_stats.join_output_rows,
        "legacy_put_requests": legacy_exchange.put_requests,
        "legacy_get_requests": legacy_exchange.get_requests,
        "legacy_list_requests": legacy_exchange.list_requests,
        "legacy_total_requests": legacy_exchange.total_requests,
        "combined_put_requests": combined_exchange.put_requests,
        "combined_get_requests": combined_exchange.get_requests,
        "combined_ranged_get_requests": combined_exchange.ranged_get_requests,
        "combined_list_requests": combined_exchange.list_requests,
        "combined_head_requests": combined_exchange.head_requests,
        "combined_total_requests": combined_exchange.total_requests,
        "empty_slices_elided": combined_exchange.empty_parts_elided,
        "put_collapse": legacy_exchange.put_requests / combined_exchange.put_requests,
        "legacy_request_cost": legacy_cost,
        "combined_request_cost": combined_cost,
        "request_cost_collapse": legacy_cost / combined_cost,
        "legacy_modelled_seconds": legacy_result.statistics.latency_seconds,
        "combined_modelled_seconds": combined_stats.latency_seconds,
        "modelled_speedup": (
            legacy_result.statistics.latency_seconds / combined_stats.latency_seconds
        ),
        "legacy_seconds": legacy_seconds,
        "combined_seconds": combined_seconds,
        "speedup": legacy_seconds / combined_seconds,
    }


# ---------------------------------------------------------------------------
# end-to-end query
# ---------------------------------------------------------------------------

def measure_end_to_end(
    scale_factor: float = END_TO_END_SCALE_FACTOR,
    num_files: int = END_TO_END_FILES,
    repeats: int = 3,
) -> Dict:
    """Wall-clock TPC-H Q1 latency: serial vs thread fleet vs process fleet.

    Each mode is timed ``repeats`` times round-robin and reported as the
    median, so a one-off scheduler hiccup (or the process pool's one-time
    spawn cost, paid on the first repetition only) cannot swing the
    trajectory.  ``wall_speedup`` is the tentpole metric — serial wall time
    over ``processes`` wall time — and only means anything with cores to
    spare, so the record carries ``cpu_count`` and the actual pool size for
    the regression guard's hardware-conditional floor.

    ``faultfree_overhead_ratio`` guards the resilience plane's fault-free
    cost: the same serial Q1 with a zero-rate :class:`FaultPlan` installed
    (every S3/Lambda/SQS request consults the plan, nothing ever fires)
    versus the plain ``is None`` fast path, interleaved best-of-``repeats``
    pairs.  The regression guard caps the ratio at 1.02.

    ``integrity_overhead_ratio`` guards the integrity plane the same way:
    serial Q1 at the checksummed default (crc-bearing dataset files, LPQ
    chunk verification on scan, payload crcs and message digests generated
    and verified) versus the same query with ``IntegrityConfig`` fully off
    over a crc-free copy of the dataset.  The regression guard caps the
    ratio at 1.03.

    ``admission_overhead_ratio`` guards the overload control plane (PR 9):
    the same serial Q1 submitted through a :class:`QuerySession` — admission
    gate, tenant token buckets, shared breaker board, per-query retry budget
    and cancellation token all armed — versus a bare ``driver.execute``.
    Everything the plane does on the happy path is per-*query* (a few bucket
    adjustments and counter updates), so the ratio must hug 1.0; the
    regression guard caps it at 1.02.
    """
    import os
    import warnings

    from repro.analysis.experiments import run_tpch_query
    from repro.cloud.environment import CloudEnvironment
    from repro.driver.driver import LambadaDriver
    from repro.formats.compression import Compression
    from repro.workload.tpch import generate_lineitem_dataset

    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(
        env.s3,
        scale_factor=scale_factor,
        num_files=num_files,
        row_group_rows=32_768,
        compression=Compression.FAST,
    )

    # Untimed warmup so first-run costs (imports, numpy warmup, page faults)
    # do not bias whichever mode happens to run first.
    run_tpch_query(LambadaDriver(env), dataset, "q1")

    cpu_count = os.cpu_count() or 1
    drivers = {
        "serial": LambadaDriver(env),
        "threads": LambadaDriver(env, execution_mode="threads"),
        "processes": LambadaDriver(env, execution_mode="processes"),
    }
    timings: Dict[str, List[float]] = {mode: [] for mode in drivers}
    results = {}
    with warnings.catch_warnings():
        # On a single-core host `processes` degrades to serial dispatch with
        # a RuntimeWarning; the trajectory records that via cpu_count and
        # pool_size instead of warning once per repetition.
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(repeats):
            for mode, driver in drivers.items():
                start = time.perf_counter()
                results[mode] = run_tpch_query(driver, dataset, "q1")
                timings[mode].append(time.perf_counter() - start)
    for mode in ("threads", "processes"):
        assert tables_allclose(results["serial"].table, results[mode].table)
    medians = {mode: sorted(times)[len(times) // 2] for mode, times in timings.items()}
    pool = drivers["processes"]._pool
    pool_size = pool.size if pool is not None else 0

    # Forced process pool (bypasses the single-core serial fallback): on a
    # 1-core host this isolates the pool's pure dispatch + shared-memory
    # round-trip overhead, the quantity the README's crossover note documents.
    forced_driver = LambadaDriver(
        env, execution_mode="processes", max_parallel_invocations=2
    )
    run_tpch_query(forced_driver, dataset, "q1")  # untimed: pays the spawn
    forced_start = time.perf_counter()
    forced_result = run_tpch_query(forced_driver, dataset, "q1")
    forced_seconds = time.perf_counter() - forced_start
    assert tables_allclose(results["serial"].table, forced_result.table)
    forced_driver.close()
    drivers["processes"].close()

    # Fault-free overhead of the resilience plane.  A zero-rate plan keeps
    # every per-request fault hook live (the `plan is None` fast path is off)
    # while guaranteeing nothing ever fires, so the guarded/plain wall-time
    # ratio isolates the pure bookkeeping cost.  Interleaved best-of pairs
    # squeeze out scheduler noise on these sub-second runs.
    from repro.cloud.faults import chaos_plan

    zero_rate_plan = chaos_plan(seed=0, rate=0.0)
    plain_best = guarded_best = float("inf")
    guarded_result = None
    for _ in range(max(repeats, 5)):
        start = time.perf_counter()
        run_tpch_query(drivers["serial"], dataset, "q1")
        plain_best = min(plain_best, time.perf_counter() - start)
        env.install_fault_plan(zero_rate_plan)
        try:
            start = time.perf_counter()
            guarded_result = run_tpch_query(drivers["serial"], dataset, "q1")
            guarded_best = min(guarded_best, time.perf_counter() - start)
        finally:
            env.install_fault_plan(None)
    assert tables_allclose(results["serial"].table, guarded_result.table)
    assert guarded_result.statistics.resilience.clean

    # Integrity overhead: the checksummed default versus integrity fully off
    # over a crc-free copy of the dataset (same rows, no crcs to generate on
    # the write side or verify on the read side).  Interleaved best-of pairs,
    # as above.
    from repro.config import IntegrityConfig

    nocrc_dataset = generate_lineitem_dataset(
        env.s3,
        prefix="lineitem-nocrc",
        scale_factor=scale_factor,
        num_files=num_files,
        row_group_rows=32_768,
        compression=Compression.FAST,
        checksum=False,
    )
    unchecked_driver = LambadaDriver(
        env, integrity=IntegrityConfig(generate=False, verify=False)
    )
    run_tpch_query(unchecked_driver, nocrc_dataset, "q1")  # untimed warmup
    unchecked_best = checked_best = float("inf")
    checked_result = unchecked_result = None
    # The true crc cost is ~2% of a ~0.2s query — smaller than run-to-run
    # scheduler drift — so this needs the most noise-immune estimator in the
    # file: serial Q1 is a pure in-process CPU workload, so each half is
    # timed with ``time.process_time`` (preemption by other processes does
    # not count against either half), and the ratio is the *median of
    # per-pair ratios* over many back-to-back pairs (ambient slowdowns hit
    # both halves of a pair alike and cancel, where a ratio of independent
    # minima would not converge).  32 pairs brings the median's spread under
    # half a percent on a busy single-core host.
    pair_ratios = []
    for index in range(max(10 * repeats, 32)):
        # Alternate which half of the pair runs first, so cache position
        # inside the pair cannot systematically favour either side.
        halves = ["unchecked", "checked"]
        if index % 2:
            halves.reverse()
        seconds = {}
        for half in halves:
            start = time.process_time()
            if half == "unchecked":
                unchecked_result = run_tpch_query(
                    unchecked_driver, nocrc_dataset, "q1"
                )
            else:
                checked_result = run_tpch_query(drivers["serial"], dataset, "q1")
            seconds[half] = time.process_time() - start
        unchecked_best = min(unchecked_best, seconds["unchecked"])
        checked_best = min(checked_best, seconds["checked"])
        pair_ratios.append(seconds["checked"] / seconds["unchecked"])
    integrity_ratio = sorted(pair_ratios)[len(pair_ratios) // 2]
    assert tables_allclose(checked_result.table, unchecked_result.table)
    assert checked_result.statistics.integrity.clean
    assert unchecked_result.statistics.integrity.clean

    # Overload-plane overhead: the same serial Q1 through a QuerySession
    # (admission + budgets + breakers + cancellation armed) versus a bare
    # execute.  ``process_time`` covers all threads of the process, so the
    # session's worker-thread execution is fully charged to its half of the
    # pair; per-pair ratio medians cancel ambient slowdowns, as above.
    from repro.driver.driver import QuerySession
    from repro.workload.queries import q1_plan

    q1 = q1_plan(dataset.paths)
    bare_best = armed_best = float("inf")
    bare_result = armed_result = None
    admission_pair_ratios = []
    with QuerySession(env) as session:
        session.submit(q1).result()  # untimed: builds the thread's driver
        for index in range(max(10 * repeats, 32)):
            halves = ["bare", "armed"]
            if index % 2:
                halves.reverse()
            seconds = {}
            for half in halves:
                start = time.process_time()
                if half == "bare":
                    bare_result = drivers["serial"].execute(q1)
                else:
                    armed_result = session.submit(
                        q1, deadline_seconds=3600.0
                    ).result()
                seconds[half] = time.process_time() - start
            bare_best = min(bare_best, seconds["bare"])
            armed_best = min(armed_best, seconds["armed"])
            admission_pair_ratios.append(seconds["armed"] / seconds["bare"])
        admission_stats = session.stats
    admission_ratio = sorted(admission_pair_ratios)[len(admission_pair_ratios) // 2]
    assert tables_allclose(bare_result.table, armed_result.table)
    assert armed_result.statistics.resilience.clean
    assert armed_result.statistics.overload["retry_budget"]["spent_total"] == 0
    assert admission_stats.failed == 0 and admission_stats.cancelled == 0

    return {
        "num_rows": dataset.total_rows,
        "num_files": dataset.num_files,
        # Parallel gains require cores; on a single-CPU host all modes are
        # expected to tie, so record the hardware with the trajectory.
        "cpu_count": cpu_count,
        "pool_size": pool_size,
        "execution_modes": sorted(drivers),
        "median_of": repeats,
        "serial_wall_seconds": medians["serial"],
        "threads_wall_seconds": medians["threads"],
        "processes_wall_seconds": medians["processes"],
        "wall_speedup": medians["serial"] / medians["processes"],
        "threads_wall_speedup": medians["serial"] / medians["threads"],
        "forced_pool_wall_seconds": forced_seconds,
        "forced_pool_overhead_ratio": forced_seconds / medians["serial"],
        "faultfree_plain_wall_seconds": plain_best,
        "faultfree_guarded_wall_seconds": guarded_best,
        "faultfree_overhead_ratio": guarded_best / plain_best,
        "integrity_unchecked_cpu_seconds": unchecked_best,
        "integrity_checked_cpu_seconds": checked_best,
        "integrity_overhead_ratio": integrity_ratio,
        "admission_bare_cpu_seconds": bare_best,
        "admission_armed_cpu_seconds": armed_best,
        "admission_overhead_ratio": admission_ratio,
        "modelled_latency_seconds": results["processes"].statistics.latency_seconds,
        "result_rows": results["processes"].num_rows,
    }


def measure_threads_crossover(num_files: int = END_TO_END_FILES) -> Dict:
    """Serial versus forced-pool TPC-H Q1 wall time across data scales.

    Quantifies where the thread pool's dispatch overhead amortises: the
    per-dispatch cost is fixed, so its *relative* overhead shrinks as the
    per-worker numpy work grows with scale.  On a 1-core host the pool never
    wins (there is nothing to overlap); on multi-core hosts the crossover sits
    where the overhead ratio here would dip below 1.
    """
    from repro.analysis.experiments import run_tpch_query
    from repro.cloud.environment import CloudEnvironment
    from repro.driver.driver import LambadaDriver
    from repro.formats.compression import Compression
    from repro.workload.tpch import generate_lineitem_dataset

    import os

    scales = []
    for scale_factor in (0.02, END_TO_END_SCALE_FACTOR):
        env = CloudEnvironment.create()
        dataset = generate_lineitem_dataset(
            env.s3,
            scale_factor=scale_factor,
            num_files=num_files,
            row_group_rows=32_768,
            compression=Compression.FAST,
        )
        run_tpch_query(LambadaDriver(env), dataset, "q1")  # warmup

        serial_driver = LambadaDriver(env)
        start = time.perf_counter()
        run_tpch_query(serial_driver, dataset, "q1")
        serial_seconds = time.perf_counter() - start

        pool_driver = LambadaDriver(
            env, execution_mode="threads", max_parallel_invocations=4
        )
        start = time.perf_counter()
        run_tpch_query(pool_driver, dataset, "q1")
        pool_seconds = time.perf_counter() - start

        scales.append(
            {
                "num_rows": dataset.total_rows,
                "serial_wall_seconds": serial_seconds,
                "pool_wall_seconds": pool_seconds,
                "pool_overhead_ratio": pool_seconds / serial_seconds,
            }
        )
    return {"cpu_count": os.cpu_count(), "scales": scales}


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

def test_payload_roundtrip_speedup(bench_recorder, experiment_report):
    measurement = measure_payload_roundtrip()
    bench_recorder("payload_roundtrip", **measurement)
    experiment_report(
        f"payload round-trip @ {measurement['num_rows']} rows: "
        f"legacy {measurement['legacy_seconds']:.3f}s, "
        f"binary {measurement['binary_seconds']:.3f}s "
        f"({measurement['speedup']:.1f}x)"
    )
    assert measurement["speedup"] >= 3.0
    assert measurement["binary_wire_bytes"] < measurement["legacy_wire_bytes"]


def test_partition_scatter_speedup(bench_recorder, experiment_report):
    measurement = measure_partition_scatter()
    bench_recorder("partition_scatter", **measurement)
    experiment_report(
        f"partition scatter @ {measurement['num_rows']} rows, "
        f"P={measurement['num_partitions']}: "
        f"masked {measurement['masked_seconds']:.3f}s, "
        f"scatter {measurement['scatter_seconds']:.3f}s "
        f"({measurement['speedup']:.1f}x)"
    )
    assert measurement["speedup"] >= 5.0


def test_join_probe_speedup(bench_recorder, experiment_report):
    measurement = measure_join_probe()
    bench_recorder("join_probe", **measurement)
    experiment_report(
        f"join probe @ {measurement['num_rows']} rows vs "
        f"{measurement['build_rows']} build rows: "
        f"dict {measurement['dict_seconds']:.3f}s, "
        f"vectorized {measurement['vectorized_seconds']:.3f}s "
        f"({measurement['speedup']:.1f}x)"
    )
    assert measurement["speedup"] >= 5.0


def test_join_probe_fk_speedup(bench_recorder, experiment_report):
    measurement = measure_join_probe_fk()
    bench_recorder("join_probe_fk", **measurement)
    experiment_report(
        f"FK->PK join probe @ {measurement['num_rows']} rows vs "
        f"{measurement['build_rows']} unique build keys of "
        f"{measurement['key_domain']}: "
        f"dict {measurement['dict_seconds']:.3f}s, "
        f"vectorized {measurement['vectorized_seconds']:.3f}s "
        f"({measurement['speedup']:.1f}x)"
    )
    assert measurement["speedup"] >= 25.0


def test_exchange_route_speedup(bench_recorder, experiment_report):
    measurement = measure_exchange_route()
    bench_recorder("exchange_route", **measurement)
    experiment_report(
        f"exchange route @ {measurement['num_targets']} targets, "
        f"P={measurement['num_workers']}: "
        f"np.vectorize {measurement['legacy_seconds']:.3f}s, "
        f"lookup table {measurement['table_seconds']:.4f}s "
        f"({measurement['speedup']:.1f}x)"
    )
    assert measurement["speedup"] >= 5.0


def test_shuffle_codec_speedup(bench_recorder, experiment_report):
    measurement = measure_shuffle_codec()
    bench_recorder("shuffle_codec", **measurement)
    experiment_report(
        f"shuffle codec @ {measurement['num_rows']} rows, "
        f"P={measurement['num_partitions']}: "
        f"LPQ {measurement['lpq_seconds']:.3f}s, "
        f"fast {measurement['fast_seconds']:.3f}s "
        f"({measurement['speedup']:.1f}x; framing only "
        f"{measurement['framing_speedup']:.1f}x); typed set "
        f"{measurement['typed_seconds']:.3f}s vs zlib-1 "
        f"{measurement['zlib_seconds']:.3f}s "
        f"({measurement['typed_speedup']:.1f}x, "
        f"{measurement['bytes_ratio']:.2f}x the bytes; TPC-H shape "
        f"{measurement['tpch_typed_speedup']:.1f}x, "
        f"{measurement['tpch_bytes_ratio']:.2f}x the bytes)"
    )
    assert measurement["speedup"] >= 1.2
    assert measurement["framing_speedup"] >= 5.0
    assert measurement["typed_speedup"] >= 3.0
    assert measurement["tpch_bytes_ratio"] <= 1.0


def test_encoded_eval_speedup(bench_recorder, experiment_report):
    measurement = measure_encoded_eval()
    bench_recorder("encoded_eval", **measurement)
    experiment_report(
        f"encoded eval @ {measurement['num_rows']} rows: "
        f"decoded {measurement['decoded_seconds']:.3f}s, "
        f"encoded {measurement['encoded_seconds']:.4f}s "
        f"({measurement['speedup']:.1f}x; rle {measurement['rle_speedup']:.1f}x, "
        f"dict {measurement['dictionary_speedup']:.1f}x)"
    )
    assert measurement["speedup"] >= 1.5


def test_scan_filter_speedup(bench_recorder, experiment_report):
    measurement = measure_scan_filter()
    bench_recorder("scan_filter", **measurement)
    experiment_report(
        f"scan filter @ {measurement['num_rows']} rows, "
        f"selectivity {measurement['selectivity']:.1%}: "
        f"full decode {measurement['baseline_seconds']:.3f}s, "
        f"late materialization {measurement['late_seconds']:.3f}s "
        f"({measurement['speedup']:.1f}x; "
        f"{measurement['row_groups_shortcircuited']}/{measurement['row_groups']} "
        f"chunks short-circuited)"
    )
    assert measurement["speedup"] >= 3.0
    assert measurement["late_get_requests"] < measurement["baseline_get_requests"]


def test_shuffle_requests_collapse(bench_recorder, experiment_report):
    measurement = measure_shuffle_requests()
    bench_recorder("shuffle_requests", **measurement)
    experiment_report(
        f"shuffle requests @ {measurement['num_rows']} rows, "
        f"{measurement['num_workers']}x{measurement['num_workers']} workers: "
        f"PUTs {measurement['legacy_put_requests']}→"
        f"{measurement['combined_put_requests']} "
        f"({measurement['put_collapse']:.0f}x), "
        f"request cost {measurement['request_cost_collapse']:.1f}x cheaper, "
        f"modelled latency {measurement['modelled_speedup']:.2f}x, "
        f"wall {measurement['legacy_seconds']:.2f}s→"
        f"{measurement['combined_seconds']:.2f}s"
    )
    # The acceptance bar: 32 mappers issue <= 32 PUTs (was 1024), and the
    # reduce wave never exceeds one ranged GET per non-empty slice.
    assert measurement["combined_put_requests"] <= measurement["num_workers"]
    assert measurement["put_collapse"] >= 16.0
    assert (
        measurement["combined_ranged_get_requests"]
        == measurement["num_workers"] ** 2 - measurement["empty_slices_elided"]
    )
    assert measurement["request_cost_collapse"] >= 1.5
    assert measurement["modelled_speedup"] >= 1.2


def test_join_e2e_collapse(bench_recorder, experiment_report):
    measurement = measure_join_e2e()
    bench_recorder("join_e2e", **measurement)
    experiment_report(
        f"join e2e (Q3) @ {measurement['lineitem_rows']}+{measurement['orders_rows']} rows, "
        f"{measurement['num_workers']}x2 mappers: "
        f"PUTs {measurement['legacy_put_requests']}→"
        f"{measurement['combined_put_requests']} "
        f"({measurement['put_collapse']:.0f}x), "
        f"request cost {measurement['request_cost_collapse']:.1f}x cheaper, "
        f"modelled latency {measurement['modelled_speedup']:.2f}x, "
        f"wall {measurement['legacy_seconds']:.2f}s→"
        f"{measurement['combined_seconds']:.2f}s"
    )
    # Acceptance bars: both map waves write-combine (one PUT per mapper on
    # each side) and the join wave never exceeds one ranged GET per non-empty
    # (mapper, reducer, side) slice.
    assert measurement["combined_put_requests"] <= 2 * measurement["num_workers"]
    assert measurement["put_collapse"] >= 8.0
    assert (
        measurement["combined_ranged_get_requests"]
        + measurement["empty_slices_elided"]
        == 2 * measurement["num_workers"] ** 2
    )
    assert measurement["join_output_rows"] > 0
    # The join wave needs zero discovery requests for combined objects (the
    # offset-bearing keys ride through the driver's map barrier).
    assert measurement["combined_list_requests"] == 0
    assert measurement["combined_head_requests"] == 0
    assert measurement["request_cost_collapse"] >= 4.0
    assert measurement["modelled_speedup"] >= 1.2


def test_end_to_end_query(bench_recorder, experiment_report):
    measurement = measure_end_to_end()
    bench_recorder("end_to_end_q1", **measurement)
    experiment_report(
        f"TPC-H Q1 @ {measurement['num_rows']} rows "
        f"({measurement['cpu_count']} cores, pool {measurement['pool_size']}): "
        f"serial {measurement['serial_wall_seconds']:.2f}s, "
        f"threads {measurement['threads_wall_seconds']:.2f}s, "
        f"processes {measurement['processes_wall_seconds']:.2f}s wall "
        f"({measurement['wall_speedup']:.2f}x), "
        f"fault-hook overhead {measurement['faultfree_overhead_ratio']:.3f}x, "
        f"integrity overhead {measurement['integrity_overhead_ratio']:.3f}x, "
        f"admission overhead {measurement['admission_overhead_ratio']:.3f}x"
    )
    # The resilience plane must be free when no faults fire (PR 7's bar:
    # fault-free Q1 regresses by less than 2%), the integrity plane's
    # checksums must cost less than 3% of wall time, and the armed overload
    # plane (PR 9: admission, budgets, breakers, cancellation) less than 2%.
    assert measurement["faultfree_overhead_ratio"] < 1.02
    assert measurement["integrity_overhead_ratio"] < 1.03
    assert measurement["admission_overhead_ratio"] < 1.02
    assert measurement["result_rows"] > 0
    assert measurement["median_of"] == 3


def test_threads_crossover(bench_recorder, experiment_report):
    measurement = measure_threads_crossover()
    bench_recorder("threads_crossover", **measurement)
    for scale in measurement["scales"]:
        experiment_report(
            f"threads crossover @ {scale['num_rows']} rows: "
            f"serial {scale['serial_wall_seconds']:.3f}s, "
            f"forced pool {scale['pool_wall_seconds']:.3f}s "
            f"(overhead ratio {scale['pool_overhead_ratio']:.2f})"
        )
    assert len(measurement["scales"]) == 2


# ---------------------------------------------------------------------------
# script entry point
# ---------------------------------------------------------------------------

MEASUREMENTS: Dict[str, Callable[[], Dict]] = {
    "payload_roundtrip": measure_payload_roundtrip,
    "partition_scatter": measure_partition_scatter,
    "join_probe": measure_join_probe,
    "join_probe_fk": measure_join_probe_fk,
    "exchange_route": measure_exchange_route,
    "shuffle_codec": measure_shuffle_codec,
    "encoded_eval": measure_encoded_eval,
    "scan_filter": measure_scan_filter,
    "shuffle_requests": measure_shuffle_requests,
    "join_e2e": measure_join_e2e,
    "end_to_end_q1": measure_end_to_end,
    "threads_crossover": measure_threads_crossover,
}


def main(output_path: str = "BENCH_hot_paths.json", only: List[str] | None = None) -> Dict:
    """Run the selected measurements (all by default) and write the trajectory."""
    selected = list(MEASUREMENTS) if not only else list(only)
    unknown = [name for name in selected if name not in MEASUREMENTS]
    if unknown:
        raise SystemExit(
            f"unknown section(s) {unknown}; choose from {sorted(MEASUREMENTS)}"
        )
    results = {name: MEASUREMENTS[name]() for name in selected}
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump({"results": results}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, measurement in results.items():
        print(name, json.dumps(measurement))
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_hot_paths.json",
        help="path of the JSON trajectory to write",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="SECTION",
        help="run only this section (repeatable); defaults to all sections",
    )
    arguments = parser.parse_args()
    main(output_path=arguments.output, only=arguments.only)
