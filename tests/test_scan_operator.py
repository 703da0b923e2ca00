"""Tests for the S3-backed scan operator and its I/O source."""

import numpy as np
import pytest

from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import ObjectStore
from repro.counters import Counts
from repro.engine.s3io import S3ObjectSource
from repro.engine.scan import S3ScanOperator, ScanConfig
from repro.engine.table import concat_tables, table_num_rows
from repro.formats.compression import Compression
from repro.formats.parquet import CHECKED_MAGIC, MAGIC, write_table
from repro.plan.physical import PruneRange


@pytest.fixture
def store_with_file():
    store = ObjectStore()
    store.create_bucket("data")
    n = 4000
    table = {
        "id": np.arange(n, dtype=np.int64),
        "v": np.linspace(0, 1, n),
    }
    data = write_table(table, row_group_rows=1000, compression=Compression.GZIP)
    store.put_object("data", "t/part-0.lpq", data)
    return store, table


# -- S3ObjectSource ---------------------------------------------------------------------

def test_source_size_and_read(store_with_file):
    store, _ = store_with_file
    source = S3ObjectSource(store, "s3://data/t/part-0.lpq")
    size = store.head_object("data", "t/part-0.lpq").size
    assert source.size() == size
    assert source.read_at(0, 4) == MAGIC


def test_source_chunked_reads_issue_multiple_requests(store_with_file):
    store, _ = store_with_file
    stats = Counts()
    source = S3ObjectSource(
        store, "s3://data/t/part-0.lpq", chunk_bytes=1024, counts=stats
    )
    source.size()  # the open: one suffix GET of chunk_bytes, no HEAD
    assert (stats["scan", "get_requests"], stats["scan", "bytes_read"]) == (1, 1024)
    source.read_at(0, 5000)
    # ceil(5000 / 1024) = 5 data requests.
    assert stats["scan", "get_requests"] - 1 == 5
    assert stats["scan", "bytes_read"] - 1024 == 5000
    assert source.transfer_seconds > 0


def test_source_read_past_end_is_clamped(store_with_file):
    store, _ = store_with_file
    source = S3ObjectSource(store, "s3://data/t/part-0.lpq")
    tail = source.read_at(source.size() - 4, 100)
    # The clamped read returns exactly the 4 bytes of the (checked) tail magic.
    assert tail == CHECKED_MAGIC


def test_source_rejects_bad_arguments(store_with_file):
    store, _ = store_with_file
    with pytest.raises(ValueError):
        S3ObjectSource(store, "s3://data/t/part-0.lpq", chunk_bytes=0)
    with pytest.raises(ValueError):
        S3ObjectSource(store, "s3://data/t/part-0.lpq", connections=0)
    source = S3ObjectSource(store, "s3://data/t/part-0.lpq")
    with pytest.raises(ValueError):
        source.read_at(-1, 10)


# -- scan operator ----------------------------------------------------------------------

def test_scan_reads_all_rows(store_with_file):
    store, table = store_with_file
    scan = S3ScanOperator(store, ["s3://data/t/part-0.lpq"])
    result = concat_tables(list(scan.scan()))
    np.testing.assert_array_equal(np.sort(result["id"]), table["id"])
    assert scan.counters.rows_scanned == 4000
    assert scan.counters.files_scanned == 1
    assert scan.counters.row_groups_total == 4


def test_scan_projection_only_returns_requested_columns(store_with_file):
    store, _ = store_with_file
    scan = S3ScanOperator(store, ["s3://data/t/part-0.lpq"], columns=["v"])
    chunk = next(iter(scan.scan()))
    assert list(chunk.keys()) == ["v"]


def test_scan_projection_reads_fewer_bytes(store_with_file):
    store, _ = store_with_file
    # With the default model a file this small arrives whole with the open
    # request; a zero break-even makes the scan fetch exactly what it projects.
    exact = BandwidthModel(request_latency_seconds=0.0)
    full = S3ScanOperator(store, ["s3://data/t/part-0.lpq"], bandwidth=exact)
    list(full.scan())
    projected = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], columns=["v"], bandwidth=exact
    )
    list(projected.scan())
    assert projected.counts["scan", "bytes_read"] < full.counts["scan", "bytes_read"]


def test_scan_pruning_skips_row_groups(store_with_file):
    store, _ = store_with_file
    scan = S3ScanOperator(
        store,
        ["s3://data/t/part-0.lpq"],
        prune_ranges=[PruneRange("id", 0, 999)],
    )
    result = concat_tables(list(scan.scan()))
    assert table_num_rows(result) == 1000
    assert scan.counters.row_groups_pruned == 3
    assert scan.counters.row_groups_scanned == 1


def test_scan_pruning_everything_returns_no_chunks(store_with_file):
    store, _ = store_with_file
    scan = S3ScanOperator(
        store,
        ["s3://data/t/part-0.lpq"],
        prune_ranges=[PruneRange("id", 100000, 200000)],
    )
    assert list(scan.scan()) == []
    assert scan.counters.rows_scanned == 0
    # Metadata was still read (one footer round-trip).
    assert scan.counters.metadata_seconds > 0


def test_scan_pruned_worker_is_much_faster(store_with_file):
    store, _ = store_with_file
    full = S3ScanOperator(store, ["s3://data/t/part-0.lpq"])
    list(full.scan())
    pruned = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], prune_ranges=[PruneRange("id", 1e9, 2e9)]
    )
    list(pruned.scan())
    assert pruned.modelled_seconds() < full.modelled_seconds()


def test_scan_multiple_files(store_with_file):
    store, table = store_with_file
    data = write_table(
        {"id": np.arange(100, dtype=np.int64), "v": np.zeros(100)}, row_group_rows=50
    )
    store.put_object("data", "t/part-1.lpq", data)
    scan = S3ScanOperator(store, ["s3://data/t/part-0.lpq", "s3://data/t/part-1.lpq"])
    result = concat_tables(list(scan.scan()))
    assert table_num_rows(result) == 4100
    assert scan.counters.files_scanned == 2


def test_more_memory_means_less_modelled_compute(store_with_file):
    store, _ = store_with_file
    small = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(memory_mib=512)
    )
    list(small.scan())
    large = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(memory_mib=1792)
    )
    list(large.scan())
    assert large.counters.decode_seconds < small.counters.decode_seconds


def test_two_threads_help_only_above_one_vcpu(store_with_file):
    store, _ = store_with_file
    one_thread = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(memory_mib=3008, threads=1)
    )
    list(one_thread.scan())
    two_threads = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(memory_mib=3008, threads=2)
    )
    list(two_threads.scan())
    assert two_threads.counters.decode_seconds < one_thread.counters.decode_seconds

    small_one = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(memory_mib=1024, threads=1)
    )
    list(small_one.scan())
    small_two = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(memory_mib=1024, threads=2)
    )
    list(small_two.scan())
    assert small_two.counters.decode_seconds == pytest.approx(small_one.counters.decode_seconds)


def test_overlap_reduces_modelled_time(store_with_file):
    store, _ = store_with_file
    overlapped = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(overlap_downloads=True)
    )
    list(overlapped.scan())
    sequential = S3ScanOperator(
        store, ["s3://data/t/part-0.lpq"], config=ScanConfig(overlap_downloads=False)
    )
    list(sequential.scan())
    assert overlapped.modelled_seconds() <= sequential.modelled_seconds()
