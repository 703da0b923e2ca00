"""S3-based columnar scan operator.

Reproduces the design of the paper's Parquet scan operator (§4.3.2, Figure 8):

* one suffix read opens the file and fetches its footer (metadata) — a
  break-even's worth of bytes, so a small file arrives whole with it;
* row groups are pruned against the predicate using the footer's min/max
  statistics before any data is fetched;
* only the projected columns' chunks are downloaded, as a **read plan** per
  row group: the chunks' ranges go to the source in one batch, which merges
  neighbours whose gap streams in less than a round trip, splits at the
  chunk size, and pipelines the resulting GETs over the concurrent
  connections ("level 2" concurrency) as one modelled transfer
  (:meth:`~repro.engine.s3io.S3ObjectSource.read_ranges`);
* the summed download time is modelled as overlapped with decompression of
  the previous row group ("level 3" concurrency) when
  ``overlap_downloads`` is set; the code itself reads and decodes row groups
  one after another.

The operator yields decoded table chunks and accumulates
:class:`~repro.engine.s3io.ScanStatistics` plus scan-level counters used by
the benchmarks (pruned vs scanned row groups, modelled scan time).

When a predicate is pushed into the scan, row groups that survive min/max
pruning are executed with **late materialization**: predicate columns are
opened as encoded chunks and the comparisons evaluated directly on
dictionaries/runs, a selection vector is computed, fully-rejected chunks are
short-circuited before the remaining projected columns are even downloaded,
and surviving rows are gathered through
:func:`~repro.formats.encoding.decode_gather` instead of decode-then-mask.
Such a row group is therefore two batches: the predicate's columns, then —
only if a row survives — the rest of the projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import ObjectStore
from repro.config import (
    DEFAULT_SCAN_CHUNK_BYTES,
    DEFAULT_SCAN_CONNECTIONS,
    LAMBDA_MEMORY_PER_VCPU_MIB,
    VCPU_ROWS_PER_SECOND,
)
from repro.engine.s3io import S3ObjectSource, ScanStatistics
from repro.engine.table import Table
from repro.formats.encoding import (
    EncodedChunk,
    decode_gather,
    encoded_key_codes,
    evaluate_comparison,
)
from repro.formats.parquet import ColumnarFile, RowGroupMeta
from repro.plan.expressions import CompiledPredicate, Expression, compile_predicate, evaluate
from repro.plan.physical import PruneRange


@dataclass
class ScanConfig:
    """Tunable knobs of the scan operator."""

    chunk_bytes: int = DEFAULT_SCAN_CHUNK_BYTES
    connections: int = DEFAULT_SCAN_CONNECTIONS
    memory_mib: int = 2048
    threads: int = 2
    #: Overlap row-group downloads with decompression (concurrency level 3).
    overlap_downloads: bool = True
    #: Evaluate pushed-down predicates on encoded chunks and gather only
    #: surviving rows.  Off, the scan still applies the predicate but through
    #: the full-decode-then-mask baseline path.
    late_materialization: bool = True


@dataclass
class ScanCounters:
    """Scan-level counters reported by one worker."""

    files_scanned: int = 0
    row_groups_total: int = 0
    row_groups_pruned: int = 0
    rows_scanned: int = 0
    #: Row groups whose selection vector came out empty (yield skipped, no
    #: further column downloads) or full (no gather needed).
    row_groups_shortcircuit_empty: int = 0
    row_groups_shortcircuit_full: int = 0
    #: Column-chunk downloads avoided because the selection was empty.
    column_chunks_skipped: int = 0
    #: Rows whose full decode was avoided, summed over gathered/skipped columns.
    rows_decode_saved: int = 0
    #: Modelled seconds spent in metadata requests.
    metadata_seconds: float = 0.0
    #: Modelled seconds spent downloading data chunks.
    download_seconds: float = 0.0
    #: Modelled seconds spent decompressing and decoding.
    decode_seconds: float = 0.0

    @property
    def row_groups_scanned(self) -> int:
        """Row groups actually read (total minus pruned)."""
        return self.row_groups_total - self.row_groups_pruned

    @property
    def row_groups_shortcircuited(self) -> int:
        """Row groups that never reached the gather step."""
        return self.row_groups_shortcircuit_empty + self.row_groups_shortcircuit_full

    def modelled_scan_seconds(self, overlap: bool) -> float:
        """Total modelled scan time, overlapping download and decode if requested."""
        body = (
            max(self.download_seconds, self.decode_seconds)
            if overlap
            else self.download_seconds + self.decode_seconds
        )
        return self.metadata_seconds + body


@dataclass
class FusedBatch:
    """One row group's worth of filtered rows, keys kept in code space.

    Produced by :meth:`S3ScanOperator.scan_fused` for the fused
    scan→filter→partial-agg pipeline: aggregate-input columns are gathered
    into ``values`` exactly as the classic path would, but group-key columns
    stay as ``(sorted uniques, per-row codes)`` pairs when their encoding
    already provides codes (dictionary/RLE chunks), so the group-by kernel
    never materialises the key arrays.  Keys whose codes could not be derived
    (plain chunks) are materialised into ``key_values`` instead.
    """

    num_rows: int
    values: Table
    key_codes: Dict[str, tuple]
    key_values: Table

    def materialize_key(self, name: str) -> np.ndarray:
        """The key column as a value array (identical to the classic gather)."""
        if name in self.key_values:
            return self.key_values[name]
        uniques, codes = self.key_codes[name]
        if len(uniques) == 0:
            return np.zeros(0, dtype=uniques.dtype)
        return uniques[codes]


class S3ScanOperator:
    """Scans a list of columnar files from the object store."""

    def __init__(
        self,
        store: ObjectStore,
        files: Sequence[str],
        columns: Optional[Sequence[str]] = None,
        prune_ranges: Sequence[PruneRange] = (),
        config: Optional[ScanConfig] = None,
        bandwidth: Optional[BandwidthModel] = None,
        predicate: Optional[Expression] = None,
    ):
        self.store = store
        self.files = list(files)
        self.columns = list(columns) if columns else None
        self.prune_ranges = list(prune_ranges)
        self.config = config or ScanConfig()
        self.bandwidth = bandwidth or BandwidthModel()
        self.statistics = ScanStatistics()
        self.counters = ScanCounters()
        self.predicate = predicate
        self._compiled: Optional[CompiledPredicate] = (
            compile_predicate(predicate) if predicate is not None else None
        )

    @property
    def applies_predicate(self) -> bool:
        """Whether yielded chunks are already filtered by the pushed predicate."""
        return self.predicate is not None

    # -- decoding cost model --------------------------------------------------------

    def _decode_seconds(self, rows: int, heavyweight: bool) -> float:
        """Modelled CPU seconds to decompress and decode ``rows`` rows.

        Heavy-weight compression (GZIP) is decompression-bound; a second
        thread on large workers can halve it (paper §4.3.2).
        """
        cpu_share = self.config.memory_mib / LAMBDA_MEMORY_PER_VCPU_MIB
        single_thread = min(cpu_share, 1.0)
        if self.config.threads > 1 and cpu_share > 1.0:
            usable = min(cpu_share, float(self.config.threads))
        else:
            usable = single_thread
        base = rows / (VCPU_ROWS_PER_SECOND * max(usable, 1e-9))
        return base * (1.0 if heavyweight else 0.4)

    # -- iteration --------------------------------------------------------------------

    def __iter__(self) -> Iterator[Table]:
        return self.scan()

    def scan(self) -> Iterator[Table]:
        """Yield decoded table chunks (one per surviving row group)."""
        for path in self.files:
            yield from self._scan_file(path)

    def scan_fused(self, group_keys: Sequence[str]) -> Iterator[FusedBatch]:
        """Yield filtered :class:`FusedBatch` batches (one per surviving group).

        Single-pass scan→filter for the fused aggregation pipeline: the
        pushed-down predicate's selection vector feeds the column gathers
        directly and group-key columns are kept in code space.  Download,
        decode-charge, and short-circuit accounting are identical to
        :meth:`scan` with the same predicate.
        """
        group_keys = frozenset(group_keys)
        for path in self.files:
            yield from self._scan_file(path, fused_keys=group_keys)

    def _scan_file(
        self, path: str, fused_keys: Optional[frozenset] = None
    ) -> Iterator[Table]:
        source = S3ObjectSource(
            self.store,
            path,
            chunk_bytes=self.config.chunk_bytes,
            connections=self.config.connections,
            memory_mib=self.config.memory_mib,
            bandwidth=self.bandwidth,
            statistics=ScanStatistics(),
        )
        reader = ColumnarFile(source)
        self.counters.files_scanned += 1
        # Everything read so far (footer + tail) is metadata.
        self.counters.metadata_seconds += source.statistics.transfer_seconds
        metadata_transfer = source.statistics.transfer_seconds

        columns = self.columns or reader.schema.names
        # Min/max pruning of every row group at once, before any data is fetched.
        survives = reader.metadata.surviving_groups(
            (prange.column, prange.lower, prange.upper) for prange in self.prune_ranges
        )
        for group, alive in zip(reader.row_groups, survives.tolist()):
            if group.num_rows == 0:
                continue
            self.counters.row_groups_total += 1
            if not alive:
                self.counters.row_groups_pruned += 1
                continue
            self.counters.rows_scanned += group.num_rows
            if fused_keys is not None:
                batch = self._scan_group_fused(reader, group, columns, fused_keys)
                if batch is not None:
                    yield batch
                continue
            if self._compiled is not None:
                chunk = self._scan_group_filtered(reader, group, columns)
                if chunk is not None:
                    yield chunk
                continue
            chunk: Table = {}
            heavyweight = False
            reader.prefetch(group, columns)
            for name in columns:
                chunk[name] = reader.read_column_chunk(group, name)
                heavyweight = heavyweight or group.column_meta(name).compression.is_heavyweight
            self.counters.decode_seconds += self._decode_seconds(group.num_rows, heavyweight)
            yield chunk

        # Attribute the remaining transfer time of this file to data download.
        self.counters.download_seconds += source.statistics.transfer_seconds - metadata_transfer
        self.statistics.merge(source.statistics)

    # -- predicate push-down -------------------------------------------------------

    def _scan_group_filtered(
        self, reader: ColumnarFile, group: RowGroupMeta, columns: Sequence[str]
    ) -> Optional[Table]:
        """Execute one surviving row group with the pushed-down predicate.

        Returns the filtered, projected chunk, or ``None`` when no row
        survives (in which case non-predicate column chunks were never
        downloaded).
        """
        num_rows = group.num_rows
        if not self.config.late_materialization:
            # Full-decode baseline: decode every needed column, evaluate the
            # whole predicate on the decoded arrays, mask-copy the chunk.
            compiled = self._compiled
            needed = list(columns)
            for name in compiled.comparison_columns | compiled.residual_columns:
                if name not in needed:
                    needed.append(name)
            reader.prefetch(group, needed)
            decoded = {
                name: reader.read_encoded_chunk(group, name).decode() for name in needed
            }
            mask = np.asarray(evaluate(self.predicate, decoded), dtype=bool)
            self._charge_decode(group, needed, (), 0)
            if not mask.any():
                return None
            if mask.all():
                return {name: decoded[name] for name in columns}
            return {name: decoded[name][mask] for name in columns}

        selected_rows = self._select_rows(reader, group, columns)
        if selected_rows is None:
            return None
        load, encoded, decoded, selection = selected_rows
        selected = num_rows if selection is None else len(selection)

        # Gather the projected columns for surviving rows only.
        predicate_columns = list(encoded)
        gathered_columns = [name for name in columns if name not in encoded]
        chunk: Table = {}
        for name in columns:
            if name in decoded:
                # Already fully decoded for the residual — sliced, not saved.
                values = decoded[name]
                chunk[name] = values if selection is None else values[selection]
            else:
                chunk[name] = decode_gather(load(name), selection)
                if selection is not None:
                    self.counters.rows_decode_saved += num_rows - selected
        self._charge_decode(group, predicate_columns, gathered_columns, selected)
        return chunk

    def _select_rows(
        self, reader: ColumnarFile, group: RowGroupMeta, columns: Sequence[str]
    ) -> Optional[Tuple[Callable[[str], EncodedChunk], Dict, Dict, Optional[np.ndarray]]]:
        """Fetch one row group in (at most) two batches around its selection vector.

        Batch 1 is the pushed-down predicate's columns; the selection vector
        is evaluated on them, and a fully-rejected group returns ``None``
        before batch 2 — the rest of ``columns`` — is ever requested.  The
        I/O step shared by the filtered and fused scan paths: returns the
        chunk loader, the chunks it has parsed and decoded so far, and the
        surviving row indices (``None`` for "all rows").
        """
        num_rows = group.num_rows
        encoded: Dict[str, EncodedChunk] = {}
        decoded: Dict[str, np.ndarray] = {}

        def load(name: str) -> EncodedChunk:
            if name not in encoded:
                encoded[name] = reader.read_encoded_chunk(group, name)
            return encoded[name]

        mask: Optional[np.ndarray] = None
        if self._compiled is not None:
            reader.prefetch(
                group, self._compiled.comparison_columns | self._compiled.residual_columns
            )
            mask = self._group_selection(load, decoded, num_rows)
            if mask is not None and not mask.any():
                self.counters.column_chunks_skipped += sum(
                    1 for name in columns if name not in encoded
                )
                self.counters.rows_decode_saved += num_rows * sum(
                    1 for name in columns if name not in decoded
                )
                self.counters.row_groups_shortcircuit_empty += 1
                self._charge_decode(group, list(encoded), (), 0)
                return None
            if mask is None or mask.all():
                mask = None
                self.counters.row_groups_shortcircuit_full += 1
        selection = None if mask is None else np.flatnonzero(mask)
        reader.prefetch(group, [name for name in columns if name not in encoded])
        return load, encoded, decoded, selection

    def _group_selection(self, load, decoded, num_rows: int) -> Optional[np.ndarray]:
        """Evaluate the compiled predicate on encoded chunks for one row group.

        Selection vector step shared by the filtered and fused scan paths:
        encoding-aware comparisons first (cheapest-to-reject ordering is the
        plan's conjunct order, short-circuiting as soon as the mask empties),
        then the decoded residual.  Returns the boolean row mask, or ``None``
        when the predicate constrains nothing.
        """
        compiled = self._compiled
        mask: Optional[np.ndarray] = None
        for comparison in compiled.comparisons:
            comparison_mask = evaluate_comparison(
                load(comparison.column), comparison.op, comparison.value
            )
            mask = comparison_mask if mask is None else mask & comparison_mask
            if not mask.any():
                break

        if mask is None or mask.any():
            if compiled.residual is not None:
                for name in sorted(compiled.residual_columns):
                    decoded[name] = load(name).decode()
                # A residual with no column references (literal-only) still
                # needs a row count to broadcast over.
                residual_input = decoded or {"__rows__": np.zeros(num_rows, dtype=np.int8)}
                residual_mask = np.asarray(
                    evaluate(compiled.residual, residual_input), dtype=bool
                )
                mask = residual_mask if mask is None else mask & residual_mask
        return mask

    # -- fused scan→filter→agg batches ---------------------------------------------

    def _scan_group_fused(
        self,
        reader: ColumnarFile,
        group: RowGroupMeta,
        columns: Sequence[str],
        group_keys: frozenset,
    ) -> Optional[FusedBatch]:
        """Execute one surviving row group for the fused aggregation pipeline.

        The selection vector, short-circuit, and decode-charge accounting are
        identical to :meth:`_scan_group_filtered`; the difference is the
        output shape: instead of materialising a filtered chunk, surviving
        rows are delivered as a :class:`FusedBatch` whose group-key columns
        stay in code space whenever the encoding provides codes.
        """
        num_rows = group.num_rows
        selected_rows = self._select_rows(reader, group, columns)
        if selected_rows is None:
            return None
        load, encoded, decoded, selection = selected_rows
        selected = num_rows if selection is None else len(selection)

        predicate_columns = list(encoded)
        gathered_columns = [name for name in columns if name not in encoded]
        values: Table = {}
        key_codes: Dict[str, tuple] = {}
        key_values: Table = {}
        for name in columns:
            is_key = name in group_keys
            if name in decoded:
                # Already fully decoded for the residual — sliced, not saved.
                column = decoded[name]
                column = column if selection is None else column[selection]
                (key_values if is_key else values)[name] = column
                continue
            chunk = load(name)
            if is_key:
                derived = encoded_key_codes(chunk, selection)
                if derived is not None:
                    key_codes[name] = derived
                else:
                    key_values[name] = decode_gather(chunk, selection)
            else:
                values[name] = decode_gather(chunk, selection)
            if selection is not None:
                self.counters.rows_decode_saved += num_rows - selected
        self._charge_decode(group, predicate_columns, gathered_columns, selected)
        return FusedBatch(
            num_rows=selected, values=values, key_codes=key_codes, key_values=key_values
        )

    def _charge_decode(
        self,
        group: RowGroupMeta,
        full_columns: Sequence[str],
        gathered_columns: Sequence[str],
        gathered_rows: int,
    ) -> None:
        """Charge modelled decode time for the columns actually touched.

        Predicate columns and decoded residual columns pay full-chunk decode;
        gathered columns pay only for the surviving rows.  The charge is
        normalised by the projected column count, so an unfiltered scan of the
        same columns costs exactly the legacy ``_decode_seconds(num_rows)``.
        """
        projected = self.columns or group.schema.names
        width = max(len(projected), 1)
        touched = list(full_columns) + list(gathered_columns)
        heavyweight = any(
            group.column_meta(name).compression.is_heavyweight for name in touched
        )
        charged = group.num_rows * len(full_columns) + gathered_rows * len(gathered_columns)
        self.counters.decode_seconds += self._decode_seconds(charged / width, heavyweight)

    # -- summary ------------------------------------------------------------------------

    def modelled_seconds(self) -> float:
        """Total modelled scan time for this worker."""
        return self.counters.modelled_scan_seconds(self.config.overlap_downloads)
