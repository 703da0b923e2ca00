"""S3-based columnar scan operator.

Reproduces the design of the paper's Parquet scan operator (§4.3.2, Figure 8):

* one suffix read opens the file and fetches its footer (metadata) — a
  break-even's worth of bytes, so a small file arrives whole with it; a
  worker's files are opened together, their suffix reads pipelined over the
  connections as one modelled transfer
  (:func:`~repro.engine.s3io.open_sources`), so k files cost
  ⌈k / connections⌉ round trips rather than k;
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
  ``overlap_downloads`` is set.

The operator yields decoded table chunks; its sources note their GETs and
bytes into the operator's :attr:`~S3ScanOperator.counts`, and it keeps the
scan-level counters the benchmarks read (pruned vs scanned row groups,
modelled scan time) in :class:`ScanCounters`.

When a predicate is pushed into the scan, row groups that survive min/max
pruning are executed with **late materialization**: predicate columns are
opened as encoded chunks and the comparisons evaluated directly on
dictionaries/runs, a selection vector is computed, fully-rejected chunks are
short-circuited before the remaining projected columns are even downloaded,
and surviving rows are gathered through
:func:`~repro.formats.encoding.decode_gather` instead of decode-then-mask.
Such a row group is therefore two batches: the predicate's columns, then —
only if a row survives — the rest of the projection.

The code reads row group after row group but decodes **runs** of them:
consecutive surviving row groups of one file, up to :data:`RUN_ROWS` rows.
Each row group's I/O, selection vector, short-circuit, decode charge and
chunk parse (:meth:`~repro.formats.parquet.ColumnarFile.read_encoded_chunk`:
crc, inflate, length check) happen in turn; at the end of the run each
projected column is gathered once for the whole run
(:func:`~repro.formats.encoding.gather_run`).  :meth:`S3ScanOperator.scan_fused`
yields one batch per run; :meth:`S3ScanOperator.scan` hands its caller each
row group as soon as it is read, so its runs are one row group long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import ObjectStore
from repro.config import (
    DEFAULT_SCAN_CHUNK_BYTES,
    DEFAULT_SCAN_CONNECTIONS,
    LAMBDA_MEMORY_PER_VCPU_MIB,
    VCPU_ROWS_PER_SECOND,
)
from repro.counters import Counts
from repro.engine.s3io import S3ObjectSource, open_sources
from repro.engine.table import Table
from repro.formats.encoding import (
    EncodedChunk,
    evaluate_comparison,
    gather_run,
    gather_run_codes,
)
from repro.formats.parquet import TAIL_BYTES, ColumnarFile, RowGroupMeta
from repro.plan.expressions import CompiledPredicate, Expression, compile_predicate, evaluate
from repro.plan.physical import PruneRange


#: Rows of one run: consecutive surviving row groups of one file whose columns
#: are gathered once (32 row groups of 2048 rows).
RUN_ROWS = 1 << 16

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
    """One run's worth of filtered rows, keys kept in code space.

    Produced by :meth:`S3ScanOperator.scan_fused` for the fused
    scan→filter→partial-agg pipeline, one batch per run of row groups:
    aggregate-input columns are gathered into ``values`` exactly as the
    classic path would, but group-key columns stay as ``(sorted uniques,
    per-row codes)`` pairs when their encoding already provides codes
    (dictionary/RLE chunks), so the group-by kernel never materialises the
    key arrays.  Keys whose codes could not be derived (plain chunks) are
    materialised into ``key_values`` instead.  ``group_rows`` holds how many
    of the rows each row group of the run contributed, in order (``None``: all
    rows are one row group's).
    """

    num_rows: int
    values: Table
    key_codes: Dict[str, tuple]
    key_values: Table
    group_rows: Optional[Sequence[int]] = None

    def materialize_key(self, name: str) -> np.ndarray:
        """The key column as a value array (identical to the classic gather)."""
        if name in self.key_values:
            return self.key_values[name]
        uniques, codes = self.key_codes[name]
        if len(uniques) == 0:
            return np.zeros(0, dtype=uniques.dtype)
        return uniques[codes]


@dataclass
class _StagedGroup:
    """One row group of a run whose chunks are parsed but whose gather waits for the run."""

    group: RowGroupMeta
    #: Parsed chunks of every column not in ``decoded``.
    encoded: Dict[str, EncodedChunk]
    #: Residual columns, fully decoded.
    decoded: Dict[str, np.ndarray]
    #: Surviving row indices, ``None`` for "all rows".
    selection: Optional[np.ndarray]
    #: How many rows survive.
    selected: int


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
        #: GETs and bytes of every file, as ``("scan", ...)`` counts.
        self.counts = Counts()
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
        thread on large workers can halve it (paper §4.3.2).  This is the
        modelled worker's ``threads``: the executing process inflates on
        one thread and gathers a run's row groups at once, and neither
        changes this charge, which stays per row group.
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
        for source in self._open_files():
            yield from self._scan_file(source)

    def scan_fused(self, group_keys: Sequence[str]) -> Iterator[FusedBatch]:
        """Yield filtered :class:`FusedBatch` batches (one per run of row groups).

        Single-pass scan→filter for the fused aggregation pipeline: the
        pushed-down predicate's selection vector feeds the column gathers
        directly and group-key columns are kept in code space.  Download,
        decode-charge, and short-circuit accounting are identical to
        :meth:`scan` with the same predicate.
        """
        group_keys = frozenset(group_keys)
        for source in self._open_files():
            yield from self._scan_file(source, fused_keys=group_keys)

    def _open_files(self) -> List[S3ObjectSource]:
        """Open every file of the scan in one pipelined batch of suffix GETs.

        Each file's open is the very request :class:`ColumnarFile` would
        issue, so the readers built afterwards find their tails in hand; the
        batch costs ⌈files / connections⌉ round trips instead of one per file.
        """
        sources = [
            S3ObjectSource(
                self.store,
                path,
                chunk_bytes=self.config.chunk_bytes,
                connections=self.config.connections,
                memory_mib=self.config.memory_mib,
                bandwidth=self.bandwidth,
                counts=self.counts,
            )
            for path in self.files
        ]
        open_sources(sources, TAIL_BYTES)
        return sources

    def _scan_file(
        self, source: S3ObjectSource, fused_keys: Optional[frozenset] = None
    ) -> Iterator:
        """Scan one file run by run: yields tables (:meth:`scan`) or batches
        (:meth:`scan_fused` with ``fused_keys``)."""
        reader = ColumnarFile(source)
        self.counters.files_scanned += 1
        # Everything read so far (this file's share of the batched open, and
        # a footer longer than its tail) is metadata.
        self.counters.metadata_seconds += source.transfer_seconds
        metadata_transfer = source.transfer_seconds

        columns = self.columns or reader.schema.names
        baseline = (
            fused_keys is None
            and self._compiled is not None
            and not self.config.late_materialization
        )
        # Min/max pruning of every row group at once, before any data is fetched.
        survives = reader.metadata.surviving_groups(
            (prange.column, prange.lower, prange.upper) for prange in self.prune_ranges
        )
        # scan() hands its caller each row group as soon as it is read, so
        # its runs are one row group long.
        run_limit = RUN_ROWS if fused_keys is not None else 0
        run: List[_StagedGroup] = []
        run_rows = 0
        for group, alive in zip(reader.row_groups, survives.tolist()):
            if group.num_rows == 0:
                continue
            self.counters.row_groups_total += 1
            if not alive:
                self.counters.row_groups_pruned += 1
                continue
            self.counters.rows_scanned += group.num_rows
            if baseline:
                chunk = self._scan_group_baseline(reader, group, columns)
                if chunk is not None:
                    yield chunk
                continue
            if run and run_rows + group.num_rows > run_limit:
                yield self._decode_run(run, columns, fused_keys)
                run, run_rows = [], 0
            staged = self._stage_group(reader, group, columns)
            if staged is not None:
                run.append(staged)
                run_rows += group.num_rows
        if run:
            yield self._decode_run(run, columns, fused_keys)

        # Attribute the remaining transfer time of this file to data download.
        self.counters.download_seconds += source.transfer_seconds - metadata_transfer

    # -- runs ----------------------------------------------------------------------

    def _stage_group(
        self, reader: ColumnarFile, group: RowGroupMeta, columns: Sequence[str]
    ) -> Optional[_StagedGroup]:
        """Do one row group's I/O, parse its chunks and charge its decode; its
        gather waits for the run.

        Batch 1 and the selection vector come from :meth:`_select_rows`; the
        chunks of batch 2 are parsed before the next group's prefetch replaces
        the source's spans.  ``None`` when no row survives.
        """
        num_rows = group.num_rows
        selected_rows = self._select_rows(reader, group, columns)
        if selected_rows is None:
            return None
        encoded, decoded, selection = selected_rows
        selected = num_rows if selection is None else len(selection)
        gathered = [name for name in columns if name not in encoded]
        if selection is not None:
            self.counters.rows_decode_saved += (num_rows - selected) * sum(
                1 for name in columns if name not in decoded
            )
        self._charge_decode(group, list(encoded), gathered, selected)
        for name in gathered:
            encoded[name] = reader.read_encoded_chunk(group, name)
        return _StagedGroup(group, encoded, decoded, selection, selected)

    def _decode_run(
        self, run: Sequence[_StagedGroup], columns: Sequence[str], fused_keys: Optional[frozenset]
    ):
        """Gather each column of a run's parsed row groups once for the whole run.

        Returns the run's :class:`FusedBatch` (``fused_keys`` given) or, for
        :meth:`scan`, whose runs are one row group, that group's table.
        """
        selection = run[0].selection
        if len(run) > 1 and any(item.selection is not None for item in run):
            offsets = np.cumsum([0] + [item.group.num_rows for item in run]).tolist()
            selection = np.concatenate([
                np.arange(offset, offset + item.group.num_rows)
                if item.selection is None else item.selection + offset
                for item, offset in zip(run, offsets)
            ])
        values: Table = {}
        key_codes: Dict[str, tuple] = {}
        key_values: Table = {}
        for name in columns:
            is_key = fused_keys is not None and name in fused_keys
            if name in run[0].decoded:
                # Already fully decoded for the residual — sliced, not saved.
                column = (
                    run[0].decoded[name] if len(run) == 1
                    else np.concatenate([item.decoded[name] for item in run])
                )
                column = column if selection is None else column[selection]
            else:
                chunks = [item.encoded[name] for item in run]
                if is_key:
                    derived = gather_run_codes(chunks, selection)
                    if derived is not None:
                        key_codes[name] = derived
                        continue
                column = gather_run(chunks, selection)
            (key_values if is_key else values)[name] = column
        if fused_keys is None:
            return values
        return FusedBatch(
            num_rows=sum(item.selected for item in run), values=values,
            key_codes=key_codes, key_values=key_values,
            group_rows=[item.selected for item in run],
        )

    # -- predicate push-down -------------------------------------------------------

    def _scan_group_baseline(
        self, reader: ColumnarFile, group: RowGroupMeta, columns: Sequence[str]
    ) -> Optional[Table]:
        """One surviving row group through the full-decode baseline.

        Without late materialization every needed column is decoded, the
        whole predicate evaluated on the decoded arrays and the chunk
        mask-copied.  Returns ``None`` when no row survives.
        """
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

    def _select_rows(
        self, reader: ColumnarFile, group: RowGroupMeta, columns: Sequence[str]
    ) -> Optional[Tuple[Dict[str, EncodedChunk], Dict[str, np.ndarray], Optional[np.ndarray]]]:
        """Fetch one row group in (at most) two batches around its selection vector.

        Batch 1 is the pushed-down predicate's columns; the selection vector
        is evaluated on them, and a fully-rejected group returns ``None``
        before batch 2 — the rest of ``columns`` — is ever requested.
        Returns the chunks parsed and decoded so far (the predicate's) and
        the surviving row indices (``None`` for "all rows").
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
        return encoded, decoded, selection

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
