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
* the same statistics decide pages away inside a surviving row group (one
  vectorised pass per file, :meth:`S3ScanOperator._page_plans`, kept with the
  file's shared footer for the next scan of that predicate): a
  comparison they prove for every row of the group is not evaluated and its
  column not read, and an output column whose group holds one value comes
  out as that constant (a group key as one-entry codes) without a read;
* only the output columns' chunks are downloaded — a scan's ``columns`` are
  its outputs, it reads its predicate's columns itself and neither gathers
  nor yields them — as a **read plan** per
  row group: the chunks' ranges go to the source in one batch, which merges
  neighbours whose gap streams in less than a round trip, splits at the
  chunk size, and pipelines the resulting GETs over the concurrent
  connections ("level 2" concurrency) as one modelled transfer
  (:meth:`~repro.engine.s3io.S3ObjectSource.prefetch`, which copies nothing
  and returns at once when the open tail already holds every chunk);
* the summed download time is modelled as overlapped with decompression of
  the previous row group ("level 3" concurrency).

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
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    constant_chunk,
    evaluate_comparison,
    gather_run,
    gather_run_codes,
)
from repro.formats.parquet import TAIL_BYTES, ColumnarFile, FileMetadata, RowGroupMeta
from repro.plan.expressions import (
    ColumnComparison,
    CompiledPredicate,
    Expression,
    compile_predicate,
    evaluate,
)
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

    def modelled_scan_seconds(self) -> float:
        """Total modelled scan time, download overlapped with decode."""
        return self.metadata_seconds + max(self.download_seconds, self.decode_seconds)


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


class _PagePlan(NamedTuple):
    """Which pages of a row group the scan reads, as the file's min/max
    statistics decide it (:meth:`S3ScanOperator._page_plans`)."""

    #: The comparisons the statistics do not prove for every row.
    comparisons: Tuple[ColumnComparison, ...]
    #: Batch 1 of the row group: their columns and the residual's.
    predicate_columns: Tuple[str, ...]
    #: Output columns whose every row is the group's minimum: never read.
    constants: FrozenSet[str]


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
        self._compiled: Optional[CompiledPredicate] = None
        #: Batch 1 of a row group: the predicate's and its residual's columns.
        self._predicate_columns: Set[str] = set()
        #: The residual's columns, decoded in name order.
        self._residual_columns: List[str] = []
        if predicate is not None:
            compiled = self._compiled = compile_predicate(predicate)
            self._predicate_columns = compiled.comparison_columns | compiled.residual_columns
            self._residual_columns = sorted(compiled.residual_columns)
        self._rows_per_second = self._decode_rows_per_second()
        #: The plan of a row group the statistics decide nothing about.
        self._every_page = _PagePlan(
            self._compiled.comparisons if self._compiled is not None else (),
            tuple(sorted(self._predicate_columns)),
            frozenset(),
        )
        #: Everything but the file and the outputs that :meth:`_decide`
        #: depends on.  A literal's type is part of it: ``2**53 == 2.0**53``,
        #: yet only the float decides anything (``_exact_number``).
        self._decision_key = (
            tuple(
                (prange.column, type(prange.lower), prange.lower,
                 type(prange.upper), prange.upper)
                for prange in self.prune_ranges
            ),
            tuple(
                (comparison.column, comparison.op, type(comparison.value), comparison.value)
                for comparison in self._every_page.comparisons
            ),
            tuple(self._residual_columns),
        )

    @property
    def applies_predicate(self) -> bool:
        """Whether yielded chunks are already filtered by the pushed predicate."""
        return self.predicate is not None

    # -- decoding cost model --------------------------------------------------------

    def _decode_rows_per_second(self) -> float:
        """Rows per modelled second the worker decompresses and decodes.

        Heavy-weight compression (GZIP) is decompression-bound; a second
        thread on large workers can halve it (paper §4.3.2).  This is the
        modelled worker's ``threads``: the executing process inflates on
        one thread and gathers a run's row groups at once, and neither
        changes the charge (:meth:`_decode_seconds`), which stays per row
        group.
        """
        cpu_share = self.config.memory_mib / LAMBDA_MEMORY_PER_VCPU_MIB
        single_thread = min(cpu_share, 1.0)
        if self.config.threads > 1 and cpu_share > 1.0:
            usable = min(cpu_share, float(self.config.threads))
        else:
            usable = single_thread
        return VCPU_ROWS_PER_SECOND * max(usable, 1e-9)

    def _decode_seconds(self, rows: float, heavyweight: bool) -> float:
        """Modelled CPU seconds to decompress and decode ``rows`` rows (a
        light-weight codec decodes in 0.4 of the heavy-weight time)."""
        return rows / self._rows_per_second * (1.0 if heavyweight else 0.4)

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
        # The decode charge is normalised by every column a row group reads.
        read_count = len(set(columns) | self._predicate_columns)
        # Min/max pruning of every row group and the page plans, before any
        # data is fetched: decided once per footer, predicate and outputs.
        survives, plans = reader.metadata.decision(
            (self._decision_key, tuple(columns)),
            lambda metadata: self._decide(metadata, columns),
        )
        # scan() hands its caller each row group as soon as it is read, so
        # its runs are one row group long.
        run_limit = RUN_ROWS if fused_keys is not None else 0
        run: List[_StagedGroup] = []
        run_rows = 0
        for group, alive, plan in zip(reader.row_groups, survives, plans):
            if group.num_rows == 0:
                continue
            self.counters.row_groups_total += 1
            if not alive:
                self.counters.row_groups_pruned += 1
                continue
            self.counters.rows_scanned += group.num_rows
            if run and run_rows + group.num_rows > run_limit:
                yield self._decode_run(run, columns, fused_keys)
                run, run_rows = [], 0
            staged = self._stage_group(reader, group, columns, plan, read_count)
            if staged is not None:
                run.append(staged)
                run_rows += group.num_rows
        if run:
            yield self._decode_run(run, columns, fused_keys)

        # Attribute the remaining transfer time of this file to data download.
        self.counters.download_seconds += source.transfer_seconds - metadata_transfer

    # -- runs ----------------------------------------------------------------------

    def _decide(
        self, metadata: FileMetadata, columns: Sequence[str]
    ) -> Tuple[Tuple[bool, ...], Tuple[_PagePlan, ...]]:
        """What a file's min/max statistics decide for this scan: whether
        each row group survives the prune ranges, and its :class:`_PagePlan`.

        Depends on the footer and on :attr:`_decision_key` and ``columns``
        alone, so :meth:`FileMetadata.decision` keeps it for the next scan.
        """
        survives = metadata.surviving_groups(
            (prange.column, prange.lower, prange.upper) for prange in self.prune_ranges
        )
        return tuple(survives.tolist()), tuple(self._page_plans(metadata, columns))

    def _page_plans(self, metadata: FileMetadata, columns: Sequence[str]) -> List[_PagePlan]:
        """Each row group's :class:`_PagePlan`, from one vectorised pass over
        the file's min/max statistics; groups the statistics decide alike
        share one plan."""
        comparisons = self._every_page.comparisons
        proven = metadata.proven_comparisons(comparisons)
        constant = metadata.constant_groups(columns)
        if not (proven.any() or constant.any()):
            return [self._every_page] * len(metadata.row_groups)
        patterns = list(map(tuple, np.concatenate([proven, constant], axis=1).tolist()))
        plans = {}
        for pattern in set(patterns):
            pending = tuple(
                comparison for comparison, decided in zip(comparisons, pattern) if not decided
            )
            plans[pattern] = _PagePlan(
                pending,
                tuple(sorted({comparison.column for comparison in pending}
                             | set(self._residual_columns))),
                frozenset(
                    name for name, decided in zip(columns, pattern[len(comparisons):])
                    if decided
                ),
            )
        return [plans[pattern] for pattern in patterns]

    def _stage_group(
        self,
        reader: ColumnarFile,
        group: RowGroupMeta,
        columns: Sequence[str],
        plan: _PagePlan,
        read_count: int,
    ) -> Optional[_StagedGroup]:
        """Do one row group's I/O, parse its chunks and charge its decode; its
        gather waits for the run.

        Batch 1 and the selection vector come from :meth:`_select_rows`; the
        chunks of batch 2 are parsed before the next group's prefetch replaces
        the source's spans, and the plan's constants are built from the
        statistics.  ``None`` when no row survives.
        """
        num_rows = group.num_rows
        selected_rows = self._select_rows(reader, group, columns, plan, read_count)
        if selected_rows is None:
            return None
        encoded, decoded, selection = selected_rows
        selected = num_rows if selection is None else len(selection)
        gathered = [
            name for name in columns if name not in encoded and name not in plan.constants
        ]
        if selection is not None:
            self.counters.rows_decode_saved += (num_rows - selected) * sum(
                1 for name in columns if name not in decoded
            )
        self._charge_decode(group, read_count, list(encoded), gathered, selected)
        for name in gathered:
            encoded[name] = reader.read_encoded_chunk(group, name)
        for name in plan.constants:
            if name not in encoded:
                meta = group.column_meta(name)
                encoded[name] = constant_chunk(meta.type, meta.min_value, meta.num_values)
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

    def _select_rows(
        self,
        reader: ColumnarFile,
        group: RowGroupMeta,
        columns: Sequence[str],
        plan: _PagePlan,
        read_count: int,
    ) -> Optional[Tuple[Dict[str, EncodedChunk], Dict[str, np.ndarray], Optional[np.ndarray]]]:
        """Fetch one row group in (at most) two batches around its selection vector.

        Batch 1 is the columns of the plan's unproven comparisons and of the
        residual; the selection vector is evaluated on them, and a
        fully-rejected group returns ``None`` before batch 2 — the rest of
        ``columns`` but the plan's constants — is ever requested.  Either
        batch is skipped when it has no column.  Returns the chunks parsed
        and decoded so far (the predicate's) and the surviving row indices
        (``None`` for "all rows").
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
            if plan.predicate_columns:
                reader.prefetch(group, plan.predicate_columns)
            mask = self._group_selection(load, decoded, num_rows, plan.comparisons)
            if mask is not None and not mask.any():
                self.counters.column_chunks_skipped += sum(
                    1 for name in columns if name not in encoded
                )
                self.counters.rows_decode_saved += num_rows * sum(
                    1 for name in columns if name not in decoded
                )
                self.counters.row_groups_shortcircuit_empty += 1
                self._charge_decode(group, read_count, list(encoded), (), 0)
                return None
            if mask is None or mask.all():
                mask = None
                self.counters.row_groups_shortcircuit_full += 1
        selection = None if mask is None else np.flatnonzero(mask)
        rest = [name for name in columns if name not in encoded and name not in plan.constants]
        if rest:
            reader.prefetch(group, rest)
        return encoded, decoded, selection

    def _group_selection(
        self, load, decoded, num_rows: int, comparisons: Sequence[ColumnComparison]
    ) -> Optional[np.ndarray]:
        """Evaluate the compiled predicate on encoded chunks for one row group.

        Selection vector step shared by the filtered and fused scan paths:
        the encoding-aware ``comparisons`` the statistics left open first
        (cheapest-to-reject ordering is the plan's conjunct order,
        short-circuiting as soon as the mask empties), then the decoded
        residual.  Returns the boolean row mask, or ``None`` when nothing
        constrains the group's rows.
        """
        compiled = self._compiled
        mask: Optional[np.ndarray] = None
        for comparison in comparisons:
            comparison_mask = evaluate_comparison(
                load(comparison.column), comparison.op, comparison.value
            )
            mask = comparison_mask if mask is None else mask & comparison_mask
            if not mask.any():
                break

        if mask is None or mask.any():
            if compiled.residual is not None:
                for name in self._residual_columns:
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
        read_count: int,
        full_columns: Sequence[str],
        gathered_columns: Sequence[str],
        gathered_rows: int,
    ) -> None:
        """Charge modelled decode time for the columns actually touched.

        Predicate columns and decoded residual columns pay full-chunk decode;
        gathered columns pay only for the surviving rows; a page the
        statistics decided away is never touched and pays nothing.  The
        charge is normalised by ``read_count`` — the outputs and predicate
        columns a row group reads — so an unfiltered scan of the same columns
        costs exactly the legacy ``_decode_seconds(num_rows)``.
        """
        heavyweight = any(
            group.column_meta(name).compression.is_heavyweight
            for names in (full_columns, gathered_columns) for name in names
        )
        charged = group.num_rows * len(full_columns) + gathered_rows * len(gathered_columns)
        self.counters.decode_seconds += self._decode_seconds(
            charged / max(read_count, 1), heavyweight
        )

    # -- summary ------------------------------------------------------------------------

    def modelled_seconds(self) -> float:
        """Total modelled scan time for this worker."""
        return self.counters.modelled_scan_seconds()
