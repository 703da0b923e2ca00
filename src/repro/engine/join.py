"""Equi-join of two in-memory tables.

Joins are not part of the paper's evaluation, but the exchange operator is
explicitly motivated as the building block for repartitioning joins; this
module provides the in-memory probe/build kernel so that a repartitioned join
can be expressed as ``exchange(left) + exchange(right) + hash_join`` on each
worker (see :mod:`repro.exchange`).

:func:`hash_join` is fully vectorized — no per-row Python on the critical
path — and picks one of three probe strategies from what it observes in the
build (right) side, never from a parameter:

* **position table** — integer keys, unique, spanning at most the dense
  budget (the foreign key -> primary key join every TPC-H query here runs,
  hash-partitioned or not): ``table[key - min]`` holds the build row of each
  key, so one scatter builds it, a read-back proves the keys unique, and one
  gather answers every probe row.  No sort, no binary search, no match runs.
* **count table** — integer keys within the same budget that repeat: the
  build side is stable-argsorted and two tables indexed by ``key - min``
  (run start, run length) replace the binary search; match runs are expanded
  into output row indices with ``repeat`` plus vectorized offset arithmetic.
* **sort + binary search** — everything else with a total order (float keys,
  spans over the budget): stable argsort, two ``searchsorted`` calls per
  probe key, the same run expansion.

All strategies emit the same pairs in the same order: by probe row, then by
build row.  A join has one key column a side (a DAG joins on one key per
stage), and LPQ columns are INT32, INT64 or FLOAT64, so every key has a
numeric dtype.

The seed's dict build/probe kernel lives on as the reference of the parity
tests and the hot-path benchmark, in ``benchmarks/_baselines.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.engine.table import Table, key_slots, table_num_rows
from repro.errors import ExecutionError, UnknownColumnError

def _valid_mask(array: np.ndarray) -> np.ndarray:
    """True where the key is joinable (NaN keys never match, as in SQL)."""
    if array.dtype.kind == "f":
        return ~np.isnan(array)
    return np.ones(len(array), dtype=bool)


def _float_to_int_domain(
    array: np.ndarray, valid: np.ndarray, domain: np.dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """Exactly convert float keys into an integer key domain.

    A float equals an integer iff it is integral and representable in the
    integer's dtype; such values convert losslessly, everything else is
    flagged unmatchable.
    """
    info = np.iinfo(domain)
    # The float bounds are exact: 2^63 and 2^64 are representable, so the
    # strict upper comparison admits every integral float below the limit.
    integral = (
        valid
        & np.isfinite(array)
        & (array == np.floor(array))
        & (array >= float(info.min))
        & (array <= float(info.max))
        & (array < 2.0 ** (64 if domain == np.uint64 else 63))
    )
    converted = np.zeros(len(array), dtype=domain)
    converted[integral] = array[integral].astype(domain)
    return converted, integral


def _align_key_pair(
    larr: np.ndarray, rarr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Common exact representation of one key-column pair, plus validity.

    Returns ``(left_keys, right_keys, left_valid, right_valid)`` with both
    key arrays in one dtype under which ``==`` matches a Python-level
    comparison of the values.  Same-kind pairs just promote; pairs NumPy
    would promote to float64 must NOT (it collapses integers above 2^53 onto
    each other).  Of a mixed integer/float pair the float side converts
    exactly into the integer side's domain, with non-integral or
    out-of-range floats flagged unmatchable; uint64 against a signed type
    compares in uint64, with negative keys flagged unmatchable.
    """
    lvalid = _valid_mask(larr)
    rvalid = _valid_mask(rarr)
    int_kinds = "iub"
    mixed = (larr.dtype.kind in int_kinds) != (rarr.dtype.kind in int_kinds)
    if mixed and {larr.dtype.kind, rarr.dtype.kind} <= set(int_kinds + "f"):
        int_side = larr if larr.dtype.kind in int_kinds else rarr
        domain = np.dtype(np.uint64 if int_side.dtype.kind == "u" else np.int64)
        if larr.dtype.kind == "f":
            lcodes, lvalid = _float_to_int_domain(larr, lvalid, domain)
            return lcodes, rarr.astype(domain, copy=False), lvalid, rvalid
        rcodes, rvalid = _float_to_int_domain(rarr, rvalid, domain)
        return larr.astype(domain, copy=False), rcodes, lvalid, rvalid
    common = np.result_type(larr.dtype, rarr.dtype)
    if common.kind == "f" and {larr.dtype.kind, rarr.dtype.kind} == {"u", "i"}:
        common = np.dtype(np.uint64)
        if larr.dtype.kind == "i":
            lvalid = larr >= 0
        else:
            rvalid = rarr >= 0
    return (
        larr.astype(common, copy=False),
        rarr.astype(common, copy=False),
        lvalid,
        rvalid,
    )


#: Budget of the dense lookup tables (position table and count table alike):
#: a build side whose integer keys span at most ``_DENSE_SPAN_PER_ROW`` table
#: entries per input row (both sides counted), and never more than
#: ``_DENSE_MAX_ENTRIES`` entries — 64 MiB of int32 per table — is indexed by
#: ``key - min``; a wider one is sorted and binary-searched.  32 per row is
#: the widest span at which neither table lost to sorting at any measured
#: build size, 10^3 to 10^6 rows: the count table breaks even there at 10^3
#: rows, the position table still wins 7-16x (table in CHANGES.md, PR 20).
#: The cap bounds memory only; the tables kept winning far beyond it.
_DENSE_SPAN_PER_ROW = 32
_DENSE_MAX_ENTRIES = 1 << 24


def _probe_positions(
    probe_slots: np.ndarray, build_slots: np.ndarray, span: int
) -> Optional[Tuple[Optional[np.ndarray], np.ndarray]]:
    """Probe a unique-key build side through a key -> row position table.

    ``table[key - min]`` holds the build row of that key (-1: no such key);
    one scatter fills it and one gather answers every probe row, with no
    sort, binary search or run expansion.  Returns ``None`` when the build
    keys are not unique — the read-back after the scatter shows a row whose
    slot a later duplicate overwrote — else the match pairs, with the left
    index ``None`` when every probe row matched (it would be ``arange``).
    """
    if len(build_slots) > span:
        return None  # more rows than slots: some key repeats
    # At most span <= _DENSE_MAX_ENTRIES < 2^31 rows, so int32 positions do.
    rows = np.arange(len(build_slots), dtype=np.int32)
    table = np.full(span, -1, dtype=np.int32)
    table[build_slots] = rows
    if not (table[build_slots] == rows).all():
        return None
    # Out-of-range probes are clipped onto an edge slot, then masked.
    position = table.take(probe_slots, mode="clip")
    hit = position >= 0
    hit &= probe_slots.view(np.uint64) < span
    left_idx = np.flatnonzero(hit)
    # Widened once here: every column gather would otherwise cast the int32
    # positions again.
    if len(left_idx) == len(probe_slots):
        return None, position.astype(np.intp)
    return left_idx, position[left_idx].astype(np.intp)


def _dense_probe_bounds(
    probe_slots: np.ndarray, sorted_slots: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Match-run starts/counts of duplicate build keys via a dense count table.

    Two arrays indexed by ``key - min`` — rows per key and where each key's
    run starts in the sorted build side, both scattered from the run
    boundaries of ``sorted_slots`` — are looked up with one gather per probe
    array instead of a binary search per probe row (which is cache-hostile
    and ~3x slower at 1M rows).
    """
    num_build = len(sorted_slots)
    first_of_run = np.empty(num_build, dtype=bool)
    first_of_run[0] = True
    np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=first_of_run[1:])
    run_starts = np.flatnonzero(first_of_run)
    run_slots = sorted_slots[run_starts]
    width = np.int32 if num_build < 2 ** 31 else np.int64
    start_of_key = np.zeros(span, dtype=width)
    rows_per_key = np.zeros(span, dtype=width)
    start_of_key[run_slots] = run_starts
    rows_per_key[run_slots] = np.diff(run_starts, append=num_build)
    in_table = probe_slots.view(np.uint64) < span
    starts = start_of_key.take(probe_slots, mode="clip")
    counts = rows_per_key.take(probe_slots, mode="clip") * in_table
    return starts, counts


def _probe(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Row-index pairs of every match, ordered by probe row, then build row.

    Returns ``(left_idx, right_idx)``; ``left_idx`` is ``None`` when it would
    be ``arange(len(left_codes))`` (every probe row matched exactly once).
    The strategy follows from the build side alone: integer keys within the
    dense budget are probed through the position table when they are unique
    (:func:`_probe_positions`) and through the count table when they repeat
    (:func:`_dense_probe_bounds`); everything else — float keys, spans over
    budget — is stable-argsorted and binary-searched.  Repeating keys expand
    their match runs with ``repeat`` + offset arithmetic.
    """
    num_left, num_right = len(left_codes), len(right_codes)
    dense_span = 0
    if right_codes.dtype.kind in "iu" and num_right:
        key_min, key_max = int(right_codes.min()), int(right_codes.max())
        span = key_max - key_min + 1
        if span <= min(
            _DENSE_MAX_ENTRIES, _DENSE_SPAN_PER_ROW * (num_left + num_right)
        ):
            dense_span = span
            probe_slots = key_slots(left_codes, key_min)
            build_slots = key_slots(right_codes, key_min)
            pairs = _probe_positions(probe_slots, build_slots, span)
            if pairs is not None:
                return pairs
    order = np.argsort(right_codes, kind="stable")
    if dense_span:
        starts, counts = _dense_probe_bounds(
            probe_slots, build_slots[order], dense_span
        )
    else:
        sorted_codes = right_codes[order]
        starts = np.searchsorted(sorted_codes, left_codes, side="left")
        counts = np.searchsorted(sorted_codes, left_codes, side="right") - starts
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(num_left, dtype=np.int64), counts)
    # Position of each output row within its match run, computed without a
    # per-run loop: subtract every run's cumulative start from a global arange.
    run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within_run = np.arange(total, dtype=np.int64) - run_offsets
    right_idx = order[np.repeat(starts, counts) + within_run]
    return left_idx, right_idx


def hash_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    suffix: str = "_right",
    columns: Optional[Iterable[str]] = None,
) -> Table:
    """Inner equi-join of two tables on one key column a side.

    The right side is used as the build side.  Columns of the right table
    whose names collide with left columns are renamed with ``suffix``; the
    right key column is dropped (it equals the left key in the output).
    ``columns`` names the output columns to materialize (default: all of
    them); the rest are never gathered.  When every left row matches exactly
    once, the left columns of the result are the input arrays themselves,
    not copies.
    """
    if left_key not in left:
        raise UnknownColumnError(left_key)
    if right_key not in right:
        raise UnknownColumnError(right_key)

    if table_num_rows(left) == 0 or table_num_rows(right) == 0:
        left_idx = right_idx = slice(0)
    else:
        # Compare raw values in one aligned dtype, no code construction.
        left_codes, right_codes, left_valid, right_valid = _align_key_pair(
            np.asarray(left[left_key]), np.asarray(right[right_key])
        )
        if left_valid.all() and right_valid.all():
            left_idx, right_idx = _probe(left_codes, right_codes)
        else:
            # Unmatchable keys (NaN, say) never match: probe the valid
            # subsets and map the pair indices back to original row numbers
            # (both maps are ascending, so the output order is preserved).
            left_map = np.flatnonzero(left_valid)
            right_map = np.flatnonzero(right_valid)
            sub_left, sub_right = _probe(left_codes[left_map], right_codes[right_map])
            left_idx = left_map if sub_left is None else left_map[sub_left]
            right_idx = right_map[sub_right]
    return _output_table(left, right, right_key, suffix, columns, left_idx, right_idx)


def _output_table(
    left: Table,
    right: Table,
    right_key: str,
    suffix: str,
    columns: Optional[Iterable[str]],
    left_idx: Union[np.ndarray, slice, None],
    right_idx: Union[np.ndarray, slice],
) -> Table:
    """Gather the matched rows into the join result, one pass per column.

    Left columns first, then the right side's non-key columns (renamed with
    ``suffix`` where they collide with a left name), of which only those in
    ``columns`` (default: all) are gathered.  A ``left_idx`` of ``None``
    stands for every left row in order: the left columns pass through as
    they are.
    """
    wanted = None if columns is None else set(columns)
    names = set(left)
    result: Table = {}
    for name, column in left.items():
        if wanted is None or name in wanted:
            column = np.asarray(column)
            result[name] = column if left_idx is None else column[left_idx]
    for name, column in right.items():
        if name == right_key:
            continue
        out_name = name if name not in left else name + suffix
        if out_name in names:
            raise ExecutionError(f"column name collision on {out_name!r}")
        names.add(out_name)
        if wanted is None or out_name in wanted:
            result[out_name] = np.asarray(column)[right_idx]
    if wanted is not None and not wanted <= names:
        raise UnknownColumnError(", ".join(sorted(wanted - names)))
    return result

