"""Central statistics catalog (the §5.3 "future work" optimisation).

The paper observes that for selective queries such as TPC-H Q6, ~80 % of the
workers only read their file's footer, find that every row group is pruned by
the min/max statistics, and return an empty result — and notes that *"if the
min/max indices were stored in a central place and available before starting
the workers, these workers would not even be started."*

:class:`StatisticsCatalog` implements exactly that: per-file, per-column
min/max statistics are collected once (at data-registration time, itself a
serverless operation against the object store) and stored in the DynamoDB-like
key-value store.  At query time the driver consults the catalog with the
optimizer's prune ranges and only invokes workers for files that can contain
matching rows.  The ablation benchmark ``bench_catalog_pruning.py`` quantifies
the effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cloud.dynamodb import KeyValueStore
from repro.cloud.s3 import ObjectStore
from repro.engine.s3io import S3ObjectSource
from repro.errors import PlanError
from repro.formats.parquet import ColumnarFile
from repro.plan.physical import PruneRange

#: Default key-value table holding the catalog.
CATALOG_TABLE = "lambada-statistics"


@dataclass(frozen=True)
class FileStatistics:
    """Per-file min/max statistics of every column."""

    path: str
    num_rows: int
    column_ranges: Dict[str, tuple]  # column -> (min, max)

    def may_match(self, prune_ranges: Sequence[PruneRange]) -> bool:
        """Whether the file can contain rows satisfying all prune ranges."""
        for prange in prune_ranges:
            bounds = self.column_ranges.get(prange.column)
            if bounds is None:
                continue
            low, high = bounds
            if high < prange.lower or low > prange.upper:
                return False
        return True

    def to_item(self) -> Dict:
        """JSON-compatible representation stored in the key-value store."""
        return {
            "path": self.path,
            "num_rows": self.num_rows,
            "columns": {name: [low, high] for name, (low, high) in self.column_ranges.items()},
        }

    @classmethod
    def from_item(cls, item: Dict) -> "FileStatistics":
        """Inverse of :meth:`to_item`."""
        return cls(
            path=item["path"],
            num_rows=int(item["num_rows"]),
            column_ranges={
                name: (float(low), float(high))
                for name, (low, high) in item["columns"].items()
            },
        )


class StatisticsCatalog:
    """Stores and queries per-file min/max statistics in the key-value store."""

    def __init__(self, kv: KeyValueStore, table: str = CATALOG_TABLE):
        self.kv = kv
        self.table = table
        self.kv.create_table(table)

    # -- registration -------------------------------------------------------------

    def register_file(self, store: ObjectStore, dataset: str, path: str) -> FileStatistics:
        """Read one file's footer and record its statistics."""
        source = S3ObjectSource(store, path)
        reader = ColumnarFile(source)
        statistics = FileStatistics(
            path=path, num_rows=reader.num_rows,
            column_ranges=reader.metadata.column_ranges(),
        )
        self.kv.put_item(self.table, self._key(dataset, path), statistics.to_item())
        return statistics

    def register_dataset(
        self, store: ObjectStore, dataset: str, paths: Iterable[str]
    ) -> List[FileStatistics]:
        """Register every file of a dataset (one footer read per file)."""
        registered = [self.register_file(store, dataset, path) for path in paths]
        self.kv.put_item(
            self.table,
            self._dataset_key(dataset),
            {"paths": [stats.path for stats in registered]},
        )
        return registered

    # -- lookup ----------------------------------------------------------------------

    def dataset_paths(self, dataset: str) -> List[str]:
        """All registered file paths of a dataset."""
        item = self.kv.get_item(self.table, self._dataset_key(dataset))
        if item is None:
            raise PlanError(f"dataset {dataset!r} is not registered in the catalog")
        return list(item["paths"])

    def file_statistics(self, dataset: str, path: str) -> Optional[FileStatistics]:
        """Statistics of one file, or ``None`` if it was never registered."""
        item = self.kv.get_item(self.table, self._key(dataset, path))
        return FileStatistics.from_item(item) if item is not None else None

    def files_matching(
        self, dataset: str, prune_ranges: Sequence[PruneRange]
    ) -> List[str]:
        """Paths of the dataset's files that may contain matching rows.

        Files without statistics are conservatively kept.
        """
        matching: List[str] = []
        for path in self.dataset_paths(dataset):
            statistics = self.file_statistics(dataset, path)
            if statistics is None or statistics.may_match(prune_ranges):
                matching.append(path)
        return matching

    def prune_paths(
        self, paths: Sequence[str], dataset: str, prune_ranges: Sequence[PruneRange]
    ) -> List[str]:
        """Filter an explicit path list through the catalog (unknown files kept)."""
        if not prune_ranges:
            return list(paths)
        kept: List[str] = []
        for path in paths:
            statistics = self.file_statistics(dataset, path)
            if statistics is None or statistics.may_match(prune_ranges):
                kept.append(path)
        return kept

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _key(dataset: str, path: str) -> str:
        return f"{dataset}::{path}"

    @staticmethod
    def _dataset_key(dataset: str) -> str:
        return f"{dataset}::__files__"
