"""Query-driven experiments (Figures 10, 11, and 12).

These experiments separate two concerns, as described in ``DESIGN.md``:

* **Functional scale** — TPC-H Q1/Q6 actually execute end to end on real
  generated data (small scale factors) through the full stack: driver, tree
  invocation, serverless workers, scan with pruning, partial aggregation, SQS
  result collection.  :func:`setup_functional_environment` and
  :func:`run_tpch_query` drive this path; the tests verify the answers against
  the NumPy reference implementations.

* **Paper scale** — the latency/cost numbers of the figures are produced by
  the calibrated performance model applied at the paper's data volumes
  (SF 1000 = 320 files of ~500 MB Parquet, SF 10000 = 3200 files), using the
  pruning fractions and selectivities measured on the functional runs.
  :class:`PaperScaleModel` implements this layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.qaas import AthenaModel, BigQueryModel
from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import cpu_share_for_memory
from repro.cloud.pricing import DEFAULT_PRICES, PriceList
from repro.config import (
    LINEITEM_ROWS_PER_SF,
    LINEITEM_SF1000_FILES,
    LINEITEM_SF1000_PARQUET_BYTES,
    MB,
    MiB,
    S3_REQUEST_LATENCY_SECONDS,
    S3_STEADY_BANDWIDTH_BYTES_PER_S,
    VCPU_ROWS_PER_SECOND,
)
from repro.driver.driver import LambadaDriver, QueryResult
from repro.driver.invocation import CollectionPlan, InvocationModel
from repro.driver.worker import COLD_EXECUTION_PENALTY
from repro.workload.queries import (
    Q1_SHIPDATE_CUTOFF_DAYS,
    Q6_SHIPDATE_LOWER_DAYS,
    Q6_SHIPDATE_UPPER_DAYS,
    q1_plan,
    q6_plan,
)
from repro.workload.tpch import (
    LINEITEM_SCHEMA,
    SHIPDATE_MAX_DAYS,
    SHIPDATE_MIN_DAYS,
    DatasetInfo,
    generate_lineitem_dataset,
)

#: Columns touched by each query (projection push-down result).
QUERY_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "q1": (
        "l_returnflag",
        "l_linestatus",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_shipdate",
    ),
    "q6": ("l_extendedprice", "l_discount", "l_quantity", "l_shipdate"),
}


def column_byte_fraction(columns: Sequence[str]) -> float:
    """Fraction of the LINEITEM byte volume occupied by ``columns``."""
    total = sum(field.type.item_size for field in LINEITEM_SCHEMA)
    selected = sum(LINEITEM_SCHEMA.field(name).type.item_size for name in columns)
    return selected / total


def shipdate_prune_fraction(query: str) -> float:
    """Fraction of a shipdate-sorted dataset's files that min/max pruning skips.

    With the relation sorted by ``l_shipdate`` and files covering contiguous
    date ranges, a file is pruned exactly when its range misses the query's
    shipdate interval.
    """
    span = SHIPDATE_MAX_DAYS - SHIPDATE_MIN_DAYS
    if query == "q1":
        kept = (min(Q1_SHIPDATE_CUTOFF_DAYS, SHIPDATE_MAX_DAYS) - SHIPDATE_MIN_DAYS) / span
    elif query == "q6":
        kept = (Q6_SHIPDATE_UPPER_DAYS - Q6_SHIPDATE_LOWER_DAYS) / span
    else:
        raise ValueError(f"unknown query {query!r}")
    return 1.0 - max(0.0, min(1.0, kept))


# ---------------------------------------------------------------------------
# Functional-scale execution
# ---------------------------------------------------------------------------

def setup_functional_environment(
    scale_factor: float = 0.002,
    num_files: int = 8,
    memory_mib: int = 2048,
    region: str = "eu",
    row_group_rows: int = 1024,
) -> Tuple[CloudEnvironment, DatasetInfo, LambadaDriver]:
    """Create an environment with a generated LINEITEM dataset and a driver."""
    env = CloudEnvironment.create(region=region)
    dataset = generate_lineitem_dataset(
        env.s3,
        scale_factor=scale_factor,
        num_files=num_files,
        row_group_rows=row_group_rows,
    )
    driver = LambadaDriver(env, memory_mib=memory_mib)
    return env, dataset, driver


def run_tpch_query(
    driver: LambadaDriver,
    dataset: DatasetInfo,
    query: str = "q1",
    **execute_kwargs,
) -> QueryResult:
    """Run TPC-H Q1 or Q6 end to end on the serverless stack."""
    if query == "q1":
        plan = q1_plan(dataset.paths)
    elif query == "q6":
        plan = q6_plan(dataset.paths)
    else:
        raise ValueError(f"unknown query {query!r}")
    return driver.execute(plan, **execute_kwargs)


# ---------------------------------------------------------------------------
# Paper-scale model
# ---------------------------------------------------------------------------

@dataclass
class PaperScaleModel:
    """Latency/cost model of a TPC-H query at the paper's data volumes."""

    query: str = "q1"
    scale_factor: int = 1000
    memory_mib: int = 1792
    files_per_worker: int = 1
    cold: bool = False
    region: str = "eu"
    prices: PriceList = field(default_factory=lambda: DEFAULT_PRICES)

    # -- dataset geometry -----------------------------------------------------------

    @property
    def num_files(self) -> int:
        """Number of ~500 MB Parquet files at this scale factor."""
        return int(LINEITEM_SF1000_FILES * self.scale_factor / 1000)

    @property
    def num_workers(self) -> int:
        """Fleet size implied by the files-per-worker setting."""
        return math.ceil(self.num_files / self.files_per_worker)

    @property
    def file_bytes(self) -> float:
        """Compressed size of one Parquet file."""
        return LINEITEM_SF1000_PARQUET_BYTES / LINEITEM_SF1000_FILES

    @property
    def rows_per_file(self) -> float:
        """Rows stored in one file."""
        return LINEITEM_ROWS_PER_SF * 1000 / LINEITEM_SF1000_FILES

    # -- per-worker model ------------------------------------------------------------

    def worker_duration_seconds(self, pruned: bool) -> float:
        """Modelled execution time of one worker.

        ``pruned`` workers read only the footer of their files, find that every
        row group misses the predicate, and return immediately; the others
        download and process the projected columns of all their files.
        """
        metadata_seconds = self.files_per_worker * (2 * S3_REQUEST_LATENCY_SECONDS + 0.05)
        if pruned:
            duration = metadata_seconds + 0.1
        else:
            fraction = column_byte_fraction(QUERY_COLUMNS[self.query])
            download_bytes = self.files_per_worker * self.file_bytes * fraction
            download_seconds = download_bytes / S3_STEADY_BANDWIDTH_BYTES_PER_S
            cpu_share = cpu_share_for_memory(self.memory_mib)
            usable = min(cpu_share, 2.0) if cpu_share > 1.0 else cpu_share
            rows = self.files_per_worker * self.rows_per_file
            compute_seconds = rows / (VCPU_ROWS_PER_SECOND * usable)
            duration = metadata_seconds + max(download_seconds, compute_seconds)
        if self.cold:
            duration *= COLD_EXECUTION_PENALTY
        return duration

    def worker_durations(self) -> np.ndarray:
        """Durations of the whole fleet (pruned and non-pruned workers)."""
        prune_fraction = shipdate_prune_fraction(self.query)
        num_pruned = int(round(self.num_workers * prune_fraction))
        durations = np.empty(self.num_workers)
        durations[:num_pruned] = self.worker_duration_seconds(pruned=True)
        durations[num_pruned:] = self.worker_duration_seconds(pruned=False)
        return durations

    # -- query-level model --------------------------------------------------------------

    #: Slow-down of the slowest worker relative to the typical one (stragglers,
    #: retried requests); the paper observes noticeable tails at fleet scale.
    straggler_multiplier: float = 1.3
    def collection(self, pollers: Optional[int] = None) -> CollectionPlan:
        """How the fleet's results reach the driver: the launch, the workers'
        completion times, and the result-queue drain behind them.

        ``pollers`` fixes the number of polling driver threads (one is the
        sequentially polling driver); by default it is priced.
        """
        launch = InvocationModel(region=self.region).plan(self.num_workers, cold=self.cold)
        # Workers that prune everything finish early regardless of start time;
        # pair the slowest starts with the longest durations for a conservative
        # (straggler-aware) estimate, and slow the very slowest worker down by
        # the straggler multiplier.
        durations = np.sort(self.worker_durations())
        durations[-1] *= self.straggler_multiplier
        completion = np.sort(launch.worker_start_times()) + durations
        return launch.collection(completion, pollers)

    def latency_seconds(self) -> float:
        """Modelled end-to-end query latency."""
        return self.collection().finish

    def cost_dollars(self) -> Dict[str, float]:
        """Dollar cost breakdown of one query execution."""
        durations = self.worker_durations()
        duration_cost = float(
            sum(self.prices.lambda_duration_cost(self.memory_mib, d) for d in durations)
        )
        invocation_cost = self.prices.lambda_invocation_cost(self.num_workers)
        fraction = column_byte_fraction(QUERY_COLUMNS[self.query])
        prune_fraction = shipdate_prune_fraction(self.query)
        # Requests: footer + one request per column chunk read (16 MiB chunks).
        data_requests_per_file = max(
            1, int(self.file_bytes * fraction / (16 * MiB))
        )
        num_scanning = self.num_workers * (1 - prune_fraction)
        get_requests = (
            self.num_files * 2  # footer + tail reads
            + num_scanning * self.files_per_worker * data_requests_per_file
        )
        s3_cost = self.prices.s3_get_cost(int(get_requests))
        # One send per worker and the receives that drain them.
        sqs_cost = self.prices.sqs_cost(self.num_workers + self.collection().receives)
        total = duration_cost + invocation_cost + s3_cost + sqs_cost
        return {
            "lambda_duration": duration_cost,
            "lambda_requests": invocation_cost,
            "s3_requests": s3_cost,
            "sqs_requests": sqs_cost,
            "total": total,
        }


# ---------------------------------------------------------------------------
# Figure builders
# ---------------------------------------------------------------------------

def figure10_worker_configurations(
    memory_sizes: Sequence[int] = (512, 1024, 1792, 2048, 3008),
    files_per_worker: Sequence[int] = (1, 2, 4),
) -> Dict[str, List[Dict]]:
    """Cost/latency of TPC-H Q1 under varying worker configurations (Figure 10).

    ``latency_seconds`` is with the priced number of result-queue pollers,
    ``latency_one_poller_seconds`` with a sequentially polling driver.
    """

    def row(memory: int, files: int, cold: bool = False) -> Dict:
        model = PaperScaleModel(
            query="q1", memory_mib=memory, files_per_worker=files, cold=cold
        )
        return {
            "memory_mib": memory,
            "files_per_worker": files,
            "cold": cold,
            "latency_seconds": model.latency_seconds(),
            "latency_one_poller_seconds": model.collection(pollers=1).finish,
            "cost_cents": model.cost_dollars()["total"] * 100,
        }

    return {
        "varying_memory": [
            row(memory, 1, cold) for memory in memory_sizes for cold in (False, True)
        ],
        "varying_files": [
            row(1792, files, cold) for files in files_per_worker for cold in (False, True)
        ],
        "grid": [row(memory, files) for memory in memory_sizes for files in files_per_worker],
    }


def figure11_processing_time_distribution(num_workers: int = 320) -> Dict[str, List[float]]:
    """Per-worker processing-time distribution of Q1 and Q6 (Figure 11)."""
    result: Dict[str, List[float]] = {}
    for query in ("q1", "q6"):
        model = PaperScaleModel(query=query, memory_mib=1792, files_per_worker=1)
        durations = np.sort(model.worker_durations())[: num_workers]
        result[query] = durations.tolist()
    return result


def figure12_qaas_comparison(
    scale_factors: Sequence[int] = (1000, 10000),
    memory_sizes: Sequence[int] = (1024, 1792, 3008),
) -> List[Dict]:
    """Lambada vs Athena vs BigQuery latency and cost (Figure 12)."""
    athena = AthenaModel()
    bigquery = BigQueryModel()
    rows: List[Dict] = []
    for query in ("q1", "q6"):
        for scale_factor in scale_factors:
            for memory in memory_sizes:
                for cold in (False, True):
                    model = PaperScaleModel(
                        query=query,
                        scale_factor=scale_factor,
                        memory_mib=memory,
                        files_per_worker=1,
                        cold=cold,
                    )
                    rows.append(
                        {
                            "system": "lambada",
                            "query": query,
                            "scale_factor": scale_factor,
                            "memory_mib": memory,
                            "cold": cold,
                            "latency_seconds": model.latency_seconds(),
                            "latency_one_poller_seconds": model.collection(pollers=1).finish,
                            "cost_dollars": model.cost_dollars()["total"],
                        }
                    )
            athena_estimate = athena.estimate(query, scale_factor)
            rows.append(
                {
                    "system": "athena",
                    "query": query,
                    "scale_factor": scale_factor,
                    "memory_mib": None,
                    "cold": False,
                    "latency_seconds": athena_estimate.latency_seconds,
                    "cost_dollars": athena_estimate.cost_dollars,
                }
            )
            for cold in (False, True):
                bigquery_estimate = bigquery.estimate(query, scale_factor, cold=cold)
                rows.append(
                    {
                        "system": "bigquery",
                        "query": query,
                        "scale_factor": scale_factor,
                        "memory_mib": None,
                        "cold": cold,
                        "latency_seconds": bigquery_estimate.cold_latency_seconds,
                        "cost_dollars": bigquery_estimate.cost_dollars,
                    }
                )
    return rows
