"""Model-driven figure and table data.

Each function returns plain Python data structures (lists of dicts) holding
exactly the series plotted in the corresponding figure of the paper, so that
benchmarks can print them and tests can assert their qualitative shape.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.baselines.external import LAMBADA_PAPER_RESULTS, LOCUS_RESULTS, POCKET_RESULTS
from repro.baselines.iaas import (
    ALWAYS_ON_CONFIGURATIONS,
    AlwaysOnIaasModel,
    JobScopedFaasModel,
    JobScopedIaasModel,
)
from repro.cloud.lambda_service import compute_throughput
from repro.cloud.network import BandwidthModel, TransferPlan
from repro.cloud.pricing import DEFAULT_PRICES
from repro.config import (
    GB,
    INVOCATION_LATENCY_SECONDS,
    INVOCATION_RATE_DRIVER,
    INVOCATION_RATE_INTRA_REGION,
    MB,
    MiB,
    TB,
)
from repro.driver.invocation import (
    FlatInvocationModel,
    InvocationModel,
    TreeInvocationModel,
)
from repro.exchange.cost_model import (
    EXCHANGE_VARIANTS,
    ExchangeCostModel,
    worker_cost_band,
)
from repro.exchange.simulator import ExchangeSimulator


# ---------------------------------------------------------------------------
# Figure 1 — comparison of cloud architectures
# ---------------------------------------------------------------------------

def figure1a_job_scoped(
    vm_counts: Sequence[int] = (1, 4, 16, 64, 256),
    faas_counts: Sequence[int] = (8, 64, 512, 4096),
    data_bytes: float = TB,
) -> Dict[str, List[Dict]]:
    """Cost/latency curves of job-scoped IaaS vs FaaS (Figure 1a)."""
    iaas = JobScopedIaasModel()
    faas = JobScopedFaasModel()
    return {
        "iaas": [
            {"workers": point.workers, "seconds": point.running_time_seconds, "dollars": point.cost_dollars}
            for point in iaas.sweep(vm_counts, data_bytes)
        ],
        "faas": [
            {"workers": point.workers, "seconds": point.running_time_seconds, "dollars": point.cost_dollars}
            for point in faas.sweep(faas_counts, data_bytes)
        ],
    }


def figure1b_always_on(
    queries_per_hour: Sequence[float] = (1, 2, 4, 8, 16, 32, 64),
    data_bytes: float = TB,
) -> Dict[str, List[Dict]]:
    """Hourly cost of always-on IaaS vs FaaS vs QaaS (Figure 1b)."""
    model = AlwaysOnIaasModel()
    series: Dict[str, List[Dict]] = {}
    for configuration in ALWAYS_ON_CONFIGURATIONS:
        series[configuration.label] = [
            {"queries_per_hour": rate, "dollars_per_hour": model.hourly_cost(configuration, rate)}
            for rate in queries_per_hour
        ]
    series["FaaS (S3)"] = [
        {"queries_per_hour": rate, "dollars_per_hour": model.faas_hourly_cost(rate, data_bytes)}
        for rate in queries_per_hour
    ]
    series["QaaS (S3)"] = [
        {"queries_per_hour": rate, "dollars_per_hour": model.qaas_hourly_cost(rate, data_bytes)}
        for rate in queries_per_hour
    ]
    return series


# ---------------------------------------------------------------------------
# Figure 4 — intra-worker compute performance
# ---------------------------------------------------------------------------

def figure4_compute_performance(
    memory_sizes: Sequence[int] = (256, 512, 1024, 1792, 2048, 2560, 3008),
) -> List[Dict]:
    """Relative compute throughput vs memory size for 1 and 2 threads (Figure 4)."""
    rows = []
    for memory in memory_sizes:
        rows.append(
            {
                "memory_mib": memory,
                "threads_1": 100.0 * compute_throughput(memory, 1),
                "threads_2": 100.0 * compute_throughput(memory, 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 1 — invocation characteristics
# ---------------------------------------------------------------------------

def table1_invocation_characteristics() -> List[Dict]:
    """Per-region invocation latency and rates (Table 1)."""
    rows = []
    for region in ("eu", "us", "sa", "ap"):
        rows.append(
            {
                "region": region,
                "single_invocation_ms": INVOCATION_LATENCY_SECONDS[region] * 1000.0,
                "concurrent_rate_per_s": INVOCATION_RATE_DRIVER[region],
                "intra_region_rate_per_s": INVOCATION_RATE_INTRA_REGION[region],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 5 — two-level invocation timeline
# ---------------------------------------------------------------------------

def figure5_invocation_timeline(num_workers: int = 4096, region: str = "eu") -> Dict:
    """Timeline of the two-level invocation of ``num_workers`` (Figure 5).

    The arrays are the paper's ⌈√P⌉ tree; the flat launch and the priced
    shape the driver uses are reported next to it.
    """
    tree = TreeInvocationModel(region=region)
    flat = FlatInvocationModel(region=region)
    priced = InvocationModel(region=region).plan(num_workers, cold=True)
    timeline = tree.timeline(num_workers, cold=True)
    return {
        "num_workers": num_workers,
        "first_generation": len(timeline.before_own_invocation),
        "before_own_invocation": timeline.before_own_invocation.tolist(),
        "own_invocation": timeline.own_invocation.tolist(),
        "invoking_workers": timeline.invoking_workers.tolist(),
        "all_started_seconds": tree.time_to_start_all(num_workers),
        "flat_invocation_seconds": flat.time_to_start_all(num_workers),
        "priced_first_generation": priced.first_generation,
        "priced_all_started_seconds": priced.time_to_start_all,
    }


# ---------------------------------------------------------------------------
# Figures 6 and 7 — S3 scan characteristics
# ---------------------------------------------------------------------------

def figure6_network_bandwidth(
    memory_sizes: Sequence[int] = (512, 1024, 2048, 3008),
    connections: Sequence[int] = (1, 2, 4),
) -> Dict[str, List[Dict]]:
    """Scan bandwidth vs worker memory for large and small files (Figure 6)."""
    model = BandwidthModel()
    result: Dict[str, List[Dict]] = {"large_files": [], "small_files": []}
    for label, file_bytes in (("large_files", GB), ("small_files", 100 * MB)):
        for memory in memory_sizes:
            row = {"memory_mib": memory}
            for conn in connections:
                bandwidth = model.scan_bandwidth(
                    total_bytes=file_bytes,
                    chunk_bytes=16 * MiB,
                    connections=conn,
                    memory_mib=memory,
                )
                row[f"connections_{conn}_mib_per_s"] = bandwidth / MiB
            result[label].append(row)
    return result


def figure7_chunk_size(
    chunk_sizes_mib: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    connections: Sequence[int] = (1, 2, 4),
    file_bytes: int = GB,
    memory_mib: int = 3008,
    repetitions: int = 1000,
) -> List[Dict]:
    """Bandwidth and request cost vs chunk size (Figure 7).

    The request-cost line is, as in the paper, the cost of running the
    experiment ``repetitions`` times, annotated with the ratio of request cost
    to worker running cost.
    """
    model = BandwidthModel()
    prices = DEFAULT_PRICES
    worker_price_per_second = 3.3e-5  # 2 GiB worker, §4.4.4
    rows = []
    for chunk_mib in chunk_sizes_mib:
        chunk_bytes = int(chunk_mib * MiB)
        row: Dict = {"chunk_mib": chunk_mib}
        requests = -(-file_bytes // chunk_bytes)
        for conn in connections:
            plan = TransferPlan(
                total_bytes=file_bytes,
                chunk_bytes=chunk_bytes,
                connections=conn,
                memory_mib=memory_mib,
            )
            seconds = model.transfer_seconds(plan)
            row[f"connections_{conn}_mb_per_s"] = file_bytes / seconds / 1e6
        request_cost = prices.s3_get_cost(requests) * repetitions
        scan_seconds = model.transfer_seconds(
            TransferPlan(file_bytes, chunk_bytes, max(connections), memory_mib)
        )
        worker_cost = scan_seconds * worker_price_per_second * repetitions
        row["request_cost_dollars"] = request_cost
        row["requests_per_scan"] = requests
        row["request_to_worker_cost_ratio"] = request_cost / worker_cost if worker_cost else 0.0
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 2 and Figure 9 — exchange cost models
# ---------------------------------------------------------------------------

def table2_exchange_models(num_workers: int = 1024) -> List[Dict]:
    """Request counts of every exchange variant at ``num_workers`` (Table 2)."""
    model = ExchangeCostModel()
    rows = []
    for variant in EXCHANGE_VARIANTS:
        counts = model.requests(variant, num_workers)
        rows.append({"variant": variant, **counts})
    return rows


def figure9_exchange_cost(
    worker_counts: Sequence[int] = (64, 256, 1024, 4096, 16384),
) -> Dict:
    """Per-worker request cost of every exchange variant (Figure 9)."""
    model = ExchangeCostModel()
    series = model.figure9_series(tuple(worker_counts))
    low, high = worker_cost_band("2l")
    return {
        "series": series,
        "worker_cost_band_low": low,
        "worker_cost_band_high": high,
    }


# ---------------------------------------------------------------------------
# Table 3 and Figure 13 — exchange at scale
# ---------------------------------------------------------------------------

def table3_exchange_comparison() -> List[Dict]:
    """Running times of the 100 GB exchange vs Pocket and Locus (Table 3)."""
    simulator = ExchangeSimulator()
    rows: List[Dict] = []
    for result in POCKET_RESULTS:
        rows.append(
            {
                "system": result.system,
                "workers": result.workers,
                "storage": result.storage_layer,
                "seconds": result.running_time_seconds,
            }
        )
    for result in LOCUS_RESULTS:
        if result.data_bytes == 100 * 1_000_000_000:
            rows.append(
                {
                    "system": result.system,
                    "workers": result.workers,
                    "storage": result.storage_layer,
                    "seconds": result.running_time_seconds,
                }
            )
    for workers in (250, 500, 1000):
        rows.append(
            {
                "system": "lambada (simulated)",
                "workers": workers,
                "storage": "s3",
                "seconds": simulator.table3_running_time(workers, 100 * 1_000_000_000),
                "paper_seconds": LAMBADA_PAPER_RESULTS[workers],
            }
        )
    return rows


def figure13_exchange_breakdown() -> Dict[str, Dict]:
    """Phase breakdown of the 1 TB and 3 TB exchanges (Figure 13)."""
    simulator = ExchangeSimulator()
    result: Dict[str, Dict] = {}
    for label, data_bytes, workers in (("1TB", TB, 1250), ("3TB", 3 * TB, 2500)):
        timings = simulator.simulate(workers, data_bytes)
        phases = {
            name: {
                "fastest": float(values.min()),
                "median": float(sorted(values)[len(values) // 2]),
                "p95": float(sorted(values)[int(len(values) * 0.95)]),
                "slowest": float(values.max()),
            }
            for name, values in timings.breakdown.phases().items()
        }
        result[label] = {
            "workers": workers,
            "total_seconds": timings.total_seconds,
            "fastest_worker_seconds": timings.fastest_worker_seconds,
            "lower_bound_seconds": timings.lower_bound_seconds,
            "waiting_fraction": timings.waiting_fraction,
            "phases": phases,
        }
    return result
