"""Global constants and calibration parameters.

All constants that drive the performance and cost models live here (or in
:mod:`repro.cloud.pricing` for pure price tables) so that every number taken
from the paper is defined exactly once and can be traced back to the section
it came from.
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Byte sizes
# ---------------------------------------------------------------------------

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB

# ---------------------------------------------------------------------------
# AWS Lambda resource model (paper §4.1, Figure 4)
# ---------------------------------------------------------------------------

#: Memory size at which a function receives exactly one vCPU.
LAMBDA_MEMORY_PER_VCPU_MIB = 1792

#: Smallest / largest configurable memory size at the time of the paper.
LAMBDA_MIN_MEMORY_MIB = 128
LAMBDA_MAX_MEMORY_MIB = 3008

#: Maximum number of threads a function may create (service limit).
LAMBDA_MAX_THREADS = 1024

#: Default limit on concurrent executions per account (the paper raised it
#: through a support request; the service default is 1000).
LAMBDA_DEFAULT_CONCURRENCY_LIMIT = 1000

#: Cold-start penalty observed by the paper: roughly 20 % on end-to-end
#: latency of cold runs (§5.2), modelled as extra per-invocation setup time.
LAMBDA_COLD_START_SECONDS = 0.8
LAMBDA_WARM_START_SECONDS = 0.05

#: Observed single-invocation round-trip latency from the driver by region
#: (paper Table 1), in seconds.
INVOCATION_LATENCY_SECONDS = {
    "eu": 0.036,
    "us": 0.363,
    "sa": 0.474,
    "ap": 0.536,
}

#: Concurrent invocation rate achievable from the driver with 128 threads
#: (paper Table 1), in invocations per second.
INVOCATION_RATE_DRIVER = {
    "eu": 294.0,
    "us": 276.0,
    "sa": 243.0,
    "ap": 222.0,
}

#: Invocation rate achievable from inside the data centre, i.e. by a worker
#: invoking other workers (paper Table 1), in invocations per second.
INVOCATION_RATE_INTRA_REGION = {
    "eu": 81.0,
    "us": 79.0,
    "sa": 84.0,
    "ap": 81.0,
}

#: Number of invoker threads used by the driver (paper §4.2).
DRIVER_INVOKER_THREADS = 128

# ---------------------------------------------------------------------------
# S3 network model (paper §4.3.1, Figures 6 and 7)
# ---------------------------------------------------------------------------

#: Steady-state per-worker ingress bandwidth from S3 (paper: ~90 MiB/s).
S3_STEADY_BANDWIDTH_BYTES_PER_S = 90 * MiB

#: Peak burst bandwidth with several concurrent connections on large workers
#: (paper: occasionally almost 300 MiB/s on small files).
S3_BURST_BANDWIDTH_BYTES_PER_S = 300 * MiB

#: Duration of the burst credit window ("a small number of seconds").
S3_BURST_WINDOW_SECONDS = 3.0

#: Round-trip latency of a single S3 request (first byte), seconds.
S3_REQUEST_LATENCY_SECONDS = 0.03

#: Request-rate limits per bucket prefix as of July 2018 (paper §4.4.1):
#: 3500 write and 5500 read requests per second.
S3_WRITE_RATE_LIMIT_PER_S = 3500
S3_READ_RATE_LIMIT_PER_S = 5500

#: Historic (pre-2018) limits also cited by the paper.
S3_HISTORIC_WRITE_RATE_LIMIT_PER_S = 300
S3_HISTORIC_READ_RATE_LIMIT_PER_S = 800

#: Maximum S3 key length in bytes (UTF-8); the object store refuses a PUT
#: of a longer key.
S3_MAX_KEY_LENGTH = 1024

# ---------------------------------------------------------------------------
# IaaS model used by Figure 1 (paper §1)
# ---------------------------------------------------------------------------

#: Assumed VM start-up time for job-scoped IaaS.
IAAS_STARTUP_SECONDS = 120.0

#: Assumed FaaS fleet start-up time.
FAAS_STARTUP_SECONDS = 4.0

#: Per-instance scan bandwidth when reading from S3 on c5n.xlarge-class VMs.
#: Calibrated so that 13 c5n.18xlarge read 1 TB in ~10s (Figure 1b)
#: and smaller instances proportionally less.
VM_S3_BANDWIDTH_BYTES_PER_S = {
    "c5n.xlarge": 1.2 * GiB,
    "c5n.18xlarge": 8.0 * GiB,
}

#: DRAM and NVMe scan bandwidth per instance for the always-on scenarios.
VM_DRAM_BANDWIDTH_BYTES_PER_S = 35 * GiB
VM_NVME_BANDWIDTH_BYTES_PER_S = 16 * GiB

# ---------------------------------------------------------------------------
# Engine constants
# ---------------------------------------------------------------------------

#: Default chunk (request) size used by the S3 scan operator.
DEFAULT_SCAN_CHUNK_BYTES = 16 * MiB

#: Default number of concurrent connections used by the scan operator.
DEFAULT_SCAN_CONNECTIONS = 4

#: Default Parquet row-group size used by the data generator (rows).
DEFAULT_ROW_GROUP_ROWS = 64 * 1024

#: Target Parquet file size in bytes used by the workload generator
#: (paper: files of about 500 MB).
TARGET_PARQUET_FILE_BYTES = 500 * MB

#: Compute throughput of one vCPU in "work units" per second.  One work unit
#: corresponds to processing one row of TPC-H Q1 (decompression + arithmetic).
#: Calibrated so that a 1792 MiB worker scans and aggregates one 500 MB
#: GZIP-compressed Parquet file (about 18.75 M rows) in 2-3 seconds
#: (paper Figure 11).
VCPU_ROWS_PER_SECOND = 7_500_000.0

# ---------------------------------------------------------------------------
# Resilience / overload-control plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry, backoff, hedging, breaker, and budget knobs in one place.

    Every retry/backoff magic number that used to be scattered across
    :mod:`repro.driver.resilience`, :mod:`repro.driver.shuffle`, and
    :mod:`repro.driver.procpool` is defined here exactly once;
    :class:`repro.driver.resilience.ResiliencePolicy` takes its defaults from
    :data:`DEFAULT_RESILIENCE`, so tuning a number here retunes every plane.
    The circuit breakers and the per-query retry budget (PR 9) configure
    through the same object.
    """

    # -- retry / backoff (formerly ResiliencePolicy literals) ---------------
    #: Total attempts per worker including the first (>= 1).
    max_attempts: int = 4
    #: First backoff sleep (modelled seconds).
    backoff_base_seconds: float = 0.05
    #: Backoff ceiling (modelled seconds).
    backoff_cap_seconds: float = 2.0
    #: Modelled deadline for one wave of workers.
    wave_deadline_seconds: float = 60.0
    #: Result-queue poll budget: ``max(min_poll_rounds, expected *
    #: poll_rounds_per_worker)`` rounds (formerly duplicated as
    #: ``max(64, expected * 4)`` in driver.py and shuffle.py).
    min_poll_rounds: int = 64
    poll_rounds_per_worker: int = 4
    #: Reads attempted on a spilled result object before the corruption is
    #: declared uncurable (formerly ``range(2)`` in driver.py and shuffle.py).
    spill_read_attempts: int = 2

    # -- hedging ------------------------------------------------------------
    hedge_factor: float = 4.0
    hedge_min_seconds: float = 0.5
    hedge_max_fraction: float = 0.25

    # -- process pool ---------------------------------------------------------
    #: Largest process pool the driver will spawn (formerly ``min(size, 16)``).
    pool_max_children: int = 16
    #: Seconds to wait for a pool child to exit before terminating it.
    pool_join_timeout_seconds: float = 5.0
    #: Seed of the backoff/jitter RNG (independent of any fault plan).
    jitter_seed: int = 20260808

    # -- per-query retry budget (PR 9) ---------------------------------------
    #: Combined cap on what ``call_with_backoff`` retries, wave retries,
    #: driver re-invocations, and hedges may spend in one query.  Exhausting
    #: it raises :class:`~repro.errors.RetryBudgetExhaustedError` instead of
    #: burning backoff and dollars forever under a sustained brownout.
    retry_budget: int = 256

    # -- per-service circuit breakers (PR 9) ---------------------------------
    #: Failures within the rolling window that trip a breaker open.
    breaker_failure_threshold: int = 16
    #: Rolling failure-count window (modelled seconds).
    breaker_window_seconds: float = 30.0
    #: Open -> half-open cooldown (modelled seconds).  While open, retry
    #: sites charge the remaining cooldown to modelled latency instead of
    #: issuing doomed requests.
    breaker_cooldown_seconds: float = 10.0
    #: Probe successes required to close a half-open breaker.
    breaker_half_open_probes: int = 2

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_seconds": self.backoff_base_seconds,
            "backoff_cap_seconds": self.backoff_cap_seconds,
            "retry_budget": self.retry_budget,
            "breaker_failure_threshold": self.breaker_failure_threshold,
            "breaker_window_seconds": self.breaker_window_seconds,
            "breaker_cooldown_seconds": self.breaker_cooldown_seconds,
            "breaker_half_open_probes": self.breaker_half_open_probes,
        }


#: The single source of the resilience plane's numeric defaults.
DEFAULT_RESILIENCE = ResilienceConfig()


# ---------------------------------------------------------------------------
# Data-integrity plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrityConfig:
    """End-to-end content-checksum knobs.

    ``generate`` embeds crc32 checksums in everything the engine writes (LPQ
    chunks and footers, exchange partition frames, binary worker payloads,
    combined-object slice directories, SQS result messages).  ``verify``
    makes every consumer check them on read and raise
    :class:`~repro.errors.IntegrityError` on mismatch.  Both default on;
    objects written without checksums (pre-integrity format, no flag bit)
    always still decode, so readers never require the writer to have
    generated them.
    """

    generate: bool = True
    verify: bool = True

    def to_dict(self) -> dict:
        return {"generate": self.generate, "verify": self.verify}

    @classmethod
    def from_dict(cls, data: dict) -> "IntegrityConfig":
        if not data:
            # Events from pre-integrity callers carry no block: defaults apply.
            return cls()
        return cls(
            generate=bool(data.get("generate", True)),
            verify=bool(data.get("verify", True)),
        )


#: Checksums on, verification on: the production default.
DEFAULT_INTEGRITY = IntegrityConfig()

#: Number of LINEITEM rows per scale factor (about 6M rows per SF).
LINEITEM_ROWS_PER_SF = 6_001_215

#: Size of the LINEITEM relation at SF 1000 in the paper.
LINEITEM_SF1000_CSV_BYTES = 705 * GiB
LINEITEM_SF1000_PARQUET_BYTES = 151 * GiB
LINEITEM_SF1000_FILES = 320
LINEITEM_SF1000_BIGQUERY_BYTES = 823 * GiB
