"""Price tables for all cloud services used by the paper.

Every price quoted in the paper is reproduced here with a pointer to the
section it came from.  The :class:`PriceList` dataclass bundles the prices so
that analyses can be re-run under alternative price assumptions (e.g. for
sensitivity studies), while :data:`DEFAULT_PRICES` matches the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.config import GiB, MiB, TiB


@dataclass(frozen=True)
class PriceList:
    """A bundle of unit prices, all in US dollars.

    Attributes mirror the billing dimensions of the services Lambada uses.
    """

    #: AWS Lambda: price per GiB-second of configured memory (us-east-1).
    #: The paper quotes $3.3e-5 per second for a 2 GiB worker (§4.4.4),
    #: i.e. about $1.667e-5 per GiB-second.
    lambda_gib_second: float = 1.667e-5

    #: AWS Lambda: price per million invocation requests.
    lambda_per_million_requests: float = 0.20

    #: S3: price per million GET (read) requests.  The exchange analysis
    #: (§4.4.1/§4.4.4) uses $0.4 per million GETs.
    s3_get_per_million: float = 0.40

    #: S3: price per million PUT/LIST (write) requests: $5 per million.
    s3_put_per_million: float = 5.00

    #: S3: storage price per GiB-month (not significant for temporary data,
    #: included for completeness).
    s3_storage_gib_month: float = 0.023

    #: SQS: price per million requests.
    sqs_per_million_requests: float = 0.40

    #: DynamoDB on-demand: price per million write request units.
    dynamodb_write_per_million: float = 1.25

    #: DynamoDB on-demand: price per million read request units.
    dynamodb_read_per_million: float = 0.25

    #: QaaS (Athena and BigQuery): price per TiB of data scanned (§5.4.1).
    qaas_per_tib_scanned: float = 5.00

    #: Hourly prices of the VM types used in the introduction's simulation
    #: (Figure 1).  On-demand us-east-1 prices at the time of the paper.
    vm_hourly: Dict[str, float] = field(
        default_factory=lambda: {
            "c5n.xlarge": 0.216,
            "c5n.18xlarge": 3.888,
            "r5.12xlarge": 3.024,
            "i3.16xlarge": 4.992,
        }
    )

    # -- derived helpers ----------------------------------------------------

    def lambda_duration_cost(self, memory_mib: int, seconds: float) -> float:
        """Cost of running one function of ``memory_mib`` for ``seconds``.

        AWS bills per GiB-second of *configured* memory (rounded to 1 ms,
        which we ignore as it is negligible at the durations studied).
        """
        gib = memory_mib * MiB / GiB
        return gib * seconds * self.lambda_gib_second

    def lambda_invocation_cost(self, invocations: int) -> float:
        """Cost of the invocation requests themselves."""
        return invocations / 1_000_000 * self.lambda_per_million_requests

    def s3_get_cost(self, requests: int) -> float:
        """Cost of ``requests`` GET requests."""
        return requests / 1_000_000 * self.s3_get_per_million

    def s3_put_cost(self, requests: int) -> float:
        """Cost of ``requests`` PUT or LIST requests."""
        return requests / 1_000_000 * self.s3_put_per_million

    def sqs_cost(self, requests: int) -> float:
        """Cost of ``requests`` SQS send/receive/delete requests."""
        return requests / 1_000_000 * self.sqs_per_million_requests

    def qaas_scan_cost(self, bytes_scanned: float) -> float:
        """Cost of a QaaS query that scans ``bytes_scanned`` bytes."""
        return bytes_scanned / TiB * self.qaas_per_tib_scanned

    def vm_cost(self, instance_type: str, hours: float, count: int = 1) -> float:
        """Cost of running ``count`` VMs of ``instance_type`` for ``hours``."""
        return self.vm_hourly[instance_type] * hours * count


#: The price list used throughout the paper's analyses (us-east-1, late 2019).
DEFAULT_PRICES = PriceList()

#: Price per second of a 2 GiB serverless worker, as quoted in §4.4.4.
WORKER_2GIB_PER_SECOND = DEFAULT_PRICES.lambda_duration_cost(2048, 1.0)
