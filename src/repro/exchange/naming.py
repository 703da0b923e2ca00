"""Where a sender's combined exchange object lives.

The ``FormatFileName`` function of the paper's Algorithm 1, for the one
exchange plane there is: every sender writes **one** combined object per
round, holding its partitions for all receivers in receiver order.  Its
offset directory and slice crcs travel in the sender's announcement
(:func:`repro.exchange.fetch.write_combined`), not in the key, so the key
names only the sender; the S3 key-length limit is the store's to enforce.
Senders spread over ``num_buckets`` buckets to multiply the per-bucket
request-rate limit (the paper's ``s3://bucket-{r%10}/...`` trick, §4.4.1).
"""

from __future__ import annotations

from typing import List


class WriteCombiningNaming:
    """One combined object per sender, at ``{bucket}[-{n}]/{prefix}sender-{n}``."""

    def __init__(self, bucket: str = "exchange", prefix: str = "", num_buckets: int = 1):
        if num_buckets < 1:
            raise ValueError("num_buckets must be at least 1")
        self.bucket = bucket
        self.prefix = prefix
        self.num_buckets = num_buckets

    def bucket_for(self, sender: int) -> str:
        """Bucket that holds the combined object written by ``sender``."""
        if self.num_buckets == 1:
            return self.bucket
        return f"{self.bucket}-{sender % self.num_buckets}"

    def path(self, sender: int, receiver: int) -> str:
        """Path of ``sender``'s combined object (every receiver shares it)."""
        return f"s3://{self.bucket_for(sender)}/{self.prefix}sender-{sender}"

    def buckets(self) -> List[str]:
        """All bucket names this scheme can produce (created at install time)."""
        if self.num_buckets == 1:
            return [self.bucket]
        return [f"{self.bucket}-{index}" for index in range(self.num_buckets)]
