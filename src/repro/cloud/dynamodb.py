"""DynamoDB-like key-value store.

Lambada uses a serverless key-value store for small amounts of shared state —
for example worker heart-beats, exchange-phase bookkeeping, or small
broadcast values.  The simulated service supports named tables with
string-keyed items (JSON-serialisable dictionaries) and conditional puts,
and meters read/write request units.
"""

from __future__ import annotations

import copy
import json
import threading
from typing import Any, Dict, Optional

from repro.cloud.clock import VirtualClock
from repro.cloud.metering import MeteringLedger
from repro.errors import ConditionalCheckFailedError, NoSuchTableError

#: Maximum item size (400 KB on DynamoDB).
MAX_ITEM_BYTES = 400 * 1000


class KeyValueStore:
    """A minimal multi-table key-value store with DynamoDB-like semantics."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[MeteringLedger] = None,
    ):
        self.clock = clock or VirtualClock()
        self.ledger = ledger if ledger is not None else MeteringLedger()
        self._tables: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._lock = threading.RLock()

    # -- table management ----------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create a table; creating an existing table is a no-op."""
        with self._lock:
            self._tables.setdefault(name, {})

    def _require_table(self, name: str) -> None:
        if name not in self._tables:
            raise NoSuchTableError(name)

    # -- item operations -----------------------------------------------------

    def put_item(
        self,
        table: str,
        key: str,
        item: Dict[str, Any],
        if_not_exists: bool = False,
    ) -> None:
        """Store an item under ``key``.

        With ``if_not_exists=True`` the put fails with
        :class:`~repro.errors.ConditionalCheckFailedError` if the key is
        already present (used for leader election / idempotency guards).
        """
        encoded = json.dumps(item)
        if len(encoded.encode("utf-8")) > MAX_ITEM_BYTES:
            raise ValueError(f"item of {len(encoded)} bytes exceeds the DynamoDB limit")
        with self._lock:
            self._require_table(table)
            if if_not_exists and key in self._tables[table]:
                raise ConditionalCheckFailedError(key)
            self._tables[table][key] = copy.deepcopy(item)
            self.ledger.record("dynamodb", "write_units", 1, self.clock.now)

    def get_item(self, table: str, key: str) -> Optional[Dict[str, Any]]:
        """Fetch an item, or ``None`` if the key is absent."""
        with self._lock:
            self._require_table(table)
            self.ledger.record("dynamodb", "read_units", 1, self.clock.now)
            item = self._tables[table].get(key)
            return copy.deepcopy(item) if item is not None else None
