"""Numeric TPC-H LINEITEM generator and dataset writer.

The paper modifies ``dbgen`` to emit numbers instead of strings and sorts the
relation by ``l_shipdate`` (to make min/max pruning on that attribute
effective).  This generator reproduces that schema and the value
distributions relevant to Q1 and Q6:

* ``l_quantity`` uniform in [1, 50]
* ``l_discount`` uniform in {0.00, 0.01, ..., 0.10}
* ``l_tax`` uniform in {0.00, ..., 0.08}
* ``l_shipdate`` uniform over 1992-01-02 .. 1998-12-01 (stored as integer
  days since 1970-01-01), globally sorted
* ``l_returnflag``/``l_linestatus`` encoded as small integers with the
  correlation to ``l_shipdate`` that TPC-H prescribes (flags depend on
  whether the shipdate is before/after 1995-06-17)

Rows per scale factor follow TPC-H (about 6M rows per SF).  Datasets are
written into the simulated object store as multiple columnar files, matching
the paper's layout of ~500 MB files; larger scale factors can be emulated by
replicating files, exactly as the paper does for SF 10 000.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cloud.s3 import ObjectStore
from repro.config import LINEITEM_ROWS_PER_SF
from repro.formats.compression import Compression
from repro.formats.parquet import write_table
from repro.formats.schema import ColumnType, Schema

#: Schema of the numeric LINEITEM relation (strings replaced by integer codes).
LINEITEM_SCHEMA = Schema.from_pairs(
    [
        ("l_orderkey", ColumnType.INT64),
        ("l_partkey", ColumnType.INT64),
        ("l_suppkey", ColumnType.INT64),
        ("l_linenumber", ColumnType.INT32),
        ("l_quantity", ColumnType.FLOAT64),
        ("l_extendedprice", ColumnType.FLOAT64),
        ("l_discount", ColumnType.FLOAT64),
        ("l_tax", ColumnType.FLOAT64),
        ("l_returnflag", ColumnType.INT32),
        ("l_linestatus", ColumnType.INT32),
        ("l_shipdate", ColumnType.INT32),
        ("l_commitdate", ColumnType.INT32),
        ("l_receiptdate", ColumnType.INT32),
        ("l_shipinstruct", ColumnType.INT32),
        ("l_shipmode", ColumnType.INT32),
    ]
)


def _days(year: int, month: int, day: int) -> int:
    return (_dt.date(year, month, day) - _dt.date(1970, 1, 1)).days


#: Date range of l_shipdate in TPC-H.
SHIPDATE_MIN_DAYS = _days(1992, 1, 2)
SHIPDATE_MAX_DAYS = _days(1998, 12, 1)
#: The "current date" used by dbgen to derive return flags.
CURRENTDATE_DAYS = _days(1995, 6, 17)

#: Date range of o_orderdate in TPC-H (orders stop 151 days before the last
#: shipdate so that every order can still ship within the horizon).
ORDERDATE_MIN_DAYS = _days(1992, 1, 1)
ORDERDATE_MAX_DAYS = _days(1998, 8, 2)

#: TPC-H row counts per scale factor: ORDERS is a quarter of LINEITEM, PART
#: is 200k rows per SF.
ORDERS_ROWS_PER_SF = LINEITEM_ROWS_PER_SF // 4
PART_ROWS_PER_SF = 200_000

#: Number of distinct p_type codes; codes below PROMO_TYPE_CODES play the
#: role of the ``PROMO%`` types of Q14 (25 of the 150 dbgen type strings).
PART_TYPE_CODES = 150
PROMO_TYPE_CODES = 25

#: Schema of the numeric ORDERS relation (strings replaced by integer codes:
#: o_orderstatus F/O/P -> 0/1/2, o_orderpriority 1-URGENT..5-LOW -> 0..4).
ORDERS_SCHEMA = Schema.from_pairs(
    [
        ("o_orderkey", ColumnType.INT64),
        ("o_custkey", ColumnType.INT64),
        ("o_orderstatus", ColumnType.INT32),
        ("o_totalprice", ColumnType.FLOAT64),
        ("o_orderdate", ColumnType.INT32),
        ("o_orderpriority", ColumnType.INT32),
        ("o_shippriority", ColumnType.INT32),
    ]
)

#: Schema of the numeric PART relation.  ``p_promo`` materialises the Q14
#: ``p_type like 'PROMO%'`` predicate as a 0/1 flag (p_type < 25).
PART_SCHEMA = Schema.from_pairs(
    [
        ("p_partkey", ColumnType.INT64),
        ("p_type", ColumnType.INT32),
        ("p_promo", ColumnType.INT32),
        ("p_size", ColumnType.INT32),
        ("p_container", ColumnType.INT32),
        ("p_retailprice", ColumnType.FLOAT64),
    ]
)

#: Number of TPC-H nations and regions (fixed, independent of scale factor).
NATION_COUNT = 25
REGION_COUNT = 5

#: Schema of the numeric CUSTOMER relation (strings replaced by integer
#: codes: c_mktsegment's five segment strings become 0..4).
CUSTOMER_SCHEMA = Schema.from_pairs(
    [
        ("c_custkey", ColumnType.INT64),
        ("c_nationkey", ColumnType.INT64),
        ("c_acctbal", ColumnType.FLOAT64),
        ("c_mktsegment", ColumnType.INT32),
    ]
)

#: Schema of the numeric SUPPLIER relation.
SUPPLIER_SCHEMA = Schema.from_pairs(
    [
        ("s_suppkey", ColumnType.INT64),
        ("s_nationkey", ColumnType.INT64),
        ("s_acctbal", ColumnType.FLOAT64),
    ]
)

#: Schema of the numeric NATION relation (25 fixed rows; the name column is
#: the key itself, as dbgen's names map 1:1 onto nation keys).
NATION_SCHEMA = Schema.from_pairs(
    [
        ("n_nationkey", ColumnType.INT64),
        ("n_regionkey", ColumnType.INT64),
    ]
)

#: Schema of the numeric REGION relation (5 fixed rows).
REGION_SCHEMA = Schema.from_pairs(
    [
        ("r_regionkey", ColumnType.INT64),
        ("r_name", ColumnType.INT32),
    ]
)


def lineitem_orderkey_domain(scale_factor: float) -> int:
    """Exclusive upper bound of ``l_orderkey`` at ``scale_factor``.

    Mirrors :meth:`LineitemGenerator.generate`, which draws order keys
    uniformly from ``[1, rows // 4 * 4)`` — the ORDERS generator selects its
    primary keys from the same domain so the two relations join.
    """
    rows = LineitemGenerator(scale_factor=scale_factor).num_rows
    return max(2, rows // 4 * 4)


def lineitem_partkey_domain(scale_factor: float) -> int:
    """Exclusive upper bound of ``l_partkey`` at ``scale_factor``."""
    return max(2, int(200_000 * scale_factor) + 2)


def lineitem_suppkey_domain(scale_factor: float) -> int:
    """Exclusive upper bound of ``l_suppkey`` at ``scale_factor``."""
    return max(2, int(10_000 * scale_factor) + 2)


def orders_custkey_domain(scale_factor: float) -> int:
    """Exclusive upper bound of ``o_custkey`` at ``scale_factor``."""
    return max(2, int(150_000 * scale_factor) + 2)


class LineitemGenerator:
    """Deterministic generator of the numeric LINEITEM relation."""

    def __init__(self, scale_factor: float = 0.01, seed: int = 7):
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed

    @property
    def num_rows(self) -> int:
        """Total number of rows at this scale factor."""
        return max(1, int(round(LINEITEM_ROWS_PER_SF * self.scale_factor)))

    def generate(self, num_rows: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Generate the full relation (sorted by ``l_shipdate``)."""
        rows = num_rows if num_rows is not None else self.num_rows
        rng = np.random.default_rng(self.seed)

        orderkey = rng.integers(1, max(2, rows // 4 * 4), size=rows, dtype=np.int64)
        partkey = rng.integers(1, max(2, int(200_000 * self.scale_factor) + 2), size=rows, dtype=np.int64)
        suppkey = rng.integers(1, max(2, int(10_000 * self.scale_factor) + 2), size=rows, dtype=np.int64)
        linenumber = rng.integers(1, 8, size=rows, dtype=np.int32)
        quantity = rng.integers(1, 51, size=rows).astype(np.float64)
        extendedprice = np.round(quantity * rng.uniform(900.0, 105_000.0 / 50, size=rows), 2)
        discount = rng.integers(0, 11, size=rows).astype(np.float64) / 100.0
        tax = rng.integers(0, 9, size=rows).astype(np.float64) / 100.0
        shipdate = rng.integers(SHIPDATE_MIN_DAYS, SHIPDATE_MAX_DAYS + 1, size=rows).astype(np.int32)
        commitdate = shipdate + rng.integers(-30, 31, size=rows).astype(np.int32)
        receiptdate = shipdate + rng.integers(1, 31, size=rows).astype(np.int32)
        shipinstruct = rng.integers(0, 4, size=rows, dtype=np.int32)
        shipmode = rng.integers(0, 7, size=rows, dtype=np.int32)

        # Return flag correlates with shipdate as in dbgen: items shipped after
        # the "current date" have flag N (encoded 2); older ones are A/R.
        returnflag = np.where(
            shipdate > CURRENTDATE_DAYS,
            2,
            rng.integers(0, 2, size=rows),
        ).astype(np.int32)
        # Line status: O (encoded 1) for recent shipments, F (0) otherwise.
        linestatus = np.where(shipdate > CURRENTDATE_DAYS, 1, 0).astype(np.int32)

        table = {
            "l_orderkey": orderkey,
            "l_partkey": partkey,
            "l_suppkey": suppkey,
            "l_linenumber": linenumber,
            "l_quantity": quantity,
            "l_extendedprice": extendedprice,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": returnflag,
            "l_linestatus": linestatus,
            "l_shipdate": shipdate,
            "l_commitdate": commitdate,
            "l_receiptdate": receiptdate,
            "l_shipinstruct": shipinstruct,
            "l_shipmode": shipmode,
        }

        # Sort globally by l_shipdate (paper §5.1) to enable pruning.
        order = np.argsort(shipdate, kind="stable")
        return {name: column[order] for name, column in table.items()}


class OrdersGenerator:
    """Deterministic generator of the numeric ORDERS relation.

    ``o_orderkey`` is a unique primary key drawn from the ``l_orderkey``
    domain of the LINEITEM generator at the same scale factor, so that an
    equi-join on the order key is meaningful: most lineitems find their
    order, while keys outside the selected subset exercise the unmatched
    path of an inner join.  The relation is sorted by ``o_orderdate``
    (mirroring the paper's sorted layout) so per-file min/max pruning on the
    Q3 date predicate is effective.
    """

    def __init__(self, scale_factor: float = 0.01, seed: int = 7):
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed

    @property
    def num_rows(self) -> int:
        """Total number of rows at this scale factor."""
        domain = lineitem_orderkey_domain(self.scale_factor) - 1
        return min(domain, max(1, int(round(ORDERS_ROWS_PER_SF * self.scale_factor))))

    def generate(self, num_rows: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Generate the full relation (sorted by ``o_orderdate``)."""
        rows = num_rows if num_rows is not None else self.num_rows
        rng = np.random.default_rng(self.seed + 1)

        domain = lineitem_orderkey_domain(self.scale_factor)
        rows = min(rows, domain - 1)
        orderkey = np.sort(
            rng.choice(np.arange(1, domain, dtype=np.int64), size=rows, replace=False)
        )
        custkey = rng.integers(1, max(2, int(150_000 * self.scale_factor) + 2),
                               size=rows, dtype=np.int64)
        orderdate = rng.integers(
            ORDERDATE_MIN_DAYS, ORDERDATE_MAX_DAYS + 1, size=rows
        ).astype(np.int32)
        orderstatus = np.where(
            orderdate > CURRENTDATE_DAYS, 1, rng.integers(0, 3, size=rows)
        ).astype(np.int32)
        totalprice = np.round(rng.uniform(850.0, 560_000.0, size=rows), 2)
        orderpriority = rng.integers(0, 5, size=rows, dtype=np.int32)
        shippriority = np.zeros(rows, dtype=np.int32)

        table = {
            "o_orderkey": orderkey,
            "o_custkey": custkey,
            "o_orderstatus": orderstatus,
            "o_totalprice": totalprice,
            "o_orderdate": orderdate,
            "o_orderpriority": orderpriority,
            "o_shippriority": shippriority,
        }
        order = np.argsort(orderdate, kind="stable")
        return {name: column[order] for name, column in table.items()}


class PartGenerator:
    """Deterministic generator of the numeric PART relation.

    ``p_partkey`` is the dense primary key ``1..N`` covering the full
    ``l_partkey`` domain of the LINEITEM generator at the same scale factor,
    so every lineitem matches exactly one part.  ``p_promo`` flags the Q14
    promo types (``p_type < 25``) as a 0/1 column.
    """

    def __init__(self, scale_factor: float = 0.01, seed: int = 7):
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed

    @property
    def num_rows(self) -> int:
        """Total number of rows at this scale factor."""
        return lineitem_partkey_domain(self.scale_factor) - 1

    def generate(self, num_rows: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Generate the full relation (sorted by ``p_partkey``)."""
        rows = num_rows if num_rows is not None else self.num_rows
        rng = np.random.default_rng(self.seed + 2)

        partkey = np.arange(1, rows + 1, dtype=np.int64)
        ptype = rng.integers(0, PART_TYPE_CODES, size=rows, dtype=np.int32)
        return {
            "p_partkey": partkey,
            "p_type": ptype,
            "p_promo": (ptype < PROMO_TYPE_CODES).astype(np.int32),
            "p_size": rng.integers(1, 51, size=rows, dtype=np.int32),
            "p_container": rng.integers(0, 40, size=rows, dtype=np.int32),
            "p_retailprice": np.round(rng.uniform(900.0, 2_000.0, size=rows), 2),
        }


class CustomerGenerator:
    """Deterministic generator of the numeric CUSTOMER relation.

    ``c_custkey`` is the dense primary key ``1..N`` covering the full
    ``o_custkey`` domain of the ORDERS generator at the same scale factor,
    so every order matches exactly one customer.  ``c_nationkey`` spreads
    the customers uniformly over the 25 nations; ``c_mktsegment`` encodes
    the five dbgen segment strings as 0..4.
    """

    def __init__(self, scale_factor: float = 0.01, seed: int = 7):
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed

    @property
    def num_rows(self) -> int:
        """Total number of rows at this scale factor."""
        return orders_custkey_domain(self.scale_factor) - 1

    def generate(self, num_rows: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Generate the full relation (sorted by ``c_custkey``)."""
        rows = num_rows if num_rows is not None else self.num_rows
        rng = np.random.default_rng(self.seed + 3)

        return {
            "c_custkey": np.arange(1, rows + 1, dtype=np.int64),
            "c_nationkey": rng.integers(0, NATION_COUNT, size=rows, dtype=np.int64),
            "c_acctbal": np.round(rng.uniform(-999.99, 9_999.99, size=rows), 2),
            "c_mktsegment": rng.integers(0, 5, size=rows, dtype=np.int32),
        }


class SupplierGenerator:
    """Deterministic generator of the numeric SUPPLIER relation.

    ``s_suppkey`` is the dense primary key ``1..N`` covering the full
    ``l_suppkey`` domain of the LINEITEM generator at the same scale factor,
    so every lineitem matches exactly one supplier.
    """

    def __init__(self, scale_factor: float = 0.01, seed: int = 7):
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed

    @property
    def num_rows(self) -> int:
        """Total number of rows at this scale factor."""
        return lineitem_suppkey_domain(self.scale_factor) - 1

    def generate(self, num_rows: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Generate the full relation (sorted by ``s_suppkey``)."""
        rows = num_rows if num_rows is not None else self.num_rows
        rng = np.random.default_rng(self.seed + 4)

        return {
            "s_suppkey": np.arange(1, rows + 1, dtype=np.int64),
            "s_nationkey": rng.integers(0, NATION_COUNT, size=rows, dtype=np.int64),
            "s_acctbal": np.round(rng.uniform(-999.99, 9_999.99, size=rows), 2),
        }


class NationGenerator:
    """The fixed 25-row NATION relation (5 nations per region)."""

    def __init__(self, scale_factor: float = 0.01, seed: int = 7):
        self.scale_factor = scale_factor
        self.seed = seed

    @property
    def num_rows(self) -> int:
        """NATION always has 25 rows."""
        return NATION_COUNT

    def generate(self, num_rows: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Generate the full relation (sorted by ``n_nationkey``)."""
        nationkey = np.arange(NATION_COUNT, dtype=np.int64)
        return {
            "n_nationkey": nationkey,
            "n_regionkey": nationkey // (NATION_COUNT // REGION_COUNT),
        }


class RegionGenerator:
    """The fixed 5-row REGION relation (name code = key)."""

    def __init__(self, scale_factor: float = 0.01, seed: int = 7):
        self.scale_factor = scale_factor
        self.seed = seed

    @property
    def num_rows(self) -> int:
        """REGION always has 5 rows."""
        return REGION_COUNT

    def generate(self, num_rows: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Generate the full relation (sorted by ``r_regionkey``)."""
        regionkey = np.arange(REGION_COUNT, dtype=np.int64)
        return {
            "r_regionkey": regionkey,
            "r_name": regionkey.astype(np.int32),
        }


@dataclass
class DatasetInfo:
    """Catalog entry of a generated dataset."""

    name: str
    paths: List[str]
    total_rows: int
    total_bytes: int
    scale_factor: float
    schema: Schema = field(default_factory=lambda: LINEITEM_SCHEMA)

    @property
    def num_files(self) -> int:
        """Number of files the dataset is split into."""
        return len(self.paths)

    @property
    def glob(self) -> str:
        """A glob pattern matching all files of the dataset."""
        prefix = self.paths[0].rsplit("/", 1)[0]
        return f"{prefix}/*.lpq"


def write_dataset(
    store: ObjectStore,
    table: Dict[str, np.ndarray],
    schema: Schema,
    bucket: str = "tpch",
    prefix: str = "lineitem",
    scale_factor: float = 0.001,
    num_files: int = 4,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
) -> DatasetInfo:
    """Write a generated relation to the object store as columnar files.

    The relation is split into ``num_files`` contiguous row ranges; because
    the generators emit rows sorted by their natural date column, each file
    covers a distinct interval of that column (which is what makes per-file
    min/max pruning effective, as in the paper's sorted SF-1000 dataset).
    """
    if num_files <= 0:
        raise ValueError("num_files must be positive")
    total_rows = len(next(iter(table.values())))

    store.ensure_bucket(bucket)
    paths: List[str] = []
    total_bytes = 0
    boundaries = np.linspace(0, total_rows, num_files + 1, dtype=np.int64)
    for index in range(num_files):
        start, end = int(boundaries[index]), int(boundaries[index + 1])
        part = {name: column[start:end] for name, column in table.items()}
        data = write_table(part, schema=schema, row_group_rows=row_group_rows,
                           compression=compression)
        key = f"{prefix}/part-{index:05d}.lpq"
        store.put_object(bucket, key, data)
        paths.append(f"s3://{bucket}/{key}")
        total_bytes += len(data)

    return DatasetInfo(
        name=prefix,
        paths=paths,
        total_rows=total_rows,
        total_bytes=total_bytes,
        scale_factor=scale_factor,
        schema=schema,
    )


def generate_lineitem_dataset(
    store: ObjectStore,
    bucket: str = "tpch",
    prefix: str = "lineitem",
    scale_factor: float = 0.001,
    num_files: int = 4,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
    seed: int = 7,
) -> DatasetInfo:
    """Generate LINEITEM (sorted by ``l_shipdate``) and write it to the store."""
    table = LineitemGenerator(scale_factor=scale_factor, seed=seed).generate()
    return write_dataset(
        store, table, LINEITEM_SCHEMA, bucket=bucket, prefix=prefix,
        scale_factor=scale_factor, num_files=num_files,
        row_group_rows=row_group_rows, compression=compression,
    )


def generate_orders_dataset(
    store: ObjectStore,
    bucket: str = "tpch",
    prefix: str = "orders",
    scale_factor: float = 0.001,
    num_files: int = 4,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
    seed: int = 7,
) -> DatasetInfo:
    """Generate ORDERS (sorted by ``o_orderdate``) and write it to the store.

    Generated with the same ``seed`` as the LINEITEM dataset it joins
    against, the order keys cover the lineitem key domain (see
    :class:`OrdersGenerator`).
    """
    table = OrdersGenerator(scale_factor=scale_factor, seed=seed).generate()
    return write_dataset(
        store, table, ORDERS_SCHEMA, bucket=bucket, prefix=prefix,
        scale_factor=scale_factor, num_files=num_files,
        row_group_rows=row_group_rows, compression=compression,
    )


def generate_part_dataset(
    store: ObjectStore,
    bucket: str = "tpch",
    prefix: str = "part",
    scale_factor: float = 0.001,
    num_files: int = 2,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
    seed: int = 7,
) -> DatasetInfo:
    """Generate PART (the small dimension relation) and write it to the store."""
    table = PartGenerator(scale_factor=scale_factor, seed=seed).generate()
    return write_dataset(
        store, table, PART_SCHEMA, bucket=bucket, prefix=prefix,
        scale_factor=scale_factor, num_files=num_files,
        row_group_rows=row_group_rows, compression=compression,
    )


def generate_customer_dataset(
    store: ObjectStore,
    bucket: str = "tpch",
    prefix: str = "customer",
    scale_factor: float = 0.001,
    num_files: int = 2,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
    seed: int = 7,
) -> DatasetInfo:
    """Generate CUSTOMER (dense keys over the o_custkey domain) and write it."""
    table = CustomerGenerator(scale_factor=scale_factor, seed=seed).generate()
    return write_dataset(
        store, table, CUSTOMER_SCHEMA, bucket=bucket, prefix=prefix,
        scale_factor=scale_factor, num_files=num_files,
        row_group_rows=row_group_rows, compression=compression,
    )


def generate_supplier_dataset(
    store: ObjectStore,
    bucket: str = "tpch",
    prefix: str = "supplier",
    scale_factor: float = 0.001,
    num_files: int = 2,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
    seed: int = 7,
) -> DatasetInfo:
    """Generate SUPPLIER (dense keys over the l_suppkey domain) and write it."""
    table = SupplierGenerator(scale_factor=scale_factor, seed=seed).generate()
    return write_dataset(
        store, table, SUPPLIER_SCHEMA, bucket=bucket, prefix=prefix,
        scale_factor=scale_factor, num_files=num_files,
        row_group_rows=row_group_rows, compression=compression,
    )


def generate_nation_dataset(
    store: ObjectStore,
    bucket: str = "tpch",
    prefix: str = "nation",
    scale_factor: float = 0.001,
    num_files: int = 1,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
    seed: int = 7,
) -> DatasetInfo:
    """Generate the fixed 25-row NATION relation and write it."""
    table = NationGenerator(scale_factor=scale_factor, seed=seed).generate()
    return write_dataset(
        store, table, NATION_SCHEMA, bucket=bucket, prefix=prefix,
        scale_factor=scale_factor, num_files=num_files,
        row_group_rows=row_group_rows, compression=compression,
    )


def generate_region_dataset(
    store: ObjectStore,
    bucket: str = "tpch",
    prefix: str = "region",
    scale_factor: float = 0.001,
    num_files: int = 1,
    row_group_rows: int = 2048,
    compression: Compression = Compression.GZIP,
    seed: int = 7,
) -> DatasetInfo:
    """Generate the fixed 5-row REGION relation and write it."""
    table = RegionGenerator(scale_factor=scale_factor, seed=seed).generate()
    return write_dataset(
        store, table, REGION_SCHEMA, bucket=bucket, prefix=prefix,
        scale_factor=scale_factor, num_files=num_files,
        row_group_rows=row_group_rows, compression=compression,
    )

