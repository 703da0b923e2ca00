"""Schema definitions for the columnar format and the query engine.

The paper's prototype does not support strings (it modifies ``dbgen`` to emit
numbers instead), so the type system is intentionally small: 32/64-bit
integers and 64-bit floats.  Dates are represented as integer days since
1970-01-01, which is how the generator stores ``l_shipdate``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.errors import SchemaMismatchError, UnknownColumnError, UnsupportedTypeError


class ColumnType(enum.Enum):
    """Logical column types supported by the engine."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"

    def __init__(self, name: str):
        #: The NumPy dtype used to hold columns of this type.
        self.numpy_dtype = np.dtype(name)
        #: Size of one value in bytes (plain encoding).
        self.item_size = self.numpy_dtype.itemsize

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "ColumnType":
        """Map a NumPy dtype to a column type."""
        dtype = np.dtype(dtype)
        for member in cls:
            if member.numpy_dtype == dtype:
                return member
        # Integer dtypes narrower than 32 bits are widened.
        if np.issubdtype(dtype, np.integer):
            return cls.INT64 if dtype.itemsize > 4 else cls.INT32
        if np.issubdtype(dtype, np.floating):
            return cls.FLOAT64
        raise UnsupportedTypeError(f"unsupported dtype {dtype}")


@dataclass(frozen=True)
class Field:
    """A named, typed column."""

    name: str
    type: ColumnType


class Schema:
    """An ordered collection of fields with name-based lookup."""

    def __init__(self, fields: Iterable[Field]):
        self._fields: List[Field] = list(fields)
        self._by_name: Dict[str, int] = {}
        for index, field in enumerate(self._fields):
            if field.name in self._by_name:
                raise SchemaMismatchError(f"duplicate column name {field.name!r}")
            self._by_name[field.name] = index

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, ColumnType]]) -> "Schema":
        """Build a schema from ``(name, type)`` pairs."""
        return cls(Field(name, ctype) for name, ctype in pairs)

    @classmethod
    def from_table(cls, table: Dict[str, np.ndarray]) -> "Schema":
        """Infer a schema from a dict of NumPy columns."""
        return cls(
            Field(name, ColumnType.from_numpy(column.dtype))
            for name, column in table.items()
        )

    # -- access ----------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        """Column names in schema order."""
        return [field.name for field in self._fields]

    @property
    def fields(self) -> List[Field]:
        """Fields in schema order."""
        return list(self._fields)

    def field(self, name: str) -> Field:
        """Look up a field by name."""
        if name not in self._by_name:
            raise UnknownColumnError(name)
        return self._fields[self._by_name[name]]

    def index_of(self, name: str) -> int:
        """Position of a column in the schema."""
        if name not in self._by_name:
            raise UnknownColumnError(name)
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.type.value}" for f in self._fields)
        return f"Schema({inner})"

    # -- helpers -----------------------------------------------------------------

    def select(self, names: Iterable[str]) -> "Schema":
        """A new schema containing only ``names`` (in the given order)."""
        return Schema(self.field(name) for name in names)

    def validate_table(self, table: Dict[str, np.ndarray]) -> None:
        """Check that a dict of columns matches this schema exactly.

        All columns must be present, no extra columns are allowed, all columns
        must have equal length, and dtypes must be convertible to the declared
        type.
        """
        missing = [name for name in self.names if name not in table]
        if missing:
            raise SchemaMismatchError(f"missing columns: {missing}")
        extra = [name for name in table if name not in self]
        if extra:
            raise SchemaMismatchError(f"unexpected columns: {extra}")
        lengths = {name: len(column) for name, column in table.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaMismatchError(f"columns have differing lengths: {lengths}")
