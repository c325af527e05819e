"""In-memory tables with typed, dictionary-encoded columns and primary keys.

Each column keeps its distinct values in first-seen order (NULL is one
of them) and one int32 code per row. A float is keyed by its ``repr``,
so ``0.0`` and ``-0.0`` stay apart and every NaN is one entry, as in the
UDF cache key; a column holds one type, so any other value is its own
key. Row dicts hold the dictionary's objects, so the row-at-a-time oracle
and the column executor see the same values.
"""

from __future__ import annotations

import numbers
from array import array
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.exceptions import SQLExecutionError

__all__ = ["Column", "Table"]

_TYPES = {
    "integer": int,
    "int": int,
    "real": float,
    "float": float,
    "text": str,
    "str": str,
}


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    dtype: str = "text"
    not_null: bool = False

    def coerce(self, value: Any) -> Any:
        if value is None:
            if self.not_null:
                raise SQLExecutionError(f"column {self.name!r} is NOT NULL")
            return None
        caster = _TYPES.get(self.dtype.lower())
        if caster is None:
            raise SQLExecutionError(f"unknown column type {self.dtype!r}")
        try:
            coerced = caster(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SQLExecutionError(
                f"cannot store {value!r} in {self.dtype} column {self.name!r}"
            ) from exc
        if caster is int and isinstance(value, numbers.Real) and coerced != value:
            raise SQLExecutionError(
                f"cannot store {value!r} in {self.dtype} column {self.name!r} "
                f"without truncating it"
            )
        return coerced


@dataclass
class Table:
    """A named table: columns, rows as dicts, and each column's encoding."""

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...] = ()
    rows: list[dict[str, Any]] = field(default_factory=list, init=False)
    _pk_index: set[tuple] = field(default_factory=set, init=False, repr=False)
    #: per column: (distinct values, their codes by key, a code per row)
    _encoded: dict[str, tuple[list, dict, array]] = field(
        init=False, repr=False, compare=False)
    #: per column, its codes as an array, kept until the next insert
    _arrays: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SQLExecutionError(f"duplicate column names in {self.name!r}: {names}")
        for key in self.primary_key:
            if key not in names:
                raise SQLExecutionError(f"primary key column {key!r} not in table {self.name!r}")
        self._encoded = {name: ([], {}, array("i")) for name in names}

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def insert(self, **values: Any) -> None:
        """Insert one row (missing columns become NULL; a key column refuses it)."""
        unknown = sorted(set(values) - set(self.column_names))
        if unknown:
            raise SQLExecutionError(f"unknown columns for {self.name!r}: {unknown}")
        row = {c.name: c.coerce(values.get(c.name)) for c in self.columns}
        if self.primary_key:
            key = tuple(row[k] for k in self.primary_key)
            if None in key:
                raise SQLExecutionError(
                    f"primary key column {self.primary_key[key.index(None)]!r} "
                    f"of {self.name!r} is NOT NULL"
                )
            if key in self._pk_index:
                raise SQLExecutionError(
                    f"duplicate primary key {key!r} in table {self.name!r}"
                )
            self._pk_index.add(key)
        for name, (distinct, index, codes) in self._encoded.items():
            value = row[name]
            code = index.setdefault(repr(value) if type(value) is float else value,
                                    len(distinct))
            if code == len(distinct):
                distinct.append(value)
            codes.append(code)
            row[name] = distinct[code]
        self._arrays.clear()
        self.rows.append(row)

    def encoded(self, name: str) -> tuple[np.ndarray, list[Any]] | None:
        """Column ``name``'s ``(codes, distinct values)``; None if absent.

        The name resolves as the oracle resolves a row key: exactly,
        then lower-cased.
        """
        name = name if name in self._encoded else name.lower()
        if name not in self._encoded:
            return None
        if name not in self._arrays:
            self._arrays[name] = np.array(self._encoded[name][2], dtype=np.int32)
        return self._arrays[name], self._encoded[name][0]

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)
