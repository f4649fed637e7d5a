"""Answers from stdlib ``sqlite3`` to check the database's results against.

The oracle holds its own copy of the generated rows, loaded outside any
timed region, and applies the same writes the workload sends to the
database under test, so every read can be compared with an independent
implementation of the same SQL.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Iterable, Sequence

#: Relative and absolute tolerance for floats, which the two engines may
#: sum in different orders.
REL_TOL = 1e-9
ABS_TOL = 1e-9


class SqliteOracle:
    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:")

    def load(self, ddl: str, table: str, rows: Iterable[Sequence[Any]]
             ) -> None:
        rows = list(rows)
        self.conn.execute(ddl)
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            self.conn.executemany(
                f"INSERT INTO {table} VALUES ({marks})", rows)
        self.conn.commit()

    def query(self, sql: str) -> list[tuple]:
        return self.conn.execute(sql).fetchall()

    def execute(self, sql: str) -> int:
        """Run a write; returns the number of rows it changed."""
        return self.conn.execute(sql).rowcount

    def close(self) -> None:
        self.conn.close()


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def _sort_key(row: Sequence[Any]) -> tuple:
    return tuple((0, 0) if v is None
                 else (1, v) if isinstance(v, (int, float))
                 else (2, str(v)) for v in row)


def compare(actual: Sequence[Sequence[Any]],
            expected: Sequence[Sequence[Any]],
            ordered: bool) -> str | None:
    """None when the rows agree, else a one-line description of the first
    difference.  Unordered results are compared after sorting both sides
    (the group keys the workloads use are exact, so floats never decide
    the order)."""
    if len(actual) != len(expected):
        return f"row count {len(actual)} != expected {len(expected)}"
    if not ordered:
        actual = sorted(actual, key=_sort_key)
        expected = sorted(expected, key=_sort_key)
    for i, (got, want) in enumerate(zip(actual, expected)):
        if len(got) != len(want) or not all(
                _values_equal(a, b) for a, b in zip(got, want)):
            return f"row {i}: {tuple(got)!r} != expected {tuple(want)!r}"
    return None
