"""UPDATE and DELETE through the planner's access path, checked against
stdlib ``sqlite3``.

The facade finds the rows a DML statement writes with the same
cost-based access path a SELECT gets: an IndexScan on an indexed key, a
SeqScan otherwise.  Each statement runs on an indexed copy, on an
unindexed copy and on sqlite; all three must end with the same table,
and the indexed copy's indexes must still hold exactly its heap rows.
Charges on an unindexed table are pinned to the full-scan path's, and a
keyed UPDATE on the indexed copy is held to one heap page.

``test_seeded_dml_differential`` draws random keyed and range statements
from ``SQL_SEED`` (default 0); CI re-rolls it over a 3-seed matrix.
"""

from __future__ import annotations

import os
import random
import sqlite3

import pytest

import repro
from repro.common.errors import ConstraintViolation, ExecutionError
from repro.exec.operators import IndexScanOp
from repro.plan.logical import IndexScan
from repro.sql import parse

SQL_SEED = int(os.environ.get("SQL_SEED", "0"))

N_ROWS = 2000


def _rows(ids) -> list[tuple]:
    """(id, k, v) rows in insertion order; ``k`` is NULL on every 17th."""
    return [(key, None if i % 17 == 0 else i % 13, i * 0.5)
            for i, key in enumerate(ids)]


def _values(row) -> str:
    return "(" + ", ".join("NULL" if v is None else repr(v)
                           for v in row) + ")"


def _load(rows, indexed: bool, buffer_pages: int = 4096):
    db = repro.connect(buffer_pages=buffer_pages)
    db.execute("CREATE TABLE t (id INT UNIQUE, k INT, v FLOAT)")
    db.execute("INSERT INTO t VALUES " + ", ".join(map(_values, rows)))
    if indexed:
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("CREATE INDEX t_k ON t (k) USING hash")
    db.execute("ANALYZE")
    return db


def _oracle(rows) -> sqlite3.Connection:
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER UNIQUE, k INTEGER, v REAL)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    return oracle


def _copies(rows):
    """An indexed copy, an unindexed copy and the sqlite oracle."""
    return (_load(rows, indexed=True), _load(rows, indexed=False),
            _oracle(rows))


def _contents(db) -> list[tuple]:
    return sorted(db.execute("SELECT id, k, v FROM t").rows)


def _oracle_contents(oracle) -> list[tuple]:
    return sorted(oracle.execute("SELECT id, k, v FROM t").fetchall())


def _assert_indexes_match_heap(db) -> None:
    """Every index holds one posting per heap row with a non-NULL key."""
    table = db.catalog.table("t")
    heap = list(table.scan())
    for entry in db.catalog.indexes_on("t"):
        position = table.schema.index_of(entry.column)
        expected = sorted((row[position], rid) for rid, row in heap
                          if row[position] is not None)
        got = sorted((key, rid) for key in {k for k, _ in expected}
                     for rid in entry.index.search(key))
        assert got == expected, entry.name
        assert len(entry.index) == len(expected), entry.name


def _run_everywhere(sql, indexed, plain, oracle) -> None:
    got = indexed.execute(sql)
    want = plain.execute(sql)
    changed = oracle.execute(sql).rowcount
    assert got.extra["rowcount"] == want.extra["rowcount"] == changed, sql


# ids inserted in a scrambled order, so heap order is not key order
SCRAMBLED = [(i * 7919) % N_ROWS for i in range(N_ROWS)]

# (statement, whether the indexed copy finds its victims by IndexScan)
DML_CASES = [
    ("UPDATE t SET v = -1.5 WHERE id = 77", True),
    ("UPDATE t SET v = v * 2, k = NULL WHERE id < 40", True),
    ("UPDATE t SET k = 5 WHERE id >= 1990", True),
    ("UPDATE t SET v = 0.25 WHERE id > 500 AND id <= 530", True),
    ("UPDATE t SET v = v + 1 WHERE 600 > id AND id >= 590 AND k = 3", True),
    ("UPDATE t SET id = id + 100000 WHERE id >= 1000 AND id < 1010", True),
    ("UPDATE t SET k = k + 1 WHERE k = 4", True),
    ("UPDATE t SET v = 0 WHERE v > 900", False),
    ("DELETE FROM t WHERE id = 1234", True),
    ("DELETE FROM t WHERE id <= 15", True),
    ("DELETE FROM t WHERE id > 1980", True),
    ("DELETE FROM t WHERE id > 700 AND id < 750", True),
    ("DELETE FROM t WHERE 300 > id AND k = 4", True),
    ("DELETE FROM t WHERE k IS NULL", False),
    ("DELETE FROM t WHERE id = 'a'", False),
]


@pytest.mark.parametrize("sql,uses_index", DML_CASES,
                         ids=[sql for sql, _ in DML_CASES])
def test_dml_matches_sqlite(sql, uses_index):
    indexed, plain, oracle = _copies(_rows(SCRAMBLED))
    path = indexed.planner.access_path("t", parse(sql).where)
    assert isinstance(path, IndexScan) == uses_index
    assert not isinstance(plain.planner.access_path("t", parse(sql).where),
                          IndexScan)
    _run_everywhere(sql, indexed, plain, oracle)
    expected = _oracle_contents(oracle)
    assert _contents(indexed) == expected
    assert _contents(plain) == expected
    _assert_indexes_match_heap(indexed)
    oracle.close()


def test_unique_violation_meets_the_same_row():
    """Victims are written in heap order on both paths, so a multi-row
    UPDATE of the UNIQUE column fails at the same row and leaves the same
    rows moved.  The refused row keeps its index entries."""
    ids = [key for key in SCRAMBLED if not 1100 <= key < 1120] + [1107]
    rows = _rows(ids)
    indexed, plain = _load(rows, indexed=True), _load(rows, indexed=False)
    sql = "UPDATE t SET id = id + 1000 WHERE id >= 100 AND id < 120"
    assert isinstance(indexed.planner.access_path("t", parse(sql).where),
                      IndexScan)
    errors = []
    for db in (indexed, plain):
        with pytest.raises(ConstraintViolation) as info:
            db.execute(sql)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert "1107" in errors[0]
    assert _contents(indexed) == _contents(plain)
    moved = [row for row in _contents(plain) if 1100 <= row[0] < 1120]
    assert 1 < len(moved) < 20   # some rows moved before the failing one
    _assert_indexes_match_heap(indexed)
    assert indexed.execute("SELECT id FROM t WHERE id = 107").rows == [(107,)]


def test_delete_of_a_null_indexed_key():
    """NULL keys are never indexed; deleting their rows skips the index."""
    indexed, plain, oracle = _copies(_rows(range(50)) + [(None, 1, 1.0)])
    for sql in ("UPDATE t SET v = 2.5 WHERE id IS NULL",
                "DELETE FROM t WHERE id IS NULL OR id = 3"):
        _run_everywhere(sql, indexed, plain, oracle)
    assert _contents(indexed) == _contents(plain) == sorted(
        oracle.execute("SELECT id, k, v FROM t").fetchall())
    _assert_indexes_match_heap(indexed)
    oracle.close()


def test_unindexed_dml_charges_the_full_scan():
    """With no index every victim search is the full ``table.scan()`` it
    always was: the charged totals are pinned to that path's, bit for
    bit, in a 4-page pool that makes most page touches misses."""
    db = _load(_rows([(i * 7919) % 1500 for i in range(1500)]),
               indexed=False, buffer_pages=4)
    db.clock.reset()
    for sql in ["UPDATE t SET v = v + 1 WHERE id = 42",
                "UPDATE t SET k = 3 WHERE id >= 100 AND id < 140",
                "DELETE FROM t WHERE id < 20",
                "DELETE FROM t WHERE 1490 <= id",
                "UPDATE t SET v = 0.5 WHERE k = 3"]:
        db.execute(sql)
    assert db.clock.breakdown() == {"buffer-miss": 0.0022499999999999994,
                                    "buffer-hit": 0.0003820000000000028,
                                    "heap-update": 3.720000000000004e-05,
                                    "heap-delete": 5.999999999999996e-06}


def test_keyed_update_touches_one_heap_page():
    """The buffer pool sees one page for a keyed UPDATE on the indexed
    copy, and every page of the table on the unindexed one."""
    sql = "UPDATE t SET v = 9.5 WHERE id = 1234"
    for indexed in (True, False):
        db = _load(_rows(SCRAMBLED), indexed=indexed)
        pool = db.buffer_pool
        pool.evict_table("t")
        db.execute(sql)
        pages = db.catalog.table("t").page_count
        assert pages > 5
        assert pool.resident_pages == (1 if indexed else pages)


@pytest.mark.parametrize("node", [
    IndexScan(table="t", binding="t", index_name="gone", column="id", eq=1),
    IndexScan(table="t", binding="t", index_name="t_k", column="k", low=1),
])
def test_unreadable_index_raises_before_any_charge(node):
    """A missing index, or a range over a hash index, is refused when the
    operator is built, before the index descent is charged."""
    db = _load(_rows(range(50)), indexed=True)
    db.clock.reset()
    with pytest.raises(ExecutionError):
        IndexScanOp(node, db.catalog, db.clock)
    assert db.clock.now == 0.0


# -- seeded differential -------------------------------------------------

STATEMENTS = 150


def _random_where(rng: random.Random) -> str:
    """A keyed, one-sided, two-sided or flipped range, or a non-key
    filter."""
    low = rng.randrange(-5, N_ROWS + 5)
    width = rng.randrange(0, 40)
    shape = rng.randrange(7)
    if shape == 0:
        return f"id = {low}"
    if shape == 1:
        return f"id {rng.choice(['<', '<=', '>', '>='])} {low}"
    if shape == 2:
        return (f"id {rng.choice(['>', '>='])} {low} AND "
                f"id {rng.choice(['<', '<='])} {low + width}")
    if shape == 3:
        return (f"{low + width} {rng.choice(['>', '>='])} id AND "
                f"{low} {rng.choice(['<', '<='])} id")
    if shape == 4:
        return f"k = {rng.randrange(13)} AND id < {low}"
    if shape == 5:
        return f"id >= {low} AND id < {low + width} AND v > {low * 0.25}"
    return f"v < {rng.uniform(0, N_ROWS * 0.5):.3f}"


def _random_statement(rng: random.Random, n: int, where: str) -> str:
    """An UPDATE or DELETE of the rows ``where`` selects.  An UPDATE of
    ``id`` adds a statement-unique multiple of 10**6, so ids stay
    distinct modulo 10**6 and never collide."""
    if rng.random() < 0.3:
        return f"DELETE FROM t WHERE {where}"
    assignments = rng.choice([
        f"v = {rng.uniform(-10, 10):.3f}",
        "v = v * 2, k = NULL",
        f"k = {rng.randrange(13)}",
        f"id = id + {(n + 1) * 10 ** 6}",
    ])
    return f"UPDATE t SET {assignments} WHERE {where}"


def test_seeded_dml_differential():
    """Random keyed and range DML on indexed and unindexed copies of one
    table agrees with sqlite statement by statement.  Before each
    statement, a SELECT of the rows it is about to write agrees too: DML
    re-checks the full WHERE on every candidate, the SELECT does not."""
    rng = random.Random(SQL_SEED)
    ids = list(range(N_ROWS))
    rng.shuffle(ids)
    indexed, plain, oracle = _copies(_rows(ids))
    index_paths = 0
    for n in range(STATEMENTS):
        where = _random_where(rng)
        select = f"SELECT id, k, v FROM t WHERE {where}"
        assert sorted(indexed.execute(select).rows) == sorted(
            oracle.execute(select).fetchall()), select
        sql = _random_statement(rng, n, where)
        index_paths += isinstance(
            indexed.planner.access_path("t", parse(sql).where), IndexScan)
        _run_everywhere(sql, indexed, plain, oracle)
        if n % 10 == 9:
            expected = _oracle_contents(oracle)
            assert _contents(indexed) == expected, sql
            assert _contents(plain) == expected, sql
    assert _contents(indexed) == _contents(plain) == _oracle_contents(oracle)
    _assert_indexes_match_heap(indexed)
    assert index_paths > STATEMENTS // 2
    oracle.close()
