"""Regression tests for SQL semantics checked against stdlib ``sqlite3``:
three-valued ``IN``/``NOT IN`` with a NULL in the list, ``%`` as the SQL
remainder (sign of the dividend), ORDER BY keys that are not in the
select list, over-deep expressions and malformed numbers raising
:class:`ParseError` rather than ``RecursionError`` or ``ValueError``, the
source position a string token reports, exact strict bounds on B+-tree
index scans, comparisons with the literal on the left, a TEXT BETWEEN
on an analyzed table, and ``;`` inside a string or a comment of a
script.

Each sqlite-checked query runs on the row engine and on the batch engine,
whose WHERE clauses go through the vectorized evaluators, so both
evaluators are held to the same answer.
"""

from __future__ import annotations

import sqlite3

import pytest

import repro
from repro.common.errors import BindError, ParseError
from repro.exec.executor import Executor
from repro.plan.cardinality import column_literal
from repro.plan.logical import IndexScan
from repro.sql import ast, parse, parse_script, tokenize
from repro.sql.parser import MAX_EXPR_DEPTH, MAX_EXPR_NESTING

ROWS = [(1, 7, "x", -7.5), (2, -7, "y", 7.5), (3, 3, None, 2.0),
        (4, None, "x", None), (5, 0, "z", -2.0), (6, -3, "y", 0.5),
        (7, 10, "w", 3.25)]

SQLITE_QUERIES = [
    "SELECT id FROM t WHERE a IN (3, NULL)",
    "SELECT id FROM t WHERE a NOT IN (3, NULL)",
    "SELECT id FROM t WHERE a NOT IN (3, -7)",
    "SELECT id FROM t WHERE NOT (a IN (7, NULL))",
    "SELECT id FROM t WHERE a IN (NULL)",
    "SELECT id FROM t WHERE a NOT IN (NULL)",
    "SELECT id, a IN (3, NULL), a NOT IN (3, NULL) FROM t",
    "SELECT id FROM t WHERE s IN ('x', NULL)",
    "SELECT id FROM t WHERE s NOT IN ('x', NULL)",
    "SELECT id, s NOT IN ('x', NULL) FROM t",
    "SELECT id, a % 3, a % -3, -a % 3, -a % -3 FROM t",
    "SELECT id FROM t WHERE a % 3 = -1",
    "SELECT id FROM t WHERE a % -4 = 3",
    "SELECT id FROM t WHERE a % 2 <> 0",
    "SELECT -7 % 3, 7 % -3, -7 % -3, 7 % 3",
    "SELECT s, sum(a) % 4, sum(a) % -4 FROM t GROUP BY s",
]


@pytest.fixture(scope="module")
def dbs():
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, a INT, s TEXT, b FLOAT)")
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INTEGER, a INTEGER, s TEXT, b REAL)")
    for row in ROWS:
        values = ", ".join("NULL" if v is None else repr(v) for v in row)
        db.execute(f"INSERT INTO t VALUES ({values})")
        oracle.execute(f"INSERT INTO t VALUES ({values})")
    db.execute("ANALYZE")
    yield db, oracle
    oracle.close()


def _normalized(rows):
    """sqlite spells booleans 0/1; order is not part of these queries."""
    out = [tuple(int(v) if isinstance(v, bool) else v for v in row)
           for row in rows]
    return sorted(out, key=repr)


@pytest.mark.parametrize("engine", ["row", "batch"])
@pytest.mark.parametrize("sql", SQLITE_QUERIES)
def test_matches_sqlite(dbs, sql, engine):
    db, oracle = dbs
    plan = db.planner.plan_select(parse(sql))
    got = Executor(db.catalog, db.clock, engine=engine).run(plan).rows
    assert _normalized(got) == _normalized(oracle.execute(sql).fetchall())


@pytest.mark.parametrize("engine", ["row", "batch"])
def test_float_remainder_takes_the_dividend_sign(dbs, engine):
    """sqlite truncates float operands of ``%`` to integers; here a float
    operand gives the C ``fmod`` remainder, with the dividend's sign."""
    db, _ = dbs
    plan = db.planner.plan_select(parse(
        "SELECT id, b % 2 FROM t WHERE b % 2 < 0"))
    got = Executor(db.catalog, db.clock, engine=engine).run(plan).rows
    assert sorted(got) == [(1, -1.5)]


def test_integer_division_returns_a_float(dbs):
    db, _ = dbs
    assert db.execute("SELECT 7 / 2, -7 / 2").rows == [(3.5, -3.5)]


# ORDER BY keys outside the select list: hidden sort columns that a
# Project above the sort drops.  Keys are tie-free on this data, so the
# row order itself is compared.
ORDER_ROWS = [(1, "a", 3.0), (2, "b", 10.0), (3, "a", 4.5), (4, "c", 1.0),
              (5, "b", 2.0), (6, "a", 0.25), (7, "a", 6.0)]

ORDER_QUERIES = [
    "SELECT v FROM o ORDER BY id DESC LIMIT 3",
    "SELECT g, count(*) FROM o GROUP BY g ORDER BY count(*) DESC",
    "SELECT g FROM o GROUP BY g ORDER BY sum(v)",
    "SELECT g, count(*) AS n FROM o GROUP BY g ORDER BY sum(v) DESC, n",
    "SELECT o.v FROM o ORDER BY o.id DESC",
    "SELECT g, v FROM o WHERE v > 1 ORDER BY id",
    "SELECT v + 1 FROM o ORDER BY -id",
    "SELECT g, max(v), min(v) FROM o GROUP BY g ORDER BY avg(v)",
    "SELECT id FROM o ORDER BY g DESC, v",
    "SELECT g FROM o GROUP BY g ORDER BY max(v) - min(v) DESC",
]


@pytest.fixture(scope="module")
def order_dbs():
    db = repro.connect()
    db.execute("CREATE TABLE o (id INT UNIQUE, g TEXT, v FLOAT)")
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE o (id INTEGER, g TEXT, v REAL)")
    for row in ORDER_ROWS:
        db.execute(f"INSERT INTO o VALUES {row!r}")
        oracle.execute(f"INSERT INTO o VALUES {row!r}")
    db.execute("ANALYZE")
    yield db, oracle
    oracle.close()


@pytest.mark.parametrize("engine", ["row", "batch", "parallel",
                                    "distributed"])
@pytest.mark.parametrize("sql", ORDER_QUERIES)
def test_order_by_keys_outside_the_select_list(order_dbs, sql, engine):
    db, oracle = order_dbs
    plan = db.planner.plan_select(parse(sql))
    result = Executor(db.catalog, db.clock, engine=engine).run(plan)
    expected = oracle.execute(sql)
    assert result.rows == expected.fetchall()
    assert len(result.columns) == len(expected.description)


def test_order_by_hidden_key_under_distinct_raises(order_dbs):
    db, _ = order_dbs
    with pytest.raises(BindError, match="SELECT DISTINCT"):
        db.execute("SELECT DISTINCT g FROM o ORDER BY v")
    assert db.execute("SELECT DISTINCT g FROM o ORDER BY g").rows == [
        ("a",), ("b",), ("c",)]


OVER_DEEP = [
    "SELECT " + "(" * 200 + "a" + ")" * 200 + " FROM t",
    "SELECT " + " + ".join(["a"] * 3000) + " FROM t",
    "SELECT id FROM t WHERE " + "NOT " * 3000 + "a = 1",
    "SELECT " + "- " * 3000 + "a FROM t",
    "SELECT id FROM t WHERE a IN (" + "(" * 100 + "1" + ")" * 100 + ")",
]


@pytest.mark.parametrize("sql", OVER_DEEP, ids=["parens", "chain", "not",
                                                "minus", "in-item"])
def test_over_deep_expressions_raise_parse_error(sql):
    with pytest.raises(ParseError, match="too deep|nested too deeply"):
        parse(sql)


AT_LIMIT = [
    "SELECT " + " + ".join(["a"] * MAX_EXPR_DEPTH) + " FROM t",
    "SELECT id FROM t WHERE "
    + " OR ".join(f"a = {i}" for i in range(MAX_EXPR_DEPTH // 2)),
    "SELECT " + "(" * (MAX_EXPR_NESTING - 1) + "a"
    + ")" * (MAX_EXPR_NESTING - 1) + " FROM t",
    "SELECT id FROM t WHERE " + "NOT " * (MAX_EXPR_DEPTH - 2) + "a = 1",
]


@pytest.mark.parametrize("sql", AT_LIMIT, ids=["chain", "or", "parens",
                                               "not"])
def test_expressions_at_the_limit_run_everywhere(dbs, sql):
    """The limits leave room for every later stage: the deepest accepted
    expression plans and runs on every engine and under EXPLAIN ANALYZE."""
    db, _ = dbs
    plan = db.planner.plan_select(parse(sql))
    results = [Executor(db.catalog, db.clock, engine=engine).run(plan).rows
               for engine in ("row", "batch", "parallel", "distributed")]
    assert all(rows == results[0] for rows in results)
    db.execute("EXPLAIN ANALYZE " + sql)


# A malformed number is lexed as one NUMBER token; the parser converted it
# with float() and the ValueError escaped parse() and db.execute().  sqlite3
# rejects all four spellings too.
MALFORMED_NUMBERS = ["SELECT 1e", "SELECT 1.2.3", "SELECT 3e+", "SELECT 1..2"]


@pytest.mark.parametrize("sql", MALFORMED_NUMBERS)
def test_malformed_numbers_raise_parse_error(dbs, sql):
    db, oracle = dbs
    with pytest.raises(sqlite3.Error):
        oracle.execute(sql)
    with pytest.raises(ParseError, match="malformed number") as info:
        parse(sql)
    assert info.value.position == len("SELECT ")
    with pytest.raises(ParseError, match="malformed number"):
        db.execute(sql)


def test_string_tokens_carry_their_start_position():
    """A STRING token used to record the offset after its closing quote."""
    with pytest.raises(ParseError, match="trailing input 'bcd'") as info:
        parse("SELECT 'a' 'bcd'")
    assert info.value.position == 11
    assert [t.position for t in tokenize("'it''s' , 'x'")] == [0, 8, 10, 13]


# B+-tree index scans over n.id (0..1999) and n.s.  A strict bound used
# to scan inclusively with no residual left to drop the boundary row:
# ``id < 3`` returned 0..3.
INDEX_QUERIES = [
    "SELECT id FROM n WHERE id < 3",
    "SELECT id FROM n WHERE id <= 3",
    "SELECT id FROM n WHERE id > 1996",
    "SELECT id FROM n WHERE id >= 1996",
    "SELECT id FROM n WHERE id > 5 AND id < 9",
    "SELECT id FROM n WHERE id >= 5 AND id <= 9",
    "SELECT id FROM n WHERE id > 5 AND id <= 9",
    "SELECT id FROM n WHERE id >= 5 AND id < 9",
    "SELECT id FROM n WHERE id < 9 AND s <> 's7' AND id > 5",
    "SELECT id FROM n WHERE 3 > id",
    "SELECT id FROM n WHERE 1996 <= id",
    "SELECT id FROM n WHERE 9 > id AND 5 < id",
    "SELECT id FROM n WHERE id < 2.5",
    "SELECT id FROM n WHERE id > 9 AND id < 5",
]


@pytest.fixture(scope="module")
def index_dbs():
    db = repro.connect()
    db.execute("CREATE TABLE n (id INT UNIQUE, s TEXT)")
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE n (id INTEGER, s TEXT)")
    rows = [(i, f"s{i % 50}") for i in range(2000)]
    db.execute("INSERT INTO n VALUES "
               + ", ".join(repr(row) for row in rows))
    oracle.executemany("INSERT INTO n VALUES (?, ?)", rows)
    db.execute("CREATE INDEX n_id ON n (id)")
    db.execute("CREATE INDEX n_s ON n (s)")
    db.execute("ANALYZE")
    yield db, oracle
    oracle.close()


def _leaves(node):
    if not node.children:
        return [node]
    return [leaf for child in node.children for leaf in _leaves(child)]


@pytest.mark.parametrize("engine", ["row", "batch"])
@pytest.mark.parametrize("sql", INDEX_QUERIES)
def test_index_scan_bounds_match_sqlite(index_dbs, sql, engine):
    db, oracle = index_dbs
    plan = db.planner.plan_select(parse(sql))
    assert isinstance(_leaves(plan)[0], IndexScan)
    got = Executor(db.catalog, db.clock, engine=engine).run(plan).rows
    assert _normalized(got) == _normalized(oracle.execute(sql).fetchall())


@pytest.mark.parametrize("sql", [
    "SELECT id FROM n WHERE s > 's48' AND id < 100",
    "SELECT id FROM n WHERE s >= 's7' AND s < 's8'",
])
def test_text_range_on_an_index_matches_sqlite(index_dbs, sql):
    """Costing a TEXT range on an index took ``float('s48')`` and raised a
    bare ValueError."""
    db, oracle = index_dbs
    assert _normalized(db.execute(sql).rows) == _normalized(
        oracle.execute(sql).fetchall())


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("sql", [
    "SELECT id FROM n WHERE s BETWEEN 's2' AND 's4'",
    "SELECT id FROM n WHERE s NOT BETWEEN 's2' AND 's4'",
    "UPDATE n SET s = 'moved' WHERE s BETWEEN 's2' AND 's4'",
    "DELETE FROM n WHERE s BETWEEN 's2' AND 's4'",
])
def test_text_between_on_an_analyzed_table_matches_sqlite(sql, indexed):
    """Estimating a TEXT BETWEEN on an analyzed table took ``float('s2')``
    and raised a bare ValueError; UPDATE and DELETE meet the estimator
    too, since they plan their access path."""
    db = repro.connect()
    db.execute("CREATE TABLE n (id INT, s TEXT)")
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE n (id INTEGER, s TEXT)")
    rows = [(i, f"s{i % 7}") for i in range(300)]
    db.execute("INSERT INTO n VALUES "
               + ", ".join(repr(row) for row in rows))
    oracle.executemany("INSERT INTO n VALUES (?, ?)", rows)
    if indexed:
        db.execute("CREATE INDEX n_s ON n (s)")
    db.execute("ANALYZE")
    got = db.execute(sql).rows
    want = oracle.execute(sql).fetchall()
    if sql.startswith("SELECT"):
        assert _normalized(got) == _normalized(want)
    final = "SELECT id, s FROM n"
    assert _normalized(db.execute(final).rows) == _normalized(
        oracle.execute(final).fetchall())
    oracle.close()


def test_literal_of_another_type_skips_the_index(index_dbs):
    """``id = 'a'`` cannot be looked up in an integer B+-tree (the lookup
    raised a bare TypeError); it is filtered by a scan instead."""
    db, oracle = index_dbs
    sql = "SELECT id FROM n WHERE id = 'a'"
    assert not isinstance(_leaves(db.planner.plan_select(parse(sql)))[0],
                          IndexScan)
    assert db.execute(sql).rows == oracle.execute(sql).fetchall() == []


MIRRORS = [("3 > id", "id < 3"), ("1996 <= id", "id >= 1996"),
           ("5 = id", "id = 5"), ("3 <> id", "id <> 3"),
           ("9 > id AND 5 < id", "id < 9 AND id > 5")]


@pytest.mark.parametrize("flipped,mirror", MIRRORS)
def test_flipped_comparison_plans_like_its_mirror(index_dbs, flipped,
                                                  mirror):
    """``3 > id`` kept the op ``>`` with the column on the left: it was
    estimated as ``id > 3`` (1997 rows) and took a SeqScan."""
    db, _ = index_dbs
    assert (db.execute(f"EXPLAIN SELECT id FROM n WHERE {flipped}").rows
            == db.execute(f"EXPLAIN SELECT id FROM n WHERE {mirror}").rows)


def test_column_literal_mirrors_the_operator():
    def where(text):
        return parse(f"SELECT 1 FROM n WHERE {text}").where

    column, op, value = column_literal(where("3 > id"))
    assert (column.name, op, value) == ("id", "<", 3)
    assert column_literal(where("id >= 2"))[1:] == (">=", 2)
    assert column_literal(where("'a%' LIKE s")) is None
    assert column_literal(where("id = s")) is None


def test_script_splits_only_at_statement_semicolons():
    """``parse_script`` split the text at every ``;``, inside string
    literals and ``--`` comments too."""
    insert, select = parse_script("INSERT INTO t VALUES ('a;b'); SELECT 1")
    assert isinstance(insert, ast.Insert)
    assert insert.rows[0][0].value == "a;b"
    assert isinstance(select, ast.Select)
    (statement,) = parse_script("SELECT 1 -- done; really\nFROM t")
    assert statement.from_table.name == "t"
    assert len(parse_script("SELECT 1;; SELECT 2;")) == 2
    db = repro.connect()
    db.execute_script("CREATE TABLE q (s TEXT); "
                      "INSERT INTO q VALUES ('x;y'); -- a; comment\n"
                      "INSERT INTO q VALUES (';')")
    assert db.execute("SELECT s FROM q").rows == [("x;y",), (";",)]
