"""Seeded SQL-text mutation fuzz: whatever the text, only the package's own
error taxonomy (:class:`NeurDBError` subclasses) may escape ``parse()``.

A corpus of dialect statements is mutated by inserting, deleting and
duplicating characters; every mutant either parses to a statement or
raises a ``NeurDBError``.  A bare ``ValueError``, ``IndexError`` or
``RecursionError`` is a bug.  The over-deep expressions of the depth
limits ride along, whole and mutated.

The mutation stream is seeded and env-selectable like the other sweeps:
set ``SQL_SEED`` to re-roll every mutant (CI runs a 3-seed matrix).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.common.errors import NeurDBError, ParseError
from repro.sql import ast, parse

SQL_SEED = int(os.environ.get("SQL_SEED", "0"))

MUTANTS_PER_STATEMENT = 1000
MUTANTS_PER_DEEP_CASE = 10

CORPUS = [
    "SELECT a, b + 1 AS c FROM t WHERE a > 3 AND b IS NOT NULL",
    "SELECT t.a, d.region FROM t JOIN d ON t.k = d.k "
    "WHERE d.region LIKE 'e%'",
    "SELECT grp, count(*), sum(v), avg(w) FROM t "
    "WHERE v BETWEEN .25 AND 0.75 GROUP BY grp ORDER BY grp DESC "
    "LIMIT 10 OFFSET 2",
    "SELECT DISTINCT t.k FROM t CROSS JOIN d WHERE t.k = d.k "
    "ORDER BY t.k, 2 ASC",
    "INSERT INTO t VALUES (1, 'it''s', .5, 1e-3, NULL), "
    "(2, 'b', -0.5, 2E+3, TRUE), (3, '''', 10, 4.25e2, FALSE)",
    "INSERT INTO t (id, grp) VALUES (4, 'x'), (5, '')",
    "UPDATE t SET v = v * 2, grp = 'z' WHERE id % 7 = 3",
    "DELETE FROM t WHERE id IN (1, 2, 3) OR v NOT BETWEEN 0 AND 1",
    "PREDICT VALUE OF score FROM review WHERE id < 10 TRAIN ON * "
    "WITH (refresh = auto) VALUES (1, 'a', 0.5), (2, 'b', 1e2)",
    "PREDICT CLASS OF outcome FROM diabetes TRAIN ON f1, f2 "
    "WITH f1 > 0 VALUES (1.5, 2)",
    "CREATE TABLE t (id INT UNIQUE NOT NULL, grp TEXT, v FLOAT) "
    "WITH (partition = id, shards = 4)",
    "CREATE INDEX t_id ON t (id) USING hash",
    "EXPLAIN ANALYZE SELECT grp, max(v) FROM t -- trailing comment\n"
    " WHERE NOT (v <> 1) GROUP BY grp",
    "DROP TABLE IF EXISTS t;",
    "ANALYZE t",
]

# ROADMAP 3(d): each must be a ParseError, never a RecursionError
DEEP = [
    "SELECT " + "(" * 200 + "a" + ")" * 200 + " FROM t",
    "SELECT " + " + ".join(["a"] * 3000) + " FROM t",
    "SELECT id FROM t WHERE " + "NOT " * 3000 + "a = 1",
    "SELECT " + "- " * 3000 + "a FROM t",
    "SELECT id FROM t WHERE a IN (" + "(" * 100 + "1" + ")" * 100 + ")",
    "INSERT INTO t VALUES (" + "(" * 200 + "1" + ")" * 200 + ")",
    "INSERT INTO t VALUES (1, " + " + ".join(["1"] * 3000) + ")",
]
DEEP_IDS = ["parens", "chain", "not", "minus", "in-item", "values-parens",
            "values-chain"]

# characters a mutation inserts, beside the statement's own: the dialect's
# punctuation and number spellings, plus characters it does not accept
INSERTABLE = "'().,;-+*/%<>=!eE0123456789 \n\t_aZ\"@é"


def _mutate(rng: random.Random, text: str) -> str:
    """Apply one to three character insertions, deletions or duplications."""
    chars = list(text)
    pool = INSERTABLE + text
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(pool))
        elif op == 1:
            del chars[rng.randrange(len(chars))]
        else:
            i = rng.randrange(len(chars))
            chars.insert(i, chars[i])
    return "".join(chars)


def _escapes(sql: str) -> str | None:
    """None if ``parse`` returns a statement or raises a NeurDBError; else
    a description of what escaped."""
    try:
        statement = parse(sql)
    except NeurDBError:
        return None
    except Exception as exc:  # anything else escaping is the bug
        return f"{type(exc).__name__}: {exc} <- {sql[:120]!r}"
    if not isinstance(statement, ast.Statement):
        return f"returned {statement!r} <- {sql[:120]!r}"
    return None


def _fuzz(text: str, case: int, count: int) -> list[str]:
    rng = random.Random(SQL_SEED * 100_000 + case)
    escaped = (_escapes(_mutate(rng, text)) for _ in range(count))
    return [e for e in escaped if e is not None]


@pytest.mark.parametrize("case", range(len(CORPUS)))
def test_corpus_parses(case):
    assert isinstance(parse(CORPUS[case]), ast.Statement)


@pytest.mark.parametrize("case", range(len(CORPUS)))
def test_mutants_raise_only_taxonomy_errors(case):
    escaped = _fuzz(CORPUS[case], case, MUTANTS_PER_STATEMENT)
    assert not escaped, (f"{len(escaped)} of {MUTANTS_PER_STATEMENT} "
                         f"mutants escaped: {escaped[:5]}")


@pytest.mark.parametrize("case", range(len(DEEP)), ids=DEEP_IDS)
def test_deep_expressions_raise_parse_error(case):
    with pytest.raises(ParseError, match="too deep|nested too deeply"):
        parse(DEEP[case])
    escaped = _fuzz(DEEP[case], len(CORPUS) + case, MUTANTS_PER_DEEP_CASE)
    assert not escaped, escaped[:5]
