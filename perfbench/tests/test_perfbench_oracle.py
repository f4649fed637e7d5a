"""The sqlite oracle detects wrong answers and accepts right ones."""

from perfbench.oracle import SqliteOracle, compare


def test_equal_rows_in_any_order_match_when_unordered():
    assert compare([("b", 2), ("a", 1)], [("a", 1), ("b", 2)],
                   ordered=False) is None


def test_order_matters_when_ordered():
    assert compare([("b", 2), ("a", 1)], [("a", 1), ("b", 2)],
                   ordered=True) is not None


def test_float_sums_within_tolerance_match():
    assert compare([(1, 0.1 + 0.2)], [(1, 0.3)], ordered=True) is None


def test_wrong_value_is_a_mismatch():
    message = compare([("a", 3, 0.5)], [("a", 4, 0.5)], ordered=False)
    assert message is not None and "row 0" in message


def test_float_outside_tolerance_is_a_mismatch():
    assert compare([(1, 0.3001)], [(1, 0.3)], ordered=True) is not None


def test_missing_row_is_a_mismatch():
    assert "row count" in compare([(1,)], [(1,), (2,)], ordered=False)


def test_int_and_float_of_equal_value_match():
    assert compare([(2, 1.0)], [(2.0, 1)], ordered=True) is None


def test_null_only_matches_null():
    assert compare([(None,)], [(None,)], ordered=True) is None
    assert compare([(None,)], [(0,)], ordered=True) is not None


def test_oracle_disagrees_with_a_wrong_engine_answer():
    import repro

    rows = [(1, "a", 2.0), (2, "b", 0.5), (3, "a", 3.0)]
    ddl = "CREATE TABLE t (id INT UNIQUE, g TEXT, v FLOAT)"
    oracle = SqliteOracle()
    oracle.load(ddl, "t", rows)
    db = repro.connect()
    db.execute(ddl)
    db.execute("INSERT INTO t VALUES (1, 'a', 2.0), (2, 'b', 0.5), "
               "(3, 'a', 3.0)")
    sql = "SELECT g, count(*), sum(v) FROM t GROUP BY g"
    right = db.execute(sql).rows
    assert compare(right, oracle.query(sql), ordered=False) is None
    wrong = [(g, n, s + 1.0) for g, n, s in right]
    assert compare(wrong, oracle.query(sql), ordered=False) is not None
    # writes applied to both sides keep them in step
    assert oracle.execute("UPDATE t SET v = 9.0 WHERE id = 2") == 1
    db.execute("UPDATE t SET v = 9.0 WHERE id = 2")
    check = "SELECT id, v FROM t WHERE id = 2"
    assert compare(db.execute(check).rows, oracle.query(check),
                   ordered=True) is None
    oracle.close()
