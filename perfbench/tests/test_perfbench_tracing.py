"""Span bookkeeping: parents, shared trace ids, and self time."""

import pytest

from perfbench.tracing import (Instrumentation, Span, SpanRecorder, covered,
                               self_times)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def span(span_id, parent, start, end):
    return Span(span_id=span_id, parent=parent, trace=1, name="s",
                start=start, end=end)


def test_self_time_subtracts_child_coverage():
    spans = [span(1, None, 0.0, 10.0),
             span(2, 1, 1.0, 3.0),
             span(3, 1, 5.0, 9.0),
             span(4, 3, 6.0, 7.0)]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[3] == pytest.approx(4.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_overlapping_children_are_counted_once():
    assert covered([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == \
        pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == \
        pytest.approx(2.0)


def test_recorder_links_parents_and_shares_the_root_trace_id():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    root = rec.begin("db.execute")
    clock.now = 1.0
    child = rec.begin("sql.parse")
    clock.now = 2.0
    rec.end(child)
    rec.end(root)
    other = rec.begin("db.execute")
    rec.end(other)
    assert child.parent == root.span_id
    assert child.trace == root.trace == root.span_id
    assert other.trace != root.trace
    assert child.duration == pytest.approx(1.0)


def test_spans_must_close_in_order():
    rec = SpanRecorder()
    outer = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_instrumentation_installs_and_removes_every_wrapper():
    from repro.db import NeurDB
    from repro.exec import executor, pipeline
    from repro.sql import parser

    originals = (NeurDB.execute, parser.parse, pipeline.run_program,
                 executor.run_program)
    inst = Instrumentation(SpanRecorder())
    inst.install()
    try:
        assert parser.parse is not originals[1]
        assert executor.run_program is not originals[3]
    finally:
        inst.uninstall()
    assert (NeurDB.execute, parser.parse, pipeline.run_program,
            executor.run_program) == originals


def test_traced_statement_spans_every_layer_without_changing_results():
    import repro

    rec = SpanRecorder()
    inst = Instrumentation(rec)
    sql = "SELECT g, count(*) FROM t WHERE v > 1 GROUP BY g"
    plain = repro.connect()
    traced = repro.connect()
    for db in (plain, traced):
        db.execute("CREATE TABLE t (id INT UNIQUE, g TEXT, v FLOAT)")
        db.execute("INSERT INTO t VALUES (1, 'a', 2.0), (2, 'b', 0.5), "
                   "(3, 'a', 3.0)")
    expected = plain.execute(sql)
    inst.install()
    try:
        rec.phase = "timed"
        got = traced.execute(sql)
    finally:
        inst.uninstall()
    assert got.rows == expected.rows
    assert traced.clock.now == pytest.approx(plain.clock.now)
    names = {s.name for s in rec.spans}
    assert {"db.execute", "sql.parse", "plan.plan_select", "exec.run",
            "exec.build", "exec.compile", "exec.run_program",
            "storage.scan"} <= names
    assert len({s.trace for s in rec.spans}) == 1
