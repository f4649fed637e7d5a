"""Differential tests for the batch engine's columnar GROUP BY and ORDER BY
kernels (factorized group ids + ``ufunc.at`` accumulation, ``np.lexsort``
over rank arrays).

Every query runs on the row engine (the reference), the fused batch
engine and the unfused batch pull.  Rows must match bit for bit — floats
by their IEEE-754 bit pattern, so ``-0.0`` never passes for ``0.0`` — in
the same order, and charged virtual time must match per category.  Each
batch run is repeated with both kernels switched off, which routes every
block through the per-row partition / composite-key sort; against those
runs the charges must be *exactly* equal, category by category.

The table spans two fused scan blocks (16,384 rows each) and carries the
awkward values: NULL keys and arguments, ``-0.0``/``0.0`` keys, values
and sort ties, ``INT64_MIN``/``INT64_MAX``, non-ASCII dictionary strings,
more than 32 groups, int sums past int64, and a float column with NaN in
its last rows.  Storage types that column as objects table-wide, so a
last test feeds its NaN-free rows as a typed block and the rest as an
object block into one group state.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

import repro
from repro.common.simtime import SimClock
from repro.exec import operators as ops
from repro.exec.batch import RowBlock
from repro.exec.executor import Executor
from repro.sql import parse
from repro.storage.types import TypedColumn

ROWS = 18_000          # > one fused scan block of 16,384 rows
NAN_FROM = 17_000      # nf holds NaNs only from this row on
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1
WORDS = ["Zürich", "東京", "émile", "Ωmega", "apple", "Banana", "ß",
         "naïve", "😀", "", "zeta", "Ärger"]

KERNEL, MIXED, FALLBACK = "kernel", "mixed", "fallback"

# queries over nf, the column holding NaNs from row NAN_FROM on
MIXED_QUERIES = [
    "SELECT gi, sum(nf), min(nf), max(nf) FROM k GROUP BY gi",
    "SELECT nf, count(*), sum(n) FROM k GROUP BY nf",
]

# (sql, aggregate path, sort path): on which blocks the factorized kernel
# folds (rather than replaying groups), and whether the lexsort kernel
# sorts; None when a kernel is never consulted
QUERIES = [
    ("SELECT gi, count(*), count(v), sum(v), avg(v), min(v), max(v) "
     "FROM k GROUP BY gi", KERNEL, None),
    ("SELECT gf, count(*), sum(v), avg(n) FROM k GROUP BY gf", KERNEL, None),
    ("SELECT gs, count(*), sum(n), avg(n), min(n), max(n), count(gb) "
     "FROM k GROUP BY gs", KERNEL, None),
    ("SELECT gb, count(*), sum(v), min(gi), max(gi) FROM k GROUP BY gb",
     KERNEL, None),
    ("SELECT gs, count(*), sum(v) FROM k WHERE v > 0.5 AND n < 500 "
     "GROUP BY gs", KERNEL, None),
    ("SELECT gi, sum(v) * 2, count(*) + 1, gi + 1 FROM k GROUP BY gi",
     KERNEL, None),
    # the "ß" group sums only -0.0: its total must keep the sign
    ("SELECT gs, sum(nz), avg(nz), count(nz) FROM k GROUP BY gs",
     KERNEL, None),
    # min/max over signed zeros: first-seen order decides, per group path
    ("SELECT gi, min(z), max(z), count(z), sum(z) FROM k GROUP BY gi",
     FALLBACK, None),
    ("SELECT gi, count(DISTINCT gs), sum(v) FROM k GROUP BY gi",
     FALLBACK, None),
    # int sums past int64 (and past exact-float range) stay Python ints
    ("SELECT gs, sum(big), avg(big), min(big), sum(gi) FROM k GROUP BY gs",
     FALLBACK, None),
    ("SELECT gs, sum(n + 1) FROM k GROUP BY gs", FALLBACK, None),
    # nf holds NaN, so storage hands it out as an object column: the
    # kernel declines it as an argument and never sees it as a key
    (MIXED_QUERIES[0], FALLBACK, None),
    (MIXED_QUERIES[1], None, None),
    ("SELECT count(*), sum(v), min(gs), max(gs) FROM k", None, None),
    ("SELECT gi, count(*) FROM k WHERE id < 0 GROUP BY gi", None, None),
    ("SELECT count(*), sum(v) FROM k WHERE id < 0", None, None),
    ("SELECT gs, avg(v) FROM k GROUP BY gs ORDER BY gs DESC",
     KERNEL, FALLBACK),
    # sorts: NULL placement, signed-zero and duplicate-key ties, INT64
    # extremes under DESC, non-ASCII strings, ASC/DESC mixes
    ("SELECT id, gi FROM k ORDER BY gi DESC", None, KERNEL),
    ("SELECT id, gf FROM k ORDER BY gf", None, KERNEL),
    ("SELECT id, gs, gi FROM k ORDER BY gs DESC, gi", None, KERNEL),
    ("SELECT id, gb, v FROM k ORDER BY gb, v DESC", None, KERNEL),
    ("SELECT id, z FROM k ORDER BY z DESC", None, KERNEL),
    ("SELECT * FROM k ORDER BY gf DESC, gs, gi DESC", None, KERNEL),
    ("SELECT gi, id FROM k ORDER BY gi LIMIT 50", None, KERNEL),
    ("SELECT id, nf FROM k ORDER BY nf", None, FALLBACK),
    ("SELECT id, v FROM k WHERE v > 0 ORDER BY v * 2 DESC", None, FALLBACK),
]


def _maybe_null(rng, values, rate=0.05):
    return [None if rng.random() < rate else v for v in values]


@pytest.fixture(scope="module")
def kernel_db():
    rng = np.random.default_rng(2024)
    gi = rng.integers(-30, 30, ROWS).tolist()
    for i in rng.choice(ROWS, 40, replace=False).tolist():
        gi[i] = INT64_MIN if i % 2 else INT64_MAX
    gi = _maybe_null(rng, gi)
    gf = _maybe_null(rng, [[-2.0, -1.0, -0.0, 0.0, 1.0, 2.5][j]
                           for j in rng.integers(0, 6, ROWS)])
    gs = _maybe_null(rng, [WORDS[j] for j in rng.integers(0, len(WORDS),
                                                          ROWS)])
    gb = _maybe_null(rng, [bool(b) for b in rng.integers(0, 2, ROWS)])
    # wide magnitudes make float sums depend on the addition order
    v = _maybe_null(rng, (rng.normal(size=ROWS)
                          * 10.0 ** rng.integers(-3, 9, ROWS)).tolist())
    z = [[-0.0, 0.0, 1.0, -1.0][j] for j in rng.integers(0, 4, ROWS)]
    n = _maybe_null(rng, rng.integers(-1000, 1000, ROWS).tolist())
    big = [2 ** 62 + int(j) for j in rng.integers(0, 1000, ROWS)]
    nz = [-0.0 if word == "ß" else float(x)
          for word, x in zip(gs, rng.uniform(-1, 1, ROWS))]
    nf = [round(float(x), 1) for x in rng.uniform(0.5, 3.5, ROWS)]
    for i in range(NAN_FROM, ROWS, 97):
        nf[i] = float("nan")

    db = repro.connect()
    db.execute("CREATE TABLE k (id INT UNIQUE, gi INT, gf FLOAT, gs TEXT, "
               "gb BOOL, v FLOAT, z FLOAT, n INT, big INT, nz FLOAT, "
               "nf FLOAT)")
    heap = db.catalog.table("k")
    for row in zip(range(ROWS), gi, gf, gs, gb, v, z, n, big, nz, nf):
        heap.insert(row)
    # no ANALYZE: column statistics reject NaN
    return db


def _bits(rows):
    """Rows keyed by type and bit pattern: 1 vs 1.0 vs True and -0.0 vs
    0.0 all differ, and NaN equals itself."""
    return [tuple((type(value).__name__, struct.pack("<d", value))
                  if isinstance(value, float) else (type(value).__name__,
                                                    value)
                  for value in row) for row in rows]


def _run(db, plan, **engine):
    """Rows and per-category charges of one run on a reset clock (after a
    warm-up, so every run sees the same warm buffer pool)."""
    executor = Executor(db.catalog, db.clock, **engine)
    executor.run(plan)
    db.clock.reset()
    rows = executor.run(plan).rows
    return rows, dict(db.clock.breakdown())


class _Spy:
    """Records which blocks the two kernels took."""

    def __init__(self, monkeypatch):
        self.agg: list[bool] = []
        self.sort: list[bool] = []
        kernel_inputs = ops.AggregateOp._kernel_inputs
        rank_arrays = ops.SortOp._rank_arrays

        def spy_kernel_inputs(op, *args):
            inputs = kernel_inputs(op, *args)
            self.agg.append(inputs is not None)
            return inputs

        def spy_rank_arrays(op, columns):
            ranks = rank_arrays(op, columns)
            self.sort.append(ranks is not None)
            return ranks

        monkeypatch.setattr(ops.AggregateOp, "_kernel_inputs",
                            spy_kernel_inputs)
        monkeypatch.setattr(ops.SortOp, "_rank_arrays", spy_rank_arrays)

    def path(self, taken: list[bool]) -> str | None:
        if not taken:
            return None
        if all(taken):
            return KERNEL
        return MIXED if any(taken) else FALLBACK


def _disable_kernels(monkeypatch):
    """Typed GROUP BY keys take the per-row partition, every sort the
    composite-key sort."""
    def per_row(op, block, keycol, table, mask):
        op._accumulate_by_rows(block if mask is None else block.select(mask),
                               table)

    monkeypatch.setattr(ops.AggregateOp, "_accumulate_factorized", per_row)
    monkeypatch.setattr(ops.SortOp, "_rank_arrays",
                        lambda op, columns: None)


@pytest.mark.parametrize("sql,agg_path,sort_path", QUERIES)
def test_kernels_match_row_engine_and_fallback(kernel_db, monkeypatch, sql,
                                               agg_path, sort_path):
    plan = kernel_db.planner.plan_select(parse(sql))
    ref_rows, ref_charges = _run(kernel_db, plan, engine="row")
    with monkeypatch.context() as patch:
        spy = _Spy(patch)
        fused = _run(kernel_db, plan, engine="batch")
        unfused = _run(kernel_db, plan, engine="batch", fused=False)
    assert spy.path(spy.agg) == agg_path
    assert spy.path(spy.sort) == sort_path
    with monkeypatch.context() as patch:
        _disable_kernels(patch)
        fused_off = _run(kernel_db, plan, engine="batch")
        unfused_off = _run(kernel_db, plan, engine="batch", fused=False)

    for (rows, charges), (_, charges_off) in ((fused, fused_off),
                                              (unfused, unfused_off)):
        assert _bits(rows) == _bits(ref_rows)
        assert set(charges) == set(ref_charges)
        for category, total in ref_charges.items():
            assert charges[category] == pytest.approx(total, rel=1e-9)
        # the kernels change how, never what, a block charges
        assert charges == charges_off
    assert _bits(fused_off[0]) == _bits(ref_rows)
    assert _bits(unfused_off[0]) == _bits(ref_rows)


def test_grouped_float_sums_are_running_sums(kernel_db):
    """Per-group float totals equal the left-to-right running sum in row
    order, across both scan blocks — what ``ufunc.at`` preserves and
    per-block partial sums would not."""
    rows = kernel_db.execute("SELECT gf, sum(v) FROM k GROUP BY gf").rows
    table = kernel_db.catalog.table("k")
    running: dict = {}
    for _, row in table.scan():
        key, value = row[2], row[5]
        if value is not None:
            running[key] = (value if running.get(key) is None
                            else running[key] + value)
    for key, total in rows:
        expected = running.get(key)
        assert struct.pack("<d", total) == struct.pack("<d", expected)


@pytest.mark.parametrize("sql", MIXED_QUERIES)
def test_typed_and_object_blocks_share_one_group_state(kernel_db,
                                                       monkeypatch, sql):
    """nf's NaN-free rows as a typed f8 block, then its NaN rows as an
    object block, into one aggregation state: the first block folds
    through the factorized kernel, the second goes per group, and the
    result still matches the row engine bit for bit."""
    table = kernel_db.catalog.table("k")
    rows = [row for _, row in table.scan()]
    plan = kernel_db.planner.plan_select(parse(sql))
    expected = Executor(kernel_db.catalog, kernel_db.clock,
                        engine="row").run(plan).rows
    op = Executor(kernel_db.catalog, kernel_db.clock,
                  engine="batch").build(plan)
    assert isinstance(op, ops.AggregateOp)
    spy = _Spy(monkeypatch)
    state = op.new_state()
    for part in (rows[:NAN_FROM], rows[NAN_FROM:]):
        columns = [TypedColumn.from_values(list(values), column.dtype)
                   for values, column in zip(zip(*part),
                                             table.schema.columns)]
        op.absorb_block(RowBlock(op._child.layout, columns, len(part)),
                        state, SimClock())
    assert [c.kind for c in columns][-1] == "obj"
    # an object argument is declined by the kernel, an object key never
    # reaches it
    assert spy.agg[0] and not any(spy.agg[1:])
    assert _bits(op.finish_state(state).to_rows()) == _bits(expected)
