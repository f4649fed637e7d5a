"""Execution-engine throughput gates, written to ``BENCH_exec.json``.

Three workload families keep a wall-clock trajectory (host rows/sec, not
virtual time) for future PRs to compare against:

* ``scan_filter_aggregate`` — the PR 1 vectorization gate: the batch
  engine must clear >= 5x the row engine's rows/sec on a 100k-row
  scan/filter/aggregate pipeline, with identical results.
* ``fused_pipeline`` — the PR 5 fusion gate: the fused pipeline drive
  loop (scan→filter→project as one pass per block, selection masks
  deferred, morsel-sized scan blocks) must clear >= 1.5x the unfused
  per-operator batch pull at the largest of three scales, with identical
  rows and identical charged virtual time.  Measured at the engine's
  block level — the stream breakers, sinks, and the AI feed consume —
  so the gate isolates the execution pipeline rather than Python
  row-tuple conversion.
* ``fused_aggregate`` — the PR 7 typed-storage gate: with columns typed
  at rest (typed scan blocks sliced from the merged page views,
  dictionary-coded group keys, the selection mask deferred all the way
  into the aggregate sink), fused scan→filter→aggregate must clear
  >= 2.5x the unfused pull — up from the ~1.57x the object-array layout
  capped it at.  Same parity bar as ``fused_pipeline``: identical rows
  and identical charged virtual time.
* ``wide_aggregate_order_by`` — the columnar-breaker gate: GROUP BY k
  over 5k groups (factorized group ids, ``ufunc.at`` accumulation) and
  ORDER BY v DESC (``np.lexsort`` over rank arrays) on 100k rows must
  each clear >= 5x the row engine, measured in the same run, with
  identical rows.

CI smoke mode (``BENCH_SMOKE=1``): tiny scales, relaxed floors, JSON to
a scratch path so the committed trajectory isn't clobbered (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from contextlib import contextmanager

import numpy as np

import repro
from repro.bench.reporting import write_bench_json
from repro.exec.executor import Executor
from repro.exec.pipeline import compile_pipelines, run_program
from repro.sql import parse

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_exec.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_exec.json"))

AGG_ROWS = 8_000 if SMOKE else 100_000
AGG_FLOOR = 1.5 if SMOKE else 5.0
AGG_QUERY = ("SELECT grp, count(*), sum(v), avg(w) FROM t "
             "WHERE v > 0.25 AND w < 0.9 GROUP BY grp")

FUSED_SCALES = [6_000] if SMOKE else [20_000, 50_000, 100_000]
FUSED_FLOOR = 1.1 if SMOKE else 1.5
FUSED_QUERY = "SELECT id, v FROM wide WHERE v > 0.25 AND w2 < 0.9"

FUSED_AGG_SCALES = [6_000] if SMOKE else [20_000, 50_000, 100_000]
FUSED_AGG_FLOOR = 1.2 if SMOKE else 2.5
FUSED_AGG_QUERY = ("SELECT grp, count(*), sum(v) FROM wide "
                   "WHERE v > 0.25 AND w2 < 0.9 GROUP BY grp")

WIDE_ROWS = 8_000 if SMOKE else 100_000
WIDE_FLOOR = 2.0 if SMOKE else 5.0
WIDE_GROUPS = 5_000
WIDE_QUERIES = {
    "wide_aggregate": "SELECT k, count(*), sum(v), avg(w) FROM t GROUP BY k",
    "order_by": "SELECT id, v FROM t ORDER BY v DESC",
}


def _update_report(family: str, payload: dict) -> None:
    """Read-modify-write one workload family's entry in the JSON."""
    data: dict = {}
    if os.path.exists(RESULT_PATH):
        try:
            with open(RESULT_PATH) as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, OSError):
            data = {}
    if not isinstance(data, dict) or "workload" in data:
        data = {}  # pre-PR-5 flat layout: start fresh
    data.pop("meta", None)
    data[family] = payload
    write_bench_json(
        RESULT_PATH, data, smoke=SMOKE,
        seeds={"numpy_rng": 7},
        workload={"agg_rows": AGG_ROWS, "fused_scales": FUSED_SCALES,
                  "fused_agg_scales": FUSED_AGG_SCALES,
                  "wide_rows": WIDE_ROWS,
                  "agg_floor": AGG_FLOOR, "fused_floor": FUSED_FLOOR,
                  "fused_agg_floor": FUSED_AGG_FLOOR,
                  "wide_floor": WIDE_FLOOR})


# -- scan -> filter -> aggregate (batch vs row) -------------------------------


def _build_agg_db(rows: int):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT, w FLOAT)")
    heap = db.catalog.table("t")
    rng = np.random.default_rng(7)
    groups = ["alpha", "beta", "gamma", "delta"]
    v = rng.random(rows)
    w = rng.random(rows)
    for i in range(rows):
        heap.insert((i, groups[i & 3], float(v[i]), float(w[i])))
    db.execute("ANALYZE")
    return db


def _run(db, engine: str):
    plan = db.planner.plan_select(parse(AGG_QUERY))
    executor = Executor(db.catalog, db.clock, engine=engine)
    executor.run(plan)  # warm caches (compiled expressions, buffers)
    start = time.perf_counter()
    result = executor.run(plan)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_batch_engine_throughput():
    db = _build_agg_db(AGG_ROWS)
    row_result, row_seconds = _run(db, "row")
    batch_result, batch_seconds = _run(db, "batch")

    assert sorted(batch_result.rows) == sorted(row_result.rows)

    row_rate = AGG_ROWS / row_seconds
    batch_rate = AGG_ROWS / batch_seconds
    speedup = batch_rate / row_rate
    _update_report("scan_filter_aggregate", {
        "workload": AGG_QUERY,
        "rows": AGG_ROWS,
        "row_engine": {"seconds": round(row_seconds, 4),
                       "rows_per_sec": round(row_rate)},
        "batch_engine": {"seconds": round(batch_seconds, 4),
                         "rows_per_sec": round(batch_rate)},
        "speedup": round(speedup, 2),
    })
    print(f"\nscan->filter->aggregate over {AGG_ROWS} rows:")
    print(f"  row engine:   {row_seconds:.3f}s ({row_rate:,.0f} rows/s)")
    print(f"  batch engine: {batch_seconds:.3f}s ({batch_rate:,.0f} rows/s)")
    print(f"  speedup:      {speedup:.1f}x")
    assert speedup >= AGG_FLOOR, (
        f"batch engine only {speedup:.1f}x over row engine "
        f"(acceptance floor is {AGG_FLOOR}x)")


# -- fused pipeline vs unfused per-operator pull ------------------------------


def _build_wide_db(rows: int):
    """An 8-column table: fusion's copy-avoidance grows with the gap
    between table width and projection width."""
    db = repro.connect()
    db.execute("CREATE TABLE wide (id INT UNIQUE, grp TEXT, v FLOAT, "
               "w2 FLOAT, a FLOAT, b FLOAT, c TEXT, d FLOAT)")
    heap = db.catalog.table("wide")
    rng = np.random.default_rng(7)
    groups = ["alpha", "beta", "gamma", "delta"]
    v = rng.random(rows)
    w2 = rng.random(rows)
    for i in range(rows):
        heap.insert((i, groups[i & 3], float(v[i]), float(w2[i]),
                     float(v[i] * 2), float(w2[i] * 3), f"s{i % 100}",
                     float(i)))
    db.execute("ANALYZE")
    return db


def _block_seconds(db, plan, fused: bool, repeats: int = 5) -> float:
    """Best-of-N wall-clock to drain the engine's block stream."""
    executor = Executor(db.catalog, db.clock, engine="batch", fused=fused)
    best = float("inf")
    for _ in range(repeats + 1):  # first lap warms caches
        operator = executor.build(plan)
        blocks = (run_program(compile_pipelines(operator), db.clock)
                  if fused else operator.batches())
        start = time.perf_counter()
        for _block in blocks:
            pass
        best = min(best, time.perf_counter() - start)
    return best


def test_fused_pipeline_throughput():
    scales = []
    speedup = 0.0
    for rows in FUSED_SCALES:
        db = _build_wide_db(rows)
        plan = db.planner.plan_select(parse(FUSED_QUERY))

        # parity first: identical rows and charged virtual time
        unfused_exec = Executor(db.catalog, db.clock, engine="batch",
                                fused=False)
        fused_exec = Executor(db.catalog, db.clock, engine="batch")
        before = db.clock.now
        expected = unfused_exec.run(plan)
        unfused_charged = db.clock.now - before
        before = db.clock.now
        got = fused_exec.run(plan)
        fused_charged = db.clock.now - before
        assert got.rows == expected.rows
        assert abs(fused_charged - unfused_charged) <= 1e-9 * unfused_charged

        unfused_s = _block_seconds(db, plan, fused=False)
        fused_s = _block_seconds(db, plan, fused=True)
        speedup = unfused_s / fused_s
        scales.append({
            "rows": rows,
            "unfused": {"seconds": round(unfused_s, 4),
                        "rows_per_sec": round(rows / unfused_s)},
            "fused": {"seconds": round(fused_s, 4),
                      "rows_per_sec": round(rows / fused_s)},
            "speedup": round(speedup, 2),
        })
        print(f"\nfused pipeline over {rows} rows:")
        print(f"  unfused: {unfused_s:.4f}s ({rows / unfused_s:,.0f} rows/s)")
        print(f"  fused:   {fused_s:.4f}s ({rows / fused_s:,.0f} rows/s)")
        print(f"  speedup: {speedup:.2f}x")

    _update_report("fused_pipeline", {
        "workload": FUSED_QUERY,
        "measure": "engine block stream (what sinks and the AI feed pull)",
        "scales": scales,
        "floor": FUSED_FLOOR,
    })
    # the gate applies at the largest scale, where per-query constants
    # have washed out
    assert speedup >= FUSED_FLOOR, (
        f"fused pipeline only {speedup:.2f}x over the unfused batch path "
        f"(acceptance floor is {FUSED_FLOOR}x)")


# -- fused scan -> filter -> aggregate (typed storage gate) -------------------


def test_fused_aggregate_throughput():
    """Typed columns end to end: the aggregate sink consumes deferred
    (block, mask) carriers over dictionary-coded group keys, so the fused
    path never materializes a filtered block the unfused pull must copy."""
    scales = []
    speedup = 0.0
    for rows in FUSED_AGG_SCALES:
        db = _build_wide_db(rows)
        plan = db.planner.plan_select(parse(FUSED_AGG_QUERY))

        # parity first: identical rows and charged virtual time
        unfused_exec = Executor(db.catalog, db.clock, engine="batch",
                                fused=False)
        fused_exec = Executor(db.catalog, db.clock, engine="batch")
        before = db.clock.now
        expected = unfused_exec.run(plan)
        unfused_charged = db.clock.now - before
        before = db.clock.now
        got = fused_exec.run(plan)
        fused_charged = db.clock.now - before
        assert got.rows == expected.rows
        assert abs(fused_charged - unfused_charged) <= 1e-9 * unfused_charged

        unfused_s = _block_seconds(db, plan, fused=False)
        fused_s = _block_seconds(db, plan, fused=True)
        speedup = unfused_s / fused_s
        scales.append({
            "rows": rows,
            "unfused": {"seconds": round(unfused_s, 4),
                        "rows_per_sec": round(rows / unfused_s)},
            "fused": {"seconds": round(fused_s, 4),
                      "rows_per_sec": round(rows / fused_s)},
            "speedup": round(speedup, 2),
        })
        print(f"\nfused aggregate over {rows} rows:")
        print(f"  unfused: {unfused_s:.4f}s ({rows / unfused_s:,.0f} rows/s)")
        print(f"  fused:   {fused_s:.4f}s ({rows / fused_s:,.0f} rows/s)")
        print(f"  speedup: {speedup:.2f}x")

    _update_report("fused_aggregate", {
        "workload": FUSED_AGG_QUERY,
        "measure": "engine block stream (what sinks and the AI feed pull)",
        "scales": scales,
        "floor": FUSED_AGG_FLOOR,
    })
    assert speedup >= FUSED_AGG_FLOOR, (
        f"fused aggregate only {speedup:.2f}x over the unfused batch path "
        f"(acceptance floor is {FUSED_AGG_FLOOR}x)")


# -- wide GROUP BY and ORDER BY (batch vs row) --------------------------------


def _build_keyed_db(rows: int):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, k INT, v FLOAT, w FLOAT)")
    heap = db.catalog.table("t")
    rng = np.random.default_rng(7)
    k = rng.integers(0, WIDE_GROUPS, rows)
    v = rng.random(rows)
    w = rng.random(rows)
    for i in range(rows):
        heap.insert((i, int(k[i]), float(v[i]), float(w[i])))
    db.execute("ANALYZE")
    return db


def _best_run(db, plan, engine: str, repeats: int = 3):
    """Best-of-N wall-clock of SQL plan -> materialized rows."""
    executor = Executor(db.catalog, db.clock, engine=engine)
    result = executor.run(plan)  # warm caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        executor.run(plan)
        best = min(best, time.perf_counter() - start)
    return result, best


def test_wide_aggregate_order_by_throughput():
    db = _build_keyed_db(WIDE_ROWS)
    shapes = {}
    for shape, sql in WIDE_QUERIES.items():
        plan = db.planner.plan_select(parse(sql))
        row_result, row_s = _best_run(db, plan, "row")
        batch_result, batch_s = _best_run(db, plan, "batch")
        assert batch_result.rows == row_result.rows
        shapes[shape] = {
            "workload": sql,
            "row_engine": {"seconds": round(row_s, 4),
                           "rows_per_sec": round(WIDE_ROWS / row_s)},
            "batch_engine": {"seconds": round(batch_s, 4),
                             "rows_per_sec": round(WIDE_ROWS / batch_s)},
            "speedup": round(row_s / batch_s, 2),
        }
        print(f"\n{shape} over {WIDE_ROWS} rows ({WIDE_GROUPS} keys):")
        print(f"  row engine:   {row_s:.4f}s")
        print(f"  batch engine: {batch_s:.4f}s")
        print(f"  speedup:      {row_s / batch_s:.1f}x")
    _update_report("wide_aggregate_order_by", {
        "rows": WIDE_ROWS,
        "groups": WIDE_GROUPS,
        "measure": "best of 3 runs, SQL plan to materialized rows",
        "shapes": shapes,
        "floor": WIDE_FLOOR,
    })
    for shape, entry in shapes.items():
        assert entry["speedup"] >= WIDE_FLOOR, (
            f"{shape}: batch engine only {entry['speedup']:.1f}x over the "
            f"row engine (acceptance floor is {WIDE_FLOOR}x)")


# -- tracing overhead (observability gate) ------------------------------------


def _pre_pr_advance(self, seconds: float, category: str = "misc") -> float:
    """Verbatim pre-tracing SimClock.advance — the A side of the
    same-process A/B (no tracer hook on the accumulation path)."""
    if seconds < 0:
        raise ValueError(f"cannot advance clock by negative time {seconds!r}")
    self._now += seconds
    self._by_category[category] += seconds
    if self._limit is not None and self._now > self._limit:
        from repro.common.simtime import BudgetExceeded
        raise BudgetExceeded(f"virtual-time budget {self._limit} exceeded")
    return self._now


def _pre_pr_advance_batch(self, per_item: float, count: int,
                          category: str = "misc") -> float:
    """Verbatim pre-tracing SimClock.advance_batch."""
    if count < 0:
        raise ValueError(f"cannot charge a negative count {count!r}")
    if count == 0:
        return self._now
    return self.advance(per_item * count, category)


@contextmanager
def _pre_pr_charge_path():
    """Swap every SimClock's charge methods to the pre-PR bodies for the
    duration — the engine code stays post-PR in both runs, so the A/B
    isolates exactly what the tracer hook costs on the charge path."""
    from repro.common.simtime import SimClock
    saved = (SimClock.advance, SimClock.advance_batch)
    SimClock.advance = _pre_pr_advance
    SimClock.advance_batch = _pre_pr_advance_batch
    try:
        yield
    finally:
        SimClock.advance, SimClock.advance_batch = saved


TRACING_DISABLED_CEILING = 1.05   # vs the pre-PR charge path
TRACING_ENABLED_CEILING = 2.0     # traced vs untraced block stream


def test_tracing_overhead():
    """The observability bar: with no tracer attached, fused_aggregate
    wall time stays within 5% of the same workload on the pre-PR charge
    path, and attaching a tracer costs at most 2x — while changing
    neither the result rows nor the charged virtual totals."""
    from repro.obs.trace import Tracer

    rows = FUSED_AGG_SCALES[-1]
    db = _build_wide_db(rows)
    plan = db.planner.plan_select(parse(FUSED_AGG_QUERY))

    with _pre_pr_charge_path():
        pre_s = _block_seconds(db, plan, fused=True)
    untraced_s = _block_seconds(db, plan, fused=True)
    disabled_ratio = untraced_s / pre_s
    print(f"\nfused aggregate over {rows} rows: pre-PR charge path "
          f"{pre_s:.4f}s, instrumented untraced {untraced_s:.4f}s "
          f"({disabled_ratio:.3f}x)")
    before_rows = Executor(db.catalog, db.clock, engine="batch").run(plan)
    untraced_breakdown = dict(db.clock.breakdown())

    tracer = Tracer()
    tracer.attach(db.clock)
    try:
        traced_s = _block_seconds(db, plan, fused=True)
        traced_rows = Executor(db.catalog, db.clock,
                               engine="batch").run(plan)
    finally:
        Tracer.detach(db.clock)
    enabled_ratio = traced_s / untraced_s
    print(f"fused aggregate over {rows} rows: untraced {untraced_s:.4f}s, "
          f"traced {traced_s:.4f}s ({enabled_ratio:.2f}x)")

    # observation-only: same rows, same per-category charge keys, and the
    # tracer's float mirror reconciles with the clock exactly
    assert traced_rows.rows == before_rows.rows
    assert tracer.float_totals() == dict(db.clock.breakdown())
    assert set(db.clock.breakdown()) == set(untraced_breakdown)

    _update_report("tracing_overhead", {
        "measure": ("same-process A/B on the fused_aggregate block "
                    "stream: instrumented clock vs pre-PR charge path, "
                    "then traced vs untraced"),
        "rows": rows,
        "disabled_ratio": round(disabled_ratio, 4),
        "disabled_ceiling": TRACING_DISABLED_CEILING,
        "enabled_ratio": round(enabled_ratio, 4),
        "enabled_ceiling": TRACING_ENABLED_CEILING,
    })
    assert disabled_ratio <= TRACING_DISABLED_CEILING, (
        f"disabled tracer costs {disabled_ratio:.3f}x on the charge loop "
        f"(ceiling {TRACING_DISABLED_CEILING}x)")
    assert enabled_ratio <= TRACING_ENABLED_CEILING, (
        f"enabled tracer costs {enabled_ratio:.2f}x on fused_aggregate "
        f"(ceiling {TRACING_ENABLED_CEILING}x)")
