"""Parallel-engine scaling: scan/filter/aggregate, ORDER BY, wide GROUP BY.

The morsel-driven acceptance gates: at 4 workers the parallel engine must
clear >= 2x the serial batch engine's modeled throughput on each of the
three workload shapes — the scan→filter→aggregate pipeline PR 1
benchmarked, an ORDER BY-heavy plan (per-morsel sorted runs + serial
k-way merge, so Amdahl bites on the merge remainder), and a
wide-aggregation plan (hash-partitioned parallel merge) — with
bit-identical results.  Throughput is measured in *virtual time* —
wall-clock cannot show multi-thread scalability in single-process Python
(the whole reason `src/repro/common/simtime.py` exists): the serial
engines' elapsed time is their charged virtual time, and the parallel
engine's elapsed time is its modeled makespan (page I/O, task costs
list-scheduled on the workers, the sort runs, and the serial lane; see
``repro/exec/distributed.py``).  The worker sweep is written to
``benchmarks/BENCH_parallel.json`` so future PRs have a scaling
trajectory to compare against.

The placed engines run the batch engine's pipeline once and model the
rest, so their *measured* wall clock must track batch's: each shape also
times batch, parallel (4 workers) and distributed (4 nodes) in the same
run, best of interleaved runs, and gates the ratio at
:data:`WALL_RATIO_BOUND`.

CI smoke mode (``BENCH_SMOKE=1``): a tiny-scale pass — fewer rows, 2-ish
workers' worth of morsels, JSON written to a scratch path so the
committed trajectory isn't clobbered — that exercises every workload and
the JSON generator without asserting the full-scale speedup floors.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

import repro
from _wall import wall_ratios
from repro.bench.reporting import write_bench_json
from repro.exec.executor import Executor
from repro.sql import parse

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
ROWS = 8_000 if SMOKE else 100_000
MORSEL_ROWS = 256 if SMOKE else None  # None = engine default (4096)
WORKER_SWEEP = (1, 2, 4) if SMOKE else (1, 2, 4, 8)
SPEEDUP_FLOOR_AT_4 = 1.05 if SMOKE else 2.0
#: parallel / distributed wall clock over batch's, same run; relaxed at
#: smoke scale, where fixed per-query costs dominate the tiny table
WALL_RATIO_BOUND = 2.0 if SMOKE else 1.2
PLACED = {"parallel": {"workers": 4}, "distributed": {"nodes": 4}}

WORKLOADS = [
    {
        "name": "scan_filter_aggregate",
        "sql": ("SELECT grp, count(*), sum(v), avg(w) FROM t "
                "WHERE v > 0.25 AND w < 0.9 GROUP BY grp"),
    },
    {
        "name": "order_by",
        "sql": "SELECT id, v FROM t WHERE v > 0.05 ORDER BY v DESC",
    },
    {
        "name": "wide_aggregate",
        "sql": "SELECT k, count(*), sum(v), avg(w) FROM t GROUP BY k",
    },
]

RESULT_PATH = (os.path.join(tempfile.gettempdir(), "BENCH_parallel.json")
               if SMOKE else
               os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_parallel.json"))


def _build_db(rows: int):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, k INT, "
               "v FLOAT, w FLOAT)")
    heap = db.catalog.table("t")
    rng = np.random.default_rng(7)
    groups = ["alpha", "beta", "gamma", "delta"]
    # k: high-cardinality group key (rows/20 distinct values) to push the
    # wide-aggregation plan far past the partitioned-merge cutoff
    wide = max(64, rows // 20)
    v = rng.random(rows)
    w = rng.random(rows)
    for i in range(rows):
        heap.insert((i, groups[i & 3], (i * 37) % wide,
                     float(v[i]), float(w[i])))
    db.execute("ANALYZE")
    return db


def test_parallel_engine_scaling():
    db = _build_db(ROWS)
    report_workloads = []
    for workload in WORKLOADS:
        plan = db.planner.plan_select(parse(workload["sql"]))
        batch = Executor(db.catalog, db.clock, engine="batch")
        batch.run(plan)  # warm buffer pool and compiled-expression caches
        base = batch.run(plan)
        base_rate = ROWS / base.virtual_seconds

        curve = []
        for workers in WORKER_SWEEP:
            kwargs = {} if MORSEL_ROWS is None else {
                "morsel_rows": MORSEL_ROWS}
            executor = Executor(db.catalog, db.clock, engine="parallel",
                                workers=workers, **kwargs)
            result = executor.run(plan)
            assert result.rows == base.rows, (
                f"{workload['name']}: parallel result diverged")
            stats = result.extra["parallel"]
            makespan = stats["virtual_makespan"]
            curve.append({
                "workers": workers,
                "virtual_seconds": round(makespan, 6),
                "rows_per_virtual_sec": round(ROWS / makespan),
                "speedup_vs_batch": round(
                    base.virtual_seconds / makespan, 2),
                # one task per scan morsel
                "tasks": stats["tasks"],
            })

        wall = wall_ratios(db, plan, PLACED)
        report_workloads.append({
            "name": workload["name"],
            "sql": workload["sql"],
            "batch_engine": {
                "virtual_seconds": round(base.virtual_seconds, 6),
                "rows_per_virtual_sec": round(base_rate)},
            "parallel_engine": curve,
            "wall_clock": wall,
        })

        print(f"\n{workload['name']} over {ROWS} rows "
              f"(batch: {base.virtual_seconds * 1e3:.2f} virtual ms):")
        for point in curve:
            print(f"  {point['workers']} workers: "
                  f"{point['virtual_seconds'] * 1e3:.2f} virtual ms "
                  f"({point['rows_per_virtual_sec']:,} rows/s, "
                  f"{point['speedup_vs_batch']:.2f}x)")

        at_four = next((p for p in curve if p["workers"] == 4), None)
        if at_four is not None:
            assert at_four["speedup_vs_batch"] >= SPEEDUP_FLOOR_AT_4, (
                f"{workload['name']}: parallel engine only "
                f"{at_four['speedup_vs_batch']:.2f}x over batch at 4 "
                f"workers (floor is {SPEEDUP_FLOOR_AT_4}x)")
        # 1 worker must not regress the batch engine (same work, same
        # charges; the sort merge remainder stays on the serial lane
        # either way)
        assert curve[0]["speedup_vs_batch"] >= 0.99
        print(f"  wall clock: batch {wall['wall_seconds']['batch'] * 1e3:.1f}"
              f" ms, vs batch {wall['ratio_vs_batch']}")
        for engine, ratio in wall["ratio_vs_batch"].items():
            assert ratio <= WALL_RATIO_BOUND, (
                f"{workload['name']}: {engine} wall clock {ratio:.2f}x "
                f"batch's (bound {WALL_RATIO_BOUND}x)")

    report = {
        "rows": ROWS,
        "metric": ("rows per virtual second; parallel elapsed = modeled "
                   "makespan (page I/O + per-phase max worker load + sort "
                   "runs + serial lane), serial elapsed = charged virtual "
                   "time; wall_clock = best of 7 interleaved runs of "
                   "batch, parallel (4 workers) and distributed (4 nodes) "
                   "on this machine"),
        "workloads": report_workloads,
    }
    write_bench_json(
        RESULT_PATH, report, smoke=SMOKE, seeds={"numpy_rng": 7},
        workload={"rows": ROWS, "morsel_rows": MORSEL_ROWS,
                  "worker_sweep": WORKER_SWEEP,
                  "speedup_floor_at_4": SPEEDUP_FLOOR_AT_4,
                  "wall_ratio_bound": WALL_RATIO_BOUND})
