"""Workload parameters and metric definitions: the single place the
benchmark's sizes, mixes and rates are set.

Sizes are chosen so that one run (three timed set-ups, a warm-up and the
timed phase) ends within about 30 s on a 2-vCPU machine.
"""

from __future__ import annotations

# -- shared analytic data -----------------------------------------------

#: rows of t(id, grp, k, v, w); about 100 heap pages
T_ROWS = 20_000
#: distinct k values; d(k, region) has one row per k
K_DISTINCT = 5_000
REGIONS = 8
INSERT_ROWS_PER_STATEMENT = 1_000
#: set-ups per run; set-up time is their median
SETUP_REPS = 3

# -- olap / olap_sharded ------------------------------------------------

#: query shapes and how often each occurs in one pass (seeded order).
#: The counts put the median in the middle of filter_agg's latencies and
#: the tail inside order_by's, never on the boundary between two shapes,
#: where a run's percentile would jump between them.
OLAP_PASS = {"filter_agg": 12, "join": 1, "wide_agg": 1, "order_by": 2}
#: ops per tail window (4 passes): the tail is the p84 of 64 ops, taken
#: over windows starting at every pass
OLAP_WINDOW = 64
#: passes whose charged virtual time is virtual_s
OLAP_VIRTUAL_PASSES = 4
SHARDS = 4
NODES = 4

# -- oltp_mixed ---------------------------------------------------------

#: pool capacity below t's ~100 pages, so the table does not fit
OLTP_BUFFER_PAGES = 48
OLTP_MIX = {"point_select": 0.50, "insert": 0.25, "update": 0.15,
            "range_select": 0.10}
ZIPF_THETA = 0.99
RANGE_SPAN = 10
#: ops per pass and per tail window: the tail is the p95 of 200 ops
OLTP_WINDOW = 200
#: passes whose charged virtual time is virtual_s (buffer hits and misses
#: depend on which keys come up, so one pass alone varies by seed)
OLTP_VIRTUAL_PASSES = 5

# -- ctr_drift ----------------------------------------------------------

AVAZU_POPULATION_SEED = 2025
#: C1 rows ingested by the set-up
CTR_C1_ROWS = 4_000
#: rows of the next cluster appended at each drift
CTR_DRIFT_ROWS = 1_000
#: requests the client submits before each drain
CTR_WINDOW_REQUESTS = 16
#: windows served before and after the drift in one pass
CTR_WINDOWS_PER_HALF = 16
#: modeled Poisson arrival rate (requests per virtual second)
CTR_ARRIVAL_RATE = 400.0
#: rows per rid-range request
CTR_RANGE_ROWS = 32
#: the server fine-tunes on this many most recent rows
CTR_REFRESH_WINDOW = 1_000
#: items per pass (requests plus the drift INSERT) and per tail window
CTR_WINDOW = 2 * CTR_WINDOWS_PER_HALF * CTR_WINDOW_REQUESTS + 1

#: Each workload's parameters (its reason is in BENCHMARK.json).
WORKLOADS = {
    "olap": {
        "connect": {},
        "rows": {"t": T_ROWS, "d": K_DISTINCT},
        "pass": OLAP_PASS, "tail_window_ops": OLAP_WINDOW,
        "virtual_passes": OLAP_VIRTUAL_PASSES,
        "buffer_pages": 4096, "table_pages": "about 100 (fits)",
    },
    "olap_sharded": {
        "connect": {"shards": SHARDS, "engine": "distributed",
                    "nodes": NODES},
        "rows": {"t": T_ROWS, "d": K_DISTINCT},
        "pass": OLAP_PASS, "tail_window_ops": OLAP_WINDOW,
        "virtual_passes": OLAP_VIRTUAL_PASSES,
        "buffer_pages": 4096, "table_pages": "about 100 (fits)",
    },
    "oltp_mixed": {
        "connect": {"buffer_pages": OLTP_BUFFER_PAGES},
        "rows": {"t": T_ROWS}, "mix": OLTP_MIX, "zipf_theta": ZIPF_THETA,
        "tail_window_ops": OLTP_WINDOW,
        "virtual_passes": OLTP_VIRTUAL_PASSES,
        "buffer_pages": OLTP_BUFFER_PAGES,
        "table_pages": "about 100 (exceeds the pool)",
    },
    "ctr_drift": {
        "connect": {},
        "rows": {"avazu_c1": CTR_C1_ROWS, "drift_append": CTR_DRIFT_ROWS},
        "window_requests": CTR_WINDOW_REQUESTS,
        "windows_per_half": CTR_WINDOWS_PER_HALF,
        "arrival_rate_per_virtual_s": CTR_ARRIVAL_RATE,
        "range_rows": CTR_RANGE_ROWS, "refresh_window": CTR_REFRESH_WINDOW,
        "tail_window_ops": CTR_WINDOW, "virtual_passes": 1,
    },
}

# -- metrics ------------------------------------------------------------
#
# name -> (unit, better, kind).  "measured" is wall-clock on the machine
# that ran it; "modeled" is charged virtual time (deterministic per seed).

END_TO_END = {
    "setup_s": ("s", "lower", "measured"),
    "throughput_ops": ("ops/s", "higher", "measured"),
    "latency_p50_ms": ("ms", "lower", "measured"),
    "latency_tail_ms": ("ms", "lower", "measured"),
    "virtual_s": ("s", "lower", "modeled"),
}

#: End-to-end metrics of single workloads.  They are printed and written
#: to the result file, but are not part of the gated result line, whose
#: metrics every workload must report.
WORKLOAD_END_TO_END = {
    "olap": ("filter_agg_p50_ms", "wide_agg_p50_ms", "order_by_p50_ms",
             "join_p50_ms"),
    "olap_sharded": ("filter_agg_p50_ms", "wide_agg_p50_ms",
                     "order_by_p50_ms", "join_p50_ms"),
    "oltp_mixed": ("point_select_p50_ms", "insert_p50_ms",
                   "update_p50_ms", "range_select_p50_ms"),
    "ctr_drift": ("train_s", "serve_p99_virtual_ms", "post_drift_logloss"),
}
WORKLOAD_METRIC_UNITS = {"train_s": ("s", "measured"),
                         "serve_p99_virtual_ms": ("ms", "modeled"),
                         "post_drift_logloss": ("nats", "measured")}

#: Charged categories reported as virtual.<category>_s in traced runs.
VIRTUAL_CATEGORIES = (
    "scan", "filter", "project", "join", "agg", "sort", "distinct",
    "index", "spill", "buffer-hit", "buffer-miss", "heap-insert",
    "heap-update", "shuffle", "broadcast", "gather", "exchange-msg",
    "predict-materialize", "model-load", "ai-infer", "ai-finetune")

#: Per-layer metric -> (unit, better, the end-to-end metric and workload
#: it should move).
PER_LAYER = {
    "sql.parse_calls": ("count", "lower", "point_select_p50_ms/insert_p50_ms on oltp_mixed"),
    "sql.parse_s": ("s", "lower", "point_select_p50_ms/insert_p50_ms on oltp_mixed"),
    "sql.parse_share": ("ratio", "lower", "point_select_p50_ms/insert_p50_ms on oltp_mixed; ~0 on olap"),
    "setup.sql.parse_s": ("s", "lower", "setup_s on all workloads"),
    "setup.sql.parse_share": ("ratio", "lower", "setup_s on all workloads"),
    "plan.plan_calls": ("count", "lower", "point_select_p50_ms on oltp_mixed"),
    "plan.plan_s": ("s", "lower", "point_select_p50_ms on oltp_mixed"),
    "plan.plan_share": ("ratio", "lower", "point_select_p50_ms on oltp_mixed"),
    "plan.qerror_p50": ("ratio", "lower", "virtual_s and join_p50_ms on olap"),
    "plan.qerror_max": ("ratio", "lower", "virtual_s and join_p50_ms on olap"),
    "plan.index_plan_frac": ("ratio", "higher", "latency_tail_ms on oltp_mixed"),
    "exec.compile_s": ("s", "lower", "per-shape p50s on olap"),
    "exec.run_s": ("s", "lower", "per-shape p50s on olap"),
    "exec.materialize_s": ("s", "lower", "per-shape p50s on olap"),
    "exec.rows_out": ("count", "lower", "per-shape p50s on olap"),
    "exec.run_share": ("ratio", "lower", "per-shape p50s on olap; ~0 on oltp_mixed"),
    "exec.wall_per_virtual": ("ratio", "lower", "per-shape p50s on olap with virtual_s fixed"),
    "dist.run_s": ("s", "lower", "per-shape p50s on olap_sharded"),
    "dist.tasks": ("count", "lower", "per-shape p50s on olap_sharded"),
    "dist.rows_shuffled": ("count", "lower", "per-shape p50s on olap_sharded"),
    "dist.bytes_on_wire": ("bytes", "lower", "per-shape p50s on olap_sharded"),
    "dist.exchange_virtual_s": ("s", "lower", "virtual_s on olap_sharded"),
    "dist.makespan_virtual_s": ("s", "lower", "virtual_s on olap_sharded"),
    "dist.modeled_speedup": ("ratio", "higher", "virtual_s on olap_sharded"),
    "storage.insert_rows": ("count", "higher", "insert_p50_ms on oltp_mixed"),
    "storage.insert_s": ("s", "lower", "insert_p50_ms on oltp_mixed"),
    "storage.insert_rows_per_s": ("rows/s", "higher", "insert_p50_ms on oltp_mixed"),
    "setup.storage.insert_rows": ("count", "higher", "setup_s on all workloads"),
    "setup.storage.insert_s": ("s", "lower", "setup_s on all workloads"),
    "setup.storage.insert_rows_per_s": ("rows/s", "higher", "setup_s on all workloads"),
    "storage.analyze_s": ("s", "lower", "setup_s on all workloads"),
    "storage.scan_s": ("s", "lower", "filter_agg_p50_ms on olap"),
    "storage.row_scan_s": ("s", "lower", "update_p50_ms on oltp_mixed"),
    "storage.index_lookups": ("count", "higher", "point_select_p50_ms on oltp_mixed"),
    "storage.index_s": ("s", "lower", "point_select_p50_ms on oltp_mixed"),
    "storage.buffer_hit_ratio": ("ratio", "higher", "virtual_s on oltp_mixed against olap"),
    "storage.view_hit_ratio": ("ratio", "higher", "latency_tail_ms on oltp_mixed"),
    "storage.view_rebuilds": ("count", "lower", "latency_tail_ms on oltp_mixed"),
    "ai.loader_s": ("s", "lower", "throughput_ops and latency_tail_ms on ctr_drift"),
    "ai.loader_rows": ("count", "lower", "throughput_ops on ctr_drift"),
    "ai.train_s": ("s", "lower", "train_s on ctr_drift"),
    "ai.train_samples_per_s": ("samples/s", "higher", "train_s on ctr_drift"),
    "ai.infer_s": ("s", "lower", "throughput_ops on ctr_drift"),
    "ai.infer_rows_per_s": ("rows/s", "higher", "throughput_ops on ctr_drift"),
    "ai.finetune_calls": ("count", "lower", "latency_tail_ms and post_drift_logloss on ctr_drift"),
    "ai.finetune_s": ("s", "lower", "latency_tail_ms and post_drift_logloss on ctr_drift"),
    "ai.wall_per_virtual": ("ratio", "lower", "throughput_ops on ctr_drift with virtual_s fixed"),
    "serve.drain_s": ("s", "lower", "throughput_ops on ctr_drift"),
    "serve.batches": ("count", "lower", "throughput_ops on ctr_drift"),
    "serve.mean_batch_requests": ("requests", "higher", "throughput_ops and serve_p99_virtual_ms on ctr_drift"),
    "serve.model_cache_hit_ratio": ("ratio", "higher", "throughput_ops on ctr_drift"),
    "serve.refreshes": ("count", "lower", "post_drift_logloss on ctr_drift"),
    "serve.refreshes_swapped": ("count", "higher", "post_drift_logloss on ctr_drift"),
    "serve.batch_retries": ("count", "lower", "serve_p99_virtual_ms on ctr_drift"),
    "serve.deadline_misses": ("count", "lower", "serve_p99_virtual_ms on ctr_drift"),
    "serve.queue_wait_virtual_p50_ms": ("ms", "lower", "serve_p99_virtual_ms on ctr_drift"),
    **{f"virtual.{c}_s": ("s", "lower", "virtual_s on the workload that charges it")
       for c in VIRTUAL_CATEGORIES},
    "virtual.other_s": ("s", "lower", "virtual_s on the workload that charges it"),
    "bench.tracing_overhead": ("ratio", "higher", "none: traced over untraced throughput_ops"),
}
