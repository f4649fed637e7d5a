"""The four workloads, driven through the public API only:
``repro.connect()`` then ``db.execute(sql)``, and for ctr_drift
``PredictServer.submit()`` + ``drain()``.

One process, one closed-loop client, no extra threads.  Each workload
builds its database (the timed set-up), prepares its oracle outside any
timed region, warms every query shape once, and then runs its fixed op
sequence in passes until the run's seconds are spent (and at least one
tail window of ops has completed).
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from . import data, spec
from .oracle import SqliteOracle, compare
from .speed import SpeedReference
from .stats import log_loss, windowed_tail

MAX_FAILURE_MESSAGES = 5


class Samples:
    """What one timed phase measured.  Every wall time carries the index
    of the speed reading taken before it (:mod:`perfbench.speed`)."""

    def __init__(self) -> None:
        self.speed = SpeedReference()
        self.items: list[tuple[str, float, int]] = []  # kind, wall s, ref
        self.ops: list[tuple[float, int]] = []         # wall s, ref
        self.busy = 0.0          # raw wall s the client waited on the system
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.virtual = 0.0       # charged virtual s of the counted passes
        self.categories: Counter[str] = Counter()   # charged virtual s
        self.extra: dict[str, Any] = {}
        self.ref = 0             # the speed reading before the current op

    def add(self, kind: str, latency: float) -> None:
        """One item's latency (a statement or a served request)."""
        self.items.append((kind, latency, self.ref))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)

    def latencies(self, scaled: bool = True) -> list[float]:
        scale = self.speed.scale
        return [lat * scale(ref) if scaled else lat
                for _, lat, ref in self.items]

    def by_kind(self, scaled: bool = True) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for (kind, _, _), lat in zip(self.items, self.latencies(scaled)):
            out[kind].append(lat)
        return out

    def throughput(self, scaled: bool = True) -> float:
        """Items per second the client waited on the system."""
        busy = sum(wall * (self.speed.scale(ref) if scaled else 1.0)
                   for wall, ref in self.ops)
        return len(self.items) / busy if busy > 0 else 0.0


class Workload:
    """Base: subclasses define build/prepare/warmup and the op loop."""

    name = ""
    window = 1          # ops per tail window
    stride = None       # ops between tail windows (None: back to back)
    virtual_passes = 1  # passes whose charged virtual time is virtual_s

    def __init__(self, seed: int):
        self.seed = seed
        self.db = None

    def build(self):
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after the set-up (the oracle's copy of the data)."""

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, samples: Samples, counted: bool) -> None:
        """Run one pass; ``counted`` passes add to ``virtual_s``."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- shared --------------------------------------------------------

    def timed_phase(self, seconds: float) -> Samples:
        """Run passes until the ops have kept the system busy for
        ``seconds`` (answer checks and speed readings do not count) and
        at least one tail window is complete."""
        samples = Samples()
        samples.speed.read()
        passes = 0
        while (passes < self.virtual_passes or samples.busy < seconds
               or len(samples.items) < self.window):
            self.run_pass(samples, counted=passes < self.virtual_passes)
            passes += 1
        return samples

    def measure(self, samples: Samples, fn: Callable[[], Any],
                counted: bool) -> tuple[Any, float, Exception | None]:
        """Run one op: wall latency, charged virtual seconds by category,
        and the exception it raised, if any."""
        clock = self.db.clock
        samples.ref = samples.speed.latest
        before = clock.breakdown()
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, exc
        wall = time.perf_counter() - t0
        after = clock.breakdown()
        charged = 0.0
        for category, total in after.items():
            delta = total - before.get(category, 0.0)
            if delta:
                samples.categories[category] += delta
                charged += delta
        if counted:
            samples.virtual += charged
        samples.ops.append((wall, samples.ref))
        samples.busy += wall
        samples.speed.read_if_due()
        return result, wall, error

    def execute(self, sql: str):
        return self.db.execute(sql)


# -- olap / olap_sharded ------------------------------------------------

def _build_analytic(connect_kwargs: dict, tables: data.Tables,
                    index: bool):
    import repro

    db = repro.connect(**connect_kwargs)
    db.execute(data.T_DDL)
    for sql in data.insert_statements("t", tables.t_rows):
        db.execute(sql)
    if index:
        db.execute("CREATE INDEX t_id ON t (id)")
    else:
        db.execute(data.D_DDL)
        for sql in data.insert_statements("d", tables.d_rows):
            db.execute(sql)
    db.execute("ANALYZE")
    return db


class Olap(Workload):
    name = "olap"
    window = spec.OLAP_WINDOW
    stride = sum(spec.OLAP_PASS.values())
    virtual_passes = spec.OLAP_VIRTUAL_PASSES

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tables = data.analytic_tables(seed)
        self.passes = 0
        self.oracle: SqliteOracle | None = None

    def build(self):
        self.db = _build_analytic(spec.WORKLOADS[self.name]["connect"],
                                  self.tables, index=False)
        return self.db

    def prepare(self) -> None:
        self.oracle = SqliteOracle()
        self.oracle.load(data.T_DDL, "t", self.tables.t_rows)
        self.oracle.load(data.D_DDL, "d", self.tables.d_rows)

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.close()

    def warmup(self) -> None:
        for q in data.olap_warmup(self.seed):
            self._check(q, self.execute(q.sql).rows)

    def _check(self, q: data.Query, rows) -> str | None:
        return compare(rows, self.oracle.query(q.sql), q.ordered)

    def run_pass(self, samples: Samples, counted: bool) -> None:
        queries = data.olap_pass(self.seed, self.passes)
        self.passes += 1
        for q in queries:
            result, wall, error = self.measure(
                samples, lambda: self.execute(q.sql), counted)
            samples.attempted += 1
            samples.add(q.shape, wall)
            if error is not None:
                samples.fail(f"{q.shape}: {type(error).__name__}: {error}")
                continue
            mismatch = self._check(q, result.rows)
            if mismatch:
                samples.fail(f"{q.shape}: {mismatch} [{q.sql}]")


class OlapSharded(Olap):
    name = "olap_sharded"


# -- oltp_mixed ---------------------------------------------------------

class OltpMixed(Workload):
    name = "oltp_mixed"
    window = spec.OLTP_WINDOW
    virtual_passes = spec.OLTP_VIRTUAL_PASSES

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tables = data.analytic_tables(seed)
        self.ops = data.oltp_ops(seed)
        self.oracle: SqliteOracle | None = None

    def build(self):
        self.db = _build_analytic(spec.WORKLOADS[self.name]["connect"],
                                  self.tables, index=True)
        return self.db

    def prepare(self) -> None:
        self.oracle = SqliteOracle()
        self.oracle.load(data.T_DDL, "t", self.tables.t_rows)

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.close()

    def warmup(self) -> None:
        seen: set[str] = set()
        while len(seen) < len(spec.OLTP_MIX):
            op = next(self.ops)
            seen.add(op.kind)
            self._check(op, self.execute(op.sql))

    def _reread(self, key: int) -> str | None:
        sql = f"SELECT id, grp, k, v, w FROM t WHERE id = {key}"
        return compare(self.execute(sql).rows, self.oracle.query(sql),
                       ordered=False)

    def _check(self, op: data.OltpOp, result) -> str | None:
        if op.kind in ("point_select", "range_select"):
            return compare(result.rows, self.oracle.query(op.sql),
                           ordered=False)
        # a write: apply it to the oracle, compare the changed-row counts,
        # then read the row back from both sides
        changed = self.oracle.execute(op.sql)
        got = result.extra.get("rowcount")
        if got != changed:
            return f"rowcount {got} != expected {changed}"
        return self._reread(op.key)

    def run_pass(self, samples: Samples, counted: bool) -> None:
        for _ in range(self.window):
            op = next(self.ops)
            result, wall, error = self.measure(
                samples, lambda: self.execute(op.sql), counted)
            samples.attempted += 1
            samples.add(op.kind, wall)
            if error is not None:
                samples.fail(f"{op.kind}: {type(error).__name__}: {error}")
                if op.kind != "point_select" and op.kind != "range_select":
                    self.oracle.execute(op.sql)  # keep the copies in step
                continue
            mismatch = self._check(op, result)
            if mismatch:
                samples.fail(f"{op.kind}: {mismatch} [{op.sql[:120]}]")


# -- ctr_drift ----------------------------------------------------------

class CtrDrift(Workload):
    """Avazu CTR serving across cluster switches.

    One pass serves ``CTR_WINDOWS_PER_HALF`` windows on the current
    cluster, appends ``CTR_DRIFT_ROWS`` rows of the next cluster with one
    SQL INSERT, triggers one background refresh, and serves as many
    windows on the new rows while the server fine-tunes on them and swaps
    the new version in.  Each further pass moves on to the next cluster.

    The refresh is triggered by the client, not the serving monitor: with
    the monitor's defaults, the Brier score of 32-row requests is noisy
    enough to fire a refresh every few windows on unchanged data, while
    the served model's log-loss stays near the base-rate entropy on both
    clusters, so the switch itself is not what fires it.  One refresh per
    switch keeps the work of a pass fixed.
    """

    name = "ctr_drift"
    window = spec.CTR_WINDOW

    def __init__(self, seed: int):
        super().__init__(seed)
        import numpy as np

        self.source = data.AvazuSource(seed)
        self.c1_rows, self.c1_labels = self.source.rows(0, spec.CTR_C1_ROWS)
        self.rng = np.random.default_rng([seed, 5])
        self.server = None
        self.cluster = 0
        self.labels: list[float] = []     # by rid
        self.cluster_start = 0             # first rid of the current cluster
        self.arrival = 0.0

    def build(self):
        import repro

        self.db = repro.connect()
        self.db.execute(data.avazu_ddl())
        rows = [(rid, *row, label) for rid, (row, label)
                in enumerate(zip(self.c1_rows, self.c1_labels))]
        for sql in data.insert_statements("avazu", rows):
            self.db.execute(sql)
        self.db.execute("ANALYZE")
        self.labels = list(self.c1_labels)
        self.cluster, self.cluster_start = 0, 0
        return self.db

    def train(self) -> float:
        """The first PREDICT: trains the model, then infers 100 rows."""
        n = len(self.labels)
        t0 = time.perf_counter()
        result = self.db.execute(data.predict_range_sql(n - 100, n))
        elapsed = time.perf_counter() - t0
        if len(result.rows) != 100:
            raise RuntimeError(f"training PREDICT returned "
                               f"{len(result.rows)} rows, expected 100")
        return elapsed

    def prepare(self) -> None:
        from repro.serve.server import PredictServer

        self.server = PredictServer(self.db, refresh="manual",
                                    refresh_window=spec.CTR_REFRESH_WINDOW)

    def warmup(self) -> None:
        self._serve_window(Samples(), counted=False, scored=None)

    def _requests(self) -> list[tuple[str, int, int]]:
        """One window: (sql, first rid, rows) -- rid -1 for VALUES rows."""
        out = []
        inline, _ = self.source.rows(self.cluster,
                                     spec.CTR_WINDOW_REQUESTS // 2)
        span = len(self.labels) - self.cluster_start - spec.CTR_RANGE_ROWS
        for i in range(spec.CTR_WINDOW_REQUESTS):
            if i % 2 == 0:
                out.append((data.predict_values_sql(inline[i // 2]), -1, 1))
            else:
                low = self.cluster_start + int(self.rng.integers(0, span))
                out.append((data.predict_range_sql(
                    low, low + spec.CTR_RANGE_ROWS), low,
                    spec.CTR_RANGE_ROWS))
        return out

    def _serve_window(self, samples: Samples, counted: bool,
                      scored: list | None) -> None:
        requests = self._requests()
        gaps = self.rng.exponential(1.0 / spec.CTR_ARRIVAL_RATE,
                                    len(requests))
        submitted: list[tuple[Any, float]] = []

        def window():
            for (sql, _, _), gap in zip(requests, gaps):
                self.arrival += float(gap)
                submitted.append((self.server.submit(sql, at=self.arrival),
                                  time.perf_counter()))
            self.server.drain()
            return time.perf_counter()

        done, wall, error = self.measure(samples, window, counted)
        samples.attempted += len(requests)
        if error is not None:
            samples.fail(f"window: {type(error).__name__}: {error}")
            for _ in requests:
                samples.add("predict", wall)
            return
        for (request, at), (_, low, rows) in zip(submitted, requests):
            latency = done - at
            samples.add("predict", latency)
            samples.extra.setdefault("served", []).append(request)
            problem = _check_request(request, rows)
            if problem:
                samples.fail(f"request {request.request_id}: {problem}")
            elif scored is not None and low >= 0:
                probs = request.result.extra["probabilities"]
                scored.append((list(probs),
                               self.labels[low:low + rows]))

    def _drift(self, samples: Samples, counted: bool) -> None:
        """Append rows of the next cluster through one SQL INSERT."""
        self.cluster += 1
        rows, labels = self.source.rows(self.cluster, spec.CTR_DRIFT_ROWS)
        base = len(self.labels)
        table_rows = [(base + i, *row, label)
                      for i, (row, label) in enumerate(zip(rows, labels))]
        sql, = data.insert_statements("avazu", table_rows,
                                      per_statement=len(table_rows))
        result, wall, error = self.measure(
            samples, lambda: self.execute(sql), counted)
        samples.attempted += 1
        samples.add("insert", wall)
        if error is not None or result.extra.get("rowcount") != len(rows):
            samples.fail(f"drift insert: {error or result.rows}")
        self.labels.extend(labels)
        self.cluster_start = base
        # the drift trigger: the refresh fine-tunes on the appended rows
        # during the next drain and swaps in once serving time passes it
        self.server.refresh_now("avazu", "click_rate")

    def run_pass(self, samples: Samples, counted: bool) -> None:
        first = "served" not in samples.extra
        for _ in range(spec.CTR_WINDOWS_PER_HALF):
            self._serve_window(samples, counted, scored=None)
        self._drift(samples, counted)
        scored: list = []
        for _ in range(spec.CTR_WINDOWS_PER_HALF):
            self._serve_window(samples, counted, scored=scored)
        if first:
            probs = [p for ps, _ in scored for p in ps]
            labels = [y for _, ys in scored for y in ys]
            samples.extra["post_drift_logloss"] = (
                log_loss(probs, labels) if labels else float("nan"))
            samples.extra["first_pass_requests"] = len(
                samples.extra["served"])


    def serve_counters(self) -> dict[str, int]:
        """The server's cumulative counters, to difference over a phase."""
        server = self.server
        return {"cache_hits": server.cache.hits,
                "cache_misses": server.cache.misses,
                "refreshes": len(server.refreshes),
                "swapped": sum(1 for t in server.refreshes if t.swapped),
                "batch_retries": server.batch_retries,
                "deadline_misses": server.deadline_misses}

    def serve_metrics(self, samples: Samples, before: dict[str, int],
                      drain_s: float) -> dict[str, float]:
        """The serve layer's per-layer metrics over one timed phase."""
        after = self.serve_counters()
        delta = {k: after[k] - before[k] for k in after}
        served = samples.extra.get("served", [])
        batches = {r.batch_id for r in served}
        waits = [r.started_at - r.arrival for r in served
                 if r.started_at is not None]
        lookups = delta["cache_hits"] + delta["cache_misses"]
        return {
            "serve.drain_s": drain_s,
            "serve.batches": len(batches),
            "serve.mean_batch_requests": (len(served) / len(batches)
                                          if batches else 0.0),
            "serve.model_cache_hit_ratio": (delta["cache_hits"] / lookups
                                            if lookups else 0.0),
            "serve.refreshes": delta["refreshes"],
            "serve.refreshes_swapped": delta["swapped"],
            "serve.batch_retries": delta["batch_retries"],
            "serve.deadline_misses": delta["deadline_misses"],
            "serve.queue_wait_virtual_p50_ms": (
                statistics.median(waits) * 1e3 if waits else 0.0),
        }


def _check_request(request, rows: int) -> str | None:
    if request.error is not None:
        return request.error
    result = request.result
    if result is None or len(result.rows) != rows:
        return f"{0 if result is None else len(result.rows)} rows, " \
               f"expected {rows}"
    probs = result.extra.get("probabilities")
    if probs is None or len(probs) != rows:
        return "missing probabilities"
    for row, p in zip(result.rows, probs):
        if row[-1] not in (0, 1) or not 0.0 <= float(p) <= 1.0 \
                or row[-1] != int(p >= 0.5):
            return f"bad prediction {row[-1]!r} for probability {p!r}"
    return None


WORKLOADS: dict[str, type[Workload]] = {
    "olap": Olap, "olap_sharded": OlapSharded, "oltp_mixed": OltpMixed,
    "ctr_drift": CtrDrift,
}


def summarize(workload: Workload, samples: Samples) -> dict[str, Any]:
    """End-to-end numbers of one timed phase (not the set-up).  Wall
    metrics are scaled to the reference speed; ``raw_*`` are unscaled."""
    ms = 1e3
    out: dict[str, Any] = {}
    for prefix, scaled in (("", True), ("raw_", False)):
        latencies = samples.latencies(scaled)
        tail, percentile, windows = windowed_tail(
            latencies, workload.window, workload.stride)
        out[f"{prefix}throughput_ops"] = samples.throughput(scaled)
        out[f"{prefix}latency_p50_ms"] = statistics.median(latencies) * ms
        out[f"{prefix}latency_tail_ms"] = tail * ms
        for kind, values in sorted(samples.by_kind(scaled).items()):
            out[f"{prefix}{kind}_p50_ms"] = statistics.median(values) * ms
    out.update(virtual_s=samples.virtual,
               tail_percentile=percentile, tail_windows=windows,
               samples=len(samples.items),
               speed_readings_ms=[round(r * ms, 4)
                                  for r in samples.speed.readings])
    if isinstance(workload, CtrDrift):
        first = samples.extra["served"][:samples.extra["first_pass_requests"]]
        latencies = sorted(r.latency for r in first if r.error is None)
        out["serve_p99_virtual_ms"] = _percentile(latencies, 99.0) * ms
        out["post_drift_logloss"] = samples.extra["post_drift_logloss"]
    return out


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo)
