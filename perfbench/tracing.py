"""Spans around the public entry points of each layer, recorded from
outside the program.

:class:`Instrumentation` replaces a fixed list of functions and methods of
the ``repro`` package with wrappers that record one :class:`Span` per call
(one per ``next()`` for generators, so lazily consumed scans and pipelines
are timed where their work happens; per-row generators only add up their
time).  Nothing under ``src/`` is edited:
the wrappers are installed by assignment and removed the same way, so an
untraced phase runs the original code objects.

A span carries its name, wall start and end (``perf_counter`` seconds),
the span that was open when it began (its parent), and the id of the root
span it descends from, which every span of one statement or one served
window shares.  Spans stay in memory and are written out by
:meth:`SpanRecorder.dump` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .stats import qerror


@dataclass
class Span:
    span_id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0
    phase: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], start: float,
            end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration
            - covered(children.get(span.span_id, ()), span.start, span.end)
            for span in spans}


class SpanRecorder:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[tuple[str, str]] = Counter()
        self.timers: Counter[tuple[str, str]] = Counter()
        self.phase = ""
        self._stack: list[Span] = []
        self._next_id = 1

    def begin(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id=self._next_id,
                    parent=parent.span_id if parent else None,
                    trace=parent.trace if parent else self._next_id,
                    name=name, start=self.clock(), phase=self.phase,
                    attrs=attrs)
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order "
                               f"(open: {popped.name!r})")
        self.spans.append(span)

    def count(self, name: str) -> None:
        self.counters[(self.phase, name)] += 1

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[(self.phase, name)] += seconds

    def in_phases(self, *phases: str) -> list[Span]:
        return [s for s in self.spans if s.phase in phases]

    def counted(self, name: str, *phases: str) -> int:
        return sum(self.counters[(phase, name)] for phase in phases)

    def timed(self, name: str, *phases: str) -> float:
        return sum(self.timers[(phase, name)] for phase in phases)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(
                    {"id": s.span_id, "parent": s.parent, "trace": s.trace,
                     "name": s.name, "start": s.start, "end": s.end,
                     "phase": s.phase, **s.attrs}, default=str) + "\n")


def _wrap_call(recorder: SpanRecorder, name: str, fn: Callable,
               on_result: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if on_result is not None:
            on_result(span, args, result)
        return result
    return wrapper


def _wrap_generator(recorder: SpanRecorder, name: str,
                    fn: Callable) -> Callable:
    """One span per ``next()``: the time the consumer spends inside the
    generator, wherever it interleaves with the consumer's own work."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(f"{name}.calls")
        inner = fn(*args, **kwargs)
        try:
            while True:
                span = recorder.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.end(span)
                yield item
        finally:
            inner.close()
    return wrapper


def _wrap_generator_total(recorder: SpanRecorder, name: str,
                          fn: Callable) -> Callable:
    """Like :func:`_wrap_generator`, but for per-row generators: adds up
    the time inside ``next()`` without a span per row, whose bookkeeping
    would cost more than the row."""
    clock = recorder.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(f"{name}.calls")
        inner = fn(*args, **kwargs)
        spent = 0.0
        try:
            while True:
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    spent += clock() - t0
                yield item
        finally:
            inner.close()
            recorder.add_time(name, spent)
    return wrapper


def _wrap_counter(recorder: SpanRecorder, name: str,
                  fn: Callable) -> Callable:
    """Count calls by their boolean outcome, without a span (the buffer
    pool's per-page calls are too frequent to time one by one)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        recorder.count(f"{name}.{'hit' if result else 'miss'}")
        return result
    return wrapper


def _note_view(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, table, hit):
        recorder.count(f"view.{'hit' if hit else 'miss'}")
        return fn(self, table, hit)
    return wrapper


class Instrumentation:
    """Installs and removes the layer wrappers on the ``repro`` package."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    # -- targets ---------------------------------------------------------

    def _targets(self):
        from repro.ai import loader
        from repro.ai.engine import AIEngine
        from repro.db import NeurDB
        from repro.exec import pipeline
        from repro.exec.distributed import DistributedScheduler
        from repro.exec.executor import Executor
        from repro.plan.optimizer import Planner
        from repro.serve.server import PredictServer
        from repro.sql import parser
        from repro.storage.buffer import BufferPool
        from repro.storage.catalog import Catalog
        from repro.storage.heap import HeapTable
        from repro.storage.index import BPlusTreeIndex, HashIndex

        # (owner, attribute, span name, kind, result hook); a module-level
        # function is replaced in every repro module that imported it
        return [
            (NeurDB, "execute", "db.execute", "call", None),
            (PredictServer, "submit", "serve.submit", "call", None),
            (PredictServer, "drain", "serve.drain", "call", None),
            (parser, "parse", "sql.parse", "call", None),
            (Planner, "plan_select", "plan.plan_select", "call",
             _note_plan),
            (Executor, "run", "exec.run", "call", _note_result),
            (Executor, "build", "exec.build", "call", None),
            (pipeline, "compile_pipelines", "exec.compile", "call", None),
            (pipeline, "run_program", "exec.run_program", "gen", None),
            (DistributedScheduler, "run", "dist.run", "call", None),
            (HeapTable, "insert", "storage.insert", "call", None),
            (HeapTable, "scan_column_batches", "storage.scan", "gen", None),
            (HeapTable, "scan_morsels", "storage.scan", "call", None),
            (HeapTable, "scan", "storage.row_scan", "rows", None),
            (Catalog, "analyze", "storage.analyze", "call", None),
            (BPlusTreeIndex, "search", "storage.index", "call", None),
            (BPlusTreeIndex, "range_scan", "storage.index_range", "rows",
             None),
            (HashIndex, "search", "storage.index", "call", None),
            (loader, "table_training_set", "ai.loader", "call", _note_len),
            (loader, "table_training_set_tail", "ai.loader", "call",
             _note_len),
            (loader, "table_feature_columns", "ai.loader", "call",
             _note_features),
            (AIEngine, "train", "ai.train", "call", _note_train),
            (AIEngine, "infer", "ai.infer", "call", _note_infer),
            (AIEngine, "infer_with_model", "ai.infer", "call", _note_infer),
            (AIEngine, "fine_tune", "ai.finetune", "call", None),
            (BufferPool, "access", "buffer", "count", None),
            (BufferPool, "note_view", "view", "view", None),
        ]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("instrumentation already installed")
        rec = self.recorder
        for owner, attr, name, kind, hook in self._targets():
            original = getattr(owner, attr)
            if kind in ("gen", "rows"):
                if not inspect.isgeneratorfunction(original):
                    raise TypeError(f"{attr} is no longer a generator")
                wrap = _wrap_generator if kind == "gen" else \
                    _wrap_generator_total
                wrapped = wrap(rec, name, original)
            elif kind == "count":
                wrapped = _wrap_counter(rec, name, original)
            elif kind == "view":
                wrapped = _note_view(rec, original)
            else:
                wrapped = _wrap_call(rec, name, original, hook)
            for holder in self._holders(owner, attr, original):
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    @staticmethod
    def _holders(owner: Any, attr: str, original: Any) -> list[Any]:
        if inspect.isclass(owner):
            return [owner]
        # a module function: rebind it in every module that imported it
        return [module for mod_name, module in list(sys.modules.items())
                if (mod_name == "repro" or mod_name.startswith("repro."))
                and getattr(module, attr, None) is original]


# -- result hooks: record what the layer returned on its span -------------

def _note_plan(span: Span, args, plan) -> None:
    from repro.plan import logical
    span.attrs["est_rows"] = float(plan.est_rows)
    span.attrs["index_plan"] = any(isinstance(node, logical.IndexScan)
                                   for node in plan.walk())


def _note_result(span: Span, args, result) -> None:
    span.attrs["rows"] = len(result.rows)
    dist = result.extra.get("distributed")
    if dist is not None:
        span.attrs["dist"] = {
            "tasks": dist["tasks"], "rows_shuffled": dist["rows_shuffled"],
            "bytes_on_wire": dist["bytes_on_wire"],
            "exchange_virtual_s": dist["exchange_seconds"],
            "makespan_virtual_s": dist["virtual_makespan"],
            "charged_virtual_s": dist["virtual_charged"]}


def _note_len(span: Span, args, result) -> None:
    span.attrs["rows"] = len(result)


def _note_features(span: Span, args, result) -> None:
    span.attrs["rows"] = len(result[0])


def _note_train(span: Span, args, result) -> None:
    span.attrs["samples"] = result.samples_processed


def _note_infer(span: Span, args, result) -> None:
    span.attrs["rows"] = len(result.predictions)


# -- per-layer metrics ------------------------------------------------------

#: Charged categories of the operators the executor runs.
OPERATOR_CATEGORIES = ("scan", "filter", "project", "join", "agg", "sort",
                       "distinct", "spill")


class PhaseSpans:
    """Span arithmetic over the spans of some phases."""

    def __init__(self, recorder: SpanRecorder, *phases: str):
        self.recorder = recorder
        self.phases = phases
        self.spans = recorder.in_phases(*phases)
        self._by_id = {s.span_id: s for s in self.spans}

    def top(self, name: str) -> list[Span]:
        """Spans called ``name`` whose parent is not also ``name`` (a
        recursive call is already inside its caller's span)."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            parent = self._by_id.get(span.parent)
            if parent is None or parent.name != name:
                out.append(span)
        return out

    def seconds(self, name: str) -> float:
        return sum(s.duration for s in self.top(name))

    def roots_seconds(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def counted(self, name: str) -> int:
        return self.recorder.counted(name, *self.phases)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(recorder: SpanRecorder,
                  timed_virtual: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers from the spans of a traced run.

    Phases are ``setup`` (DDL, ingest, index, ANALYZE), ``train`` (the
    first PREDICT, ctr_drift only) and ``timed``.  Metrics are over the
    timed phase unless named ``setup.*``; ``storage.analyze_s`` and the
    ``ai.train_*`` metrics read the phase where that work happens.
    ``timed_virtual`` is the timed phase's charged virtual seconds by
    category.
    """
    timed = PhaseSpans(recorder, "timed")
    setup = PhaseSpans(recorder, "setup")
    train = PhaseSpans(recorder, "train", "timed")
    m: dict[str, float] = {}

    def parse_metrics(prefix: str, phase: PhaseSpans) -> None:
        total = phase.roots_seconds()
        m[f"{prefix}sql.parse_calls"] = len(phase.top("sql.parse"))
        m[f"{prefix}sql.parse_s"] = phase.seconds("sql.parse")
        m[f"{prefix}sql.parse_share"] = _ratio(
            m[f"{prefix}sql.parse_s"], total)

    parse_metrics("", timed)
    parse_metrics("setup.", setup)
    total = timed.roots_seconds()

    plans = timed.top("plan.plan_select")
    m["plan.plan_calls"] = len(plans)
    m["plan.plan_s"] = sum(s.duration for s in plans)
    m["plan.plan_share"] = _ratio(m["plan.plan_s"], total)
    runs = timed.top("exec.run")
    rows_by_trace = {s.trace: s.attrs.get("rows", 0) for s in runs}
    errors = [qerror(p.attrs["est_rows"], rows_by_trace[p.trace])
              for p in plans if p.trace in rows_by_trace]
    m["plan.qerror_p50"] = _median(errors)
    m["plan.qerror_max"] = max(errors, default=0.0)
    m["plan.index_plan_frac"] = _ratio(
        sum(1 for p in plans if p.attrs.get("index_plan")), len(plans))

    own = self_times(timed.spans)
    m["exec.compile_s"] = (timed.seconds("exec.build")
                           + timed.seconds("exec.compile"))
    m["exec.run_s"] = timed.seconds("exec.run_program")
    m["exec.materialize_s"] = sum(own[s.span_id] for s in runs)
    m["exec.rows_out"] = sum(s.attrs.get("rows", 0) for s in runs)
    m["exec.run_share"] = _ratio(m["exec.run_s"], total)
    m["dist.run_s"] = timed.seconds("dist.run")
    m["exec.wall_per_virtual"] = _ratio(
        m["exec.run_s"] + m["dist.run_s"],
        sum(timed_virtual.get(c, 0.0) for c in OPERATOR_CATEGORIES))

    dist = [s.attrs["dist"] for s in runs if "dist" in s.attrs]
    for key in ("tasks", "rows_shuffled", "bytes_on_wire",
                "exchange_virtual_s", "makespan_virtual_s"):
        m[f"dist.{key}"] = sum(d[key] for d in dist)
    m["dist.modeled_speedup"] = _ratio(
        sum(d["charged_virtual_s"] for d in dist),
        m["dist.makespan_virtual_s"])

    for prefix, phase in (("", timed), ("setup.", setup)):
        inserts = phase.top("storage.insert")
        m[f"{prefix}storage.insert_rows"] = len(inserts)
        m[f"{prefix}storage.insert_s"] = sum(s.duration for s in inserts)
        m[f"{prefix}storage.insert_rows_per_s"] = _ratio(
            len(inserts), m[f"{prefix}storage.insert_s"])
    m["storage.analyze_s"] = setup.seconds("storage.analyze")
    m["storage.scan_s"] = timed.seconds("storage.scan")
    m["storage.row_scan_s"] = recorder.timed("storage.row_scan", "timed")
    m["storage.index_lookups"] = (len(timed.top("storage.index"))
                                  + timed.counted("storage.index_range.calls"))
    m["storage.index_s"] = (timed.seconds("storage.index")
                            + recorder.timed("storage.index_range", "timed"))
    hits, misses = timed.counted("buffer.hit"), timed.counted("buffer.miss")
    m["storage.buffer_hit_ratio"] = _ratio(hits, hits + misses)
    vhits, rebuilds = timed.counted("view.hit"), timed.counted("view.miss")
    m["storage.view_hit_ratio"] = _ratio(vhits, vhits + rebuilds)
    m["storage.view_rebuilds"] = rebuilds

    loaders = timed.top("ai.loader")
    m["ai.loader_s"] = sum(s.duration for s in loaders)
    m["ai.loader_rows"] = sum(s.attrs.get("rows", 0) for s in loaders)
    trains = train.top("ai.train")
    m["ai.train_s"] = sum(s.duration for s in trains)
    m["ai.train_samples_per_s"] = _ratio(
        sum(s.attrs.get("samples", 0) for s in trains), m["ai.train_s"])
    infers = timed.top("ai.infer")
    m["ai.infer_s"] = sum(s.duration for s in infers)
    m["ai.infer_rows_per_s"] = _ratio(
        sum(s.attrs.get("rows", 0) for s in infers), m["ai.infer_s"])
    tunes = timed.top("ai.finetune")
    m["ai.finetune_calls"] = len(tunes)
    m["ai.finetune_s"] = sum(s.duration for s in tunes)
    m["ai.wall_per_virtual"] = _ratio(
        m["ai.infer_s"] + m["ai.finetune_s"],
        timed_virtual.get("ai-infer", 0.0)
        + timed_virtual.get("ai-finetune", 0.0))
    return m
