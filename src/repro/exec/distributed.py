"""The placement model: parallel and distributed execution as schedules of
recorded charges over one run of the fused pipeline.

Neither scale-out engine executes anything its own way.  The query runs
once, serially, through the fused driver in :mod:`repro.exec.pipeline`,
charging the shared clock exactly as the batch engine does (budgets fire
at the charge that crosses them).  What changes is *bookkeeping*: every
scan pipeline is split into tasks — one per morsel of
:data:`DEFAULT_MORSEL_ROWS` rows, morsels never spanning a shard — and the
:class:`DistributedScheduler` attached to the clock as its ``recorder``
files every charge under the task, the shard's page I/O, the network, or
the coordinator's serial lane.  Each task also records the rows and
modeled bytes it hands downstream.  The parallel engine is the
``nodes=1`` case of the same model.

Afterwards the recorded costs are *placed*:

* shard ``i`` (an unsharded table is one pseudo-shard) lives on node
  ``i % nodes``; per scan pipeline each node pays its page I/O serially,
  then list-schedules its task costs onto ``workers`` lanes
  (:class:`~repro.common.simtime.LaneSchedule`), and the phase costs the
  slowest node;
* a sort's one n·log₂ n charge splits into per-task runs of nᵢ·log₂ nᵢ,
  placed like a phase, and the merge remainder
  n·log₂ n − Σ nᵢ·log₂ nᵢ on the lane;
* everything else — sink finishes, serial stages (DISTINCT), serial
  operators (index scans, nested-loop joins) and the pipelines fed by a
  breaker's output — is coordinator lane time; a plan with LIMIT is lane
  time throughout;
* exchanges are charged through the
  :class:`~repro.common.simtime.NetworkModel` and sized from execution:
  :func:`block_bytes` of the rows a task sends, and one aggregate state
  (:func:`state_bytes`) per (node, group) the node's tasks touched.  Wide
  GROUP BYs repartition those states to owner nodes (group id modulo the
  node count) before the owners ship their groups to the coordinator.

Compute charges are therefore identical at every topology, and so are
the compute totals in ``charged_by_category``, folded over the buckets
in a fixed order — only the network categories (zero at one node) and
the modeled makespan move with ``nodes`` and ``workers``.

**Faults** replay recorded charges.  Once a task has run, the fault plan
is consulted per attempt at site ``(scope, phase, task, attempt)``: a
``task_error`` strikes before an attempt's work, ``slow_worker`` and
``slow_node`` (targeted at ``node<i>``) charge their latency after it,
and a ``worker_crash`` loses the attempt after its work — the next
attempt charges the task's recorded charges again and the crashed lane
leaves the phase.  Past ``retry_limit`` retries the fault's own
``TransientError``/``WorkerCrash`` escapes.  Rows were produced once, so
recovered results are bit-identical by construction.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

from repro.common import categories as cat
from repro.common.errors import TransientError, WorkerCrash
from repro.common.faults import FaultPlan
from repro.common.simtime import LaneSchedule, NetworkModel, SimClock
from repro.exec import operators as ops
from repro.exec import pipeline as pl
from repro.exec.batch import RowBlock

#: rows per morsel task: half the batch engine's fused scan block, small
#: enough to spread a 20k-row scan over a few workers, large enough that
#: the one execution's per-block work stays close to the batch engine's
DEFAULT_MORSEL_ROWS = 8192
DEFAULT_WORKERS = 4
DEFAULT_NODES = 4
DEFAULT_RETRY_LIMIT = 3

#: the coordinator: serial work, merges, and the query result live here
COORDINATOR = 0

#: a GROUP BY whose busiest node touches more groups than this
#: repartitions its states across the nodes instead of gathering them
SHUFFLE_MIN_GROUPS = 32

#: modeled wire size per value by typed column kind: typed columns ship
#: their fixed-width representation; strings and objects a pointer-ish 16
_BYTES_BY_KIND = {"i8": 8, "f8": 8, "bool": 1}
_DEFAULT_VALUE_BYTES = 16


def _value_bytes(column) -> int:
    kind = getattr(column, "kind", None)  # a TypedColumn
    if kind is not None:
        return _BYTES_BY_KIND.get(kind, _DEFAULT_VALUE_BYTES)
    if column.dtype == object:
        return _DEFAULT_VALUE_BYTES
    return column.dtype.itemsize


def block_bytes(block: RowBlock, rows: int | None = None) -> int:
    """Modeled on-the-wire size of ``rows`` rows of ``block`` (all of
    them by default): deterministic, from the columns' representation."""
    rows = len(block) if rows is None else rows
    return sum(_value_bytes(column) for column in block.columns) * rows


def state_bytes(op: ops.AggregateOp) -> int:
    """Modeled size of one group's aggregate state: 8 bytes per group-key
    column plus a count and a running field (16 bytes) per call."""
    return 8 * len(op.plan_node.group_by) + 16 * len(op._agg_calls)


def _seconds(bucket: dict[str, float]) -> float:
    """Total of a bucket: the charges (category -> seconds) filed under
    one task attempt, one shard's page I/O, the network, or the lane."""
    return sum(bucket.values())


class _Task:
    __slots__ = ("node", "index", "attempts", "crashes", "rows", "bytes")

    def __init__(self, node: int, index: int):
        self.node = node
        self.index = index
        self.attempts: list[dict[str, float]] = [{}]
        self.crashes = 0
        self.rows = 0
        self.bytes = 0


class _Phase:
    """One scan pipeline's tasks and per-shard page I/O, plus the sort
    runs its tasks feed (when its sink is a sort)."""

    def __init__(self, number: int, nodes: int):
        self.number = number
        self.tasks: list[_Task] = []
        #: (node, page-I/O bucket) per shard, in shard order
        self.io: list[tuple[int, dict[str, float]]] = []
        self.sorts = False


class DistributedScheduler:
    """Runs a compiled plan once and places its recorded charges on
    ``nodes`` x ``workers`` lanes.

    ``run(operator)`` returns ``(blocks, stats)``; :meth:`map` runs a
    list of work items as one phase of tasks (the AI loader's fault
    surface).  Single-use, like the operator tree it drives.
    """

    def __init__(self, clock: SimClock, nodes: int = DEFAULT_NODES,
                 workers: int = DEFAULT_WORKERS,
                 morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 faults: FaultPlan | None = None,
                 retry_limit: int = DEFAULT_RETRY_LIMIT,
                 registry=None):
        for name, value, low in (("nodes", nodes, 1), ("workers", workers, 1),
                                 ("morsel_rows", morsel_rows, 1),
                                 ("retry_limit", retry_limit, 0)):
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        self.nodes = nodes
        self.workers = workers
        self.morsel_rows = morsel_rows
        self.faults = faults
        self.retry_limit = retry_limit
        self._scope = faults.scope("sched") if faults is not None else ""
        self._clock = clock
        self._registry = registry
        self._network = NetworkModel(nodes)
        self._lane: dict[str, float] = {}
        self._net: dict[str, float] = {}
        self._bucket = self._lane
        self._phases: list[_Phase] = []
        self._phase: _Phase | None = None
        self._task: _Task | None = None
        # the running scan pipeline's first serial stage, and the group
        # table its tasks aggregate into (None: no aggregate sink)
        self._tail: ops.Operator | None = None
        self._agg_state = None
        self._builds: dict[pl.BuildSink, tuple[int, int]] = {}
        self.exchanges: list[dict] = []
        self._exchange_makespan = 0.0
        self._node_net = [{"rows_sent": 0, "bytes_sent": 0,
                           "rows_received": 0, "bytes_received": 0,
                           "nic_queued": 0} for _ in range(nodes)]
        self.task_retries = 0
        self.crashes_recovered = 0

    # -- public entry ------------------------------------------------------

    def run(self, operator: ops.Operator) -> tuple[list[RowBlock], dict]:
        """Execute the tree once; returns (result blocks, stats).  Like
        the batch engine, a failing query leaves its charges behind."""
        try:
            with self._recording():
                program = pl.compile_pipelines(operator)
                blocks = pl.run_placed(
                    program, self._clock,
                    None if program.has_limit else self)
        finally:
            stats = self.finish()
        return blocks, stats

    def map(self, items, fn: Callable[[Any, SimClock], Any]) -> list:
        """``fn(item, clock)`` over ``items`` in order, each item one task
        of a single phase on the coordinator, faults replayed per task."""
        results = []
        with self._recording():
            self._phase = self._new_phase()
            for index, item in enumerate(items):
                task = self._open(COORDINATOR, index)
                results.append(fn(item, self._clock))
                self._close(task)
        return results

    def finish(self) -> dict:
        """Place the recorded charges and return the scheduler stats."""
        per_node = [{"node": node, "tasks": 0, "io_seconds": 0.0,
                     "compute_seconds": 0.0, "busy_seconds": 0.0,
                     **self._node_net[node]} for node in range(self.nodes)]
        tracer = self._clock.tracer
        makespan = 0.0
        runs_total = 0.0
        for phase in self._phases:
            by_node: dict[int, list[_Task]] = {}
            for task in phase.tasks:
                by_node.setdefault(task.node, []).append(task)
            makespan += self._place(phase, by_node, per_node, makespan,
                                    tracer)
            if phase.sorts:
                runs = [(task.node, ops.SortOp._sort_cost(task.rows))
                        for task in phase.tasks]
                runs_total += sum(cost for _, cost in runs)
                makespan += self._place_runs(runs, per_node)
        lane = max(0.0, _seconds(self._lane) - runs_total)
        makespan += self._exchange_makespan + lane
        by_category = self._charged_by_category()
        charged = sum(by_category.values())
        tasks = sum(len(phase.tasks) for phase in self._phases)
        stats = {
            "nodes": self.nodes,
            "workers": self.workers,
            "morsel_rows": self.morsel_rows,
            "tasks": tasks,
            "parallel_phases": sum(1 for p in self._phases if p.tasks),
            "virtual_charged": charged,
            "virtual_makespan": makespan,
            "modeled_speedup": charged / makespan if makespan > 0 else 1.0,
            "charged_by_category": by_category,
            "rows_shuffled": sum(e["rows"] for e in self.exchanges
                                 if e["kind"] == cat.SHUFFLE),
            "bytes_on_wire": sum(e["bytes"] for e in self.exchanges),
            "exchange_seconds": _seconds(self._net),
            "lane_seconds": lane,
            "exchanges": list(self.exchanges),
            "per_node": per_node,
            "task_retries": self.task_retries,
            "crashes_recovered": self.crashes_recovered,
        }
        registry = self._registry
        if registry is not None:
            registry.counter("exec.tasks").inc(tasks)
            registry.counter("exec.parallel_phases").inc(
                stats["parallel_phases"])
            if self.task_retries:
                registry.counter("exec.task_retries").inc(self.task_retries)
            if self.crashes_recovered:
                registry.counter("exec.crashes_recovered").inc(
                    self.crashes_recovered)
            registry.histogram("exec.makespan").observe(makespan)
            registry.counter("dist.exchanges").inc(len(self.exchanges))
            for entry in per_node:
                node = entry["node"]
                registry.gauge("dist.node.makespan", node=node).set(
                    entry["busy_seconds"])
                registry.gauge("dist.node.rows_shuffled", node=node).set(
                    entry["rows_sent"])
                registry.gauge("dist.node.bytes_shuffled", node=node).set(
                    entry["bytes_sent"])
                registry.gauge("dist.node.queue_depth", node=node).set(
                    entry["nic_queued"])
        return stats

    # -- recording ---------------------------------------------------------

    def charge(self, category: str, seconds: float) -> None:
        """Clock callback: file one charge under the open bucket."""
        bucket = self._bucket
        bucket[category] = bucket.get(category, 0.0) + seconds

    def _charged_by_category(self) -> dict[str, float]:
        """Per-category totals folded over the buckets in a fixed order.
        Which bucket a charge lands in depends only on the plan, the data
        and the faults — never on the topology — so compute categories
        are bit-identical at every node and worker count."""
        buckets = [self._lane]
        for phase in self._phases:
            buckets += [bucket for _, bucket in phase.io]
            buckets += [attempt for task in phase.tasks
                        for attempt in task.attempts]
        buckets.append(self._net)
        totals: dict[str, float] = {}
        for bucket in buckets:
            for category, seconds in bucket.items():
                totals[category] = totals.get(category, 0.0) + seconds
        return totals

    @contextmanager
    def _recording(self):
        previous = self._clock.recorder
        self._clock.recorder = self
        try:
            yield
        finally:
            self._clock.recorder = previous
            self._bucket = self._lane

    def _new_phase(self) -> _Phase:
        phase = _Phase(len(self._phases), self.nodes)
        self._phases.append(phase)
        return phase

    def _open(self, node: int, index: int) -> _Task:
        task = _Task(node, index)
        self._phase.tasks.append(task)
        self._task = task
        self._bucket = task.attempts[0]
        return task

    def _close(self, task: _Task) -> None:
        if self.faults is not None:
            self._replay(task)
        self._task = None
        self._bucket = self._lane

    def _replay(self, task: _Task) -> None:
        """Consult the fault plan for ``task``'s attempts: the execution's
        charges are attempt 0's work; a retried attempt after a crash
        charges them again."""
        faults, clock = self.faults, self._clock
        work = dict(task.attempts[0])
        site_of = f"{self._scope}:{self._phase.number}:{task.index}:"
        ran = False
        attempt = 0
        while True:
            site = site_of + str(attempt)
            try:
                faults.maybe_raise("task_error", site, index=task.index,
                                   attempt=attempt)
                if ran:
                    bucket = {}
                    task.attempts.append(bucket)
                    self._bucket = bucket
                    for category, seconds in work.items():
                        clock.advance(seconds, category)  # repro: charge-category-ok replaying recorded charges whose categories were checked at their sites
                ran = True
                for kind, target in (("slow_worker", None),
                                     ("slow_node", f"node{task.node}")):
                    spec = faults.decide(kind, site, index=task.index,
                                         target=target, attempt=attempt)
                    if spec is not None and spec.latency > 0:
                        clock.advance(spec.latency, cat.FAULT_SLOW)
                faults.maybe_raise("worker_crash", site, index=task.index,
                                   attempt=attempt)
                return
            except (TransientError, WorkerCrash) as exc:
                if attempt >= self.retry_limit:
                    raise
                crashed = isinstance(exc, WorkerCrash)
                if crashed:
                    task.crashes += 1
                    self.crashes_recovered += 1
                else:
                    self.task_retries += 1
                if clock.tracer is not None:
                    clock.tracer.event(
                        "worker_crash" if crashed else "task_retry",
                        phase=self._phase.number, morsel=task.index,
                        attempt=attempt,
                        error=f"{type(exc).__name__}: {exc}")
                attempt += 1

    # -- the pipeline driver's hooks ----------------------------------------

    def carriers(self, pipeline: pl.Pipeline, clock: SimClock):
        """The carriers of ``pipeline``: a scan splits into one task per
        morsel on its shard's node; any other source is lane work."""
        source = pipeline.source
        if not isinstance(source, pl.ScanSource):
            return source.carriers(clock)
        return self._scan_tasks(pipeline, clock)

    def output(self, carrier: pl.BlockCarrier) -> None:
        """A carrier leaves the pipeline's parallel stages: record what the
        task sends on; serial stages after this run on the lane."""
        task = self._task
        if task is None:  # lane work: nothing is placed
            return
        task.rows += carrier.count
        task.bytes += block_bytes(carrier.block, carrier.count)
        if self._tail is not None:
            self._bucket = self._lane

    def _scan_tasks(self, pipeline: pl.Pipeline, clock: SimClock):
        scan = pipeline.source.op
        table = scan._table
        shards = (table.shard_tables if getattr(table, "sharded", False)
                  else [table])
        stages = pipeline.stages[:pipeline.serial_from]
        self._tail = (pipeline.stages[pipeline.serial_from].op
                      if pipeline.serial_from < len(pipeline.stages)
                      else None)
        sink = pipeline.sink
        nodes_used = sorted({i % self.nodes for i in range(len(shards))})
        # states are only worth sizing when they sit on several nodes
        self._agg_state = (sink._state if self._tail is None
                           and len(nodes_used) > 1
                           and isinstance(sink, pl.AggregateSink) else None)
        self._broadcast_builds(stages, nodes_used)
        phase = self._phase = self._new_phase()
        index = 0
        for shard_idx, shard in enumerate(shards):
            node = shard_idx % self.nodes
            self._bucket = {}
            phase.io.append((node, self._bucket))
            morsels = shard.scan_morsels(self.morsel_rows)
            for columns, n in morsels:
                task = self._open(node, index)
                index += 1
                if self._agg_state is not None:
                    self._agg_state.marker = node
                out = scan.scan_block(scan.make_block(columns, n), clock)
                if out is not None:
                    yield pl.BlockCarrier(*out)
                self._close(task)
        if self._agg_state is not None:
            self._agg_state.marker = None
        self._bucket = self._lane
        self._exchange_after(pipeline, phase)

    # -- exchanges ---------------------------------------------------------

    def _exchange_after(self, pipeline: pl.Pipeline, phase: _Phase) -> None:
        """Ship what a scan pipeline's tasks produced to where the next
        step runs."""
        sink = pipeline.sink
        if self._tail is not None:
            self._gather(phase.tasks, self._tail, "serial tail")
        elif isinstance(sink, pl.AggregateSink):
            self._aggregate_exchange(sink)
        elif isinstance(sink, pl.SortSink):
            phase.sorts = True
            self._gather(phase.tasks, sink.op, "sorted runs")
        elif isinstance(sink, pl.BuildSink):
            self._builds[sink] = (sum(t.rows for t in phase.tasks),
                                  sum(t.bytes for t in phase.tasks))
            self._gather(phase.tasks, sink.op, "build parts")
        else:
            op = (sink.op if sink is not None else
                  pipeline.stages[-1].op if pipeline.stages
                  else pipeline.source.op)
            self._gather(phase.tasks, op,
                         "result gather" if sink is None else "collect gather")

    def _gather(self, tasks: list[_Task], op, label: str) -> None:
        self._exchange(cat.GATHER,
                       [(task.node, COORDINATOR, task.bytes, task.rows)
                        for task in tasks], op, label)

    def _aggregate_exchange(self, sink: pl.AggregateSink) -> None:
        """One state per (node, group): gathered to the coordinator, or —
        for a wide GROUP BY across nodes — repartitioned to each group's
        owner node, which then ships its finished groups."""
        op = sink.op
        size = state_bytes(op)
        marks = sink._state.marks
        groups = [np.flatnonzero(marks[node][:len(sink._state)])
                  if node in marks else np.zeros(0, dtype=np.int64)
                  for node in range(self.nodes)]
        marks.clear()
        if (op.plan_node.group_by
                and max(len(g) for g in groups) > SHUFFLE_MIN_GROUPS):
            owner = np.arange(len(sink._state)) % self.nodes
            transfers = []
            for node, gids in enumerate(groups):
                counts = np.bincount(owner[gids], minlength=self.nodes)
                transfers += [(node, dst, int(k) * size, int(k))
                              for dst, k in enumerate(counts)]
            self._exchange(cat.SHUFFLE, transfers, op, "partial repartition")
            owned = np.bincount(owner, minlength=self.nodes)
            self._exchange(cat.GATHER,
                           [(node, COORDINATOR, int(k) * size, int(k))
                            for node, k in enumerate(owned)],
                           op, "merged partitions")
        else:
            self._exchange(cat.GATHER,
                           [(node, COORDINATOR, len(g) * size, len(g))
                            for node, g in enumerate(groups)],
                           op, "aggregate partials")

    def _broadcast_builds(self, stages: list[pl.PipelineStage],
                          nodes_used: list[int]) -> None:
        """Ship each probed build table from the coordinator to every
        other node running this scan's tasks."""
        targets = [node for node in nodes_used if node != COORDINATOR]
        if not targets:
            return
        for stage in stages:
            if not isinstance(stage, pl.ProbeStage):
                continue
            build = stage.build
            rows, nbytes = self._builds.get(build, (None, None))
            if rows is None:
                # built on the lane from a breaker's output
                rows = build.build_rows
                nbytes = rows * 8 * len(stage.op._left.layout)
            self._exchange(cat.BROADCAST,
                           [(COORDINATOR, node, nbytes, rows)
                            for node in targets],
                           stage.op, "build broadcast")

    def _exchange(self, category: str, transfers: list, op,
                  label: str) -> None:
        """Charge one exchange under ``op``'s span and log it; local and
        empty transfers ship nothing."""
        if not any(src != dst and (nbytes > 0 or rows > 0)
                   for src, dst, nbytes, rows in transfers):
            return
        tracer = self._clock.tracer
        previous, self._bucket = self._bucket, self._net
        if tracer is not None:
            tracer.push(tracer.operator_span(op))
        try:
            stats = self._network.exchange(category, transfers, self._clock)
        finally:
            if tracer is not None:
                tracer.pop()
            self._bucket = previous
        self._exchange_makespan += stats["makespan"]
        for entry in stats["per_node"]:
            net = self._node_net[entry["node"]]
            for key in net:
                net[key] += entry[key]
        record = {
            "kind": category,
            "label": label,
            "op": type(op).__name__,
            "node_id": getattr(getattr(op, "plan_node", None), "node_id",
                               None),
            "rows": stats["rows"],
            "bytes": int(stats["bytes"]),
            "messages": stats["messages"],
            "seconds": sum(stats["seconds"].values()),
            "makespan": stats["makespan"],
        }
        self.exchanges.append(record)
        if tracer is not None:
            tracer.event("exchange", kind=category, label=label,
                         rows=record["rows"], bytes=record["bytes"],
                         messages=record["messages"])

    # -- placement ---------------------------------------------------------

    def _place(self, phase: _Phase, by_node: dict[int, list[_Task]],
               per_node: list[dict], base: float, tracer) -> float:
        """Per node: page I/O, then every attempt list-scheduled onto the
        workers that survived the phase; the phase lasts as long as its
        slowest node."""
        io_by_node = [0.0] * self.nodes
        for node, bucket in phase.io:
            io_by_node[node] += _seconds(bucket)
        longest = 0.0
        for node in range(self.nodes):
            tasks = by_node.get(node, [])
            io = io_by_node[node]
            entry = per_node[node]
            entry["tasks"] += len(tasks)
            entry["io_seconds"] += io
            busy = io
            if tasks:
                lost = sum(task.crashes for task in tasks)
                lanes = LaneSchedule(max(1, min(self.workers, len(tasks))
                                         - lost))
                for task in tasks:
                    for attempt in task.attempts:
                        cost = _seconds(attempt)
                        lane, start, end = lanes.assign(0.0, cost)
                        entry["compute_seconds"] += cost
                        if tracer is not None:
                            span = tracer.begin(
                                f"morsel p{phase.number}.{task.index}",
                                "task", parent=None, phase=phase.number,
                                morsel=task.index, node=node,
                                worker=node * self.workers + lane)
                            span.start = base + io + start
                            span.end = base + io + end
                busy += lanes.makespan()
            entry["busy_seconds"] += busy
            longest = max(longest, busy)
        return longest

    def _place_runs(self, runs: list[tuple[int, float]],
                    per_node: list[dict]) -> float:
        """Sorted runs, one per task, on the workers of the task's node."""
        by_node = Counter(node for node, _ in runs)
        lanes = {node: LaneSchedule(min(self.workers, count))
                 for node, count in by_node.items()}
        for node, cost in runs:
            lanes[node].assign(0.0, cost)
        longest = 0.0
        for node, schedule in lanes.items():
            per_node[node]["busy_seconds"] += schedule.makespan()
            longest = max(longest, schedule.makespan())
        return longest
