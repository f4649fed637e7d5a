"""Fused pipeline execution: plans compiled into pipelines of streaming
stages, split at pipeline breakers.

The batch engine's per-operator pull (`operator.batches()` chains) pays a
block materialization at every stage boundary: Filter copies every column
through ``RowBlock.select``, Project builds another block on top, and the
generator nesting re-dispatches per stage per block.  This module makes
the pipeline — not the operator — the unit of execution, for all three
engines:

* :func:`compile_pipelines` walks an operator tree (consulting the
  ``STREAMING``/``BREAKER`` annotations on the plan nodes the operators
  were built from, see ``repro/plan/logical.py``) and produces a
  :class:`PipelineProgram`: a DAG of :class:`Pipeline` objects split at
  breakers (aggregate, sort, hash-join build, nested-loop join), each a
  *source* (scan, breaker output, or serial operator) plus a chain of
  fused :class:`PipelineStage` steps (filter, project, hash-join probe,
  distinct, limit) ending in a :class:`PipelineSink` (or the program
  output).
* Within a pipeline, one :class:`BlockCarrier` flows per source block
  through every stage with **zero intermediate materialization**: a
  filter (or a scan's pushed-down predicate) evaluates its mask against
  the scan block's columns directly and *defers* the selection on the
  carrier; a downstream projection applies the mask only to the columns
  it actually projects.  No ``RowBlock.from_*`` / ``select`` copy happens
  per stage — at most one materialization per pass, and none at all for
  mask+slot-projection chains.
* :func:`run_program` is the drive loop of the batch engine;
  :func:`run_placed` is the same loop for the parallel and distributed
  engines, which split each scan into one task per morsel and report the
  task boundaries to a *placement* (``repro/exec/distributed.py``) that
  schedules the recorded charges afterwards.  The AI loader's PREDICT
  materialization feeds from :func:`table_blocks`, the same scan-block
  primitive the pipeline sources use.

Charge parity
-------------
Every stage charges the clock it is handed exactly what the unfused
operator charged for the same rows, in the same order (see
``SimClock.advance_charges``): scan ``TUPLE_CPU`` + pushed-predicate
``EVAL_PREDICATE`` per scanned row, filter ``EVAL_PREDICATE`` per input
row, project ``TUPLE_CPU`` per *surviving* row, probe per the hash-join
hooks.  Deferring a selection never changes a charge because charges are
keyed to row counts, not to copies.  The parity suites
(`tests/test_batch_parity.py`, `tests/test_pipeline.py`) hold fused,
unfused, row, parallel and distributed execution to identical rows and
charged totals.

LIMIT early exit
----------------
A satisfied :class:`LimitStage` reports ``done`` and the drive loop stops
pulling the source pipeline — the fused engine's equivalent of the
generator laziness the unfused chains relied on, and the contract that
lets a LIMIT above a join probe stop the probe-side scan mid-table.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.simtime import SimClock
from repro.exec import operators as ops
from repro.exec.batch import RowBlock
from repro.exec.expr import RowLayout


def table_blocks(table, layout: RowLayout, kinds, batch_size: int,
                 start_page: int = 0) -> Iterator[RowBlock]:
    """Stream a heap table as :class:`RowBlock`\\ s — the shared scan
    primitive under pipeline sources and the AI loader's PREDICT
    materialization.  Charges nothing; buffer-pool accounting happens
    inside the storage scan, per page, exactly as ``scan()`` would.
    ``start_page`` skips earlier pages entirely (tail scans)."""
    for columns, n in table.scan_column_batches(batch_size, start_page):
        yield RowBlock(layout, columns, n, kinds)


class BlockSource(ops.Operator):
    """Replays blocks as an operator child — a pre-computed list, or a
    lazy generator that produces them on demand (single use).

    Used to feed a serially-executed operator (NestedLoopJoin, ...) with
    the output of another pipeline.  Charges nothing and counts nothing
    itself: the blocks' producers charge their cost and attribute their
    row counts as the blocks are produced.
    """

    def __init__(self, layout: RowLayout, blocks, clock: SimClock):
        super().__init__(layout, clock)
        self._blocks = blocks

    def __iter__(self):
        for block in self._blocks:
            yield from block.iter_rows()

    def batches(self):
        yield from self._blocks


class BlockCarrier:
    """One block flowing through a pipeline, its selection possibly
    deferred: ``mask`` (when set) marks the surviving rows of ``block``
    without the copy having happened yet.  Stages that can work straight
    off the mask (projection of column slots) never pay for it;
    :meth:`materialize` applies it at most once per pass."""

    __slots__ = ("block", "mask", "_count")

    def __init__(self, block: RowBlock, mask: np.ndarray | None = None):
        self.block = block
        self.mask = mask
        self._count: int | None = None

    @property
    def count(self) -> int:
        """Surviving row count (without materializing)."""
        if self._count is None:
            self._count = (len(self.block) if self.mask is None
                           else int(np.count_nonzero(self.mask)))
        return self._count

    def materialize(self) -> RowBlock:
        """Apply any deferred mask (once) and return the concrete block."""
        if self.mask is not None:
            self.block = self.block.select(self.mask)
            self.mask = None
            self._count = len(self.block)
        return self.block


# -- stages -------------------------------------------------------------------


class PipelineStage:
    """One fused streaming step: carrier in, carrier (or None) out.

    ``parallel_safe`` stages are stateless after construction, so the
    placement model may put each morsel's pass on any worker; unsafe ones
    carry order-sensitive state (Distinct's seen set, Limit's counters)
    and count as serial work.  Stages never touch ``rows_out`` — the
    driver attributes counts.
    """

    parallel_safe = True

    def __init__(self, op: ops.Operator):
        self.op = op

    def apply(self, carrier: BlockCarrier,
              clock: SimClock) -> BlockCarrier | None:
        raise NotImplementedError


class FilterStage(PipelineStage):
    """Evaluates the predicate mask against the (materialized) input
    block and defers the selection on the carrier."""

    def apply(self, carrier, clock):
        block = carrier.materialize()
        mask = self.op.filter_mask(block, clock)
        if mask is None:
            return None
        return BlockCarrier(block, mask)


class ProjectStage(PipelineStage):
    """Projects straight off the carrier: a deferred mask is applied only
    to the columns the projection actually outputs."""

    def apply(self, carrier, clock):
        out = self.op.project_block(carrier.block, carrier.mask,
                                    carrier.count, clock)
        return BlockCarrier(out)


class ProbeStage(PipelineStage):
    """Hash-join probe against a :class:`BuildSink`'s finished bucket
    table (read-only by the time any probe runs)."""

    def __init__(self, op: ops.HashJoinOp, build: "BuildSink"):
        super().__init__(op)
        self.build = build

    def apply(self, carrier, clock):
        out = self.op.probe_block(carrier.materialize(), self.build.buckets,
                                  self.build.probe_factor, clock)
        return BlockCarrier(out) if out is not None else None


class DistinctStage(PipelineStage):
    """Streaming DISTINCT: order-sensitive shared state, serial only."""

    parallel_safe = False

    def __init__(self, op: ops.DistinctOp):
        super().__init__(op)
        self._seen: set = set()

    def apply(self, carrier, clock):
        out = self.op.distinct_block(carrier.materialize(), self._seen,
                                     clock)
        return BlockCarrier(out) if out is not None else None


class LimitStage(PipelineStage):
    """OFFSET/LIMIT as the pipeline-terminating early-exit stage: once
    ``done`` is set the driver stops pulling the source pipeline instead
    of scanning the rest of the table."""

    parallel_safe = False

    def __init__(self, op: ops.LimitOp):
        super().__init__(op)
        self._state = op.limit_state()
        self.done = False

    def apply(self, carrier, clock):
        out, self.done = self.op.limit_block(carrier.materialize(),
                                             self._state)
        return BlockCarrier(out) if out is not None else None


# -- sinks --------------------------------------------------------------------


class PipelineSink:
    """A breaker endpoint: absorbs the pipeline's materialized blocks and
    produces ``result_blocks`` for the next pipeline once finished."""

    def __init__(self, op: ops.Operator | None):
        self.op = op
        self.result_blocks: list[RowBlock] = []

    def absorb(self, block: RowBlock, clock: SimClock) -> None:
        raise NotImplementedError

    def absorb_carrier(self, carrier: BlockCarrier, clock: SimClock) -> None:
        """Absorb one carrier.  The default materializes (applying any
        deferred mask) and delegates to :meth:`absorb`; sinks that can
        consume ``(block, mask)`` directly override this so the selection
        copy never happens (the aggregate sink — the tentpole win of the
        deferred-mask-across-breakers design)."""
        self.absorb(carrier.materialize(), clock)

    def finish(self, clock: SimClock) -> None:
        """Called once, after the last absorb (or immediately for an
        empty input)."""


class CollectSink(PipelineSink):
    """Plain collection — feeds serial operators' replay children."""

    def absorb(self, block, clock):
        self.result_blocks.append(block)


class AggregateSink(PipelineSink):
    def __init__(self, op: ops.AggregateOp):
        super().__init__(op)
        self._state = op.new_state()

    def absorb(self, block, clock):
        self.op.absorb_block(block, self._state, clock)

    def absorb_carrier(self, carrier, clock):
        """Consume the carrier's deferred selection directly: group and
        value extraction AND the mask into their own partition masks, so
        a filtered scan feeding an aggregate never materializes a
        selected block at all."""
        self.op.absorb_carrier(carrier.block, carrier.mask, carrier.count,
                               self._state, clock)

    def finish(self, clock):
        out = self.op.finish_state(self._state)
        if out is not None:
            self.result_blocks.append(out)


class SortSink(PipelineSink):
    """Keeps its input blocks as they come; :meth:`ops.SortOp.sort_blocks`
    sorts them column-wise at finish."""

    def __init__(self, op: ops.SortOp):
        super().__init__(op)
        self._blocks: list[RowBlock] = []

    def absorb(self, block, clock):
        self._blocks.append(block)

    def finish(self, clock):
        for block in self.op.sort_blocks(self._blocks, clock):
            self.result_blocks.append(self.op._emit_block(block))


class BuildSink(PipelineSink):
    """Hash-join build side: buckets in input order, spill surcharge at
    finish; the probe stage reads ``buckets``/``probe_factor``."""

    def __init__(self, op: ops.HashJoinOp):
        super().__init__(op)
        self.buckets: dict = {}
        self.probe_factor = 1.0
        self.build_rows = 0

    def absorb(self, block, clock):
        n, pairs = self.op.build_block(block, clock)
        self.build_rows += n
        for key, row in pairs:
            self.buckets.setdefault(key, []).append(row)

    def finish(self, clock):
        self.probe_factor = self.op._spill(self.build_rows, clock)


# -- sources ------------------------------------------------------------------


class PipelineSource:
    """Where a pipeline's carriers come from.  ``attributes_rows`` is True
    when the source's own machinery already counts ``rows_out`` (operators
    driven through ``batches()``); otherwise the driver attributes the
    per-carrier counts to ``op``."""

    attributes_rows = False
    op: ops.Operator

    def carriers(self, clock: SimClock) -> Iterator[BlockCarrier]:
        raise NotImplementedError


# The fused drive loop touches each block a fixed number of times however
# large it is, so it runs scans at coarse granularity (16 default batches)
# to amortize per-block dispatch — one of the fusion wins the unfused
# per-operator pull cannot take without growing every operator's blocks.
# Scan blocks are array views sliced out of the table's merged typed
# columns, never value copies, so coarse blocks cost no extra memory.
# Plans that can stop early (any LIMIT anywhere, marked at compile time)
# keep the operator's own ``max_batch_rows`` instead: early exit stops on
# block boundaries, so a bigger block would scan — and charge — rows the
# unfused engines never touch.  Full-scan plans are granularity-neutral
# on charges (every row is scanned and charged per row either way).
FUSED_SCAN_ROWS = 16384


class ScanSource(PipelineSource):
    """SeqScan: streams table blocks through the scan's fused hook — the
    pushed-down predicate becomes a deferred mask on the carrier."""

    def __init__(self, op: ops.SeqScanOp):
        self.op = op
        # set by compile_pipelines when the program contains a LIMIT:
        # early exit must match the unfused engine's block boundaries
        self.early_exit = False

    def scan_rows(self) -> int:
        if self.early_exit:
            return self.op.max_batch_rows
        return max(self.op.max_batch_rows, FUSED_SCAN_ROWS)

    def carriers(self, clock):
        scan = self.op
        for block in table_blocks(scan._table, scan.layout, scan._kinds,
                                  self.scan_rows()):
            out = scan.scan_block(block, clock)
            if out is not None:
                yield BlockCarrier(*out)


class OperatorSource(PipelineSource):
    """Wraps an operator's own serial ``batches()`` (IndexScan, EmptyRow):
    it charges its own clock and attributes its own counts."""

    attributes_rows = True

    def __init__(self, op: ops.Operator):
        self.op = op

    def carriers(self, clock):
        for block in self.op.batches():
            yield BlockCarrier(block)


class SerialOpSource(PipelineSource):
    """Operators without a fused decomposition (NestedLoopJoin, unknown
    breakers): their child subtrees compile to their own pipelines; this
    source swaps the children for *generators* that drive the child
    pipelines on demand and runs the operator's unchanged serial path —
    the operator's own pull order decides what actually runs, so a LIMIT
    above a NestedLoopJoin stops the lazily-pulled side mid-scan and
    charges exactly what the unfused engine charges."""

    attributes_rows = True

    def __init__(self, op: ops.Operator,
                 children: list[tuple[str, "Pipeline"]]):
        self.op = op
        self.children = children

    def carriers(self, clock):
        for attr, child_pipeline in self.children:
            child = getattr(self.op, attr)
            setattr(self.op, attr,
                    BlockSource(child.layout, _drive(child_pipeline, clock),
                                self.op._clock))
        for block in self.op.batches():
            yield BlockCarrier(block)


class SinkSource(PipelineSource):
    """Replays a finished breaker sink's result blocks (already charged
    and attributed by the sink)."""

    attributes_rows = True

    def __init__(self, sink: PipelineSink):
        self.sink = sink
        self.op = sink.op

    def carriers(self, clock):
        for block in self.sink.result_blocks:
            yield BlockCarrier(block)


# -- pipelines ----------------------------------------------------------------


class Pipeline:
    """One streaming chain: source -> fused stages -> sink (or output).

    ``inputs`` are the pipelines that must run to their sinks before this
    one starts (hash-join builds, breaker inputs, serial-op children).
    """

    def __init__(self, source: PipelineSource):
        self.source = source
        self.stages: list[PipelineStage] = []
        self.sink: PipelineSink | None = None
        self.inputs: list[Pipeline] = []

    @property
    def serial_from(self) -> int:
        """Index of the first order-sensitive stage: the stages before it
        may run on any worker, morsel by morsel."""
        return next((i for i, stage in enumerate(self.stages)
                     if not stage.parallel_safe), len(self.stages))

    @property
    def stopped(self) -> bool:
        """True once an early-exit stage (LIMIT) is satisfied."""
        return any(getattr(stage, "done", False) for stage in self.stages)

    def describe(self) -> str:
        parts = [type(self.source).__name__.replace("Source", "")]
        parts += [type(s).__name__.replace("Stage", "") for s in self.stages]
        if self.sink is not None:
            parts.append(type(self.sink).__name__.replace("Sink", "") + "!")
        return "→".join(parts)


class PipelineProgram:
    """A compiled plan: pipelines in dependency order, the last one
    producing the query result."""

    def __init__(self, root: Pipeline, pipelines: list[Pipeline]):
        self.root = root
        self.pipelines = pipelines

    @property
    def has_limit(self) -> bool:
        return any(isinstance(stage, LimitStage)
                   for p in self.pipelines for stage in p.stages)

    def describe(self) -> list[str]:
        return [p.describe() for p in self.pipelines]


def compile_pipelines(op: ops.Operator) -> PipelineProgram:
    """Compile an operator tree into a pipeline DAG, splitting at the
    plan-level ``BREAKER`` annotations and fusing ``STREAMING`` nodes into
    their child's pipeline.  Pure inspection: operators are not mutated
    until the program runs."""
    pipelines: list[Pipeline] = []
    root = _compile(op, pipelines)
    pipelines.append(root)
    program = PipelineProgram(root, pipelines)
    if program.has_limit:
        # LIMIT can stop any pipeline mid-stream; scans must keep the
        # unfused engines' block boundaries so early exit charges the
        # same virtual time they would (see ScanSource.scan_rows)
        for pipeline in pipelines:
            if isinstance(pipeline.source, ScanSource):
                pipeline.source.early_exit = True
    return program


def _close(pipeline: Pipeline, sink: PipelineSink,
           pipelines: list[Pipeline]) -> Pipeline:
    pipeline.sink = sink
    pipelines.append(pipeline)
    return pipeline


# how each STREAMING plan node's operator fuses into its child pipeline
_STREAMING_STAGES: dict[type, type] = {
    ops.FilterOp: FilterStage,
    ops.ProjectOp: ProjectStage,
}


def _break_at_sink(op: ops.Operator, sink_cls,
                   pipelines: list[Pipeline]) -> Pipeline:
    """Full breaker: the child subtree becomes its own pipeline feeding a
    sink; the breaker's output starts the next pipeline."""
    feeder = _close(_compile(op._child, pipelines), sink_cls(op), pipelines)
    out = Pipeline(SinkSource(feeder.sink))
    out.inputs.append(feeder)
    return out


def _break_hash_join(op: ops.HashJoinOp,
                     pipelines: list[Pipeline]) -> Pipeline:
    """HashJoin: the build (left) side is the breaker; the probe fuses
    into the right child's pipeline as a streaming stage."""
    build = _close(_compile(op._left, pipelines), BuildSink(op), pipelines)
    probe = _compile(op._right, pipelines)
    probe.inputs.append(build)
    probe.stages.append(ProbeStage(op, build.sink))
    return probe


def _break_as_stage(stage_cls):
    """Order-sensitive breakers (Distinct's seen set, Limit's early-exit
    counter) ride the pipeline as serial stages: they stream in place,
    and the placement model counts them as serial work."""
    def handler(op: ops.Operator, pipelines: list[Pipeline]) -> Pipeline:
        p = _compile(op._child, pipelines)
        p.stages.append(stage_cls(op))
        return p
    return handler


# how each BREAKER plan node's operator splits the pipeline; an
# unregistered breaker gets the conservative serial fallback below
_BREAKER_HANDLERS = {
    ops.AggregateOp: lambda op, ps: _break_at_sink(op, AggregateSink, ps),
    ops.SortOp: lambda op, ps: _break_at_sink(op, SortSink, ps),
    ops.HashJoinOp: _break_hash_join,
    ops.DistinctOp: _break_as_stage(DistinctStage),
    ops.LimitOp: _break_as_stage(LimitStage),
}


def _compile(op: ops.Operator, pipelines: list[Pipeline]) -> Pipeline:
    """One subtree -> one pipeline, dispatching on the plan-level
    STREAMING/BREAKER annotations (``repro/plan/logical.py``); sources
    and anything unannotated — or annotated but with no registered
    handler — fall through to the conservative serial paths."""
    node = op.plan_node
    if node is not None:
        if type(node).STREAMING:
            stage_cls = _STREAMING_STAGES.get(type(op))
            if stage_cls is not None:
                p = _compile(op._child, pipelines)
                p.stages.append(stage_cls(op))
                return p
        elif type(node).BREAKER:
            handler = _BREAKER_HANDLERS.get(type(op))
            if handler is not None:
                return handler(op, pipelines)

    # sources: scans (fused hook) and self-contained leaves
    if isinstance(op, ops.SeqScanOp):
        return Pipeline(ScanSource(op))
    if not any(isinstance(getattr(op, attr, None), ops.Operator)
               for attr in ("_child", "_left", "_right")):
        # leaf without a fused decomposition (IndexScan, EmptyRow): its
        # own serial batches() path is the source
        return Pipeline(OperatorSource(op))

    # conservative serial fallback (NestedLoopJoin, unregistered breaker
    # or streaming nodes): children become their own pipelines; the
    # operator replays their blocks through its unchanged serial path
    children: list[tuple[str, Pipeline]] = []
    inputs: list[Pipeline] = []
    for attr in ("_child", "_left", "_right"):
        child = getattr(op, attr, None)
        if isinstance(child, ops.Operator):
            cp = _close(_compile(child, pipelines), CollectSink(child),
                        pipelines)
            inputs.append(cp)
            children.append((attr, cp))
    p = Pipeline(SerialOpSource(op, children))
    p.inputs = inputs
    return p


# -- drive loop ---------------------------------------------------------------


def run_program(program: PipelineProgram,
                clock: SimClock) -> Iterator[RowBlock]:
    """Serially drive a compiled program, yielding the root pipeline's
    output blocks lazily (so budget enforcement and row-at-a-time
    consumers see charges as they accrue, like the unfused engines)."""
    yield from _drive(program.root, clock)


def run_placed(program: PipelineProgram, clock: SimClock,
               placement) -> list[RowBlock]:
    """Drive a program to completion, telling ``placement`` where its
    tasks run: ``placement.carriers(pipeline, clock)`` supplies every
    pipeline's carriers (a scan one task per morsel) and
    ``placement.output(carrier)`` hears each carrier leaving the
    pipeline's parallel stages.  ``placement=None`` is the plain serial
    drive."""
    return list(_drive(program.root, clock, placement))


def _drive(pipeline: Pipeline, clock: SimClock,
           placement=None) -> Iterator[RowBlock]:
    """Program-output drive: every surviving carrier materialized."""
    for carrier in _drive_carriers(pipeline, clock, placement):
        yield carrier.materialize()


def _drive_carriers(pipeline: Pipeline, clock: SimClock,
                    placement=None) -> Iterator[BlockCarrier]:
    """One fused pass per source block: the carrier runs the whole stage
    chain with its selection deferred wherever stages allow, and the
    driver attributes per-operator ``rows_out``.  Carriers are yielded
    with any remaining mask still deferred — sinks that understand masks
    consume them as-is.

    With a tracer attached, the source pull runs under the source
    operator's span (so a fused scan's charges — including its deferred-
    mask predicate and the buffer pool's page charges — land on the scan)
    and each stage application under its operator's span.  Charges and
    row accounting are untouched."""
    source = pipeline.source
    if isinstance(source, SerialOpSource):
        # the operator's child pipelines are driven lazily through its
        # own pull order (so early exit can abandon them); only other
        # inputs (e.g. a hash-join build upstream) run eagerly
        lazy = {child_pipeline for _, child_pipeline in source.children}
        for dep in pipeline.inputs:
            if dep not in lazy:
                _run_to_sink(dep, clock, placement)
        carriers = source.carriers(clock)
    else:
        for dep in pipeline.inputs:
            _run_to_sink(dep, clock, placement)
        carriers = (source.carriers(clock) if placement is None
                    else placement.carriers(pipeline, clock))
    attribute_source = not source.attributes_rows
    tracer = clock.tracer
    if tracer is not None and attribute_source:
        carriers = tracer.trace_iter(source.op, carriers)
    split = pipeline.serial_from if placement is not None \
        else len(pipeline.stages)
    head = _StageChain(pipeline.stages[:split], tracer)
    tail = _StageChain(pipeline.stages[split:], tracer)
    for carrier in carriers:
        if attribute_source:
            source.op.rows_out += carrier.count
        out = head.apply(carrier, clock)
        if out is not None and placement is not None:
            placement.output(out)
        if out is not None and tail.stages:
            out = tail.apply(out, clock)
        if out is not None:
            yield out
        if pipeline.stopped:
            break


class _StageChain:
    """A run of fused stages applied to one carrier, each under its
    operator's span when a tracer is attached."""

    def __init__(self, stages: list[PipelineStage], tracer):
        self.stages = stages
        self.spans = (None if tracer is None else
                      [tracer.operator_span(stage.op) for stage in stages])
        self.tracer = tracer

    def apply(self, carrier: BlockCarrier,
              clock: SimClock) -> BlockCarrier | None:
        out: BlockCarrier | None = carrier
        for j, stage in enumerate(self.stages):
            if self.spans is None:
                out = stage.apply(out, clock)
            else:
                self.tracer.push(self.spans[j])
                try:
                    out = stage.apply(out, clock)
                finally:
                    self.tracer.pop()
            if out is None:
                return None
            stage.op.rows_out += out.count
        return out


def _run_to_sink(pipeline: Pipeline, clock: SimClock,
                 placement=None) -> None:
    sink = pipeline.sink
    tracer = clock.tracer
    span = None if tracer is None else tracer.operator_span(sink.op)
    for carrier in _drive_carriers(pipeline, clock, placement):
        if span is None:
            sink.absorb_carrier(carrier, clock)
            continue
        tracer.push(span)
        try:
            sink.absorb_carrier(carrier, clock)
        finally:
            tracer.pop()
    if span is None:
        sink.finish(clock)
        return
    tracer.push(span)
    try:
        sink.finish(clock)
    finally:
        tracer.pop()
