"""Physical operators with row and batch execution paths.

Every operator exposes two equivalent interfaces over the same compiled
state:

* ``__iter__`` — the legacy Volcano path: one tuple at a time, per-row
  virtual-time charges.  Kept as the semantic reference and for parity
  testing.
* ``batches()`` — the vectorized path: :class:`~repro.exec.batch.RowBlock`
  column batches, predicates lowered to numpy where possible, and virtual
  time charged once per batch (``clock.advance_batch(cost, n)``).  Charged
  totals are identical to the row path, with one bounded exception: early
  termination (LIMIT) stops on batch boundaries, so up to one batch of
  upstream cost may be charged beyond where the row engine stops.  LIMIT
  pushes a row budget down to the scan (``max_batch_rows``) to keep that
  batch small — exact parity for unfiltered chains, and divergence bounded
  by ``offset + limit + 1`` scanned rows otherwise.

The executor picks one path per query; an operator instance is never driven
through both.

Since the fused pipeline engine (``repro/exec/pipeline.py``) the batch
path is normally driven through the *fused hooks* instead of chained
``batches()`` generators: ``scan_block`` (scan + pushed predicate as a
deferred mask), ``filter_mask`` (mask without the select),
``project_block`` (projection straight off a deferred mask),
``absorb_block``/``finish_state`` (aggregate sink), ``sort_blocks``
(sort sink), ``limit_block`` (early-exit stage), ``distinct_block``
(order-sensitive stage).  Every ``batches()`` implementation is built on
top of the same hooks, so the fused and unfused drives cannot drift:
identical rows, identical charges, same order.

The parallel and distributed engines run the same fused hooks through
the batch engine's fused driver; ``repro/exec/distributed.py`` only
records where each morsel's charges fall.

The serial batch breakers are array kernels over typed columns, checked
against the row engine by ``tests/test_columnar_kernels.py``:

* GROUP BY on one typed (i8/f8/bool/dict) column factorizes each block's
  keys to group ids (``np.unique``, dictionary codes), adds new groups in
  first-occurrence order with their first row as representative, and
  folds counts, totals and extremes into per-group arrays of a
  :class:`_GroupTable`.  ``ufunc.at`` applies updates strictly in row
  order, so a float total is the row engine's left-to-right running sum
  across blocks, bit for bit; totals start at -0.0, the identity that
  keeps a group of -0.0 values negative.  Blocks the kernel declines —
  DISTINCT, computed arguments, sum/avg/min/max over other column kinds,
  int sums that could leave exact-float range, min/max over a -0.0/0.0
  tie — replay each factorized group's rows through
  :meth:`_Accumulator.add_values` on the same table; object, computed or
  multi-column keys do the same through the mask or per-row partition.
* ORDER BY on typed slot keys keeps the input blocks and sorts them with
  one stable ``np.lexsort`` over rank arrays that encode
  :func:`_sort_key`'s total order (see :meth:`SortOp._rank_arrays`);
  other keys sort row tuples on the composite key.  Either way the one
  n·log₂ n charge is unchanged.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.common import categories as cat
from repro.common.errors import BindError, ExecutionError
from repro.common.simtime import CostModel, SimClock
from repro.exec.batch import (
    DEFAULT_BATCH_SIZE,
    RowBlock,
    rows_to_blocks,
    schema_kinds,
)
from repro.exec.expr import (
    RowLayout,
    compile_expr_cached,
    compile_predicate_batch,
    sql_mod,
    to_bool,
)
from repro.plan import logical as plan
from repro.sql import ast
from repro.storage.catalog import Catalog, IndexEntry
from repro.storage.types import TypedColumn

# A value source for the batch path: either a direct column slot or a
# compiled row evaluator applied inside the block.
_SLOT, _EVAL = 0, 1


def _value_source(expr: ast.Expr, layout: RowLayout):
    """(kind, payload): column passthrough when the expression is a bare
    column reference — values then keep their exact Python identity — and a
    row evaluator otherwise."""
    if isinstance(expr, ast.ColumnRef):
        return _SLOT, layout.resolve(expr.name, expr.table)
    return _EVAL, compile_expr_cached(expr, layout)


def _source_values(source, block: RowBlock) -> list:
    kind, payload = source
    if kind == _SLOT:
        return block.values_list(payload)
    return [payload(row) for row in block.iter_rows()]




def _traced_generator(method):
    """Wrap an operator's ``__iter__``/``batches`` so that, when a tracer
    is attached to the operator's clock, every ``next()`` — and every
    charge made while producing the item, including buffer-pool page
    charges inside a scan pull — attributes to this operator's span.
    With no tracer the original generator is returned untouched: the only
    overhead is one attribute check per *call*, never per row."""
    def wrapper(self):
        inner = method(self)
        tracer = self._clock.tracer
        if tracer is None:
            return inner
        return tracer.trace_iter(self, inner)
    wrapper.__name__ = method.__name__
    wrapper.__qualname__ = method.__qualname__
    wrapper.__doc__ = method.__doc__
    wrapper.__wrapped__ = method
    return wrapper


class Operator:
    """Base operator: a layout plus row and batch iterators."""

    def __init__(self, layout: RowLayout, clock: SimClock):
        self.layout = layout
        self._clock = clock
        self.rows_out = 0
        # the plan node this operator was built from; the fused-pipeline
        # compiler reads its STREAMING/BREAKER annotations.  None for
        # synthetic operators (EmptyRow, block replays).
        self.plan_node: plan.PlanNode | None = None

    def __init_subclass__(cls, **kwargs):
        # Per-operator attribution for the interleaved row and unfused
        # batch engines: subclass iterators are wrapped once, at class
        # creation, so no operator needs tracing code of its own.
        super().__init_subclass__(**kwargs)
        if "__iter__" in cls.__dict__:
            cls.__iter__ = _traced_generator(cls.__dict__["__iter__"])
        if "batches" in cls.__dict__:
            cls.batches = _traced_generator(cls.__dict__["batches"])

    def __iter__(self) -> Iterator[tuple]:
        raise NotImplementedError

    def batches(self) -> Iterator[RowBlock]:
        """Default adaptor: chunk the row path into blocks.  Operators
        below all override this with a native vectorized implementation."""
        yield from rows_to_blocks(self.layout, iter(self))

    def _emit(self, row: tuple) -> tuple:
        self.rows_out += 1
        return row

    def _emit_block(self, block: RowBlock) -> RowBlock:
        self.rows_out += len(block)
        return block


class SeqScanOp(Operator):
    def __init__(self, node: plan.SeqScan, catalog: Catalog, clock: SimClock):
        table = catalog.table(node.table)
        layout = RowLayout([(node.binding, c.name)
                            for c in table.schema.columns])
        super().__init__(layout, clock)
        self.plan_node = node
        self._table = table
        self._kinds = schema_kinds(table.schema)
        # LIMIT push-down shrinks this so early termination doesn't pay
        # for a full batch of rows the row engine would never scan
        self.max_batch_rows = DEFAULT_BATCH_SIZE
        if node.predicate is not None:
            self._predicate = compile_expr_cached(node.predicate, layout)
            self._predicate_batch = compile_predicate_batch(node.predicate,
                                                            layout)
        else:
            self._predicate = None
            self._predicate_batch = None

    def __iter__(self) -> Iterator[tuple]:
        predicate = self._predicate
        for _, row in self._table.scan():
            self._clock.advance(CostModel.TUPLE_CPU, cat.SCAN)
            if predicate is not None:
                self._clock.advance(CostModel.EVAL_PREDICATE, cat.FILTER)
                if not to_bool(predicate(row)):
                    continue
            yield self._emit(row)

    def batches(self) -> Iterator[RowBlock]:
        for columns, n in self._table.scan_column_batches(
                self.max_batch_rows):
            block = self.process_morsel(columns, n, self._clock)
            if block is not None:
                yield self._emit_block(block)

    def make_block(self, columns, n: int) -> RowBlock:
        """Materialize one scan morsel/batch as a block (no charges)."""
        return RowBlock(self.layout, columns, n, self._kinds)

    def scan_block(self, block: RowBlock, clock: SimClock
                   ) -> tuple[RowBlock, np.ndarray | None] | None:
        """Fused hook: charge one scanned block (and its pushed-down
        predicate) and return ``(block, mask)`` with the selection
        *deferred* — downstream fused stages apply the mask only to the
        columns they actually touch.  ``mask`` is None when no predicate
        is pushed down; the result is None when every row is rejected."""
        n = len(block)
        if self._predicate_batch is None:
            clock.advance_batch(CostModel.TUPLE_CPU, n, cat.SCAN)
            return block, None
        clock.advance_charges(((CostModel.TUPLE_CPU, n, cat.SCAN),
                               (CostModel.EVAL_PREDICATE, n, cat.FILTER)))
        mask = self._predicate_batch(block)
        if not mask.any():
            return None
        return block, mask

    def process_morsel(self, columns, n: int,
                       clock: SimClock) -> RowBlock | None:
        """Materialize one scan batch, apply the pushed-down predicate,
        charge ``clock``.  Returns None when every row is
        rejected."""
        out = self.scan_block(self.make_block(columns, n), clock)
        if out is None:
            return None
        block, mask = out
        return block if mask is None else block.select(mask)


def index_entry(node: plan.IndexScan, catalog: Catalog) -> IndexEntry:
    """The catalog entry an IndexScan node reads.  A missing index, or a
    range over a hash index, raises here, before anything is charged."""
    entry = next((e for e in catalog.indexes_on(node.table)
                  if e.name == node.index_name), None)
    if entry is None:
        raise ExecutionError(f"index {node.index_name!r} missing")
    if node.eq is None and entry.kind != "btree":
        raise ExecutionError("range scan requires a btree index")
    return entry


def index_rows(node: plan.IndexScan, entry: IndexEntry, table,
               clock: SimClock) -> Iterator[tuple]:
    """Charge one index descent, then yield ``(rid, row)`` for each live
    heap row the node selects, in index key order: the postings of
    ``eq``, else a B+-tree range scan between ``low`` and ``high`` that
    honours the node's include flags.  IndexScanOp and the facade's
    UPDATE/DELETE victim search both read an index through here."""
    clock.advance(CostModel.INDEX_DESCENT, cat.INDEX)
    if node.eq is not None:
        rids = entry.index.search(node.eq)
    else:
        rids = (rid for _, rid in entry.index.range_scan(
            low=node.low, high=node.high, include_low=node.include_low,
            include_high=node.include_high))
    for rid in rids:
        row = table.read(rid)
        if row is not None:
            yield rid, row


class IndexScanOp(Operator):
    def __init__(self, node: plan.IndexScan, catalog: Catalog,
                 clock: SimClock):
        table = catalog.table(node.table)
        layout = RowLayout([(node.binding, c.name)
                            for c in table.schema.columns])
        super().__init__(layout, clock)
        self.plan_node = node
        self._table = table
        self._node = node
        self._entry = index_entry(node, catalog)
        self._kinds = schema_kinds(table.schema)
        self.max_batch_rows = DEFAULT_BATCH_SIZE
        if node.residual is not None:
            self._residual = compile_expr_cached(node.residual, layout)
            self._residual_batch = compile_predicate_batch(node.residual,
                                                           layout)
        else:
            self._residual = None
            self._residual_batch = None

    def _rows(self) -> Iterator[tuple]:
        return index_rows(self._node, self._entry, self._table, self._clock)

    def __iter__(self) -> Iterator[tuple]:
        for _, row in self._rows():
            self._clock.advance(CostModel.TUPLE_CPU, cat.INDEX)
            if self._residual is not None:
                self._clock.advance(CostModel.EVAL_PREDICATE, cat.FILTER)
                if not to_bool(self._residual(row)):
                    continue
            yield self._emit(row)

    def batches(self) -> Iterator[RowBlock]:
        buffer: list[tuple] = []
        for _, row in self._rows():
            buffer.append(row)
            if len(buffer) >= self.max_batch_rows:
                block = self._filtered_block(buffer)
                buffer = []
                if block:
                    yield self._emit_block(block)
        if buffer:
            block = self._filtered_block(buffer)
            if block:
                yield self._emit_block(block)

    def _filtered_block(self, rows: list[tuple]) -> RowBlock:
        n = len(rows)
        self._clock.advance_batch(CostModel.TUPLE_CPU, n, cat.INDEX)
        block = RowBlock.from_rows(self.layout, rows, self._kinds)
        if self._residual_batch is not None:
            self._clock.advance_batch(CostModel.EVAL_PREDICATE, n, cat.FILTER)
            block = block.select(self._residual_batch(block))
        return block


class FilterOp(Operator):
    def __init__(self, node: plan.Filter, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._predicate = compile_expr_cached(node.predicate, child.layout)
        self._predicate_batch = compile_predicate_batch(node.predicate,
                                                        child.layout)

    def __iter__(self) -> Iterator[tuple]:
        for row in self._child:
            self._clock.advance(CostModel.EVAL_PREDICATE, cat.FILTER)
            if to_bool(self._predicate(row)):
                yield self._emit(row)

    def batches(self) -> Iterator[RowBlock]:
        for block in self._child.batches():
            out = self.process_block(block, self._clock)
            if out is not None:
                yield self._emit_block(out)

    def filter_mask(self, block: RowBlock,
                    clock: SimClock) -> np.ndarray | None:
        """Fused hook: evaluate the predicate over one (materialized)
        block as a selection mask, charging ``clock``, without building
        the selected block — the pipeline defers the copy to whichever
        stage materializes.  None when every row is rejected."""
        clock.advance_batch(CostModel.EVAL_PREDICATE, len(block), cat.FILTER)
        mask = self._predicate_batch(block)
        return mask if mask.any() else None

    def process_block(self, block: RowBlock,
                      clock: SimClock) -> RowBlock | None:
        """Parallel hook: filter one block, charging ``clock``; None when
        every row is rejected."""
        mask = self.filter_mask(block, clock)
        return block.select(mask) if mask is not None else None


class ProjectOp(Operator):
    def __init__(self, node: plan.Project, child: Operator, clock: SimClock):
        evaluators = []
        sources = []
        slots: list[tuple[str, str]] = []
        for i, item in enumerate(node.items):
            if isinstance(item.expr, ast.Star):
                for slot_idx, (binding, col) in enumerate(child.layout.slots):
                    if item.expr.table and binding != item.expr.table.lower():
                        continue
                    evaluators.append(
                        lambda row, j=slot_idx: row[j])
                    sources.append((_SLOT, slot_idx))
                    slots.append((binding, col))
                continue
            evaluators.append(compile_expr_cached(item.expr, child.layout))
            sources.append(_value_source(item.expr, child.layout))
            slots.append(("", ast.output_name(item, i)))
        super().__init__(RowLayout(slots), clock)
        self.plan_node = node
        self._child = child
        self._evaluators = evaluators
        self._sources = sources

    def __iter__(self) -> Iterator[tuple]:
        for row in self._child:
            self._clock.advance(CostModel.TUPLE_CPU, cat.PROJECT)
            yield self._emit(tuple(e(row) for e in self._evaluators))

    def batches(self) -> Iterator[RowBlock]:
        for block in self._child.batches():
            yield self._emit_block(self.process_block(block, self._clock))

    def process_block(self, block: RowBlock, clock: SimClock) -> RowBlock:
        """Parallel hook: project one block, charging ``clock``."""
        return self.project_block(block, None, len(block), clock)

    def project_block(self, block: RowBlock, mask: np.ndarray | None,
                      count: int, clock: SimClock) -> RowBlock:
        """Fused hook: project one block whose selection may still be
        deferred as ``mask`` (``count`` = surviving rows, what the charge
        and the output length must reflect).  Column-passthrough items
        apply the mask per projected column — unprojected columns are
        never copied; computed items materialize the selected rows once."""
        clock.advance_batch(CostModel.TUPLE_CPU, count, cat.PROJECT)
        columns = []
        rows: list[tuple] | None = None
        for kind, payload in self._sources:
            if kind == _SLOT:
                # raw column (typed or object) so typed-ness survives
                # straight-through projections
                col = block.columns[payload]
                columns.append(col if mask is None else col[mask])
            else:
                if rows is None:
                    filtered = block if mask is None else block.select(mask)
                    rows = filtered.to_rows()
                columns.append([payload(row) for row in rows])
        return RowBlock.from_columns(self.layout, columns)


class NestedLoopJoinOp(Operator):
    # cap on materialized candidate pairs per emitted block
    _PAIR_CHUNK = 8192

    def __init__(self, node: plan.NestedLoopJoin, left: Operator,
                 right: Operator, clock: SimClock):
        layout = left.layout.concat(right.layout)
        super().__init__(layout, clock)
        self.plan_node = node
        self._left = left
        self._right = right
        if node.condition is not None:
            self._condition = compile_expr_cached(node.condition, layout)
            self._condition_batch = compile_predicate_batch(node.condition,
                                                            layout)
        else:
            self._condition = None
            self._condition_batch = None

    def __iter__(self) -> Iterator[tuple]:
        right_rows = list(self._right)
        condition = self._condition
        for lrow in self._left:
            for rrow in right_rows:
                self._clock.advance(CostModel.TUPLE_CPU, cat.JOIN)
                combined = lrow + rrow
                if condition is not None:
                    self._clock.advance(CostModel.EVAL_PREDICATE, cat.JOIN)
                    if not to_bool(condition(combined)):
                        continue
                yield self._emit(combined)

    def batches(self) -> Iterator[RowBlock]:
        right = RowBlock.from_rows(
            self._right.layout,
            [row for block in self._right.batches()
             for row in block.iter_rows()])
        m = len(right)
        if m == 0:
            # still drain the left side so its operators charge the same
            # virtual time as the row path would
            for _ in self._left.batches():
                pass
            return
        condition = self._condition_batch
        # chunk the left side so each materialized cross-product block
        # stays bounded regardless of the right side's size
        rows_per_chunk = max(1, self._PAIR_CHUNK // m)
        for lblock in self._left.batches():
            for start in range(0, len(lblock), rows_per_chunk):
                chunk = lblock.slice(start, start + rows_per_chunk)
                n = len(chunk)
                pairs = n * m
                self._clock.advance_batch(CostModel.TUPLE_CPU, pairs, cat.JOIN)
                columns = [np.repeat(chunk.column(i), m)
                           for i in range(len(chunk.columns))]
                columns += [np.tile(right.column(i), n)
                            for i in range(len(right.columns))]
                block = RowBlock(self.layout, columns, pairs)
                if condition is not None:
                    self._clock.advance_batch(CostModel.EVAL_PREDICATE,
                                              pairs, cat.JOIN)
                    block = block.select(condition(block))
                if block:
                    yield self._emit_block(block)


class HashJoinOp(Operator):
    def __init__(self, node: plan.HashJoin, left: Operator, right: Operator,
                 clock: SimClock):
        layout = left.layout.concat(right.layout)
        super().__init__(layout, clock)
        self.plan_node = node
        self._left = left
        self._right = right
        self._left_key = compile_expr_cached(node.left_key, left.layout)
        self._right_key = compile_expr_cached(node.right_key, right.layout)
        self._left_key_source = _value_source(node.left_key, left.layout)
        self._right_key_source = _value_source(node.right_key, right.layout)
        if node.residual is not None:
            self._residual = compile_expr_cached(node.residual, layout)
            self._residual_batch = compile_predicate_batch(node.residual,
                                                           layout)
        else:
            self._residual = None
            self._residual_batch = None

    def __iter__(self) -> Iterator[tuple]:
        buckets: dict[Any, list[tuple]] = {}
        build_rows = 0
        for lrow in self._left:
            self._clock.advance(CostModel.HASH_BUILD_ROW, cat.JOIN)
            build_rows += 1
            key = self._left_key(lrow)
            if key is not None:
                buckets.setdefault(key, []).append(lrow)
        probe_factor = self._spill(build_rows)
        for rrow in self._right:
            self._clock.advance(CostModel.HASH_PROBE_ROW * probe_factor,
                                cat.JOIN)
            key = self._right_key(rrow)
            if key is None:
                continue
            for lrow in buckets.get(key, ()):
                self._clock.advance(CostModel.TUPLE_CPU, cat.JOIN)
                combined = lrow + rrow
                if self._residual is not None:
                    self._clock.advance(CostModel.EVAL_PREDICATE, cat.JOIN)
                    if not to_bool(self._residual(combined)):
                        continue
                yield self._emit(combined)

    def _spill(self, build_rows: int,
               clock: SimClock | None = None) -> float:
        """Charge the hybrid-hash spill surcharge; returns the probe-side
        cost factor."""
        clock = clock if clock is not None else self._clock
        spilled = build_rows > CostModel.HASH_SPILL_ROWS
        if spilled:
            # hybrid hash join ran out of work_mem: repartition the build
            # side to disk; every probe re-reads its partition
            clock.advance(build_rows * CostModel.HASH_BUILD_ROW
                          * (CostModel.HASH_SPILL_FACTOR - 1), cat.SPILL)
        return CostModel.HASH_SPILL_FACTOR / 2 if spilled else 1.0

    def batches(self) -> Iterator[RowBlock]:
        buckets: dict[Any, list[tuple]] = {}
        build_rows = 0
        for block in self._left.batches():
            n, pairs = self.build_block(block, self._clock)
            build_rows += n
            for key, row in pairs:
                buckets.setdefault(key, []).append(row)
        probe_factor = self._spill(build_rows)
        for block in self._right.batches():
            out = self.probe_block(block, buckets, probe_factor, self._clock)
            if out is not None:
                yield self._emit_block(out)

    def build_block(self, block: RowBlock, clock: SimClock
                    ) -> tuple[int, list[tuple[Any, tuple]]]:
        """Build-side hook: ``(row_count, [(key, row), ...])`` for one
        block, NULL keys dropped, charging ``clock``.  ``row_count`` is
        the *input* count (NULL keys included) so the spill decision sees
        the same build size as the serial engines."""
        n = len(block)
        clock.advance_batch(CostModel.HASH_BUILD_ROW, n, cat.JOIN)
        keys = _source_values(self._left_key_source, block)
        pairs = [(key, row) for row, key in zip(block.iter_rows(), keys)
                 if key is not None]
        return n, pairs

    def probe_block(self, block: RowBlock, buckets: dict[Any, list[tuple]],
                    probe_factor: float,
                    clock: SimClock) -> RowBlock | None:
        """Probe-side hook: join one probe block against the (read-only)
        bucket table, charging ``clock``; None when no row survives."""
        clock.advance_batch(CostModel.HASH_PROBE_ROW * probe_factor,
                            len(block), cat.JOIN)
        keys = _source_values(self._right_key_source, block)
        candidates: list[tuple] = []
        for rrow, key in zip(block.iter_rows(), keys):
            if key is None:
                continue
            for lrow in buckets.get(key, ()):
                candidates.append(lrow + rrow)
        if not candidates:
            return None
        clock.advance_batch(CostModel.TUPLE_CPU, len(candidates), cat.JOIN)
        out = RowBlock.from_rows(self.layout, candidates)
        if self._residual_batch is not None:
            clock.advance_batch(CostModel.EVAL_PREDICATE, len(candidates),
                                cat.JOIN)
            out = out.select(self._residual_batch(out))
        return out if out else None


class _Accumulator:
    """One aggregate function instance (per group)."""

    def __init__(self, func: ast.FuncCall, layout: RowLayout):
        self.name = func.name
        self.distinct = func.distinct
        self._seen: set | None = set() if func.distinct else None
        if func.args and not isinstance(func.args[0], ast.Star):
            self._arg = compile_expr_cached(func.args[0], layout)
        else:
            if self.name != "count":
                raise BindError(f"{self.name}(*) is not valid")
            self._arg = None
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None

    def add(self, row: tuple) -> None:
        if self._arg is None:  # COUNT(*)
            self.count += 1
            return
        value = self._arg(row)
        if value is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self.count += 1
        self.total = value if self.total is None else self.total + value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def add_count(self, rows: int) -> None:
        """Batch-path COUNT(*): no values to inspect, just a row count."""
        self.count += rows

    def add_values(self, values: list, clean: bool = False) -> None:
        """Batch-path accumulation of pre-extracted argument values.

        Mirrors :meth:`add` exactly — same NULL skipping, same first-seen
        DISTINCT order, same left-to-right addition order — so totals are
        bit-identical to the row path.  ``clean`` promises the caller
        already knows no NULLs are present (e.g. from the block's null
        mask), skipping the filter pass."""
        live = values if clean else [v for v in values if v is not None]
        if self._seen is not None:
            seen = self._seen
            fresh = []
            for value in live:
                if value not in seen:
                    seen.add(value)
                    fresh.append(value)
            live = fresh
        if not live:
            return
        self.count += len(live)
        name = self.name
        if name in ("sum", "avg"):
            try:
                # builtin sum adds strictly left-to-right, so seeding it
                # with the running total reproduces the row path's
                # addition order at C speed
                if self.total is None:
                    self.total = sum(live[1:], live[0])
                else:
                    self.total = sum(live, self.total)
            except TypeError:
                # not summable via sum() (e.g. str concatenation)
                total = self.total
                for value in live:
                    total = value if total is None else total + value
                self.total = total
        elif name == "min":
            low = min(live)
            if self.minimum is None or low < self.minimum:
                self.minimum = low
        elif name == "max":
            high = max(live)
            if self.maximum is None or high > self.maximum:
                self.maximum = high

    def result(self) -> Any:
        if self.name == "count":
            return self.count
        if self.name == "sum":
            return self.total
        if self.name == "avg":
            return self.total / self.count if self.count else None
        if self.name == "min":
            return self.minimum
        if self.name == "max":
            return self.maximum
        raise BindError(f"unknown aggregate {self.name!r}")


# int64 running totals stay exact, and divide exactly for avg, while every
# |total| stays under 2^53
_EXACT_INT = 2 ** 53
_INT64 = np.iinfo(np.int64)


class _AggColumn:
    """One aggregate call's running state across every group of a
    :class:`_GroupTable`, column-wise.

    ``counts[g]`` is group ``g``'s non-NULL argument count (its row count
    for COUNT(*)); ``values[g]`` is the one running field the call's
    result needs — the total for sum/avg, the extreme for min/max, nothing
    for count — meaningful only where ``counts[g] > 0``.  ``values`` is a
    float64 or int64 array while every stored value is a float, or an int
    in exact-float range; anything else (bools, big ints, strings) turns
    it into an object array, which the factorized kernel leaves to the
    per-group path.  Empty slots of a typed array hold the identity of
    their update (-0.0 or 0 for sums, ±inf or the int64 bounds for
    extremes), so the kernel's ``ufunc.at`` starts every group correctly:
    ``-0.0 + x`` is ``x`` bit for bit, including ``x = -0.0``."""

    _FIELDS = {"sum": "total", "avg": "total",
               "min": "minimum", "max": "maximum"}
    _IDENTITY = {("total", "f"): -0.0, ("total", "i"): 0,
                 ("minimum", "f"): np.inf, ("minimum", "i"): _INT64.max,
                 ("maximum", "f"): -np.inf, ("maximum", "i"): _INT64.min}
    _UFUNCS = {"total": np.add, "minimum": np.minimum,
               "maximum": np.maximum}

    def __init__(self, call: ast.FuncCall, layout: RowLayout):
        self.name = call.name
        self.field = self._FIELDS.get(call.name)
        # the per-group path replays _Accumulator.add_values on a scratch
        # instance, so both paths share one accumulation semantics.  It is
        # built with the first group, where the row engine builds its
        # first accumulator and rejects an invalid call such as sum(*)
        self._call, self._layout = call, layout
        self._scratch: _Accumulator | None = None
        self.counts = np.zeros(0, dtype=np.int64)
        self.values: np.ndarray | None = None
        self.seen: list[set] | None = [] if call.distinct else None

    def grow(self, size: int) -> None:
        """Make room for ``size`` groups (amortized doubling)."""
        if self._scratch is None:
            self._scratch = _Accumulator(self._call, self._layout)
        have = len(self.counts)
        if have >= size:
            return
        extra = max(size - have, have)
        self.counts = np.concatenate(
            [self.counts, np.zeros(extra, dtype=np.int64)])
        if self.values is not None:
            self.values = np.concatenate(
                [self.values, self._fresh(self.values.dtype, extra)])
        if self.seen is not None:
            self.seen.extend(set() for _ in range(extra))

    def _fresh(self, dtype, size: int) -> np.ndarray:
        if dtype == object:
            return np.full(size, None, dtype=object)
        return np.full(size, self._IDENTITY[self.field, dtype.kind],
                       dtype=dtype)

    def typed_values(self, dtype) -> np.ndarray | None:
        """The running field as a ``dtype`` array for the kernel
        (allocated on first use), or None when it already holds another
        representation."""
        if self.values is None:
            self.values = self._fresh(np.dtype(dtype), len(self.counts))
        return self.values if self.values.dtype == dtype else None

    def fold(self, gids: np.ndarray, data: np.ndarray) -> None:
        """The kernel path: fold ``data[i]`` into group ``gids[i]``.
        ``ufunc.at`` applies the updates one by one in row order, so a
        float total is the row engine's running sum, bit for bit."""
        self._UFUNCS[self.field].at(self.values, gids, data)

    def add_values(self, gid: int, values: list, clean: bool) -> None:
        """The per-group path: fold ``values`` into group ``gid`` exactly
        as :meth:`_Accumulator.add_values` would."""
        acc = self._scratch
        acc.count = count = int(self.counts[gid])
        acc.total = acc.minimum = acc.maximum = None
        if self.field is not None and count:
            stored = self.values[gid]
            setattr(acc, self.field,
                    stored if self.values.dtype == object else stored.item())
        if self.seen is not None:
            acc._seen = self.seen[gid]
        acc.add_values(values, clean)
        self.counts[gid] = acc.count
        if self.field is not None and acc.count:
            self._store(gid, getattr(acc, self.field))

    def _store(self, gid: int, value: Any) -> None:
        if type(value) is float:
            dtype = np.dtype(np.float64)
        elif type(value) is int and -_EXACT_INT < value < _EXACT_INT:
            dtype = np.dtype(np.int64)
        else:
            dtype = np.dtype(object)
        if self.values is None:
            self.values = self._fresh(dtype, len(self.counts))
        elif self.values.dtype not in (dtype, object):
            self.values = self.values.astype(object)
        self.values[gid] = value

    def results(self, size: int) -> list:
        """The call's result for each of the first ``size`` groups."""
        counts = self.counts[:size]
        if self.field is None:
            return counts.tolist()
        if self.values is None:
            return [None] * size
        values = self.values[:size]
        if self.name != "avg":
            out = values.tolist()
        elif values.dtype == object:
            out = [t / c if c else None
                   for t, c in zip(values.tolist(), counts.tolist())]
        else:
            # float64 division is Python's float / int here: counts are
            # exact floats and int totals stay under 2^53
            out = (values / np.maximum(counts, 1)).tolist()
        for gid in np.flatnonzero(counts == 0).tolist():
            out[gid] = None
        return out


class _GroupTable:
    """The serial batch engine's GROUP BY state: group keys in first-seen
    order, each group's representative row (its first row) stored
    column-wise, and one :class:`_AggColumn` per aggregate call.  The
    factorized kernel, the mask partition and the per-row partition all
    fold into the same table, so blocks taking different paths still
    accumulate each group in row order."""

    def __init__(self, aggs: list[_AggColumn], width: int):
        self.index: dict[Any, int] = {}
        self.reps: list[list] = [[] for _ in range(width)]
        self.aggs = aggs
        #: while ``marker`` is set (the placement model sets a node), each
        #: block's rows per group add up in ``marks[marker]``, indexed by
        #: group id: the placement model sizes per-node states with them
        self.marker: int | None = None
        self.marks: dict[int, np.ndarray] = {}
        # group ids of the int keys the factorized kernel registered,
        # dense over [_lo, _lo + len(_dense)) with -1 for no group: a
        # block whose keys are all known skips factorizing.  None until
        # such a key arrives, False once the keys span too wide
        self._dense: np.ndarray | None | bool = None
        self._lo = 0
        # (dictionary, group id per code + one for NULL's code -1) of the
        # last dictionary-coded key column seen
        self._codes: tuple[list, np.ndarray] | None = None

    def touch(self, gids, rows: np.ndarray | None = None) -> None:
        """Count one row per entry of ``gids`` against the marker
        (``rows``: those counts per group id, when already known)."""
        if self.marker is None:
            return
        if rows is None:
            rows = np.bincount(np.asarray(gids, dtype=np.int64),
                               minlength=len(self.index))
        marks = self.marks.get(self.marker)
        if marks is None or len(marks) < len(rows):
            grown = np.zeros(2 * len(rows), dtype=np.int64)
            if marks is not None:
                grown[:len(marks)] = marks
            self.marks[self.marker] = marks = grown
        marks[:len(rows)] += rows

    def __len__(self) -> int:
        return len(self.index)

    def add(self, key: Any, row: tuple) -> int:
        """Register one new group with its representative row."""
        gid = self.index[key] = len(self.index)
        for column, value in zip(self.reps, row):
            column.append(value)
        for agg in self.aggs:
            agg.grow(gid + 1)
        return gid

    def extend(self, keys: list, rep_columns: list[list]) -> None:
        """Register new groups in order, representatives column-wise."""
        start = len(self.index)
        self.index.update(zip(keys, range(start, start + len(keys))))
        self._note_ints(keys, start)
        for column, values in zip(self.reps, rep_columns):
            column.extend(values)
        for agg in self.aggs:
            agg.grow(len(self.index))

    _DENSE_SPAN = 1 << 20

    def _note_ints(self, keys: list, start: int) -> None:
        """Enter the int keys of groups ``start, start+1, ...`` in the
        dense lookup (or give it up when the keys span too wide)."""
        if self._dense is False or not keys:
            return
        gids = np.arange(start, start + len(keys))
        if not all(type(key) is int for key in keys):
            found = [j for j, key in enumerate(keys) if type(key) is int]
            if not found:
                return
            keys, gids = [keys[j] for j in found], gids[found]
        if not _INT64.min <= min(keys) <= max(keys) <= _INT64.max:
            self._dense = False
            return
        new_keys = np.array(keys, dtype=np.int64)
        lo, hi = int(new_keys.min()), int(new_keys.max())
        old = self._dense
        if old is not None:
            lo, hi = min(lo, self._lo), max(hi, self._lo + len(old) - 1)
        if hi - lo >= self._DENSE_SPAN:
            self._dense = False
            return
        dense = np.full(hi - lo + 1, -1, dtype=np.int64)
        if old is not None:
            dense[self._lo - lo:self._lo - lo + len(old)] = old
        dense[new_keys - lo] = gids
        self._dense, self._lo = dense, lo

    def dense_gids(self, data: np.ndarray) -> np.ndarray | None:
        """Every row's group id for an int64 key array whose keys are all
        known to the dense lookup, else None."""
        dense = self._dense
        if dense is None or dense is False or not len(data):
            return None
        offsets = data - self._lo
        if offsets.min() < 0 or offsets.max() >= len(dense):
            return None
        gids = dense[offsets]
        return None if (gids < 0).any() else gids

    def lookup(self, keys: list, ints: np.ndarray | None) -> np.ndarray:
        """Each key's group id, -1 for a new key.  ``ints`` holds the
        leading keys as int64 (an i8 block's non-NULL keys); those the
        dense lookup covers skip the index dict."""
        gids = np.full(len(keys), -1, dtype=np.int64)
        dense = self._dense
        if ints is not None and dense is not None and dense is not False:
            offsets = ints - self._lo
            inside = np.flatnonzero((offsets >= 0) & (offsets < len(dense)))
            gids[inside] = dense[offsets[inside]]
        index = self.index
        for j in np.flatnonzero(gids < 0).tolist():
            gids[j] = index.get(keys[j], -1)
        return gids

    def code_gids(self, col: TypedColumn,
                  codes: np.ndarray) -> np.ndarray | None:
        """Every row's group id for a dictionary-coded key column whose
        codes all map to known groups, else None."""
        if self._codes is None or self._codes[0] is not col.dictionary:
            return None
        gids = self._codes[1][codes]
        return None if (gids < 0).any() else gids

    def note_codes(self, col: TypedColumn, codes: np.ndarray,
                   gids: np.ndarray) -> None:
        """Remember the group ids of a dictionary column's ``codes``."""
        if self._codes is None or self._codes[0] is not col.dictionary:
            self._codes = (col.dictionary,
                           np.full(len(col.dictionary) + 1, -1,
                                   dtype=np.int64))
        self._codes[1][codes] = gids


def _factorize(col: TypedColumn, mask: np.ndarray | None
               ) -> tuple[list, np.ndarray, np.ndarray]:
    """The distinct keys of a typed column's (selected) rows as ``(keys,
    first, inverse)``: each key's Python value, the row it first occurs
    at, and every row's index into ``keys``.  NULL is a key like any
    other.  ``np.unique`` sorts stably when asked for first indices, so
    of keys that compare equal (-0.0 and 0.0) the first occurrence is
    the one kept, as the row engine's group dict keeps it."""
    data = col.data if mask is None else col.data[mask]
    if col.kind == "dict" or col.valid is None:
        # dictionary NULLs carry code -1 and factorize like any code
        _, first, inverse = np.unique(data, return_index=True,
                                      return_inverse=True)
        keys = data[first].tolist()
        if col.kind == "dict":
            words = col.dictionary
            keys = [None if code < 0 else words[code] for code in keys]
        return keys, first, inverse
    valid = col.valid if mask is None else col.valid[mask]
    rows = np.flatnonzero(valid)
    _, first, live_inverse = np.unique(data[rows], return_index=True,
                                       return_inverse=True)
    first = rows[first]
    keys = data[first].tolist()
    inverse = np.full(len(data), len(keys), dtype=np.intp)
    inverse[rows] = live_inverse
    if len(rows) < len(data):
        keys.append(None)
        first = np.append(first, np.argmin(valid))
    return keys, first, inverse


class AggregateOp(Operator):
    """Hash aggregation with optional GROUP BY.

    Select items may mix group-by expressions and aggregate calls; each item
    is rewritten so aggregates pull from accumulators and non-aggregates
    evaluate against the group's representative row.
    """

    def __init__(self, node: plan.Aggregate, child: Operator,
                 clock: SimClock):
        slots = [("", ast.output_name(item, i))
                 for i, item in enumerate(node.items)]
        super().__init__(RowLayout(slots), clock)
        self.plan_node = node
        self._child = child
        self._node = node
        self._group_evals = [compile_expr_cached(g, child.layout)
                             for g in node.group_by]
        self._group_sources = [_value_source(g, child.layout)
                               for g in node.group_by]
        # collect every aggregate call across all select items
        self._agg_calls: list[ast.FuncCall] = []
        for item in node.items:
            self._collect_aggs(item.expr)
        self._agg_sources = [
            None if (not call.args or isinstance(call.args[0], ast.Star))
            else _value_source(call.args[0], child.layout)
            for call in self._agg_calls]
        # deferred-mask absorption is safe only when every group key and
        # aggregate argument is a plain column passthrough: row evaluators
        # must never see rows the mask already rejected
        self._slot_only = (
            all(s[0] == _SLOT for s in self._group_sources)
            and all(s is None or s[0] == _SLOT for s in self._agg_sources))

    def _collect_aggs(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
            self._agg_calls.append(expr)
            return
        if isinstance(expr, ast.BinaryOp):
            self._collect_aggs(expr.left)
            self._collect_aggs(expr.right)
        elif isinstance(expr, ast.UnaryOp):
            self._collect_aggs(expr.operand)

    def _new_accs(self) -> list[_Accumulator]:
        return [_Accumulator(call, self._child.layout)
                for call in self._agg_calls]

    def __iter__(self) -> Iterator[tuple]:
        groups: dict[tuple, tuple[list[_Accumulator], tuple]] = {}
        group_order: list[tuple] = []
        for row in self._child:
            self._clock.advance(CostModel.HASH_BUILD_ROW, cat.AGG)
            key = tuple(e(row) for e in self._group_evals)
            if key not in groups:
                groups[key] = (self._new_accs(), row)
                group_order.append(key)
            for acc in groups[key][0]:
                acc.add(row)
        yield from self._result_rows(groups, group_order)

    def batches(self) -> Iterator[RowBlock]:
        state = self.new_state()
        for block in self._child.batches():
            self.absorb_block(block, state, self._clock)
        out = self.finish_state(state)
        if out is not None:
            yield out

    # -- fused-pipeline hooks ----------------------------------------------

    def new_state(self) -> _GroupTable:
        """Fresh serial accumulation state."""
        return _GroupTable(
            [_AggColumn(call, self._child.layout) for call in self._agg_calls],
            len(self._child.layout))

    def absorb_block(self, block: RowBlock, state: _GroupTable,
                     clock: SimClock) -> None:
        """Fused sink hook: fold one block into the accumulation state,
        charging ``clock``."""
        self.absorb_carrier(block, None, len(block), state, clock)

    def absorb_carrier(self, block: RowBlock, mask: np.ndarray | None,
                       count: int, state: _GroupTable,
                       clock: SimClock) -> None:
        """Deferred-mask sink hook: fold the ``count`` surviving rows of
        ``(block, mask)`` into the accumulation state without
        materializing the selection.  When every key/argument is a column
        passthrough the mask rides along into the partitioners (arrays
        are taken through it); otherwise the block is selected once so
        row evaluators only ever see surviving rows — exactly what
        :meth:`absorb_block` on a pre-selected block would have done.

        Strategy per block: whole-block accumulation for global
        aggregates; for a single-column GROUP BY, the factorized kernel
        over a typed key column, else mask partitioning for a few keys;
        per-row partitioning otherwise."""
        clock.advance_batch(CostModel.HASH_BUILD_ROW, count, cat.AGG)
        if mask is not None and not self._slot_only:
            block = block.select(mask)
            mask = None
        if not self._node.group_by:
            self._accumulate_all(block, state, mask, count)
        elif (len(self._group_sources) == 1
                and self._group_sources[0][0] == _SLOT):
            self._accumulate_by_column(block, state, mask)
        else:
            if mask is not None:
                block = block.select(mask)
            self._accumulate_by_rows(block, state)

    def finish_state(self, state: _GroupTable) -> RowBlock | None:
        """Fused sink hook: emit the result block (rows_out attributed),
        or None when a grouped query saw no rows.  Result columns are
        built column-wise: aggregate items straight from the per-call
        result lists, bare column items from the representative columns,
        anything else per group."""
        if not state:
            # a global aggregate over zero rows still yields its default row
            rows = list(self._result_rows({}, [], count=False))
            if not rows:
                return None
            return self._emit_block(RowBlock.from_rows(self.layout, rows))
        size = len(state)
        results = {id(call): agg.results(size)
                   for call, agg in zip(self._agg_calls, state.aggs)}
        columns = []
        for item in self._node.items:
            expr = item.expr
            if id(expr) in results:
                columns.append(results[id(expr)])
            elif isinstance(expr, ast.ColumnRef):
                slot = self._child.layout.resolve(expr.name, expr.table)
                columns.append(state.reps[slot])
            else:
                columns.append([
                    self._eval_item(expr, row, {key: values[gid] for key,
                                                values in results.items()})
                    for gid, row in enumerate(zip(*state.reps))])
        return self._emit_block(RowBlock.from_columns(self.layout, columns))

    def _call_arrays(self, block: RowBlock):
        """(values array, clean) per aggregate call; None for COUNT(*)."""
        arrays: list[tuple[np.ndarray, bool] | None] = []
        for source in self._agg_sources:
            if source is None:
                arrays.append(None)
                continue
            kind, payload = source
            if kind == _SLOT:
                # raw column: TypedColumn keeps its C-speed tolist/take
                # paths; both kinds support [mask], [i], and .tolist()
                arrays.append((block.columns[payload],
                               not block.null_mask(payload).any()))
            else:
                values = np.empty(len(block), dtype=object)
                values[:] = [payload(row) for row in block.iter_rows()]
                arrays.append((values, False))
        return arrays

    def _accumulate_all(self, block, table, mask=None, count=None) -> None:
        """No GROUP BY: the whole block (or its masked selection) feeds
        one group."""
        if count is None:
            count = len(block)
        if not table:
            first = 0 if mask is None else int(mask.argmax())
            table.add((), tuple(c[first] for c in block.columns))
        table.touch((0,))
        for agg, entry in zip(table.aggs, self._call_arrays(block)):
            if entry is None:
                agg.counts[0] += count
            else:
                values, clean = entry
                if mask is not None:
                    values = values[mask]
                agg.add_values(0, values.tolist(), clean)

    # mask partitioning costs one full-column comparison per distinct key;
    # past this many keys per block the per-row dict loop is cheaper
    _MASK_PARTITION_MAX_KEYS = 32

    def _accumulate_by_column(self, block, table, mask=None) -> None:
        """Single-column GROUP BY.  A typed key column is factorized (see
        :meth:`_accumulate_factorized`).  An object key column with a few
        distinct keys partitions with boolean masks — one C comparison
        per key instead of a per-row dict loop — and with many keys (or
        NaN keys) takes the per-row partition.  A deferred selection
        ``mask`` is AND-ed into each group's mask, so rejected rows are
        never materialized."""
        slot = self._group_sources[0][1]
        raw = block.columns[slot]
        if isinstance(raw, TypedColumn) and raw.kind != "obj":
            self._accumulate_factorized(block, raw, table, mask)
            return
        col = block.column(slot)
        sel_col = col if mask is None else col[mask]
        distinct = dict.fromkeys(sel_col.tolist())
        if (len(distinct) > self._MASK_PARTITION_MAX_KEYS
                or any(_is_nan(k) for k in distinct)):
            # high cardinality would go quadratic; NaN keys defeat equality
            # masks entirely — both use the per-row dict partition, which
            # shares the row engine's identity semantics for NaN.  Same
            # guard as _sort_key: isinstance-checked NaN, so an exotic
            # __ne__ can never be mistaken for (or hide) a NaN key
            if mask is not None:
                block = block.select(mask)
            self._accumulate_by_rows(block, table)
            return
        call_arrays = self._call_arrays(block)
        for key in distinct:
            if key is None:
                gmask = block.null_mask(slot)
                gmask = gmask if mask is None else (gmask & mask)
            else:
                gmask = np.asarray(col == key, dtype=bool)
                if mask is not None:
                    gmask &= mask
            gid = table.index.get(key)
            if gid is None:
                first = int(gmask.argmax())
                gid = table.add(key, tuple(c[first] for c in block.columns))
            table.touch((gid,))
            rows = int(np.count_nonzero(gmask))
            for agg, entry in zip(table.aggs, call_arrays):
                if entry is None:
                    agg.counts[gid] += rows
                else:
                    values, clean = entry
                    agg.add_values(gid, values[gmask].tolist(), clean)

    def _kernel_inputs(self, block, table, mask) -> list | None:
        """Per aggregate call, what the factorized kernel folds in: None
        for COUNT(*), ``(live, None)`` for count(x) — the selected rows'
        non-NULL mask, None when the column has no NULL — and
        ``(live, data)`` for sum/avg/min/max over an
        int64/float64 column.  Returns None when any call needs the
        per-group path: DISTINCT, computed arguments, other column kinds,
        a running field already held in another representation, an int
        sum that could leave exact-float range, or a min/max where a tie
        between -0.0 and 0.0 would need first-seen order."""
        inputs: list = []
        for agg, source in zip(table.aggs, self._agg_sources):
            if source is None:
                inputs.append(None)
                continue
            if agg.seen is not None or source[0] != _SLOT:
                return None
            col = block.columns[source[1]]
            nulls = block.null_mask(source[1])
            live = None
            if nulls.any():
                live = ~nulls if mask is None else ~nulls[mask]
            if agg.field is None:
                inputs.append((live, None))
                continue
            if not isinstance(col, TypedColumn) or col.kind not in ("i8",
                                                                    "f8"):
                return None
            values = agg.typed_values(col.data.dtype)
            if values is None:
                return None
            data = col.data if mask is None else col.data[mask]
            if live is not None:
                data = data[live]
            if col.kind == "i8" and agg.field == "total":
                bound = np.abs(data.astype(np.float64)).sum()
                if len(table):
                    bound += np.abs(values[:len(table)]).max()
                if bound >= _EXACT_INT:
                    return None
            if col.kind == "f8" and agg.field != "total":
                zeros = data[data == 0]
                if len(zeros) and (
                        np.signbit(zeros).any()
                        or np.signbit(values[values == 0]).any()):
                    return None
            inputs.append((live, data))
        return inputs

    def _accumulate_factorized(self, block, keycol: TypedColumn, table,
                               mask) -> None:
        """Single-column GROUP BY on a typed (i8/f8/bool/dict) key: one
        array pass per block instead of per-row Python work.

        Keys factorize to dense per-block ids with ``np.unique``
        (dictionary strings through their int32 codes); new groups join
        the table in first-occurrence order with their first row as the
        representative, exactly as the row engine discovers them.  Counts
        add through ``bincount``; totals and extremes fold into the
        table's per-group arrays with ``ufunc.at``, which applies its
        updates strictly in row order — so each group's float total is
        the same left-to-right running sum the row engine computes,
        carried across blocks, bit for bit.  When an aggregate call needs
        the per-group path (see :meth:`_kernel_inputs`), each group's
        rows are replayed through it instead, still in row order.

        A block whose keys all belong to known groups skips factorizing:
        int64 keys index the table's dense key lookup and dictionary
        codes its per-dictionary code lookup, giving the same group ids
        the dict lookups would."""
        rows = None if mask is None else np.flatnonzero(mask)
        data = keycol.data if mask is None else keycol.data[mask]
        row_gids = None
        if keycol.kind == "i8" and keycol.valid is None:
            row_gids = table.dense_gids(data)
        elif keycol.kind == "dict":
            row_gids = table.code_gids(keycol, data)
        if row_gids is None:
            keys, first, inverse = _factorize(keycol, mask)
            if not keys:
                return
            ints = None
            if keycol.kind == "i8":
                ints = data[first[:len(keys) - (keys[-1] is None)]]
            gids = table.lookup(keys, ints)
            fresh = np.flatnonzero(gids < 0)
            if len(fresh):
                fresh = fresh[np.argsort(first[fresh], kind="stable")]
                gids[fresh] = np.arange(len(table), len(table) + len(fresh))
                reps = first[fresh] if rows is None else rows[first[fresh]]
                table.extend([keys[j] for j in fresh.tolist()],
                             [block.values_list(slot, reps)
                              for slot in range(len(block.columns))])
            if keycol.kind == "dict":
                table.note_codes(keycol, data[first], gids)
            row_gids = gids[inverse]
        inputs = self._kernel_inputs(block, table, mask)
        if inputs is None:
            table.touch(row_gids)
            self._replay_groups(block, table, row_gids, rows)
            return
        size = len(table)
        per_group = None  # every row's count, shared by NULL-free calls
        for agg, entry in zip(table.aggs, inputs):
            live, data = (None, None) if entry is None else entry
            if live is None:
                if per_group is None:
                    per_group = np.bincount(row_gids, minlength=size)
                agg.counts[:size] += per_group
                live_gids = row_gids
            else:
                live_gids = row_gids[live]
                agg.counts[:size] += np.bincount(live_gids, minlength=size)
            if data is not None:
                agg.fold(live_gids, data)
        table.touch(row_gids, per_group)

    def _replay_groups(self, block, table, row_gids, rows) -> None:
        """The per-group path over factorized keys: each group's rows, in
        row order, through :meth:`_AggColumn.add_values`.  ``rows`` maps
        selected rows back to block rows (None: no selection)."""
        order = np.argsort(row_gids, kind="stable")
        cuts = np.flatnonzero(np.diff(row_gids[order])) + 1
        gid_list = row_gids[order[np.r_[0, cuts]]].tolist()
        if rows is not None:
            order = rows[order]
        call_arrays = self._call_arrays(block)
        for gid, indices in zip(gid_list, np.split(order, cuts)):
            for agg, entry in zip(table.aggs, call_arrays):
                if entry is None:
                    agg.counts[gid] += len(indices)
                    continue
                values, clean = entry
                # a typed column reuses its one cached object view
                picked = (values.values_list(indices)
                          if isinstance(values, TypedColumn)
                          else values[indices].tolist())
                agg.add_values(gid, picked, clean)

    def _accumulate_by_rows(self, block, table) -> None:
        """General GROUP BY (multi-column or computed keys): per-row
        partition, preserving row order so accumulation matches the row
        path exactly."""
        call_arrays = self._call_arrays(block)
        key_columns = [_source_values(source, block)
                       for source in self._group_sources]
        # single-column keys stay raw so this path and the column paths
        # can interleave across blocks without splitting groups
        keys = (key_columns[0] if len(key_columns) == 1
                else list(zip(*key_columns)))
        partition: dict[Any, list[int]] = {}
        for i, key in enumerate(keys):
            bucket = partition.get(key)
            if bucket is None:
                partition[key] = [i]
                if key not in table.index:
                    table.add(key, tuple(c[i] for c in block.columns))
            else:
                bucket.append(i)
        gids = [table.index[key] for key in partition]
        table.touch(gids)
        for gid, indices in zip(gids, partition.values()):
            for agg, entry in zip(table.aggs, call_arrays):
                if entry is None:
                    agg.counts[gid] += len(indices)
                else:
                    values, clean = entry
                    agg.add_values(gid, [values[i] for i in indices], clean)

    def _result_rows(self, groups, group_order,
                     count: bool = True) -> Iterator[tuple]:
        if not groups and not self._node.group_by:
            groups[()] = (self._new_accs(), ())
            group_order.append(())
        for key in group_order:
            accs, representative = groups[key]
            results = {id(call): acc.result()
                       for call, acc in zip(self._agg_calls, accs)}
            out = tuple(self._eval_item(item.expr, representative, results)
                        for item in self._node.items)
            yield self._emit(out) if count else out

    def _eval_item(self, expr: ast.Expr, row: tuple,
                   agg_results: dict[int, Any]) -> Any:
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
            return agg_results[id(expr)]
        if isinstance(expr, ast.BinaryOp):
            left = self._eval_item(expr.left, row, agg_results)
            right = self._eval_item(expr.right, row, agg_results)
            if left is None or right is None:
                return None
            return {"+": lambda: left + right, "-": lambda: left - right,
                    "*": lambda: left * right,
                    "/": lambda: left / right if right else None,
                    "%": lambda: sql_mod(left, right) if right else None,
                    }.get(expr.op, lambda: None)()
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            value = self._eval_item(expr.operand, row, agg_results)
            return None if value is None else -value
        evaluator = compile_expr_cached(expr, self._child.layout)
        return evaluator(row) if row else None


class _Descending:
    """Inverts the comparison of a wrapped sort key.

    Lets a multi-key composite mix ASC and DESC components in one tuple:
    ``reverse=True`` cannot flip individual keys, and numeric negation
    cannot flip strings.  Only ``__lt__``/``__eq__`` are needed — tuple
    comparison uses nothing else."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: "_Descending") -> bool:
        return other.key == self.key


class SortOp(Operator):
    def __init__(self, node: plan.Sort, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._keys = [(compile_expr_cached(k.expr, child.layout),
                       k.descending) for k in node.keys]
        # per key, its column slot when the key is a bare column (the
        # lexsort kernel's precondition), else None
        self._key_slots = []
        for k in node.keys:
            kind, payload = _value_source(k.expr, child.layout)
            self._key_slots.append(
                (payload if kind == _SLOT else None, k.descending))

    def _composite_key(self, row: tuple) -> tuple:
        """Total-order composite sort key for one row.

        A single stable sort on this tuple is equivalent to the classic
        per-key reversed stable-sort cascade *because* ``_sort_key`` is a
        total order (the NaN bucketing guarantees it); a DESC key flips
        NULLs-first too, exactly as ``reverse=True`` did."""
        return tuple(
            _Descending(_sort_key(evaluator(row))) if descending
            else _sort_key(evaluator(row))
            for evaluator, descending in self._keys)

    @staticmethod
    def _sort_cost(n: int) -> float:
        """Virtual cost of sorting ``n`` rows; zero when there is nothing
        to order (n <= 1), on every path alike."""
        if n <= 1:
            return 0.0
        import math
        return n * math.log2(n) * CostModel.SORT_ROW_LOG

    def _charge_sort(self, n: int, clock: SimClock) -> None:
        cost = self._sort_cost(n)
        if cost:
            clock.advance(cost, cat.SORT)

    def __iter__(self) -> Iterator[tuple]:
        rows = list(self._child)
        self._charge_sort(len(rows), self._clock)
        rows.sort(key=self._composite_key)
        for row in rows:
            yield self._emit(row)

    def batches(self) -> Iterator[RowBlock]:
        for block in self.sort_blocks(list(self._child.batches()),
                                      self._clock):
            yield self._emit_block(block)

    def sort_blocks(self, blocks: list[RowBlock],
                    clock: SimClock) -> list[RowBlock]:
        """Fused sink hook: sort the collected input blocks, charging
        ``clock`` the full n·log₂(n) — the one sort charge the serial
        engines make — and return the sorted rows in blocks of
        ``DEFAULT_BATCH_SIZE``.

        When every key is a bare column that concatenates to a typed
        i8/f8/bool/dict column, the permutation comes from one
        ``np.lexsort`` over rank arrays encoding :func:`_sort_key`'s order
        (see :meth:`_rank_arrays`) and the columns are taken through it;
        lexsort is stable, so ties keep input order exactly as the
        composite-key sort does.  Any other key sorts row tuples on
        :meth:`_composite_key`."""
        self._charge_sort(sum(len(block) for block in blocks), clock)
        blocks = [block for block in blocks if block]
        if not blocks:
            return []
        columns = [_concat_column([block.columns[j] for block in blocks])
                   for j in range(len(self.layout))]
        ranks = self._rank_arrays(columns)
        if ranks is None:
            rows = [row for block in blocks for row in block.iter_rows()]
            rows.sort(key=self._composite_key)
            return list(rows_to_blocks(self.layout, rows))
        order = np.lexsort(ranks)
        columns = [column[order] for column in columns]
        n = len(order)
        return [RowBlock(self.layout,
                         [column[start:start + DEFAULT_BATCH_SIZE]
                          for column in columns],
                         min(DEFAULT_BATCH_SIZE, n - start))
                for start in range(0, n, DEFAULT_BATCH_SIZE)]

    def _rank_arrays(self, columns: list) -> list[np.ndarray] | None:
        """``np.lexsort`` keys, least significant first, whose order is
        the composite key's, or None when a key is not a typed slot
        column.  Per sort key: a NULL flag (NULLs last ascending, first
        descending — ``_sort_key`` puts NULL above every value and
        ``_Descending`` flips it) above a value rank: the data itself for
        ints, floats and bools, each code's position in the Python-sorted
        dictionary for strings; ``~x`` reverses an integer rank without
        overflow (INT64_MIN included) and ``-x`` a float one, under which
        -0.0 and 0.0 still tie."""
        ranks: list[np.ndarray] = []
        for slot, descending in reversed(self._key_slots):
            column = None if slot is None else columns[slot]
            if (not isinstance(column, TypedColumn)
                    or column.kind == "obj"):
                return None
            if column.kind == "dict":
                words = column.dictionary
                lut = np.zeros(len(words) + 1, dtype=np.int64)
                lut[sorted(range(len(words)), key=words.__getitem__)] = (
                    np.arange(len(words)))
                values = lut[column.data]
            elif column.kind == "bool":
                values = column.data.view(np.int8)
            else:
                values = column.data
            if descending:
                values = -values if values.dtype.kind == "f" else ~values
            ranks.append(values)
            if column.valid is not None:
                ranks.append(column.valid if descending else ~column.valid)
        return ranks


def _is_nan(value: Any) -> bool:
    """True for float NaN (the one value that defeats ``==``/``<`` total
    ordering).  The ``isinstance`` guard keeps exotic ``__ne__``
    implementations from being mistaken for NaN."""
    return isinstance(value, float) and value != value


def _concat_column(parts: list):
    """One column from per-block pieces: typed pieces concatenate typed
    (mixed kinds fall back to objects), anything else as objects."""
    if len(parts) == 1:
        return parts[0]
    if all(isinstance(part, TypedColumn) for part in parts):
        return TypedColumn.concat(parts)
    return np.concatenate([part.objects() if isinstance(part, TypedColumn)
                           else part for part in parts])


def _sort_key(value: Any) -> tuple:
    """Total-order sort key: numbers, then NaN, then strings, then NULLs.

    NULLs sort last (ascending); mixed types fall back to repr order.  NaN
    gets its own deterministic bucket ``(0.5, "")`` between numbers and
    strings — mirroring the NULLs-last rule — because a raw NaN defeats
    Python's sort comparisons and would make the output input-order-
    dependent."""
    if value is None:
        return (2, "")
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        if _is_nan(value):
            return (0.5, "")
        return (0, value)
    return (1, str(value))


class LimitOp(Operator):
    def __init__(self, node: plan.Limit, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child
        self._limit = node.limit
        self._offset = node.offset
        if node.limit is not None:
            # push the row budget down to the originating scan through
            # row-streaming operators, so the batch engine scans (and
            # charges) the same rows the row engine would: offset + limit
            # produced rows plus the one probe row that triggers the stop
            target = child
            while isinstance(target, (FilterOp, ProjectOp, DistinctOp)):
                target = target._child
            if isinstance(target, (SeqScanOp, IndexScanOp)):
                hint = max(1, node.offset + node.limit + 1)
                target.max_batch_rows = min(target.max_batch_rows, hint)

    def __iter__(self) -> Iterator[tuple]:
        produced = 0
        skipped = 0
        for row in self._child:
            if skipped < self._offset:
                skipped += 1
                continue
            if self._limit is not None and produced >= self._limit:
                return
            produced += 1
            yield self._emit(row)

    def batches(self) -> Iterator[RowBlock]:
        state = self.limit_state()
        for block in self._child.batches():
            out, done = self.limit_block(block, state)
            if out is not None:
                yield self._emit_block(out)
            if done:
                return

    # -- fused-pipeline hooks ----------------------------------------------

    def limit_state(self) -> dict:
        """Fresh streaming state for one execution."""
        return {"produced": 0, "skipped": 0}

    def limit_block(self, block: RowBlock,
                    state: dict) -> tuple[RowBlock | None, bool]:
        """Fused stage hook: apply OFFSET/LIMIT to one block.  Returns
        ``(trimmed block or None, done)`` — ``done`` means the limit is
        satisfied and the caller must stop driving the source pipeline
        (the early-exit contract).  Charges nothing, like the row path."""
        if state["skipped"] < self._offset:
            drop = min(len(block), self._offset - state["skipped"])
            state["skipped"] += drop
            block = block.slice(drop, len(block))
            if not block:
                return None, False
        if self._limit is not None:
            remaining = self._limit - state["produced"]
            if remaining <= 0:
                return None, True
            if len(block) > remaining:
                block = block.slice(0, remaining)
        state["produced"] += len(block)
        done = (self._limit is not None
                and state["produced"] >= self._limit)
        return block, done


class DistinctOp(Operator):
    def __init__(self, node: plan.Distinct, child: Operator, clock: SimClock):
        super().__init__(child.layout, clock)
        self.plan_node = node
        self._child = child

    def __iter__(self) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in self._child:
            self._clock.advance(CostModel.HASH_BUILD_ROW, cat.DISTINCT)
            if row in seen:
                continue
            seen.add(row)
            yield self._emit(row)

    def batches(self) -> Iterator[RowBlock]:
        seen: set[tuple] = set()
        for block in self._child.batches():
            out = self.distinct_block(block, seen, self._clock)
            if out is not None:
                yield self._emit_block(out)

    def distinct_block(self, block: RowBlock, seen: set,
                       clock: SimClock) -> RowBlock | None:
        """Fused stage hook: the streaming DISTINCT step for one block —
        charge ``clock``, keep first-seen rows in order, None when the
        whole block is duplicates.  Order-sensitive (the shared ``seen``
        set), so the placement model counts it as serial lane work."""
        clock.advance_batch(CostModel.HASH_BUILD_ROW, len(block), cat.DISTINCT)
        fresh: list[tuple] = []
        for row in block.iter_rows():
            if row not in seen:
                seen.add(row)
                fresh.append(row)
        if not fresh:
            return None
        return RowBlock.from_rows(self.layout, fresh)


class EmptyRowOp(Operator):
    """A single empty row, for table-less SELECTs."""

    def __init__(self, clock: SimClock):
        super().__init__(RowLayout([]), clock)

    def __iter__(self) -> Iterator[tuple]:
        yield self._emit(())

    def batches(self) -> Iterator[RowBlock]:
        yield self._emit_block(RowBlock.from_rows(self.layout, [()]))
