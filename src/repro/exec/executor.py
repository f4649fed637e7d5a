"""Plan execution: physical plan trees -> operators -> result sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ExecutionError
from repro.common.simtime import SimClock
from repro.exec import operators as ops
from repro.exec.distributed import (
    DEFAULT_MORSEL_ROWS,
    DEFAULT_NODES,
    DEFAULT_RETRY_LIMIT,
    DEFAULT_WORKERS,
    DistributedScheduler,
)
from repro.exec.pipeline import compile_pipelines, run_program
from repro.plan import logical as plan
from repro.plan.optimizer import _EmptyRow
from repro.storage.catalog import Catalog


@dataclass
class ResultSet:
    """Materialized query output."""

    columns: list[str]
    rows: list[tuple]
    virtual_seconds: float = 0.0
    plan_text: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def column(self, name: str) -> list[Any]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"no column {name!r} in result") from None
        return [row[idx] for row in self.rows]


class Executor:
    """Instantiates operators from plan nodes and runs them to completion.

    ``engine`` selects the execution strategy:

    * ``"batch"`` (default) — vectorized *and fused*: the plan is
      compiled into pipelines (:func:`~repro.exec.pipeline.compile_pipelines`)
      split at breakers, and each pipeline pushes one
      :class:`~repro.exec.batch.RowBlock` through its whole fused stage
      chain per pass with no intermediate materialization.  Results are
      materialized back to row tuples, so callers see the same
      :class:`ResultSet` as ever.  ``fused=False`` selects the unfused
      per-operator pull (each operator's ``batches()`` chained through
      generators) — same rows, same charges, kept for benchmarking the
      fusion win and as a bisection aid.
    * ``"distributed"`` — the fused pipelines executed once, with every
      scan split into one task per morsel on its shard's node, and the
      recorded charges placed on ``nodes`` virtual nodes of ``workers``
      lanes each, connected by shuffle/broadcast/gather exchanges over
      the modeled network (:class:`~repro.exec.distributed.
      DistributedScheduler`).  Rows and per-category charged compute
      totals are identical to ``"batch"`` at every topology;
      ``ResultSet.extra["distributed"]`` carries the modeled makespan,
      the exchange log and per-node timings.
    * ``"parallel"`` — the ``nodes=1`` case of ``"distributed"``: no
      network, stats in ``ResultSet.extra["parallel"]``.
    * ``"row"`` — the legacy Volcano row-at-a-time path, kept as the
      semantic reference and for parity testing.

    ``workers`` and ``morsel_rows`` tune the placed engines, ``nodes``
    only the distributed one; the serial engines ignore all three.
    """

    ENGINES = ("batch", "row", "parallel", "distributed")

    def __init__(self, catalog: Catalog, clock: SimClock | None = None,
                 engine: str = "batch", workers: int | None = None,
                 morsel_rows: int | None = None, fused: bool = True,
                 faults=None, retry_limit: int | None = None,
                 registry=None, nodes: int | None = None):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"expected one of {self.ENGINES}")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if nodes is not None and nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        self._catalog = catalog
        self._clock = clock if clock is not None else catalog.clock
        self.engine = engine
        self.fused = fused
        self.workers = workers if workers is not None else DEFAULT_WORKERS
        self.nodes = nodes if nodes is not None else DEFAULT_NODES
        self.morsel_rows = (morsel_rows if morsel_rows is not None
                            else DEFAULT_MORSEL_ROWS)
        # fault injection + recovery knobs for the placed engines (see
        # repro.common.faults); the serial engines ignore them — their
        # fault surface is the storage layer's replicated tables
        self.faults = faults
        self.retry_limit = (retry_limit if retry_limit is not None
                            else DEFAULT_RETRY_LIMIT)
        self.registry = registry
        #: (plan node, operator root) of the most recent :meth:`run`, kept
        #: for EXPLAIN ANALYZE's per-operator annotation pass
        self.last_run: tuple[plan.PlanNode, ops.Operator] | None = None

    def build(self, node: plan.PlanNode) -> ops.Operator:
        """Recursively build the operator tree for a plan."""
        if isinstance(node, plan.SeqScan):
            return ops.SeqScanOp(node, self._catalog, self._clock)
        if isinstance(node, plan.IndexScan):
            return ops.IndexScanOp(node, self._catalog, self._clock)
        if isinstance(node, plan.Filter):
            return ops.FilterOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Project):
            return ops.ProjectOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.NestedLoopJoin):
            return ops.NestedLoopJoinOp(node, self.build(node.left),
                                        self.build(node.right), self._clock)
        if isinstance(node, plan.HashJoin):
            return ops.HashJoinOp(node, self.build(node.left),
                                  self.build(node.right), self._clock)
        if isinstance(node, plan.Aggregate):
            return ops.AggregateOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Sort):
            return ops.SortOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Limit):
            return ops.LimitOp(node, self.build(node.child), self._clock)
        if isinstance(node, plan.Distinct):
            return ops.DistinctOp(node, self.build(node.child), self._clock)
        if isinstance(node, _EmptyRow):
            return ops.EmptyRowOp(self._clock)
        raise ExecutionError(f"no operator for plan node {node.label}")

    def _placed(self, operator: ops.Operator):
        """Run a placed engine: (result blocks, scheduler stats)."""
        nodes = self.nodes if self.engine == "distributed" else 1
        return DistributedScheduler(
            self._clock, nodes=nodes, workers=self.workers,
            morsel_rows=self.morsel_rows, faults=self.faults,
            retry_limit=self.retry_limit,
            registry=self.registry).run(operator)

    def _batch_blocks(self, operator: ops.Operator):
        """The batch engine's block stream: the fused pipeline drive loop
        by default, the unfused per-operator pull with ``fused=False``.
        Both are lazy, so budgets and LIMIT stop exactly where they
        should."""
        if self.fused:
            return run_program(compile_pipelines(operator), self._clock)
        return operator.batches()

    def iter_rows(self, operator: ops.Operator):
        """Row-tuple iterator over an operator tree using the configured
        engine — the facade that keeps batch (and placed) execution
        invisible to row-oriented callers (measurement, db facade, tests).
        The placed engines execute eagerly; the iterator replays their
        materialized result."""
        if self.engine in ("parallel", "distributed"):
            blocks, _ = self._placed(operator)
            return (row for block in blocks for row in block.iter_rows())
        if self.engine == "batch":
            return (row for block in self._batch_blocks(operator)
                    for row in block.iter_rows())
        return iter(operator)

    def run(self, node: plan.PlanNode) -> ResultSet:
        """Execute a plan and materialize the result, measuring virtual time."""
        start = self._clock.now
        operator = self.build(node)
        self.last_run = (node, operator)
        extra: dict[str, Any] = {}
        if self.engine in ("parallel", "distributed"):
            blocks, stats = self._placed(operator)
            rows = [row for block in blocks for row in block.iter_rows()]
            extra[self.engine] = stats
        elif self.engine == "batch" and self.fused:
            program = compile_pipelines(operator)
            rows = [row for block in run_program(program, self._clock)
                    for row in block.iter_rows()]
            extra["pipeline"] = {"pipelines": program.describe()}
        else:
            rows = list(self.iter_rows(operator))
        elapsed = self._clock.now - start
        return ResultSet(columns=operator.layout.column_names(), rows=rows,
                         virtual_seconds=elapsed, plan_text=node.pretty(),
                         extra=extra)
