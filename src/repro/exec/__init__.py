"""Query execution: expression compiler, operators, and the executor.

Engines share one operator tree: the vectorized batch engine (default),
the parallel and distributed engines that place its recorded charges on
modeled workers and nodes, and the legacy row-at-a-time engine — see
docs/execution.md and docs/distributed.md.
"""

from repro.exec.batch import DEFAULT_BATCH_SIZE, RowBlock, rows_to_blocks
from repro.exec.executor import Executor, ResultSet
from repro.exec.distributed import (
    DEFAULT_MORSEL_ROWS,
    DEFAULT_WORKERS,
    DistributedScheduler,
)
from repro.exec.expr import (
    RowLayout,
    compile_expr,
    compile_expr_cached,
    compile_expr_vector,
    compile_predicate_batch,
    to_bool,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MORSEL_ROWS",
    "DEFAULT_WORKERS",
    "DistributedScheduler",
    "Executor",
    "ResultSet",
    "RowBlock",
    "RowLayout",
    "compile_expr",
    "compile_expr_cached",
    "compile_expr_vector",
    "compile_predicate_batch",
    "rows_to_blocks",
    "to_bool",
]
