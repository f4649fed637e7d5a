"""Same-run wall-clock comparison of the placed engines against batch.

The parallel and distributed engines execute the batch engine's fused
pipeline once and only *model* their scale-out, so on one machine their
wall clock should track batch's.  Runs are interleaved engine by engine
and the best of each kept, so machine noise hits every engine alike.
"""

from __future__ import annotations

import time

from repro.exec.executor import Executor


def wall_ratios(db, plan, placed: dict, repeats: int = 7) -> dict:
    """Best-of-``repeats`` wall seconds of batch and of each engine in
    ``placed`` (engine name -> Executor keyword arguments), and each
    placed engine's ratio to batch."""
    executors = {"batch": Executor(db.catalog, db.clock, engine="batch")}
    for engine, kwargs in placed.items():
        executors[engine] = Executor(db.catalog, db.clock, engine=engine,
                                     **kwargs)
    best = dict.fromkeys(executors, float("inf"))
    for _ in range(repeats):
        for name, executor in executors.items():
            start = time.perf_counter()
            executor.run(plan)
            best[name] = min(best[name], time.perf_counter() - start)
    return {"wall_seconds": {name: round(s, 6) for name, s in best.items()},
            "ratio_vs_batch": {name: round(best[name] / best["batch"], 3)
                               for name in placed}}
