"""The parallel engine and the placement model under it.

The three-way result parity lives in test_batch_parity.py; this file
exercises the engine itself: degenerate morsel shapes (empty tables,
1-row morsels, more workers than morsels), determinism across worker
counts, the virtual-time invariants (total == serial total, makespan <=
total), the placement of recorded charges (list scheduling, the sort
run/remainder split, crash and task-error replay, retry exhaustion, slow
workers and nodes, LIMIT on the lane), and the storage-level morsel
splitting contract.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.common import categories as cat
from repro.common.errors import TransientError, WorkerCrash
from repro.common.faults import FaultPlan
from repro.common.simtime import BudgetExceeded, CostModel, SimClock
from repro.exec.distributed import DistributedScheduler
from repro.exec.executor import Executor
from repro.exec.operators import SortOp
from repro.obs.metrics import MetricsRegistry
from repro.sql import parse


def _typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


def _fresh_db(rows: int = 60):
    db = repro.connect()
    db.execute("CREATE TABLE t (id INT UNIQUE, grp TEXT, v FLOAT)")
    heap = db.catalog.table("t")
    for i in range(rows):
        heap.insert((i, ["a", "b", "c"][i % 3], float(i) * 0.5))
    db.execute("ANALYZE")
    return db


def _run(db, sql, **executor_kwargs):
    plan = db.planner.plan_select(parse(sql))
    return Executor(db.catalog, db.clock, **executor_kwargs).run(plan)


QUERIES = [
    "SELECT * FROM t",
    "SELECT grp, count(*), sum(v), avg(v) FROM t GROUP BY grp",
    "SELECT count(*) FROM t WHERE v > 5.0",
    "SELECT id FROM t WHERE grp = 'a' ORDER BY id",
]


# -- degenerate shapes -------------------------------------------------------

@pytest.mark.parametrize("sql", QUERIES)
def test_empty_table(sql):
    """Zero morsels: scans yield nothing, aggregate merges zero partials."""
    db = _fresh_db(rows=0)
    batch = _run(db, sql, engine="batch")
    parallel = _run(db, sql, engine="parallel", workers=4)
    assert _typed(parallel.rows) == _typed(batch.rows)


def test_empty_table_global_aggregate_default_row():
    """A global aggregate over zero rows still yields its default row —
    the merge of an *empty* partial list."""
    db = _fresh_db(rows=0)
    result = _run(db, "SELECT count(*), sum(v) FROM t", engine="parallel")
    assert result.rows == [(0, None)]


@pytest.mark.parametrize("sql", QUERIES)
def test_one_row_morsels(sql):
    """morsel_rows=1: one morsel per row, maximal split/merge traffic."""
    db = _fresh_db(rows=17)
    batch = _run(db, sql, engine="batch")
    parallel = _run(db, sql, engine="parallel", workers=3, morsel_rows=1)
    assert parallel.extra["parallel"]["tasks"] >= 17
    assert _typed(parallel.rows) == _typed(batch.rows)
    assert parallel.virtual_seconds == pytest.approx(
        batch.virtual_seconds, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("sql", QUERIES)
def test_more_workers_than_morsels(sql):
    """workers > morsels: idle workers must not corrupt results or time."""
    db = _fresh_db(rows=5)
    batch = _run(db, sql, engine="batch")
    parallel = _run(db, sql, engine="parallel", workers=16, morsel_rows=4096)
    assert _typed(parallel.rows) == _typed(batch.rows)
    assert parallel.virtual_seconds == pytest.approx(
        batch.virtual_seconds, rel=1e-6, abs=1e-9)


def test_filter_rejects_everything_before_aggregate():
    """Every morsel filters to empty: the aggregate sees no partials at
    all, but grouped queries emit nothing and global ones their default."""
    db = _fresh_db()
    assert _run(db, "SELECT grp, count(*) FROM t WHERE v < 0 GROUP BY grp",
                engine="parallel", morsel_rows=8).rows == []
    assert _run(db, "SELECT count(*), max(v) FROM t WHERE v < 0",
                engine="parallel", morsel_rows=8).rows == [(0, None)]


# -- determinism -------------------------------------------------------------

def test_deterministic_across_worker_counts():
    """Rows, order, and charged totals are identical for any worker count
    (single-worker inline mode is the reference)."""
    db = _fresh_db(rows=200)
    sql = "SELECT grp, count(*), sum(v) FROM t WHERE v > 1.0 GROUP BY grp"
    plan = db.planner.plan_select(parse(sql))
    reference = None
    for workers in (1, 2, 4, 7):
        executor = Executor(db.catalog, db.clock, engine="parallel",
                            workers=workers, morsel_rows=16)
        start = db.clock.now
        result = executor.run(plan)
        charged = db.clock.now - start
        if reference is None:
            reference = (_typed(result.rows), charged)
        else:
            assert _typed(result.rows) == reference[0]
            assert charged == pytest.approx(reference[1], rel=1e-9)


def test_repeated_runs_identical():
    db = _fresh_db(rows=100)
    sql = "SELECT grp, sum(v) FROM t GROUP BY grp"
    first = _run(db, sql, engine="parallel", workers=4, morsel_rows=8)
    second = _run(db, sql, engine="parallel", workers=4, morsel_rows=8)
    assert _typed(first.rows) == _typed(second.rows)


# -- virtual-time invariants -------------------------------------------------

def test_makespan_bounded_by_charged_total():
    db = _fresh_db(rows=500)
    result = _run(db, "SELECT grp, count(*) FROM t WHERE v > 10 GROUP BY grp",
                  engine="parallel", workers=4, morsel_rows=16)
    stats = result.extra["parallel"]
    assert stats["virtual_makespan"] <= stats["virtual_charged"] + 1e-12
    assert stats["modeled_speedup"] >= 1.0
    # the charged total is what landed on the shared clock
    assert stats["virtual_charged"] == pytest.approx(
        result.virtual_seconds, rel=1e-9)


def test_single_worker_makespan_equals_total():
    db = _fresh_db(rows=200)
    stats = _run(db, "SELECT count(*) FROM t", engine="parallel",
                 workers=1).extra["parallel"]
    assert stats["virtual_makespan"] == pytest.approx(
        stats["virtual_charged"], rel=1e-12)


def test_more_workers_never_slower():
    db = _fresh_db(rows=2000)
    sql = "SELECT grp, sum(v) FROM t WHERE v > 0 GROUP BY grp"
    spans = []
    for workers in (1, 2, 4):
        stats = _run(db, sql, engine="parallel", workers=workers,
                     morsel_rows=64).extra["parallel"]
        spans.append(stats["virtual_makespan"])
    assert spans[0] >= spans[1] >= spans[2]


def test_limit_plans_run_on_serial_lane():
    """LIMIT anywhere => the plan is pure lane time: no parallel phases,
    makespan == charged, and charges exactly match the batch engine's
    early termination."""
    db = _fresh_db(rows=300)
    sql = "SELECT id FROM t WHERE v > 1 LIMIT 3"
    batch = _run(db, sql, engine="batch")
    parallel = _run(db, sql, engine="parallel", workers=4, morsel_rows=8)
    assert parallel.rows == batch.rows
    stats = parallel.extra["parallel"]
    assert stats["parallel_phases"] == 0
    assert stats["tasks"] == 0
    assert stats["virtual_makespan"] == stats["virtual_charged"]
    assert stats["lane_seconds"] == stats["virtual_charged"]
    assert parallel.virtual_seconds == pytest.approx(
        batch.virtual_seconds, rel=1e-9, abs=1e-12)


# -- placement of recorded charges ------------------------------------------

def _charging(costs):
    """A map task that charges ``costs[item]`` virtual seconds."""
    def task(item, clock):
        clock.advance(costs[item], cat.SCAN)
        return item
    return task


def test_list_schedule_makespan_of_recorded_costs():
    """Recorded task costs are list-scheduled in task order onto the
    workers: six 1s tasks on 2 workers => 3s makespan, 6s charged; a
    3/1/1/1 cost vector packs onto two lanes of 3s each."""
    clock = SimClock()
    sched = DistributedScheduler(clock, nodes=1, workers=2)
    assert sched.map(list(range(6)), _charging([1.0] * 6)) == list(range(6))
    stats = sched.finish()
    assert stats["virtual_charged"] == pytest.approx(6.0)
    assert stats["virtual_makespan"] == pytest.approx(3.0)
    assert clock.now == pytest.approx(6.0)
    assert clock.category_total(cat.SCAN) == pytest.approx(6.0)

    sched = DistributedScheduler(SimClock(), nodes=1, workers=2)
    sched.map(list(range(4)), _charging([3.0, 1.0, 1.0, 1.0]))
    assert sched.finish()["virtual_makespan"] == pytest.approx(3.0)


def test_sort_runs_and_lane_remainder():
    """A sort's single n*log2(n) charge — batch's charge, unchanged — is
    placed as one run of n_i*log2(n_i) per task plus the merge
    remainder n*log2(n) - sum(n_i*log2(n_i)) on the lane."""
    db = _fresh_db(rows=100)
    sql = "SELECT id, v FROM t ORDER BY v DESC"
    plan = db.planner.plan_select(parse(sql))
    before = db.clock.category_total(cat.SORT)
    Executor(db.catalog, db.clock, engine="batch").run(plan)
    batch_sort = db.clock.category_total(cat.SORT) - before
    before = db.clock.category_total(cat.SORT)
    result = Executor(db.catalog, db.clock, engine="parallel", workers=4,
                      morsel_rows=16).run(plan)
    assert db.clock.category_total(cat.SORT) - before == batch_sort
    sizes = [16] * 6 + [4]
    remainder = SortOp._sort_cost(100) - sum(SortOp._sort_cost(n)
                                             for n in sizes)
    assert remainder > 0
    assert result.extra["parallel"]["lane_seconds"] == pytest.approx(
        remainder, rel=1e-12)
    assert batch_sort == pytest.approx(
        100 * math.log2(100) * CostModel.SORT_ROW_LOG, rel=1e-12)


def test_crash_replay_charges_attempt_twice_and_drops_a_lane():
    """A crashed attempt's charges stay; the retry charges the task's
    recorded charges again, and the crashed lane leaves the phase."""
    costs = [1.0] * 4
    clean = DistributedScheduler(SimClock(), nodes=1, workers=2)
    clean.map(list(range(4)), _charging(costs))
    clean_stats = clean.finish()

    clock = SimClock()
    plan = FaultPlan(seed=0).arm("worker_crash", times=(0,))
    sched = DistributedScheduler(clock, nodes=1, workers=2, faults=plan)
    assert sched.map(list(range(4)), _charging(costs)) == list(range(4))
    stats = sched.finish()
    assert stats["crashes_recovered"] == 1
    assert clock.category_total(cat.SCAN) == pytest.approx(5.0)
    assert stats["virtual_charged"] == pytest.approx(5.0)
    assert clean_stats["virtual_makespan"] == pytest.approx(2.0)
    # 5 attempts of 1s on the one surviving lane
    assert stats["virtual_makespan"] == pytest.approx(5.0)


def test_slow_node_inflates_only_its_node():
    db = repro.connect(shards=2)
    db.execute("CREATE TABLE s (id INT, v FLOAT)")
    for i in range(64):
        db.catalog.table("s").insert((i, float(i)))
    plan = db.planner.plan_select(parse("SELECT count(*), sum(v) FROM s"))
    run = lambda faults=None: Executor(
        db.catalog, db.clock, engine="distributed", nodes=2, workers=2,
        morsel_rows=8, faults=faults).run(plan).extra["distributed"]
    run()  # warm the buffer pool: both measured runs hit every page
    clean = run()
    slow = run(FaultPlan(seed=0).arm("slow_node", rate=1.0,
                                     target="node1", latency=1e-3))
    tasks_on_1 = slow["per_node"][1]["tasks"]
    assert tasks_on_1 > 0
    assert slow["charged_by_category"][cat.FAULT_SLOW] == pytest.approx(
        tasks_on_1 * 1e-3)
    assert slow["per_node"][0]["busy_seconds"] == pytest.approx(
        clean["per_node"][0]["busy_seconds"])
    assert slow["per_node"][1]["busy_seconds"] > \
        clean["per_node"][1]["busy_seconds"]


def test_map_without_items_places_nothing():
    """A phase with no tasks is empty bookkeeping: no tasks, no parallel
    phase, and a zero makespan."""
    clock = SimClock()
    sched = DistributedScheduler(clock, nodes=1, workers=4)
    assert sched.map([], _charging([])) == []
    stats = sched.finish()
    assert stats["tasks"] == 0
    assert stats["parallel_phases"] == 0
    assert stats["virtual_makespan"] == 0.0
    assert stats["virtual_charged"] == 0.0
    assert stats["modeled_speedup"] == 1.0
    assert clock.now == 0.0


def test_lane_charges_count_fully_toward_makespan():
    """Charges filed outside any task are coordinator lane time: they add
    to the makespan in full, on top of the phase's list schedule."""
    sched = DistributedScheduler(SimClock(), nodes=1, workers=4)
    sched.charge(cat.SORT, 2.0)
    sched.map(list(range(4)), _charging([1.0] * 4))
    stats = sched.finish()
    assert stats["lane_seconds"] == pytest.approx(2.0)
    assert stats["virtual_charged"] == pytest.approx(6.0)
    assert stats["virtual_makespan"] == pytest.approx(3.0)
    assert stats["modeled_speedup"] == pytest.approx(2.0)


def test_task_error_retry_does_not_charge_the_work_again():
    """A task_error strikes before an attempt's work: the retried attempt
    is the one that ran, so nothing is charged twice and no lane is lost."""
    clock = SimClock()
    plan = FaultPlan(seed=0).arm("task_error", times=(1,))
    sched = DistributedScheduler(clock, nodes=1, workers=2, faults=plan)
    assert sched.map(list(range(4)), _charging([1.0] * 4)) == list(range(4))
    stats = sched.finish()
    assert stats["task_retries"] == 1
    assert stats["crashes_recovered"] == 0
    assert clock.category_total(cat.SCAN) == pytest.approx(4.0)
    assert stats["virtual_makespan"] == pytest.approx(2.0)


def test_single_worker_crash_keeps_one_lane():
    """A crash on a one-worker node cannot leave it without a lane: the
    replayed attempt queues behind the others on the same worker."""
    clock = SimClock()
    plan = FaultPlan(seed=0).arm("worker_crash", times=(2,))
    sched = DistributedScheduler(clock, nodes=1, workers=1, faults=plan)
    sched.map(list(range(3)), _charging([1.0, 2.0, 3.0]))
    stats = sched.finish()
    assert stats["crashes_recovered"] == 1
    assert stats["virtual_charged"] == pytest.approx(9.0)
    assert stats["virtual_makespan"] == pytest.approx(9.0)


@pytest.mark.parametrize("kind,error", [("task_error", TransientError),
                                        ("worker_crash", WorkerCrash)])
def test_exhausted_retries_raise_the_fault(kind, error):
    """Past ``retry_limit`` retries the fault's own exception escapes."""
    plan = FaultPlan(seed=0).arm(kind, rate=1.0)
    sched = DistributedScheduler(SimClock(), nodes=1, workers=2,
                                 faults=plan, retry_limit=1)
    with pytest.raises(error):
        sched.map([0], _charging([1.0]))
    assert plan.count(kind) == 2


def test_slow_worker_charges_fault_latency_per_task():
    """slow_worker latency is charged after each struck attempt's work,
    under its own category, and lengthens that task's lane."""
    clock = SimClock()
    plan = FaultPlan(seed=0).arm("slow_worker", rate=1.0, latency=0.5)
    sched = DistributedScheduler(clock, nodes=1, workers=2, faults=plan)
    sched.map(list(range(4)), _charging([1.0] * 4))
    stats = sched.finish()
    assert stats["charged_by_category"][cat.FAULT_SLOW] == pytest.approx(2.0)
    assert stats["charged_by_category"][cat.SCAN] == pytest.approx(4.0)
    assert stats["virtual_makespan"] == pytest.approx(3.0)


def test_fault_counters_reach_the_registry():
    registry = MetricsRegistry()
    plan = (FaultPlan(seed=0).arm("task_error", times=(0,))
            .arm("worker_crash", times=(1,)))
    sched = DistributedScheduler(SimClock(), nodes=1, workers=2,
                                 faults=plan, registry=registry)
    sched.map(list(range(3)), _charging([1.0] * 3))
    sched.finish()
    counters = registry.snapshot()["counters"]
    assert counters["exec.tasks"] == 3
    assert counters["exec.parallel_phases"] == 1
    assert counters["exec.task_retries"] == 1
    assert counters["exec.crashes_recovered"] == 1


def test_parallel_engine_is_the_single_node_placement():
    """The parallel engine is the nodes=1 case of the placement model:
    same rows, tasks, charges and makespan, and no exchange at all."""
    db = _fresh_db(rows=500)
    sql = "SELECT grp, count(*), sum(v) FROM t WHERE v > 3 GROUP BY grp"
    db.execute(sql)  # warm the buffer pool for both measured runs
    parallel = _run(db, sql, engine="parallel", workers=4, morsel_rows=64)
    single = _run(db, sql, engine="distributed", nodes=1, workers=4,
                  morsel_rows=64)
    assert _typed(parallel.rows) == _typed(single.rows)
    p, d = parallel.extra["parallel"], single.extra["distributed"]
    assert p["tasks"] == d["tasks"] == math.ceil(500 / 64)
    assert p["charged_by_category"] == d["charged_by_category"]
    assert p["virtual_makespan"] == pytest.approx(d["virtual_makespan"],
                                                  rel=1e-12)
    assert p["exchanges"] == d["exchanges"] == []
    assert p["bytes_on_wire"] == 0


def test_failed_run_detaches_the_recorder_and_keeps_its_charges():
    """A query that fails mid-flight leaves its charges on the clock and
    the clock without a recorder, like the batch engine."""
    db = _fresh_db(rows=2000)
    plan = db.planner.plan_select(parse("SELECT id FROM t ORDER BY v"))
    start = db.clock.now
    db.clock.set_limit(start + 1e-9)
    try:
        with pytest.raises(BudgetExceeded):
            Executor(db.catalog, db.clock, engine="parallel",
                     workers=4).run(plan)
    finally:
        db.clock.set_limit(None)
    assert db.clock.recorder is None
    assert db.clock.now > start


# -- knobs and validation ----------------------------------------------------

def test_scheduler_rejects_bad_knobs():
    clock = SimClock()
    with pytest.raises(ValueError):
        DistributedScheduler(clock, nodes=1, workers=0)
    with pytest.raises(ValueError):
        DistributedScheduler(clock, nodes=1, morsel_rows=0)
    with pytest.raises(ValueError):
        Executor(repro.connect().catalog, engine="parallel", workers=0)


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        Executor(repro.connect().catalog, engine="morsel")


# -- storage morsel splitting ------------------------------------------------

def test_scan_morsels_contract():
    """Concatenated morsels reproduce scan order; sizes are exact except
    the final short morsel; each page hits the buffer pool exactly once."""
    db = _fresh_db(rows=137)
    heap = db.catalog.table("t")
    serial = [row for _, row in heap.scan()]
    pool = db.catalog.buffer_pool
    before = pool._hits + pool._misses
    morsels = heap.scan_morsels(10)
    touches = (pool._hits + pool._misses) - before
    assert touches == heap.page_count
    assert [n for _, n in morsels[:-1]] == [10] * (len(morsels) - 1)
    assert 0 < morsels[-1][1] <= 10
    rebuilt = [row for columns, n in morsels
               for row in zip(*columns)] if morsels else []
    assert rebuilt == serial


def test_scan_morsels_single_row_granularity():
    db = _fresh_db(rows=7)
    heap = db.catalog.table("t")
    morsels = heap.scan_morsels(1)
    assert len(morsels) == 7
    assert all(n == 1 for _, n in morsels)


def test_scan_morsels_empty_table():
    db = _fresh_db(rows=0)
    assert db.catalog.table("t").scan_morsels(16) == []
