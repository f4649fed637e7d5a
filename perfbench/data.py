"""Seeded inputs for the workloads.

Everything the database receives is generated here from the run's seed
and handed over as SQL text, so two runs with one seed send the same
statements.  Sizes and mixes live in :mod:`perfbench.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import spec

GROUPS = ("alpha", "beta", "gamma", "delta")

T_DDL = "CREATE TABLE t (id INT UNIQUE, grp TEXT, k INT, v FLOAT, w FLOAT)"
D_DDL = "CREATE TABLE d (k INT UNIQUE, region TEXT)"


def sql_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def insert_statements(table: str, rows: list[tuple],
                      per_statement: int = spec.INSERT_ROWS_PER_STATEMENT
                      ) -> list[str]:
    """Multi-row ``INSERT ... VALUES`` texts, ``per_statement`` rows each."""
    out = []
    for start in range(0, len(rows), per_statement):
        values = ", ".join(
            "(" + ", ".join(sql_literal(v) for v in row) + ")"
            for row in rows[start:start + per_statement])
        out.append(f"INSERT INTO {table} VALUES {values}")
    return out


@dataclass
class Tables:
    """The analytic tables ``t`` (facts) and ``d`` (dimension on ``k``)."""

    t_rows: list[tuple]
    d_rows: list[tuple]


def analytic_tables(seed: int) -> Tables:
    rng = np.random.default_rng([seed, 1])
    n = spec.T_ROWS
    grp = rng.integers(0, len(GROUPS), n)
    k = rng.integers(0, spec.K_DISTINCT, n)
    v = rng.random(n)
    w = rng.random(n)
    t_rows = [(i, GROUPS[grp[i]], int(k[i]), float(v[i]), float(w[i]))
              for i in range(n)]
    region = rng.integers(0, spec.REGIONS, spec.K_DISTINCT)
    d_rows = [(key, f"r{int(region[key])}")
              for key in range(spec.K_DISTINCT)]
    return Tables(t_rows, d_rows)


# -- olap ---------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    shape: str
    sql: str
    ordered: bool


def olap_query(shape: str, rng: np.random.Generator) -> Query:
    """One instance of a query shape with seeded literals."""
    if shape == "filter_agg":
        lo, hi = rng.uniform(0.2, 0.3), rng.uniform(0.85, 0.95)
        return Query(shape, "SELECT grp, count(*), sum(v), avg(w) FROM t "
                     f"WHERE v > {lo!r} AND w < {hi!r} GROUP BY grp", False)
    if shape == "wide_agg":
        lo = rng.uniform(0.0, 0.05)
        return Query(shape, "SELECT k, count(*), sum(v), avg(w) FROM t "
                     f"WHERE w > {lo!r} GROUP BY k", False)
    if shape == "order_by":
        lo = rng.uniform(0.04, 0.06)
        return Query(shape, f"SELECT id, v FROM t WHERE v > {lo!r} "
                     "ORDER BY v DESC", True)
    if shape == "join":
        hi = rng.uniform(0.4, 0.6)
        return Query(shape, "SELECT d.region, count(*), sum(t.v) FROM t "
                     f"JOIN d ON t.k = d.k WHERE t.w < {hi!r} "
                     "GROUP BY d.region", False)
    raise ValueError(f"unknown query shape {shape!r}")


def olap_pass(seed: int, index: int) -> list[Query]:
    """The op sequence of the ``index``-th olap pass: a fixed count of
    each shape (:data:`spec.OLAP_PASS`), in seeded order, with literals
    drawn afresh each pass so a shape's latencies sample its literal
    range rather than repeat three values."""
    rng = np.random.default_rng([seed, 2, index])
    shapes = [s for s, count in spec.OLAP_PASS.items() for _ in range(count)]
    order = rng.permutation(len(shapes))
    return [olap_query(shapes[i], rng) for i in order]


def olap_warmup(seed: int) -> list[Query]:
    rng = np.random.default_rng([seed, 3])
    return [olap_query(shape, rng) for shape in spec.OLAP_PASS]


# -- oltp_mixed ---------------------------------------------------------

@dataclass(frozen=True)
class OltpOp:
    kind: str          # point_select | insert | update | range_select
    sql: str
    key: int           # the id read or written


def oltp_ops(seed: int) -> Iterator[OltpOp]:
    """Endless seeded YCSB-style stream over ``t`` in passes of
    :data:`spec.OLTP_WINDOW` ops: each pass holds exactly the mix in
    :data:`spec.OLTP_MIX`, in seeded order, with Zipfian keys; inserts
    take fresh ids after the loaded ones."""
    from repro.common.rng import zipf_sample

    rng = np.random.default_rng([seed, 4])
    ids = rng.permutation(spec.T_ROWS)  # hot ranks land on scattered pages
    mix = [kind for kind, share in spec.OLTP_MIX.items()
           for _ in range(round(share * spec.OLTP_WINDOW))]
    next_id = spec.T_ROWS
    while True:
        ranks = zipf_sample(rng, spec.T_ROWS, spec.ZIPF_THETA,
                            size=len(mix))
        for i, rank in zip(rng.permutation(len(mix)), ranks):
            kind = mix[i]
            key = int(ids[rank])
            if kind == "point_select":
                yield OltpOp(kind, "SELECT id, grp, k, v, w FROM t "
                             f"WHERE id = {key}", key)
            elif kind == "insert":
                row = (next_id, GROUPS[int(rng.integers(len(GROUPS)))],
                       int(rng.integers(spec.K_DISTINCT)),
                       float(rng.random()), float(rng.random()))
                next_id += 1
                yield OltpOp(kind, insert_statements("t", [row])[0], row[0])
            elif kind == "update":
                v, w = float(rng.random()), float(rng.random())
                yield OltpOp(kind, f"UPDATE t SET v = {v!r}, w = {w!r} "
                             f"WHERE id = {key}", key)
            else:
                yield OltpOp(kind, "SELECT id, v FROM t WHERE "
                             f"id >= {key} AND id < "
                             f"{key + spec.RANGE_SPAN}", key)


# -- ctr_drift ----------------------------------------------------------

def avazu_ddl() -> str:
    features = ", ".join(f"f{i} INT" for i in range(22))
    return f"CREATE TABLE avazu (rid INT UNIQUE, {features}, click_rate FLOAT)"


class AvazuSource:
    """Labelled rows of the five Avazu drift clusters.

    The clusters' feature centres and click models are one fixed
    population (the dataset); the run's seed picks which rows are drawn
    from it, as sampling a real dump would.
    """

    def __init__(self, seed: int):
        from repro.workloads.avazu import AvazuGenerator

        self.seed = seed
        self.generator = AvazuGenerator(seed=spec.AVAZU_POPULATION_SEED)
        self._draws = 0

    def rows(self, cluster: int, count: int) -> tuple[list[tuple],
                                                      list[float]]:
        """``count`` fresh feature rows of a cluster and their labels."""
        self._draws += 1
        with np.errstate(over="ignore"):
            batch = self.generator.generate(
                cluster % 5, count,
                seed=self.seed * 1_000_003 + self._draws)
        return batch.rows, [float(y) for y in batch.labels]


def predict_values_sql(row: tuple) -> str:
    return ("PREDICT CLASS OF click_rate FROM avazu TRAIN ON * VALUES ("
            + ", ".join(str(v) for v in row) + ")")


def predict_range_sql(low: int, high: int) -> str:
    return (f"PREDICT CLASS OF click_rate FROM avazu WHERE rid >= {low} "
            f"AND rid < {high} TRAIN ON *")
