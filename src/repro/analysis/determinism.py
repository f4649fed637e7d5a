"""Determinism lint: statically flags nondeterminism sources in charged
paths.

The repo's headline invariant is bit-identical results and charged
virtual time across engines, worker counts, and fault schedules (see
``docs/distributed.md``, ``docs/faults.md``).  Four source patterns can
break it without failing any unit test until a parity sweep happens to
hit them:

``unseeded-rng``
    Any use of the stdlib ``random`` module's global generator, numpy's
    legacy global state (``np.random.rand`` and friends, ``np.random
    .seed``), ``np.random.default_rng()`` with no/``None`` seed, or
    ``random.Random()`` with no seed.  Seeded construction
    (``default_rng(seed)``, ``Random(7)``) is fine; the blessed factory
    is :func:`repro.common.rng.make_rng`, and ``common/rng.py`` itself
    is the one module allowed to talk to numpy's RNG machinery.

``wallclock``
    Wall-clock reads — ``time.time()``/``time_ns``/``perf_counter``/
    ``monotonic``/``process_time``, ``datetime.now``/``utcnow``/
    ``today``.  All timing in this repo is *virtual*
    (:class:`repro.common.simtime.SimClock`); a wall-clock read in a
    charged path couples results to the host machine.

``id-ordering``
    Ordering by object identity: ``sorted(..., key=id)`` (or a lambda
    returning ``id(...)``) — CPython addresses differ run to run.

``set-iteration``
    Iterating a value statically known to be a ``set`` (literal,
    comprehension, ``set(...)`` call, or a local assigned only those)
    where the order can flow into an ordered output: a ``for`` whose
    body appends/yields/returns, or a direct ``list()``/``tuple()``/
    ``enumerate()``/``".join()`` conversion.  ``sorted(s)`` and
    membership-only loops are fine.  Python sets iterate in hash order,
    and str hashes are salted per process (PYTHONHASHSEED).

Escape hatch: ``# repro: nondeterministic-ok <reason>`` on the line.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    AnalysisPass,
    Finding,
    ImportMap,
    ModuleSource,
    Severity,
    dotted_name,
)

_PRAGMA = "nondeterministic-ok"

#: numpy.random attributes that do NOT touch the legacy global state.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                 "PCG64", "Philox", "SFC64", "MT19937", "RandomState"}

_WALLCLOCK = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_ORDERING_FUNCS = {"sorted", "min", "max"}
#: calls whose argument order becomes output order
_ORDER_SINKS = {"list", "tuple", "enumerate"}


def _is_set_expr(node: ast.AST) -> bool:
    """Expression that is definitely a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra: s | t, s & t, s - t, s ^ t — a set if either
        # side provably is
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class _FunctionSets(ast.NodeVisitor):
    """Names assigned exclusively set-valued expressions within one
    function body (no nested-scope descent)."""

    def __init__(self, func: ast.AST):
        self.set_names: set[str] = set()
        self.other_names: set[str] = set()
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign):
                value_is_set = _is_set_expr(stmt.value)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        (self.set_names if value_is_set
                         else self.other_names).add(target.id)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                target = stmt.target
                if isinstance(target, ast.Name):
                    self.other_names.add(target.id)

    def is_set(self, node: ast.AST) -> bool:
        if _is_set_expr(node):
            return True
        return (isinstance(node, ast.Name)
                and node.id in self.set_names
                and node.id not in self.other_names)


def _loop_emits_order(loop: ast.For) -> bool:
    """True when the loop body can leak iteration order: appends to a
    sequence, yields, or returns from inside the loop."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Return)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute) \
                and node.func.attr in ("append", "extend", "insert"):
            return True
    return False


class DeterminismPass(AnalysisPass):
    name = "determinism"
    rules = {
        "unseeded-rng": _PRAGMA,
        "wallclock": _PRAGMA,
        "id-ordering": _PRAGMA,
        "set-iteration": _PRAGMA,
    }
    # common/rng.py IS the seeded-RNG factory; it may construct
    # generators however it documents.
    path_allowlist = ("repro/common/rng.py",)

    def run(self, module: ModuleSource) -> list[Finding]:
        imports = ImportMap(module.tree)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, imports, node))
            elif isinstance(node, ast.For):
                findings.extend(self._check_for(module, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function_sets(module, node))
        # nested functions are walked once per enclosing def: dedup
        seen: set[tuple] = set()
        unique = []
        for finding in findings:
            key = (finding.rule, finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                unique.append(finding)
        return unique

    # -- rng / wallclock / id ---------------------------------------------

    def _check_call(self, module: ModuleSource, imports: ImportMap,
                    node: ast.Call) -> list[Finding]:
        findings = []
        resolved = imports.resolve(node.func)
        if resolved is not None:
            findings.extend(self._check_resolved_call(module, node,
                                                      resolved))
        func_name = dotted_name(node.func)
        if func_name in _ORDERING_FUNCS or \
                (isinstance(node.func, ast.Attribute)
                 and node.func.attr == "sort"):
            key = next((kw.value for kw in node.keywords
                        if kw.arg == "key"), None)
            if key is not None and self._is_id_key(key):
                findings.append(self.finding(
                    module, node, "id-ordering",
                    "ordering by id(): object addresses differ run to "
                    "run — order by a value-based key"))
        return findings

    def _check_resolved_call(self, module: ModuleSource, node: ast.Call,
                             resolved: str) -> list[Finding]:
        if resolved in _WALLCLOCK:
            return [self.finding(
                module, node, "wallclock",
                f"wall-clock read {resolved}(): all timing here is "
                f"virtual (SimClock) — charge the clock instead")]
        if resolved.startswith("random."):
            func = resolved.split(".", 1)[1]
            if func == "Random":
                if not node.args:
                    return [self.finding(
                        module, node, "unseeded-rng",
                        "random.Random() without a seed — pass one, or "
                        "use repro.common.rng.make_rng")]
                return []
            if func[:1].islower():
                return [self.finding(
                    module, node, "unseeded-rng",
                    f"stdlib global RNG random.{func}(): unseeded, "
                    f"process-global state — use "
                    f"repro.common.rng.make_rng")]
        if resolved.startswith("numpy.random."):
            func = resolved.split(".", 2)[2]
            if func == "default_rng":
                seed = node.args[0] if node.args else None
                for kw in node.keywords:
                    if kw.arg == "seed":
                        seed = kw.value
                if seed is None or (isinstance(seed, ast.Constant)
                                    and seed.value is None):
                    return [self.finding(
                        module, node, "unseeded-rng",
                        "np.random.default_rng() without a seed draws "
                        "OS entropy — pass an explicit seed "
                        "(repro.common.rng.make_rng)")]
                return []
            if func not in _NP_RANDOM_OK:
                return [self.finding(
                    module, node, "unseeded-rng",
                    f"numpy legacy global RNG np.random.{func}(): "
                    f"shared mutable state — use a seeded Generator")]
        return []

    @staticmethod
    def _is_id_key(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        return (isinstance(key, ast.Lambda)
                and isinstance(key.body, ast.Call)
                and isinstance(key.body.func, ast.Name)
                and key.body.func.id == "id")

    # -- set iteration -----------------------------------------------------

    def _check_for(self, module: ModuleSource,
                   node: ast.For) -> list[Finding]:
        if _is_set_expr(node.iter) and _loop_emits_order(node):
            return [self._set_finding(module, node)]
        return []

    def _check_function_sets(self, module: ModuleSource,
                             func: ast.AST) -> list[Finding]:
        tracker = _FunctionSets(func)
        findings = []
        for node in ast.walk(func):
            if isinstance(node, ast.For) and not _is_set_expr(node.iter) \
                    and tracker.is_set(node.iter) \
                    and _loop_emits_order(node):
                findings.append(self._set_finding(module, node))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) \
                    else node.func.attr
                if name in _ORDER_SINKS or name == "join":
                    if node.args and tracker.is_set(node.args[0]):
                        findings.append(self._set_finding(module, node))
        return findings

    def _set_finding(self, module: ModuleSource, node: ast.AST) -> Finding:
        return self.finding(
            module, node, "set-iteration",
            "set iteration order flows into an ordered output: str "
            "hashes are salted per process — sort first, or keep "
            "first-seen order in a list/dict")
