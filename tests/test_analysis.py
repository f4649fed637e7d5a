"""The invariant analyzer suite: determinism lint and charge-category
registry.

Three kinds of coverage:

* **Seeded true positives** — each rule fires on a minimal snippet (and
  on the acceptance-criteria injections into the real
  ``exec/operators.py`` source).
* **False-positive guards** — known-clean idioms (seeded RNG, sorted
  set iteration, guarded clock fallbacks) produce nothing.
* **The tree itself** — ``src/repro`` analyzes to zero unsuppressed
  findings, which is also what the blocking CI job asserts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_PASSES,
    ChargeCategoryPass,
    DeterminismPass,
    load_module,
    load_tree,
    run_passes,
    unsuppressed,
)
from repro.common import categories

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def findings_for(path: str, text: str, passes=None):
    mod = load_module(path, text)
    lineup = [p() for p in (passes or ALL_PASSES)]
    return unsuppressed(run_passes([mod], lineup))


def rules_of(findings):
    return [f.rule for f in findings]


# -- determinism lint --------------------------------------------------------


class TestDeterminismPass:
    def test_stdlib_global_rng_flagged(self):
        found = findings_for("repro/x.py",
                             "import random\nv = random.random()\n",
                             [DeterminismPass])
        assert rules_of(found) == ["unseeded-rng"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["unseeded-rng"]

    def test_none_seed_flagged_and_explicit_seed_clean(self):
        src = ("import numpy as np\n"
               "a = np.random.default_rng(None)\n"
               "b = np.random.default_rng(7)\n"
               "c = np.random.default_rng(seed=3)\n")
        found = findings_for("repro/x.py", src, [DeterminismPass])
        assert [(f.rule, f.line) for f in found] == [("unseeded-rng", 2)]

    def test_numpy_legacy_global_flagged(self):
        src = "import numpy as np\nv = np.random.rand(3)\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["unseeded-rng"]

    def test_wallclock_flagged(self):
        src = "import time\nt = time.time()\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["wallclock"]

    def test_wallclock_through_alias(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["wallclock"]

    def test_id_ordering_flagged(self):
        src = "def f(xs):\n    return sorted(xs, key=id)\n"
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["id-ordering"]

    def test_set_iteration_into_output_flagged(self):
        src = ("def f(xs):\n"
               "    out = []\n"
               "    for x in set(xs):\n"
               "        out.append(x)\n"
               "    return out\n")
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["set-iteration"]

    def test_list_of_set_flagged(self):
        src = ("def f(xs):\n"
               "    s = set(xs)\n"
               "    return list(s)\n")
        assert rules_of(findings_for("repro/x.py", src,
                                     [DeterminismPass])) == ["set-iteration"]

    def test_sorted_set_and_membership_clean(self):
        src = ("def f(xs, y):\n"
               "    s = set(xs)\n"
               "    if y in s:\n"
               "        return sorted(s)\n"
               "    total = 0\n"
               "    for x in s:\n"
               "        total += x\n"
               "    return total\n")
        assert findings_for("repro/x.py", src, [DeterminismPass]) == []

    def test_seeded_constructs_clean(self):
        src = ("import random\n"
               "import numpy as np\n"
               "r = random.Random(7)\n"
               "g = np.random.default_rng(0)\n")
        assert findings_for("repro/x.py", src, [DeterminismPass]) == []

    def test_pragma_with_reason_suppresses(self):
        src = ("import time\n"
               "t = time.time()  # repro: nondeterministic-ok "
               "wall time reported to humans only\n")
        assert findings_for("repro/x.py", src, [DeterminismPass]) == []

    def test_bare_pragma_is_itself_a_finding(self):
        src = ("import time\n"
               "t = time.time()  # repro: nondeterministic-ok\n")
        found = findings_for("repro/x.py", src, [DeterminismPass])
        assert sorted(rules_of(found)) == ["bare-pragma", "wallclock"]

    def test_rng_module_allowlisted(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        mod = load_module("repro/common/rng.py", src)
        assert unsuppressed(run_passes([mod], [DeterminismPass()])) == []


# -- charge-category registry ------------------------------------------------


class TestChargeCategoryPass:
    def test_registered_literal_clean(self):
        src = "def f(clock):\n    clock.advance(1.0, \"scan\")\n"
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_misspelled_literal_flagged(self):
        src = "def f(clock):\n    clock.advance(1.0, \"sacn\")\n"
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["unknown-category"]

    def test_registry_constant_clean(self):
        src = ("from repro.common import categories as cat\n"
               "def f(clock):\n"
               "    clock.advance(1.0, cat.SCAN)\n"
               "    clock.advance_batch(0.1, 5, category=cat.FILTER)\n")
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_unresolved_constant_flagged(self):
        src = ("from repro.common import categories as cat\n"
               "def f(clock):\n"
               "    clock.advance(1.0, cat.NO_SUCH_THING)\n")
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["unresolved-category"]

    def test_default_category_clean(self):
        assert findings_for("repro/x.py",
                            "def f(clock):\n    clock.advance(1.0)\n",
                            [ChargeCategoryPass]) == []

    def test_dynamic_category_warned(self):
        src = "def f(clock, which):\n    clock.advance(1.0, which)\n"
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["dynamic-category"]

    def test_advance_charges_literal_tuples_checked(self):
        src = ("def f(clock, n):\n"
               "    clock.advance_charges([(0.1, n, \"scan\"),"
               " (0.2, n, \"flter\")])\n")
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["unknown-category"]

    def test_bare_clock_construction_flagged(self):
        """True positive: a private ``SimClock()`` outside the clock
        module hides its charges from any attached tracer."""
        src = ("from repro.common.simtime import SimClock\n"
               "def f():\n"
               "    clock = SimClock()\n"
               "    clock.advance(1.0, \"scan\")\n"
               "    return clock\n")
        found = findings_for("repro/x.py", src, [ChargeCategoryPass])
        assert rules_of(found) == ["untraced-clock"]

    def test_guarded_default_fallback_clean(self):
        """False-positive guard: the standalone default
        ``clock if clock is not None else SimClock()`` is structurally
        exempt — it only fires when no session clock exists."""
        src = ("from repro.common.simtime import SimClock\n"
               "def f(clock=None):\n"
               "    clock = clock if clock is not None else SimClock()\n"
               "    clock.advance(1.0, \"scan\")\n"
               "    return clock\n")
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_untraced_clock_pragma_suppresses(self):
        src = ("from repro.common.simtime import SimClock\n"
               "def f():\n"
               "    return SimClock()"
               "  # repro: untraced-clock-ok isolated figure harness\n")
        assert findings_for("repro/x.py", src, [ChargeCategoryPass]) == []

    def test_every_literal_in_tree_is_registered(self):
        """Acceptance criterion: all charge-category literals across
        src/repro resolve to the central registry."""
        modules = load_tree(SRC, base=ROOT / "src")
        found = unsuppressed(run_passes(modules, [ChargeCategoryPass()]))
        assert found == [], "\n".join(f.location() + " " + f.message
                                      for f in found)

    def test_registry_is_consistent(self):
        for name, desc in categories.REGISTRY.items():
            assert categories.is_registered(name)
            assert isinstance(desc, str) and desc


OPERATORS_SRC = (SRC / "exec" / "operators.py").read_text(encoding="utf-8")


# -- acceptance-criteria injections against the full lineup ------------------


class TestInjections:
    def test_unseeded_random_in_operators(self):
        injected = (OPERATORS_SRC
                    + "\n\nimport random\n\n"
                      "def _jitter():\n    return random.random()\n")
        found = findings_for("repro/exec/operators.py", injected)
        assert any(f.rule == "unseeded-rng" for f in found)

    def test_misspelled_category_in_operators(self):
        injected = OPERATORS_SRC.replace("cat.SCAN", '"sacn"', 1)
        assert injected != OPERATORS_SRC
        found = findings_for("repro/exec/operators.py", injected)
        assert any(f.rule == "unknown-category" for f in found)


# -- whole-tree gate ---------------------------------------------------------


def test_src_tree_has_no_unsuppressed_findings():
    """The blocking CI gate, asserted in tier-1 too: the tree analyzes
    clean under every pass."""
    modules = load_tree(SRC, base=ROOT / "src")
    found = unsuppressed(run_passes(modules,
                                    [p() for p in ALL_PASSES]))
    assert found == [], "\n".join(
        f"{f.location()}: [{f.rule}] {f.message}" for f in found)
