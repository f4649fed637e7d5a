#!/usr/bin/env python3
"""Run the invariant analyzer suite (``repro.analysis``) over source
trees.

Usage::

    python tools/analyze.py [--strict] [--json] [--verbose] [paths...]

* default paths: ``src/repro``
* ``--strict``: exit 1 on any unsuppressed finding (CI mode; warnings
  count — a dynamic charge category needs a pragma or an allowlist
  entry, not a shrug)
* ``--json``: machine-readable full audit, including suppressed
  findings and what suppressed them
* ``--verbose``: include suppressed findings in the human report

The pass lineup is :data:`repro.analysis.ALL_PASSES`: determinism lint
and charge-category registry check.  Pragma
syntax and the rule catalogue are documented in ``docs/analysis.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from _runner import ROOT, bootstrap_src, run_tool

bootstrap_src()

from repro.analysis import (  # noqa: E402  (needs bootstrap_src first)
    ALL_PASSES,
    load_tree,
    render_json,
    run_passes,
    unsuppressed,
)


def analyze(paths: list[str]) -> list:
    """All findings (suppressed included) for the given paths."""
    modules = []
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = ROOT / path
        if not path.exists():
            raise FileNotFoundError(f"no such path: {raw}")
        base = ROOT / "src" if (ROOT / "src") in path.parents \
            or path == ROOT / "src" else None
        modules.extend(load_tree(path, base=base))
    return run_passes(modules, [pass_cls() for pass_cls in ALL_PASSES])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any unsuppressed finding")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="full JSON audit (incl. suppressed)")
    parser.add_argument("--verbose", action="store_true",
                        help="show suppressed findings too")
    args = parser.parse_args(argv)
    paths = args.paths or ["src/repro"]

    if args.as_json:
        findings = analyze(paths)
        print(render_json(findings))
        return 1 if (args.strict and unsuppressed(findings)) else 0

    def check():
        findings = analyze(paths)
        active = unsuppressed(findings)
        errors = [f"{f.location()}: {f.severity}: [{f.rule}] {f.message}"
                  for f in active]
        if args.verbose:
            for finding in findings:
                if finding.suppressed:
                    print(f"{finding.location()}: suppressed "
                          f"[{finding.rule}] by {finding.suppressed_by}")
        n_suppressed = len(findings) - len(active)
        verdict = "FAILED" if (errors and args.strict) else "ok"
        summary = (f"analyze: {len(errors)} finding(s), "
                   f"{n_suppressed} suppressed — {verdict}")
        if args.strict:
            return errors, summary
        # non-strict mode reports the findings but never fails
        for line in errors:
            print(line)
        return [], summary

    return run_tool("analyze", check)


if __name__ == "__main__":
    sys.exit(main())
