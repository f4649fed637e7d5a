"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload olap --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: the set-up is built
``SETUP_REPS`` times (its median is ``setup_s``), then the timed phase
runs untraced.  ``--trace 1`` builds once with the layer wrappers of
:mod:`perfbench.tracing` installed, runs the timed phase once untraced
and once traced, and reports the per-layer metrics of the traced phase
with ``bench.tracing_overhead`` (traced over untraced throughput).

Every line but the last is for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, and in traced runs every span, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

# one client and no extra threads: keep numpy's BLAS on the calling thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; the package is not
    installed, so a directory without it cannot run the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: "
                         f"{ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seconds: float) -> tuple[dict, dict]:
    from perfbench import spec
    from perfbench.speed import SpeedReference
    from perfbench.workloads import CtrDrift, summarize

    speed = SpeedReference()
    setups, trains = [], []      # (raw wall s, reading before it)
    for _ in range(spec.SETUP_REPS):
        workload.db = None
        gc.collect()
        ref = speed.read()
        t0 = time.perf_counter()
        workload.build()
        setups.append((time.perf_counter() - t0, ref))
        if isinstance(workload, CtrDrift):
            ref = speed.read()
            trains.append((workload.train(), ref))
    speed.read()
    workload.prepare()
    workload.warmup()
    gc.collect()
    samples = workload.timed_phase(seconds)
    summary = summarize(workload, samples)
    for name, runs in (("setup_s", setups), ("train_s", trains)):
        if runs:
            summary[name] = statistics.median(
                wall * speed.scale(ref) for wall, ref in runs)
            summary[f"raw_{name}"] = statistics.median(w for w, _ in runs)
            summary[f"{name}_runs_raw"] = [w for w, _ in runs]
    summary["setup_speed_readings_ms"] = [round(r * 1e3, 4)
                                          for r in speed.readings]
    metrics = {name: _metric(summary[name], unit)
               for name, (unit, _, _) in spec.END_TO_END.items()}
    return metrics, {"summary": summary, "samples": samples}


def run_traced(workload, seconds: float, seed: int) -> tuple[dict, dict]:
    from perfbench import spec
    from perfbench.tracing import (Instrumentation, PhaseSpans, SpanRecorder,
                                   layer_metrics)
    from perfbench.workloads import CtrDrift

    recorder = SpanRecorder()
    inst = Instrumentation(recorder)
    inst.install()
    try:
        recorder.phase = "setup"
        workload.build()
        if isinstance(workload, CtrDrift):
            recorder.phase = "train"
            workload.train()
    finally:
        inst.uninstall()
    workload.prepare()
    workload.warmup()
    gc.collect()
    untraced = workload.timed_phase(seconds)
    ctr = isinstance(workload, CtrDrift)
    before = workload.serve_counters() if ctr else {}
    gc.collect()
    inst.install()
    try:
        recorder.phase = "timed"
        traced = workload.timed_phase(seconds)
    finally:
        inst.uninstall()
    values = layer_metrics(recorder, dict(traced.categories))
    if ctr:
        values.update(workload.serve_metrics(
            traced, before,
            PhaseSpans(recorder, "timed").seconds("serve.drain")))
    known = set(spec.VIRTUAL_CATEGORIES)
    for category in spec.VIRTUAL_CATEGORIES:
        values[f"virtual.{category}_s"] = traced.categories.get(category, 0.0)
    values["virtual.other_s"] = sum(
        v for c, v in traced.categories.items() if c not in known)
    values["bench.tracing_overhead"] = (
        traced.throughput() / untraced.throughput()
        if untraced.throughput() > 0 else 0.0)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    recorder.dump(str(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"))
    # a layer the workload does not exercise reads 0
    metrics = {name: _metric(float(values.get(name, 0.0)), unit)
               for name, (unit, _, _) in spec.PER_LAYER.items()}
    # failures of both phases count; the ops of both were checked
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.failures = untraced.failures + traced.failures
    return metrics, {"samples": traced,
                     "untraced_throughput_ops": untraced.throughput(),
                     "traced_throughput_ops": traced.throughput(),
                     "spans": len(recorder.spans)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from perfbench import spec
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            metrics, detail = run_traced(workload, args.seconds, args.seed)
        else:
            metrics, detail = run_untraced(workload, args.seconds)
    finally:
        workload.close()
    samples = detail.pop("samples")
    summary = detail.get("summary", {})
    correct = samples.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {samples.attempted} ops attempted, "
          f"{samples.failed} failed")
    for message in samples.failures:
        print(f"  failure: {message}")
    kinds = {**{n: k for n, (_, _, k) in spec.END_TO_END.items()},
             **{n: k for n, (_, k) in spec.WORKLOAD_METRIC_UNITS.items()}}
    units = {n: m["unit"] for n, m in metrics.items()}
    names = list(metrics)
    if not args.trace:
        names += list(spec.WORKLOAD_END_TO_END[args.workload])
        units.update({n: spec.WORKLOAD_METRIC_UNITS.get(n, ("ms",))[0]
                      for n in names if n not in units})
    for name in names:
        value = metrics[name]["value"] if name in metrics else summary[name]
        kind = kinds.get(name, "measured" if not args.trace else "")
        raw = summary.get(f"raw_{name}")
        note = (f" ({kind}, scaled to reference speed; raw {raw:.6g})"
                if raw is not None else f" ({kind})" if kind else "")
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    if summary:
        print(f"  tail = p{summary['tail_percentile']:.4g} over "
              f"{summary['tail_windows']} window(s) of "
              f"{workload.window} ops; {summary['samples']} samples")
    for key, value in detail.items():
        if key != "summary":
            print(f"  {key} = {value}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as out:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metrics": metrics, **detail,
                   "failures": samples.failures}, out, indent=1,
                  default=str)
    print(json.dumps({"correct": correct, "attempted": samples.attempted,
                      "failed": samples.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
