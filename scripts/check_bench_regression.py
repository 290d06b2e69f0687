#!/usr/bin/env python3
"""CI perf gate: compare a BENCH_*.json result against committed floors.

Reads a benchmark result written through :mod:`benchmarks.bench_utils`
(the uniform schema) and the committed ``benchmarks/baseline.json``,
picks the baseline section matching the result's ``bench`` name, and
fails when the numbers fall below the committed floors:

* ``numpy_exec`` — any kernel's measured speedup drops below
  ``floor * tolerance`` (the tolerance, committed alongside the floors,
  absorbs shared-runner noise so the gate trips on real regressions,
  not scheduler jitter), or the geomean speedup drops below
  ``geomean_floor`` — the acceptance bar, enforced exactly.
* ``pipeline`` — the best fused pipeline's modeled memory-traffic
  reduction drops below ``min_best_reduction_pct``. The traffic model
  is deterministic (no wall clocks involved), so this floor is exact.
* ``partition`` — any row-partitioned merge stops being byte-identical
  to the serial run (``require_merge_exact``) or the blocks lose or
  duplicate nonzeros (``work_inflation`` above ``max_work_inflation``).
  Both invariants are deterministic, so they are enforced exactly; the
  phase wall clocks in the result are printed as context, never gated.

Usage::

    python scripts/check_bench_regression.py BENCH_numpy_exec.json \
        [--baseline benchmarks/baseline.json]
    python scripts/check_bench_regression.py BENCH_pipeline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _check_numpy_exec(metrics: dict, baseline: dict,
                      result_name: str) -> list[str]:
    tolerance = float(baseline.get("tolerance", 1.0))
    failures: list[str] = []

    for kernel, floor in baseline["floors"].items():
        entry = metrics.get(kernel)
        if entry is None:
            failures.append(f"{kernel}: missing from {result_name}")
            continue
        speedup = float(entry["speedup"])
        effective = float(floor) * tolerance
        status = "ok" if speedup >= effective else "REGRESSION"
        print(f"{kernel:12s} {speedup:8.1f}x  floor {floor:6.1f}x "
              f"(x{tolerance} tolerance -> {effective:.1f}x)  {status}")
        if speedup < effective:
            failures.append(
                f"{kernel}: {speedup:.1f}x < {effective:.1f}x "
                f"(floor {floor} * tolerance {tolerance})"
            )

    geomean = float(metrics["geomean_speedup"])
    geomean_floor = float(baseline["geomean_floor"])
    status = "ok" if geomean >= geomean_floor else "REGRESSION"
    print(f"{'geomean':12s} {geomean:8.1f}x  floor {geomean_floor:6.1f}x "
          f"(exact)  {status}")
    if geomean < geomean_floor:
        failures.append(f"geomean: {geomean:.1f}x < {geomean_floor:.1f}x")
    return failures


def _check_pipeline(metrics: dict, baseline: dict,
                    result_name: str) -> list[str]:
    floor = float(baseline["min_best_reduction_pct"])
    failures: list[str] = []
    for name, entry in sorted(metrics.items()):
        if name == "best" or not isinstance(entry, dict):
            continue
        print(f"{name:12s} {float(entry['reduction_pct']):7.2f}% traffic "
              f"saved  ({float(entry['unfused_mib']):.2f} MiB -> "
              f"{float(entry['fused_mib']):.2f} MiB)")
    best = metrics.get("best")
    if best is None:
        return [f"best: missing from {result_name}"]
    reduction = float(best["reduction_pct"])
    status = "ok" if reduction >= floor else "REGRESSION"
    print(f"{'best':12s} {reduction:7.2f}%  floor {floor:.2f}% "
          f"(exact)  {status}")
    if reduction < floor:
        failures.append(f"best reduction: {reduction:.2f}% < {floor:.2f}%")
    return failures


def _check_partition(metrics: dict, baseline: dict,
                     result_name: str) -> list[str]:
    require_exact = bool(baseline.get("require_merge_exact", True))
    max_inflation = float(baseline.get("max_work_inflation", 1.0))
    failures: list[str] = []
    for kernel, entry in sorted(metrics.items()):
        if kernel == "summary" or not isinstance(entry, dict):
            continue
        for key in sorted(k for k in entry if isinstance(entry[k], dict)):
            timed = entry[key]
            exact = bool(timed.get("merge_exact"))
            inflation = float(timed.get("work_inflation", 0.0))
            bad = (require_exact and not exact) or inflation > max_inflation
            status = "REGRESSION" if bad else "ok"
            print(f"{kernel:12s} {key:4s} "
                  f"slice={float(timed['slice_s']) * 1e3:7.1f}ms "
                  f"compute={float(timed['compute_s']) * 1e3:7.1f}ms "
                  f"reduce={float(timed['reduce_s']) * 1e3:7.1f}ms "
                  f"exact={exact} inflation={inflation:.3f}  {status}")
            if require_exact and not exact:
                failures.append(
                    f"{kernel} {key}: merged output is not byte-identical "
                    f"to the serial run")
            if inflation > max_inflation:
                failures.append(
                    f"{kernel} {key}: work inflation {inflation:.3f} > "
                    f"{max_inflation:.3f} (lost or duplicated nonzeros)")
    summary = metrics.get("summary")
    if summary is None:
        return [f"summary: missing from {result_name}"]
    exact_all = bool(summary.get("merge_exact_all"))
    print(f"{'summary':12s} merge_exact_all={exact_all} "
          f"(exact)  {'ok' if exact_all or not require_exact else 'REGRESSION'}")
    if require_exact and not exact_all:
        failures.append("summary: merge_exact_all is false")
    return failures


_CHECKS = {
    "numpy_exec": _check_numpy_exec,
    "pipeline": _check_pipeline,
    "partition": _check_partition,
}


def check(result_path: Path, baseline_path: Path) -> int:
    result = json.loads(result_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    bench = result.get("bench", "numpy_exec")

    section = baseline.get("benches", {}).get(bench)
    if section is None:
        print(f"no baseline section for bench {bench!r} in "
              f"{baseline_path}", file=sys.stderr)
        return 2

    checker = _CHECKS.get(bench)
    if checker is None:
        print(f"no gate registered for bench {bench!r}; known: "
              f"{', '.join(sorted(_CHECKS))}", file=sys.stderr)
        return 2

    failures = checker(result["metrics"], section, result_path.name)
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path,
                        help="BENCH_<name>.json to check")
    parser.add_argument("--baseline", type=Path,
                        default=Path("benchmarks/baseline.json"))
    args = parser.parse_args(argv)
    return check(args.result, args.baseline)


if __name__ == "__main__":
    raise SystemExit(main())
