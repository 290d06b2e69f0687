"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed amount of the workload three times (untraced
warm-up, traced, untraced) and reports the per-layer ledger instead. The last line of
stdout is the result object; everything else goes to stderr. The exit
code is 0 only when the run completed (failed checks are reported in the
result, not by the exit code).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

WORKLOADS = ("engine-exec", "partition-dispatch")

#: End-to-end metrics every untraced run prints, with their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
}


def layer_metrics() -> dict[str, str]:
    """Per-layer metrics every traced run prints, with their units."""
    from perfbench.engine import kernel_names
    from perfbench.ledger import LAYERS

    names = {f"{layer}_s": "s" for layer in LAYERS}
    names.update({"unattributed_s": "s", "ledger.wall_s": "s",
                  "trace.overhead_s": "s"})
    names.update({f"backends.numpy.{k}_ms": "ms" for k in kernel_names()})
    names.update({
        "backends.numpy.fell_back": "count",
        "backends.numpy.scipy_ratio": "x",
        "pipeline.cache.hits": "count",
        "pipeline.cache.misses": "count",
        "fsqueue.hop_s": "s",
        "dispatch.chunks": "count",
        "dispatch.lease_expired": "count",
        "capstan.sim_seconds_sum": "s",
        "core.spatial_loc": "lines",
        "data.nnz": "count",
        "bench.invariant_drift": "count",
    })
    return names


def _hermetic_environment(run_dir: Path) -> None:
    """Drop inherited ``REPRO_*`` knobs before ``repro`` is imported:
    ``DEFAULT_SCALE`` reads ``REPRO_SCALE`` at import time, and a trace
    dir, engine or no-cache knob would change what is measured."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from perfbench import common, ledger

    ctx = common.Context(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny)
    _hermetic_environment(ctx.run_dir)
    from perfbench import dispatch, engine

    runner = {
        "engine-exec": engine.run,
        "partition-dispatch": dispatch.run,
    }[args.workload]
    started = time.perf_counter()
    try:
        out, layers, inputs, invariants = runner(ctx)
        common.note(f"{args.workload} seed {args.seed}: inputs {inputs}")
        if args.trace:
            layers.update(invariants)
            layers["bench.invariant_drift"] = common.check_invariants(
                ctx, inputs, invariants)
    finally:
        ctx.close()
        if args.trace:
            spans = common.STATE / "spans"
            spans.mkdir(parents=True, exist_ok=True)
            ledger.TRACER.dump(spans / f"{ctx.run_dir.name}.jsonl")
    common.note(f"{args.workload}: {out.attempted} checked, {out.failed} "
                f"failed, {time.perf_counter() - started:.1f}s")
    if args.trace:
        out.metrics.clear()
        for name, unit in layer_metrics().items():
            out.put(name, layers.get(name, 0.0), unit)
    else:
        own_mb = common.peak_rss_mb()
        common.note(f"peak rss: benchmark {own_mb:.1f} MB, children "
                    f"{out.child_rss_mb:.1f} MB")
        out.put("peak_rss_mb", own_mb + out.child_rss_mb, "MB")
        out.metrics = {name: out.metrics[name] for name in END_TO_END}
    print(out.as_json(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
