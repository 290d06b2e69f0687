"""NumPy execution backend vs the Spatial interpreter (and scipy.sparse).

Measures, per Table 6 kernel on its first dataset, how much faster the
vectorized ``repro.backends.numpy_exec`` engine executes the kernel than
the Spatial interpreter, and — where the kernel maps onto a
``scipy.sparse`` one-liner (SpMV, Residual, MatTransMul) — how it
compares against that external yardstick. Two engine timings are kept:

* ``numpy_s`` — a fresh ``NumpyExecutor(stmt).run()``, the one-shot path
  that builds its structural plan and executes it; ``speedup`` (the
  gated figure) is ``interp_s / numpy_s``.
* ``numpy_exec_s`` — a warm ``CompiledKernel.run_engine("numpy")`` call,
  which reuses the kernel's cached plan and pays only for the execute
  step; ``numpy_vs_scipy`` is ``scipy_s / numpy_exec_s``.

Emits ``BENCH_numpy_exec.json`` through the shared
:mod:`benchmarks.bench_utils` schema; CI's perf job checks the speedups
against the committed ``benchmarks/baseline.json`` floors (see
``scripts/check_bench_regression.py``).

Runs as a pytest suite (enforcing the ≥10x geomean acceptance bar) or
standalone for CI's smoke configuration::

    python -m benchmarks.bench_numpy_exec --scale 0.05
"""

from __future__ import annotations

import time
from statistics import geometric_mean

import numpy as np

#: Measurement scale: small enough for a per-PR smoke run, large enough
#: that interpreter time dominates Python call overhead.
SMOKE_SCALE = 0.05

#: Best-of repetitions for the (fast) numpy and scipy measurements; the
#: interpreter runs once per kernel — it is the slow side being measured.
REPEATS = 3


def _scipy_model(kernel_name: str, kernel):
    """A scipy.sparse thunk equivalent to the kernel, or ``None``.

    Only kernels whose sparse operand is a 2-D matrix with a scipy
    counterpart expression map; the tensor kernels have no scipy
    analogue.
    """
    try:
        import scipy.sparse  # noqa: F401
    except ImportError:  # pragma: no cover - scipy is a baked-in dep
        return None
    tensors = kernel.tensors
    if kernel_name == "SpMV":
        A = tensors["A"].to_scipy()
        x = tensors["x"].to_dense()
        return lambda: A @ x
    if kernel_name == "Residual":
        A = tensors["A"].to_scipy()
        x = tensors["x"].to_dense()
        b = tensors["b"].to_dense()
        return lambda: b - A @ x
    if kernel_name == "MatTransMul":
        A = tensors["A"].to_scipy()
        x = tensors["x"].to_dense()
        z = tensors["z"].to_dense()
        alpha = tensors["alpha"].scalar_value()
        beta = tensors["beta"].scalar_value()
        return lambda: alpha * (A.T @ x) + beta * z
    return None


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def collect_speedups(scale: float = SMOKE_SCALE,
                     repeats: int = REPEATS) -> dict:
    """Per-kernel interpreter/numpy/scipy timings and speedups.

    Returns the metrics dict for ``BENCH_numpy_exec.json``: one entry per
    Table 6 kernel plus a ``geomean_speedup`` summary. Each kernel's
    one-shot numpy result is checked against the interpreter's before
    its timing counts — a wrong fast engine is a failure, not a data
    point.
    """
    from repro.api import CompileRequest, build
    from repro.backends.numpy_exec import NumpyExecutor
    from repro.data.datasets import datasets_for
    from repro.kernels.suite import KERNEL_ORDER

    metrics: dict[str, dict | float] = {}
    speedups = []
    for kernel_name in KERNEL_ORDER:
        dataset = datasets_for(kernel_name)[0].name
        kernel = build(CompileRequest(kernel=kernel_name, dataset=dataset,
                                      scale=scale))
        t0 = time.perf_counter()
        reference = kernel.run_dense()
        interp_s = time.perf_counter() - t0
        numpy_s, got = _best_of(
            lambda: NumpyExecutor(kernel.stmt).run(strict=True), repeats)
        got = np.asarray(got, dtype=np.float64).reshape(reference.shape)
        magnitude = max(1.0, float(np.max(np.abs(reference))))
        if float(np.max(np.abs(got - reference))) > 1e-8 * magnitude:
            raise AssertionError(
                f"numpy engine disagrees with the interpreter on "
                f"{kernel_name}/{dataset}"
            )
        kernel.run_engine("numpy")  # builds the kernel's plan
        numpy_exec_s, _ = _best_of(lambda: kernel.run_engine("numpy"),
                                   repeats)
        entry: dict[str, float | str] = {
            "dataset": dataset,
            "interp_s": interp_s,
            "numpy_s": numpy_s,
            "numpy_exec_s": numpy_exec_s,
            "speedup": interp_s / numpy_s,
        }
        scipy_fn = _scipy_model(kernel_name, kernel)
        if scipy_fn is not None:
            scipy_s, _ = _best_of(scipy_fn, repeats)
            entry["scipy_s"] = scipy_s
            entry["numpy_vs_scipy"] = scipy_s / numpy_exec_s
        metrics[kernel_name] = entry
        speedups.append(entry["speedup"])
    metrics["geomean_speedup"] = geometric_mean(speedups)
    return metrics


def run_smoke(scale: float = SMOKE_SCALE, repeats: int = REPEATS) -> dict:
    """Collect the metrics and write ``BENCH_numpy_exec.json``."""
    from benchmarks.bench_utils import write_bench_json

    metrics = collect_speedups(scale, repeats)
    path = write_bench_json("numpy_exec", metrics, scale=scale,
                            extra={"engine": "numpy"})
    print(f"wrote {path}")
    return metrics


def test_numpy_engine_speedup():
    """Acceptance: ≥10x geomean over the interpreter on Table 6 kernels."""
    metrics = run_smoke()
    for name, entry in metrics.items():
        if isinstance(entry, dict):
            print(f"{name:12s} {entry['speedup']:8.1f}x"
                  + (f"  (vs scipy {entry['numpy_vs_scipy']:.2f}x)"
                     if "numpy_vs_scipy" in entry else ""))
    assert metrics["geomean_speedup"] >= 10.0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="NumPy engine speedup smoke benchmark")
    parser.add_argument("--scale", type=float, default=SMOKE_SCALE)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--min-geomean", type=float, default=10.0,
                        help="fail below this geomean speedup (default 10)")
    args = parser.parse_args(argv)
    metrics = run_smoke(args.scale, args.repeats)
    for name, entry in metrics.items():
        if isinstance(entry, dict):
            scipy_note = (f"  scipy={entry['scipy_s'] * 1e3:7.2f}ms"
                          f" ({entry['numpy_vs_scipy']:.2f}x)"
                          if "scipy_s" in entry else "")
            print(f"{name:12s} interp={entry['interp_s'] * 1e3:8.1f}ms "
                  f"numpy={entry['numpy_s'] * 1e3:7.2f}ms "
                  f"{entry['speedup']:7.1f}x "
                  f"exec={entry['numpy_exec_s'] * 1e3:7.2f}ms{scipy_note}")
    geomean = metrics["geomean_speedup"]
    print(f"geomean speedup: {geomean:.1f}x (floor {args.min_geomean}x)")
    return 0 if geomean >= args.min_geomean else 1


if __name__ == "__main__":
    raise SystemExit(main())
