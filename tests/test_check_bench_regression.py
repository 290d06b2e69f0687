"""The CI perf gate (``scripts/check_bench_regression.py``) exit codes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baseline.json"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", ROOT / "scripts" / "check_bench_regression.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numpy_exec_result(tmp_path: Path, scale_floor: float = 2.0,
                       bench: str = "numpy_exec") -> Path:
    """A result clearing every committed floor by ``scale_floor``x."""
    floors = json.loads(BASELINE.read_text())["benches"]["numpy_exec"]
    metrics = {kernel: {"speedup": floor * scale_floor}
               for kernel, floor in floors["floors"].items()}
    metrics["geomean_speedup"] = floors["geomean_floor"] * scale_floor
    path = tmp_path / "BENCH_numpy_exec.json"
    path.write_text(json.dumps({"bench": bench, "metrics": metrics}))
    return path


def test_passing_result_exits_0(gate, tmp_path):
    assert gate.check(_numpy_exec_result(tmp_path), BASELINE) == 0


def test_per_kernel_floor_miss_exits_1(gate, tmp_path):
    path = _numpy_exec_result(tmp_path)
    result = json.loads(path.read_text())
    result["metrics"]["TTM"]["speedup"] = 0.1
    path.write_text(json.dumps(result))
    assert gate.check(path, BASELINE) == 1


def test_unknown_bench_exits_2(gate, tmp_path):
    path = _numpy_exec_result(tmp_path, bench="no_such_bench")
    assert gate.check(path, BASELINE) == 2


def test_flat_baseline_layout_is_rejected(gate, tmp_path):
    """Only the ``benches`` layout is read; a bare section has no match."""
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(
        json.loads(BASELINE.read_text())["benches"]["numpy_exec"]))
    assert gate.check(_numpy_exec_result(tmp_path), flat) == 2
