"""Self-test of the benchmark: a tiny-input smoke of every workload.

Run from the root of a checkout (it is not part of the tier-1 suite)::

    python -m pytest perfbench -q

Each workload runs untraced and traced on tiny inputs. The test asserts
that every metric ``BENCHMARK.json`` names is printed with its unit, that
no check failed, that the traced ledger adds up to the wall time, and
that a held-out seed yields different inputs that still pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.ledger import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BASELINE_SEED = json.loads(
    (ROOT / "perfbench" / "baseline.json").read_text())["seed"]
HELD_OUT_SEED = BASELINE_SEED + 1000


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT,
        tiny: bool = True) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs_digest(proc: subprocess.CompletedProcess) -> str:
    lines = [line for line in proc.stderr.splitlines() if ": inputs " in line]
    assert len(lines) == 1, proc.stderr[-3000:]
    return lines[0].rsplit(" ", 1)[1]


def test_metric_lists_match_run_py():
    from perfbench.run import END_TO_END, WORKLOADS as names, layer_metrics

    assert WORKLOADS == list(names)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == layer_metrics())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(run(workload, BASELINE_SEED, trace=0))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = out["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_ledger_adds_up_to_the_wall_time(workload):
    out = result(run(workload, BASELINE_SEED, trace=1))
    assert out["failed"] == 0 and out["attempted"] >= 1
    metrics = out["metrics"]
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    selfs = sum(metrics[f"{layer}_s"]["value"] for layer in LAYERS)
    unattributed = metrics["unattributed_s"]["value"]
    wall = metrics["ledger.wall_s"]["value"]
    assert unattributed >= -1e-9
    assert math.isclose(selfs + unattributed, wall, rel_tol=1e-9,
                        abs_tol=1e-9)
    assert metrics["bench.invariant_drift"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_changes_inputs_and_passes(workload):
    base = run(workload, BASELINE_SEED, trace=0)
    held = run(workload, HELD_OUT_SEED, trace=0)
    assert result(held)["failed"] == 0
    assert result(base)["failed"] == 0
    assert inputs_digest(base) != inputs_digest(held)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], BASELINE_SEED, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
