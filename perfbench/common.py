"""Shared plumbing: the run context, statistics, child processes, digests.

Every run is hermetic: it works in a private directory under
``.perfbench/`` in the checkout, points ``REPRO_CACHE_DIR`` at fresh
directories inside it, and removes the caches and queues when it ends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def tail_quantile(n: int, wanted: float) -> float:
    """``wanted``, lowered until at least ten samples lie beyond it."""
    if n <= 20:
        return 0.5
    return min(wanted, 1.0 - 10.0 / n)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    """What one run reports: checked operations plus named metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = dataclasses.field(
        default_factory=dict)
    #: Peak resident set of the system's child processes (the
    #: workers), read just before they stop.
    child_rss_mb: float = 0.0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def as_json(self) -> str:
        return json.dumps({
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def note(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# The run context
# ---------------------------------------------------------------------------


class Context:
    """One run's private directory, knobs and child processes."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.run_dir = STATE / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self._dirs = 0
        self._procs: list[subprocess.Popen] = []
        self._logs: list[Any] = []

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.run_dir / f"{name}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def use_cache_dir(self, name: str) -> Path:
        """Point this process at a new, empty staged cache."""
        from repro.pipeline.cache import default_cache

        path = self.fresh_dir(name)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        default_cache().clear_memory()
        return path

    def child_env(self, cache_dir: Path) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def spawn(self, argv: list[str], cache_dir: Path, log_name: str,
              stdout: int | None = None) -> subprocess.Popen:
        """Start a ``python -m repro`` child; stderr goes to a log file."""
        log = open(self.fresh_dir("log") / f"{log_name}.log", "w+b")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], cwd=ROOT,
            env=self.child_env(cache_dir), stdout=stdout or subprocess.DEVNULL,
            stderr=log)
        proc.log_path = Path(log.name)  # type: ignore[attr-defined]
        self._procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = 30.0,
             grace: float = 0.0) -> None:
        """Wait ``grace`` seconds for a clean exit, then SIGTERM, then
        SIGKILL; always reaped."""
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout)
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        if proc in self._procs:
            self._procs.remove(proc)

    def close(self) -> None:
        for proc in list(self._procs):
            self.stop(proc, timeout=10.0)
        for log in self._logs:
            log.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


def wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError(f"timed out after {timeout:g}s waiting for "
                               f"{what}")
        time.sleep(0.01)


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Input digests and exact invariants
# ---------------------------------------------------------------------------


def digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(part.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def tensor_digest(tensors: dict) -> str:
    """Digest of a kernel's operand data (coordinates and values)."""
    from repro.tensor.storage import unpack

    parts: list[Any] = []
    for name in sorted(tensors):
        coords, vals = unpack(tensors[name].storage)
        parts += [name, coords, vals]
    return digest(*parts)


def check_invariants(ctx: Context, inputs: str,
                     values: dict[str, float]) -> int:
    """Count exact invariants that drifted from an earlier record.

    Compares against the committed baseline (for the baseline seed at
    full size) and against the first run with the same seed in this
    checkout. Any drift is reported on stderr.
    """
    key = f"{ctx.workload}/{ctx.seed}/{'tiny' if ctx.tiny else 'full'}"
    current = {"inputs": inputs, **values}
    records = []
    baseline = json.loads(BASELINE.read_text())
    if ctx.seed == baseline["seed"] and not ctx.tiny:
        records.append(("baseline.json",
                        baseline["workloads"].get(ctx.workload)))
    local_path = STATE / "invariants.json"
    local = json.loads(local_path.read_text()) if local_path.exists() else {}
    records.append(("an earlier run", local.get(key)))
    drift = 0
    for source, record in records:
        if record is None:
            continue
        for name, expected in record.items():
            if current.get(name) != expected:
                drift += 1
                note(f"invariant drift on {ctx.workload} seed {ctx.seed}: "
                     f"{name} = {current.get(name)!r}, {source} has "
                     f"{expected!r}")
    if key not in local:
        local[key] = current
        local_path.write_text(json.dumps(local, indent=1, sort_keys=True))
    return drift
