"""The per-layer ledger: in-memory spans around the calls into each layer.

A traced run installs :data:`PROBES` — thin wrappers around each layer's
public function — and records one span per call, with its parent, in
memory. Untraced runs install nothing, so they pay no tracing cost. The
spans are written out when the run ends and folded into per-layer
*self-times*: a span's duration minus the time its child spans cover.
Whatever the benchmark's thread spent outside every span is
``unattributed_s``, so the self-times plus ``unattributed_s`` add up to
the traced phase's wall time.

Only the benchmark's own thread is traced. Work inside the ``repro worker``
processes is seen from outside, as the dispatcher's wait.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from pathlib import Path

#: (module, attribute path, layer) for every wrapped public function.
PROBES = (
    ("repro.data.datasets", "load", "data.gen"),
    ("repro.data.datasets", "load_matrix_coo", "data.gen"),
    ("repro.kernels.suite", "KernelSpec.build", "kernels.parse"),
    ("repro.core.lowering", "Lowerer.lower", "core.lower"),
    ("repro.spatial.codegen", "generate", "spatial.codegen"),
    ("repro.core.compiler", "CompiledKernel.run_dense", "spatial.interp"),
    ("repro.backends.numpy_exec", "NumpyExecutor.run", "backends.numpy"),
    ("repro.capstan.stats", "compute_stats", "capstan.stats"),
    ("repro.capstan.resources", "estimate_resources", "capstan.resources"),
    ("repro.capstan.simulator", "CapstanSimulator.simulate",
     "capstan.simulate"),
    ("repro.pipeline.cache", "CompilationCache.get", "pipeline.cache"),
    ("repro.pipeline.cache", "CompilationCache.put", "pipeline.cache"),
    ("repro.pipeline.dispatch", "dispatch", "pipeline.dispatch"),
    ("repro.pipeline.fsqueue", "QueueTransport.prepare", "pipeline.fsqueue"),
    ("repro.pipeline.fsqueue", "QueueTransport.enqueue", "pipeline.fsqueue"),
    ("repro.pipeline.fsqueue", "QueueTransport.collect", "pipeline.fsqueue"),
    ("repro.pipeline.fsqueue", "QueueTransport.withdraw", "pipeline.fsqueue"),
    ("repro.pipeline.fsqueue", "QueueTransport.expired_leases",
     "pipeline.fsqueue"),
    ("repro.pipeline.fsqueue", "QueueTransport.drain", "pipeline.fsqueue"),
    ("repro.pipeline.partition", "partition_cell", "partition.compute"),
    ("repro.pipeline.partition", "serial_report", "partition.compute"),
    ("repro.pipeline.partition", "reduce_partials", "partition.reduce"),
    ("repro.convert", "slice_rows", "convert.slice"),
    ("repro.convert", "convert", "convert.format"),
    ("repro.service.api", "build", "service.api"),
    ("repro.service.api", "exec_check", "service.api"),
    ("repro.service.api", "evaluate", "service.api"),
    ("repro.service.api", "cached", "service.api"),
)

#: Layers the benchmark records itself (not wrappers around repro code).
BENCH_LAYERS = (
    "bench.check",      # comparing outputs against their references
    "bench.yardstick",  # the scipy.sparse yardstick runs
)

#: Every layer of the ledger, in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for _m, _a, layer in PROBES] + list(BENCH_LAYERS)))


class Tracer:
    """Records spans on the installing thread while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [layer, parent index, start, end]
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, layer: str):
        if not self.enabled or threading.get_ident() != self._thread:
            yield
            return
        index = len(self.spans)
        record = [layer, self._stack[-1] if self._stack else None,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, func, layer: str):
        tracer = self

        @functools.wraps(func)
        def probe(*args, **kwargs):
            with tracer.span(layer):
                return func(*args, **kwargs)

        return probe

    def install(self) -> None:
        """Wrap every probe target."""
        for module_name, path, layer in PROBES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Per-layer self-time of the recorded spans, in seconds."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for layer, _parent, start, end in self.spans:
            totals[layer] += end - start
        for _layer, parent, start, end in self.spans:
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for index, (layer, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent,
                                     "layer": layer, "start": start,
                                     "end": end}) + "\n")


#: The benchmark's tracer; a no-op until a traced run enables it.
TRACER = Tracer()


def span(layer: str):
    """A benchmark-side span (``bench.*``)."""
    return TRACER.span(layer)


def measure(unit) -> tuple[dict[str, float], object, object]:
    """Run ``unit(0)`` untraced as a warm-up, ``unit(1)`` with the probes
    in, then ``unit(2)`` untraced again.

    Returns the traced phase's ledger — self-time per layer,
    ``unattributed_s``, ``ledger.wall_s`` and ``trace.overhead_s``
    (traced minus the second untraced phase's wall) — and the return
    values of the traced and the second untraced phase.
    """
    unit(0)
    TRACER.spans.clear()
    TRACER.install()
    TRACER.enabled = True
    start = time.perf_counter()
    try:
        traced = unit(1)
    finally:
        wall_s = time.perf_counter() - start
        TRACER.enabled = False
        TRACER.uninstall()
    start = time.perf_counter()
    untraced = unit(2)
    untraced_s = time.perf_counter() - start
    selfs = TRACER.self_times()
    layers = {f"{layer}_s": value for layer, value in selfs.items()}
    layers["unattributed_s"] = wall_s - sum(selfs.values())
    layers["ledger.wall_s"] = wall_s
    layers["trace.overhead_s"] = wall_s - untraced_s
    return layers, traced, untraced
