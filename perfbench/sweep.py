"""The cold, serial, checked Table 6 sweep, measured per layer.

One sweep makes, for all 24 Table 6 cells, the two calls of
``repro.pipeline.batch.evaluate_cell`` with ``engine="numpy"``:
``api.exec_check`` (the NumPy engine checked against the interpreter
oracle) and ``api.evaluate`` (the platform-time predictions), with the
workload seed and a fresh staged cache. A cell whose engine disagrees
with the oracle counts as failed.

The sweep is not a timed workload: its time is almost all pure-Python
interpreter, which swings with the host's load by more than any bound
allows (see ``README.md``). The traced run of ``engine-exec`` makes one
sweep per phase, so the layers only the sweep reaches — the interpreter
oracle, parsing, lowering, the Capstan model, the API and the cache's
writes — keep their per-layer figures and exact invariants.
"""

from __future__ import annotations

import time

from perfbench.common import Context, Outcome, digest, note, tensor_digest

#: A sweep takes about a second on the reference machine; the SDDMM
#: oracle on Trefethen_20000 is its largest cell.
SCALE = 0.003
TINY_SCALE = 0.001


def _cells() -> list[tuple[str, str]]:
    from repro.data.datasets import datasets_for
    from repro.kernels.suite import KERNEL_ORDER

    return [(k, d.name) for k in KERNEL_ORDER for d in datasets_for(k)]


def cache_counters() -> tuple[int, int]:
    """(hits, misses) of this process's staged cache so far."""
    from repro.pipeline.cache import default_cache

    stats = default_cache().stats.as_dict()
    return stats["memory_hits"] + stats["disk_hits"], stats["misses"]


class Sweep:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.scale = TINY_SCALE if ctx.tiny else SCALE
        self.cells = _cells()

    def _request(self, kernel: str, dataset: str, **extra):
        from repro.service import api

        return api.CompileRequest(kernel=kernel, dataset=dataset,
                                  scale=self.scale, seed=self.ctx.seed,
                                  **extra)

    def checked(self, out: Outcome) -> tuple[float, list[float]]:
        """One cold checked sweep: (wall seconds, per-cell seconds)."""
        from repro.service import api

        self.ctx.use_cache_dir("sweep-cache")
        times = []
        start = time.perf_counter()
        for kernel, dataset in self.cells:
            t0 = time.perf_counter()
            ok = True
            try:
                api.exec_check(self._request(kernel, dataset,
                                             engine="numpy"))
                api.evaluate(self._request(kernel, dataset))
            except Exception as exc:  # a failed cell is counted, not fatal
                note(f"{kernel}/{dataset} failed: "
                     f"{type(exc).__name__}: {exc}")
                ok = False
            times.append(time.perf_counter() - t0)
            out.record(ok)
        return time.perf_counter() - start, times

    def inputs(self) -> str:
        """Digest of every cell's operands, from the last sweep's cache."""
        from repro.service import api

        return digest(*(
            tensor_digest({t.name: t for t in api.build(
                self._request(k, d)).analysis.inputs})
            for k, d in self.cells))

    def invariants(self) -> dict[str, float]:
        from repro.service import api

        sim = 0.0
        loc = nnz = 0
        for kernel, dataset in self.cells:
            request = self._request(kernel, dataset)
            built = api.build(request)
            nnz += sum(int(t.nnz) for t in built.analysis.inputs if t.order)
            loc += int(built.spatial_loc)
            sim += sum(api.evaluate(request).seconds.values())
        return {"capstan.sim_seconds_sum": sim, "core.spatial_loc": loc,
                "data.nnz": nnz}
