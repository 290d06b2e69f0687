"""``partition-dispatch``: row-blocked kernels leased over a queue.

Set-up starts two long-lived ``repro worker`` processes on a private
``queue:DIR`` and generates the partitioned matrices. The timed loop
makes ``dispatch(partition:*, transport="queue:DIR", use_cache=False)``
calls; the seed draws the plan order over {SpMV, DCSR-SpMM} × 3 matrix
datasets × P∈{2,4} × {row, sum}. The partition data itself is fixed to
``PARTITION_SEED``, so the seed varies only the plans.

A row-split merge must byte-equal ``serial_report``. A sum-split merge
reassociates the reduction, so it must byte-equal the same plan's blocks
computed and reduced in this process (``reduce_partials`` also checks it
against its independent ``np.add.at`` oracle), and its shape and nnz
lines must equal ``serial_report``'s.
"""

from __future__ import annotations

import importlib
import random
import time

from perfbench import ledger
from perfbench.common import (
    SETUP_REPEATS,
    Context,
    Outcome,
    digest,
    median,
    note,
    peak_rss_mb,
    percentile,
    tail_quantile,
    wait_for,
)

SCALE = 0.1
TINY_SCALE = 0.01
WORKERS = 2
DATASETS = ("bcsstk30", "ckt11752_dc_1", "Trefethen_20000")
PLANS = tuple((kernel, dataset, count, mode)
              for kernel in ("SpMV", "DCSR-SpMM") for dataset in DATASETS
              for count in (2, 4) for mode in ("row", "sum"))

#: Plans per phase of a traced run.
TRACED_PLANS = 8


class Dispatch:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.scale = TINY_SCALE if ctx.tiny else SCALE
        self.rng = random.Random(ctx.seed)
        self.sequence: list[tuple] = []
        self.workers: list = []
        self.queue = None
        self.references: dict[tuple, tuple] = {}

    def plan(self, index: int) -> tuple:
        """The ``index``-th plan: seeded rounds over all 24 plans."""
        while len(self.sequence) <= index:
            order = list(PLANS)
            self.rng.shuffle(order)
            self.sequence += order
        return self.sequence[index]

    def setup(self) -> float:
        """Workers attached, matrices generated, one warm-up dispatch."""
        from repro.data.datasets import load_matrix_coo
        from repro.pipeline.partition import PARTITION_SEED

        self.stop_workers()
        t0 = time.perf_counter()
        cache = self.ctx.use_cache_dir("dispatch-cache")
        self.queue = self.ctx.fresh_dir("queue")
        self.workers = [
            self.ctx.spawn(["worker", str(self.queue), "--poll", "0.05"],
                           cache, f"worker{i}") for i in range(WORKERS)]
        wait_for(lambda: all("attached" in w.log_path.read_text()
                             for w in self.workers), 60.0,
                 "repro worker processes to attach")
        for dataset in DATASETS:
            load_matrix_coo(dataset, self.scale, PARTITION_SEED)
        self.dispatch(PLANS[0])
        return time.perf_counter() - t0

    def stop_workers(self, out: Outcome | None = None) -> None:
        if not self.workers:
            return
        from repro.pipeline.fsqueue import QueueTransport

        if out is not None:
            out.child_rss_mb += sum(peak_rss_mb(w.pid) for w in self.workers)
        QueueTransport(self.queue).shutdown()  # workers drain and exit
        for worker in self.workers:
            self.ctx.stop(worker, grace=10.0)
        self.workers = []

    def dispatch(self, plan: tuple, transport: str | None = None):
        """One dispatch: ``(seconds, result)``."""
        from repro.pipeline.partition import partition_artifact

        # The package re-exports the function under the module's name.
        dispatch_mod = importlib.import_module("repro.pipeline.dispatch")

        t0 = time.perf_counter()
        result = dispatch_mod.dispatch(
            partition_artifact(*plan), self.scale,
            transport or f"queue:{self.queue}", use_cache=False,
            stop_queue=False)
        return time.perf_counter() - t0, result

    def reference(self, plan: tuple) -> tuple[str, list[str]]:
        """The text a merge must equal, and the header lines it must
        share with ``serial_report``."""
        if plan not in self.references:
            from repro.pipeline import partition as part
            from repro.pipeline.executor import run_jobs

            kernel, dataset, count, mode = plan
            serial = part.serial_report(kernel, dataset, self.scale, mode,
                                        use_cache=False)
            text = serial
            if mode == "sum":
                spec = part.PartitionPlan(kernel, dataset, count, mode)
                results = run_jobs(spec.jobs(self.scale, use_cache=False),
                                   max_workers=1)
                text = part.format_partition(
                    part.reduce_partials(spec.artifact, results))
            self.references[plan] = (text, serial.splitlines()[:3])
        return self.references[plan]

    def check(self, plan: tuple, result) -> bool:
        expected, header = self.reference(plan)
        with ledger.span("bench.check"):
            return bool(result.ok and result.merged is not None
                        and result.merged.text == expected
                        and result.merged.text.splitlines()[:3] == header)

    def invariants(self) -> dict[str, float]:
        from repro.data.datasets import load_matrix_coo
        from repro.pipeline.partition import PARTITION_SEED

        return {"data.nnz": sum(
            len(load_matrix_coo(d, self.scale, PARTITION_SEED)[2])
            for d in DATASETS)}


def run(ctx: Context):
    bench = Dispatch(ctx)
    out = Outcome()
    layers: dict[str, float] = {}
    try:
        setups = [bench.setup() for _ in range(1 if ctx.trace
                                               else SETUP_REPEATS)]
        if not ctx.trace:
            done = []
            t0 = time.perf_counter()
            while not done or time.perf_counter() < t0 + ctx.seconds:
                plan = bench.plan(len(done))
                done.append((plan, *bench.dispatch(plan)))
            wall = time.perf_counter() - t0
            bench.stop_workers(out)
            for plan, _seconds, result in done:
                out.record(bench.check(plan, result))
            times = [s for _p, s, _r in done]
            note(f"{len(done)} queue dispatches")
            out.put("setup_s", median(setups), "s")
            out.put("p50_ms", median(times) * 1e3, "ms")
            out.put("tail_ms", percentile(
                times, tail_quantile(len(times), 0.9)) * 1e3, "ms")
            out.put("ops_per_s", len(done) / wall, "1/s")
        else:
            plans = [bench.plan(i) for i in range(4 if ctx.tiny
                                                  else TRACED_PLANS)]

            def phase(_phase):
                """Each plan over the queue and over ``inline:2``, then the
                checks (references recomputed, so the ledger sees them)."""
                bench.references.clear()
                hops, results = [], []
                for plan in plans:
                    queue_s, result = bench.dispatch(plan)
                    inline_s, inline = bench.dispatch(plan, "inline:2")
                    out.record(bench.check(plan, result))
                    out.record(bench.check(plan, inline))
                    hops.append(queue_s - inline_s)
                    results.append(result)
                return hops, results

            layers, (_, results), (hops, _) = ledger.measure(phase)
            layers["fsqueue.hop_s"] = median(hops)
            layers["dispatch.chunks"] = sum(r.chunks for r in results)
            layers["dispatch.lease_expired"] = sum(
                r.attempts - r.chunks for r in results)
            bench.stop_workers(out)
    finally:
        bench.stop_workers()
    inputs = digest([bench.plan(i) for i in range(len(PLANS))])
    return out, layers, inputs, bench.invariants() if ctx.trace else {}
