"""Tables and figures as explicit (kernel, dataset, platform) job lists.

The evaluation harness regenerates every artefact of Section 8 by fanning
out over independent combinations. This module makes that fan-out a
first-class object: :func:`artifact_jobs` returns the job list for one
artefact, :func:`run_artifact` executes it (serially or over a worker
pool) and folds the per-job results into exactly the data structure the
harness's serial loops produce — deterministic ordering guarantees the
two are byte-identical. ``python -m repro batch`` drives this directly.

Each artefact is one :class:`Artifact` record — its job list, result
codec, assembly and renderer — and :func:`get_artifact` is the single
lookup the shard, dispatch, queue and CLI layers go through. Adding an
artefact means adding one record here plus its harness renderer.
"""

from __future__ import annotations

import dataclasses
import time
from statistics import geometric_mean
from typing import Any, Callable

from repro.capstan.resources import ResourceEstimate
from repro.eval import harness
from repro.pipeline import partition
from repro.pipeline.cache import memoize_stage
from repro.pipeline.executor import Job, JobResult, run_jobs
from repro.service.api import PlatformTimes

__all__ = [
    "ARTIFACT_NAMES",
    "Artifact",
    "BatchRun",
    "artifact_jobs",
    "assemble_artifact",
    "format_artifact",
    "get_artifact",
    "record_result_costs",
    "run_artifact",
    "run_batch",
]


# ---------------------------------------------------------------------------
# Per-cell job functions (top-level, so process pools can pickle them)
# ---------------------------------------------------------------------------


def evaluate_cell(kernel_name: str, dataset_name: str, scale: float,
                  use_cache: bool | None = None,
                  engine: str | None = None):
    """One Table 6 cell: all-platform times for one kernel+dataset.

    When ``engine`` is set, the cell first executes the kernel
    functionally with that engine and validates the result against the
    interpreter oracle (:func:`repro.service.api.exec_check`); a
    disagreeing engine fails the job, so engine-selected artefact runs
    genuinely gate execution equivalence. The simulator-predicted times
    themselves are engine-invariant: the request keyed *with* the engine
    carries the check, the engine-less request carries the times, so
    shard manifests stay byte-identical across engines.
    """
    from repro.service import api

    if engine is not None:
        api.exec_check(
            api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                               scale=scale, engine=engine),
            use_cache=use_cache,
        )
    result = api.evaluate(
        api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                           scale=scale),
        use_cache=use_cache,
    )
    return result.platform_times()


def table5_cell(kernel_name: str, scale: float,
                use_cache: bool | None = None):
    """One Table 5 row: the resource estimate for one compiled kernel.

    Memoized under the ``resources`` stage with the same coordinate key
    the Table 6 simulations use, so whichever shard computes a kernel's
    estimate first serves every other artefact that needs it.
    """
    from repro.capstan.resources import estimate_resources
    from repro.service import api

    dataset = api.first_dataset(kernel_name)

    def compute():
        kernel = api.build(
            api.CompileRequest(kernel=kernel_name, dataset=dataset,
                               scale=scale),
            use_cache=use_cache,
        )
        return estimate_resources(kernel)

    return memoize_stage("resources", (kernel_name, dataset, scale, 7),
                         compute, use_cache)


def table3_cell(kernel_name: str, scale: float,
                use_cache: bool | None = None):
    """One Table 3 row: input vs generated lines of code."""
    from repro.eval import paper_results
    from repro.service import api

    def compute():
        # The compile-action request renders exactly this cell's data
        # (and shares its staged entry with `repro compile` and the
        # daemon's /compile endpoint).
        result = api.compile(
            api.CompileRequest(kernel=kernel_name, scale=scale,
                               action="compile"),
            use_cache=use_cache,
        )
        paper_in, paper_sp = paper_results.TABLE3_LOC[kernel_name]
        return {
            "input_loc": result.input_loc,
            "spatial_loc": result.spatial_loc,
            "paper_input_loc": paper_in,
            "paper_spatial_loc": paper_sp,
        }

    return memoize_stage("table3", (kernel_name, scale), compute, use_cache)


def figure12_cell(kernel_name: str, scale: float,
                  use_cache: bool | None = None):
    """One Figure 12 series: the bandwidth sweep for one kernel."""
    from repro.capstan.simulator import CapstanSimulator
    from repro.capstan.stats import compute_stats_cached
    from repro.eval.paper_results import FIG12_BANDWIDTHS
    from repro.service import api

    dataset = api.first_dataset(kernel_name)

    def compute():
        kernel = api.build(
            api.CompileRequest(kernel=kernel_name, dataset=dataset,
                               scale=scale),
            use_cache=use_cache,
        )
        # Shares the per-cell stats entry with the Table 6 simulations.
        stats = compute_stats_cached(kernel, (kernel_name, dataset, scale, 7),
                                     use_cache)
        sweep = CapstanSimulator().sweep_bandwidth(
            kernel, None, FIG12_BANDWIDTHS, stats
        )
        base = sweep[FIG12_BANDWIDTHS[0]].seconds
        return {bw: base / res.seconds for bw, res in sweep.items()}

    return memoize_stage("figure12", (kernel_name, scale), compute, use_cache)


def format_sweep_cell(kernel_name: str, dataset_name: str, scale: float,
                      use_cache: bool | None = None,
                      engine: str | None = None):
    """One format-sweep cell: per-format cost of a kernel on one dataset.

    The kernel's sparse operand is staged once per (dataset, format) by
    the conversion compiler (``repro.convert``), so every cell sharing a
    dataset reuses the same generated matrix and every cell sharing a
    format reuses the converted storage. ``engine`` adds the same
    functional equivalence check as :func:`evaluate_cell`.
    """
    from repro.capstan.dram import HBM2E
    from repro.capstan.resources import estimate_resources_cached
    from repro.capstan.simulator import CapstanSimulator
    from repro.capstan.stats import compute_stats_cached
    from repro.service import api

    if engine is not None:
        api.exec_check(
            api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                               scale=scale, engine=engine),
            use_cache=use_cache,
        )

    def compute():
        coords = (kernel_name, dataset_name, scale, 7)
        kernel = api.build(
            api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                               scale=scale),
            use_cache=use_cache,
        )
        stats = compute_stats_cached(kernel, coords, use_cache)
        resources = estimate_resources_cached(kernel, coords, use_cache)
        seconds = CapstanSimulator().simulate(
            kernel, dram=HBM2E, stats=stats, resources=resources
        ).seconds
        storage = kernel.tensors["A"].storage
        return {
            "format": str(kernel.tensors["A"].format),
            "nnz": int(storage.nnz),
            "storage_bytes": int(storage.bytes_total()),
            "spatial_loc": int(kernel.spatial_loc),
            "pcu": int(resources.pcu),
            "pmu": int(resources.pmu),
            "dram_bytes": int(stats.dram_total_bytes),
            "seconds": float(seconds),
        }

    return memoize_stage("format_sweep", (kernel_name, dataset_name, scale, 7),
                         compute, use_cache)


def pipeline_sweep_cell(pipeline_name: str, dataset_name: str, scale: float,
                        use_cache: bool | None = None,
                        engine: str | None = None):
    """One pipeline-sweep cell: the fused-vs-unfused report for one
    pipeline on one dataset.

    The row itself is computed with the interpreter oracle, so shard
    manifests stay engine-agnostic (the discipline :func:`evaluate_cell`
    set). ``engine`` adds a separate engine-keyed run whose every stage is
    validated cell-by-cell against the oracle inside
    :func:`repro.pipeline.fusion.run_pipeline`.
    """
    from repro.pipeline.fusion import run_pipeline

    if engine is not None and engine != "interp":
        memoize_stage(
            "pipeline", (pipeline_name, dataset_name, scale, 7, engine),
            lambda: run_pipeline(pipeline_name, dataset_name, scale, seed=7,
                                 fuse=True, engine=engine,
                                 use_cache=use_cache)["checksum"],
            use_cache,
        )

    def compute():
        return run_pipeline(pipeline_name, dataset_name, scale, seed=7,
                            fuse=True, engine="interp", use_cache=use_cache)

    return memoize_stage("pipeline", (pipeline_name, dataset_name, scale, 7),
                         compute, use_cache)


# ---------------------------------------------------------------------------
# The artefact registry
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Artifact:
    """Everything the pipeline knows about one artefact.

    ``jobs(scale, use_cache, engine)`` expands it into its deterministic
    (kernel, dataset, platform) job list. ``encode``/``decode`` carry one
    job's result through a JSON shard manifest; JSON writes floats with
    their shortest round-trip repr, so every float survives bit-identically
    — the property the byte-identical merge rests on. ``assemble`` folds
    ordered results into the harness's data structure, ``render`` formats
    it, and ``task_prefix`` names the artefact's queue task files.
    """

    name: str
    jobs: Callable[..., list[Job]]
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    assemble: Callable[[list[JobResult]], Any]
    render: Callable[[Any], str]
    task_prefix: str = "chunk"


# Job lists. Cells are looked up when the list is built, so a cell
# replaced on this module (a test's fault injection) is the one that runs.


def _exec_kwargs(use_cache: bool | None, engine: str | None) -> dict:
    # Leave the kwarg out entirely when unset, so engine-less runs call
    # the cells exactly as they always did.
    if engine is None:
        return {"use_cache": use_cache}
    return {"use_cache": use_cache, "engine": engine}


def _per_kernel_jobs(platform: str, cell, scale: float,
                     use_cache: bool | None) -> list[Job]:
    from repro.kernels.suite import KERNEL_ORDER

    return [Job((kernel, "-", platform), cell, (kernel, scale),
                {"use_cache": use_cache})
            for kernel in KERNEL_ORDER]


def _per_dataset_jobs(kernels, platform: str, cell, scale: float,
                      use_cache: bool | None, engine: str | None) -> list[Job]:
    from repro.data.datasets import datasets_for

    return [Job((kernel, dspec.name, platform), cell,
                (kernel, dspec.name, scale), _exec_kwargs(use_cache, engine))
            for kernel in kernels
            for dspec in datasets_for(kernel)]


def _table3_jobs(scale, use_cache=None, engine=None):
    return _per_kernel_jobs("loc", table3_cell, scale, use_cache)


def _table5_jobs(scale, use_cache=None, engine=None):
    return _per_kernel_jobs("capstan-resources", table5_cell, scale,
                            use_cache)


def _figure12_jobs(scale, use_cache=None, engine=None):
    return _per_kernel_jobs("bandwidth-sweep", figure12_cell, scale,
                            use_cache)


def _table6_jobs(scale, use_cache=None, engine=None):
    from repro.kernels.suite import KERNEL_ORDER

    return _per_dataset_jobs(KERNEL_ORDER, "*", evaluate_cell, scale,
                             use_cache, engine)


def _format_sweep_jobs(scale, use_cache=None, engine=None):
    return _per_dataset_jobs(harness.FORMAT_SWEEP_KERNELS, "format",
                             format_sweep_cell, scale, use_cache, engine)


def _pipeline_sweep_jobs(scale, use_cache=None, engine=None):
    from repro.pipeline.fusion import PIPELINES, PIPELINE_ORDER

    return [Job((name, dataset, "fusion"), pipeline_sweep_cell,
                (name, dataset, scale), _exec_kwargs(use_cache, engine))
            for name in PIPELINE_ORDER
            for dataset in PIPELINES[name].datasets]


# Result codecs (the JSON-safe payload of one job's result).


def _encode_times(value) -> dict:
    return {"kernel": value.kernel, "dataset": value.dataset,
            "seconds": dict(value.seconds)}


def _decode_times(payload):
    return PlatformTimes(payload["kernel"], payload["dataset"],
                         dict(payload["seconds"]))


_RESOURCE_FIELDS = ("kernel", "par", "pcu", "pmu", "mc", "shuffle")


def _encode_resources(value) -> dict:
    return {field: getattr(value, field) for field in _RESOURCE_FIELDS}


def _decode_resources(payload):
    return ResourceEstimate(**{field: payload[field]
                               for field in _RESOURCE_FIELDS})


def _encode_series(value) -> dict:
    # {bandwidth: speedup}; JSON object keys are strings.
    return {str(bw): ratio for bw, ratio in value.items()}


def _decode_series(payload) -> dict:
    return {int(bw) if bw.lstrip("-").isdigit() else float(bw): ratio
            for bw, ratio in payload.items()}


# Assembly: fold ordered job results into the harness data structures.


def _assemble_table6(results: list[JobResult]) -> dict[str, dict[str, float]]:
    from repro.kernels.suite import KERNEL_ORDER

    ratios_by_kernel: dict[str, dict[str, list[float]]] = {}
    for res in results:
        times = res.unwrap()
        ratios = ratios_by_kernel.setdefault(times.kernel, {})
        for platform, value in times.normalised().items():
            ratios.setdefault(platform, []).append(value)
    per_platform: dict[str, dict[str, float]] = {}
    for kernel in KERNEL_ORDER:
        for platform, values in ratios_by_kernel.get(kernel, {}).items():
            per_platform.setdefault(platform, {})[kernel] = (
                geometric_mean(values)
            )
    return per_platform


def _assemble_by_kernel(results: list[JobResult]) -> dict[str, Any]:
    return {res.job.key[0]: res.unwrap() for res in results}


def _assemble_by_cell(results: list[JobResult]) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for res in results:
        kernel, dataset = res.job.key[0], res.job.key[1]
        out.setdefault(kernel, {})[dataset] = res.unwrap()
    return out


_REGISTRY = {record.name: record for record in (
    Artifact("table3", _table3_jobs, dict, dict, _assemble_by_kernel,
             harness.format_table3),
    Artifact("table5", _table5_jobs, _encode_resources, _decode_resources,
             _assemble_by_kernel, harness.format_table5),
    Artifact("table6", _table6_jobs, _encode_times, _decode_times,
             _assemble_table6, harness.format_table6),
    Artifact("figure12", _figure12_jobs, _encode_series, _decode_series,
             _assemble_by_kernel, harness.format_figure12),
    Artifact("format_sweep", _format_sweep_jobs, dict, dict,
             _assemble_by_cell, harness.format_format_sweep),
    Artifact("pipeline_sweep", _pipeline_sweep_jobs, dict, dict,
             _assemble_by_cell, harness.format_pipeline_sweep),
)}

#: Artefacts the batch runner can regenerate (``partition:*`` plans aside).
ARTIFACT_NAMES = tuple(_REGISTRY)


def _partition_record(name: str) -> Artifact:
    """The parametrized record of one ``partition:*`` plan.

    Block partials are JSON-safe dicts already. The partition module's
    functions are looked up on each call rather than captured here, so
    wrappers installed on that module (tracing probes) see every call.
    """
    plan = partition.parse_partition(name)
    return Artifact(
        name, plan.jobs, dict, dict,
        assemble=lambda results: partition.reduce_partials(name, results),
        render=lambda data: partition.format_partition(data),
        task_prefix="part",
    )


def get_artifact(name: str) -> Artifact:
    """The registry record for ``name``.

    Raises ``KeyError`` for an unknown name and
    :class:`~repro.pipeline.partition.PartitionError` for a malformed
    ``partition:<kernel>:<dataset>:p<P>:<mode>`` plan.
    """
    if partition.is_partition_artifact(name):
        return _partition_record(name)
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):
        raise KeyError(f"unknown artefact {name!r}; choose from "
                       f"{ARTIFACT_NAMES} or a partition:* plan") from None


def artifact_jobs(artifact: str, scale: float,
                  use_cache: bool | None = None,
                  engine: str | None = None) -> list[Job]:
    """The (kernel, dataset, platform) job list for one artefact.

    ``engine`` only affects the cells that execute kernels functionally
    (``table6``, ``format_sweep`` and ``pipeline_sweep``); job **keys**
    never include it, so shard manifests stay engine-agnostic and merge
    across engines.
    """
    return get_artifact(artifact).jobs(scale, use_cache, engine)


def assemble_artifact(artifact: str, results: list[JobResult]):
    """Fold ordered job results into the artefact's data structure."""
    return get_artifact(artifact).assemble(results)


def format_artifact(artifact: str, data) -> str:
    """Render an artefact with the harness's formatter."""
    return get_artifact(artifact).render(data)


def record_result_costs(artifact: str, scale: float,
                        results: list[JobResult]) -> int:
    """Record each successful job's observed wall time in the cost table.

    Every run that executes an artefact's jobs — serial ``tables``, a
    ``batch`` invocation, a shard worker — feeds the work-stealing
    planner's persistent cost model (:mod:`repro.pipeline.steal`), so a
    later ``dispatch --steal`` plans from warm data no matter how the
    sweep was last executed. Returns the number of entries written
    (zero when caching is disabled).
    """
    from repro.pipeline.cache import cache_enabled
    from repro.pipeline.steal import record_cost

    if not cache_enabled():
        return 0
    recorded = 0
    for res in results:
        if res.ok:
            record_cost(artifact, scale, res.job.key, res.seconds)
            recorded += 1
    return recorded


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BatchRun:
    """Outcome of one batch invocation (artefacts + execution report)."""

    artifacts: dict[str, Any]
    texts: dict[str, str]
    results: dict[str, list[JobResult]]
    seconds: float

    @property
    def jobs(self) -> int:
        return sum(len(r) for r in self.results.values())

    @property
    def failures(self) -> list[JobResult]:
        return [res for rs in self.results.values() for res in rs if not res.ok]

    def summary(self) -> str:
        failed = len(self.failures)
        status = "ok" if not failed else f"{failed} FAILED"
        return (f"batch: {self.jobs} jobs across "
                f"{len(self.results)} artefact(s) in {self.seconds:.2f}s "
                f"[{status}]")


def run_artifact(
    artifact: str,
    scale: float,
    jobs: int | None = None,
    use_cache: bool | None = None,
    kind: str = "thread",
    engine: str | None = None,
):
    """Regenerate one artefact through the pipeline.

    Returns the same data structure the harness's serial loop produces.
    Raises ``RuntimeError`` (with the captured traceback) if any job
    failed.
    """
    results = run_jobs(artifact_jobs(artifact, scale, use_cache, engine),
                       max_workers=jobs, kind=kind)
    record_result_costs(artifact, scale, results)
    return assemble_artifact(artifact, results)


def run_batch(
    artifacts: list[str],
    scale: float,
    jobs: int | None = None,
    use_cache: bool | None = None,
    kind: str = "thread",
    engine: str | None = None,
) -> BatchRun:
    """Regenerate several artefacts, isolating failures per job.

    Artefacts whose jobs all succeeded are assembled and formatted;
    artefacts with failed jobs are reported in :attr:`BatchRun.failures`
    and omitted from :attr:`BatchRun.artifacts`.
    """
    start = time.perf_counter()
    all_results: dict[str, list[JobResult]] = {}
    assembled: dict[str, Any] = {}
    texts: dict[str, str] = {}
    for artifact in artifacts:
        results = run_jobs(artifact_jobs(artifact, scale, use_cache, engine),
                           max_workers=jobs, kind=kind)
        record_result_costs(artifact, scale, results)
        all_results[artifact] = results
        if all(res.ok for res in results):
            data = assemble_artifact(artifact, results)
            assembled[artifact] = data
            texts[artifact] = format_artifact(artifact, data)
    return BatchRun(assembled, texts, all_results,
                    time.perf_counter() - start)
