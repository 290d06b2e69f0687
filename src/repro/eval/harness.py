"""Evaluation harness: regenerates every table and figure of Section 8.

Each ``table*``/``figure*`` function returns plain data structures (and a
formatted text rendering) so the pytest benchmarks can both print the
artefact and assert its qualitative shape against the paper.

All artefacts route through :mod:`repro.pipeline`: the per-combination
work is expressed as (kernel, dataset, platform) jobs that fan out over a
worker pool (``jobs=N``) and memoize through the content-addressed
compilation cache (disable with ``use_cache=False`` or the
``REPRO_NO_CACHE`` environment variable). Parallel runs assemble results
in deterministic job order, so they are byte-identical to serial runs.

Compile-request handling itself lives in :mod:`repro.service.api`:
every cell is a typed :class:`~repro.service.api.CompileRequest` and this
module keeps only the artefact orchestration and formatters.
"""

from __future__ import annotations

from statistics import geometric_mean

from repro.backends.handwritten import handwritten_capstan_loc
from repro.capstan.resources import ResourceEstimate
from repro.data.datasets import datasets_for
from repro.eval import paper_results
from repro.kernels.suite import FORMAT_KERNEL_ORDER, KERNEL_ORDER
from repro.service import api as _api
from repro.service.api import (  # noqa: F401 - back-compat re-exports
    BASELINE_PLATFORM,
    DEFAULT_SCALE,
    PLATFORMS,
    EngineMismatchError,
    PlatformTimes,
    first_dataset,
)
from repro.service.api import CompileRequest
from repro.tensor.tensor import Tensor

#: Names re-exported for callers that still import them from here.
__all__ = [
    "BASELINE_PLATFORM",
    "DEFAULT_SCALE",
    "FORMAT_SWEEP_KERNELS",
    "PLATFORMS",
    "EngineMismatchError",
    "PlatformTimes",
    "exec_check",
    "figure12",
    "figure13",
    "first_dataset",
    "format_figure12",
    "format_format_sweep",
    "format_pipeline_sweep",
    "format_sweep",
    "format_table3",
    "format_table5",
    "format_table6",
    "load_dataset_cached",
    "pipeline_sweep",
    "table3",
    "table5",
    "table6",
]


# ---------------------------------------------------------------------------
# Stage wrappers over repro.service.api
# ---------------------------------------------------------------------------


def load_dataset_cached(kernel_name: str, dataset_name: str, scale: float,
                        seed: int = 7,
                        use_cache: bool | None = None) -> dict[str, Tensor]:
    """Dataset-generation stage (see :func:`repro.service.api.load_dataset`)."""
    return _api.load_dataset(
        CompileRequest(kernel=kernel_name, dataset=dataset_name, scale=scale,
                       seed=seed),
        use_cache=use_cache,
    )


def exec_check(kernel_name: str, dataset_name: str,
               scale: float = DEFAULT_SCALE, engine: str | None = None,
               seed: int = 7, use_cache: bool | None = None) -> dict:
    """Functional-execution stage (see :func:`repro.service.api.exec_check`)."""
    return _api.exec_check(
        CompileRequest(kernel=kernel_name, dataset=dataset_name, scale=scale,
                       seed=seed, engine=engine),
        use_cache=use_cache,
    )


# ---------------------------------------------------------------------------
# Table 6 / Figure 13
# ---------------------------------------------------------------------------


def table6(scale: float = DEFAULT_SCALE, jobs: int | None = None,
           use_cache: bool | None = None,
           engine: str | None = None) -> dict[str, dict[str, float]]:
    """Normalised geomean runtimes per platform per kernel (Table 6).

    ``engine`` selects the functional-execution engine used for the
    per-cell :func:`exec_check`; the simulator-predicted table itself is
    engine-invariant, so every engine yields byte-identical output (or
    the run fails the equivalence check outright).
    """
    from repro.pipeline.batch import run_artifact

    return run_artifact("table6", scale, jobs=jobs, use_cache=use_cache,
                        engine=engine)


def format_table6(results: dict[str, dict[str, float]]) -> str:
    lines = ["Table 6 — runtimes normalised to compiled Capstan (HBM2E), "
             "geomean across datasets"]
    header = f"{'Platform':34s}" + "".join(f"{k:>12s}" for k in KERNEL_ORDER)
    lines.append(header + f"{'gmean':>10s}")
    order = [
        "Capstan (HBM2E, handwritten)",
        "Capstan (Ideal)",
        "Capstan (HBM2E)",
        "Capstan (DDR4)",
        "Plasticine (HBM2E, handwritten)",
        "V100 GPU",
        "128-Thread CPU",
    ]
    for platform in order:
        row = results.get(platform)
        if not row:
            continue
        cells = "".join(
            f"{row[k]:12.2f}" if k in row else f"{'—':>12s}"
            for k in KERNEL_ORDER
        )
        gmean = geometric_mean(list(row.values()))
        lines.append(f"{platform:34s}{cells}{gmean:10.2f}")
        paper_row = paper_results.TABLE6_NORMALISED.get(platform)
        if paper_row:
            cells = "".join(
                f"{paper_row[k]:12.2f}" if k in paper_row else f"{'—':>12s}"
                for k in KERNEL_ORDER
            )
            pg = geometric_mean(list(paper_row.values()))
            lines.append(f"{'  (paper)':34s}{cells}{pg:10.2f}")
    return "\n".join(lines)


def figure13(scale: float = DEFAULT_SCALE, jobs: int | None = None,
             use_cache: bool | None = None,
             engine: str | None = None) -> dict[str, dict[str, float]]:
    """Figure 13 series: Capstan/GPU/CPU normalised runtimes per kernel."""
    full = table6(scale, jobs=jobs, use_cache=use_cache, engine=engine)
    return {
        "Capstan": full["Capstan (HBM2E)"],
        "GPU": full["V100 GPU"],
        "CPU": full["128-Thread CPU"],
    }


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------


def table5(scale: float = 0.05, jobs: int | None = None,
           use_cache: bool | None = None) -> dict[str, ResourceEstimate]:
    """Resource estimates per kernel (Table 5).

    Resources are structural (dataset-independent), so a tiny dataset
    suffices to build each kernel.
    """
    from repro.pipeline.batch import run_artifact

    return run_artifact("table5", scale, jobs=jobs, use_cache=use_cache)


def format_table5(results: dict[str, ResourceEstimate]) -> str:
    lines = ["Table 5 — Capstan resources per compiled kernel "
             "(measured | paper)"]
    for kernel_name in KERNEL_ORDER:
        est = results[kernel_name]
        p_par, p_pcu, p_pmu, p_mc, p_shuf, p_lim = (
            paper_results.TABLE5_RESOURCES[kernel_name]
        )
        lines.append(est.row())
        lines.append(
            f"{'  (paper)':12s} par={p_par:3d}  PCU={p_pcu:4d} ({p_pcu / 2:5.1f}%)  "
            f"PMU={p_pmu:4d} ({p_pmu / 2:5.1f}%)  MC={p_mc:4d} "
            f"({p_mc / 0.8:5.1f}%)  Shuf={p_shuf:4d} ({p_shuf / 0.16:5.1f}%)  "
            f"limit={','.join(p_lim)}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 3 (+ Section 8.3 LoC study)
# ---------------------------------------------------------------------------


def table3(scale: float = 0.05, jobs: int | None = None,
           use_cache: bool | None = None) -> dict[str, dict[str, int]]:
    """Lines-of-code comparison per kernel (Table 3)."""
    from repro.pipeline.batch import run_artifact

    return run_artifact("table3", scale, jobs=jobs, use_cache=use_cache)


def format_table3(rows: dict[str, dict[str, int]]) -> str:
    lines = ["Table 3 — lines of code (measured | paper)"]
    lines.append(f"{'Kernel':14s}{'input':>8s}{'spatial':>9s}"
                 f"{'p.input':>9s}{'p.spatial':>10s}")
    for kernel_name in KERNEL_ORDER:
        r = rows[kernel_name]
        lines.append(
            f"{kernel_name:14s}{r['input_loc']:8d}{r['spatial_loc']:9d}"
            f"{r['paper_input_loc']:9d}{r['paper_spatial_loc']:10d}"
        )
    hand = handwritten_capstan_loc()
    spmv_in = rows["SpMV"]["input_loc"]
    lines.append(
        f"SpMV productivity: {spmv_in} input lines vs {hand} handwritten "
        f"Spatial lines ({100 * (1 - spmv_in / hand):.0f}% decrease; paper: "
        f"10 vs {paper_results.HANDWRITTEN_SPMV_LOC}, 76%)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 12
# ---------------------------------------------------------------------------


def figure12(scale: float = DEFAULT_SCALE, jobs: int | None = None,
             use_cache: bool | None = None) -> dict[str, dict[float, float]]:
    """DRAM bandwidth sensitivity: speedup over the 20 GB/s point."""
    from repro.pipeline.batch import run_artifact

    return run_artifact("figure12", scale, jobs=jobs, use_cache=use_cache)


def format_figure12(series: dict[str, dict[float, float]]) -> str:
    lines = ["Figure 12 — speedup vs DRAM bandwidth (relative to 20 GB/s)"]
    bws = paper_results.FIG12_BANDWIDTHS
    lines.append(f"{'Kernel':14s}" + "".join(f"{bw:>9d}" for bw in bws))
    for kernel_name, points in series.items():
        lines.append(
            f"{kernel_name:14s}"
            + "".join(f"{points[bw]:9.2f}" for bw in bws)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Format sweep (singleton/COO, DCSR, and blocked formats)
# ---------------------------------------------------------------------------

#: The format-sweep kernel set: the CSR SpMV baseline plus the COO, DCSR,
#: and BCSR workloads enabled by the format abstraction subsystem.
FORMAT_SWEEP_KERNELS = ("SpMV",) + FORMAT_KERNEL_ORDER


def format_sweep(scale: float = DEFAULT_SCALE, jobs: int | None = None,
                 use_cache: bool | None = None,
                 engine: str | None = None) -> dict[str, dict[str, dict]]:
    """Per-format kernel cost over the matrix datasets.

    Each cell compiles one format-sweep kernel on one dataset (the sparse
    operand stages once per (dataset, format) through ``repro.convert``)
    and reports storage footprint, generated-code size, Capstan resources,
    DRAM traffic, and predicted HBM2E runtime.
    """
    from repro.pipeline.batch import run_artifact

    return run_artifact("format_sweep", scale, jobs=jobs, use_cache=use_cache,
                        engine=engine)


def format_format_sweep(results: dict[str, dict[str, dict]]) -> str:
    lines = ["Format sweep — per-format kernel cost on Capstan (HBM2E)"]
    lines.append(
        f"{'Kernel':12s}{'Dataset':18s}{'nnz':>10s}{'KiB':>9s}"
        f"{'LoC':>6s}{'PCU':>6s}{'PMU':>6s}{'DRAM MiB':>10s}{'us':>12s}"
    )
    for kernel_name in FORMAT_SWEEP_KERNELS:
        rows = results.get(kernel_name, {})
        for dspec in datasets_for(kernel_name):
            cell = rows.get(dspec.name)
            if cell is None:
                continue
            lines.append(
                f"{kernel_name:12s}{dspec.name:18s}{cell['nnz']:10d}"
                f"{cell['storage_bytes'] / 1024:9.1f}"
                f"{cell['spatial_loc']:6d}{cell['pcu']:6d}{cell['pmu']:6d}"
                f"{cell['dram_bytes'] / (1024 * 1024):10.2f}"
                f"{cell['seconds'] * 1e6:12.2f}"
            )
    return "\n".join(lines)


def pipeline_sweep(scale: float = DEFAULT_SCALE, jobs: int | None = None,
                   use_cache: bool | None = None,
                   engine: str | None = None) -> dict[str, dict[str, dict]]:
    """Fused multi-kernel pipelines over the matrix datasets.

    Each cell plans and executes one expression pipeline (FuseFlow-style
    cross-expression fusion with automatic cuts) and reports the cut
    decisions plus the modeled memory traffic with and without fusion.
    """
    from repro.pipeline.batch import run_artifact

    return run_artifact("pipeline_sweep", scale, jobs=jobs,
                        use_cache=use_cache, engine=engine)


def format_pipeline_sweep(results: dict[str, dict[str, dict]]) -> str:
    from repro.pipeline.fusion import PIPELINE_ORDER, PIPELINES

    lines = ["Pipeline sweep — fused expression pipelines (FuseFlow cuts)"]
    lines.append(
        f"{'Pipeline':12s}{'Dataset':18s}{'Conn':>6s}{'Streams':>9s}"
        f"{'Unfused KiB':>13s}{'Fused KiB':>11s}{'Saved':>8s}  Cut reasons"
    )
    for name in PIPELINE_ORDER:
        rows = results.get(name, {})
        for dataset in PIPELINES[name].datasets:
            cell = rows.get(dataset)
            if cell is None:
                continue
            decisions = cell["decisions"]
            streams = sum(1 for d in decisions if d["streamed"])
            cuts = "; ".join(
                d["reason"].split("(")[0].split(":")[0].strip()
                for d in decisions if not d["streamed"]
            ) or "-"
            lines.append(
                f"{name:12s}{dataset:18s}{len(decisions):6d}{streams:9d}"
                f"{cell['unfused_bytes'] / 1024:13.1f}"
                f"{cell['fused_bytes'] / 1024:11.1f}"
                f"{cell['reduction_pct']:7.1f}%  {cuts}"
            )
    return "\n".join(lines)
