"""The typed compile-request API: one entry point for every caller.

Historically each caller reached into ``eval/harness.py`` through
positional ``(kernel_name, dataset_name, scale, ...)`` functions, which
made a serving layer impossible: there was no request object to put on
the wire, no canonical form to key a cache on, and no single result type
to compare across execution paths. This module is that entry point now:

* :class:`CompileRequest` — a frozen dataclass naming *what* to do
  (``action``: compile or evaluate) and *on what* (kernel, dataset,
  scale, seed, platform filter, execution engine). Its
  :meth:`~CompileRequest.canonical_json` form — defaults resolved, keys
  sorted, compact separators — **is** the cache-key derivation: the
  staged result entry is keyed on exactly that string, so the CLI, the
  batch runner, a dispatch worker, and the ``repro serve`` daemon all
  hit the same entry for the same request no matter how it was spelled.
* :class:`CompileResult` — the matching result dataclass with a
  deterministic :meth:`~CompileResult.to_json` rendering (sorted keys,
  no volatile fields), so a daemon response is byte-identical to a
  serial :func:`evaluate` of the same request.
* :func:`build` / :func:`compile` / :func:`evaluate` /
  :func:`execute` — the verbs, each memoized through the staged cache
  (:mod:`repro.pipeline.cache`); :func:`cached` peeks for a finished
  result without computing (the daemon's hot path).

The artefact orchestration (tables/figures) lives in
``eval/harness.py`` and ``pipeline/batch.py``, expressed on top of this
module.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any

from repro.core.compiler import ENGINES
from repro.obs import trace as _trace

__all__ = [
    "ACTIONS",
    "BASELINE_PLATFORM",
    "CompileRequest",
    "CompileResult",
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "EngineMismatchError",
    "PLATFORMS",
    "PlatformTimes",
    "build",
    "cached",
    "compile",
    "evaluate",
    "exec_check",
    "execute",
    "first_dataset",
    "load_dataset",
    "partition",
    "pipeline",
]

#: Default dataset scale; override with REPRO_SCALE (1.0 = full Table 4).
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))

#: Default dataset-generation seed (the Table 4 synthetic datasets).
DEFAULT_SEED = 7

#: Request verbs: ``compile`` renders the kernel (source, LoC, memory
#: plan); ``evaluate`` predicts per-platform runtimes (Table 6 cells);
#: ``pipeline`` plans and runs a fused expression pipeline (the
#: ``kernel`` field carries the pipeline name); ``partition`` row-blocks
#: one kernel into ``partition`` sub-kernels and reduces the partials
#: (SpDISTAL-style single-kernel distribution).
ACTIONS = ("compile", "evaluate", "pipeline", "partition")

PLATFORMS = (
    "Capstan (Ideal)",
    "Capstan (HBM2E)",
    "Capstan (DDR4)",
    "V100 GPU",
    "128-Thread CPU",
)

#: The normalisation baseline of Table 6 / Figure 13.
BASELINE_PLATFORM = "Capstan (HBM2E)"


def first_dataset(kernel_name: str) -> str:
    """The kernel's first Table 4 dataset (used for structural artefacts)."""
    from repro.data.datasets import datasets_for

    return datasets_for(kernel_name)[0].name


class EngineMismatchError(AssertionError):
    """A functional execution engine disagreed with the interpreter oracle."""


# ---------------------------------------------------------------------------
# The request
# ---------------------------------------------------------------------------

_REQUEST_FIELDS = ("action", "kernel", "dataset", "scale", "seed",
                   "platforms", "engine", "fuse", "partition", "split")


@dataclasses.dataclass(frozen=True)
class CompileRequest:
    """One unit of compiler work, in canonical, wire-ready form.

    ``dataset=None`` and ``scale=None`` resolve to the kernel's first
    Table 4 dataset and :data:`DEFAULT_SCALE`; ``platforms`` restricts
    an evaluate to those platform names; ``engine`` (one of
    :data:`~repro.core.compiler.ENGINES`) additionally executes the
    kernel functionally and validates it against the interpreter oracle.
    Two requests with the same :meth:`canonical_json` are the same work
    and share one staged-cache entry.
    """

    kernel: str
    dataset: str | None = None
    scale: float | None = None
    seed: int = DEFAULT_SEED
    platforms: tuple[str, ...] | None = None
    engine: str | None = None
    action: str = "evaluate"
    fuse: bool = True
    partition: int = 1
    split: str = "row"

    def resolved(self) -> CompileRequest:
        """Defaults filled in and every field validated.

        Raises ``ValueError`` for an unknown action, kernel, dataset, or
        engine, and for a non-positive scale. Platform names are checked
        later, against the evaluated kernel's model set (SpMV has extra
        handwritten baselines).
        """
        from repro.data.datasets import datasets_for
        from repro.kernels.suite import KERNELS

        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; choose from {ACTIONS}")
        if self.action == "pipeline":
            return self._resolved_pipeline()
        if self.action == "partition":
            return self._resolved_partition()
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from "
                f"{sorted(KERNELS)}")
        specs = datasets_for(self.kernel)
        dataset = self.dataset if self.dataset is not None else specs[0].name
        if dataset not in {d.name for d in specs}:
            raise ValueError(
                f"unknown dataset {dataset!r} for {self.kernel}; choose "
                f"from {[d.name for d in specs]}")
        scale = DEFAULT_SCALE if self.scale is None else float(self.scale)
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}")
        platforms = self.platforms
        if platforms is not None:
            platforms = tuple(str(p) for p in platforms)
        # A compile renders the kernel only: platform filters and engine
        # checks do not change its result, so canonicalise them away —
        # every spelling of "compile SpMV on bcsstk30" shares one entry.
        if self.action == "compile":
            platforms = None
        engine = None if self.action == "compile" else self.engine
        return dataclasses.replace(self, dataset=dataset, scale=scale,
                                   seed=int(self.seed), platforms=platforms,
                                   engine=engine, fuse=True)

    def _resolved_pipeline(self) -> CompileRequest:
        """Resolution for pipeline requests: ``kernel`` names a pipeline
        from the :data:`repro.pipeline.fusion.PIPELINES` registry and the
        dataset comes from the pipeline's own evaluation set."""
        from repro.pipeline.fusion import PIPELINES

        spec = PIPELINES.get(self.kernel)
        if spec is None:
            raise ValueError(
                f"unknown pipeline {self.kernel!r}; choose from "
                f"{sorted(PIPELINES)}")
        dataset = self.dataset if self.dataset is not None else spec.datasets[0]
        if dataset not in spec.datasets:
            raise ValueError(
                f"unknown dataset {dataset!r} for pipeline {self.kernel}; "
                f"choose from {list(spec.datasets)}")
        scale = DEFAULT_SCALE if self.scale is None else float(self.scale)
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}")
        return dataclasses.replace(self, dataset=dataset, scale=scale,
                                   seed=int(self.seed), platforms=None,
                                   fuse=bool(self.fuse))

    def _resolved_partition(self) -> CompileRequest:
        """Resolution for partition requests: the kernel must be
        row-partitionable and the dataset one of its matrix datasets;
        ``partition`` is the block count and ``split`` the iteration-
        space dimension (``row`` or ``sum``)."""
        from repro.data.datasets import datasets_for
        from repro.pipeline.partition import PARTITION_FORMATS, PARTITION_MODES

        if self.kernel not in PARTITION_FORMATS:
            raise ValueError(
                f"kernel {self.kernel!r} is not partitionable; choose from "
                f"{sorted(PARTITION_FORMATS)}")
        specs = datasets_for(self.kernel)
        dataset = self.dataset if self.dataset is not None else specs[0].name
        if dataset not in {d.name for d in specs}:
            raise ValueError(
                f"unknown dataset {dataset!r} for {self.kernel}; choose "
                f"from {[d.name for d in specs]}")
        scale = DEFAULT_SCALE if self.scale is None else float(self.scale)
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        try:
            count = int(self.partition)
        except (TypeError, ValueError):
            raise ValueError("'partition' must be an integer") from None
        if count < 1:
            raise ValueError(f"partition count must be >= 1, got {count}")
        if self.split not in PARTITION_MODES:
            raise ValueError(
                f"unknown split {self.split!r}; choose from "
                f"{PARTITION_MODES}")
        if int(self.seed) != DEFAULT_SEED:
            raise ValueError(
                f"partition requests run on the fixed evaluation seed "
                f"{DEFAULT_SEED}, got {self.seed}")
        # The block product is its own vectorized path: engine and
        # platform filters do not change its result, so canonicalise
        # them away like compile does.
        return dataclasses.replace(self, dataset=dataset, scale=scale,
                                   seed=DEFAULT_SEED, platforms=None,
                                   engine=None, fuse=True,
                                   partition=count)

    def canonical(self) -> dict[str, Any]:
        """The defaults-resolved request as a plain JSON-able dict."""
        r = self.resolved()
        out = {
            "action": r.action,
            "kernel": r.kernel,
            "dataset": r.dataset,
            "scale": r.scale,
            "seed": r.seed,
            "platforms": list(r.platforms) if r.platforms is not None else None,
            "engine": r.engine,
        }
        # Only pipeline requests carry a fuse flag on the wire, and only
        # partition requests carry a block count and split, so the
        # canonical form (and hence every cache key) of the other
        # actions is byte-identical to what it was before each feature.
        if r.action == "pipeline":
            out["fuse"] = r.fuse
        if r.action == "partition":
            out["partition"] = r.partition
            out["split"] = r.split
        return out

    def canonical_json(self) -> str:
        """The canonical wire form — and the cache-key derivation.

        Sorted keys and compact separators make this byte-stable across
        processes; :func:`evaluate`/:func:`compile` key their staged
        result entry on exactly this string.
        """
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def stage(self) -> str:
        """The cache stage the request's result is memoized under."""
        if self.action == "pipeline":
            return "pipeline"
        if self.action == "partition":
            return "partition"
        return "evaluate" if self.action == "evaluate" else "compile"

    @classmethod
    def from_dict(cls, data: Any) -> CompileRequest:
        """Parse a wire dict, rejecting unknown fields (typed API)."""
        if not isinstance(data, dict):
            raise ValueError("request must be a JSON object")
        unknown = sorted(set(data) - set(_REQUEST_FIELDS))
        if unknown:
            raise ValueError(f"unknown request field(s) {unknown}; "
                             f"expected {sorted(_REQUEST_FIELDS)}")
        if "kernel" not in data or not data["kernel"]:
            raise ValueError("request needs a 'kernel'")
        platforms = data.get("platforms")
        if platforms is not None:
            if isinstance(platforms, str):
                raise ValueError("'platforms' must be a list of names")
            platforms = tuple(str(p) for p in platforms)
        scale = data.get("scale")
        seed = data.get("seed", DEFAULT_SEED)
        try:
            scale = float(scale) if scale is not None else None
            seed = int(seed)
        except (TypeError, ValueError):
            raise ValueError("'scale' must be a number and 'seed' an "
                             "integer") from None
        fuse = data.get("fuse", True)
        if not isinstance(fuse, bool):
            raise ValueError("'fuse' must be a boolean")
        partition = data.get("partition", 1)
        if isinstance(partition, bool) or not isinstance(partition, int):
            raise ValueError("'partition' must be an integer block count")
        split = data.get("split", "row")
        if not isinstance(split, str):
            raise ValueError("'split' must be a string")
        return cls(
            kernel=str(data["kernel"]),
            dataset=(str(data["dataset"])
                     if data.get("dataset") is not None else None),
            scale=scale,
            seed=seed,
            platforms=platforms,
            engine=(str(data["engine"])
                    if data.get("engine") is not None else None),
            action=str(data.get("action", "evaluate")),
            fuse=fuse,
            partition=partition,
            split=split,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> CompileRequest:
        try:
            data = json.loads(text or "{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"request is not valid JSON: {exc}") from None
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# The result
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PlatformTimes:
    """Predicted seconds per platform for one kernel+dataset."""

    kernel: str
    dataset: str
    seconds: dict[str, float]

    def normalised(self) -> dict[str, float]:
        base = self.seconds[BASELINE_PLATFORM]
        return {p: s / base for p, s in self.seconds.items()}


@dataclasses.dataclass(frozen=True)
class CompileResult:
    """The result of one :class:`CompileRequest`, wire-ready.

    Evaluate requests fill ``seconds`` (and ``exec_summary`` when an
    engine check ran); compile requests fill ``source`` /
    ``spatial_loc`` / ``input_loc`` / ``memory_report``.
    :meth:`to_json` is deterministic — sorted keys, no timestamps — so
    any two paths that computed the same request (serial call, batch
    cell, daemon response, queue worker) render identical bytes.
    """

    request: CompileRequest
    seconds: dict[str, float] | None = None
    exec_summary: dict[str, Any] | None = None
    source: str | None = None
    spatial_loc: int | None = None
    input_loc: int | None = None
    memory_report: str | None = None
    pipeline: dict[str, Any] | None = None
    partition: dict[str, Any] | None = None

    def platform_times(self) -> PlatformTimes:
        """The evaluate payload as the harness's :class:`PlatformTimes`."""
        if self.seconds is None:
            raise ValueError(f"no platform times on a "
                             f"{self.request.action!r} result")
        return PlatformTimes(self.request.kernel, self.request.dataset,
                             dict(self.seconds))

    def to_dict(self) -> dict[str, Any]:
        return {
            "request": self.request.canonical(),
            "seconds": dict(self.seconds) if self.seconds is not None else None,
            "exec": (dict(self.exec_summary)
                     if self.exec_summary is not None else None),
            "source": self.source,
            "spatial_loc": self.spatial_loc,
            "input_loc": self.input_loc,
            "memory_report": self.memory_report,
            "pipeline": (dict(self.pipeline)
                         if self.pipeline is not None else None),
            "partition": (dict(self.partition)
                          if self.partition is not None else None),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> CompileResult:
        if not isinstance(data, dict) or "request" not in data:
            raise ValueError("not a CompileResult payload")
        return cls(
            request=CompileRequest.from_dict(data["request"]),
            seconds=data.get("seconds"),
            exec_summary=data.get("exec"),
            source=data.get("source"),
            spatial_loc=data.get("spatial_loc"),
            input_loc=data.get("input_loc"),
            memory_report=data.get("memory_report"),
            pipeline=data.get("pipeline"),
            partition=data.get("partition"),
        )


# ---------------------------------------------------------------------------
# The verbs
# ---------------------------------------------------------------------------


def load_dataset(request: CompileRequest,
                 use_cache: bool | None = None) -> dict:
    """Dataset-generation **stage**: the kernel's packed operand tensors.

    Generating and packing the synthetic Table 4 datasets dominates cold
    build time but involves no compiler code, so this stage is keyed by a
    hash of only the data/format/tensor sources and — uniquely — stays
    warm under ``--no-cache``: a forced recompile reuses the generated
    datasets while every later stage recomputes.
    """
    from repro.data.datasets import load
    from repro.pipeline.cache import memoize_stage

    req = request.resolved()
    return memoize_stage(
        "dataset", (req.kernel, req.dataset, req.scale, req.seed),
        lambda: load(req.kernel, req.dataset, scale=req.scale, seed=req.seed),
        use_cache,
    )


def build(request: CompileRequest, use_cache: bool | None = None):
    """Materialise the dataset and compile the kernel, staged.

    Three separately-keyed cache stages compose: the ``dataset`` stage
    survives ``--no-cache`` and compiler edits, the ``kernel`` stage is
    memoized by statement fingerprint inside ``compile_stmt``, and the
    whole build is memoized under the ``build`` stage on the evaluation
    coordinates — a warm hit skips even statement construction.
    Returns the :class:`~repro.core.compiler.CompiledKernel`.
    """
    from repro.core.compiler import compile_stmt
    from repro.kernels.suite import KERNELS
    from repro.pipeline.cache import memoize_stage

    req = request.resolved()

    def compute():
        spec = KERNELS[req.kernel]
        tensors = load_dataset(req, use_cache=use_cache)
        with _trace.span("parse", kernel=req.kernel, dataset=req.dataset):
            stmt, _out = spec.build(tensors)
        return compile_stmt(stmt, req.kernel, cache=use_cache)

    return memoize_stage(
        "build", (req.kernel, req.dataset, req.scale, req.seed),
        compute, use_cache,
    )


def _platform_models(kernel, stats, sim, resources) -> dict[str, Any]:
    """Per-platform runtime predictors (lazily evaluated thunks)."""
    from repro.backends.cpu import CpuBackend
    from repro.backends.gpu import GpuBackend
    from repro.backends.handwritten import (
        HandwrittenCapstanSpMV,
        HandwrittenPlasticineSpMV,
    )
    from repro.capstan.dram import DDR4, HBM2E, IDEAL

    models = {
        "Capstan (Ideal)": lambda: sim.simulate(
            kernel, dram=IDEAL, stats=stats, resources=resources).seconds,
        "Capstan (HBM2E)": lambda: sim.simulate(
            kernel, dram=HBM2E, stats=stats, resources=resources).seconds,
        "Capstan (DDR4)": lambda: sim.simulate(
            kernel, dram=DDR4, stats=stats, resources=resources).seconds,
        "V100 GPU": lambda: GpuBackend().predict_seconds(kernel, stats),
        "128-Thread CPU": lambda: CpuBackend().predict_seconds(kernel, stats),
    }
    if kernel.name == "SpMV":
        models["Capstan (HBM2E, handwritten)"] = (
            lambda: HandwrittenCapstanSpMV().predict_seconds(stats, HBM2E)
        )
        models["Plasticine (HBM2E, handwritten)"] = (
            lambda: HandwrittenPlasticineSpMV().predict_seconds(stats, HBM2E)
        )
    return models


def exec_check(request: CompileRequest,
               use_cache: bool | None = None) -> dict[str, Any]:
    """Functional-execution **stage**: run one cell with the request's engine.

    Executes the kernel's statement with the selected engine and checks
    the dense result against the Spatial interpreter
    (``CompiledKernel.run_dense`` — the oracle: it executes the lowered
    program and handles every format, and unlike the dense broadcast
    reference it never materializes the full iteration-space product,
    which is intractable at sweep scales for contractions like SDDMM).
    Raises :class:`EngineMismatchError` on disagreement — so an artefact
    job that embeds this check genuinely gates engine equivalence. Keyed
    by the evaluation coordinates **plus the engine name** (the ``exec``
    cache stage), so results for different engines never collide. For
    ``engine="interp"`` the check is the oracle run itself.
    """
    from repro.core.compiler import default_engine
    from repro.pipeline.cache import memoize_stage

    req = request.resolved()
    engine = req.engine if req.engine is not None else default_engine()

    def compute() -> dict:
        import numpy as np

        kernel = build(req, use_cache=use_cache)
        with _trace.span("interp", kernel=req.kernel, dataset=req.dataset):
            expected = np.asarray(kernel.run_dense(), dtype=np.float64)
        fell_back = False
        if engine == "interp":
            got = expected
        elif engine == "numpy":
            got, fell_back = kernel.run_numpy()
        else:
            got = kernel.run_engine(engine)
        got = np.asarray(got, dtype=np.float64).reshape(expected.shape)
        magnitude = max(1.0, float(np.max(np.abs(expected))) if expected.size
                        else 1.0)
        maxerr = (float(np.max(np.abs(got - expected)))
                  if expected.size else 0.0)
        if maxerr > 1e-8 * magnitude:
            raise EngineMismatchError(
                f"{engine} engine disagrees with the interpreter oracle on "
                f"{req.kernel}/{req.dataset} (scale={req.scale}): "
                f"max abs error {maxerr:.3e}"
            )
        return {
            "kernel": req.kernel,
            "dataset": req.dataset,
            "engine": engine,
            "maxerr": maxerr,
            "elements": int(expected.size),
            "fell_back": fell_back,
        }

    return memoize_stage(
        "exec", (req.kernel, req.dataset, req.scale, req.seed, engine),
        compute, use_cache,
    )


def evaluate(request: CompileRequest,
             use_cache: bool | None = None) -> CompileResult:
    """Predict runtimes on every platform for one request.

    The result is memoized under the ``evaluate`` stage, keyed on the
    request's :meth:`~CompileRequest.canonical_json` — the typed request
    *is* the cache key. When the request names an engine, the cell is
    first executed functionally and validated against the interpreter
    oracle (:func:`exec_check`); a disagreeing engine fails the request.
    """
    from repro.capstan.resources import estimate_resources_cached
    from repro.capstan.simulator import CapstanSimulator
    from repro.capstan.stats import compute_stats_cached
    from repro.pipeline.cache import memoize_stage

    req = dataclasses.replace(request, action="evaluate").resolved()

    def compute() -> CompileResult:
        summary = (exec_check(req, use_cache=use_cache)
                   if req.engine is not None else None)
        coords = (req.kernel, req.dataset, req.scale, req.seed)
        kernel = build(req, use_cache=use_cache)
        stats = compute_stats_cached(kernel, coords, use_cache)
        sim = CapstanSimulator()
        resources = estimate_resources_cached(kernel, coords, use_cache)
        models = _platform_models(kernel, stats, sim, resources)
        if req.platforms is not None:
            unknown = [p for p in req.platforms if p not in models]
            if unknown:
                raise ValueError(
                    f"unknown platform(s) {unknown} for {req.kernel}; "
                    f"choose from {sorted(models)}"
                )
        seconds = {}
        for name, model in models.items():
            if req.platforms is not None and name not in req.platforms:
                continue
            with _trace.span("simulate", kernel=req.kernel, platform=name):
                seconds[name] = model()
        return CompileResult(request=req, seconds=seconds,
                             exec_summary=summary)

    return memoize_stage("evaluate", (req.canonical_json(),), compute,
                         use_cache)


def compile(request: CompileRequest,  # noqa: A001 - the API verb
            use_cache: bool | None = None) -> CompileResult:
    """Compile one request and render the kernel (Table 3 material).

    Memoized under the ``compile`` stage on the request's canonical
    JSON, like :func:`evaluate`. The heavyweight compilation itself is
    shared with every other path through the ``build`` stage; this entry
    only renders the wire-ready summary (source text, generated and
    input LoC, memory report).
    """
    from repro.kernels.suite import KERNELS
    from repro.pipeline.cache import memoize_stage

    req = dataclasses.replace(request, action="compile").resolved()

    def compute() -> CompileResult:
        kernel = build(req, use_cache=use_cache)
        return CompileResult(
            request=req,
            source=kernel.source,
            spatial_loc=int(kernel.spatial_loc),
            input_loc=int(KERNELS[req.kernel].input_loc()),
            memory_report=kernel.memory_report(),
        )

    return memoize_stage("compile", (req.canonical_json(),), compute,
                         use_cache)


def pipeline(request: CompileRequest,
             use_cache: bool | None = None) -> CompileResult:
    """Plan and run one fused expression pipeline (FuseFlow).

    The request's ``kernel`` field names the pipeline; ``fuse=False``
    forces materializing cuts at every connection (the equivalence
    baseline). Memoized under the ``pipeline`` stage on the request's
    canonical JSON, like the other verbs.
    """
    from repro.pipeline.cache import memoize_stage
    from repro.pipeline.fusion import run_pipeline

    req = dataclasses.replace(request, action="pipeline").resolved()

    def compute() -> CompileResult:
        row = run_pipeline(req.kernel, req.dataset, req.scale, req.seed,
                           fuse=req.fuse, engine=req.engine or "interp",
                           use_cache=use_cache)
        return CompileResult(request=req, pipeline=row)

    return memoize_stage("pipeline", (req.canonical_json(),), compute,
                         use_cache)


def partition(request: CompileRequest,
              use_cache: bool | None = None) -> CompileResult:
    """Row-block one kernel into sub-kernels and reduce the partials.

    The request's ``partition`` field is the block count and ``split``
    the dimension to cut (``row`` concatenates output blocks, ``sum``
    splits the contraction and sums partials). Blocks run inline on the
    executor's thread pool; the dispatcher offers the same plan over any
    transport as the ``partition:*`` pseudo-artifact. Memoized under the
    ``partition`` stage on the request's canonical JSON.
    """
    from repro.pipeline.cache import memoize_stage
    from repro.pipeline.executor import run_jobs
    from repro.pipeline.partition import (
        PartitionPlan,
        format_partition,
        reduce_partials,
    )

    req = dataclasses.replace(request, action="partition").resolved()

    def compute() -> CompileResult:
        plan = PartitionPlan(req.kernel, req.dataset, req.partition,
                             req.split)
        results = run_jobs(plan.jobs(req.scale, use_cache=use_cache))
        data = reduce_partials(plan.artifact, results)
        summary = dict(data, blocks=req.partition,
                       text=format_partition(data))
        return CompileResult(request=req, partition=summary)

    return memoize_stage("partition", (req.canonical_json(),), compute,
                         use_cache)


def execute(request: CompileRequest,
            use_cache: bool | None = None) -> CompileResult:
    """Run one request, whatever its action (the worker entry point)."""
    req = request.resolved()
    if req.action == "compile":
        return compile(req, use_cache=use_cache)
    if req.action == "pipeline":
        return pipeline(req, use_cache=use_cache)
    if req.action == "partition":
        return partition(req, use_cache=use_cache)
    return evaluate(req, use_cache=use_cache)


def cached(request: CompileRequest) -> CompileResult | None:
    """Peek for a finished result without computing (the serve hot path).

    Returns ``None`` on a miss or when caching is disabled. The lookup
    is tallied in the per-stage hit/miss counters, so ``/stats`` and
    ``repro cache --json`` show daemon cache traffic per stage.
    """
    from repro.pipeline.cache import peek_stage

    req = request.resolved()
    return peek_stage(req.stage, (req.canonical_json(),))
