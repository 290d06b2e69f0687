"""Distributed sweep dispatcher: dynamic chunked leases over worker pools.

PR 2's ``--shard I/N`` slices an artefact's job list statically: the
operator picks the partition up front, starts every worker by hand, and
collects the manifests themselves. SpDISTAL-style distribution moves that
responsibility into a scheduler — this module is that scheduler for the
Stardust evaluation sweep:

* The job list is cut into **chunks** (many more chunks than workers).
  Each chunk *is* a :class:`~repro.pipeline.shard.ShardSpec` slice
  (``i/C``), so a chunk worker is just the existing ``repro batch
  <artefact> --shard i/C`` CLI and its output is an ordinary
  :class:`~repro.pipeline.shard.ShardManifest`.
* Workers **pull**: an idle worker slot is leased the next pending chunk.
  Fast workers take more chunks; a static partition's straggler problem
  disappears.
* Leases are **fault-tolerant**: a worker that dies is detected by its
  exit, a worker that hangs is detected by lease expiry and killed; in
  both cases the chunk is reassigned to another slot. Chunks whose jobs
  keep failing are retried up to a bound, then their failing jobs are
  **quarantined**: recorded (with their manifests' captured tracebacks)
  in the :class:`DispatchResult` instead of poisoning the sweep.
* The collected per-chunk manifests fold through the *existing*
  validating merge (:func:`repro.pipeline.shard.merge_manifests`), so a
  clean dispatch is **byte-identical** to the serial ``repro tables``
  run — the property CI asserts on every push.
* A dispatch writing its manifests to a state directory can be
  **resumed**: already-completed chunks are loaded from disk (and
  anything else is replayed cheaply out of the staged cache under
  ``REPRO_CACHE_DIR``).

Transports are pluggable behind :class:`Transport`:

* ``local:N`` — N subprocess slots on this machine (the default).
* ``ssh:host1,host2`` — one slot per SSH host; the same worker command
  runs remotely and streams its manifest back over stdout.
* ``inline:N`` — N in-process threads (no subprocess, shares this
  process's monkeypatchable state; used by tests and tiny sweeps).
* ``queue:DIR`` — an **elastic** pool: the dispatcher enqueues chunk
  tasks into a filesystem queue (:mod:`repro.pipeline.fsqueue`) and
  ``repro worker DIR`` processes attach and detach mid-sweep; the
  dispatcher owns only enqueue, lease expiry, and collect.

With ``steal=True`` the chunk partition itself adapts: observed per-job
wall times (recorded into a persistent ``cost`` table by every
dispatch — see :mod:`repro.pipeline.steal`) shape cost-balanced
explicit-index chunks, large first and shrinking toward a ``min_chunk``
tail, so idle workers always find small work to steal. The first sweep
(no costs recorded yet) falls back to uniform chunking.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.pipeline.batch import get_artifact
from repro.pipeline.cache import cache_enabled, cache_env_knobs, compiler_version
from repro.pipeline.fsqueue import (
    ERROR_FORMAT,
    QueueError,
    QueueTransport,
    queue_task_payload,
)
from repro.pipeline.partition import PartitionError
from repro.pipeline.shard import (
    MergedArtifact,
    MergeError,
    ShardManifest,
    ShardSpec,
    merge_manifests,
    run_shard,
)
from repro.pipeline.steal import (
    DEFAULT_MIN_CHUNK,
    describe_plan,
    explicit_specs,
    load_costs,
    plan_chunks,
    record_manifest_costs,
)

__all__ = [
    "ChunkRequest",
    "DispatchError",
    "DispatchResult",
    "InlineTransport",
    "LocalTransport",
    "QueueTransport",
    "SshTransport",
    "Transport",
    "WorkerHandle",
    "chunk_count",
    "dispatch",
    "parse_transport",
    "worker_env",
]

#: Default chunks leased per worker slot: enough granularity that a slow
#: chunk cannot stall the sweep, few enough that per-worker startup cost
#: stays amortised.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Default lease length before a silent worker is presumed hung (seconds).
DEFAULT_LEASE_TIMEOUT = 900.0

#: Default bound on re-dispatches of one chunk after worker death, lease
#: expiry, or per-job failure (total attempts = 1 + retries).
DEFAULT_RETRIES = 2

_POLL_INTERVAL = 0.05


class DispatchError(RuntimeError):
    """The dispatcher cannot start or resume (bad spec, bad state dir)."""


# ---------------------------------------------------------------------------
# Chunk requests (what a worker is asked to run)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChunkRequest:
    """One lease unit: shard ``spec`` of ``artifact``'s job list."""

    artifact: str
    scale: float
    spec: ShardSpec
    use_cache: bool | None = None
    jobs: int | None = None  #: worker-internal thread count
    engine: str | None = None  #: functional-execution engine for cells

    def batch_args(self) -> list[str]:
        """The ``repro`` CLI arguments that run this chunk.

        ``repr(scale)`` round-trips the float exactly through argparse,
        so the worker computes the identical job list and cache keys.
        """
        args = ["batch", self.artifact, "--scale", repr(self.scale),
                "--shard", str(self.spec), "--out", "-"]
        if self.use_cache is False:
            args.append("--no-cache")
        if self.jobs is not None:
            args += ["--jobs", str(self.jobs)]
        if self.engine is not None:
            args += ["--engine", self.engine]
        return args


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class WorkerHandle:
    """A running chunk worker: poll it, kill it, read its manifest."""

    def poll(self) -> int | None:
        """Exit code, or ``None`` while still running."""
        raise NotImplementedError

    def kill(self) -> None:
        """Terminate the worker (lease expiry); must be idempotent."""
        raise NotImplementedError

    def manifest_text(self) -> str:
        """The worker's stdout (the manifest JSON on success)."""
        raise NotImplementedError

    def error_text(self) -> str:
        """The worker's stderr (progress lines / tracebacks)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker-side resources (spool files); idempotent.

        The dispatcher calls this exactly once per lease, after the
        outputs have been read or the worker has been killed.
        """


class Transport:
    """A pool of worker slots that can each run one chunk at a time."""

    #: Human-readable pool description (``local:3``).
    name: str = "transport"
    #: Number of chunks that may run concurrently.
    slots: int = 1

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name


class _PopenHandle(WorkerHandle):
    """Subprocess-backed handle; stdout/stderr spool to temp files so a
    large manifest can never deadlock the pipe while we poll."""

    def __init__(self, argv: list[str], env: dict[str, str] | None) -> None:
        self._out = tempfile.NamedTemporaryFile(
            mode="w+", suffix=".out", delete=False)
        self._err = tempfile.NamedTemporaryFile(
            mode="w+", suffix=".err", delete=False)
        try:
            self._proc = subprocess.Popen(
                argv, stdout=self._out, stderr=self._err,
                stdin=subprocess.DEVNULL, env=env,
            )
        except BaseException:
            # Popen itself failed (missing ssh binary, fd exhaustion):
            # the dispatcher never sees this handle, so the spool files
            # must be cleaned up here.
            self.close()
            raise

    def poll(self) -> int | None:
        return self._proc.poll()

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
                pass

    def _read(self, handle) -> str:
        try:
            handle.flush()
            return Path(handle.name).read_text()
        except (OSError, ValueError):  # pragma: no cover - spool closed
            return ""

    def manifest_text(self) -> str:
        return self._read(self._out)

    def error_text(self) -> str:
        return self._read(self._err)

    def close(self) -> None:
        for handle in (self._out, self._err):
            try:
                handle.close()
            except OSError:  # pragma: no cover - double close is fine
                pass
            try:
                os.unlink(handle.name)
            except OSError:
                pass


def worker_env() -> dict[str, str]:
    """A spawned worker's environment: ours, plus ``repro`` importable.

    Shared by the local transport, the serve benchmark, and tests that
    launch ``python -m repro worker`` subprocesses.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = os.environ.copy()
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


_worker_env = worker_env  # back-compat alias


class LocalTransport(Transport):
    """``local:N`` — N subprocess slots on this machine.

    Workers share the parent's ``REPRO_CACHE_DIR`` (inherited through
    the environment), so every chunk draws on the same staged cache.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise DispatchError(f"local transport needs >= 1 slot, got {slots}")
        self.slots = slots
        self.name = f"local:{slots}"

    def argv(self, request: ChunkRequest) -> list[str]:
        return [sys.executable, "-m", "repro", *request.batch_args()]

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        return _PopenHandle(self.argv(request), worker_env())


class SshTransport(Transport):
    """``ssh:host1,host2`` — one slot per host, same CLI over SSH.

    Each host needs a checkout of this repository and a Python with the
    dependencies installed; the remote command is the exact worker
    command :class:`LocalTransport` runs, and the manifest streams back
    over stdout, so no shared filesystem is required. Knobs (read from
    the dispatcher's environment):

    * ``REPRO_SSH_REPO``   — remote checkout path (default: this repo's
      absolute path, for homogeneous clusters).
    * ``REPRO_SSH_PYTHON`` — remote interpreter (default ``python3``).

    ``REPRO_*`` cache knobs set locally are forwarded into the remote
    environment, so pointing ``REPRO_CACHE_DIR`` at a shared mount gives
    the whole pool one staged cache.
    """

    def __init__(self, hosts: list[str]) -> None:
        hosts = [h for h in hosts if h]
        if not hosts:
            raise DispatchError("ssh transport needs at least one host")
        self.hosts = hosts
        self.slots = len(hosts)
        self.name = f"ssh:{','.join(hosts)}"

    def _remote_repo(self) -> str:
        configured = os.environ.get("REPRO_SSH_REPO", "")
        if configured:
            return configured
        import repro

        return str(Path(repro.__file__).resolve().parents[2])

    def remote_command(self, request: ChunkRequest) -> str:
        python = os.environ.get("REPRO_SSH_PYTHON", "python3")
        knobs = {"PYTHONPATH": "src", **cache_env_knobs(),
                 **_trace.trace_env_knobs()}
        exports = " ".join(f"{k}={shlex.quote(v)}" for k, v in knobs.items())
        batch = " ".join(shlex.quote(a) for a in request.batch_args())
        return (f"cd {shlex.quote(self._remote_repo())} && "
                f"env {exports} {shlex.quote(python)} -m repro {batch}")

    def argv(self, request: ChunkRequest, host: str) -> list[str]:
        return ["ssh", "-o", "BatchMode=yes", host,
                self.remote_command(request)]

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        return _PopenHandle(self.argv(request, self.hosts[slot]), None)


class _ThreadHandle(WorkerHandle):
    """In-process handle: the chunk runs on a thread via run_shard."""

    def __init__(self, request: ChunkRequest) -> None:
        self._cancel = threading.Event()
        self._text = ""
        self._error = ""
        self._code: int | None = None

        def work() -> None:
            try:
                manifest = run_shard(
                    request.artifact, request.scale, request.spec,
                    jobs=request.jobs, use_cache=request.use_cache,
                    should_stop=self._cancel.is_set,
                    engine=request.engine,
                )
                self._text = manifest.to_json()
                self._code = 1 if manifest.failures() else 0
            except Exception:  # pragma: no cover - run_shard isolates jobs
                import traceback

                self._error = traceback.format_exc()
                self._code = 1

        self._thread = threading.Thread(target=work, daemon=True)
        self._thread.start()

    def poll(self) -> int | None:
        return None if self._thread.is_alive() else self._code

    def kill(self) -> None:
        # Threads cannot be killed; cancel pending jobs so the chunk
        # drains quickly and its (incomplete) manifest is discarded.
        self._cancel.set()

    def manifest_text(self) -> str:
        return "" if self._cancel.is_set() else self._text

    def error_text(self) -> str:
        return self._error


class InlineTransport(Transport):
    """``inline:N`` — N in-process threads (tests, tiny local sweeps).

    Shares this process's modules and default cache, so test fixtures
    (monkeypatched job functions, private cache directories) apply to
    the workers. A killed lease cannot interrupt a job mid-flight — the
    cancel flag skips the chunk's *remaining* jobs — so lease timeouts
    here bound scheduling, not single-job runtime.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise DispatchError(
                f"inline transport needs >= 1 slot, got {slots}")
        self.slots = slots
        self.name = f"inline:{slots}"

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        return _ThreadHandle(request)


def parse_transport(spec: str) -> Transport:
    """Parse a ``--workers`` spec into a transport.

    ``local:N`` (subprocess pool), ``ssh:host1,host2`` (one slot per
    host), ``inline:N`` (in-process threads), ``queue:DIR`` (elastic
    filesystem queue — ``repro worker DIR`` processes attach and detach
    mid-sweep). A bare integer means ``local:N``.
    """
    text = spec.strip()
    kind, sep, arg = text.partition(":")
    if not sep and kind.isdigit():
        kind, arg = "local", kind
    try:
        if kind == "local":
            return LocalTransport(int(arg))
        if kind == "inline":
            return InlineTransport(int(arg))
    except ValueError:
        raise DispatchError(
            f"invalid worker count in {spec!r}; expected e.g. local:4"
        ) from None
    if kind == "ssh":
        return SshTransport(arg.split(","))
    if kind == "queue":
        try:
            return QueueTransport(arg)
        except QueueError as exc:
            raise DispatchError(str(exc)) from None
    raise DispatchError(
        f"unknown transport {spec!r}; expected local:N, ssh:host1,host2, "
        f"inline:N, or queue:DIR"
    )


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------


def chunk_count(total_jobs: int, slots: int,
                chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER) -> int:
    """How many lease units to cut ``total_jobs`` into for ``slots``."""
    if total_jobs < 1:
        return 1
    return min(total_jobs, max(slots, 1) * max(chunks_per_worker, 1))


@dataclasses.dataclass
class DispatchResult:
    """Outcome of one dispatch: manifests, merge, and fault report."""

    artifact: str
    scale: float
    transport: str
    chunks: int
    manifests: list[ShardManifest]
    merged: MergedArtifact | None
    quarantined: list[dict]  #: ``{"key", "error", "chunk"}`` per dead job
    lost_chunks: dict[int, str]  #: chunk index -> last transport error
    resumed_chunks: int
    attempts: int
    seconds: float
    merge_error: str | None = None  #: the final fold's refusal, if any
    steal: bool = False  #: chunks were cost-planned (not uniform fallback)
    plan: list[dict] | None = None  #: per-chunk size/estimated-cost report
    costs_recorded: int = 0  #: cost-table entries written by this dispatch
    #: Jobs whose pipeline actually computed something this run, vs. jobs
    #: answered entirely from the staged cache (resumed chunks' jobs all
    #: count as cached: nothing executed for them in this dispatch).
    jobs_computed: int = 0
    jobs_cached: int = 0

    @property
    def ok(self) -> bool:
        return self.merged is not None

    def summary(self) -> str:
        jobs = sum(len(m.jobs) for m in self.manifests)
        if self.ok:
            status = "ok"
        elif self.merge_error is not None:
            status = "merge refused"
        else:
            status = (f"{len(self.quarantined)} quarantined, "
                      f"{len(self.lost_chunks)} lost chunk(s)")
        resumed = (f", {self.resumed_chunks} resumed"
                   if self.resumed_chunks else "")
        planned = ", cost-planned" if self.steal else ""
        return (f"dispatch {self.artifact} (scale {self.scale}) over "
                f"{self.transport}: {jobs} job(s) "
                f"({self.jobs_computed} computed, "
                f"{self.jobs_cached} cached) in {self.chunks} "
                f"chunk(s){planned}, {self.attempts} lease(s){resumed}, "
                f"{self.seconds:.2f}s [{status}]")

    def failure_report(self) -> list[str]:
        """One formatted line (or block) per failure, for CLI surfaces."""
        lines = []
        for entry in self.quarantined:
            key = ":".join(str(k) for k in entry["key"])
            lines.append(f"QUARANTINED {key} (chunk {entry['chunk']}):\n"
                         f"{entry['error']}")
        for index, why in sorted(self.lost_chunks.items()):
            lines.append(f"LOST chunk {index}/{self.chunks}: {why}")
        if self.merge_error is not None:
            lines.append(f"MERGE REFUSED: {self.merge_error}")
        return lines


def _load_resume_state(
    state_dir: Path,
    artifact: str,
    scale: float,
    on_event: Callable[[str], None],
    expected: dict[int, ShardSpec] | None = None,
) -> tuple[int | None, dict[int, ShardManifest]]:
    """Completed chunks from a previous dispatch's manifest files.

    Manifests from another artefact/scale/compiler (or with failed jobs)
    are ignored — their chunks simply run again, served mostly from the
    staged cache. With ``expected`` (a cost-planned partition), only
    manifests whose shard spec — including explicit positions — matches
    the current plan are reused: a replanned chunk layout invalidates
    the old pieces, which replay cheaply from the staged cache anyway.
    """
    chunks: int | None = len(expected) if expected is not None else None
    done: dict[int, ShardManifest] = {}
    for path in sorted(state_dir.glob(f"{artifact}.chunk*.json")):
        try:
            manifest = ShardManifest.load(path)
        except Exception as exc:
            on_event(f"resume: ignoring unreadable {path.name}: {exc}")
            continue
        if (manifest.artifact != artifact or manifest.scale != scale
                or manifest.compiler != compiler_version()):
            on_event(f"resume: ignoring stale {path.name} "
                     f"(different artefact/scale/compiler)")
            continue
        if manifest.failures():
            on_event(f"resume: re-running chunk {manifest.shard} "
                     f"({len(manifest.failures())} failed job(s) on disk)")
            continue
        if expected is not None:
            if manifest.shard != expected.get(manifest.shard.index):
                on_event(f"resume: ignoring {path.name} "
                         f"(chunk plan changed)")
                continue
            done[manifest.shard.index] = manifest
            continue
        if manifest.shard.positions is not None:
            on_event(f"resume: ignoring {path.name} (cost-planned chunk, "
                     f"this dispatch is uniform)")
            continue
        if chunks is None:
            chunks = manifest.shard.count
        if manifest.shard.count != chunks:
            raise DispatchError(
                f"{path}: chunk count {manifest.shard.count} does not match "
                f"{chunks} from other manifests in {state_dir}; clear the "
                f"directory or resume with a consistent state"
            )
        done[manifest.shard.index] = manifest
    return chunks, done


def _chunk_path(state_dir: Path, artifact: str, spec: ShardSpec) -> Path:
    return state_dir / f"{artifact}.chunk{spec.index}of{spec.count}.json"


def _parse_worker_manifest(
    handle: WorkerHandle, request: ChunkRequest
) -> tuple[ShardManifest | None, str]:
    """The worker's manifest, or ``(None, why)`` when it produced none."""
    text = handle.manifest_text()
    if not text.strip():
        err = handle.error_text().strip()
        tail = err.splitlines()[-1] if err else "no output"
        return None, f"worker produced no manifest ({tail})"
    return _validate_manifest_text(text, request)


def _validate_manifest_text(
    text: str, request: ChunkRequest
) -> tuple[ShardManifest | None, str]:
    """Validate raw manifest JSON against the chunk it should answer for.

    Shared by the pool loop (worker stdout) and the queue loop (result
    files); both must refuse wrong-chunk, wrong-compiler, or malformed
    answers at acceptance, not at the final merge fold.
    """
    try:
        data = json.loads(text)
        if isinstance(data, dict) and data.get("format") == ERROR_FORMAT:
            # A queue worker that could not run the task at all reports
            # the root cause instead of a manifest; surface *its* error,
            # not a generic format refusal.
            return None, (f"worker reported a task error: "
                          f"{data.get('error', 'unknown')}")
        manifest = ShardManifest.from_dict(data,
                                           source=f"chunk {request.spec}")
    except (ValueError, TypeError) as exc:
        return None, f"worker manifest unreadable: {exc}"
    if (manifest.artifact != request.artifact
            or manifest.scale != request.scale
            or manifest.shard != request.spec):
        return None, (f"worker answered for the wrong chunk "
                      f"({manifest.artifact} {manifest.shard}, "
                      f"expected {request.artifact} {request.spec})")
    if manifest.compiler != compiler_version():
        # Catch a stale remote checkout at the first chunk, not after
        # the whole sweep's compute is spent at the merge fold.
        return None, (f"worker runs compiler {manifest.compiler}, this "
                      f"checkout is {compiler_version()} (stale remote "
                      f"checkout?)")
    return manifest, ""


def dispatch(
    artifact: str,
    scale: float,
    transport: Transport | QueueTransport | str,
    *,
    chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    use_cache: bool | None = None,
    worker_jobs: int | None = None,
    state_dir: str | Path | None = None,
    resume: bool = False,
    steal: bool = False,
    min_chunk: int = DEFAULT_MIN_CHUNK,
    stop_queue: bool = True,
    on_event: Callable[[str], None] | None = None,
    engine: str | None = None,
) -> DispatchResult:
    """Drive ``artifact``'s whole job list through a worker pool.

    The job list is cut into :func:`chunk_count` uniform shard-slices —
    or, with ``steal=True``, into cost-balanced explicit-index chunks
    planned from the persistent cost table (falling back to uniform on
    the first sweep, before any costs are recorded); ``min_chunk``
    floors the planned steal-tail granularity. Idle worker slots lease
    pending chunks until none remain. A worker that exits without a
    valid manifest, or outlives ``lease_timeout``, loses its lease: the
    chunk is reassigned (up to ``retries`` extra attempts). A chunk
    whose manifest still contains failed jobs after the retry bound has
    those jobs quarantined. When every chunk completed cleanly the
    manifests fold through :func:`~repro.pipeline.shard.merge_manifests`
    into output byte-identical to the serial run; otherwise ``merged``
    is ``None`` and the quarantine/lost lists say exactly what is
    missing. Every dispatch records its jobs' observed wall times into
    the cost table, so the *next* ``steal=True`` dispatch plans from
    warm data.

    A :class:`QueueTransport` (``queue:DIR``) swaps the pool loop for an
    elastic one: chunks are enqueued as task files, ``repro worker DIR``
    processes attach and detach mid-sweep, and a lease whose worker goes
    silent past ``lease_timeout`` is revoked and re-enqueued. By default
    the queue's stop sentinel is raised when the dispatch ends, draining
    attached workers; a multi-artefact sweep passes ``stop_queue=False``
    on all but its last dispatch so the pool survives between artefacts.

    ``state_dir`` persists per-chunk manifests (and enables
    ``resume=True`` to skip chunks already completed by an earlier,
    interrupted dispatch). Without it, manifests live only in memory.
    """
    start = time.perf_counter()
    if isinstance(transport, str):
        transport = parse_transport(transport)
    try:
        record = get_artifact(artifact)
    except (KeyError, PartitionError) as exc:
        raise DispatchError(exc.args[0]) from None
    events = on_event if on_event is not None else (lambda _msg: None)

    state_path: Path | None = None
    if state_dir is not None:
        state_path = Path(state_dir)
        state_path.mkdir(parents=True, exist_ok=True)
    if resume and state_path is None:
        raise DispatchError("resume requires a state directory")

    keys = [job.key for job in record.jobs(scale)]
    total = len(keys)

    # -- chunk planning (uniform, or cost-balanced under --steal) -----------
    specs: dict[int, ShardSpec] = {}
    plan_report: list[dict] | None = None
    stolen = False
    if steal:
        costs = load_costs(artifact, scale, keys)
        planned = plan_chunks(keys, costs, transport.slots, min_chunk)
        if planned is None:
            events("steal: no recorded costs for this job list; falling "
                   "back to uniform chunking (this sweep records them)")
        else:
            spec_list = explicit_specs(planned)
            specs = {s.index: s for s in spec_list}
            plan_report = describe_plan(spec_list, keys, costs)
            stolen = True
            events(f"steal: planned {len(spec_list)} cost-balanced "
                   f"chunk(s) from {len(costs)}/{total} recorded cost(s)")

    chunks: int | None = None
    done: dict[int, ShardManifest] = {}
    if resume:
        chunks, done = _load_resume_state(
            state_path, artifact, scale, events,
            expected=specs if stolen else None)
        if done:
            events(f"resume: {len(done)}/{chunks} chunk(s) already complete "
                   f"in {state_path}")
    if stolen:
        chunks = len(specs)
    elif chunks is None:
        chunks = chunk_count(total, transport.slots, chunks_per_worker)
    if not specs:
        specs = {i: ShardSpec(i, chunks) for i in range(1, chunks + 1)}
    resumed_indices = set(done)
    resumed = len(done)

    pending = collections.deque(
        i for i in range(1, chunks + 1) if i not in done)
    attempts: dict[int, int] = {}
    last_error: dict[int, str] = {}
    lost: dict[int, str] = {}
    quarantined: list[dict] = []
    total_attempts = 0

    def request_for(index: int) -> ChunkRequest:
        return ChunkRequest(artifact, scale, specs[index],
                            use_cache=use_cache, jobs=worker_jobs,
                            engine=engine)

    def chunk_failed(index: int, why: str) -> None:
        last_error[index] = why
        _trace.event("chunk.failed", chunk=index, attempt=attempts[index],
                     why=why)
        if attempts[index] <= retries:
            events(f"chunk {specs[index]}: {why}; reassigning "
                   f"(attempt {attempts[index]} of {1 + retries})")
            pending.append(index)
        else:
            events(f"chunk {specs[index]}: {why}; retry bound reached, "
                   f"chunk lost")
            lost[index] = why

    def accept(index: int, manifest: ShardManifest) -> None:
        if manifest.failures() and attempts[index] <= retries:
            failed = [":".join(map(str, e["key"]))
                      for e in manifest.failures()]
            chunk_failed(index, f"{len(failed)} job(s) failed ({failed[0]}...)"
                         if len(failed) > 1 else f"job {failed[0]} failed")
            return
        done[index] = manifest
        _trace.event("chunk.done", chunk=index, jobs=len(manifest.jobs),
                     attempt=attempts[index])
        if state_path is not None:
            manifest.save(_chunk_path(state_path, artifact, manifest.shard))
        if manifest.failures():
            for entry in manifest.failures():
                quarantined.append({
                    "key": list(entry["key"]),
                    "error": entry.get("error", ""),
                    "chunk": index,
                })
            events(f"chunk {specs[index]}: done with "
                   f"{len(manifest.failures())} job(s) quarantined after "
                   f"{attempts[index]} attempt(s)")
        else:
            events(f"chunk {specs[index]}: done "
                   f"({len(manifest.jobs)} job(s))")

    def next_attempt(index: int) -> int:
        nonlocal total_attempts
        attempts[index] = attempts.get(index, 0) + 1
        total_attempts += 1
        return attempts[index]

    def pool_loop() -> None:
        """Launch-style transports: the dispatcher owns the worker pool."""
        #: slot -> (chunk index, handle, lease deadline)
        active: dict[int, tuple[int, WorkerHandle, float]] = {}
        try:
            while pending or active:
                # Lease pending chunks to idle slots.
                idle = [s for s in range(transport.slots) if s not in active]
                for slot in idle:
                    if not pending:
                        break
                    index = pending.popleft()
                    attempt = next_attempt(index)
                    handle = transport.launch(slot, request_for(index))
                    active[slot] = (index, handle,
                                    time.monotonic() + lease_timeout)
                    _trace.event("lease", chunk=index, slot=slot,
                                 attempt=attempt)
                    events(f"chunk {specs[index]} -> {transport} slot {slot} "
                           f"(attempt {attempt})")

                # Poll active leases.
                for slot in list(active):
                    index, handle, deadline = active[slot]
                    code = handle.poll()
                    if code is None:
                        if time.monotonic() > deadline:
                            handle.kill()
                            handle.close()
                            del active[slot]
                            _trace.event("lease.expired", chunk=index,
                                         slot=slot)
                            chunk_failed(
                                index,
                                f"lease expired after {lease_timeout:g}s "
                                f"(worker hung?)")
                        continue
                    del active[slot]
                    manifest, why = _parse_worker_manifest(handle,
                                                           request_for(index))
                    handle.close()
                    if manifest is None:
                        chunk_failed(index,
                                     f"worker exited with code {code}: {why}")
                    else:
                        accept(index, manifest)

                if active:
                    time.sleep(_POLL_INTERVAL)
        finally:
            # An escaping exception (Ctrl-C, a transport launch error)
            # must not orphan in-flight workers: revoke every live lease.
            for _index, handle, _deadline in active.values():
                handle.kill()
                handle.close()

    def queue_loop() -> None:
        """Queue transport: elastic workers attach and detach mid-sweep.

        The dispatcher only enqueues task files, revokes silent leases,
        and collects result files — it never launches a worker, so the
        pool can grow (a host attaches ``repro worker DIR``) or shrink
        (a worker is killed; its lease expires and the chunk is
        re-enqueued) at any point during the sweep.
        """
        transport.prepare()
        outstanding: set[int] = set()
        idle_scans = 0
        # Scan far less often than the in-memory pool loop: every scan
        # globs the (possibly NFS-shared) queue directories, chunks run
        # for seconds-to-minutes, and workers only poll every ~0.5s —
        # but keep sub-second leases (tests) responsive.
        poll = min(0.5, max(_POLL_INTERVAL, lease_timeout / 20))
        try:
            while pending or outstanding:
                while pending:
                    index = pending.popleft()
                    attempt = next_attempt(index)
                    transport.enqueue(index, attempt, queue_task_payload(
                        artifact, scale, specs[index], use_cache,
                        worker_jobs, lease_timeout=lease_timeout,
                        engine=engine))
                    outstanding.add(index)
                    _trace.event("enqueue", chunk=index, attempt=attempt)
                    events(f"chunk {specs[index]} -> {transport} "
                           f"(attempt {attempt})")

                progressed = False
                for index, text, path in transport.collect():
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    if index not in outstanding:
                        continue  # late duplicate of a finished chunk
                    progressed = True
                    manifest, why = _validate_manifest_text(
                        text, request_for(index))
                    outstanding.discard(index)
                    # Drop any still-pending duplicate attempt before
                    # deciding this chunk's fate.
                    transport.withdraw(index)
                    if manifest is None:
                        chunk_failed(index, f"queue worker answered with an "
                                            f"invalid manifest: {why}")
                    else:
                        accept(index, manifest)

                for index in transport.expired_leases(lease_timeout):
                    if index not in outstanding:
                        continue
                    progressed = True
                    outstanding.discard(index)
                    _trace.event("lease.expired", chunk=index)
                    chunk_failed(index,
                                 f"lease expired after {lease_timeout:g}s "
                                 f"(worker detached?)")

                if pending or not outstanding:
                    continue
                idle_scans = 0 if progressed else idle_scans + 1
                if idle_scans and idle_scans * poll >= 30:
                    idle_scans = 0
                    queued, claimed = transport.pending_counts()
                    events(f"queue: {queued} task(s) waiting, {claimed} "
                           f"claimed; attach workers with `repro worker "
                           f"{transport.root}`")
                time.sleep(poll)
        finally:
            # Withdraw leftover tasks; with stop_queue also raise the
            # stop sentinel so attached workers drain and exit instead
            # of spinning (a multi-artefact sweep keeps them attached).
            if stop_queue:
                transport.shutdown()
            else:
                transport.drain()

    with _trace.span("dispatch", artifact=artifact, scale=scale,
                     transport=str(transport)) as dispatch_span:
        if isinstance(transport, QueueTransport):
            queue_loop()
        else:
            pool_loop()

        manifests = [done[i] for i in sorted(done)]
        # Record observed wall times from freshly-executed chunks only:
        # resumed manifests carry a *previous* run's times, and re-stamping
        # them would overwrite fresher observations ("latest wins"). Fresh
        # chunks must be recorded dispatcher-side for transports whose
        # workers do not share this cache (ssh without a common mount).
        fresh = [done[i] for i in sorted(done) if i not in resumed_indices]
        costs_recorded = 0
        if cache_enabled() and fresh:
            costs_recorded = record_manifest_costs(fresh)
            events(f"cost table: recorded {costs_recorded} job time(s)")
        merged: MergedArtifact | None = None
        merge_error: str | None = None
        if not lost and not quarantined and len(done) == chunks:
            try:
                merged = merge_manifests(manifests)
            except MergeError as exc:  # pragma: no cover - defensive fold
                # Every manifest was validated at acceptance, so this is a
                # should-not-happen guard; carry the reason in the result
                # so it survives --quiet and reaches the operator.
                merge_error = str(exc)
                events(f"merge refused the collected manifests: {exc}")
        # Honest utilization numbers: a job only counts as computed when
        # a freshly-executed chunk says its pipeline ran (manifests from
        # pre-"computed"-field workers conservatively count as computed);
        # everything else — cache-served jobs and whole resumed chunks —
        # is cached work this dispatch did not spend a worker on.
        jobs_total = sum(len(m.jobs) for m in manifests)
        jobs_computed = sum(
            sum(1 for e in m.jobs if e.get("computed", True))
            for m in fresh)
        jobs_cached = jobs_total - jobs_computed
        jobs_counter = _metrics.counter(
            "repro_dispatch_jobs_total",
            "Dispatch jobs by execution kind.", ("kind",))
        jobs_counter.inc(jobs_computed, kind="computed")
        jobs_counter.inc(jobs_cached, kind="cached")
        _metrics.counter("repro_dispatch_leases_total",
                         "Chunk leases granted.").inc(total_attempts)
        _metrics.counter("repro_dispatch_chunks_lost_total",
                         "Chunks lost after the retry bound.").inc(len(lost))
        dispatch_span.set(ok=merged is not None, chunks=chunks,
                          attempts=total_attempts,
                          jobs_computed=jobs_computed,
                          jobs_cached=jobs_cached)
        return DispatchResult(
            artifact=artifact,
            scale=scale,
            transport=str(transport),
            chunks=chunks,
            manifests=manifests,
            merged=merged,
            quarantined=quarantined,
            lost_chunks=lost,
            resumed_chunks=resumed,
            attempts=total_attempts,
            seconds=time.perf_counter() - start,
            merge_error=merge_error,
            steal=stolen,
            plan=plan_report,
            costs_recorded=costs_recorded,
            jobs_computed=jobs_computed,
            jobs_cached=jobs_cached,
        )


def dispatch_summary_payload(result: DispatchResult) -> dict[str, Any]:
    """A JSON-safe report of one dispatch (for logs and CI artifacts)."""
    return {
        "artifact": result.artifact,
        "scale": result.scale,
        "transport": result.transport,
        "chunks": result.chunks,
        "attempts": result.attempts,
        "resumed_chunks": result.resumed_chunks,
        "jobs_computed": result.jobs_computed,
        "jobs_cached": result.jobs_cached,
        "ok": result.ok,
        "quarantined": result.quarantined,
        "lost_chunks": {str(k): v for k, v in result.lost_chunks.items()},
        "merge_error": result.merge_error,
        "seconds": round(result.seconds, 3),
        "steal": result.steal,
        "plan": result.plan,
        "costs_recorded": result.costs_recorded,
    }
