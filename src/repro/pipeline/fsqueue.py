"""Filesystem-backed elastic job queue: the ``queue:DIR`` transport.

The ``local:``/``ssh:`` transports own their worker pool: the dispatcher
launches every worker, so the pool is fixed for the sweep's lifetime. An
elastic pool inverts that — ``repro worker DIR`` processes attach to a
shared directory whenever a host becomes available and detach (or die)
whenever it is reclaimed, and the dispatcher only owns **enqueue**,
**lease expiry**, and **collect**. No broker is required: the queue is
plain files and every mutual-exclusion step is an atomic ``os.replace``
rename, the same trick the staged cache under ``REPRO_CACHE_DIR``
already relies on. (The :class:`QueueTransport` surface is deliberately
small — enqueue / revoke / collect — so a Redis-backed variant can slot
in behind the same dispatcher loop later.)

Layout under the queue directory::

    queue/chunk-0003-a1.json          pending task (attempt 1 of chunk 3)
    claimed/chunk-0003-a1.json.<wid>  claimed by worker <wid>; its mtime
                                      is the worker's heartbeat
    results/chunk-0003-a1.<wid>.json  the worker's shard manifest
    stop                              dispatcher finished; workers exit

Claim protocol: a worker renames a task file from ``queue/`` into
``claimed/``. Rename is atomic, so exactly one of the racing workers
wins; the losers see ``FileNotFoundError`` and move on. While running,
the worker touches its claimed file every few seconds and passes a
revocation check into the executor: if the dispatcher deletes the
claimed file (lease expired — the worker is presumed detached), the
worker cancels its remaining jobs and discards the manifest. A worker
killed outright simply stops heartbeating; either way the dispatcher
re-enqueues the chunk as a new attempt. A slow-but-alive worker whose
result races the revocation is harmless: results are validated and
deduplicated per chunk, and a manifest for an already-completed chunk is
dropped.

Tasks carry the enqueuer's compiler hash; a worker running a different
checkout leaves them in the queue (with a note) instead of burning a
lease to produce a manifest the dispatcher must reject.

Besides sweep chunks, the queue carries single **compile-request** tasks
(``req-<id>.json``) — the ``repro serve`` daemon's miss path. A request
task wraps one canonical :class:`repro.service.api.CompileRequest` dict;
a worker runs it through :func:`repro.service.api.execute` and writes
the ``CompileResult`` dict back as a result file. The claim, heartbeat,
lease-expiry, and compiler-gating protocol is identical to chunks — the
two task kinds share one queue and one worker pool.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs import trace as _trace
from repro.pipeline.batch import get_artifact
from repro.pipeline.cache import compiler_version
from repro.pipeline.shard import ShardSpec, run_shard

__all__ = [
    "QueueError",
    "QueueTransport",
    "REQUEST_FORMAT",
    "REQUEST_RESULT_FORMAT",
    "worker_loop",
]

#: Task file schema marker.
TASK_FORMAT = "repro-queue-task"

#: Result-file marker for a task the worker could not run at all (as
#: opposed to a shard manifest with per-job failures); the dispatcher
#: surfaces its ``error`` text against the chunk's retry bound.
ERROR_FORMAT = "repro-queue-error"

#: Task/result schema markers for single compile-request tasks (the
#: ``repro serve`` miss path).
REQUEST_FORMAT = "repro-queue-request"
REQUEST_RESULT_FORMAT = "repro-queue-request-result"

#: Default seconds between heartbeat touches of a claimed task file.
#: Each task carries its dispatch's lease timeout, and the worker beats
#: at least 4x per lease so a live worker can never look silent.
HEARTBEAT_INTERVAL = 2.0

#: Floor on the heartbeat interval (pathologically short leases).
MIN_HEARTBEAT_INTERVAL = 0.05

#: Default seconds a worker sleeps between empty queue scans.
DEFAULT_POLL_INTERVAL = 0.5

_worker_seq = itertools.count(1)


class QueueError(RuntimeError):
    """The queue directory cannot be prepared or a task is malformed."""


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _worker_id() -> str:
    """Unique per worker loop, even for threads sharing one process."""
    return f"{socket.gethostname()}-{os.getpid()}-{next(_worker_seq)}"


class QueueTransport:
    """``queue:DIR`` — an elastic pool attached to a shared directory.

    Unlike the launch-style transports, the dispatcher never starts a
    worker: it enqueues tasks, expires leases, and collects results,
    while ``repro worker DIR`` processes come and go. ``slots`` is only
    the *planning width* (how many chunks the uniform planner assumes
    will run concurrently); any number of workers may actually attach.
    """

    #: Planning width when the real (elastic) worker count is unknowable.
    DEFAULT_PLANNING_SLOTS = 4

    def __init__(self, root: str | Path,
                 slots: int = DEFAULT_PLANNING_SLOTS) -> None:
        text = str(root).strip()
        if not text:
            raise QueueError("queue transport needs a directory: queue:DIR")
        self.root = Path(text)
        self.slots = slots
        self.name = f"queue:{self.root}"
        #: claim file name -> (last seen mtime, local monotonic time of
        #: the last observed mtime *change*); lease age is measured on
        #: the dispatcher's clock against observed heartbeat progress,
        #: never worker mtime vs dispatcher wall clock — multi-host
        #: pools on a shared mount must survive cross-host clock skew.
        self._lease_watch: dict[str, tuple[float, float]] = {}

    def __str__(self) -> str:
        return self.name

    # -- directory layout ---------------------------------------------------

    @property
    def queue_dir(self) -> Path:
        return self.root / "queue"

    @property
    def claimed_dir(self) -> Path:
        return self.root / "claimed"

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def stop_path(self) -> Path:
        return self.root / "stop"

    def prepare(self) -> None:
        """Create the layout; clear residue of any previous dispatch.

        One dispatch owns a queue directory at a time: stale task,
        claim, and result files from a crashed (kill -9 skips
        ``shutdown``) or just-finished dispatch would otherwise collide
        with the new dispatch's chunk indexes and burn retry attempts —
        a worker still holding a stale claim loses it here, notices at
        its next heartbeat, and discards its manifest.
        """
        for directory in (self.queue_dir, self.claimed_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
            for pattern in ("chunk-*", "part-*", "req-*"):
                for path in directory.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
        try:
            self.stop_path.unlink()
        except OSError:
            pass

    # -- dispatcher side ----------------------------------------------------

    def _task_name(self, index: int, attempt: int,
                   prefix: str = "chunk") -> str:
        return f"{prefix}-{index:04d}-a{attempt}.json"

    def enqueue(self, index: int, attempt: int, payload: dict) -> None:
        """Publish one chunk attempt as a pending task file.

        Blocks of a partitioned single kernel publish as ``part-*``
        tasks (the payload's artefact is a ``partition:*`` plan), so a
        queue listing distinguishes sweep chunks from kernel blocks;
        both kinds flow through the same claim/lease/result machinery.
        """
        prefix = get_artifact(payload["artifact"]).task_prefix
        task = {"format": TASK_FORMAT, "chunk": index, "attempt": attempt,
                "compiler": compiler_version(), **payload}
        _atomic_write(self.queue_dir / self._task_name(index, attempt, prefix),
                      json.dumps(task, indent=2) + "\n")

    def withdraw(self, index: int) -> None:
        """Remove every pending/claimed file of a chunk (done or lost)."""
        for directory in (self.queue_dir, self.claimed_dir):
            for prefix in ("chunk", "part"):
                for path in directory.glob(f"{prefix}-{index:04d}-*"):
                    try:
                        path.unlink()
                    except OSError:
                        pass  # a worker claimed/finished it concurrently

    def collect(self) -> list[tuple[int, str, Path]]:
        """New result files as ``(chunk index, manifest text, path)``.

        The caller unlinks the path as it consumes each entry. A
        dispatcher killed between the unlink and persisting the chunk
        manifest loses that result — the chunk simply reruns on resume,
        served almost entirely from the staged cache.
        """
        out = []
        for path in sorted(self.results_dir.glob("chunk-*.json")) + sorted(
                self.results_dir.glob("part-*.json")):
            try:
                index = int(path.name.split("-")[1])
                out.append((index, path.read_text(), path))
            except (OSError, ValueError, IndexError):
                continue  # partially-renamed or foreign file; skip
        return out

    def _expired_claims(self, prefix: str, lease_timeout: float) -> list[str]:
        """Claim file names under ``prefix`` silent past the lease, revoked.

        A claim is "silent" when its mtime has not *changed* for
        ``lease_timeout`` on the dispatcher's own monotonic clock,
        counted from when this dispatcher first observed the claim —
        heartbeats are detected as mtime progress, so a skewed worker
        (or NFS server) clock can neither insta-expire a healthy claim
        nor keep a dead one alive.

        Deleting the claimed file *is* the revocation: the worker's next
        heartbeat fails, it cancels the task and discards its result.
        """
        now = time.monotonic()
        revoked = []
        live: set[str] = set()
        for path in self.claimed_dir.glob(prefix + "*"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # worker finished and removed it mid-scan
            live.add(path.name)
            seen = self._lease_watch.get(path.name)
            if seen is None or mtime != seen[0]:
                self._lease_watch[path.name] = (mtime, now)
                continue
            if now - seen[1] <= lease_timeout:
                continue
            try:
                path.unlink()
            except OSError:
                continue  # finished (or another scan revoked it) first
            live.discard(path.name)
            revoked.append(path.name)
        # Forget claims that no longer exist so the watch map cannot
        # grow without bound across a long multi-artefact sweep. Each
        # prefix prunes only its own entries — the chunk scan must not
        # drop the request scan's watches, and vice versa.
        for name in list(self._lease_watch):
            if name.startswith(prefix) and name not in live:
                del self._lease_watch[name]
        return revoked

    def expired_leases(self, lease_timeout: float) -> list[int]:
        """Chunk indexes whose claims went silent past the lease, revoked."""
        revoked = []
        for prefix in ("chunk-", "part-"):
            for name in self._expired_claims(prefix, lease_timeout):
                try:
                    revoked.append(int(name.split("-")[1]))
                except (ValueError, IndexError):
                    continue
        return sorted(set(revoked))

    # -- compile-request tasks (the ``repro serve`` miss path) --------------

    def _request_name(self, rid: str) -> str:
        if not rid or not rid.replace("-", "").replace("_", "").isalnum():
            raise QueueError(f"request id {rid!r} is not filename-safe")
        return f"req-{rid}.json"

    def enqueue_request(self, rid: str, payload: dict) -> None:
        """Publish one compile-request task for any attached worker."""
        task = {"format": REQUEST_FORMAT, "id": rid,
                "compiler": compiler_version(), **payload}
        _atomic_write(self.queue_dir / self._request_name(rid),
                      json.dumps(task, indent=2) + "\n")

    def withdraw_request(self, rid: str) -> None:
        """Remove a request's pending/claimed files (answered or lost)."""
        name = self._request_name(rid)
        for path in [self.queue_dir / name,
                     *self.claimed_dir.glob(f"{name}.*")]:
            try:
                path.unlink()
            except OSError:
                pass  # a worker claimed/finished it concurrently

    def collect_requests(self) -> list[tuple[str, dict, Path]]:
        """New request results as ``(request id, payload, path)``.

        The payload is the worker's ``{"ok": True, "result": ...}`` or
        ``{"ok": False, "error": ...}`` dict; the caller unlinks the
        path as it consumes each entry.
        """
        out = []
        for path in sorted(self.results_dir.glob("req-*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # partially-renamed or foreign file; skip
            if (not isinstance(data, dict)
                    or data.get("format") != REQUEST_RESULT_FORMAT
                    or not data.get("id")):
                continue
            out.append((str(data["id"]), data, path))
        return out

    def expired_requests(self, lease_timeout: float) -> list[str]:
        """Request ids whose claims went silent past the lease, revoked."""
        revoked = []
        for name in self._expired_claims("req-", lease_timeout):
            head, sep, _wid = name.partition(".json.")
            if sep and head.startswith("req-"):
                revoked.append(head[len("req-"):])
        return sorted(set(revoked))

    def pending_counts(self) -> tuple[int, int]:
        """(queued, claimed) task file counts, for progress events."""
        queued = (len(list(self.queue_dir.glob("chunk-*.json")))
                  + len(list(self.queue_dir.glob("part-*.json"))))
        claimed = (len(list(self.claimed_dir.glob("chunk-*")))
                   + len(list(self.claimed_dir.glob("part-*"))))
        return (queued, claimed)

    def drain(self) -> None:
        """Drop leftover tasks and claims, but keep workers attached.

        Used between the dispatches of a multi-artefact sweep sharing
        one queue directory: the pool stays alive for the next
        artefact; only :meth:`shutdown` releases the workers.
        """
        for directory in (self.queue_dir, self.claimed_dir):
            for pattern in ("chunk-*", "part-*", "req-*"):
                for path in directory.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def shutdown(self) -> None:
        """Tell attached workers the sweep is over; drop leftover tasks."""
        self.drain()
        try:
            _atomic_write(self.stop_path, "stop\n")
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The worker loop (``repro worker DIR``)
# ---------------------------------------------------------------------------


def _parse_task(text: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise QueueError("not a repro queue task file")
    fmt = data.get("format")
    if fmt == REQUEST_FORMAT:
        if not data.get("id") or not isinstance(data.get("request"), dict):
            raise QueueError("malformed repro queue request task")
        return {
            "kind": "request",
            "id": str(data["id"]),
            "compiler": data["compiler"],
            "request": data["request"],
            "use_cache": data.get("use_cache"),
            "lease_timeout": data.get("lease_timeout"),
        }
    if fmt != TASK_FORMAT:
        raise QueueError("not a repro queue task file")
    spec = ShardSpec.parse(data["shard"])
    return {
        "kind": "shard",
        "chunk": int(data["chunk"]),
        "attempt": int(data["attempt"]),
        "compiler": data["compiler"],
        "artifact": data["artifact"],
        "scale": float(data["scale"]),
        "spec": spec,
        "use_cache": data.get("use_cache"),
        "jobs": data.get("jobs"),
        "lease_timeout": data.get("lease_timeout"),
        "engine": data.get("engine"),
    }


def _run_request(task: dict) -> dict:
    """Run one compile-request task; always returns a result payload."""
    # Lazy import: the service layer itself reaches back into the
    # pipeline, and shard workers never need it.
    from repro.service import api

    try:
        request = api.CompileRequest.from_dict(task["request"])
        result = api.execute(request, use_cache=task["use_cache"])
    except Exception as exc:
        return {"format": REQUEST_RESULT_FORMAT, "id": task["id"],
                "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"format": REQUEST_RESULT_FORMAT, "id": task["id"],
            "ok": True, "result": result.to_dict()}


def worker_loop(
    root: str | Path,
    poll: float = DEFAULT_POLL_INTERVAL,
    max_chunks: int | None = None,
    jobs: int | None = None,
    on_event: Callable[[str], None] | None = None,
    should_exit: Callable[[], bool] | None = None,
) -> int:
    """Attach to a queue directory and run chunks until told to stop.

    The loop claims the lowest-numbered pending task (atomic rename),
    heartbeats while running it through :func:`run_shard`, writes the
    manifest into ``results/``, and releases the claim. It exits — and
    returns the number of chunks completed — when the dispatcher's
    ``stop`` sentinel appears, after ``max_chunks`` chunks, or when
    ``should_exit()`` turns true (tests detach workers mid-sweep this
    way). Attaching before the dispatcher starts, or to a directory that
    does not exist yet, just waits.
    """
    transport = QueueTransport(root)
    events = on_event if on_event is not None else (lambda _msg: None)
    wid = _worker_id()
    completed = 0
    noted_stale: set[str] = set()
    events(f"worker {wid} attached to {transport.root}")
    while True:
        if should_exit is not None and should_exit():
            events(f"worker {wid} detaching ({completed} chunk(s) done)")
            return completed
        claimed = None
        task = None
        try:
            # Serve requests are latency-sensitive; claim them before
            # sweep chunks and partitioned kernel blocks.
            candidates = (sorted(transport.queue_dir.glob("req-*.json"))
                          + sorted(transport.queue_dir.glob("chunk-*.json"))
                          + sorted(transport.queue_dir.glob("part-*.json")))
        except OSError:
            candidates = []
        for path in candidates:
            try:
                task = _parse_task(path.read_text())
            except (OSError, ValueError, KeyError, QueueError):
                continue  # claimed by another worker mid-read, or foreign
            if task["compiler"] != compiler_version():
                if path.name not in noted_stale:
                    noted_stale.add(path.name)
                    events(f"worker {wid}: skipping {path.name} (task "
                           f"compiler {task['compiler']}, this checkout is "
                           f"{compiler_version()})")
                task = None
                continue
            target = transport.claimed_dir / f"{path.name}.{wid}"
            try:
                os.replace(path, target)
            except OSError:
                task = None
                continue  # another worker won the claim race
            try:
                # The rename preserves the *enqueue*-time mtime; stamp
                # the claim immediately, or a task that waited in the
                # queue longer than the lease would be revoked before
                # the first periodic heartbeat fires.
                os.utime(target)
            except OSError:
                # The claim vanished in the rename-to-stamp window (the
                # dispatcher revoked or withdrew it): the chunk is no
                # longer ours, so skip it rather than compute a manifest
                # that would only be discarded.
                events(f"worker {wid}: claim on {path.name} lost before "
                       f"it started; skipping")
                task = None
                continue
            claimed = target
            _trace.event("claim", task=path.name, worker=wid)
            break
        if claimed is None or task is None:
            if transport.stop_path.exists():
                events(f"worker {wid} detaching: queue stopped "
                       f"({completed} chunk(s) done)")
                return completed
            time.sleep(poll)
            continue

        revoked = threading.Event()
        done = threading.Event()
        interval = HEARTBEAT_INTERVAL
        if task["lease_timeout"]:
            interval = max(MIN_HEARTBEAT_INTERVAL,
                           min(interval, float(task["lease_timeout"]) / 4))

        def heartbeat(path: Path = claimed, every: float = interval) -> None:
            while not done.wait(every):
                try:
                    os.utime(path)
                except OSError:
                    # The dispatcher deleted the claim: lease revoked.
                    revoked.set()
                    return

        beat = threading.Thread(target=heartbeat, daemon=True)
        beat.start()
        if task["kind"] == "request":
            label = f"request {task['id']}"
            events(f"worker {wid}: {label} "
                   f"({task['request'].get('action', 'evaluate')} "
                   f"{task['request'].get('kernel')})")
            try:
                with _trace.span("task", kind="request", task=task["id"],
                                 worker=wid):
                    result_text = json.dumps(_run_request(task),
                                             indent=2) + "\n"
            finally:
                done.set()
                beat.join(timeout=HEARTBEAT_INTERVAL * 2)
            result_path = (transport.results_dir /
                           f"req-{task['id']}.{wid}.json")
        else:
            label = f"chunk {task['chunk']}"
            events(f"worker {wid}: chunk {task['spec']} of "
                   f"{task['artifact']} (attempt {task['attempt']})")
            try:
                with _trace.span("task", kind="chunk", task=task["chunk"],
                                 artifact=task["artifact"], worker=wid):
                    manifest = run_shard(
                        task["artifact"], task["scale"], task["spec"],
                        jobs=task["jobs"] if jobs is None else jobs,
                        use_cache=task["use_cache"],
                        should_stop=revoked.is_set,
                        engine=task["engine"],
                    )
            except Exception as exc:
                # run_shard isolates job failures; reaching here means
                # the task itself was bad (e.g. stale positions for this
                # job list). Surface it as a result the dispatcher can
                # count against the chunk's retry bound.
                manifest = None
                error = f"{type(exc).__name__}: {exc}"
            finally:
                done.set()
                beat.join(timeout=HEARTBEAT_INTERVAL * 2)
            if manifest is not None:
                result_text = manifest.to_json()
            else:
                result_text = json.dumps(
                    {"format": ERROR_FORMAT, "chunk": task["chunk"],
                     "error": error}) + "\n"
            # Mirror the claimed task's prefix (chunk-* sweep slices,
            # part-* partition blocks) so collect() pairs them back up.
            task_prefix = claimed.name.partition("-")[0]
            result_path = (transport.results_dir /
                           f"{task_prefix}-{task['chunk']:04d}"
                           f"-a{task['attempt']}.{wid}.json")

        if revoked.is_set():
            _trace.event("lease.revoked", task=label, worker=wid)
            events(f"worker {wid}: lease on {label} revoked; "
                   f"discarding result")
            continue
        try:
            _atomic_write(result_path, result_text)
        except OSError as exc:
            # Result undeliverable (full/read-only shared mount): leave
            # the claim in place. Its heartbeat has stopped, so the
            # lease expires and the dispatcher re-enqueues the task —
            # releasing the claim here would strand it with no task, no
            # claim, and no result, hanging the dispatch.
            events(f"worker {wid}: cannot write result for {label} "
                   f"({exc}); leaving the claim to expire")
            continue
        try:
            claimed.unlink()
        except OSError:
            pass
        _trace.event("result", task=label, worker=wid)
        completed += 1
        if max_chunks is not None and completed >= max_chunks:
            events(f"worker {wid} detaching: --max-chunks reached")
            return completed


def queue_task_payload(artifact: str, scale: float, spec: ShardSpec,
                       use_cache: bool | None, jobs: int | None,
                       lease_timeout: float | None = None,
                       engine: str | None = None) -> dict:
    """The transport-agnostic body of one chunk task.

    ``lease_timeout`` tells the claiming worker how often it must
    heartbeat (at least 4x per lease) so a live worker never looks
    silent to the dispatcher's expiry scan. ``engine`` selects the
    functional-execution engine the worker runs kernel cells with.
    """
    payload: dict[str, Any] = {"artifact": artifact, "scale": scale,
                               "shard": str(spec)}
    if use_cache is not None:
        payload["use_cache"] = use_cache
    if jobs is not None:
        payload["jobs"] = jobs
    if lease_timeout is not None:
        payload["lease_timeout"] = lease_timeout
    if engine is not None:
        payload["engine"] = engine
    return payload
