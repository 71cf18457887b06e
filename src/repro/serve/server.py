"""The long-running simulation job service.

One process wraps :func:`repro.api.run` behind an HTTP/JSON interface
(stdlib only — :class:`http.server.ThreadingHTTPServer` for transport,
a small worker thread pool for execution):

- ``POST /v1/experiments``      validated body -> job id (202; 200 when
  the request coalesced onto an existing job; 429 ``queue-full`` +
  ``Retry-After`` under overload; 503 ``draining`` during shutdown);
- ``GET  /v1/jobs``             every job, first-submission order;
- ``GET  /v1/jobs/<id>``        state + live progress counters;
- ``GET  /v1/jobs/<id>/result`` the stored ``ExperimentResult`` JSON;
- ``GET  /v1/jobs/<id>/events`` live progress as a Server-Sent-Events
  stream (heartbeats while idle; closes after the terminal event);
- ``GET  /v1/stats``            uptime, job/dedup/runner-cache counters;
- ``GET  /healthz``             liveness;
- ``POST /v1/shutdown``         graceful stop: drain in-flight jobs,
  refuse new ones, then exit (the CLI/bench use it; SIGTERM too).

**One shared Runner** (with one on-disk cache) sits behind the job
queue; worker threads execute jobs through ``api.run`` with a
context-local progress tracker, so concurrent requests never race each
other's runner installation (the context refactor in
:mod:`repro.runner.context`) or progress sink
(:meth:`Runner.progress_scope`).  Duplicate traffic is absorbed twice:
identical in-flight requests coalesce in the :class:`JobTable` before
any work is queued, and whatever does execute hits the content-hash
result cache underneath.

Three robustness layers harden the service for sustained traffic:

- **Admission control** — the job queue is bounded (``max_queue``);
  submissions that would create work past the bound get a structured
  429 with a ``Retry-After`` hint, and during draining a 503.  Dedup
  lookups and reads always keep working.
- **Durable jobs** — with a cache dir, every job-record transition is
  persisted (:class:`JobStore`, atomic writes); a restarted server
  answers ``GET /v1/jobs/<id>`` for pre-crash submissions, serving
  completed results byte-identically and re-running interrupted ones.
- **Worker supervision** — a job can never take a worker down: even a
  worker-killing ``BaseException`` out of a job marks the record FAILED
  (``worker-fault`` envelope) and the worker thread keeps draining the
  queue.  A client that vanishes mid-SSE only ends its own connection
  thread.

Results are **deterministic bytes**: the stored payload is
``ExperimentResult.to_json()`` with ``elapsed`` canonicalized to 0.0
(wall-clock lives in the job summary, not the result), so two runs of
one request — on one server or across restarts — serve byte-identical
documents, and the load benchmark can assert parity against a direct
``api.run``.
"""

from __future__ import annotations

import json
import math
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import urlsplit

from .. import api
from .. import faults as _faults
from ..runner import ExecutionPolicy, ProgressTracker, Runner, coerce_policy
from .jobs import DONE, FAILED, JobRecord, JobStore, JobTable
from .schemas import ServeError, ServeRequest, error_envelope

#: Largest accepted request body (a submission is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Default bound on the number of QUEUED jobs (admission control).
DEFAULT_MAX_QUEUE = 64

#: Default Retry-After hint (seconds) on 429/503 admission refusals.
DEFAULT_RETRY_AFTER = 1.0


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for bursty load.

    The stdlib default listen backlog (5) resets connections when many
    clients connect in one burst — the load benchmark's closed-loop
    clients all dial in simultaneously, and urllib opens a fresh
    connection per request.  A deeper backlog absorbs the burst.
    """

    daemon_threads = True
    request_queue_size = 128


def canonical_result_json(result: "api.ExperimentResult") -> str:
    """The service's byte-stable serialization of a result.

    ``elapsed`` and ``execution`` are the non-deterministic fields in
    ``ExperimentResult.to_dict`` (wall clock, and *how* the server ran
    the jobs — pool backend, fan-out); nulling both makes the document a
    pure function of the request content (the simulations themselves are
    deterministic, and invariant 13 guarantees payload bytes are
    identical across pool backends), which is what lets identical
    requests dedup to byte-identical responses — even across servers
    running different pools.
    """
    result.elapsed = 0.0
    result.execution = None
    return result.to_json()


class ExperimentService:
    """Job queue + worker pool + shared Runner behind the HTTP layer."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        workers: int = 2,
        runner: Optional[Runner] = None,
        max_queue: Optional[int] = DEFAULT_MAX_QUEUE,
        retry_after: float = DEFAULT_RETRY_AFTER,
        durable: bool = True,
        execution: Optional[ExecutionPolicy] = None,
        job_retention: Optional[float] = None,
    ):
        # ``execution`` is the full policy (pool backend, timeouts,
        # retries); the flat ``jobs``/``cache_dir`` kwargs remain as the
        # local-pool shorthand.  A caller-supplied ``runner`` wins over
        # both and stays caller-owned (tests share one across services).
        policy = coerce_policy(execution)
        if policy is None:
            policy = ExecutionPolicy(jobs=jobs, cache_dir=cache_dir)
        self._owns_runner = runner is None
        self.runner = runner if runner is not None else policy.make_runner()
        # The durable job table lives beside the sim cache: same root,
        # its own subdirectory (the runner cache globs *.json flat).
        store_root = cache_dir if cache_dir is not None else (
            policy.effective_cache_dir if self._owns_runner else None
        )
        if store_root is None and self.runner.cache:
            store_root = self.runner.cache.root
        store = (
            JobStore(Path(store_root) / "serve-jobs")
            if durable and store_root is not None else None
        )
        self.table = JobTable(store=store)
        self.queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self.workers = max(1, int(workers))
        self.max_queue = max(1, int(max_queue)) if max_queue else None
        self.retry_after = float(retry_after)
        self.started_at = time.time()
        self._threads = [
            threading.Thread(
                target=self._work, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        self._running = False
        self._draining = threading.Event()
        self._pending = 0  # enqueued digests not yet fully processed
        self._pending_cond = threading.Condition()
        # Job-table GC: with a retention policy, terminal records older
        # than ``job_retention`` seconds are pruned at recovery, at
        # startup, and periodically while serving.
        self.job_retention = (
            float(job_retention) if job_retention is not None else None
        )
        self._gc_stop = threading.Event()
        self._gc_thread: Optional[threading.Thread] = None
        # Jobs interrupted by a previous process's death, waiting for
        # start() to re-enqueue them (already QUEUED in the table, so
        # GET /v1/jobs answers for them immediately).
        self._requeue = self.table.recover(max_age=self.job_retention)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for record in self._requeue:
            self._enqueue(record.digest)
        self._requeue = []
        for t in self._threads:
            t.start()
        if self.job_retention is not None:
            self.table.prune(self.job_retention)
            self._gc_thread = threading.Thread(
                target=self._gc_loop, name="serve-job-gc", daemon=True
            )
            self._gc_thread.start()

    def _gc_loop(self) -> None:
        """Periodic job-table GC (``--job-retention``): prune terminal
        records older than the retention window until stop() fires.
        The sweep interval is half the retention window, clamped to
        [0.5s, 60s] — tight enough that short test retentions take
        effect, loose enough to cost nothing in production."""
        interval = min(60.0, max(0.5, self.job_retention / 2.0))
        while not self._gc_stop.wait(interval):
            self.table.prune(self.job_retention)

    def stop(self, timeout: float = 5.0) -> None:
        """Drain the workers (one sentinel each) and join them.

        A runner the service built itself is closed afterwards — that
        releases any persistent pool (ssh/loopback workers) behind it.
        A caller-supplied runner stays open; the caller owns it.
        """
        if not self._running:
            if self._owns_runner:
                self.runner.close()
            return
        self._running = False
        self._gc_stop.set()
        if self._gc_thread is not None:
            self._gc_thread.join(timeout=timeout)
        for _ in self._threads:
            self.queue.put(None)
        for t in self._threads:
            t.join(timeout=timeout)
        if self._owns_runner:
            self.runner.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, finish what's in flight.

        Sets the draining flag (new submissions -> 503; dedup lookups
        and reads keep working), waits until every enqueued job has been
        fully processed, then stops the worker pool.  Returns True when
        the queue drained inside ``timeout`` (None = wait forever).
        """
        self._draining.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._pending_cond:
            while self._pending > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    break
                self._pending_cond.wait(
                    1.0 if remaining is None else min(remaining, 1.0)
                )
            drained = self._pending == 0
        self.stop()
        return drained

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # ------------------------------------------------------------------
    def _enqueue(self, digest: str) -> None:
        with self._pending_cond:
            self._pending += 1
        self.queue.put(digest)

    def _task_done(self) -> None:
        with self._pending_cond:
            self._pending -= 1
            self._pending_cond.notify_all()

    def submit(self, payload) -> Tuple[int, Dict]:
        """Validate + register a submission; returns (status, body).

        202 for a newly created job, 200 when the request deduplicated
        onto an existing one (in-flight or already completed).  Raises
        :class:`ServeError` 429 (queue full) / 503 (draining) when the
        request would create work the service must refuse — dedup hits
        are still served in both states.
        """
        request = ServeRequest.from_payload(payload)
        record, created = self.table.submit(
            request,
            max_queued=self.max_queue,
            retry_after=self.retry_after,
            draining=self._draining.is_set(),
        )
        if created:
            self._enqueue(record.digest)
        body = {"job": record.summary(), "deduped": not created}
        return (202 if created else 200), body

    def _work(self) -> None:
        while True:
            digest = self.queue.get()
            if digest is None:
                return
            record = next(
                (r for r in self.table.all() if r.digest == digest), None
            )
            try:
                if record is not None:
                    self._execute(record)
            except BaseException as exc:  # noqa: BLE001 - worker supervision
                # _execute absorbs Exception; anything that still gets
                # here is a worker-killing fault (KeyboardInterrupt,
                # SystemExit, ...).  The job is marked failed with an
                # envelope and the worker thread survives — a job must
                # never take a worker down.
                if record is not None and record.state not in (DONE, FAILED):
                    self.table.mark_failed(
                        record,
                        error_envelope(
                            "worker-fault",
                            f"worker hit {type(exc).__name__}: {exc}",
                        ),
                    )
            finally:
                self._task_done()

    def _execute(self, record: JobRecord) -> None:
        tracker = ProgressTracker()
        self.table.mark_running(record, tracker)
        req = record.request
        try:
            # Named chaos seam: a scheduled serve.execute fault fails the
            # job through the same path as any real execution error.
            _faults.fire("serve.execute", detail=req.experiment)
            result = api.run(
                req.experiment,
                records=req.records,
                workloads=req.workloads,
                schemes=req.schemes,
                overrides=req.overrides,
                runner=self.runner,
                progress=tracker,
            )
            self.table.mark_done(record, canonical_result_json(result))
        except Exception as exc:  # noqa: BLE001 - a job must never kill a worker
            self.table.mark_failed(
                record,
                error_envelope(
                    "execution-failed", f"{type(exc).__name__}: {exc}"
                ),
            )

    # ------------------------------------------------------------------
    def events(
        self,
        record: JobRecord,
        poll: float = 0.05,
        heartbeat: float = 10.0,
        last_event_id: Optional[int] = None,
    ) -> Iterator[Tuple[str, Optional[Dict], Optional[int]]]:
        """Yield ``(event, payload, event_id)`` for one job's SSE stream.

        Opens with a ``summary`` event, emits a ``progress`` event per
        observed change (tracker-version driven — the generator blocks
        on the tracker's condition, not a busy loop), a ``heartbeat``
        (rendered as an SSE comment) after ``heartbeat`` quiet seconds,
        and ends with the terminal ``done``/``failed`` event — preceded by
        a frame with the final counters whenever the job finished after
        the stream's last progress frame.

        ``event_id`` is the tracker's progress version — the handler
        writes it as the SSE ``id:`` field.  A reconnecting client sends
        the last id it saw (``Last-Event-ID``); every missed version
        still in the tracker's bounded history is replayed first, so a
        dropped connection loses no progress frames.
        """
        yield "summary", record.summary(), None
        last_beat = time.monotonic()
        seen = None
        if last_event_id is not None and record.tracker is not None:
            for snap in record.tracker.history_since(last_event_id):
                yield "progress", {"state": record.state, "progress": snap}, \
                    snap["version"]
                seen = (record.state, snap["version"])
                last_beat = time.monotonic()
        while True:
            state = record.state
            if state in (DONE, FAILED):
                tracker = record.tracker
                snap = tracker.snapshot() if tracker else None
                final_id = snap["version"] if snap else None
                if seen is not None and final_id != seen[1]:
                    # The job finished between two polls: its last counters
                    # still precede the terminal event.
                    yield "progress", {"state": state, "progress": snap}, final_id
                yield ("done" if state == DONE else "failed"), \
                    record.summary(), final_id
                return
            tracker = record.tracker
            snap = tracker.snapshot() if tracker is not None else None
            cur = (state, snap["version"] if snap else None)
            if cur != seen:
                seen = cur
                yield "progress", {"state": state, "progress": snap}, \
                    (snap["version"] if snap else None)
                last_beat = time.monotonic()
            elif time.monotonic() - last_beat >= heartbeat:
                yield "heartbeat", None, None
                last_beat = time.monotonic()
            if tracker is not None and snap is not None:
                tracker.wait_for_change(snap["version"], timeout=poll)
            else:
                time.sleep(poll)

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """The GET /v1/stats body."""
        with self._pending_cond:
            pending = self._pending
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "state": "draining" if self._draining.is_set() else "running",
            "workers": self.workers,
            "max_queue": self.max_queue,
            "job_retention": self.job_retention,
            "queue_depth": pending,
            "queued": self.table.queued_count(),
            "durable": self.table.store is not None,
            "runner_jobs": self.runner.jobs,
            "cache_dir": (
                str(self.runner.cache.root) if self.runner.cache else None
            ),
            "jobs": self.table.counters(),
            "runner": self.runner.stats.to_dict(),
            "pool": self.runner.pool_info(),
        }


class ServeHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the bound :class:`ExperimentService`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    service: ExperimentService  # bound by make_server
    quiet = True
    #: SSE pacing knobs (class-level so tests can shrink the heartbeat).
    sse_poll = 0.05
    sse_heartbeat = 10.0

    # ------------------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if not self.quiet:
            super().log_message(fmt, *args)

    def _send_json(self, status: int, body: Dict) -> None:
        self._send_bytes(status, json.dumps(body).encode())

    def _send_bytes(
        self, status: int, blob: bytes,
        content_type: str = "application/json",
        retry_after: Optional[float] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        self.end_headers()
        self.wfile.write(blob)

    def _send_error_envelope(
        self, status: int, code: str, message: str, **details
    ) -> None:
        self._send_json(status, error_envelope(code, message, **details))

    def _send_serve_error(self, exc: ServeError) -> None:
        self._send_bytes(
            exc.status,
            json.dumps(exc.envelope()).encode(),
            retry_after=exc.retry_after,
        )

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif path == "/v1/stats":
                self._send_json(200, self.service.stats())
            elif path == "/v1/jobs":
                self._send_json(
                    200,
                    {"jobs": [r.summary() for r in self.service.table.all()]},
                )
            elif path.startswith("/v1/jobs/"):
                self._get_job(path[len("/v1/jobs/"):])
            else:
                self._send_error_envelope(
                    404, "not-found", f"no route for GET {path}"
                )
        except ServeError as exc:
            self._send_serve_error(exc)

    def _get_job(self, rest: str) -> None:
        want_result = rest.endswith("/result")
        want_events = rest.endswith("/events")
        if want_result:
            job_id = rest[:-len("/result")]
        elif want_events:
            job_id = rest[:-len("/events")]
        else:
            job_id = rest
        record = self.service.table.get(job_id)
        if record is None:
            self._send_error_envelope(
                404, "unknown-job", f"no job with id {job_id!r}"
            )
            return
        if want_events:
            self._stream_job_events(record)
            return
        if not want_result:
            self._send_json(200, record.summary())
            return
        if record.state == DONE:
            self._send_bytes(200, record.result_json.encode())
        elif record.state == FAILED:
            self._send_json(500, record.error)
        else:
            self._send_error_envelope(
                409, "job-not-finished",
                f"job {job_id} is {record.state}; poll /v1/jobs/{job_id}",
                state=record.state,
            )

    def _stream_job_events(self, record: JobRecord) -> None:
        """GET /v1/jobs/<id>/events — chunked-by-close SSE stream.

        No Content-Length: the stream ends when the terminal event has
        been written and the connection closes (``Connection: close``).
        A client that half-closes mid-stream raises a broken-pipe out of
        the write; that ends *this connection's* thread quietly — the
        worker pool and every other connection are untouched.

        Progress frames carry an SSE ``id:`` (the tracker's progress
        version); a reconnecting client replays the gap by sending it
        back as ``Last-Event-ID`` (``ServeClient.stream`` does this
        automatically).
        """
        last_event_id: Optional[int] = None
        raw_id = self.headers.get("Last-Event-ID")
        if raw_id is not None:
            try:
                last_event_id = int(raw_id)
            except ValueError:
                last_event_id = None  # unparseable: full live stream
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        try:
            for event, payload, event_id in self.service.events(
                record, poll=self.sse_poll, heartbeat=self.sse_heartbeat,
                last_event_id=last_event_id,
            ):
                if event == "heartbeat":
                    frame = b": heartbeat\n\n"
                else:
                    id_line = f"id: {event_id}\n" if event_id is not None else ""
                    frame = (
                        f"{id_line}event: {event}\n"
                        f"data: {json.dumps(payload)}\n\n"
                    ).encode()
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away mid-stream; nothing else to do

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/v1/experiments":
            self._post_experiment()
        elif path == "/v1/shutdown":
            self._send_json(200, {"status": "draining"})
            threading.Thread(
                target=_graceful_shutdown,
                args=(self.server, self.service),
                daemon=True,
            ).start()
        else:
            self._send_error_envelope(
                404, "not-found", f"no route for POST {path}"
            )

    def _post_experiment(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0:
            self._send_error_envelope(
                400, "invalid-request", "a JSON body is required"
            )
            return
        if length > MAX_BODY_BYTES:
            self._send_error_envelope(
                413, "payload-too-large",
                f"body exceeds {MAX_BODY_BYTES} bytes",
            )
            return
        try:
            payload = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error_envelope(
                400, "invalid-json", f"body is not valid JSON: {exc}"
            )
            return
        try:
            status, body = self.service.submit(payload)
        except ServeError as exc:
            self._send_serve_error(exc)
            return
        self._send_json(status, body)


def _graceful_shutdown(
    server: ThreadingHTTPServer,
    service: ExperimentService,
    timeout: float = 60.0,
) -> None:
    """Drain in-flight jobs (refusing new ones), then stop the server."""
    service.drain(timeout=timeout)
    server.shutdown()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    cache_dir=None,
    workers: int = 2,
    runner: Optional[Runner] = None,
    quiet: bool = True,
    max_queue: Optional[int] = DEFAULT_MAX_QUEUE,
    retry_after: float = DEFAULT_RETRY_AFTER,
    durable: bool = True,
    execution: Optional[ExecutionPolicy] = None,
    job_retention: Optional[float] = None,
) -> Tuple[ThreadingHTTPServer, ExperimentService]:
    """Build (but do not start) the HTTP server + service pair.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``).  The caller owns the lifecycle::

        server, service = make_server(port=0)
        service.start()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown(); service.stop()
    """
    service = ExperimentService(
        jobs=jobs, cache_dir=cache_dir, workers=workers, runner=runner,
        max_queue=max_queue, retry_after=retry_after, durable=durable,
        execution=execution, job_retention=job_retention,
    )
    handler = type(
        "BoundServeHandler", (ServeHandler,),
        {"service": service, "quiet": quiet},
    )
    server = _Server((host, port), handler)
    return server, service


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    cache_dir=None,
    workers: int = 2,
    quiet: bool = True,
    announce=print,
    max_queue: Optional[int] = DEFAULT_MAX_QUEUE,
    execution: Optional[ExecutionPolicy] = None,
    job_retention: Optional[float] = None,
) -> int:
    """Run the service until shutdown (the ``cli serve`` entry point).

    Announces ``serving on http://host:port`` (flushed immediately, so
    wrappers that spawned the process can scrape the ephemeral port),
    then blocks in ``serve_forever``.  Returns 0 on a clean shutdown —
    Ctrl-C, ``POST /v1/shutdown``, or SIGTERM; the latter two drain
    in-flight jobs (new submissions get 503 ``draining``) before the
    process exits, and the durable job table keeps every record
    answerable after a restart on the same cache dir.
    """
    server, service = make_server(
        host=host, port=port, jobs=jobs, cache_dir=cache_dir,
        workers=workers, quiet=quiet, max_queue=max_queue,
        execution=execution, job_retention=job_retention,
    )

    def _on_sigterm(signum, frame) -> None:
        # The handler must not block: drain + shutdown on a side thread
        # while the main thread keeps running serve_forever until the
        # shutdown lands.
        threading.Thread(
            target=_graceful_shutdown, args=(server, service), daemon=True
        ).start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread: embedding caller owns signals

    bound_host, bound_port = server.server_address[:2]
    cache_note = (
        service.runner.cache.root if service.runner.cache else "disabled"
    )
    pool_note = service.runner.pool_info().get("backend", "local")
    announce(
        f"serving on http://{bound_host}:{bound_port}  "
        f"(workers={service.workers}, runner jobs={service.runner.jobs}, "
        f"pool={pool_note}, max queue={service.max_queue}, "
        f"cache={cache_note})",
        flush=True,
    )
    service.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0
