"""Fault-injection suite for the serve hardening layer.

Drives the real HTTP stack into its failure modes via the shared
harness in :mod:`serve_faults`: worker-killing faults mid-job, queue
overload (429 + ``Retry-After``), draining shutdown, durable-job
recovery across a restart on the same cache dir, and clients vanishing
mid-SSE.  The point of every test: the service *degrades*, never
collapses — jobs fail with envelopes, refusals carry backoff hints,
restarts answer for old job ids byte-identically, and no fault on one
connection or job ever reaches a worker or another client.
"""

import json
import threading
import time

import pytest
from serve_faults import (
    abrupt_sse_disconnect,
    faulty_api_run,
    live_service,
    raw_response,
    start_service,
)

import repro.api as api
from repro import faults as _faults
from repro.faults import make_schedule
from repro.serve import (
    DONE,
    FAILED,
    QUEUED,
    ServeClient,
    ServeError,
    ServeRequest,
    canonical_result_json,
)

#: A tiny but real simulation request (two SimJobs: baseline + triangel).
TINY = {
    "experiment": "fig10",
    "records": 2500,
    "workloads": ["mcf_inp"],
    "schemes": ["triangel"],
}


def distinct(i: int, records: int = 2000) -> dict:
    """The i-th member of a family of never-aliasing tiny requests."""
    return {**TINY, "records": records + 100 * i}


def teardown(server, service) -> None:
    server.shutdown()
    server.server_close()
    service.stop()


# ----------------------------------------------------------------------
# worker supervision: a job can never take a worker down
# ----------------------------------------------------------------------
class TestWorkerFaults:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(3)])
    def test_worker_killing_fault_fails_job_and_worker_survives(self, exc):
        with live_service(workers=1, durable=False) as (client, service):
            with faulty_api_run() as plan:
                plan.fail_with(exc)
                status, body = client.submit(TINY)
                assert status == 202
                summary = client.wait(body["job"]["id"])
            assert summary["state"] == "failed"
            assert summary["error"]["error"]["code"] == "worker-fault"
            assert type(exc).__name__ in summary["error"]["error"]["message"]
            # The worker thread absorbed the BaseException and lives on.
            assert all(t.is_alive() for t in service._threads)
            # The digest is re-runnable once the fault is gone: a failed
            # record never dedups, so the resubmission executes for real.
            status, body2 = client.submit(TINY)
            assert status == 202 and body2["deduped"] is False
            assert client.wait(body2["job"]["id"])["state"] == "done"

    def test_plain_exception_still_uses_execution_failed_envelope(self):
        # Driven through the unified repro.faults seam: the scheduled
        # serve.execute fault takes the same path as any real execution
        # error and lands in the execution-failed envelope.
        schedule = make_schedule(5, [
            dict(site="serve.execute", kind="error", at=1),
        ])
        with live_service(workers=1, durable=False) as (client, _):
            _faults.activate(schedule)
            try:
                _, body = client.submit(TINY)
                summary = client.wait(body["job"]["id"])
            finally:
                _faults.deactivate()
            assert summary["state"] == "failed"
            assert summary["error"]["error"]["code"] == "execution-failed"
            assert "serve.execute" in summary["error"]["error"]["message"]


# ----------------------------------------------------------------------
# admission control: bounded queue, 429 + Retry-After, draining
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_queue_full_gets_429_with_retry_after(self):
        server, service, url = start_service(
            workers=1, max_queue=2, retry_after=7.0, durable=False
        )
        client = ServeClient(url)
        try:
            with faulty_api_run() as plan:
                plan.hold()
                # One job occupies the single worker...
                _, running = client.submit(distinct(0))
                assert plan.entered.wait(timeout=10.0)
                # ...two more fill the bounded queue...
                for i in (1, 2):
                    status, _ = client.submit(distinct(i))
                    assert status == 202
                # ...and the next new request is refused, typed + hinted.
                status, headers, blob = raw_response(
                    url, "POST", "/v1/experiments",
                    json.dumps(distinct(3)).encode(),
                )
                assert status == 429
                err = json.loads(blob)["error"]
                assert err["code"] == "queue-full"
                assert err["details"]["max_queue"] == 2
                assert err["details"]["retry_after"] == 7.0
                assert headers["retry-after"] == "7"
                # Dedup onto in-flight work is NOT refused: reads and
                # coalescing keep working under overload.
                status, body = client.submit(distinct(1))
                assert (status, body["deduped"]) == (200, True)
                assert client.stats()["jobs"]["rejected_full"] == 1
                # Release the gate: everything admitted completes.
                plan.release()
                for i in (0, 1, 2):
                    job_id = ServeRequest.from_payload(distinct(i)).job_id()
                    assert client.wait(job_id)["state"] == "done"
            # Capacity freed: the refused request is admitted on retry
            # (the client-side backoff loop the bench overload mode uses).
            status, body = client.submit(distinct(3), retry_on_429=5)
            assert status == 202
            assert client.wait(body["job"]["id"])["state"] == "done"
        finally:
            teardown(server, service)

    def test_draining_refuses_new_work_but_serves_reads(self):
        with live_service(workers=1, durable=False) as (client, service):
            done_bytes = client.run(TINY)
            assert service.drain(timeout=30.0) is True
            # New work: 503 draining with a Retry-After hint.
            status, headers, blob = raw_response(
                client.base_url, "POST", "/v1/experiments",
                json.dumps(distinct(9)).encode(),
            )
            assert status == 503
            assert json.loads(blob)["error"]["code"] == "draining"
            assert "retry-after" in headers
            # Reads and dedup-to-done keep serving.
            status, body = client.submit(TINY)
            assert (status, body["deduped"]) == (200, True)
            assert client.result_bytes(body["job"]["id"]) == done_bytes
            assert client.stats()["state"] == "draining"
            assert client.stats()["jobs"]["rejected_draining"] == 1


# ----------------------------------------------------------------------
# durability: restart on the same cache dir, answer for old job ids
# ----------------------------------------------------------------------
class TestDurableRecovery:
    def test_restart_serves_done_job_byte_identically(self, tmp_path):
        cache = tmp_path / "cache"
        server1, service1, url1 = start_service(workers=1, cache_dir=cache)
        try:
            client1 = ServeClient(url1)
            first = client1.run(TINY)
            job_id = ServeRequest.from_payload(dict(TINY)).job_id()
        finally:
            teardown(server1, service1)

        server2, service2, url2 = start_service(workers=1, cache_dir=cache)
        try:
            client2 = ServeClient(url2)
            status, summary = client2.job(job_id)
            assert status == 200
            assert summary["state"] == DONE
            assert summary["recovered"] is True
            # Byte-identical result, with zero runner activity: the
            # durable table answers before the sim cache is even asked.
            assert client2.result_bytes(job_id) == first
            stats = client2.stats()
            assert stats["durable"] is True
            assert stats["jobs"]["recovered"] >= 1
            assert stats["runner"]["executed"] == 0
            assert stats["runner"]["cache_hits"] == 0
            # A duplicate submission dedups onto the recovered record.
            status, body = client2.submit(TINY)
            assert (status, body["deduped"]) == (200, True)
        finally:
            teardown(server2, service2)

    def test_restart_reruns_interrupted_jobs(self, tmp_path):
        cache = tmp_path / "cache"
        # Workers never start: the submission is persisted QUEUED and
        # the process "dies" with the job undone — the crash picture.
        server1, service1, url1 = start_service(
            start_workers=False, workers=1, cache_dir=cache
        )
        try:
            status, body = ServeClient(url1).submit(TINY)
            assert status == 202
            job_id = body["job"]["id"]
        finally:
            server1.shutdown()
            server1.server_close()

        server2, service2, url2 = start_service(workers=1, cache_dir=cache)
        try:
            client2 = ServeClient(url2)
            # Recovered and re-enqueued on start — first poll already
            # sees the job, and it runs to completion without any
            # resubmission.
            summary = client2.wait(job_id, timeout=60.0)
            assert summary["state"] == DONE
            assert summary["recovered"] is True
            served = client2.result_bytes(job_id)
            direct = api.run("fig10", records=2500, workloads=["mcf_inp"],
                             schemes=["triangel"])
            assert served == canonical_result_json(direct).encode()
        finally:
            teardown(server2, service2)

    def test_running_jobs_recover_as_queued(self, tmp_path):
        """A record persisted mid-run (state RUNNING) restarts as QUEUED."""
        cache = tmp_path / "cache"
        server1, service1, url1 = start_service(workers=1, cache_dir=cache)
        try:
            client1 = ServeClient(url1)
            with faulty_api_run() as plan:
                plan.hold()
                _, body = client1.submit(TINY)
                job_id = body["job"]["id"]
                assert plan.entered.wait(timeout=10.0)
                # The worker is inside the job: the durable record says
                # RUNNING.  Kill the whole stack without letting it end.
                server1.shutdown()
                server1.server_close()
                plan.release()  # unblock the orphaned worker thread
        finally:
            service1.stop()

        server2, service2, url2 = start_service(workers=1, cache_dir=cache)
        try:
            client2 = ServeClient(url2)
            summary = client2.wait(job_id, timeout=60.0)
            assert summary["state"] == DONE
        finally:
            teardown(server2, service2)

    def test_retention_prunes_old_terminal_jobs_across_restart(self, tmp_path):
        """--job-retention: aged-out DONE records are pruned at recovery
        (table entry and durable file both gone; the id answers 404)."""
        cache = tmp_path / "cache"
        server1, service1, url1 = start_service(workers=1, cache_dir=cache)
        try:
            client1 = ServeClient(url1)
            client1.run(TINY)
            job_id = client1.jobs()["jobs"][0]["id"]
        finally:
            teardown(server1, service1)
        store_dir = cache / "serve-jobs"
        for path in store_dir.glob("*.json"):
            rec = json.loads(path.read_text())
            rec["finished_at"] = time.time() - 3600
            path.write_text(json.dumps(rec))
        server2, service2, url2 = start_service(
            workers=1, cache_dir=cache, job_retention=60.0
        )
        try:
            client2 = ServeClient(url2)
            status, _ = client2.job(job_id)
            assert status == 404
            assert service2.table.counters()["pruned"] == 1
            assert not list(store_dir.glob("*.json"))
            assert client2.stats()["job_retention"] == 60.0
        finally:
            teardown(server2, service2)

    def test_periodic_gc_prunes_live_table(self):
        """The retention GC thread ages terminal records out of a
        running service without touching live work."""
        with live_service(
            workers=1, durable=False, job_retention=0.2
        ) as (client, service):
            client.run(TINY)
            deadline = time.monotonic() + 10.0
            while (
                service.table.counters()["done"] > 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            counters = service.table.counters()
            assert counters["done"] == 0
            assert counters["pruned"] >= 1

    def test_corrupt_store_entries_never_block_boot(self, tmp_path):
        cache = tmp_path / "cache"
        jobs_dir = cache / "serve-jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / ("a" * 64 + ".json")).write_text("{torn write")
        (jobs_dir / ("b" * 64 + ".json")).write_text('{"digest": "b"}')
        server, service, url = start_service(workers=1, cache_dir=cache)
        try:
            client = ServeClient(url)
            assert client.health() == (200, {"status": "ok"})
            assert client.run(TINY)  # fully functional despite the debris
        finally:
            teardown(server, service)


# ----------------------------------------------------------------------
# streaming: SSE progress, heartbeats, and clients that vanish
# ----------------------------------------------------------------------
class TestStreaming:
    def test_stream_yields_progress_then_done(self):
        with live_service(workers=1) as (client, service):
            with faulty_api_run() as plan:
                # Hold the job until the stream is open: a job that
                # finishes first streams only summary -> done.
                plan.hold()
                _, body = client.submit(TINY)
                job_id = body["job"]["id"]
                assert plan.entered.wait(timeout=10.0)
                stream = client.stream(job_id)
                events = [next(stream)]
                plan.release()
                events += list(stream)
            kinds = [kind for kind, _ in events]
            assert kinds[0] == "summary"
            assert kinds[-1] == "done"
            assert "progress" in kinds
            progressed = [p for k, p in events if k == "progress"]
            assert progressed[-1]["progress"]["done"] > 0
            final = events[-1][1]
            assert final["state"] == "done"
            # The stream on an already-done job is summary -> done.
            again = list(client.stream(job_id))
            assert [k for k, _ in again] == ["summary", "done"]

    def test_stream_of_failed_job_ends_with_failed_event(self):
        with live_service(workers=1, durable=False) as (client, _):
            with faulty_api_run() as plan:
                plan.fail_with(RuntimeError("boom"))
                _, body = client.submit(TINY)
                events = list(client.stream(body["job"]["id"]))
            assert events[-1][0] == "failed"
            assert events[-1][1]["error"]["error"]["code"] == "execution-failed"

    def test_resumable_stream_replays_missed_progress(self):
        # A reconnecting client sends Last-Event-ID (the tracker version
        # of the last progress frame it saw); the server replays every
        # missed retained version before the terminal event, gaplessly
        # and in order.
        with live_service(workers=1) as (client, service):
            _, body = client.submit(TINY)
            job_id = body["job"]["id"]
            client.wait(job_id)
            record = service.table.get(job_id)
            total = record.tracker.snapshot()["version"]
            assert total >= 2
            events = list(client.stream(job_id, last_event_id=1))
            kinds = [kind for kind, _ in events]
            assert kinds[0] == "summary" and kinds[-1] == "done"
            versions = [
                p["progress"]["version"] for k, p in events if k == "progress"
            ]
            assert versions == list(range(2, total + 1))

    def test_stream_unknown_job_raises_typed_error(self):
        with live_service(workers=1) as (client, _):
            with pytest.raises(ServeError) as exc:
                list(client.stream("feedfacefeedfacefeedfacefeedface"))
            assert exc.value.status == 404
            assert exc.value.code == "unknown-job"

    def test_heartbeats_flow_while_job_is_quiet(self):
        server, service, url = start_service(workers=1, durable=False)
        server.RequestHandlerClass.sse_heartbeat = 0.05
        try:
            with faulty_api_run() as plan:
                plan.hold()
                client = ServeClient(url)
                _, body = client.submit(TINY)
                job_id = body["job"]["id"]
                assert plan.entered.wait(timeout=10.0)
                # Raw read: heartbeat comments are on the wire while the
                # job sits held (the client API swallows them).
                seen = abrupt_sse_disconnect(url, job_id,
                                             until=b": heartbeat")
                assert b": heartbeat" in seen
                plan.release()
                assert client.wait(job_id)["state"] == "done"
        finally:
            teardown(server, service)

    def test_mid_stream_disconnect_never_kills_a_worker(self):
        server, service, url = start_service(workers=2, durable=False)
        try:
            client = ServeClient(url)
            with faulty_api_run() as plan:
                plan.hold()
                _, body = client.submit(TINY)
                job_id = body["job"]["id"]
                assert plan.entered.wait(timeout=10.0)
                # Several clients vanish mid-stream while the job runs —
                # one with barely a byte read, one mid-frames.
                for min_bytes in (1, 200):
                    assert abrupt_sse_disconnect(url, job_id, min_bytes)
                plan.release()
                # The service is unharmed: workers alive, health green,
                # the job completes, and fresh streams still work.
                assert all(t.is_alive() for t in service._threads)
                assert client.health() == (200, {"status": "ok"})
                assert client.wait(job_id)["state"] == "done"
            events = list(client.stream(job_id))
            assert events[-1][0] == "done"
        finally:
            teardown(server, service)


# ----------------------------------------------------------------------
# client transport hardening
# ----------------------------------------------------------------------
class TestClientTransport:
    def test_connection_failure_raises_typed_serve_error(self):
        # Nothing listens here; the client must retry then raise typed.
        client = ServeClient("http://127.0.0.1:9", timeout=0.5,
                             retries=1, backoff=0.01)
        start = time.monotonic()
        with pytest.raises(ServeError) as exc:
            client.health()
        assert time.monotonic() - start < 5.0
        assert exc.value.code == "connection-failed"
        assert exc.value.details["attempts"] == 2
        envelope = exc.value.envelope()
        assert envelope["error"]["code"] == "connection-failed"

    def test_transport_retry_rides_out_a_reset(self, monkeypatch):
        """A connection reset on attempt 1 is retried transparently."""
        import urllib.request as _ur

        with live_service(workers=1) as (client, _):
            real_urlopen = _ur.urlopen
            calls = {"n": 0}

            def flaky_urlopen(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ConnectionResetError("peer reset mid-handshake")
                return real_urlopen(*args, **kwargs)

            monkeypatch.setattr(_ur, "urlopen", flaky_urlopen)
            flaky_client = ServeClient(client.base_url, timeout=5.0,
                                       retries=2, backoff=0.01)
            assert flaky_client.health() == (200, {"status": "ok"})
            assert calls["n"] == 2  # one reset, one success


# ----------------------------------------------------------------------
# graceful end-to-end: queued work survives a drain-based shutdown
# ----------------------------------------------------------------------
class TestDrainShutdown:
    def test_drain_finishes_queued_jobs_before_stopping(self):
        with live_service(workers=1, durable=False) as (client, service):
            with faulty_api_run() as plan:
                plan.hold()
                ids = []
                for i in range(3):
                    status, body = client.submit(distinct(i))
                    assert status == 202
                    ids.append(body["job"]["id"])
                assert plan.entered.wait(timeout=10.0)
                drained = {"value": None}

                def drain():
                    drained["value"] = service.drain(timeout=60.0)

                t = threading.Thread(target=drain)
                t.start()
                time.sleep(0.05)
                assert service.draining  # refusing, but still finishing
                plan.release()
                t.join(timeout=60.0)
            assert drained["value"] is True
            for job_id in ids:
                status, summary = client.job(job_id)
                assert (status, summary["state"]) == (200, DONE)
            counters = client.stats()["jobs"]
            assert counters[QUEUED] == 0 and counters[FAILED] == 0
