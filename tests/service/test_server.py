"""HTTP end-to-end: the /v1 job API over a live ThreadingHTTPServer."""

import json
import socket
import threading

import pytest

from repro.api import JobOutcome, JobSpec, register_kind, unregister_kind
from repro.core import GenericReport
from repro.exec.cancel import check_cancelled
from repro.service import (
    JobScheduler,
    ServiceClient,
    ServiceClientError,
    serve_background,
    shutdown_server,
)


class EchoKind:
    """Instant job kind echoing its params (optionally gated)."""

    def __init__(self, kind: str, gated: bool = False):
        self.kind = kind
        self.gated = gated
        self.release = threading.Event()
        self.started = threading.Event()
        register_kind(kind, self)

    def __call__(self, spec, ctx):
        self.started.set()
        if self.gated:
            while not self.release.wait(timeout=0.01):
                check_cancelled()
        return JobOutcome(report=GenericReport(
            kind=self.kind, payload={"echo": dict(spec.params)}))

    def close(self):
        self.release.set()
        unregister_kind(self.kind)


@pytest.fixture
def service():
    scheduler = JobScheduler(workers=2, max_queue=8)
    server, thread = serve_background(port=0, scheduler=scheduler)
    client = ServiceClient(port=server.server_address[1])
    yield client, scheduler
    shutdown_server(server, thread)


class TestBasicEndpoints:
    def test_healthz(self, service):
        client, _ = service
        payload = client.healthz()
        assert payload["ok"] is True
        assert "counts" in payload["stats"]

    def test_kinds_lists_producers(self, service):
        client, _ = service
        assert {"hls", "flow", "characterize", "seu",
                "mega"} <= set(client.kinds())

    def test_unknown_endpoint_404(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as info:
            client._json("GET", "/v1/nonsense")
        assert info.value.status == 404

    def test_unknown_job_404(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as info:
            client.job("j-999999")
        assert info.value.status == 404
        status, _ = client.report("j-999999")
        assert status == 404


class TestSubmitAndReport:
    def test_submit_accepted_then_report_200(self, service):
        client, _ = service
        echo = EchoKind("http-echo")
        try:
            job = client.submit(JobSpec(kind="http-echo",
                                        params={"x": 1}))
            assert job["state"] in ("queued", "running", "succeeded")
            final = client.wait(job["id"], timeout_s=30.0)
            assert final["state"] == "succeeded"
            assert final["exit_code"] == 0
            status, text = client.report(job["id"], wait_s=10.0)
            assert status == 200
            envelope = json.loads(text)
            assert envelope["kind"] == "http-echo"
            assert envelope["payload"] == {"echo": {"x": 1}}
            assert "schema_version" in envelope
        finally:
            echo.close()

    def test_malformed_spec_400(self, service):
        client, _ = service
        status, raw = client._request(
            "POST", "/v1/jobs", body={"kind": "", "params": {}})
        assert status == 400
        assert "error" in json.loads(raw)

    def test_unknown_field_400(self, service):
        client, _ = service
        status, raw = client._request(
            "POST", "/v1/jobs",
            body={"kind": "seu", "bogus_field": 1})
        assert status == 400
        assert "unknown" in json.loads(raw)["error"]

    def test_unknown_kind_fails_job_with_400(self, service):
        client, _ = service
        job = client.submit(JobSpec(kind="never-registered"))
        final = client.wait(job["id"], timeout_s=30.0)
        assert final["state"] == "failed"
        status, text = client.report(job["id"], wait_s=5.0)
        # JobSpecError at run time maps to USAGE -> 400.
        assert status == 400
        assert "unknown job kind" in json.loads(text)["error"]

    def test_ignored_content_param_fails_job_with_400(self, service):
        client, _ = service
        job = client.submit(JobSpec(kind="hls", params={
            "source": "int f(int x) { return x; }", "top": "f",
            "library": "not-a-real-library"}))
        final = client.wait(job["id"], timeout_s=30.0)
        assert final["state"] == "failed"
        status, text = client.report(job["id"], wait_s=5.0)
        assert status == 400
        assert "library" in json.loads(text)["error"]

    def test_report_while_running_is_202(self, service):
        client, _ = service
        gated = EchoKind("http-gated", gated=True)
        try:
            job = client.submit(JobSpec(kind="http-gated"))
            assert gated.started.wait(timeout=10.0)
            status, text = client.report(job["id"])
            assert status == 202
            assert json.loads(text)["state"] == "running"
            gated.release.set()
            status, _ = client.report(job["id"], wait_s=10.0)
            assert status == 200
        finally:
            gated.close()


class TestBackpressureHTTP:
    def test_queue_overflow_429(self):
        scheduler = JobScheduler(workers=1, max_queue=1)
        server, thread = serve_background(port=0, scheduler=scheduler)
        client = ServiceClient(port=server.server_address[1])
        gated = EchoKind("http-429", gated=True)
        try:
            client.submit(JobSpec(kind="http-429", params={"n": 0}))
            assert gated.started.wait(timeout=10.0)
            client.submit(JobSpec(kind="http-429", params={"n": 1}))
            with pytest.raises(ServiceClientError) as info:
                client.submit(JobSpec(kind="http-429", params={"n": 2}))
            assert info.value.status == 429
            assert info.value.payload.get("retry_after") == 1
        finally:
            gated.close()
            shutdown_server(server, thread)


class TestCancelHTTP:
    def test_cancel_running_job_410_report(self, service):
        client, _ = service
        gated = EchoKind("http-cancel", gated=True)
        try:
            job = client.submit(JobSpec(kind="http-cancel"))
            assert gated.started.wait(timeout=10.0)
            assert client.cancel(job["id"])
            final = client.wait(job["id"], timeout_s=30.0)
            assert final["state"] == "cancelled"
            status, text = client.report(job["id"])
            assert status == 410
            assert json.loads(text)["state"] == "cancelled"
        finally:
            gated.close()


class TestEventsHTTP:
    def test_event_pages_are_incremental(self, service):
        client, _ = service
        echo = EchoKind("http-events")
        try:
            job = client.submit(JobSpec(kind="http-events"))
            client.wait(job["id"], timeout_s=30.0)
            page = client.events(job["id"], wait_s=5.0)
            assert page["terminal"]
            names = [event["event"] for event in page["events"]]
            assert names[0] == "submitted"
            assert names[-1] == "succeeded"
            again = client.events(job["id"], since=page["next"])
            assert again["events"] == []
            assert again["terminal"]
        finally:
            echo.close()


class TestListHTTP:
    def test_list_filters(self, service):
        client, _ = service
        echo = EchoKind("http-list")
        try:
            specs = [JobSpec(kind="http-list", params={"n": n},
                             tenant=tenant)
                     for n, tenant in enumerate(["alice", "bob",
                                                 "alice"])]
            for spec in specs:
                job = client.submit(spec)
                client.wait(job["id"], timeout_s=30.0)
            alice = client.jobs(tenant="alice")
            assert len(alice) == 2
            assert all(j["spec"]["tenant"] == "alice" for j in alice)
            done = client.jobs(state="succeeded")
            assert len(done) >= 3
            status, _ = client._request("GET", "/v1/jobs?state=bogus")
            assert status == 400
        finally:
            echo.close()


class TestCoalescingHTTP:
    def test_concurrent_identical_submissions_byte_identical(self):
        scheduler = JobScheduler(workers=2, max_queue=16)
        server, thread = serve_background(port=0, scheduler=scheduler)
        port = server.server_address[1]
        gated = EchoKind("http-coal", gated=True)
        try:
            spec_json = JobSpec(kind="http-coal",
                                params={"w": 9}).to_json()
            ids, errors = [], []
            barrier = threading.Barrier(6)

            def worker(tenant):
                local = ServiceClient(port=port)
                body = dict(spec_json, tenant=tenant)
                barrier.wait()
                try:
                    status, raw = local._request("POST", "/v1/jobs",
                                                 body=body)
                    assert status == 202, raw
                    ids.append(json.loads(raw)["job"]["id"])
                except Exception as error:  # surfaced after join
                    errors.append(error)

            threads = [threading.Thread(target=worker,
                                        args=(f"t{i}",))
                       for i in range(6)]
            for thread_ in threads:
                thread_.start()
            assert gated.started.wait(timeout=10.0)
            gated.release.set()
            for thread_ in threads:
                thread_.join()
            assert not errors
            client = ServiceClient(port=port)
            bodies = set()
            for job_id in ids:
                client.wait(job_id, timeout_s=30.0)
                status, text = client.report(job_id, wait_s=10.0)
                assert status == 200
                bodies.add(text)
            assert len(bodies) == 1
            assert scheduler.counts["computed"] == 1
            coalesced = scheduler.counts["coalesced"]
            warm = scheduler.counts["warm_hits"]
            assert coalesced + warm == 5
        finally:
            gated.close()
            shutdown_server(server, thread)


def raw_exchange(port, request):
    """Send raw request bytes; return (status, headers, body) of the
    reply.  Reads to end of stream, so it returns only once the server
    has closed the connection (a kept-alive one times out instead)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("iso-8859-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


class TestRequestFraming:
    """Requests whose body the server cannot frame are refused and the
    connection closed, and every error reply is JSON."""

    @pytest.fixture
    def port(self, service):
        return service[0].port

    def test_transfer_encoding_is_refused(self, service, port):
        body = json.dumps(JobSpec(kind="flow", params={}).to_json())
        chunked = f"{len(body):x}\r\n{body}\r\n0\r\n\r\n"
        status, headers, reply = raw_exchange(port, (
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            "Transfer-Encoding: chunked\r\n\r\n" + chunked).encode())
        assert status == 501
        assert headers["connection"] == "close"
        assert "Transfer-Encoding" in json.loads(reply)["error"]
        assert service[1].stats()["counts"]["submitted"] == 0

    def test_conflicting_content_length_is_refused(self, service, port):
        status, headers, reply = raw_exchange(port, (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 7\r\n\r\n"
            b"{}12345"))
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(reply) == \
            {"error": "conflicting Content-Length headers"}
        # A repeated, equal Content-Length frames the body as one does.
        status, _, reply = raw_exchange(port, (
            b"GET /v1/kinds HTTP/1.1\r\nHost: x\r\nConnection: close"
            b"\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n"))
        assert status == 200
        assert "kinds" in json.loads(reply)

    @pytest.mark.parametrize("request_bytes, status, fragment", [
        (b'GET /v1/"quoted" HTTP/1.1 extra\r\n\r\n', 400,
         'GET /v1/"quoted" HTTP/1.1 extra'),
        (b"PUT /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n", 501, "PUT"),
        (b"GET /v1/kinds HTTP/1.1\r\n"
         + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n",
         431, "Request Header Fields Too Large"),
    ], ids=["bad-request-line", "unsupported-method", "too-many-headers"])
    def test_stdlib_error_replies_are_json(self, port, request_bytes,
                                           status, fragment):
        got, headers, reply = raw_exchange(port, request_bytes)
        assert got == status
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert fragment in json.loads(reply)["error"]
