"""Flow-as-a-service HTTP surface (stdlib ``http.server`` only).

A thin, versioned JSON API over one :class:`JobScheduler`:

====== ============================== ====================================
Method Path                           Meaning
====== ============================== ====================================
GET    ``/v1/healthz``                liveness + scheduler counters
GET    ``/v1/kinds``                  registered job kinds
POST   ``/v1/jobs``                   submit a JobSpec (202 / 400 / 429)
GET    ``/v1/jobs``                   list jobs (``?tenant=``, ``?state=``)
GET    ``/v1/jobs/<id>``              one job's status
GET    ``/v1/jobs/<id>/events``       event log (``?since=N&wait=S`` poll)
GET    ``/v1/jobs/<id>/report``       final wire report (``?wait=S``)
POST   ``/v1/jobs/<id>/cancel``       cancel queued/running job
GET    ``/v1/stats``                  scheduler/cache/inflight statistics
====== ============================== ====================================

The report endpoint maps the job's :class:`~repro.api.ExitCode` onto the
HTTP status (see :func:`repro.api.http_status`); queue overflow is 429,
a cancelled job's report is 410, a still-running job's report is 202.
The response body of a successful report is the *raw wire text* from
``report_json_text`` — coalesced subscribers receive byte-identical
bodies, which the bench and CI smoke verify literally.
"""

from __future__ import annotations

import json
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..api import JobSpec, JobSpecError, http_status, job_kinds
from .jobs import (
    JobState,
    QueueFullError,
    ServiceClosedError,
    UnknownJobError,
)
from .scheduler import JobScheduler

#: Maximum accepted request body (a JobSpec is small; anything larger
#: is abuse).
MAX_BODY_BYTES = 1 << 20
#: Longest long-poll wait a client may request, seconds.
MAX_WAIT_S = 30.0
#: Longest accepted header line and most accepted header lines (the
#: stdlib parser's limits).
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100


class JobServiceHandler(BaseHTTPRequestHandler):
    """Request handler bound to the server's scheduler."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-flow-service/1"
    # A buffered writer sends headers and body in one segment;
    # ``handle_one_request`` flushes it after every request.  A body
    # past the buffer is still written in a second send, which Nagle
    # would hold back for the client's delayed ACK (40 ms on Linux) on
    # a kept-alive connection.
    wbufsize = -1
    disable_nagle_algorithm = True

    # The scheduler rides on the server object (set by make_server).
    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def parse_request(self) -> bool:
        """Parse the request line and headers (HTTP/1.0 and 1.1 only).

        Replaces the stdlib parser, which builds an ``email`` message
        per request and was a third of a warm hit's server time.
        ``self.headers`` is a dict keyed by lower-case header name.  A
        body this parser cannot frame is refused and the connection
        closed: ``Transfer-Encoding`` (501) and ``Content-Length``
        headers that disagree (400).
        """
        self.command = None
        # Not the stdlib's HTTP/0.9 default: a reply to a malformed
        # request line still carries a status line and headers.
        self.request_version = self.protocol_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request {self.requestline!r}")
            return False
        self.command, self.path, self.request_version = words
        headers: Dict[str, str] = {}
        while True:
            line = self.rfile.readline(MAX_HEADER_LINE + 1)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > MAX_HEADER_LINE \
                    or len(headers) >= MAX_HEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE)
                return False
            name, _, value = str(line, "iso-8859-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" \
                    and headers.get(name, value) != value:
                self._error(400, "conflicting Content-Length headers")
                return False
            headers[name] = value
        if "transfer-encoding" in headers:
            self._error(501, "Transfer-Encoding is not supported")
            return False
        self.headers = headers  # type: ignore[assignment]
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            self.request_version == "HTTP/1.0"
            and connection != "keep-alive")
        if headers.get("expect", "").lower() == "100-continue" \
                and self.request_version == "HTTP/1.1":
            self.send_response_only(HTTPStatus.CONTINUE)
            self.end_headers()
            self.wfile.flush()
        return True

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        self._send(status, json.dumps(payload, sort_keys=True,
                                      separators=(",", ":")).encode())

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib's own error replies (bad request line, header or
        request-line limits, unsupported method) as JSON, like every
        other error, closing the connection as the stdlib does."""
        self.close_connection = True
        self._error(code, message or HTTPStatus(code).phrase)

    def _read_body(self) -> Optional[bytes]:
        """The request body, read whole so the next request on a kept-
        alive connection starts clean; None after an error reply (the
        connection then closes)."""
        try:
            length = int(self.headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                self._error(400, "bad Content-Length")
            else:
                self._error(413, "request body too large")
            return None
        return self.rfile.read(length) if length else b""

    @staticmethod
    def _json_object(raw: bytes) -> Tuple[Optional[Dict[str, Any]], str]:
        """(payload, error) of a JSON object request body."""
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            return None, "request body is not valid JSON"
        if not isinstance(payload, dict):
            return None, "request body must be a JSON object"
        return payload, ""

    def _query(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {name: values[-1]
                 for name, values in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    def _wait_s(self, query: Dict[str, str]) -> float:
        try:
            return min(max(float(query.get("wait", "0")), 0.0),
                       MAX_WAIT_S)
        except ValueError:
            return 0.0

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self._read_body() is None:
            return
        path, query = self._query()
        try:
            if path == "/v1/healthz":
                self._send_json(200, {"ok": True,
                                      "stats": self.scheduler.stats()})
            elif path == "/v1/kinds":
                self._send_json(200, {"kinds": list(job_kinds())})
            elif path == "/v1/stats":
                self._send_json(200, self.scheduler.stats())
            elif path == "/v1/jobs":
                self._list_jobs(query)
            elif path.startswith("/v1/jobs/"):
                self._job_route(path, query, method="GET")
            else:
                self._error(404, f"no such endpoint {path!r}")
        except UnknownJobError as error:
            self._error(404, str(error))

    def do_POST(self) -> None:  # noqa: N802
        raw = self._read_body()
        if raw is None:
            return
        path, query = self._query()
        try:
            if path == "/v1/jobs":
                self._submit_job(raw)
            elif path.startswith("/v1/jobs/") \
                    and path.endswith("/cancel"):
                job_id = path[len("/v1/jobs/"):-len("/cancel")]
                cancelled = self.scheduler.cancel(job_id)
                self._send_json(200, {"id": job_id,
                                      "cancelled": cancelled})
            else:
                self._error(404, f"no such endpoint {path!r}")
        except UnknownJobError as error:
            self._error(404, str(error))

    def _submit_job(self, raw: bytes) -> None:
        payload, problem = self._json_object(raw)
        if payload is None:
            self._error(400, problem)
            return
        try:
            spec = JobSpec.from_json(payload)
            record = self.scheduler.submit(spec)
        except JobSpecError as error:
            self._error(400, str(error))
            return
        except QueueFullError as error:
            self._send_json(429, {"error": str(error), "retry_after": 1})
            return
        except ServiceClosedError as error:
            self._error(503, str(error))
            return
        self._send_json(202, {"job": record.to_json()})

    def _list_jobs(self, query: Dict[str, str]) -> None:
        state: Optional[JobState] = None
        if "state" in query:
            try:
                state = JobState(query["state"])
            except ValueError:
                self._error(400, f"unknown state {query['state']!r}")
                return
        records = self.scheduler.jobs(tenant=query.get("tenant"),
                                      state=state)
        self._send_json(200, {"jobs": [r.to_json() for r in records]})

    def _job_route(self, path: str, query: Dict[str, str],
                   method: str) -> None:
        tail = path[len("/v1/jobs/"):]
        parts = tail.split("/")
        job_id = parts[0]
        if len(parts) == 1:
            record = self.scheduler.get(job_id)
            self._send_json(200, {"job": record.to_json()})
        elif len(parts) == 2 and parts[1] == "events":
            self._job_events(job_id, query)
        elif len(parts) == 2 and parts[1] == "report":
            self._job_report(job_id, query)
        else:
            self._error(404, f"no such endpoint {path!r}")

    def _job_events(self, job_id: str, query: Dict[str, str]) -> None:
        try:
            since = max(int(query.get("since", "0")), 0)
        except ValueError:
            self._error(400, "since must be an integer")
            return
        deadline = time.monotonic() + self._wait_s(query)
        while True:
            events, terminal = self.scheduler.events_since(job_id, since)
            if events or terminal or time.monotonic() >= deadline:
                self._send_json(200, {"id": job_id, "events": events,
                                      "next": since + len(events),
                                      "terminal": terminal})
                return
            time.sleep(0.02)

    def _job_report(self, job_id: str, query: Dict[str, str]) -> None:
        record = self.scheduler.get(job_id)
        record.done.wait(timeout=self._wait_s(query))
        if not record.terminal:
            self._send_json(202, {"id": job_id,
                                  "state": record.state.value})
            return
        if record.state is JobState.CANCELLED:
            self._send_json(410, {"id": job_id, "state": "cancelled",
                                  "error": record.error})
            return
        if record.state is JobState.FAILED:
            status = (http_status(record.exit_code)
                      if record.exit_code is not None else 500)
            self._send_json(status, {"id": job_id, "state": "failed",
                                     "error": record.error})
            return
        assert record.report_text is not None
        status = (http_status(record.exit_code)
                  if record.exit_code is not None else 200)
        self._send(status, record.report_text.encode("utf-8"))


class JobServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the scheduler for its handlers."""

    daemon_threads = True
    allow_reuse_address = True
    # Many clients connecting at once (the bench load generator's
    # threads) burst far past the stdlib default listen backlog of 5.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int],
                 scheduler: JobScheduler,
                 verbose: bool = False) -> None:
        super().__init__(address, JobServiceHandler)
        self.scheduler = scheduler
        self.verbose = verbose


def make_server(host: str = "127.0.0.1", port: int = 0,
                scheduler: Optional[JobScheduler] = None,
                **scheduler_options: Any) -> JobServer:
    """Build (but don't start) a server; port 0 picks a free port."""
    if scheduler is None:
        scheduler = JobScheduler(**scheduler_options)
    scheduler.start()
    return JobServer((host, port), scheduler)


def serve_background(host: str = "127.0.0.1", port: int = 0,
                     scheduler: Optional[JobScheduler] = None,
                     **scheduler_options: Any
                     ) -> Tuple[JobServer, threading.Thread]:
    """Start a server on a daemon thread (tests/benchmarks)."""
    server = make_server(host, port, scheduler, **scheduler_options)
    thread = threading.Thread(target=server.serve_forever,
                              name="job-server", daemon=True)
    thread.start()
    return server, thread


def shutdown_server(server: JobServer,
                    thread: Optional[threading.Thread] = None) -> None:
    """Stop serving, then stop the scheduler (cancels queued work)."""
    server.shutdown()
    server.server_close()
    if thread is not None:
        thread.join(timeout=5.0)
    server.scheduler.stop()


__all__ = ["JobServer", "JobServiceHandler", "MAX_WAIT_S",
           "make_server", "serve_background", "shutdown_server"]
