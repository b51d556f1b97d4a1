"""Minimal stdlib client for the job service (``socket`` only).

Used by the CLI (``repro submit`` / ``repro jobs``), the benchmark load
generator and the tests.  Each thread using a :class:`ServiceClient`
keeps one HTTP/1.1 keep-alive connection to the server, so a client
object may be shared between threads, and synthetic load comes from
many threads each holding its own.

The client speaks only the subset of HTTP/1.1 the job server emits:
every response carries ``Content-Length``.  A request is one
``sendall`` and a response is read with two buffered reads, which
costs about a third of ``http.client``'s header machinery on a warm
hit.  A reused connection that the server has closed meanwhile is
reopened once; a fresh connection that fails is an error.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from ..api import JobSpec


class _StaleConnection(Exception):
    """A reused connection was closed by the server before replying."""


class ServiceClientError(Exception):
    """Transport- or protocol-level client failure."""

    def __init__(self, message: str, status: int = 0,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServiceClient:
    """Talks the ``/v1`` job API to one server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._local = threading.local()

    # -- transport ---------------------------------------------------------

    def close(self) -> None:
        """Close the calling thread's connection, if it has one."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            sock, reader = connection
            reader.close()
            sock.close()

    def _connection(self) -> Tuple[socket.socket, BinaryIO]:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = self._local.connection = (sock,
                                                   sock.makefile("rb"))
        return connection

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(payload)}\r\n")
        message = (head + "\r\n").encode("latin-1") + payload
        for attempt in (1, 2):
            reused = getattr(self._local, "connection", None) is not None
            try:
                sock, reader = self._connection()
                sock.sendall(message)
                status, keep_alive, data = self._read_response(reader)
            except (OSError, _StaleConnection) as error:
                self.close()
                # Only a kept-alive connection the server dropped is
                # retried; a timeout may have reached the server.
                if reused and attempt == 1 \
                        and not isinstance(error, socket.timeout):
                    continue
                raise ServiceClientError(
                    f"cannot reach job service at "
                    f"{self.host}:{self.port}: {error}")
            if not keep_alive:
                self.close()
            return status, data
        raise AssertionError("unreachable")

    @staticmethod
    def _read_response(reader: BinaryIO) -> Tuple[int, bool, bytes]:
        """(status, connection stays open, body) of one response."""
        status_line = reader.readline(65537)
        if not status_line:
            raise _StaleConnection("connection closed by the server")
        version, _, rest = status_line.partition(b" ")
        try:
            status = int(rest[:3])
        except ValueError:
            raise OSError(f"malformed status line {status_line[:80]!r}")
        keep_alive = version == b"HTTP/1.1"
        length = None
        while True:
            line = reader.readline(65537)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                keep_alive = value.strip().lower() != b"close"
        if length is None:
            keep_alive = False
            return status, keep_alive, reader.read()
        data = reader.read(length)
        if len(data) != length:
            raise OSError("connection closed mid-response")
        return status, keep_alive, data

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              accept: Tuple[int, ...] = (200, 202)
              ) -> Tuple[int, Dict[str, Any]]:
        status, raw = self._request(method, path, body)
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            raise ServiceClientError(
                f"non-JSON response from {path} (HTTP {status})",
                status=status)
        if status not in accept:
            raise ServiceClientError(
                payload.get("error", f"HTTP {status} from {path}"),
                status=status, payload=payload)
        return status, payload

    # -- API ---------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/healthz")[1]

    def kinds(self) -> List[str]:
        return list(self._json("GET", "/v1/kinds")[1]["kinds"])

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/stats")[1]

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Submit a spec; returns the job status object (or raises with
        the server's error and HTTP status, e.g. 429 on backpressure)."""
        _, payload = self._json("POST", "/v1/jobs", body=spec.to_json(),
                                accept=(202,))
        return payload["job"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")[1]["job"]

    def jobs(self, tenant: Optional[str] = None,
             state: Optional[str] = None) -> List[Dict[str, Any]]:
        query = []
        if tenant is not None:
            query.append(f"tenant={tenant}")
        if state is not None:
            query.append(f"state={state}")
        path = "/v1/jobs" + ("?" + "&".join(query) if query else "")
        return list(self._json("GET", path)[1]["jobs"])

    def events(self, job_id: str, since: int = 0,
               wait_s: float = 0.0) -> Dict[str, Any]:
        return self._json(
            "GET",
            f"/v1/jobs/{job_id}/events?since={since}&wait={wait_s}")[1]

    def report(self, job_id: str, wait_s: float = 0.0
               ) -> Tuple[int, str]:
        """(HTTP status, body text).  2xx bodies are wire report text;
        202 means still running; 4xx/5xx bodies are JSON errors."""
        status, raw = self._request(
            "GET", f"/v1/jobs/{job_id}/report?wait={wait_s}")
        return status, raw.decode("utf-8")

    def wait(self, job_id: str, timeout_s: float = 60.0,
             poll_s: float = 10.0) -> Dict[str, Any]:
        """Block until the job is terminal (long-polls the event log)."""
        import time
        deadline = time.monotonic() + timeout_s
        since = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceClientError(
                    f"timed out waiting for job {job_id}")
            page = self.events(job_id, since=since,
                               wait_s=min(poll_s, remaining))
            since = page["next"]
            if page["terminal"]:
                return self.job(job_id)

    def cancel(self, job_id: str) -> bool:
        return bool(self._json("POST", f"/v1/jobs/{job_id}/cancel",
                               body={})[1]["cancelled"])


__all__ = ["ServiceClient", "ServiceClientError"]
