"""Client library for the parallelization service.

:class:`ServiceClient` is a thin, dependency-free wrapper over
``http.client``: submit a job, poll or block for its result, read the
status counters, or stop the daemon.  Each call opens its own
connection, so one client object is safe to share across threads (the
load generator drives N threads through N clients anyway, to model N
tenants).

>>> client = ServiceClient("http://127.0.0.1:7070", client_id="alice")
>>> result = client.run("cat $IN | sort | uniq -c",
...                     files={"input.txt": "b\\na\\nb\\n"},
...                     env={"IN": "input.txt"}, k=4)
>>> result.output
'      1 a\\n      2 b\\n'
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlparse

from .protocol import (
    JobRequest,
    JobResult,
    MAX_WAIT_SECONDS,
    ValidationError,
)

DEFAULT_PORT = 7070
DEFAULT_TIMEOUT = 60.0

#: attempts for idempotent GETs hitting a transient transport error
GET_RETRIES = 3
#: first retry backoff (doubles per attempt)
GET_RETRY_BACKOFF = 0.05

#: transient failures worth retrying on an idempotent request: the
#: server dropped our connection mid-exchange or the read timed out.
#: A refused connection is NOT here — nobody is listening, and
#: hammering a dead port only delays the caller's error handling.
_RETRYABLE = (ConnectionResetError, BrokenPipeError, socket.timeout,
              TimeoutError, http.client.BadStatusLine)


class ServiceUnavailable(ConnectionError):
    """The daemon could not be reached or returned an error response."""

    def __init__(self, message: str, code: Optional[int] = None) -> None:
        super().__init__(message)
        self.code = code


def _parse_address(address: str) -> Tuple[str, int]:
    if "//" not in address:
        address = "http://" + address
    url = urlparse(address)
    return url.hostname or "127.0.0.1", url.port or DEFAULT_PORT


class ServiceClient:
    """One tenant's handle on a running daemon."""

    def __init__(self, address: str = f"http://127.0.0.1:{DEFAULT_PORT}",
                 client_id: str = "anonymous",
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        self.host, self.port = _parse_address(address)
        self.client_id = client_id
        self.timeout = timeout

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Tuple[int, Any]:
        """One HTTP exchange; **idempotent GETs** retry transient
        transport failures (reset mid-read, timed-out read, truncated
        status line) with bounded backoff.  POSTs never retry here — a
        submit whose response was lost may well have been admitted, and
        blind resubmission would duplicate the job.
        """
        attempts = GET_RETRIES if method == "GET" else 1
        backoff = GET_RETRY_BACKOFF
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, body=body,
                                          timeout=timeout)
            except _RETRYABLE as exc:
                if attempt + 1 >= attempts:
                    raise ServiceUnavailable(
                        f"cannot reach service at {self.host}:{self.port} "
                        f"after {attempts} attempts: {exc}") from exc
                time.sleep(backoff)
                backoff *= 2
            except (ConnectionError, socket.timeout, OSError,
                    http.client.HTTPException) as exc:
                raise ServiceUnavailable(
                    f"cannot reach service at {self.host}:{self.port}: {exc}"
                ) from exc

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None,
                      timeout: Optional[float] = None) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        ctype = response.headers.get("Content-Type", "")
        data: Any = raw.decode("utf-8")
        if "json" in ctype:
            data = json.loads(data or "null")
        return response.status, data

    def _checked(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Any:
        status, data = self._request(method, path, body=body, timeout=timeout)
        if status == 400:
            raise ValidationError(
                data.get("error", "invalid request")
                if isinstance(data, dict) else str(data))
        if status >= 300:
            message = data.get("error", str(data)) \
                if isinstance(data, dict) else str(data)
            raise ServiceUnavailable(f"HTTP {status}: {message}", code=status)
        return data

    # -- API -----------------------------------------------------------------

    def submit(self, pipeline: str, files: Optional[Dict[str, str]] = None,
               env: Optional[Dict[str, str]] = None, k: int = 4,
               engine: str = "serial", streaming: bool = True,
               optimize: bool = True, scheduler: str = "auto",
               speculate: bool = False,
               distribute: bool = False,
               max_size: int = 7, seed: int = 0,
               priority: str = "normal") -> str:
        """Submit a job; returns its ``job_id`` without waiting."""
        request = JobRequest(
            pipeline=pipeline, files=dict(files or {}), env=dict(env or {}),
            k=k, engine=engine, streaming=streaming, optimize=optimize,
            scheduler=scheduler, speculate=speculate,
            distribute=distribute,
            max_size=max_size, seed=seed,
            client_id=self.client_id, priority=priority)
        return self.submit_request(request)

    def submit_request(self, request: JobRequest) -> str:
        data = self._checked("POST", "/v1/jobs", body=request.to_dict())
        return data["job_id"]

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None,
               include_output: bool = True) -> JobResult:
        timeout = timeout if timeout is not None else self.timeout
        path = (f"/v1/jobs/{job_id}?wait={int(wait)}&timeout={timeout}"
                f"&output={int(include_output)}")
        # the HTTP read deadline must outlive the server-side wait
        data = self._checked("GET", path, timeout=timeout + 10.0)
        return JobResult.from_dict(data)

    def wait(self, job_id: str, timeout: Optional[float] = None,
             include_output: bool = True) -> JobResult:
        """Block until the job finishes (re-polling past server waits)."""
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.timeout)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {job_id} not done in time")
            result = self.result(job_id, wait=True,
                                 timeout=min(remaining, MAX_WAIT_SECONDS),
                                 include_output=include_output)
            if result.done:
                return result

    def run(self, pipeline: str, timeout: Optional[float] = None,
            **kwargs) -> JobResult:
        """Submit and wait: the one-shot convenience call."""
        job_id = self.submit(pipeline, **kwargs)
        return self.wait(job_id, timeout=timeout)

    def status(self) -> Dict[str, Any]:
        return self._checked("GET", "/v1/status")

    # -- executor-node protocol (used by ``repro executor``) -----------------

    def nodes(self) -> list:
        """The controller's membership table (``repro nodes``)."""
        return self._checked("GET", "/v1/nodes")["nodes"]

    def register_node(self, node_id: Optional[str] = None,
                      role: str = "executor",
                      capacity: int = 2) -> Dict[str, Any]:
        return self._checked("POST", "/v1/nodes/register",
                             body={"node_id": node_id, "role": role,
                                   "capacity": capacity})

    def node_heartbeat(self, node_id: str) -> bool:
        data = self._checked("POST", f"/v1/nodes/{node_id}/heartbeat",
                             body={})
        return bool(data.get("ok"))

    def node_pull(self, node_id: str, max_tasks: int = 2,
                  wait: float = 0.0) -> Dict[str, Any]:
        return self._checked("POST", f"/v1/nodes/{node_id}/pull",
                             body={"max_tasks": max_tasks, "wait": wait},
                             timeout=self.timeout + wait)

    def node_complete(self, node_id: str, task_id: str,
                      output: Optional[str] = None,
                      error: Optional[str] = None,
                      seconds: float = 0.0) -> bool:
        data = self._checked("POST", f"/v1/nodes/{node_id}/result",
                             body={"task_id": task_id, "output": output,
                                   "error": error, "seconds": seconds})
        return bool(data.get("accepted"))

    def plan_entry(self, digest: str) -> Dict[str, Any]:
        """Fetch one plan entry by content digest (replication)."""
        return self._checked("GET", f"/v1/plans/{digest}")

    def metrics(self) -> str:
        return self._checked("GET", "/metrics")

    def healthy(self) -> bool:
        try:
            data = self._checked("GET", "/v1/healthz")
        except (ServiceUnavailable, OSError):
            return False
        return bool(isinstance(data, dict) and data.get("ok"))

    def shutdown(self) -> None:
        self._checked("POST", "/v1/shutdown", body={})

    def wait_until_healthy(self, timeout: float = 10.0,
                           interval: float = 0.05) -> bool:
        """Poll ``/v1/healthz`` until it answers (daemon startup races)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthy():
                return True
            time.sleep(interval)
        return False
