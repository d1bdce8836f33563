"""Uniform interface to text-generation backends.

Three backends share one ``generate(request) -> GenerationRecord`` surface:

* ``HttpBackend``   - chat-completion wire format over HTTP(S), with retry,
                      exponential backoff or ``Retry-After``, and a
                      per-request timeout. It uses the standard library's
                      ``http.client`` on connections kept alive between
                      requests, with environment proxies and the system CA
                      store, following no redirect; the HTTP modules are
                      imported at the first request, so set-up never pays
                      for them.
* ``MockBackend``   - deterministic scripted queue, for tests and demos.
* ``ReplayBackend`` - the response store: a JSONL record log keyed by the
                      request, first record per request wins.

``replay:<log>`` serves the log read-only; a miss raises ``ReplayMiss``, so
any pipeline run on replay is a pure function of its inputs.
``record:<log>`` puts the store in front of the live backend: only records
whose ``backend_id`` is that backend's are served, a missing log is created
empty (a log that cannot be written fails before any request), and a miss
calls the backend and appends the record under a lock. Concurrent misses on
one request all get the record stored first, so a record run returns exactly
what a later replay of its log returns, and rerunning a crashed ``fill`` or
``reject-sample`` on its log resumes it without repeating a call.

A request is its own key: its equality and hash cover every field but the
tag, a label the model never sees, so replay matches requests by content,
not by sequence number, and tolerates reordering under concurrency.
A log line is the record's fields as JSON with ASCII escapes, so a reply
holding a lone surrogate, which has no UTF-8 form, is stored like any other.

``generate_all`` is the only dispatch path: every command hands it all of
its requests at once and gets back, in the order given, each request's
record or the ``BackendError`` it raised. The caller's thread is one of its
workers, beside up to ``in_flight - 1`` helper threads; any other exception
stops every worker before its next request and is raised once every helper
is joined. It then closes the backend, so no connection outlives the command.
"""

from __future__ import annotations

import json
import math
import logging
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .errors import AuthError, BackendError, LogCorrupt, ReplayMiss
from .schema import has_surrogate

logger = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_TIMEOUT = 60.0
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5
DEFAULT_IN_FLIGHT = 4
MAX_IN_FLIGHT = 1024  # generate_all may start in_flight - 1 helper threads
MAX_RETRY_AFTER_S = 30.0

ENV_API_KEY = "ARGROUND_API_KEY"
ENV_BASE_URL = "ARGROUND_BASE_URL"
ENV_MODEL = "ARGROUND_MODEL"


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 256
    n_samples: int = 1
    stop_sequences: tuple[str, ...] = ()
    tag: str = field(default="", compare=False)  # a label, outside the payload, equality and hash

    def __post_init__(self):
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite number >= 0, got {self.temperature}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class GenerationRecord:
    request: GenerationRequest
    outputs: tuple[str, ...]
    backend_id: str
    timestamp: float = 0.0
    latency: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))


def record_from_obj(obj: dict) -> GenerationRecord:
    """Inverse of ``asdict(record)``; raises TypeError, ValueError or
    OverflowError on a record that ``ReplayBackend`` could not have written."""
    req, outputs = obj["request"], obj["outputs"]
    max_tokens, n_samples, temperature = req["max_tokens"], req["n_samples"], req["temperature"]
    stop_sequences = req.get("stop_sequences", [])
    prompt, tag, backend_id = req["prompt"], req.get("tag", ""), obj.get("backend_id", "unknown")
    timestamp, latency = obj.get("timestamp", 0.0), obj.get("latency", 0.0)
    if type(max_tokens) is not int or type(n_samples) is not int:
        raise TypeError("'max_tokens' and 'n_samples' must be integers")
    if type(temperature) not in (int, float):  # GenerationRequest refuses NaN, infinities and negatives
        raise TypeError("'temperature' must be a number")
    for name, number in (("timestamp", timestamp), ("latency", latency)):
        if type(number) not in (int, float) or not math.isfinite(number):
            raise TypeError(f"'{name}' must be a finite number")
    if not all(isinstance(v, str) for v in (prompt, tag, backend_id)):
        raise TypeError("'prompt', 'tag' and 'backend_id' must be strings")
    for name, strings in (("stop_sequences", stop_sequences), ("outputs", outputs)):
        if not isinstance(strings, list) or not all(isinstance(v, str) for v in strings):
            raise TypeError(f"'{name}' must be a list of strings")
    request = GenerationRequest(
        prompt=prompt,
        temperature=float(temperature),
        max_tokens=max_tokens,
        n_samples=n_samples,
        stop_sequences=tuple(stop_sequences),
        tag=tag,
    )
    return GenerationRecord(
        request=request,
        outputs=tuple(outputs),
        backend_id=backend_id,
        timestamp=float(timestamp),
        latency=float(latency),
    )


class GenerationBackend:
    """Interface shared by all backends; safe to share across workers."""

    backend_id: str = "backend"

    def generate(self, request: GenerationRequest) -> GenerationRecord:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend keeps between requests; it stays usable."""


class MockBackend(GenerationBackend):
    """Pops scripted outputs in order; raises when the script runs dry.

    The queue is positional, so ``generate_all`` sends a mock backend's
    requests one at a time, whatever its in-flight bound.
    """

    backend_id = "mock"

    def __init__(self, outputs):
        self._outputs = list(outputs)
        self._lock = threading.Lock()

    @classmethod
    def from_script(cls, path) -> "MockBackend":
        outputs = []
        # Only "\n" ends a line, as in schema.read_jsonl, which is not used: it refuses lone surrogates
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BackendError(f"mock script line {lineno} is not JSON: {exc.msg}")
            except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or nesting past the stack
                raise BackendError(f"mock script line {lineno}: {exc}")
            if not isinstance(value, str):
                raise BackendError(f"mock script line {lineno} must be a JSON string")
            outputs.append(value)
        return cls(outputs)

    def generate(self, request: GenerationRequest) -> GenerationRecord:
        start = time.monotonic()
        with self._lock:
            if len(self._outputs) < request.n_samples:
                raise BackendError(
                    f"mock script exhausted: {len(self._outputs)} outputs left, "
                    f"{request.n_samples} requested"
                )
            outputs = tuple(self._outputs[: request.n_samples])
            del self._outputs[: request.n_samples]
        return GenerationRecord(
            request=request,
            outputs=outputs,
            backend_id=self.backend_id,
            timestamp=time.time(),
            latency=time.monotonic() - start,
        )


def _retry_after(headers, backoff: float) -> float:
    """The wait a 429 or 503 asks for: a numeric ``Retry-After`` capped at
    ``MAX_RETRY_AFTER_S``, else (missing, an HTTP-date or bad) ``backoff``."""
    value = (headers.get("Retry-After") or "").strip()
    return min(float(value), MAX_RETRY_AFTER_S) if value.isascii() and value.isdigit() else backoff


class HttpBackend(GenerationBackend):
    """Chat-completion client: POST {base}/chat/completions.

    Reads ARGROUND_API_KEY / ARGROUND_BASE_URL / ARGROUND_MODEL, the last unless
    ``model`` is given, and refuses a base URL that is not ASCII http(s) or
    whose port is not a number in 0-65535, a key that is not printable ASCII
    or a model not in UTF-8, before any request.
    Transient failures (connection errors, 429, 5xx) are retried with
    exponential backoff, or after a 429's or 503's numeric ``Retry-After``
    capped at ``MAX_RETRY_AFTER_S``; auth failures are not retried.

    Requests go through ``http.client`` on kept-alive connections. Between
    requests an idle connection waits in a pool, which never holds more
    connections than there were requests in flight, until a request takes
    it or ``close()`` closes it; a connection that failed, or whose reply
    asked to close it, is closed at once. A server may close an idle
    connection: a request that a reused connection drops before any status
    line arrives is sent again once on a new connection, which is not a
    retry. A redirect is not followed but raises ``BackendError``. Proxies
    come from the environment (HTTP(S)_PROXY, NO_PROXY) when a connection is
    opened, and an https base is tunnelled through the proxy with CONNECT,
    so the API key never reaches it in clear text. HTTPS is verified
    against the system CA store.

    A server that writes a reply's headers and its body in two sends, as
    ``http.server`` does, holds the body back until the client acknowledges
    the headers (Nagle, RFC 896), and on a kept-alive connection the client
    delays that ACK (RFC 1122 4.2.3.2): about 40 ms per reply on Linux.
    Where ``socket`` has ``TCP_QUICKACK`` (Linux), it is set after each
    request is sent, so the headers are acknowledged at once; on other
    platforms such a server can stall each reply.
    """

    backend_id = "http"

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
    ):
        from urllib.parse import urlsplit

        url = base_url or os.environ.get(ENV_BASE_URL) or DEFAULT_BASE_URL
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname or not url.isascii():
            raise BackendError(f"base URL {url!r} is not an http:// or https:// URL with a host")
        try:
            parts.port  # getaddrinfo takes a port past 65535 modulo 65536
        except ValueError as exc:
            raise BackendError(f"base URL {url!r} has no valid port: {exc}")
        self.base_url = url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        if not self.api_key:
            raise AuthError(f"{ENV_API_KEY} is not set")
        if not (self.api_key.isascii() and self.api_key.isprintable()):  # what an HTTP header can carry
            raise AuthError(f"{ENV_API_KEY} is not printable ASCII")
        if not self.model or has_surrogate(self.model):  # the model is named in artifacts, written as UTF-8
            raise BackendError(f"no UTF-8 model configured: {self.model!r} (set {ENV_MODEL} or use http:<model>)")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backend_id = f"http:{self.model}"
        self._url = f"{self.base_url}/chat/completions"
        self._scheme = parts.scheme
        self._host = parts.netloc.rpartition("@")[2]  # host[:port], without userinfo
        self._target = urlsplit(self._url)._replace(scheme="", netloc="", fragment="").geturl()
        self._idle: list[tuple] = []  # (connection, target, headers), each ready for its next request
        self._idle_lock = threading.Lock()

    def _connect(self) -> tuple:
        """A new connection to the base host, or to the environment's proxy
        for its scheme, with the request target and headers to send on it."""
        import base64
        import http.client
        from urllib.parse import unquote, urlsplit
        from urllib.request import getproxies, proxy_bypass

        https = self._scheme == "https"
        connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        headers = {"Content-Type": "application/json", "Authorization": f"Bearer {self.api_key}",
                   "User-Agent": f"arground/{__version__}"}
        proxy = getproxies().get(self._scheme)
        if not proxy or proxy_bypass(self._host):
            return connection_class(self._host, timeout=self.timeout), self._target, headers
        proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        proxy_headers = {}
        if proxy_parts.username is not None:
            credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
            proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
        connection = connection_class(proxy_parts.netloc.rpartition("@")[2], timeout=self.timeout)
        if https:  # the proxy sees only the CONNECT line and its own credentials
            connection.set_tunnel(self._host, headers=proxy_headers)
            return connection, self._target, headers
        return connection, self._url, {**headers, **proxy_headers}

    @staticmethod
    def _send(route: tuple, body: bytes):
        """Send one request on ``route``'s connection and return the response, its status line read."""
        import socket

        connection, target, headers = route
        connection.request("POST", target, body, headers)
        quickack = getattr(socket, "TCP_QUICKACK", None)
        if quickack is not None:  # acknowledge the reply's first send at once: see the class docstring
            connection.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
        return connection.getresponse()

    def _post(self, payload: dict):
        """POST ``payload`` as JSON; return the status, headers and body, whatever the status."""
        body = json.dumps(payload).encode("utf-8")
        with self._idle_lock:
            reused = self._idle.pop() if self._idle else None
        route = reused or self._connect()
        try:
            try:
                response = self._send(route, body)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
                if reused is None:
                    raise
                route[0].close()  # the server closed it while it was idle
                route = self._connect()
                response = self._send(route, body)
            data = response.read()
        except BaseException:
            route[0].close()
            raise
        if response.will_close:
            route[0].close()
        else:
            with self._idle_lock:
                self._idle.append(route)
        return response.status, response.headers, data

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection, _, _ in idle:
            connection.close()

    def generate(self, request: GenerationRequest) -> GenerationRecord:
        from http.client import HTTPException

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "n": request.n_samples,
            "max_tokens": request.max_tokens,
        }
        if request.stop_sequences:
            payload["stop"] = list(request.stop_sequences)

        start = time.monotonic()
        last_error: str = ""
        for attempt in range(self.retries + 1):
            if attempt:
                logger.warning("retrying after %s (attempt %d/%d, retry in %g s)",
                               last_error, attempt, self.retries, delay)
                time.sleep(delay)
            delay = self.backoff * 2**attempt
            try:
                status, headers, body = self._post(payload)
            except (OSError, HTTPException) as exc:
                last_error = f"connection error: {exc}"
                continue
            if status in (401, 403):
                raise AuthError(f"authentication failed (HTTP {status})")
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                if status in (429, 503):
                    delay = _retry_after(headers, delay)
                continue
            if not 200 <= status < 300:
                raise BackendError(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
            try:
                outputs = tuple(c["message"]["content"] for c in json.loads(body)["choices"])
                if not all(isinstance(o, str) for o in outputs):
                    raise TypeError("'content' must be a string")
            except (ValueError, KeyError, TypeError) as exc:
                raise BackendError(f"malformed completion response: {exc}")
            if len(outputs) != request.n_samples:
                raise BackendError(
                    f"backend returned {len(outputs)} outputs, expected {request.n_samples}"
                )
            return GenerationRecord(
                request=request,
                outputs=outputs,
                backend_id=self.backend_id,
                timestamp=time.time(),
                latency=time.monotonic() - start,
            )
        raise BackendError(f"exhausted {self.retries} retries: {last_error}")


class ReplayBackend(GenerationBackend):
    """Response store over a record log; with an ``inner`` backend a miss
    records through to the log, without one it raises ``ReplayMiss``."""

    backend_id = "replay"

    def __init__(
        self, index: dict[GenerationRequest, tuple[str, ...]], inner: GenerationBackend | None = None, path=None
    ):
        self._index = index
        self._inner = inner
        self._path = path
        self._lock = threading.Lock()
        if inner is not None:
            self.backend_id = inner.backend_id

    def generate(self, request: GenerationRequest) -> GenerationRecord:
        outputs = self._index.get(request)
        if outputs is None:
            if self._inner is None:
                raise ReplayMiss(f"no recorded response for request (tag={request.tag!r})")
            record = self._inner.generate(request)
            line = json.dumps(asdict(record))
            with self._lock:
                outputs = self._index.get(request)
                if outputs is None:  # a racing duplicate keeps the first record
                    outputs = self._index[request] = record.outputs
                    with open(self._path, "a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
        if len(outputs) < request.n_samples:
            raise ReplayMiss(
                f"recorded response for request (tag={request.tag!r}) has {len(outputs)} outputs, "
                f"{request.n_samples} requested"
            )
        return GenerationRecord(
            request=request,
            outputs=outputs[: request.n_samples],
            backend_id=self.backend_id,
        )

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()


def open_replay(path, inner: GenerationBackend | None = None) -> ReplayBackend:
    """Index a record log by request; first record wins per request.

    With ``inner``, only records made by ``inner.backend_id`` are indexed,
    and the log is first opened for append (a missing one is created empty),
    so a log that cannot be written raises ``OSError`` before any request.
    """
    index: dict[GenerationRequest, tuple[str, ...]] = {}
    if inner is not None:
        with open(path, "a", encoding="utf-8"):
            pass
    offset = 0
    with open(path, "rb") as handle:
        for raw_line in handle:
            line = raw_line.strip()
            if line:
                try:
                    record = record_from_obj(json.loads(line.decode("utf-8")))
                except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                    raise LogCorrupt(f"unreadable record log entry: {exc}", offset=offset)
                if inner is None or record.backend_id == inner.backend_id:
                    index.setdefault(record.request, record.outputs)
            offset += len(raw_line)
    return ReplayBackend(index, inner, path)


def generate_all(
    backend: GenerationBackend, groups: list[list[GenerationRequest]], in_flight: int = DEFAULT_IN_FLIGHT
) -> list[list[GenerationRecord | BackendError]]:
    """Send every request of every group with at most ``in_flight`` outstanding.

    Returns, per group and in the order given, each request's record or the
    ``BackendError`` it raised. The caller's thread is one of the workers:
    it and ``min(in_flight, requests) - 1`` helper threads each take the next
    request in order and write its result in its place. A mock backend's
    script is positional and a read-only replay store only looks each request
    up in memory, so both get no helper and are answered in line, in order.
    Any other exception (``AuthError``, a bug, an interrupt), or a helper that
    cannot start, stops every worker before its next request; every helper
    started is joined and the first such exception is raised. The backend is
    closed on the way out, whatever happened.
    """
    if not 1 <= in_flight <= MAX_IN_FLIGHT:
        raise ValueError(f"in_flight must be in [1, {MAX_IN_FLIGHT}]")

    requests = [request for group in groups for request in group]
    results: list = [None] * len(requests)
    pending = enumerate(requests)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def drain() -> None:
        while True:
            with lock:
                item = None if failures else next(pending, None)
            if item is None:
                return
            index, request = item
            try:
                results[index] = backend.generate(request)
            except BackendError as exc:
                results[index] = exc
            except BaseException as exc:  # raised in the caller once every helper is joined
                failures.append(exc)
                return

    in_line = isinstance(backend, MockBackend) or (isinstance(backend, ReplayBackend) and backend._inner is None)
    helpers: list[threading.Thread] = []
    try:
        try:
            for _ in range(0 if in_line else min(in_flight, len(requests)) - 1):
                helper = threading.Thread(target=drain)
                helper.start()
                helpers.append(helper)
            drain()
        except BaseException as exc:  # a helper that cannot start, or an interrupt outside generate
            failures.append(exc)
        for helper in helpers:
            helper.join()
    finally:
        backend.close()
    if failures:
        raise failures[0]
    ordered = iter(results)
    return [[next(ordered) for _ in group] for group in groups]


def split_backend_spec(spec: str) -> tuple[str, str]:
    """``(kind, argument)`` of a ``kind:argument`` spec; ValueError unless the kind is http, mock, replay or record."""
    kind, sep, arg = spec.partition(":")
    if not sep or kind not in ("http", "mock", "replay", "record"):
        raise ValueError(f"backend spec {spec!r} must look like kind:argument (kind: http|mock|replay|record)")
    return kind, arg


def backend_from_spec(spec: str) -> GenerationBackend:
    """Build a backend from ``http:<model>``, ``mock:<script>``,
    ``replay:<log>``, or ``record:<log>`` (the store in front of the
    default live backend). ``http:`` and ``http:default`` use ARGROUND_MODEL."""
    kind, arg = split_backend_spec(spec)
    if kind == "http":
        return HttpBackend(model=None if arg == "default" else arg)
    if kind == "mock":
        try:
            return MockBackend.from_script(arg)
        except (OSError, UnicodeDecodeError) as exc:
            raise BackendError(f"cannot read mock script {arg!r}: {exc}")
    inner = HttpBackend() if kind == "record" else None
    try:
        return open_replay(arg, inner)
    except OSError as exc:
        raise BackendError(f"cannot open {kind} log {arg!r}: {exc}")
