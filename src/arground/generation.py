"""Uniform interface to text-generation backends.

Three backends share one ``generate(request) -> GenerationRecord`` surface:

* ``HttpBackend``   - chat-completion wire format over HTTPS, with retry,
                      exponential backoff, and a per-request timeout.
* ``MockBackend``   - deterministic scripted queue, for tests and demos.
* ``ReplayBackend`` - the response store: a JSONL record log indexed by
                      request content hash, first record per key wins.

``replay:<log>`` serves the log read-only; a miss raises ``ReplayMiss``, so
any pipeline run on replay is a pure function of its inputs.
``record:<log>`` puts the store in front of the live backend: only records
whose ``backend_id`` is that backend's are served, a missing log is an
empty store, and a miss calls the backend and appends the record under a
lock. Concurrent misses on one key all get the record stored first, so a
record run returns exactly what a later replay of its log returns, and
rerunning a crashed ``fill`` or ``reject-sample`` on its log resumes it
without repeating a call.

Requests are keyed by a hash of (prompt, temperature, n_samples,
max_tokens, stop_sequences), not by sequence number, so replay tolerates
request reordering under concurrency. The tag is not part of the key.

``generate_all`` is the only dispatch path: every command hands it all of
its requests at once and gets back, in the order given, each request's
record or the ``BackendError`` it raised.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .errors import AuthError, BackendError, LogCorrupt, ReplayMiss

logger = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_TIMEOUT = 60.0
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5
DEFAULT_IN_FLIGHT = 4

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
    tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "stop_sequences", tuple(self.stop_sequences))
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
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


def request_key(request: GenerationRequest) -> str:
    """Content hash used to index record logs (the tag is excluded)."""
    payload = json.dumps(
        {
            "prompt": request.prompt,
            "temperature": request.temperature,
            "n_samples": request.n_samples,
            "max_tokens": request.max_tokens,
            "stop_sequences": list(request.stop_sequences),
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def record_to_obj(record: GenerationRecord) -> dict:
    return {
        "request": {
            "prompt": record.request.prompt,
            "temperature": record.request.temperature,
            "max_tokens": record.request.max_tokens,
            "n_samples": record.request.n_samples,
            "stop_sequences": list(record.request.stop_sequences),
            "tag": record.request.tag,
        },
        "outputs": list(record.outputs),
        "backend_id": record.backend_id,
        "timestamp": record.timestamp,
        "latency": record.latency,
    }


def record_from_obj(obj: dict) -> GenerationRecord:
    req = obj["request"]
    request = GenerationRequest(
        prompt=req["prompt"],
        temperature=float(req["temperature"]),
        max_tokens=int(req["max_tokens"]),
        n_samples=int(req["n_samples"]),
        stop_sequences=tuple(req.get("stop_sequences", ())),
        tag=req.get("tag", ""),
    )
    outputs = obj["outputs"]
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise TypeError("'outputs' must be a list of strings")
    return GenerationRecord(
        request=request,
        outputs=tuple(outputs),
        backend_id=obj.get("backend_id", "unknown"),
        timestamp=float(obj.get("timestamp", 0.0)),
        latency=float(obj.get("latency", 0.0)),
    )


class GenerationBackend:
    """Interface shared by all backends; safe to share across workers."""

    backend_id: str = "backend"

    def generate(self, request: GenerationRequest) -> GenerationRecord:
        raise NotImplementedError


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
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BackendError(f"mock script line {lineno} is not JSON: {exc.msg}")
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


class HttpBackend(GenerationBackend):
    """Chat-completion client: POST {base}/chat/completions.

    Reads ARGROUND_API_KEY / ARGROUND_BASE_URL / ARGROUND_MODEL; a profile
    string other than "default" overrides the model name. Transient
    failures (connection errors, 429, 5xx) are retried with exponential
    backoff; auth failures are not retried.
    """

    backend_id = "http"

    def __init__(
        self,
        profile: str = "default",
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL) or DEFAULT_BASE_URL).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        env_model = os.environ.get(ENV_MODEL, "")
        if model:
            self.model = model
        elif profile and profile != "default":
            self.model = profile
        else:
            self.model = env_model
        if not self.api_key:
            raise AuthError(f"{ENV_API_KEY} is not set")
        if not self.model:
            raise BackendError(f"no model configured (set {ENV_MODEL} or use http:<model>)")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backend_id = f"http:{self.model}"

    def _post(self, payload: dict):
        import requests

        return requests.post(
            f"{self.base_url}/chat/completions",
            json=payload,
            headers={"Authorization": f"Bearer {self.api_key}"},
            timeout=self.timeout,
        )

    def generate(self, request: GenerationRequest) -> GenerationRecord:
        import requests

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
                logger.warning("retrying after %s (attempt %d/%d)", last_error, attempt, self.retries)
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                response = self._post(payload)
            except requests.RequestException as exc:
                last_error = f"connection error: {exc}"
                continue
            if response.status_code in (401, 403):
                raise AuthError(f"authentication failed (HTTP {response.status_code})")
            if response.status_code == 429 or response.status_code >= 500:
                last_error = f"HTTP {response.status_code}"
                continue
            if not response.ok:
                raise BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
            try:
                data = response.json()
                outputs = tuple(c["message"]["content"] for c in data["choices"])
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
        self, index: dict[str, tuple[str, ...]], inner: GenerationBackend | None = None, path=None
    ):
        self._index = index
        self._inner = inner
        self._path = path
        self._lock = threading.Lock()
        if inner is not None:
            self.backend_id = inner.backend_id

    def generate(self, request: GenerationRequest) -> GenerationRecord:
        key = request_key(request)
        outputs = self._index.get(key)
        if outputs is None:
            if self._inner is None:
                raise ReplayMiss(f"no recorded response for request {key[:12]}... (tag={request.tag!r})")
            record = self._inner.generate(request)
            line = json.dumps(record_to_obj(record), ensure_ascii=False)
            with self._lock:
                outputs = self._index.get(key)
                if outputs is None:  # a racing duplicate keeps the first record
                    outputs = self._index[key] = record.outputs
                    with open(self._path, "a", encoding="utf-8") as handle:
                        handle.write(line + "\n")
        if len(outputs) < request.n_samples:
            raise ReplayMiss(
                f"recorded response for {key[:12]}... has {len(outputs)} outputs, "
                f"{request.n_samples} requested"
            )
        return GenerationRecord(
            request=request,
            outputs=outputs[: request.n_samples],
            backend_id=self.backend_id,
        )


def open_replay(path, inner: GenerationBackend | None = None) -> ReplayBackend:
    """Index a record log by request content hash; first record wins per key.

    With ``inner``, a missing log is an empty store and only records made by
    ``inner.backend_id`` are indexed.
    """
    index: dict[str, tuple[str, ...]] = {}
    if inner is not None and not os.path.exists(path):
        return ReplayBackend(index, inner, path)
    offset = 0
    with open(path, "rb") as handle:
        for raw_line in handle:
            line = raw_line.strip()
            if line:
                try:
                    record = record_from_obj(json.loads(line.decode("utf-8")))
                except (ValueError, KeyError, TypeError) as exc:
                    raise LogCorrupt(f"unreadable record log entry: {exc}", offset=offset)
                if inner is None or record.backend_id == inner.backend_id:
                    index.setdefault(request_key(record.request), record.outputs)
            offset += len(raw_line)
    return ReplayBackend(index, inner, path)


def generate_all(
    backend: GenerationBackend, groups: list[list[GenerationRequest]], in_flight: int = DEFAULT_IN_FLIGHT
) -> list[list[GenerationRecord | BackendError]]:
    """Send every request of every group with at most ``in_flight`` outstanding.

    Returns, per group and in the order given, each request's record or the
    ``BackendError`` it raised. A mock backend's script is positional, so its
    requests go out one at a time, in order.
    """
    if in_flight < 1:
        raise ValueError("in_flight must be >= 1")

    def send(request: GenerationRequest) -> GenerationRecord | BackendError:
        try:
            return backend.generate(request)
        except BackendError as exc:
            return exc

    requests = [request for group in groups for request in group]
    if in_flight == 1 or len(requests) <= 1 or isinstance(backend, MockBackend):
        results = iter([send(request) for request in requests])
    else:
        with ThreadPoolExecutor(max_workers=min(in_flight, len(requests))) as pool:
            results = iter(list(pool.map(send, requests)))
    return [[next(results) for _ in group] for group in groups]


def backend_from_spec(spec: str) -> GenerationBackend:
    """Build a backend from ``http:<profile>``, ``mock:<script>``,
    ``replay:<log>``, or ``record:<log>`` (the store in front of the
    default live backend)."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"backend spec {spec!r} must look like kind:argument")
    if kind == "http":
        return HttpBackend(profile=arg or "default")
    if kind == "mock":
        try:
            return MockBackend.from_script(arg)
        except OSError as exc:
            raise BackendError(f"cannot read mock script {arg!r}: {exc}")
    if kind in ("replay", "record"):
        inner = HttpBackend() if kind == "record" else None
        try:
            return open_replay(arg, inner)
        except OSError as exc:
            raise BackendError(f"cannot read {kind} log {arg!r}: {exc}")
    raise ValueError(f"unknown backend kind {kind!r} (expected http|mock|replay|record)")
