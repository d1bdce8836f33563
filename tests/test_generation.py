import base64
import json
import logging
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import arground
from arground import generation, prompting, sampler
from arground.cli import EXIT_BACKEND, EXIT_OK, EXIT_USAGE, main
from arground.errors import AuthError, BackendError, ReplayMiss
from arground.generation import (
    GenerationBackend,
    GenerationRecord,
    GenerationRequest,
    HttpBackend,
    MAX_IN_FLIGHT,
    MockBackend,
    backend_from_spec,
    generate_all,
    open_replay,
)
from arground.sampler import SamplerConfig, rejection_sample
from arground.schema import dialogue_to_obj

from conftest import HAIR_CATALOG_JSON, jsonl, make_dialogue


class _FlakyStub(BaseHTTPRequestHandler):
    """Answers each POST with the next reply of ``statuses``: a status, or a
    ``(status, body, headers)`` triple. A bare 200 carries ``n`` choices whose
    content is the next of ``contents``, or ``{"name": "john"}`` once they run
    out; any other bare status carries ``{}``. Each request's headers and JSON
    payload go to ``received``, and a reply first waits the next of ``delays``
    seconds, if any are left."""

    statuses: list = []
    contents: list = []
    delays: list[float] = []
    received: list = []
    requests = 0

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        stub = type(self)
        stub.requests += 1
        stub.received.append((self.headers, payload))
        reply = stub.statuses.pop(0)
        status, body, headers = reply if isinstance(reply, tuple) else (reply, None, {})
        if body is None:
            body = b"{}"
            if status == 200:
                content = stub.contents.pop(0) if stub.contents else '{"name": "john"}'
                body = json.dumps({"choices": [{"message": {"content": content}}] * payload["n"]}).encode()
        if stub.delays:
            time.sleep(stub.delays.pop(0))
        self.send_response(status)
        for name, value in {"Content-Type": "application/json", **headers}.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except ConnectionError:  # the client timed out and hung up
            pass

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_stub(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FlakyStub.requests, _FlakyStub.contents, _FlakyStub.delays, _FlakyStub.received = 0, [], [], []
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


def _backend(port, retries=3, backoff=0, **options):
    return HttpBackend(base_url=f"http://127.0.0.1:{port}", api_key="test-key", model="stub",
                       retries=retries, backoff=backoff, **options)


def _retry_messages(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "arground.generation" and r.levelno == logging.WARNING]


def test_retry_after_503_is_logged(flaky_stub, caplog):
    _FlakyStub.statuses = [503, 200]
    with caplog.at_level(logging.WARNING, logger="arground.generation"):
        record = _backend(flaky_stub).generate(GenerationRequest(prompt="fill the form"))
    assert record.outputs == ('{"name": "john"}',)
    assert _FlakyStub.requests == 2
    assert _retry_messages(caplog) == ["retrying after HTTP 503 (attempt 1/3, retry in 0 s)"]


@pytest.mark.parametrize("status, retry_after, wait", [
    (429, "2", 2.0),
    (503, "2", 2.0),
    (429, "0", 0.0),
    (429, "9999", generation.MAX_RETRY_AFTER_S),
    (429, "soon", 0.5),
    (429, "-1", 0.5),
    (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),
    (429, None, 0.5),
    (502, "2", 0.5),
], ids=["429", "503", "zero", "capped", "word", "negative", "http-date", "missing", "502-ignores-it"])
def test_a_numeric_retry_after_sets_the_wait(flaky_stub, monkeypatch, caplog, status, retry_after, wait):
    sleeps = []
    monkeypatch.setattr(generation.time, "sleep", sleeps.append)
    _FlakyStub.statuses = [(status, None, {"Retry-After": retry_after} if retry_after else {}), 200]
    with caplog.at_level(logging.WARNING, logger="arground.generation"):
        record = _backend(flaky_stub, backoff=0.5).generate(GenerationRequest(prompt="fill the form"))
    assert record.outputs == ('{"name": "john"}',) and record.backend_id == "http:stub"
    assert _FlakyStub.requests == 2
    assert sleeps == [wait]
    assert _retry_messages(caplog) == [f"retrying after HTTP {status} (attempt 1/3, retry in {wait:g} s)"]


def test_backoff_doubles_between_attempts(flaky_stub, monkeypatch):
    sleeps = []
    monkeypatch.setattr(generation.time, "sleep", sleeps.append)
    _FlakyStub.statuses = [500, (429, None, {"Retry-After": "7"}), 503, 200]
    _backend(flaky_stub, backoff=0.5).generate(GenerationRequest(prompt="fill the form"))
    assert sleeps == [0.5, 7.0, 2.0]


def test_every_connection_retry_is_logged(monkeypatch, caplog):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with caplog.at_level(logging.WARNING, logger="arground.generation"):
        with pytest.raises(BackendError, match="exhausted 2 retries"):
            _backend(port, retries=2).generate(GenerationRequest(prompt="fill the form"))
    messages = _retry_messages(caplog)
    assert len(messages) == 2
    for attempt, message in enumerate(messages, start=1):
        assert message.startswith("retrying after connection error: ")
        assert message.endswith(f"(attempt {attempt}/2, retry in 0 s)")


# --- HttpBackend: every status path -----------------------------------------

_LONG_BODY = b'{"error": "' + b"x" * 300 + b'"}'
_TWO_CHOICES = json.dumps({"choices": [{"message": {"content": "a"}}, {"message": {"content": "b"}}]}).encode()


@pytest.mark.parametrize("reply, error, message", [
    (401, AuthError, "authentication failed (HTTP 401)"),
    (403, AuthError, "authentication failed (HTTP 403)"),
    ((400, _LONG_BODY, {}), BackendError, "HTTP 400: " + _LONG_BODY[:200].decode()),
    ((404, b"no such model", {}), BackendError, "HTTP 404: no such model"),
    ((200, b"not json", {}), BackendError,
     "malformed completion response: Expecting value: line 1 column 1 (char 0)"),
    ((200, b"{}", {}), BackendError, "malformed completion response: 'choices'"),
    ((200, _TWO_CHOICES, {}), BackendError, "backend returned 2 outputs, expected 1"),
], ids=["401", "403", "400", "404", "not-json", "no-choices", "two-choices"])
def test_a_final_status_raises_after_one_request(flaky_stub, reply, error, message):
    _FlakyStub.statuses = [reply]
    with pytest.raises(error) as caught:
        _backend(flaky_stub).generate(GenerationRequest(prompt="fill the form"))
    assert type(caught.value) is error and str(caught.value) == message
    assert _FlakyStub.requests == 1


class _Elsewhere(BaseHTTPRequestHandler):
    """Another host: records the headers of every request it is sent and answers a completion."""

    received: list = []

    def _answer(self):
        type(self).received.append(self.headers)
        body = json.dumps({"choices": [{"message": {"content": "{}"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_a_redirect_is_not_followed_and_the_key_stays_home(flaky_stub, status):
    elsewhere = ThreadingHTTPServer(("127.0.0.1", 0), _Elsewhere)
    threading.Thread(target=elsewhere.serve_forever, daemon=True).start()
    _Elsewhere.received = []
    location = f"http://127.0.0.1:{elsewhere.server_address[1]}/chat/completions"
    _FlakyStub.statuses = [(status, b"moved", {"Location": location})]
    try:
        with pytest.raises(BackendError, match=f"^HTTP {status}: moved$"):
            _backend(flaky_stub).generate(GenerationRequest(prompt="fill the form"))
    finally:
        elsewhere.shutdown()
        elsewhere.server_close()
    assert _FlakyStub.requests == 1
    assert _Elsewhere.received == []


def test_a_reply_slower_than_the_timeout_is_retried_as_a_connection_error(flaky_stub, caplog):
    _FlakyStub.statuses, _FlakyStub.delays = [200, 200], [0.5]
    with caplog.at_level(logging.WARNING, logger="arground.generation"):
        record = _backend(flaky_stub, timeout=0.2).generate(GenerationRequest(prompt="fill the form"))
    assert record.outputs == ('{"name": "john"}',)
    assert _FlakyStub.requests == 2
    (message,) = _retry_messages(caplog)
    assert message.startswith("retrying after connection error: ")


@pytest.mark.parametrize("stop", [(), ("\n", "}")])
def test_the_request_carries_the_payload_and_headers(flaky_stub, stop):
    _FlakyStub.statuses = [200]
    request = GenerationRequest(prompt="fill the form", temperature=0.7, max_tokens=32, n_samples=2,
                                stop_sequences=stop, tag="t")
    assert _backend(flaky_stub).generate(request).outputs == ('{"name": "john"}',) * 2
    ((headers, payload),) = _FlakyStub.received
    expected = {"model": "stub", "messages": [{"role": "user", "content": "fill the form"}],
                "temperature": 0.7, "n": 2, "max_tokens": 32}
    if stop:
        expected["stop"] = list(stop)
    assert payload == expected
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer test-key"
    assert headers["User-Agent"] == f"arground/{arground.__version__}"


# --- HttpBackend: kept-alive connections --------------------------------------

class _KeepAlive(BaseHTTPRequestHandler):
    """An HTTP/1.1 server that keeps each connection open and answers every
    POST with a completion, writing its headers and its body in two sends as
    ``bench/stub_llm.py`` does. It counts connections and requests. A reply
    first waits the next of ``delays`` seconds, if any are left; with
    ``hang_up`` the server closes each connection after its reply without a
    ``Connection: close`` header."""

    protocol_version = "HTTP/1.1"
    lock = threading.Lock()
    connections = requests = 0
    delays: list[float] = []
    hang_up = False

    def setup(self):
        super().setup()
        with self.lock:
            type(self).connections += 1

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        stub = type(self)
        with stub.lock:
            stub.requests += 1
            delay = stub.delays.pop(0) if stub.delays else 0
        if delay:
            time.sleep(delay)
        body = json.dumps({"choices": [{"message": {"content": '{"name": "john"}'}}] * payload["n"]}).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except ConnectionError:  # the client timed out and hung up
            self.close_connection = True
        self.close_connection = self.close_connection or stub.hang_up

    def log_message(self, *args):
        pass


@pytest.fixture
def keep_alive(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAlive)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _KeepAlive.connections = _KeepAlive.requests = 0
    _KeepAlive.delays, _KeepAlive.hang_up = [], False
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


def _generate_each(backend, count):
    """``count`` sequential requests on ``backend``, which is closed afterwards; their outputs."""
    try:
        return [backend.generate(GenerationRequest(prompt="fill the form")).outputs for _ in range(count)]
    finally:
        backend.close()


def test_sequential_requests_share_one_connection(keep_alive):
    assert _generate_each(_backend(keep_alive), 10) == [('{"name": "john"}',)] * 10
    assert (_KeepAlive.requests, _KeepAlive.connections) == (10, 1)


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="the platform has no TCP_QUICKACK")
def test_a_reply_sent_in_two_writes_does_not_wait_for_a_delayed_ack(keep_alive, monkeypatch):
    def ten_requests() -> float:
        start = time.perf_counter()
        _generate_each(_backend(keep_alive), 10)
        return time.perf_counter() - start

    assert ten_requests() < 0.3
    monkeypatch.delattr(socket, "TCP_QUICKACK")
    # Without the guard, each reply after the first waits at least 40 ms for the ACK of its headers.
    assert ten_requests() >= 0.35
    assert (_KeepAlive.requests, _KeepAlive.connections) == (20, 2)


def test_a_connection_the_server_closed_while_idle_is_replaced_without_a_retry(keep_alive, monkeypatch, caplog):
    sleeps = []
    monkeypatch.setattr(generation.time, "sleep", sleeps.append)
    _KeepAlive.hang_up = True
    with caplog.at_level(logging.WARNING, logger="arground.generation"):
        assert _generate_each(_backend(keep_alive), 2) == [('{"name": "john"}',)] * 2
    assert (_KeepAlive.requests, _KeepAlive.connections) == (2, 2)
    assert _retry_messages(caplog) == [] and sleeps == []


def test_a_reply_slower_than_the_timeout_on_a_reused_connection_is_one_retry(keep_alive, caplog):
    _KeepAlive.delays = [0, 0.5]
    with caplog.at_level(logging.WARNING, logger="arground.generation"):
        assert _generate_each(_backend(keep_alive, timeout=0.2), 2) == [('{"name": "john"}',)] * 2
    (message,) = _retry_messages(caplog)
    assert message.startswith("retrying after connection error: ")
    assert (_KeepAlive.requests, _KeepAlive.connections) == (3, 2)


def test_fill_opens_no_more_connections_than_requests_in_flight(keep_alive, tmp_path, monkeypatch):
    argv = _http_argv("fill", keep_alive, tmp_path, monkeypatch)
    argv[argv.index("--backend") + 1] = "http:stub"
    argv[argv.index("--in-flight") + 1] = "2"
    assert main([*argv, "--mode", "multistep"]) == EXIT_OK
    assert _KeepAlive.requests == 9 and _KeepAlive.connections <= 2


@pytest.mark.parametrize("store", [False, True], ids=["http", "record"])
def test_generate_all_leaves_the_backend_no_idle_connection(keep_alive, tmp_path, store):
    backend = _backend(keep_alive)
    dispatched = open_replay(tmp_path / "log.jsonl", backend) if store else backend
    results = generate_all(dispatched, [_tagged("a", "b", "c"), _tagged("d")], in_flight=2)
    assert [r.outputs for group in results for r in group] == [('{"name": "john"}',)] * 4
    assert backend._idle == [] and _KeepAlive.connections <= 2


# --- HttpBackend: environment proxies -----------------------------------------

class _Proxy(BaseHTTPRequestHandler):
    """A recording proxy: keeps each request's method, target and headers,
    answers a POST with a completion and refuses every CONNECT."""

    received: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).received.append((self.command, self.path, self.headers))
        body = json.dumps({"choices": [{"message": {"content": "{}"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_CONNECT(self):
        type(self).received.append((self.command, self.path, self.headers))
        self.send_response(403)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def proxy(monkeypatch):
    """The recording proxy's host:port, with every proxy variable cleared from the environment."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name == "REQUEST_METHOD":
            monkeypatch.delenv(name)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Proxy)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Proxy.received = []
    yield f"127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _basic(credentials: str) -> str:
    return "Basic " + base64.b64encode(credentials.encode()).decode("ascii")


def test_an_http_base_goes_through_the_proxy_with_an_absolute_url(proxy, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", f"http://user:p%40ss@{proxy}")
    backend = HttpBackend(base_url="http://api.example:8000/v1", api_key="test-key", model="stub", retries=0)
    assert _generate_each(backend, 1) == [("{}",)]
    ((method, target, headers),) = _Proxy.received
    assert (method, target) == ("POST", "http://api.example:8000/v1/chat/completions")
    assert headers["Host"] == "api.example:8000"
    assert headers["Proxy-Authorization"] == _basic("user:p@ss")


def test_an_https_base_is_tunnelled_so_the_key_never_reaches_the_proxy(proxy, monkeypatch):
    monkeypatch.setenv("HTTPS_PROXY", f"http://user:secret@{proxy}")
    backend = HttpBackend(base_url="https://api.example/v1", api_key="test-key", model="stub", retries=0)
    with pytest.raises(BackendError, match="connection error: Tunnel connection failed: 403"):
        _generate_each(backend, 1)
    ((method, target, headers),) = _Proxy.received
    assert (method, target) == ("CONNECT", "api.example:443")
    assert "Authorization" not in headers and "test-key" not in str(headers)
    assert headers["Proxy-Authorization"] == _basic("user:secret")


def test_a_no_proxy_host_goes_direct(proxy, flaky_stub, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", f"http://{proxy}")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    _FlakyStub.statuses = [200]
    assert _generate_each(_backend(flaky_stub), 1) == [('{"name": "john"}',)]
    assert _FlakyStub.requests == 1 and _Proxy.received == []


def _run_set_up(tmp_path, code: str) -> str:
    """Run ``code`` in a fresh interpreter after the set-up path (import the
    package, load a catalog and a dataset, build a replay and an HTTP backend);
    return its stdout."""
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
    dialogue = make_dialogue("d1", "salon", "hair_appointment", {"name": "john"})
    (tmp_path / "dialogues.jsonl").write_text(jsonl([dialogue_to_obj(dialogue)]), encoding="utf-8")
    log = tmp_path / "log.jsonl"
    log.write_text(jsonl([asdict(GenerationRecord(GenerationRequest("p"), ("o",), "replay"))]),
                   encoding="utf-8")
    set_up = (
        "import sys, arground\n"
        "from arground.generation import backend_from_spec\n"
        f"catalog = arground.load_schema_catalog({str(tmp_path / 'catalog.json')!r})\n"
        f"arground.load_dialogues({str(tmp_path / 'dialogues.jsonl')!r}, catalog)\n"
        f"backend_from_spec({'replay:' + str(log)!r})\n"
        "backend_from_spec('http:m')\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARGROUND_")}
    env.update(ARGROUND_API_KEY="test-key", PYTHONPATH=str(Path(arground.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", set_up + code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_setup_imports_no_http_client(tmp_path):
    """Building a backend leaves the HTTP stack unimported, so set-up does not pay for it,
    the store keys by the request itself: set-up loads no hash library before the CLI does,
    and dispatch needs no executor, before the CLI or after it."""
    code = (
        "print('hashlib' in sys.modules, 'concurrent.futures' in sys.modules)\n"
        "import arground.cli\n"
        "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'requests', 'concurrent.futures')\n"
        "             if m in sys.modules))\n"
    )
    assert _run_set_up(tmp_path, code).splitlines() == ["False False", "[]"]


def test_setup_imports_only_the_modules_it_runs(tmp_path):
    """The package loads a module when one of its names is first used, and
    every public name still resolves to its module's object."""
    code = (
        "import importlib\n"
        "lazy = ('metrics', 'parsing', 'prompting', 'sampler', 'scoring', 'splits')\n"
        "print(sorted(m for m in lazy if 'arground.' + m in sys.modules))\n"
        "print(sorted(set(arground.__all__) - set(dir(arground))))\n"
        "names = {}\n"
        "exec('from arground import *', names)\n"
        "print(sorted(set(arground.__all__) - set(names)))\n"
        "print(sorted(n for n in arground.__all__ if names[n] is not getattr(arground, n)\n"
        "             or names[n] is not getattr(importlib.import_module(names[n].__module__), n)))\n"
        "try:\n"
        "    arground.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _run_set_up(tmp_path, code).splitlines() == [
        "[]",
        "[]",
        "[]",
        "[]",
        "module 'arground' has no attribute 'no_such_name'",
    ]


@pytest.mark.parametrize("spec, model", [("http:gpt-x", "gpt-x"), ("http:", "env-model"), ("http:default", "env-model")])
def test_an_http_spec_names_the_model_or_reads_it_from_the_environment(spec, model, monkeypatch):
    monkeypatch.setenv("ARGROUND_API_KEY", "test-key")
    monkeypatch.setenv("ARGROUND_MODEL", "env-model")
    backend = backend_from_spec(spec)
    assert (backend.model, backend.backend_id) == (model, f"http:{model}")


@pytest.mark.parametrize("base_url", ["localhost:8000/v1", "ftp://example.org/v1", "http://", "http:///v1",
                                      "http://:8000/v1"])
def test_fill_refuses_a_base_url_that_is_not_http_before_any_request(base_url, tmp_path, monkeypatch, capsys):
    sent = []
    monkeypatch.setattr(HttpBackend, "_post", lambda self, payload: sent.append(payload))
    argv = _http_argv("fill", 0, tmp_path, monkeypatch)
    argv[argv.index("--backend") + 1] = "http:stub"
    monkeypatch.setenv("ARGROUND_BASE_URL", base_url)
    assert main(argv) == EXIT_BACKEND
    assert f"base URL {base_url!r} is not an http:// or https:// URL with a host" in capsys.readouterr().err
    assert sent == [] and not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("base_url", ["http://127.0.0.1:99999/v1", "http://127.0.0.1:x/v1", "http://127.0.0.1:-1/v1"])
def test_fill_refuses_a_base_url_without_a_valid_port_before_any_request(base_url, tmp_path, monkeypatch, capsys):
    sent = []
    monkeypatch.setattr(HttpBackend, "_post", lambda self, payload: sent.append(payload))
    argv = _http_argv("fill", 0, tmp_path, monkeypatch)
    argv[argv.index("--backend") + 1] = "http:stub"
    monkeypatch.setenv("ARGROUND_BASE_URL", base_url)
    assert main(argv) == EXIT_BACKEND
    assert f"base URL {base_url!r} has no valid port" in capsys.readouterr().err
    assert sent == [] and not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("env, message", [
    ({"ARGROUND_API_KEY": "key\r"}, "ARGROUND_API_KEY is not printable ASCII"),
    ({"ARGROUND_API_KEY": "ключ"}, "ARGROUND_API_KEY is not printable ASCII"),
    ({"ARGROUND_BASE_URL": "http://127.0.0.1:9/vé"}, "is not an http:// or https:// URL with a host"),
    ({"ARGROUND_MODEL": "m\udcff"}, "no UTF-8 model configured: 'm\\udcff'"),
])
def test_record_refuses_a_configuration_no_request_can_carry_before_the_log_is_made(env, message, tmp_path,
                                                                                     monkeypatch, capsys):
    sent = []
    monkeypatch.setattr(HttpBackend, "_post", lambda self, payload: sent.append(payload))
    argv = _http_argv("fill", 0, tmp_path, monkeypatch)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv) == EXIT_BACKEND
    assert message in capsys.readouterr().err
    assert sent == [] and not (tmp_path / "out.jsonl").exists() and not (tmp_path / "log.jsonl").exists()


def test_backend_from_spec_refuses_an_unknown_kind_without_argparse():
    for spec in ("bogus:x", "mock"):
        with pytest.raises(ValueError, match="must look like kind:argument"):
            backend_from_spec(spec)


@pytest.mark.parametrize("temperature", ["nan", "inf"])
def test_fill_refuses_a_temperature_that_is_not_finite_before_any_request(temperature, tmp_path, monkeypatch,
                                                                          capsys):
    sent = []
    monkeypatch.setattr(HttpBackend, "_post", lambda self, payload: sent.append(payload))
    argv = _http_argv("fill", 0, tmp_path, monkeypatch) + ["--temperature", temperature]
    assert main(argv) == EXIT_USAGE
    assert "temperature must be a finite number >= 0" in capsys.readouterr().err
    assert sent == [] and not (tmp_path / "out.jsonl").exists()


def _http_argv(command, port, d, monkeypatch):
    """``command`` on three dialogues against the stub, one request at a time, recording to ``d/log.jsonl``."""
    monkeypatch.setenv("ARGROUND_API_KEY", "test-key")
    monkeypatch.setenv("ARGROUND_BASE_URL", f"http://127.0.0.1:{port}")
    monkeypatch.setenv("ARGROUND_MODEL", "stub")
    dialogues = [make_dialogue(f"d{i}", "salon", "hair_appointment", {"name": "john"}) for i in range(3)]
    (d / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
    (d / "dialogues.jsonl").write_text(jsonl(map(dialogue_to_obj, dialogues)), encoding="utf-8")
    return [command, "--dialogues", str(d / "dialogues.jsonl"), "--schemas", str(d / "catalog.json"),
            "--backend", f"record:{d / 'log.jsonl'}", "--in-flight", "1", "--out", str(d / "out.jsonl")]


def test_fill_on_a_null_completion_exits_3_and_logs_no_bad_record(flaky_stub, tmp_path, monkeypatch, capsys):
    _FlakyStub.statuses, _FlakyStub.contents = [200] * 3, ['{"name": "john"}', None]
    assert main(_http_argv("fill", flaky_stub, tmp_path, monkeypatch)) == EXIT_BACKEND
    assert "malformed completion response" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()
    open_replay(tmp_path / "log.jsonl")  # no LogCorrupt
    assert len((tmp_path / "log.jsonl").read_text(encoding="utf-8").splitlines()) == 2  # d0 and d2


def test_reject_sample_skips_a_dialogue_whose_completion_is_null(flaky_stub, tmp_path, monkeypatch, caplog):
    _FlakyStub.statuses, _FlakyStub.contents = [200] * 3, ['{"name": "john"}', None]
    argv = _http_argv("reject-sample", flaky_stub, tmp_path, monkeypatch)
    with caplog.at_level(logging.WARNING):
        assert main([*argv, "--k", "2"]) == EXIT_OK
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warning.startswith("skipping dialogue 'd1': malformed completion response")
    stats = json.loads((tmp_path / "out.jsonl.stats.json").read_text(encoding="utf-8"))
    assert stats["skipped_dialogues"] == 1 and stats["generated"] == 4


def test_record_stores_a_lone_surrogate_reply_that_replay_serves_as_http_did(flaky_stub, tmp_path, monkeypatch):
    argv = [*_http_argv("reject-sample", flaky_stub, tmp_path, monkeypatch), "--k", "2"]
    log = tmp_path / "log.jsonl"

    def run(backend, out):
        _FlakyStub.statuses, _FlakyStub.contents = [200] * 3, ['{"name": "john"} \ud83d'] * 3
        args = list(argv)
        args[args.index("--backend") + 1] = backend
        args[args.index("--out") + 1] = str(tmp_path / out)
        assert main(args) == EXIT_OK
        return (tmp_path / out).read_bytes()

    live = run("http:stub", "live.jsonl")
    assert run(f"record:{log}", "recorded.jsonl") == live
    assert _FlakyStub.requests == 6
    assert len(log.read_text(encoding="ascii").splitlines()) == 3
    assert run(f"replay:{log}", "replayed.jsonl") == live
    assert _FlakyStub.requests == 6


# --- generate_all: the one dispatch loop ----------------------------------------

class _Counting(GenerationBackend):
    """Echoes each request's tag and counts the calls inside ``generate``.

    A request whose tag starts with ``fail`` raises ``BackendError``; a request's
    ``max_tokens`` is how many milliseconds it takes, so later requests can finish first.
    """

    backend_id = "counting"

    def __init__(self):
        self.lock = threading.Lock()
        self.outstanding: list[str] = []
        self.peak = 0

    def generate(self, request):
        with self.lock:
            self.outstanding.append(request.tag)
            self.peak = max(self.peak, len(self.outstanding))
        try:
            time.sleep(request.max_tokens / 1000)
            if request.tag.startswith("fail"):
                raise BackendError("scripted failure")
            return GenerationRecord(request, (request.tag,), self.backend_id)
        finally:
            with self.lock:
                self.outstanding.remove(request.tag)


def _tagged(*tags, ms=1):
    return [GenerationRequest(prompt=tag, tag=tag, max_tokens=ms) for tag in tags]


def test_generate_all_returns_records_grouped_in_request_order():
    backend = _Counting()
    groups = [_tagged("a0", "a1", ms=30), [], _tagged("c0", "c1", "c2", ms=10), _tagged("d0", ms=1)]
    results = generate_all(backend, groups, in_flight=3)
    assert [[r.outputs[0] for r in group] for group in results] == [
        ["a0", "a1"], [], ["c0", "c1", "c2"], ["d0"]
    ]
    assert backend.peak == 3


def test_generate_all_returns_a_backend_error_as_its_record():
    results = generate_all(_Counting(), [_tagged("a"), _tagged("fail", "b")], in_flight=2)
    assert results[0][0].outputs == ("a",)
    assert isinstance(results[1][0], BackendError) and str(results[1][0]) == "scripted failure"
    assert results[1][1].outputs == ("b",)


@pytest.mark.parametrize("in_flight", [0, -2])
def test_generate_all_rejects_in_flight_below_one(in_flight):
    with pytest.raises(ValueError, match="in_flight"):
        generate_all(_Counting(), [_tagged("a")], in_flight)


def test_generate_all_refuses_in_flight_above_the_bound():
    with pytest.raises(ValueError, match="in_flight"):
        generate_all(_Counting(), [_tagged("a")], MAX_IN_FLIGHT + 1)


def test_mock_backend_is_sent_one_request_at_a_time():
    class CountingMock(MockBackend):
        def __init__(self, outputs):
            super().__init__(outputs)
            self.counter = _Counting()

        def generate(self, request):
            self.counter.generate(request)
            return super().generate(request)

    backend = CountingMock([f"out {i}" for i in range(8)])
    results = generate_all(backend, [_tagged(f"r{i}", f"s{i}") for i in range(4)], in_flight=4)
    assert [r.outputs[0] for group in results for r in group] == [f"out {i}" for i in range(8)]
    assert backend.counter.peak == 1


def _no_thread_starts(monkeypatch):
    def start(thread):
        raise AssertionError("this backend should be answered in line")

    monkeypatch.setattr(threading.Thread, "start", start)


def _count_thread_starts(monkeypatch, fail_at=None):
    """Record each thread ``generate_all`` starts; start number ``fail_at`` (from 1) raises instead."""
    started, start = [], threading.Thread.start

    def counting_start(thread):
        if len(started) + 1 == fail_at:
            raise RuntimeError("can't start new thread")
        start(thread)
        started.append(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def test_a_read_only_replay_store_is_answered_without_a_thread_pool(tmp_path, monkeypatch):
    groups = [_tagged("a0", "a1"), [], _tagged("c0", "c1", "c2")]
    log = tmp_path / "log.jsonl"
    log.write_text(jsonl(asdict(GenerationRecord(r, (f"out {r.tag}",), "logged")) for group in groups for r in group),
                   encoding="utf-8")
    store = open_replay(log)
    _no_thread_starts(monkeypatch)
    results = generate_all(store, [*groups, _tagged("missing")], in_flight=4)
    assert [[r.outputs[0] for r in group] for group in results[:3]] == [
        ["out a0", "out a1"], [], ["out c0", "out c1", "out c2"]
    ]
    assert isinstance(results[3][0], ReplayMiss)


def test_a_mock_backend_is_answered_without_a_thread(monkeypatch):
    _no_thread_starts(monkeypatch)
    results = generate_all(MockBackend(["x", "y", "z"]), [_tagged("a", "b"), [], _tagged("c", "d")], in_flight=4)
    assert [r.outputs for r in results[0]] == [("x",), ("y",)] and results[1] == []
    assert results[2][0].outputs == ("z",) and isinstance(results[2][1], BackendError)


def test_a_recording_store_goes_through_the_thread_pool(tmp_path, monkeypatch):
    """The caller's thread is one of the three workers three requests get at in_flight=4."""
    started = _count_thread_starts(monkeypatch)
    inner = _Counting()
    store = open_replay(tmp_path / "log.jsonl", inner)
    results = generate_all(store, [_tagged("a", "b", ms=30), _tagged("c", ms=30)], in_flight=4)
    assert [r.outputs for group in results for r in group] == [("a",), ("b",), ("c",)]
    assert len(started) == 2 and inner.peak == 3


class _Logging(_Counting):
    """A ``_Counting`` backend that logs each request's tag as it arrives, raises
    ``AuthError`` on a request tagged ``auth`` and records ``close()``."""

    def __init__(self):
        super().__init__()
        self.sent: list[str] = []
        self.closed = False

    def generate(self, request):
        with self.lock:
            self.sent.append(request.tag)
        if request.tag == "auth":
            raise AuthError("authentication failed (HTTP 401)")
        return super().generate(request)

    def close(self):
        self.closed = True


def test_dispatch_stops_at_the_first_exception_that_is_not_a_backend_error():
    backend = _Logging()
    groups = [_tagged("slow", ms=200), _tagged("auth"), _tagged(*(f"r{i}" for i in range(2, 10)))]
    with pytest.raises(AuthError):
        generate_all(backend, groups, in_flight=2)
    assert sorted(backend.sent) == ["auth", "slow"] and backend.closed


def test_a_helper_that_cannot_start_stops_and_joins_the_started_workers(monkeypatch):
    threads = threading.active_count()
    backend = _Logging()
    started = _count_thread_starts(monkeypatch, fail_at=2)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        generate_all(backend, [_tagged(*(f"r{i}" for i in range(6)), ms=100)], in_flight=4)
    assert len(started) == 1 and not started[0].is_alive()
    assert backend.sent in ([], ["r0"]) and backend.closed
    assert threading.active_count() == threads


def test_the_shared_request_iterator_hands_out_each_request_once_under_stress():
    rng = random.Random(30)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert generate_all(_Logging(), [], in_flight=4) == []
        assert generate_all(_Logging(), [[], []], in_flight=4) == [[], []]
        for in_flight in range(1, 9):
            tags = [f"fail{i}" if i % 7 == 0 else f"r{i}" for i in range(300)]
            cuts = sorted(rng.choices(range(301), k=40))
            groups = [[GenerationRequest(prompt=t, tag=t, max_tokens=rng.randint(1, 3)) for t in tags[a:b]]
                      for a, b in zip([0, *cuts], [*cuts, 300])]
            backend = _Logging()
            results = generate_all(backend, groups, in_flight)
            assert threading.active_count() == threads
            assert sorted(backend.sent) == sorted(tags) and backend.peak <= in_flight
            assert [["error" if isinstance(r, BackendError) else r.outputs[0] for r in group] for group in results] == [
                ["error" if r.tag.startswith("fail") else r.tag for r in group] for group in groups
            ]
    finally:
        sys.setswitchinterval(interval)


def test_mock_rejection_sample_is_deterministic_at_the_default_in_flight(hair_catalog):
    dialogues = [
        make_dialogue(f"d{i:02d}", "salon", "hair_appointment", {"name": f"person {i}"})
        for i in range(40)
    ]
    # per dialogue: its own name (kept) and another dialogue's name (rejected)
    script = [o for i in range(40) for o in (f'{{"name": "person {i}"}}', f'{{"name": "someone {i}"}}')]

    def sample(config):
        return rejection_sample(MockBackend(script), dialogues, hair_catalog, config)

    serial = sample(SamplerConfig(k=2, in_flight=1))
    assert serial[1].kept == 40 and serial[1].rejected == 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [sample(SamplerConfig(k=2)) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert runs == [serial] * 3


def test_rejection_sample_scores_each_distinct_map_once_per_dialogue(hair_catalog, monkeypatch):
    dialogues = [make_dialogue(f"d{i}", "salon", "hair_appointment", {"name": f"person {i}"}) for i in range(2)]
    classify, calls = sampler.classify_errors, []
    monkeypatch.setattr(sampler, "classify_errors", lambda *args: calls.append(args) or classify(*args))
    # per dialogue: a kept map and a rejected one, each repeated in another form, then the kept one again
    script = [o for i in range(2) for o in (f'{{"name": "person {i}"}}', '{"name": "nobody"}',
                                            f"{{'NAME': 'Person {i}'}}", '{"name": "nobody",}',
                                            f'{{"name": "person {i}"}}')]
    augmented, stats = rejection_sample(MockBackend(script), dialogues, hair_catalog, SamplerConfig(k=5))
    assert len(calls) == 4  # two distinct maps in each dialogue
    assert (stats.generated, stats.kept, stats.rejected, stats.deduplicated) == (10, 2, 4, 4)
    assert [e.completion for e in augmented if e.source == "sampled"] == ['{"name": "person 0"}',
                                                                         '{"name": "person 1"}']


def test_rejection_sample_builds_each_default_prompt_once(hair_catalog, monkeypatch):
    dialogues = [make_dialogue(f"d{i}", "salon", "hair_appointment", {"name": f"person {i}"}) for i in range(5)]
    build, calls = prompting.build_default_prompt, []
    for module in (prompting, sampler):  # every name the builder is bound to
        monkeypatch.setattr(module, "build_default_prompt", lambda *args: calls.append(args) or build(*args))
    augmented, _ = rejection_sample(MockBackend(['{"name": "x"}'] * 10), dialogues, hair_catalog, SamplerConfig(k=2))
    assert len(calls) == len(dialogues)
    schema = hair_catalog["hair_appointment"]
    assert [e.prompt for e in augmented if e.source == "gold"] == [build(schema, d).text for d in dialogues]
