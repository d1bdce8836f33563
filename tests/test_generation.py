import json
import logging
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from arground.errors import BackendError
from arground.generation import (
    GenerationBackend,
    GenerationRecord,
    GenerationRequest,
    HttpBackend,
    MockBackend,
    generate_all,
)
from arground.sampler import SamplerConfig, rejection_sample

from conftest import make_dialogue


class _FlakyStub(BaseHTTPRequestHandler):
    """Answers each POST with the next status of ``statuses``; 200 carries one completion."""

    statuses: list[int] = []
    requests = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).requests += 1
        status = type(self).statuses.pop(0)
        body = b"{}"
        if status == 200:
            body = json.dumps({"choices": [{"message": {"content": '{"name": "john"}'}}]}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_stub(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _FlakyStub.requests = 0
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


def _backend(port, retries=3):
    return HttpBackend(base_url=f"http://127.0.0.1:{port}", api_key="test-key", model="stub",
                       retries=retries, backoff=0)


def _retry_messages(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "arground.generation" and r.levelno == logging.WARNING]


def test_retry_after_503_is_logged(flaky_stub, caplog):
    _FlakyStub.statuses = [503, 200]
    with caplog.at_level(logging.WARNING, logger="arground.generation"):
        record = _backend(flaky_stub).generate(GenerationRequest(prompt="fill the form"))
    assert record.outputs == ('{"name": "john"}',)
    assert _FlakyStub.requests == 2
    assert _retry_messages(caplog) == ["retrying after HTTP 503 (attempt 1/3)"]


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
        assert message.endswith(f"(attempt {attempt}/2)")


# --- generate_all: the one dispatch loop ----------------------------------------

class _Counting(GenerationBackend):
    """Echoes each request's tag and counts the calls inside ``generate``.

    A request tagged ``fail`` raises ``BackendError``; a request's ``max_tokens``
    is how many milliseconds it takes, so later requests can finish first.
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
            if request.tag == "fail":
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
