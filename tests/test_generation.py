import json
import logging
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from arground.errors import BackendError
from arground.generation import GenerationRequest, HttpBackend


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
