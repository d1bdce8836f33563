import json
import logging
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from arground import prompting, sampler
from arground.cli import EXIT_BACKEND, EXIT_OK, main
from arground.errors import BackendError, DatasetInvalid
from arground.generation import (
    GenerationBackend,
    GenerationRecord,
    GenerationRequest,
    HttpBackend,
    MockBackend,
    generate_all,
    open_replay,
)
from arground.sampler import SamplerConfig, rejection_sample
from arground.schema import dialogue_to_obj, dump_schema_catalog

from conftest import jsonl, make_dialogue


class _FlakyStub(BaseHTTPRequestHandler):
    """Answers each POST with the next status of ``statuses``. A 200 carries ``n``
    choices whose content is the next of ``contents``, or ``{"name": "john"}``
    once they run out."""

    statuses: list[int] = []
    contents: list = []
    requests = 0

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests += 1
        status = type(self).statuses.pop(0)
        body = b"{}"
        if status == 200:
            content = type(self).contents.pop(0) if type(self).contents else '{"name": "john"}'
            body = json.dumps({"choices": [{"message": {"content": content}}] * payload["n"]}).encode()
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
    _FlakyStub.requests, _FlakyStub.contents = 0, []
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


def _http_argv(command, port, d, hair_catalog, monkeypatch):
    """``command`` on three dialogues against the stub, one request at a time, recording to ``d/log.jsonl``."""
    monkeypatch.setenv("ARGROUND_API_KEY", "test-key")
    monkeypatch.setenv("ARGROUND_BASE_URL", f"http://127.0.0.1:{port}")
    monkeypatch.setenv("ARGROUND_MODEL", "stub")
    dialogues = [make_dialogue(f"d{i}", "salon", "hair_appointment", {"name": "john"}) for i in range(3)]
    (d / "catalog.json").write_text(dump_schema_catalog(hair_catalog), encoding="utf-8")
    (d / "dialogues.jsonl").write_text(jsonl(map(dialogue_to_obj, dialogues)), encoding="utf-8")
    return [command, "--dialogues", str(d / "dialogues.jsonl"), "--schemas", str(d / "catalog.json"),
            "--backend", f"record:{d / 'log.jsonl'}", "--in-flight", "1", "--out", str(d / "out.jsonl")]


def test_fill_on_a_null_completion_exits_3_and_logs_no_bad_record(flaky_stub, tmp_path, hair_catalog,
                                                                   monkeypatch, capsys):
    _FlakyStub.statuses, _FlakyStub.contents = [200] * 3, ['{"name": "john"}', None]
    assert main(_http_argv("fill", flaky_stub, tmp_path, hair_catalog, monkeypatch)) == EXIT_BACKEND
    assert "malformed completion response" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()
    open_replay(tmp_path / "log.jsonl")  # no LogCorrupt
    assert len((tmp_path / "log.jsonl").read_text(encoding="utf-8").splitlines()) == 2  # d0 and d2


def test_reject_sample_skips_a_dialogue_whose_completion_is_null(flaky_stub, tmp_path, hair_catalog,
                                                                  monkeypatch, caplog):
    _FlakyStub.statuses, _FlakyStub.contents = [200] * 3, ['{"name": "john"}', None]
    argv = _http_argv("reject-sample", flaky_stub, tmp_path, hair_catalog, monkeypatch)
    with caplog.at_level(logging.WARNING):
        assert main([*argv, "--k", "2"]) == EXIT_OK
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warning.startswith("skipping dialogue 'd1': malformed completion response")
    stats = json.loads((tmp_path / "out.jsonl.stats.json").read_text(encoding="utf-8"))
    assert stats["skipped_dialogues"] == 1 and stats["generated"] == 4


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


def test_rejection_sample_builds_each_default_prompt_once(hair_catalog, monkeypatch):
    dialogues = [make_dialogue(f"d{i}", "salon", "hair_appointment", {"name": f"person {i}"}) for i in range(5)]
    build, calls = prompting.build_default_prompt, []
    for module in (prompting, sampler):  # every name the builder is bound to
        monkeypatch.setattr(module, "build_default_prompt", lambda *args: calls.append(args) or build(*args))
    augmented, _ = rejection_sample(MockBackend(['{"name": "x"}'] * 10), dialogues, hair_catalog, SamplerConfig(k=2))
    assert len(calls) == len(dialogues)
    schema = hair_catalog["hair_appointment"]
    assert [e.prompt for e in augmented if e.source == "gold"] == [build(schema, d).text for d in dialogues]


def test_rejection_sample_on_an_api_missing_from_the_catalog_is_dataset_invalid(hair_catalog):
    dialogues = [make_dialogue("d0", "salon", "hair_appointment", {"name": "ann"}),
                 make_dialogue("d1", "nails", "nail_appointment", {"colour": "red"})]
    with pytest.raises(DatasetInvalid, match="nail_appointment"):
        rejection_sample(MockBackend([]), dialogues, hair_catalog, SamplerConfig(k=1))
