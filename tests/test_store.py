"""The response store: ``open_replay`` with and without a recording backend."""

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from arground.cli import EXIT_OK, main
from arground.errors import BackendError, LogCorrupt, ReplayMiss
from arground.generation import GenerationRequest, MockBackend, open_replay
from arground.sampler import SamplerConfig, rejection_sample
from arground.schema import dialogue_to_obj, dump_schema_catalog

from conftest import jsonl, make_dialogue

OUTPUTS = ['{"name": "ann"}', "no object here", '{"name": "bo", "stylist": "jess"}']


def _request(prompt="p", stop=()):
    return GenerationRequest(prompt=prompt, stop_sequences=stop)


def _dialogues():
    return [
        make_dialogue(f"d{i}", "salon", "hair_appointment", {"name": name})
        for i, name in enumerate(("ann", "bo", "cy"))
    ]


class _Gated(MockBackend):
    """Answers only once ``parties`` callers are inside ``generate``."""

    def __init__(self, outputs, parties):
        super().__init__(outputs)
        self.barrier = threading.Barrier(parties)

    def generate(self, request):
        self.barrier.wait(timeout=10)
        return super().generate(request)


def test_record_then_replay_serves_the_recorded_outputs(tmp_path):
    log = tmp_path / "log.jsonl"
    store = open_replay(log, MockBackend(OUTPUTS))
    assert not log.exists()
    recorded = [store.generate(_request(f"p{i}")).outputs for i in range(3)]
    assert store.backend_id == "mock"

    replay = open_replay(log)
    assert [replay.generate(_request(f"p{i}")).outputs for i in range(3)] == recorded
    assert replay.backend_id == "replay"
    with pytest.raises(ReplayMiss):
        replay.generate(_request("p3"))


def test_rerun_on_its_log_makes_no_calls(tmp_path):
    log = tmp_path / "log.jsonl"
    first = open_replay(log, MockBackend(OUTPUTS))
    recorded = [first.generate(_request(f"p{i}")).outputs for i in range(3)]
    rerun = open_replay(log, MockBackend([]))  # any call raises: the script is empty
    assert [rerun.generate(_request(f"p{i}")).outputs for i in range(3)] == recorded
    assert len(log.read_text(encoding="utf-8").splitlines()) == 3


def test_records_of_another_backend_miss(tmp_path):
    log = tmp_path / "log.jsonl"
    open_replay(log, MockBackend(OUTPUTS[:1])).generate(_request())
    other = MockBackend([])
    other.backend_id = "http:model-b"
    with pytest.raises(BackendError, match="exhausted"):
        open_replay(log, other).generate(_request())
    # Read-only replay serves every record, whatever made it.
    assert open_replay(log).generate(_request()).outputs == (OUTPUTS[0],)


def test_a_different_stop_misses(tmp_path):
    log = tmp_path / "log.jsonl"
    open_replay(log, MockBackend(OUTPUTS[:1])).generate(_request())
    replay = open_replay(log)
    assert replay.generate(_request(stop=())).outputs == (OUTPUTS[0],)
    with pytest.raises(ReplayMiss):
        replay.generate(_request(stop=("\n",)))


def _log_entry(outputs):
    return json.dumps({"request": {"prompt": "p", "temperature": 0.0, "max_tokens": 256, "n_samples": 1},
                       "outputs": outputs, "backend_id": "elsewhere"}) + "\n"


def test_log_without_stop_field_keys_like_empty_stop(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(_log_entry(["x"]), encoding="utf-8")
    assert open_replay(log).generate(_request()).outputs == ("x",)


@pytest.mark.parametrize("outputs", [[5], "abc"])
def test_outputs_that_are_not_strings_are_log_corrupt(outputs, tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(_log_entry(["x"]) + _log_entry(outputs), encoding="utf-8")
    with pytest.raises(LogCorrupt, match="byte offset"):
        open_replay(log)


def test_racing_duplicates_get_the_first_stored_record(tmp_path):
    log = tmp_path / "log.jsonl"
    store = open_replay(log, _Gated(["first", "second"], parties=2))
    results = []
    threads = [threading.Thread(target=lambda: results.append(store.generate(_request()))) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len({r.outputs for r in results}) == 1
    assert results[0].outputs == open_replay(log).generate(_request()).outputs
    assert len(log.read_text(encoding="utf-8").splitlines()) == 1


def test_many_recording_threads_agree_with_the_log(tmp_path):
    log = tmp_path / "log.jsonl"
    store = open_replay(log, MockBackend([f"o{i}" for i in range(160)]))
    seen = [{} for _ in range(16)]

    def work(i):
        for j in range(10):
            key = (i + j) % 10
            seen[i][key] = store.generate(_request(f"p{key}")).outputs

    threads = [threading.Thread(target=work, args=(i,)) for i in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    replay = open_replay(log)
    assert seen == [{k: replay.generate(_request(f"p{k}")).outputs for k in range(10)}] * 16
    assert len(log.read_text(encoding="utf-8").splitlines()) == 10


def test_crashed_reject_sample_resumes_without_repeat_calls(hair_catalog, tmp_path):
    log = tmp_path / "log.jsonl"
    dialogues = _dialogues()
    config = SamplerConfig(k=2, temperature=0.8, in_flight=1, strict=True)
    outputs = ['{"name": "ann"}', "{}", '{"name": "bo"}', '{"name": "x"}', '{"name": "cy"}', "none"]

    def run(backend):
        return rejection_sample(backend, dialogues, hair_catalog, config)

    with pytest.raises(BackendError):  # the script runs dry on the third dialogue
        run(open_replay(log, MockBackend(outputs[:4])))
    straight = run(MockBackend(outputs))
    assert run(open_replay(log, MockBackend(outputs[4:]))) == straight
    assert run(open_replay(log, MockBackend([]))) == straight


# --- record: through the CLI, against a local chat-completions stub ----------

class _Stub(BaseHTTPRequestHandler):
    requests = 0

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests += 1
        text = payload["messages"][0]["content"]
        name = text.rsplit("turn 0 of ", 1)[-1].split()[0]
        content = f'{{"name": "{name}"}}' if name != "d1" else "sorry, no idea"
        body = json.dumps({"choices": [{"message": {"content": content}}] * payload["n"]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub(monkeypatch):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Stub.requests = 0
    monkeypatch.setenv("ARGROUND_API_KEY", "test-key")
    monkeypatch.setenv("ARGROUND_BASE_URL", f"http://127.0.0.1:{server.server_address[1]}")
    monkeypatch.setenv("ARGROUND_MODEL", "stub")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    yield _Stub
    server.shutdown()
    server.server_close()


def test_cli_record_then_replay_gives_the_same_rows(stub, hair_catalog, tmp_path):
    (tmp_path / "catalog.json").write_text(dump_schema_catalog(hair_catalog), encoding="utf-8")
    (tmp_path / "dialogues.jsonl").write_text(jsonl(map(dialogue_to_obj, _dialogues())), encoding="utf-8")
    log = tmp_path / "log.jsonl"

    def fill(backend, out):
        argv = ["fill", "--dialogues", str(tmp_path / "dialogues.jsonl"),
                "--schemas", str(tmp_path / "catalog.json"), "--backend", backend,
                "--in-flight", "2", "--out", str(tmp_path / out)]
        assert main(argv) == EXIT_OK
        return [json.loads(line) for line in (tmp_path / out).read_text(encoding="utf-8").splitlines()]

    recorded = fill(f"record:{log}", "recorded.jsonl")
    assert stub.requests == 3
    replayed = fill(f"replay:{log}", "replayed.jsonl")
    assert [(r["arguments"], r["warnings"]) for r in replayed] == [
        (r["arguments"], r["warnings"]) for r in recorded
    ]
    assert recorded[1]["warnings"] == ["unparseable output: NoArgumentObject"]
    assert {r["model"] for r in recorded} == {"http:stub"}
    assert {r["model"] for r in replayed} == {"replay"}

    assert fill(f"record:{log}", "rerun.jsonl") == recorded
    assert stub.requests == 3


def test_cli_reject_sample_on_a_recorded_log_matches_the_live_run(hair_catalog, tmp_path):
    (tmp_path / "catalog.json").write_text(dump_schema_catalog(hair_catalog), encoding="utf-8")
    (tmp_path / "dialogues.jsonl").write_text(jsonl(map(dialogue_to_obj, _dialogues())), encoding="utf-8")
    outputs = [f'{{"name": "{n}"}}' for n in ("ann", "ann", "bo", "x", "cy", "cy")]
    (tmp_path / "script.jsonl").write_text("".join(json.dumps(o) + "\n" for o in outputs), encoding="utf-8")
    log = tmp_path / "log.jsonl"
    config = SamplerConfig(k=2, temperature=0.8, max_tokens=256, in_flight=1)
    rejection_sample(open_replay(log, MockBackend(outputs)), _dialogues(), hair_catalog, config)

    def reject_sample(backend, out):
        argv = ["reject-sample", "--dialogues", str(tmp_path / "dialogues.jsonl"),
                "--schemas", str(tmp_path / "catalog.json"), "--backend", backend, "--k", "2",
                "--out", str(tmp_path / out)]
        assert main(argv) == EXIT_OK
        return [(tmp_path / f"{out}{suffix}").read_bytes() for suffix in ("", ".stats.json")]

    assert reject_sample(f"replay:{log}", "replayed.jsonl") == reject_sample(
        f"mock:{tmp_path / 'script.jsonl'}", "live.jsonl"
    )
