"""The response store: ``open_replay`` with and without a recording backend."""

import json
import logging
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from arground import generation
from arground.cli import EXIT_BACKEND, EXIT_OK, main
from arground.errors import BackendError, LogCorrupt, ReplayMiss
from arground.generation import (
    GenerationBackend,
    GenerationRecord,
    GenerationRequest,
    MockBackend,
    open_replay,
    record_from_obj,
    record_to_obj,
)
from arground.sampler import SamplerConfig, rejection_sample
from arground.schema import dialogue_to_obj

from conftest import HAIR_CATALOG_JSON, jsonl, make_dialogue

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
    assert log.read_bytes() == b""  # created empty when the store opens
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


# --- the records a log line holds ------------------------------------------------

_RECORDS = [
    GenerationRecord(GenerationRequest("p"), ("o",), "mock"),
    GenerationRecord(GenerationRequest("q \ud800 \u00e9", 0.8, 64, 2, ["\n", "END"], "d1:time"), ["a", "b \udcff"],
                     "http:m", timestamp=1.5e9, latency=0.25),
]


@pytest.mark.parametrize("record", _RECORDS)
def test_a_record_reads_back_from_its_log_line(record):
    back = record_from_obj(json.loads(json.dumps(record_to_obj(record))))
    assert back == record and back.request.tag == record.request.tag
    assert (type(back.outputs), type(back.request.stop_sequences)) == (tuple, tuple)


def test_a_log_line_is_a_json_object_of_the_record_fields_in_order():
    assert json.dumps(record_to_obj(_RECORDS[0])) == (
        '{"request": {"prompt": "p", "temperature": 0.0, "max_tokens": 256, "n_samples": 1, '
        '"stop_sequences": [], "tag": ""}, "outputs": ["o"], "backend_id": "mock", "timestamp": 0.0, "latency": 0.0}'
    )


def test_a_request_equals_and_hashes_alike_whatever_its_tag():
    a, b = GenerationRequest("p", tag="a"), GenerationRequest("p", tag="b")
    assert a == b and not a != b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != GenerationRequest("p", max_tokens=8) and not a == GenerationRequest("p", max_tokens=8)
    assert a != tuple(a) and a != tuple(a)[:5]  # a request equals no plain tuple
    assert GenerationRecord(a, ["o"], "m") == GenerationRecord(b, ("o",), "m")


def _log_entry(outputs, record_fields=(), **request_fields):
    request = {"prompt": "p", "temperature": 0.0, "max_tokens": 256, "n_samples": 1, **request_fields}
    return json.dumps({"request": request, "outputs": outputs, "backend_id": "elsewhere", **dict(record_fields)}) + "\n"


def test_log_without_stop_field_keys_like_empty_stop(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(_log_entry(["x"]), encoding="utf-8")
    assert open_replay(log).generate(_request()).outputs == ("x",)


def test_the_tag_is_no_part_of_the_key(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(_log_entry(["first"], tag="a") + _log_entry(["second"], tag="b")
                   + _log_entry(["one"], prompt="r", n_samples=2), encoding="utf-8")
    replay = open_replay(log)
    # a request tagged "b" is served the record logged first, under "a"
    record = replay.generate(GenerationRequest(prompt="p", tag="b"))
    assert (record.outputs, record.request.tag) == (("first",), "b")
    with pytest.raises(ReplayMiss, match=r"^no recorded response for request \(tag='c'\)$"):
        replay.generate(GenerationRequest(prompt="q", tag="c"))
    with pytest.raises(ReplayMiss, match=r"^recorded response for request \(tag='c'\) has 1 outputs, 2 requested$"):
        replay.generate(GenerationRequest(prompt="r", n_samples=2, tag="c"))


@pytest.mark.parametrize("logged, asked", [(0.0, -0.0), (1.0, 1)])
def test_a_temperature_equal_as_a_number_hits(logged, asked, tmp_path):
    """The key compares numbers, so -0.0 meets 0.0 and 1 meets 1.0."""
    log = tmp_path / "log.jsonl"
    log.write_text(_log_entry(["x"], temperature=logged), encoding="utf-8")
    assert open_replay(log).generate(GenerationRequest(prompt="p", temperature=asked)).outputs == ("x",)


@pytest.mark.parametrize("outputs", [[5], "abc"])
def test_outputs_that_are_not_strings_are_log_corrupt(outputs, tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text(_log_entry(["x"]) + _log_entry(outputs), encoding="utf-8")
    with pytest.raises(LogCorrupt, match="byte offset"):
        open_replay(log)


@pytest.mark.parametrize(
    "line",
    [
        "[" * 100_000 + "]" * 100_000 + "\n",
        _log_entry(["x"], max_tokens=float("inf")),  # json.dumps writes Infinity
        _log_entry(["x"], n_samples=float("inf")),
        _log_entry(["x"], max_tokens=256.9),
        _log_entry(["x"], n_samples=True),
        _log_entry(["x"], temperature="0"),
        _log_entry(["x"], temperature=True),
        _log_entry(["x"], temperature=float("nan")),
        _log_entry(["x"], temperature=-0.5),
        _log_entry(["x"], temperature=10**400),
        _log_entry(["x"], stop_sequences="\n"),
        _log_entry(["x"], stop_sequences=[1]),
        _log_entry(["x"], prompt=["p"]),
        _log_entry(["x"], tag=5),
        _log_entry(["x"], {"backend_id": 7}),
        _log_entry(["x"], {"timestamp": "1.5"}),
        _log_entry(["x"], {"timestamp": True}),
        _log_entry(["x"], {"timestamp": 10**400}),
        _log_entry(["x"], {"latency": "nan"}),
        _log_entry(["x"], {"latency": float("nan")}),
        _log_entry(["x"], {"latency": float("inf")}),
    ],
    ids=["deep-nesting", "max-tokens-infinity", "n-samples-infinity", "max-tokens-fraction", "n-samples-bool",
         "temperature-string", "temperature-bool", "temperature-nan", "temperature-negative",
         "temperature-past-float", "stop-string", "stop-number", "prompt-list", "tag-number",
         "backend-id-number", "timestamp-string", "timestamp-bool", "timestamp-past-float", "latency-string",
         "latency-nan", "latency-infinity"],
)
def test_a_line_replay_could_not_have_written_is_log_corrupt_at_its_offset(line, tmp_path):
    log = tmp_path / "log.jsonl"
    first = _log_entry(["x"], temperature=0.8, stop_sequences=["\n"])
    log.write_text(first + line, encoding="utf-8")
    with pytest.raises(LogCorrupt, match=rf"\(byte offset {len(first.encode())}\)$"):
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


def test_cli_record_then_replay_gives_the_same_rows(stub, tmp_path):
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
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


def test_an_unwritable_record_log_fails_before_any_request(stub, tmp_path, capsys):
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
    (tmp_path / "dialogues.jsonl").write_text(jsonl(map(dialogue_to_obj, _dialogues())), encoding="utf-8")
    log = tmp_path / "no such dir" / "log.jsonl"
    with pytest.raises(FileNotFoundError):
        open_replay(log, MockBackend(OUTPUTS))
    argv = ["fill", "--dialogues", str(tmp_path / "dialogues.jsonl"), "--schemas", str(tmp_path / "catalog.json"),
            "--backend", f"record:{log}", "--in-flight", "2", "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == EXIT_BACKEND
    assert f"backend error: cannot open record log '{log}'" in capsys.readouterr().err
    assert stub.requests == 0
    assert not (tmp_path / "out.jsonl").exists()


def test_cli_reject_sample_on_a_recorded_log_matches_the_live_run(hair_catalog, tmp_path):
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
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


# --- a record log cut off in the middle of an append ------------------------------

class _Live(GenerationBackend):
    """Stands in for the live backend behind ``record:``; answers each dialogue's name and logs its tag."""

    backend_id = "http:live"
    calls: list[str] = []

    def generate(self, request):
        type(self).calls.append(request.tag)
        return GenerationRecord(request, [f'{{"name": "{request.tag}"}}'] * request.n_samples, self.backend_id)


def test_a_record_run_resumes_after_an_append_cut_at_any_byte(tmp_path, monkeypatch, caplog):
    """However much of the last record's line a crash left, the line is dropped and its call made
    once more: the rerun writes the same artifacts and leaves the log as a run that never crashed."""
    monkeypatch.setattr(generation, "HttpBackend", _Live)
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
    (tmp_path / "dialogues.jsonl").write_text(jsonl(map(dialogue_to_obj, _dialogues())), encoding="utf-8")
    log, out = tmp_path / "log.jsonl", tmp_path / "out.jsonl"
    argv = ["fill", "--dialogues", str(tmp_path / "dialogues.jsonl"), "--schemas", str(tmp_path / "catalog.json"),
            "--backend", f"record:{log}", "--in-flight", "1", "--out", str(out)]
    _Live.calls = []
    assert main(argv) == EXIT_OK
    assert _Live.calls == ["d0", "d1", "d2"]
    full, artifacts = log.read_bytes(), (out.read_bytes(), (tmp_path / "out.jsonl.meta.json").read_bytes())
    last = full.rindex(b"\n", 0, len(full) - 1) + 1  # where the last record's line starts
    for cut in range(last, len(full)):
        log.write_bytes(full[:cut])
        _Live.calls = []
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main(argv) == EXIT_OK, cut
        assert (out.read_bytes(), (tmp_path / "out.jsonl.meta.json").read_bytes()) == artifacts, cut
        assert (_Live.calls, log.read_bytes()) == (["d2"], full), cut
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert warnings == ([] if cut == last else [
            f"record log {log}: dropping the unfinished last line at byte offset {last}"]), cut


@pytest.mark.parametrize("recording, newline", [(False, ""), (False, "\n"), (True, "\n")])
def test_a_bad_last_line_is_log_corrupt_unless_recording_left_it_unfinished(recording, newline, tmp_path):
    """Only ``record:`` drops a last line, and only one its newline never reached; read-only
    replay refuses a torn log as it stands."""
    log, good, torn = tmp_path / "log.jsonl", _log_entry(["x"]), _log_entry(["y"], prompt="q")[:-20]
    log.write_text(good + torn + newline, encoding="utf-8")
    with pytest.raises(LogCorrupt, match=rf"\(byte offset {len(good.encode())}\)$"):
        open_replay(log, MockBackend([]) if recording else None)
    assert log.read_text(encoding="utf-8") == good + torn + newline
