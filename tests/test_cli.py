import csv
import io
import json
import logging
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from arground import cli
from arground.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, emit_error_panel, main
from arground.generation import GenerationBackend, GenerationRecord, MockBackend, record_to_obj
from arground.metrics import evaluate_corpus
from arground.prompting import default_request, template_hashes
from arground.schema import ArgumentMap, dialogue_from_obj, dialogue_to_obj, dump_schema_catalog, load_dialogues
from arground.scoring import classify_errors

from conftest import jsonl, make_dialogue


def _write_jsonl(path, rows):
    path.write_text(jsonl(rows), encoding="utf-8")


def _evaluate_argv(tmp_path, hair_catalog, hair_dialogue, arguments):
    (tmp_path / "catalog.json").write_text(dump_schema_catalog(hair_catalog), encoding="utf-8")
    _write_jsonl(tmp_path / "gold.jsonl", [dialogue_to_obj(hair_dialogue)])
    _write_jsonl(tmp_path / "pred.jsonl", [{"id": hair_dialogue.id, "arguments": arguments}])
    return [
        "evaluate",
        "--pred", str(tmp_path / "pred.jsonl"),
        "--gold", str(tmp_path / "gold.jsonl"),
        "--schemas", str(tmp_path / "catalog.json"),
        "--out", str(tmp_path / "metrics.csv"),
        "--scored-out", str(tmp_path / "scored.jsonl"),
    ]


def test_evaluate_then_report(tmp_path, hair_catalog, hair_dialogue):
    argv = _evaluate_argv(tmp_path, hair_catalog, hair_dialogue, {"name": "john"})
    assert main(argv) == EXIT_OK
    report_argv = ["report", "--breakdowns", str(tmp_path / "scored.jsonl"), "--group-by", "split",
                   "--out", str(tmp_path / "panel.csv")]
    assert main(report_argv) == EXIT_OK
    (panel,) = csv.DictReader(io.StringIO((tmp_path / "panel.csv").read_text(encoding="utf-8")))
    assert float(panel["mk_rate"]) == 0.25


def test_evaluate_non_object_arguments_is_data_error(tmp_path, hair_catalog, hair_dialogue, capsys):
    argv = _evaluate_argv(tmp_path, hair_catalog, hair_dialogue, ["name", "john"])
    assert main(argv) == EXIT_DATA
    assert hair_dialogue.id in capsys.readouterr().err


@pytest.mark.parametrize(
    "breakdown",
    [
        {"n_nk": 0},
        {"n_nk": "many", "n_mk": 0, "n_sv": 0, "n_hv": 0, "n_total": 2, "reward": 1.0},
        [0, 0, 0, 0],
    ],
)
def test_report_malformed_breakdown_is_data_error(tmp_path, breakdown):
    _write_jsonl(tmp_path / "scored.jsonl", [{"split": "test", "breakdown": breakdown}])
    argv = ["report", "--breakdowns", str(tmp_path / "scored.jsonl"), "--group-by", "split",
            "--out", str(tmp_path / "panel.csv")]
    assert main(argv) == EXIT_DATA
    assert not (tmp_path / "panel.csv").exists()


def test_single_group_panel_matches_evaluate_corpus(hair_schema):
    gold = ArgumentMap.from_dict({"name": "john", "time": "3pm", "stylist": "jess"})
    preds = [
        ArgumentMap.from_dict({"name": "john", "time": "3pm", "stylist": "jess"}),
        ArgumentMap.from_dict({"name": "jon", "colour": "red"}),
        ArgumentMap.from_dict({"time": "purple", "stylist": "jack"}),
    ]
    pairs = [(pred, gold) for pred in preds]
    breakdowns = [classify_errors(pred, gold, hair_schema) for pred, gold in pairs]
    report = evaluate_corpus(pairs, breakdowns)
    rows = [{"split": "test", "breakdown": b.to_obj()} for b in breakdowns]
    (panel,) = csv.DictReader(io.StringIO(emit_error_panel(rows, "split")))
    got = tuple(float(panel[name]) for name in ("nk_rate", "mk_rate", "sv_rate", "hv_rate"))
    assert got == (report.nk_rate, report.mk_rate, report.sv_rate, report.hv_rate)
    assert got != (0.0, 0.0, 0.0, 0.0)
    assert panel["n_samples"] == "3"


def test_mock_fill_is_deterministic_at_any_in_flight(tmp_path, hair_catalog):
    dialogues = [
        make_dialogue(f"d{i:02d}", "salon", "hair_appointment", {"name": f"person {i}"})
        for i in range(40)
    ]
    (tmp_path / "catalog.json").write_text(dump_schema_catalog(hair_catalog), encoding="utf-8")
    _write_jsonl(tmp_path / "dialogues.jsonl", map(dialogue_to_obj, dialogues))
    _write_jsonl(tmp_path / "script.jsonl", [f'{{"name": "person {i}"}}' for i in range(40)])

    def fill(in_flight, name):
        out = tmp_path / name
        argv = ["fill", "--dialogues", str(tmp_path / "dialogues.jsonl"),
                "--schemas", str(tmp_path / "catalog.json"),
                "--backend", f"mock:{tmp_path / 'script.jsonl'}",
                "--in-flight", str(in_flight), "--out", str(out)]
        assert main(argv) == EXIT_OK
        return out.read_bytes()

    serial = fill(1, "serial.jsonl")
    assert [json.loads(line)["arguments"] for line in serial.splitlines()] == [
        {"name": f"person {i}"} for i in range(40)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [fill(4, f"run{i}.jsonl") for i in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert runs == [serial] * 3


# --- contracts of every subcommand, on small fixture files ---------------------

def _fixture_files(d, hair_catalog):
    dialogues = [
        make_dialogue(f"d{i}", ("salon", "barber")[i % 2], "hair_appointment", {"name": f"person {i}"})
        for i in range(6)
    ]
    (d / "catalog.json").write_text(dump_schema_catalog(hair_catalog), encoding="utf-8")
    _write_jsonl(d / "dialogues.jsonl", map(dialogue_to_obj, dialogues))
    _write_jsonl(d / "default.script", [f'{{"name": "person {i}"}}' if i % 3 else "no idea" for i in range(6)])
    _write_jsonl(d / "multistep.script", [r for i in range(6) for r in (f"person {i}", "NONE", "jess")])
    # per dialogue: one kept candidate, then an unparseable one or a duplicate
    _write_jsonl(d / "sample.script", [r for i in range(6) for r in (
        f"{{'name': 'person {i}'}}", f'{{"name": "person {i}"}}' if i % 2 else "nothing")])
    _write_jsonl(d / "pred.jsonl", [{"id": f"d{i}", "model": "m", "arguments": {"name": f"persn {i}"}}
                                    for i in range(6)])
    gold, schema = dialogues[0].gold_arguments, hair_catalog["hair_appointment"]
    breakdowns = [classify_errors(ArgumentMap.from_dict(a), gold, schema)
                  for a in ({"name": "person 0"}, {"stylist": "bob"})]
    _write_jsonl(d / "scored.jsonl", [{"split": s, "breakdown": b.to_obj()} for s, b in zip("ab", breakdowns)])
    (d / "synonyms.json").write_text('{"barber": "salon-annex"}', encoding="utf-8")


def _common(d):
    return ["--dialogues", str(d / "dialogues.jsonl"), "--schemas", str(d / "catalog.json")]


def _backend_changes(d):
    return {"--backend": f"mock:{d / 'other.script'}", "--temperature": "0.5", "--max-tokens": "64",
            "--in-flight": "2", "--out": str(d / "other.jsonl")}


def _split(kind, extra, changes):
    def argv(d):
        return (["split", kind, *_common(d), "--out-train", str(d / "train.jsonl"),
                 "--out-test", str(d / "test.jsonl"), *extra(d)],
                ["train.jsonl", "test.jsonl", "split_manifest.json", "train.jsonl.meta.json"],
                f"split {kind}",
                {"--out-train": str(d / "other.jsonl"), "--out-test": str(d / "other_test.jsonl"),
                 "--manifest": str(d / "other_manifest.json"), **changes})
    return argv


# name -> (argv, artifacts, the run record's command, {option: a different value} for
# every option its config_hash covers; None adds a switch)
SUBCOMMANDS = {
    "export-sft": lambda d: (["export-sft", *_common(d), "--out", str(d / "out.jsonl")],
                             ["out.jsonl", "out.jsonl.meta.json"], "export-sft",
                             {"--out": str(d / "other.jsonl")}),
    "fill-default": lambda d: (["fill", *_common(d), "--backend", f"mock:{d / 'default.script'}",
                                "--out", str(d / "out.jsonl")], ["out.jsonl", "out.jsonl.meta.json"], "fill",
                               {"--mode": "multistep", **_backend_changes(d)}),
    "fill-multistep": lambda d: (["fill", "--mode", "multistep", *_common(d), "--backend",
                                  f"mock:{d / 'multistep.script'}", "--out", str(d / "out.jsonl")],
                                 ["out.jsonl", "out.jsonl.meta.json"], "fill",
                                 {"--mode": "default", **_backend_changes(d)}),
    "reject-sample": lambda d: (["reject-sample", *_common(d), "--backend", f"mock:{d / 'sample.script'}",
                                 "--k", "2", "--out", str(d / "out.jsonl")],
                                ["out.jsonl", "out.jsonl.stats.json", "out.jsonl.meta.json"], "reject-sample",
                                {"--k": "1", "--strict": None, **_backend_changes(d)}),
    "evaluate": lambda d: (["evaluate", "--pred", str(d / "pred.jsonl"), "--gold", str(d / "dialogues.jsonl"),
                            "--schemas", str(d / "catalog.json"), "--out", str(d / "metrics.csv"),
                            "--scored-out", str(d / "out.jsonl")],
                           ["metrics.csv", "out.jsonl", "metrics.csv.meta.json"], "evaluate",
                           {"--out": str(d / "other.csv"), "--scored-out": str(d / "other.jsonl"),
                            "--dataset": "sgd", "--split": "test", "--backend-label": "m2"}),
    "report": lambda d: (["report", "--breakdowns", str(d / "scored.jsonl"), "--group-by", "split",
                          "--out", str(d / "panel.csv")], ["panel.csv", "panel.csv.meta.json"], "report",
                         {"--group-by": "model", "--out": str(d / "other.csv")}),
    "split-in-domain": _split("in-domain", lambda d: ["--fraction", "0.5", "--seed", "3"],
                              {"--fraction": "0.25", "--seed": "4"}),
    "split-out-of-domain": _split("out-of-domain", lambda d: ["--holdout", "barber",
                                                              "--synonyms", str(d / "synonyms.json")],
                                  {"--holdout": "salon"}),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_rerun_is_byte_identical(name, tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    argv, artifacts, *_ = SUBCOMMANDS[name](tmp_path)

    def run():
        assert main(argv) == EXIT_OK
        return {a: (tmp_path / a).read_bytes() for a in artifacts}

    first = run()
    assert all(first.values())
    assert run() == first


def _with_option(argv, flag, value):
    if flag not in argv:
        return [*argv, flag] if value is None else [*argv, flag, value]
    i = argv.index(flag)
    return [*argv[:i + 1], value, *argv[i + 2:]]


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_run_record_follows_the_options_not_the_input_paths(name, tmp_path, hair_catalog, monkeypatch):
    _fixture_files(tmp_path, hair_catalog)
    argv, artifacts, command, changes = SUBCOMMANDS[name](tmp_path)
    inputs = [flag for flag, value in zip(argv, argv[1:]) if flag.startswith("--") and Path(value).is_file()]
    options = set(vars(cli.build_parser().parse_args(argv))) - {"command", "split_kind", "func", "inputs"}
    assert options == {flag[2:].replace("-", "_") for flag in [*changes, *inputs]}
    # a backend that answers any mode and any k, so every changed option still runs
    monkeypatch.setattr(cli, "backend_from_spec", lambda spec: MockBackend(["{}"] * 40))
    first = str(tmp_path / artifacts[-1].removesuffix(".meta.json"))

    def record(argv, artifact=first):
        assert main(argv) == EXIT_OK
        return json.loads(Path(f"{artifact}.meta.json").read_text(encoding="utf-8"))

    base = record(argv)
    assert base["command"] == command
    prompts = command in ("export-sft", "reject-sample", "fill")
    assert base["template_hash"] == (template_hashes() if prompts else None)
    assert set(base["input_hashes"]) == {flag[2:] for flag in inputs}

    for flag, value in changes.items():
        artifact = value if flag in argv and argv[argv.index(flag) + 1] == first else first
        assert record(_with_option(argv, flag, value), artifact)["config_hash"] != base["config_hash"], flag

    (tmp_path / "copies").mkdir()
    for flag in inputs:
        path = argv[argv.index(flag) + 1]
        copy = shutil.copy(path, tmp_path / "copies" / Path(path).name)
        moved = record(_with_option(argv, flag, str(copy)))
        assert (moved["config_hash"], moved["input_hashes"]) == (base["config_hash"], base["input_hashes"]), flag


def test_split_in_domain_writes_all_four_files(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    argv, artifacts, *_ = SUBCOMMANDS["split-in-domain"](tmp_path)
    assert main(argv) == EXIT_OK
    assert all((tmp_path / a).exists() for a in artifacts)
    manifest = json.loads((tmp_path / "split_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["train_ids"] + manifest["test_ids"]) == [f"d{i}" for i in range(6)]


@pytest.mark.parametrize("synonyms", ["[1, 2]", '{"salon": 1}', "{not json"])
def test_malformed_synonyms_is_data_error(synonyms, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    (tmp_path / "synonyms.json").write_text(synonyms, encoding="utf-8")
    argv, *_ = SUBCOMMANDS["split-out-of-domain"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("row", [5, {"id": ["d0"], "arguments": {}}, {"id": "d0", "model": ["m"], "arguments": {}}])
def test_malformed_prediction_row_is_data_error(row, tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "pred.jsonl", [row, *({"id": f"d{i}", "arguments": {}} for i in range(1, 6))])
    argv, *_ = SUBCOMMANDS["evaluate"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert not (tmp_path / "metrics.csv").exists()


def test_report_row_that_is_not_an_object_is_data_error(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "scored.jsonl", ["breakdown"])
    argv, *_ = SUBCOMMANDS["report"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert not (tmp_path / "panel.csv").exists()


def test_k_zero_is_usage_error(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    argv, *_ = SUBCOMMANDS["reject-sample"](tmp_path)
    argv[argv.index("--k") + 1] = "0"
    assert main(argv) == EXIT_USAGE


@pytest.mark.parametrize("in_flight", ["0", "-2"])
@pytest.mark.parametrize("command", ["fill-default", "fill-multistep", "reject-sample"])
def test_in_flight_below_one_is_usage_error(command, in_flight, tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    argv, *_ = SUBCOMMANDS[command](tmp_path)
    assert main([*argv, "--in-flight", in_flight]) == EXIT_USAGE
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "backend, log",
    [
        ("replay:{d}/log.jsonl", '{"request": {"prompt": "other", "temperature": 0.0, "max_tokens": 256, '
                                 '"n_samples": 1}, "outputs": ["{}"]}\n'),  # ReplayMiss
        ("replay:{d}/log.jsonl", "not a record\n"),  # LogCorrupt
        ("replay:{d}/missing.jsonl", ""),
        ("mock:{d}/log.jsonl", '"{}"\n'),  # the script runs dry on the second dialogue
        ("record:{d}/log.jsonl", ""),  # no ARGROUND_API_KEY
    ],
)
def test_backend_failures_exit_3(backend, log, tmp_path, hair_catalog, monkeypatch, capsys):
    monkeypatch.delenv("ARGROUND_API_KEY", raising=False)
    _fixture_files(tmp_path, hair_catalog)
    (tmp_path / "log.jsonl").write_text(log, encoding="utf-8")
    argv, *_ = SUBCOMMANDS["fill-default"](tmp_path)
    argv[argv.index("--backend") + 1] = backend.format(d=tmp_path)
    assert main(argv) == EXIT_BACKEND
    assert "backend error" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


_GOOD_RECORD = {"id": "d0", "domain": "salon", "target_api": "hair_appointment",
                "turns": [{"speaker": "user", "utterance": "a haircut at 3pm"}],
                "gold_arguments": {"name": "john"}}


@pytest.mark.parametrize(
    "record",
    [
        {**_GOOD_RECORD, "gold_arguments": ["name", "john"]},
        {**_GOOD_RECORD, "turns": [{"speaker": "user", "utterance": 3}]},
        [_GOOD_RECORD],
        {**_GOOD_RECORD, "turns": None},
        {**_GOOD_RECORD, "turns": "user: a haircut"},
        {**_GOOD_RECORD, "gold_arguments": {"name": {"first": "john"}}},
        {**_GOOD_RECORD, "id": ["d0"]},
        {**_GOOD_RECORD, "domain": {"x": 1}},
        {**_GOOD_RECORD, "target_api": 7},
        {**_GOOD_RECORD, "gold_arguments": {"name": None}},
    ],
    ids=["gold-list", "numeric-utterance", "record-list", "turns-null", "turns-string", "gold-object-value",
         "id-list", "domain-object", "target-api-number", "gold-null"],
)
def test_malformed_dialogue_record_is_data_error(record, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "dialogues.jsonl", [record])
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_numeric_and_boolean_gold_values_become_strings():
    record = {**_GOOD_RECORD, "gold_arguments": {"name": 3, "time": 2.5, "stylist": True}}
    assert dialogue_from_obj(record).gold_arguments.as_dict() == {"name": "3", "time": "2.5", "stylist": "true"}


def test_well_formed_dialogue_record_exports(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "dialogues.jsonl", [_GOOD_RECORD])
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_OK


# --- backend failures and the dispatch loop ----------------------------------

def _replay_log_without(d, hair_catalog, missing):
    """A log answering the fixture's reject-sample and fill-default requests, except one dialogue's."""
    schema = hair_catalog["hair_appointment"]
    records = []
    for dialogue in load_dialogues(d / "dialogues.jsonl", hair_catalog):
        if dialogue.id == missing:
            continue
        answer = json.dumps(dialogue.gold_arguments.as_dict())
        for request in (default_request(schema, dialogue, 2, 0.8, 256), default_request(schema, dialogue, 1, 0.0, 256)):
            records.append(record_to_obj(GenerationRecord(request, [answer] * request.n_samples, "logged")))
    _write_jsonl(d / "log.jsonl", records)
    return f"replay:{d / 'log.jsonl'}"


def test_reject_sample_skips_a_dialogue_whose_request_fails(tmp_path, hair_catalog, caplog):
    _fixture_files(tmp_path, hair_catalog)
    argv, *_ = SUBCOMMANDS["reject-sample"](tmp_path)
    argv[argv.index("--backend") + 1] = _replay_log_without(tmp_path, hair_catalog, "d3")
    with caplog.at_level(logging.WARNING):
        assert main(argv) == EXIT_OK
    rows = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(r["dialogue_id"], r["source"]) for r in rows] == [
        (f"d{i}", source) for i in range(6) for source in (("gold",) if i == 3 else ("gold", "sampled"))
    ]
    stats = json.loads((tmp_path / "out.jsonl.stats.json").read_text(encoding="utf-8"))
    assert stats["skipped_dialogues"] == 1 and stats["generated"] == 10
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warning.startswith("skipping dialogue 'd3': ")


@pytest.mark.parametrize("command, extra", [("reject-sample", ["--strict"]), ("fill-default", [])])
def test_a_failed_request_exits_3_under_strict_and_in_fill(command, extra, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    argv, *_ = SUBCOMMANDS[command](tmp_path)
    argv[argv.index("--backend") + 1] = _replay_log_without(tmp_path, hair_catalog, "d3")
    assert main([*argv, *extra]) == EXIT_BACKEND
    assert "tag='d3'" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


class _SlowSlots(GenerationBackend):
    """Answers slot requests after a delay that shrinks along the schema, so a
    dialogue's later slots finish first; counts the calls inside ``generate``."""

    backend_id = "slow"
    answers = {"name": "person {}", "time": "NONE", "stylist": "jess"}

    def __init__(self):
        self.lock = threading.Lock()
        self.outstanding: list[str] = []
        self.peak = 0
        self.shared = False  # were two requests of one dialogue ever outstanding together?

    def generate(self, request):
        dialogue_id, slot = request.tag.split(":")
        with self.lock:
            self.outstanding.append(dialogue_id)
            self.peak = max(self.peak, len(self.outstanding))
            self.shared |= len(self.outstanding) == 2 and len(set(self.outstanding)) == 1
        time.sleep((3 - list(self.answers).index(slot)) * 0.005)
        with self.lock:
            self.outstanding.remove(dialogue_id)
        return GenerationRecord(request, (self.answers[slot].format(dialogue_id[1:]),), self.backend_id)


def test_fill_multistep_keeps_at_most_in_flight_requests_outstanding(tmp_path, hair_catalog, monkeypatch):
    _fixture_files(tmp_path, hair_catalog)
    backend = _SlowSlots()
    monkeypatch.setattr(cli, "backend_from_spec", lambda spec: backend)
    argv, *_ = SUBCOMMANDS["fill-multistep"](tmp_path)
    assert main([*argv, "--in-flight", "2"]) == EXIT_OK
    rows = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(r["id"], r["arguments"]) for r in rows] == [
        (f"d{i}", {"name": f"person {i}", "stylist": "jess"}) for i in range(6)
    ]
    assert backend.peak == 2
    assert backend.shared
