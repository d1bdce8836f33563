import csv
import hashlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import arground
from arground import cli
from arground.cli import EXIT_BACKEND, EXIT_DATA, EXIT_OK, EXIT_USAGE, emit_error_panel, main
from arground.errors import UsageError
from arground.generation import GenerationBackend, GenerationRecord, MockBackend, record_to_obj
from arground.metrics import evaluate_corpus
from arground.prompting import default_request, template_hashes
from arground.schema import (
    argument_map_from_obj,
    dialogue_from_obj,
    dialogue_to_obj,
    load_dialogues,
    load_schema_catalog,
)
from arground.scoring import classify_errors

from conftest import HAIR_CATALOG_JSON, jsonl, make_dialogue


def _write_jsonl(path, rows):
    path.write_text(jsonl(rows), encoding="utf-8")


def _jsonl_file(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line]


def _evaluate_argv(tmp_path, hair_dialogue, arguments):
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
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


def test_evaluate_then_report(tmp_path, hair_dialogue):
    argv = _evaluate_argv(tmp_path, hair_dialogue, {"name": "john"})
    assert main(argv) == EXIT_OK
    report_argv = ["report", "--breakdowns", str(tmp_path / "scored.jsonl"), "--group-by", "split",
                   "--out", str(tmp_path / "panel.csv")]
    assert main(report_argv) == EXIT_OK
    (panel,) = csv.DictReader(io.StringIO((tmp_path / "panel.csv").read_text(encoding="utf-8")))
    assert float(panel["mk_rate"]) == 0.25


@pytest.mark.parametrize(
    "arguments",
    [["name", "john"], {"name": None}, {"name": ["ann"]}, {"name": {"x": 1}}, {" ": "john"}, {"name": " "}],
    ids=["list", "null-value", "list-value", "object-value", "blank-key", "empty-value"],
)
def test_evaluate_non_object_arguments_is_data_error(arguments, tmp_path, hair_dialogue, capsys):
    argv = _evaluate_argv(tmp_path, hair_dialogue, arguments)
    assert main(argv) == EXIT_DATA
    assert f"prediction '{hair_dialogue.id}'" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


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


_COUNTS = '"n_mk": 0, "n_sv": 0, "n_hv": 0'


@pytest.mark.parametrize(
    "breakdown, row_id",
    [
        (f'{{"n_nk": {10**400}, {_COUNTS}, "n_total": 2, "reward": -1.0}}', None),
        (f'{{"n_nk": {2**53 + 1}, {_COUNTS}, "n_total": 0, "reward": -1.0}}', None),
        (f'{{"n_nk": {"9" * 5000}, {_COUNTS}, "n_total": 2, "reward": -1.0}}', None),
        ("[" * 100_000 + "]" * 100_000, None),
        (f'{{"n_nk": 5, {_COUNTS}, "n_total": -1, "reward": 1.0}}', "d7"),
        (f'{{"n_nk": true, {_COUNTS}, "n_total": 2, "reward": 0.0}}', None),
        (f'{{"n_nk": 2.7, {_COUNTS}, "n_total": 2, "reward": -1.0}}', "d7"),
        (f'{{"n_nk": "5", {_COUNTS}, "n_total": 2, "reward": -1.0}}', None),
        (f'{{"n_nk": 0, {_COUNTS}, "n_total": 3, "reward": 1.0}}', None),
        ('{"n_nk": 0, "n_mk": 2, "n_sv": 0, "n_hv": 0, "n_total": 2, "reward": -1.0}', None),
        (f'{{"n_nk": 1, {_COUNTS}, "n_total": 4, "reward": 1.0}}', "d7"),
        (f'{{"n_nk": 0, {_COUNTS}, "n_total": 2, "reward": NaN}}', None),
        (f'{{"n_nk": 0, {_COUNTS}, "n_total": 2, "reward": true}}', None),
    ],
    ids=["huge-count", "count-past-2**53", "count-past-int-digit-limit",
         "nested-past-recursion-limit", "negative-total", "bool-count", "float-count",
         "string-count", "odd-total", "mk-past-half-total", "reward-off-counts", "nan-reward", "bool-reward"],
)
def test_report_refuses_a_breakdown_evaluate_could_not_write_naming_its_row(breakdown, row_id, tmp_path, capsys):
    good = f'{{"n_nk": 0, {_COUNTS}, "n_total": 2, "reward": 1.0}}'
    label = f'"id": "{row_id}", ' if row_id else ""
    (tmp_path / "scored.jsonl").write_text(
        f'{{"split": "test", "breakdown": {good}}}\n\n{{{label}"split": "test", "breakdown": {breakdown}}}\n',
        encoding="utf-8",
    )
    argv = ["report", "--breakdowns", str(tmp_path / "scored.jsonl"), "--group-by", "split",
            "--out", str(tmp_path / "panel.csv")]
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: breakdowns line 3" in err
    assert not row_id or f"(id '{row_id}')" in err
    assert not (tmp_path / "panel.csv").exists()


_ERROR_FREE_BREAKDOWN = {"n_nk": 0, "n_mk": 0, "n_sv": 0, "n_hv": 0, "n_total": 2, "reward": 1.0}


@pytest.mark.parametrize(
    "group_by, value",
    [("model", ["m1"]), ("model", None), ("model", {"x": 1}), ("split", 5)],
    ids=["model-list", "model-null", "model-object", "split-number"],
)
def test_report_refuses_a_group_value_evaluate_could_not_write(group_by, value, tmp_path, capsys):
    breakdown = _ERROR_FREE_BREAKDOWN
    _write_jsonl(tmp_path / "scored.jsonl", [{"id": "d0", group_by: "a", "breakdown": breakdown},
                                             {"id": "d1", group_by: value, "breakdown": breakdown}])
    argv = ["report", "--breakdowns", str(tmp_path / "scored.jsonl"), "--group-by", group_by,
            "--out", str(tmp_path / "panel.csv")]
    assert main(argv) == EXIT_DATA
    assert f"data error: breakdowns line 2 (id 'd1'): '{group_by}' must be a string" in capsys.readouterr().err
    assert not (tmp_path / "panel.csv").exists()


@pytest.mark.parametrize("group_by", ["model", "split"])
def test_report_groups_a_row_without_the_field_as_unknown(group_by, tmp_path):
    breakdown = _ERROR_FREE_BREAKDOWN
    _write_jsonl(tmp_path / "scored.jsonl", [{"id": "d0", group_by: "a", "breakdown": breakdown},
                                             {"id": "d1", "breakdown": breakdown}])
    argv = ["report", "--breakdowns", str(tmp_path / "scored.jsonl"), "--group-by", group_by,
            "--out", str(tmp_path / "panel.csv")]
    assert main(argv) == EXIT_OK
    panel = csv.DictReader(io.StringIO((tmp_path / "panel.csv").read_text(encoding="utf-8")))
    assert [row["group"] for row in panel] == ["a", "unknown"]


def test_report_on_evaluate_scored_output_is_unchanged(tmp_path):
    """A panel over every verdict kind, pinned byte for byte."""
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
    gold = {"name": "john", "time": "3pm", "stylist": "jess"}
    predictions = [gold, {"name": "jon", "colour": "red"}, {"time": "purple", "stylist": "jack"}, {}]
    dialogues = [make_dialogue(f"d{i}", "salon", "hair_appointment", gold) for i in range(len(predictions))]
    _write_jsonl(tmp_path / "gold.jsonl", map(dialogue_to_obj, dialogues))
    _write_jsonl(tmp_path / "pred.jsonl", [
        {"id": d.id, "model": f"m{i % 2}", "arguments": arguments}
        for i, (d, arguments) in enumerate(zip(dialogues, predictions))
    ])
    argv = ["evaluate", "--pred", str(tmp_path / "pred.jsonl"), "--gold", str(tmp_path / "gold.jsonl"),
            "--schemas", str(tmp_path / "catalog.json"), "--out", str(tmp_path / "metrics.csv"),
            "--scored-out", str(tmp_path / "scored.jsonl"), "--split", "test"]
    assert main(argv) == EXIT_OK
    panels = {}
    for group_by in ("model", "split"):
        out = tmp_path / f"{group_by}.csv"
        assert main(["report", "--breakdowns", str(tmp_path / "scored.jsonl"), "--group-by", group_by,
                     "--out", str(out)]) == EXIT_OK
        panels[group_by] = out.read_bytes()
    assert panels == {
        "model": b"group,nk_rate,mk_rate,sv_rate,hv_rate,n_samples\n"
                 b"m0,0.0,0.08333333333333333,0.08333333333333333,0.08333333333333333,2\n"
                 b"m1,0.08333333333333333,0.4166666666666667,0.08333333333333333,0.0,2\n",
        "split": b"group,nk_rate,mk_rate,sv_rate,hv_rate,n_samples\n"
                 b"test,0.041666666666666664,0.25,0.08333333333333333,0.041666666666666664,4\n",
    }


def test_single_group_panel_matches_evaluate_corpus(hair_schema):
    gold = argument_map_from_obj({"name": "john", "time": "3pm", "stylist": "jess"})
    preds = [
        argument_map_from_obj({"name": "john", "time": "3pm", "stylist": "jess"}),
        argument_map_from_obj({"name": "jon", "colour": "red"}),
        argument_map_from_obj({"time": "purple", "stylist": "jack"}),
    ]
    pairs = [(pred, gold) for pred in preds]
    breakdowns = [classify_errors(pred, gold, hair_schema) for pred, gold in pairs]
    report = evaluate_corpus(pairs, breakdowns)
    rows = [(f"row {i}", {"split": "test", "breakdown": b.to_obj()}) for i, b in enumerate(breakdowns)]
    (panel,) = csv.DictReader(io.StringIO(emit_error_panel(rows, "split")))
    got = tuple(float(panel[name]) for name in ("nk_rate", "mk_rate", "sv_rate", "hv_rate"))
    assert got == (report.nk_rate, report.mk_rate, report.sv_rate, report.hv_rate)
    assert got != (0.0, 0.0, 0.0, 0.0)
    assert panel["n_samples"] == "3"


def test_mock_fill_is_deterministic_at_any_in_flight(tmp_path):
    dialogues = [
        make_dialogue(f"d{i:02d}", "salon", "hair_appointment", {"name": f"person {i}"})
        for i in range(40)
    ]
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
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
    (d / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
    _write_jsonl(d / "dialogues.jsonl", map(dialogue_to_obj, dialogues))
    _write_jsonl(d / "default.script", [f'{{"name": "person {i}"}}' if i % 3 else "no idea" for i in range(6)])
    _write_jsonl(d / "multistep.script", [r for i in range(6) for r in (f"person {i}", "NONE", "jess")])
    # per dialogue: one kept candidate, then an unparseable one or a duplicate
    _write_jsonl(d / "sample.script", [r for i in range(6) for r in (
        f"{{'name': 'person {i}'}}", f'{{"name": "person {i}"}}' if i % 2 else "nothing")])
    _write_jsonl(d / "pred.jsonl", [{"id": f"d{i}", "model": "m", "arguments": {"name": f"persn {i}"}}
                                    for i in range(6)])
    gold, schema = dialogues[0].gold_arguments, hair_catalog["hair_appointment"]
    breakdowns = [classify_errors(argument_map_from_obj(a), gold, schema)
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
    """Twice in this process, then in a fresh interpreter with another hash
    seed, so a set or a hash iterated into an artifact would show."""
    _fixture_files(tmp_path, hair_catalog)
    argv, artifacts, *_ = SUBCOMMANDS[name](tmp_path)

    def artifact_bytes():
        return {a: (tmp_path / a).read_bytes() for a in artifacts}

    assert main(argv) == EXIT_OK
    first = artifact_bytes()
    assert all(first.values())
    assert main(argv) == EXIT_OK
    assert artifact_bytes() == first

    for artifact in artifacts:
        (tmp_path / artifact).unlink()
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(Path(arground.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "arground.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert artifact_bytes() == first


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


def test_help_exits_0_with_a_one_line_description(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: arground ")
    assert "_write_run" not in out and "config_hash" not in out


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["fil", "--help"], ["fill"], ["fill", "--bogus"], ["split"], ["split", "bogus"],
    ["split", "in-domain", "--help"], *([command, "--help"] for command in cli._COMMANDS),
    *(SUBCOMMANDS[name](Path("d"))[0] for name in sorted(SUBCOMMANDS)),
], ids=lambda argv: " ".join(argv[:3]))
def test_a_parser_built_for_its_argv_parses_it_as_the_full_parser_does(argv, capsys):
    """Help, errors and the parsed options, which make the config hash, are the same."""
    def parse(parser):
        try:
            outcome = vars(parser.parse_args(argv))
        except SystemExit as exc:
            outcome = ("exit", exc.code)
        except UsageError as exc:
            outcome = ("usage error", str(exc))
        return outcome, capsys.readouterr()

    assert parse(cli.build_parser(argv)) == parse(cli.build_parser())
    commands = cli.build_parser(argv)._subparsers._group_actions[0].choices
    assert list(commands) == (argv[:1] if argv and argv[0] in cli._COMMANDS else list(cli._COMMANDS))


@pytest.mark.parametrize("in_flight", ["0", "-2"])
@pytest.mark.parametrize("command", ["fill-default", "fill-multistep", "reject-sample"])
def test_in_flight_below_one_is_usage_error(command, in_flight, tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    argv, *_ = SUBCOMMANDS[command](tmp_path)
    assert main([*argv, "--in-flight", in_flight]) == EXIT_USAGE
    assert not (tmp_path / "out.jsonl").exists()


_MISSING_INPUTS = ("--dialogues", "{d}/missing.jsonl", "--schemas", "{d}/missing.json")
_BAD_OPTION_COMMANDS = {
    "fill": ["fill", *_MISSING_INPUTS, "--backend", "mock:{d}/missing.script", "--out", "{d}/out.jsonl"],
    "reject-sample": ["reject-sample", *_MISSING_INPUTS, "--backend", "mock:{d}/missing.script",
                      "--out", "{d}/out.jsonl"],
    "evaluate": ["evaluate", "--pred", "{d}/missing.jsonl", "--gold", "{d}/missing.jsonl",
                 "--schemas", "{d}/missing.json", "--out", "{d}/metrics.csv"],
    "in-domain": ["split", "in-domain", "--dialogues", "{d}/missing.jsonl", "--out-train", "{d}/train.jsonl",
                  "--out-test", "{d}/test.jsonl", "--seed", "1"],
    "out-of-domain": ["split", "out-of-domain", "--dialogues", "{d}/missing.jsonl",
                      "--out-train", "{d}/train.jsonl", "--out-test", "{d}/test.jsonl"],
}
_RECORD = ("--backend", "record:{d}/log.jsonl")


@pytest.mark.parametrize("command, option", [
    ("fill", ("--backend", "bogus:x")),
    ("fill", ("--backend", "mock")),
    ("fill", ("--backend", "http:m\udcff")),
    ("fill", ("--temperature", "nan")),
    ("fill", ("--temperature", "inf")),
    ("fill", ("--temperature", "-0.5")),
    ("fill", ("--max-tokens", "0")),
    ("fill", ("--in-flight", "0")),
    ("fill", ("--in-flight", "100000")),
    ("fill", (*_RECORD, "--in-flight", "0")),
    ("reject-sample", ("--k", "0")),
    ("reject-sample", (*_RECORD, "--k", "0")),
    ("reject-sample", ("--in-flight", "-2")),
    ("evaluate", ("--dataset", "x\udcff")),
    ("evaluate", ("--split", "x\udcff")),
    ("evaluate", ("--backend-label", "x\udcff")),
    ("in-domain", ("--fraction", "nan")),
    ("in-domain", ("--fraction", "0")),
    ("in-domain", ("--fraction", "1")),
    ("out-of-domain", ("--holdout", ",,")),
    ("out-of-domain", ("--holdout", " , ")),
    ("out-of-domain", ("--holdout", "salon,x\udcff")),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_a_bad_option_exits_1_before_any_input_is_read(command, option, tmp_path, monkeypatch, capsys):
    """Every input is missing, so only a check made before any is read can exit 1."""
    monkeypatch.setenv("ARGROUND_API_KEY", "test-key")
    argv = [arg.format(d=tmp_path) for arg in (*_BAD_OPTION_COMMANDS[command], *option)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: argument {option[-2]}: ")
    assert list(tmp_path.iterdir()) == []  # no artifact, and no record log


@pytest.mark.parametrize("catalog, position", [
    ('[{"api_name": }]', "line 1 column 15"),
    ('[\n  {"api_name": "a",\n   "slots": [}]\n', "line 3 column 14"),
])
def test_a_catalog_that_is_not_json_is_refused_with_its_position(catalog, position, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    (tmp_path / "catalog.json").write_text(catalog, encoding="utf-8")
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert f"data error: catalog is not valid JSON: Expecting value at {position}\n" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_a_dataset_line_that_is_not_json_is_refused_with_its_column(tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    with (tmp_path / "dialogues.jsonl").open("a", encoding="utf-8") as handle:
        handle.write('  {"id": }\n')
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert "data error: dataset line 7 is not valid JSON: Expecting value at column 10\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "backend, log",
    [
        ("replay:{d}/log.jsonl", '{"request": {"prompt": "other", "temperature": 0.0, "max_tokens": 256, '
                                 '"n_samples": 1}, "outputs": ["{}"]}\n'),  # ReplayMiss
        ("replay:{d}/log.jsonl", "not a record\n"),  # LogCorrupt
        ("replay:{d}/missing.jsonl", ""),
        ("mock:{d}/log.jsonl", '"{}"\n'),  # the script runs dry on the second dialogue
        ("mock:{d}/missing.jsonl", ""),
        ("mock:{d}/log.jsonl", '"{}"\nnot json\n'),
        ("mock:{d}/log.jsonl", b'"{}"\n"\xff"\n'),  # not UTF-8
        pytest.param("mock:{d}/log.jsonl", '"{}"\n' + "[" * 100_000 + "]" * 100_000 + "\n", id="mock-deep-nesting"),
        pytest.param("mock:{d}/log.jsonl", '"{}"\n' + "7" * 5000 + "\n", id="mock-past-the-digit-limit"),
        ("record:{d}/log.jsonl", ""),  # no ARGROUND_API_KEY
    ],
)
def test_backend_failures_exit_3(backend, log, tmp_path, hair_catalog, monkeypatch, capsys):
    monkeypatch.delenv("ARGROUND_API_KEY", raising=False)
    _fixture_files(tmp_path, hair_catalog)
    (tmp_path / "log.jsonl").write_bytes(log if isinstance(log, bytes) else log.encode("utf-8"))
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
        {**_GOOD_RECORD, "turns": [{"speaker": "narrator", "utterance": "a haircut"}]},
    ],
    ids=["gold-list", "numeric-utterance", "record-list", "turns-null", "turns-string", "gold-object-value",
         "id-list", "domain-object", "target-api-number", "gold-null", "unknown-speaker"],
)
def test_malformed_dialogue_record_is_data_error(record, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "dialogues.jsonl", [{**_GOOD_RECORD, "id": "d9"}, record])
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: dataset line 2: " in err
    if isinstance(record, dict):
        assert f"dialogue {record['id']!r}: " in err
    assert not (tmp_path / "out.jsonl").exists()


def test_an_unpaired_surrogate_escape_in_a_dialogue_is_data_error(tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    paired, unpaired = ({**_GOOD_RECORD, "id": f"d{i}", "turns": [{"speaker": "user", "utterance": text}]}
                        for i, text in enumerate(["a haircut \U0001f600", "a haircut \ud83d"]))
    # ensure_ascii writes both as \u escapes, the first as a pair
    (tmp_path / "dialogues.jsonl").write_text(f"{json.dumps(paired)}\n{json.dumps(unpaired)}\n", encoding="utf-8")
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert "data error: dataset line 2: unpaired surrogate" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()
    (tmp_path / "dialogues.jsonl").write_text(json.dumps(paired) + "\n", encoding="utf-8")
    assert main(argv) == EXIT_OK
    (row,) = _jsonl_file(tmp_path / "out.jsonl")
    assert "a haircut \U0001f600" in row["prompt"]


def test_a_blank_gold_key_is_data_error_naming_its_dialogue(tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "dialogues.jsonl", [{**_GOOD_RECORD, "gold_arguments": {" ": "john"}}])
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert "dialogue 'd0': gold_arguments: key ' ' is empty after canonicalization" in capsys.readouterr().err


class _Recording(GenerationBackend):
    """Answers every request with empty objects and keeps each request it gets."""

    backend_id = "recording"

    def __init__(self):
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        return GenerationRecord(request, ("{}",) * request.n_samples, self.backend_id)


# the third dialogue of the fixture dataset, changed so it no longer fits the catalog
_MISFITS = {"gold-key-outside-schema": {"gold_arguments": {"name": "person 2", "colour": "red"}},
            "unknown-target-api": {"target_api": "nail_appointment"}}


def _write_misfit(d, misfit):
    rows = _jsonl_file(d / "dialogues.jsonl")
    rows[2].update(_MISFITS[misfit])
    _write_jsonl(d / "dialogues.jsonl", rows)


@pytest.mark.parametrize("misfit", sorted(_MISFITS))
@pytest.mark.parametrize("name", ["export-sft", "reject-sample", "fill-default", "fill-multistep", "evaluate",
                                  "split-in-domain"])
def test_a_dialogue_that_does_not_fit_the_catalog_is_data_error_before_any_request(
    name, misfit, tmp_path, hair_catalog, monkeypatch, capsys
):
    _fixture_files(tmp_path, hair_catalog)
    _write_misfit(tmp_path, misfit)
    backend = _Recording()
    monkeypatch.setattr(cli, "backend_from_spec", lambda spec: backend)
    argv, artifacts, *_ = SUBCOMMANDS[name](tmp_path)
    assert main(argv) == EXIT_DATA
    assert "data error: dataset line 3: dialogue 'd2': " in capsys.readouterr().err
    assert backend.requests == []
    assert not any((tmp_path / a).exists() for a in artifacts)


def test_split_without_a_catalog_keeps_a_gold_key_outside_the_schema(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    _write_misfit(tmp_path, "gold-key-outside-schema")
    argv, *_ = SUBCOMMANDS["split-in-domain"](tmp_path)
    i = argv.index("--schemas")
    assert main([*argv[:i], *argv[i + 2:]]) == EXIT_OK
    rows = _jsonl_file(tmp_path / "train.jsonl") + _jsonl_file(tmp_path / "test.jsonl")
    assert _MISFITS["gold-key-outside-schema"]["gold_arguments"] in [r["gold_arguments"] for r in rows]


# json.dumps(ensure_ascii=False), the program's JSONL writer, leaves these unescaped
_LINE_SEPARATORS = pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"], ids=["NEL", "LS", "PS"])


@_LINE_SEPARATORS
def test_a_split_side_holding_a_unicode_line_separator_reads_back(separator, tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    utterance = f"hi{separator}there"
    (tmp_path / "dialogues.jsonl").write_text("".join(  # ensure_ascii escapes the separator in the input
        json.dumps({**_GOOD_RECORD, "id": f"d{i}", "turns": [{"speaker": "user", "utterance": utterance}]}) + "\n"
        for i in range(8)), encoding="utf-8")
    argv, *_ = SUBCOMMANDS["split-in-domain"](tmp_path)
    assert main(argv) == EXIT_OK
    train, test = (tmp_path / "train.jsonl").read_text(encoding="utf-8"), (tmp_path / "test.jsonl").read_text(
        encoding="utf-8")
    assert separator in train and separator in test
    for side in ("train.jsonl", "test.jsonl"):
        (tmp_path / "dialogues.jsonl").write_text((tmp_path / side).read_text(encoding="utf-8"), encoding="utf-8")
        argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
        assert main(argv) == EXIT_OK, side
        rows = _jsonl_file(tmp_path / "out.jsonl")
        assert len(rows) == 4 and all(utterance in r["prompt"] for r in rows)
    (tmp_path / "dialogues.jsonl").write_text(train, encoding="utf-8")
    argv, *_ = SUBCOMMANDS["split-in-domain"](tmp_path)
    assert main(argv) == EXIT_OK
    again = _jsonl_file(tmp_path / "train.jsonl") + _jsonl_file(tmp_path / "test.jsonl")
    assert sorted(r["id"] for r in again) == sorted(json.loads(line)["id"] for line in train.split("\n") if line)


@_LINE_SEPARATORS
def test_a_mock_script_reply_holding_a_unicode_line_separator_is_one_line(separator, tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "default.script", [f'{{"name": "person{separator}{i}"}}' for i in range(6)])
    assert separator in (tmp_path / "default.script").read_text(encoding="utf-8")
    argv, *_ = SUBCOMMANDS["fill-default"](tmp_path)
    assert main(argv) == EXIT_OK
    assert [r["arguments"] for r in _jsonl_file(tmp_path / "out.jsonl")] == [{"name": f"person {i}"} for i in range(6)]


def test_numeric_and_boolean_gold_values_become_strings():
    record = {**_GOOD_RECORD, "gold_arguments": {"name": 3, "time": 2.5, "stylist": True}}
    assert dialogue_from_obj(record).gold_arguments == {"name": "3", "time": "2.5", "stylist": "true"}


def test_well_formed_dialogue_record_exports(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "dialogues.jsonl", [_GOOD_RECORD])
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_OK


_GOOD_SLOT = {"name": "stylist", "kind": "categorical", "description": "preferred stylist",
              "allowed_values": ["jess", "jack"], "required": False}


def _catalog_entry(slot=None, **changes):
    """One catalog entry for the fixture's API, with ``changes`` to the entry and ``slot`` to its last slot."""
    return {"api_name": "hair_appointment", "description": "Book a hair appointment.",
            "slots": [{"name": "name", "kind": "free-text"}, {**_GOOD_SLOT, **(slot or {})}], **changes}


@pytest.mark.parametrize(
    "entry",
    [
        _catalog_entry(api_name=7),
        _catalog_entry(slot={"name": 7}),
        _catalog_entry(slot={"kind": 7}),
        _catalog_entry(slots=5),
        _catalog_entry(slots=["name"]),
        _catalog_entry(slot={"allowed_values": [1, 2]}),
        _catalog_entry(slot={"allowed_values": "abc"}),
        _catalog_entry(description=["Book", "a haircut"]),
        _catalog_entry(slot={"description": ["preferred", "stylist"]}),
        _catalog_entry(slot={"required": "no"}),
    ],
    ids=["api-name-number", "slot-name-number", "slot-kind-number", "slots-number", "slot-string",
         "allowed-numbers", "allowed-string", "description-list", "slot-description-list", "required-string"],
)
def test_malformed_catalog_entry_is_data_error(entry, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    (tmp_path / "catalog.json").write_text(json.dumps([entry]), encoding="utf-8")
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("catalog.json", json.dumps([_catalog_entry(api_name="  ")]), "catalog entry '  ' has an empty api_name"),
        ("catalog.json", json.dumps([_catalog_entry(slot={"name": "  "})]),
         "catalog entry 'hair_appointment', slot '  ' has an empty name"),
        ("dialogues.jsonl", jsonl([{**_GOOD_RECORD, "target_api": "  "}]),
         "dataset line 1: dialogue 'd0' has an empty target_api"),
    ],
    ids=["api-name", "slot-name", "target-api"],
)
def test_a_blank_name_in_a_catalog_or_dataset_is_data_error_naming_its_field(
    name, content, message, tmp_path, hair_catalog, capsys
):
    _fixture_files(tmp_path, hair_catalog)
    (tmp_path / name).write_text(content, encoding="utf-8")
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_DATA
    assert f"data error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_well_formed_catalog_entry_exports(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    (tmp_path / "catalog.json").write_text(json.dumps([_catalog_entry()]), encoding="utf-8")
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize(
    "command, flag",
    [("export-sft", "--dialogues"), ("export-sft", "--schemas"), ("evaluate", "--pred"), ("evaluate", "--gold"),
     ("report", "--breakdowns"), ("split-out-of-domain", "--synonyms")],
)
def test_an_input_that_is_not_utf8_is_data_error(command, flag, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    argv, artifacts, *_ = SUBCOMMANDS[command](tmp_path)
    Path(argv[argv.index(flag) + 1]).write_bytes(b'{"id": "d\xff"}\n')
    assert main(argv) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert not (tmp_path / artifacts[0]).exists()


@pytest.mark.parametrize(
    "command, flag",
    [("export-sft", "--dialogues"), ("export-sft", "--schemas"), ("evaluate", "--pred"), ("evaluate", "--gold"),
     ("report", "--breakdowns"), ("split-out-of-domain", "--synonyms")],
)
def test_an_input_with_an_unpaired_surrogate_escape_is_data_error(command, flag, tmp_path, hair_catalog, capsys):
    _fixture_files(tmp_path, hair_catalog)
    argv, artifacts, *_ = SUBCOMMANDS[command](tmp_path)
    path = Path(argv[argv.index(flag) + 1])
    text = path.read_text(encoding="utf-8")
    end = text.rindex('"')  # the closing quote of the file's last string
    path.write_text(text[:end] + "\\ud83d" + text[end:], encoding="utf-8")
    assert main(argv) == EXIT_DATA
    assert "unpaired surrogate escape" in capsys.readouterr().err
    assert not (tmp_path / artifacts[0]).exists()


def test_a_dialogue_with_template_braces_exports_and_fills(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    utterance = "a haircut for {{history}}, {{ john"
    _write_jsonl(tmp_path / "dialogues.jsonl", [{**_GOOD_RECORD, "turns": [{"speaker": "user", "utterance": utterance}]}])
    argv, *_ = SUBCOMMANDS["export-sft"](tmp_path)
    assert main(argv) == EXIT_OK
    (row,) = map(json.loads, (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines())
    assert row["prompt"].count(utterance) == 1
    for name in ("fill-default", "fill-multistep"):
        argv, *_ = SUBCOMMANDS[name](tmp_path)
        assert main(argv) == EXIT_OK, name


# --- surrogate escapes and duplicate candidates in model output ---------------

def test_fill_reads_a_surrogate_pair_escape_and_records_an_unpaired_one_as_unparseable(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    # an escaped pair, an unpaired escape, and a literal surrogate that the script holds as an escape
    outputs = [json.dumps({"name": "john \U0001f600"}), '{"name": "john \\ud83d"}', '{"name": "john \ud83d"}']
    (tmp_path / "default.script").write_text("".join(json.dumps(o) + "\n" for o in [*outputs, *["{}"] * 3]),
                                             encoding="utf-8")
    argv, *_ = SUBCOMMANDS["fill-default"](tmp_path)
    assert main(argv) == EXIT_OK
    rows = _jsonl_file(tmp_path / "out.jsonl")
    assert [(r["arguments"], r["warnings"]) for r in rows[:3]] == [
        ({"name": "john \U0001f600"}, []),
        ({}, ["unparseable output: MalformedArguments"]),
        ({}, ["unparseable output: MalformedArguments"]),
    ]


def test_fill_multistep_treats_a_slot_reply_holding_a_surrogate_as_absent(tmp_path, hair_catalog, caplog):
    _fixture_files(tmp_path, hair_catalog)
    replies = [r for i in range(6) for r in (f"person {i}", "NONE", "jess")]
    replies[0] = "john \ud83d"
    # ensure_ascii writes the lone surrogate as an escape, the one form a UTF-8 file can hold
    (tmp_path / "multistep.script").write_text("".join(json.dumps(r) + "\n" for r in replies), encoding="utf-8")
    argv, *_ = SUBCOMMANDS["fill-multistep"](tmp_path)
    with caplog.at_level(logging.WARNING):
        assert main(argv) == EXIT_OK
    rows = _jsonl_file(tmp_path / "out.jsonl")
    assert [r["arguments"] for r in rows[:2]] == [{"stylist": "jess"}, {"name": "person 1", "stylist": "jess"}]
    (warning,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert "'name' of dialogue 'd0'" in warning and "surrogate" in warning


def test_reject_sample_counts_an_unpaired_surrogate_as_a_parse_failure(tmp_path, hair_catalog):
    _fixture_files(tmp_path, hair_catalog)
    _write_jsonl(tmp_path / "sample.script", [o for i in range(6) for o in (
        json.dumps({"name": f"person {i}", "note": "\U0001f600"}), f'{{"name": "person {i} \\udfff"}}')])
    argv, *_ = SUBCOMMANDS["reject-sample"](tmp_path)
    assert main(argv) == EXIT_OK
    stats = json.loads((tmp_path / "out.jsonl.stats.json").read_text(encoding="utf-8"))
    assert (stats["generated"], stats["parse_failed"]) == (12, 6)


def test_reject_sample_keeps_one_of_two_candidates_that_differ_only_in_order_or_format(
    tmp_path, hair_catalog, hair_dialogue
):
    (tmp_path / "catalog.json").write_text(HAIR_CATALOG_JSON, encoding="utf-8")
    _write_jsonl(tmp_path / "dialogues.jsonl", [dialogue_to_obj(hair_dialogue)])
    _write_jsonl(tmp_path / "sample.script", ['{"name": "John", "time": "3pm"}',
                                              "```json\n{'time': '3PM', 'NAME': 'john',}\n```"])
    argv, *_ = SUBCOMMANDS["reject-sample"](tmp_path)
    assert main(argv) == EXIT_OK
    rows = _jsonl_file(tmp_path / "out.jsonl")
    assert [(r["source"], r["completion"]) for r in rows] == [
        ("gold", '{"name": "john", "time": "3pm"}'), ("sampled", '{"name": "john", "time": "3pm"}')
    ]
    stats = json.loads((tmp_path / "out.jsonl.stats.json").read_text(encoding="utf-8"))
    assert (stats["kept"], stats["deduplicated"]) == (1, 1)


# --- backend failures and the dispatch loop ----------------------------------

def _replay_log_without(d, hair_catalog, missing):
    """A log answering the fixture's reject-sample and fill-default requests, except one dialogue's."""
    schema = hair_catalog["hair_appointment"]
    records = []
    for dialogue in load_dialogues(d / "dialogues.jsonl", hair_catalog):
        if dialogue.id == missing:
            continue
        answer = json.dumps(dialogue.gold_arguments)
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


# --- reject-sample output bytes, pinned ---------------------------------------

_PINNED_CATALOG = """[
  {"api_name": "Book Table", "description": "Reserve a table at a restaurant.",
   "slots": [
     {"name": "Party Size", "kind": "integer", "description": "number of guests"},
     {"name": "time", "kind": "time", "description": "arrival time"},
     {"name": "area", "kind": "categorical", "description": "part of town",
      "allowed_values": ["Centre", "North"]},
     {"name": "name", "kind": "free-text", "description": "booking name"}
   ]}
]
"""

# Dataset lines end in CRLF.
_PINNED_DIALOGUES = [
    {"id": "t1", "domain": "Dining", "target_api": "book table",
     "turns": [{"speaker": "user", "utterance": "A table for 4 at 7pm, please."},
               {"speaker": "agent", "utterance": "Under which name?"},
               {"speaker": "user", "utterance": "Ann  Lee."}],
     "gold_arguments": {"Party Size": 4, "time": "7pm", "name": "Ann Lee"}},
    {"id": "t2", "domain": "Dining", "target_api": "Book-Table",
     "turns": [{"speaker": "user", "utterance": "Somewhere central at 19:30 for Zoë."}],
     "gold_arguments": {"area": "Centre", "time": "19:30", "name": "Zoë"}},
    {"id": "t3", "domain": "Dining", "target_api": "book_table",
     "turns": [{"speaker": "user", "utterance": "Book it for Bo, up north."}],
     "gold_arguments": {"name": "Bo", "area": "north"}},
]

# Four candidates per dialogue, covering every repair the parser makes.
_PINNED_OUTPUTS = {
    "t1": [
        '{"party_size": "4", "time": "7pm", "name": "Ann Lee"}',  # clean JSON
        'Sure! Here they are: {"party_size": 4, "time": "7 pm"} Hope that helps.',  # prose, a number
        '```json\n{"Party Size": "4", "time": "7PM", "name": "ann lee"}\n```',  # a fence; a duplicate
        "{'party-size': '4', 'name': 'Ann  Lee', 'time': '7pm',}",  # single quotes, hyphen, trailing comma
    ],
    "t2": [
        "{party_size: 2, area: North, time: 19:30}",  # bare words
        '{\r\n  "area": "Centre",\r\n  "time": "19:30",\r\n  "name": "Zo\\u00eb"\r\n}',  # CRLF, a \u escape
        "I cannot help with that.",  # no object
        '{"area": {"nested": 1}}',  # a nested value
    ],
    "t3": [
        '{"name": "bo", "area": "Nörth", "extra": "x"}',  # a key outside the schema, a near miss
        '{"NAME": "Bo", "area": null, "": "x"}',  # a null value, an empty key
        '{"name": "", "area": "north", "name": "BO"}',  # an empty value, a duplicate key
        '{"time": "25pm", "party_size": "many"}',  # rejected
    ],
}

# The bytes written by regex canonicalization and a json.dumps per row; any
# change to either is a change in the program's output.
_PINNED_SHA256 = {
    "out.jsonl": "87f2afa95c17ac7bba1b93c911230b5ec7eec894d7a3afd29d11ff31672b4fbf",
    "out.jsonl.stats.json": "2e62fdec420b977e0d01358599e8b0ebea341e392500405192256dedbc2930cf",
}

# The output `fill` gets per dialogue from the log (an index into _PINNED_OUTPUTS).
_PINNED_FILL_OUTPUT = {"t1": 1, "t2": 0, "t3": 0}

# One slot reply per slot of each dialogue, in schema order, for `fill --mode multistep`.
_PINNED_SLOT_REPLIES = ["4", "7 PM", "NONE", "'Ann Lee'",
                        "", "19:30", "centre", "Zo\u00eb\nextra line",
                        "NONE", "NONE", "North", '"Bo"']


def _pinned_inputs(tmp_path) -> list[str]:
    """Write the catalog, the dataset (CRLF lines) and a replay log holding the
    reject-sample and the default-mode fill requests; return the common flags."""
    (tmp_path / "catalog.json").write_text(_PINNED_CATALOG, encoding="utf-8")
    (tmp_path / "dialogues.jsonl").write_bytes(
        b"".join(json.dumps(d).encode() + b"\r\n" for d in _PINNED_DIALOGUES))
    catalog = load_schema_catalog(tmp_path / "catalog.json")
    records = []
    for d, outputs in zip(load_dialogues(tmp_path / "dialogues.jsonl", catalog), _PINNED_OUTPUTS.values()):
        schema = catalog[d.target_api]
        records.append(record_to_obj(GenerationRecord(default_request(schema, d, 4, 0.8, 256), outputs, "logged")))
        fill_output = (outputs[_PINNED_FILL_OUTPUT[d.id]],)
        records.append(record_to_obj(GenerationRecord(default_request(schema, d, 1, 0.0, 256), fill_output, "logged")))
    _write_jsonl(tmp_path / "log.jsonl", records)
    return ["--dialogues", str(tmp_path / "dialogues.jsonl"), "--schemas", str(tmp_path / "catalog.json")]


@pytest.mark.parametrize("in_flight", ["1", "4"])
def test_reject_sample_output_bytes_are_pinned(in_flight, tmp_path):
    argv = ["reject-sample", *_pinned_inputs(tmp_path), "--backend", f"replay:{tmp_path / 'log.jsonl'}",
            "--k", "4", "--in-flight", in_flight, "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _PINNED_SHA256}
    assert digests == _PINNED_SHA256


def test_mean_kept_reward_is_the_same_on_every_python(tmp_path):
    """Kept rewards 1.0, 1/3 and 1/3 (two slots missing): a plain ``sum()``
    writes ...557 before Python 3.12 and ...556 after, ``math.fsum`` ...556 on all."""
    gold = {"a": "apple", "b": "banana", "c": "cherry"}
    slots = [{"name": name, "kind": "free-text", "description": f"slot {name}"} for name in gold]
    (tmp_path / "catalog.json").write_text(json.dumps([{"api_name": "three", "description": "Three slots.",
                                                        "slots": slots}]), encoding="utf-8")
    _write_jsonl(tmp_path / "dialogues.jsonl", [{"id": "d1", "domain": "demo", "target_api": "three",
                                                 "turns": [{"speaker": "user", "utterance": "apple, banana, cherry"}],
                                                 "gold_arguments": gold}])
    (tmp_path / "sample.script").write_text(jsonl([json.dumps(m) for m in (gold, {"a": "apple"}, {"b": "banana"})]),
                                            encoding="utf-8")
    argv = ["reject-sample", *_common(tmp_path), "--backend", f"mock:{tmp_path / 'sample.script'}", "--k", "3",
            "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "out.jsonl.stats.json").read_bytes() == (
        b'{\n  "generated": 3,\n  "parse_failed": 0,\n  "rejected": 0,\n  "deduplicated": 0,\n  "kept": 3,\n'
        b'  "skipped_dialogues": 0,\n  "mean_kept_reward": 0.5555555555555556\n}\n')


# The artifacts of every other command that writes an argument map, over the same inputs.
_PINNED_MAP_SHA256 = {
    "sft.jsonl": "637cf1d243c66d4b9428f810bd71ccb6eb6ad9d1095f2680c08cda2e8988943b",
    "fill.jsonl": "f072fa995d5de33ee823b5c26fd99efcf556811e2738a357247b871a8652fa69",
    "multistep.jsonl": "9d55aa1b1ed72acf3326307801c11cb6673fb461bde5e961b8f832f9c5ffe649",
    "metrics.csv": "0b9c69301d2d0c6b3f4e5095c974f922d33507a462627cfb6e7864b2700f0b89",
    "scored.jsonl": "3c4ffa679b50a0d6e6c178335ad820a130559600f92c775afde1b5c61eb72e00",
    "panel.csv": "3299afea6f83eed701c65fb380d0885b8f21a9f1fbc8a651cab91c67bc67aaf9",
    "train.jsonl": "058aa2f8d16a4d16f565c12f184896d8e95e8655e802422ad321b11240481030",
    "test.jsonl": "7a78fbc76f16db8685725be85fb85926b6155d07131cadec3c8760c423cde186",
    "split_manifest.json": "971c75060c1b7e10abd3e1f8eac60bd755258f4c856147d5cd1f565adef72807",
}


def test_map_writing_command_bytes_are_pinned(tmp_path):
    common = _pinned_inputs(tmp_path)
    (tmp_path / "slots.script").write_text(jsonl(_PINNED_SLOT_REPLIES), encoding="utf-8")
    d = tmp_path
    runs = [
        ["export-sft", *common, "--out", str(d / "sft.jsonl")],
        ["fill", *common, "--backend", f"replay:{d / 'log.jsonl'}", "--out", str(d / "fill.jsonl")],
        ["fill", "--mode", "multistep", *common, "--backend", f"mock:{d / 'slots.script'}",
         "--out", str(d / "multistep.jsonl")],
        ["evaluate", "--pred", str(d / "fill.jsonl"), "--gold", str(d / "dialogues.jsonl"),
         "--schemas", str(d / "catalog.json"), "--dataset", "pinned", "--split", "test",
         "--out", str(d / "metrics.csv"), "--scored-out", str(d / "scored.jsonl")],
        ["report", "--breakdowns", str(d / "scored.jsonl"), "--group-by", "model", "--out", str(d / "panel.csv")],
        ["split", "in-domain", *common, "--fraction", "0.34", "--seed", "3",
         "--out-train", str(d / "train.jsonl"), "--out-test", str(d / "test.jsonl")],
    ]
    for argv in runs:
        assert main(argv) == EXIT_OK, argv[0]
    digests = {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in _PINNED_MAP_SHA256}
    assert digests == _PINNED_MAP_SHA256
