import csv
import io
import json
import sys

import pytest

from arground.cli import EXIT_DATA, EXIT_OK, emit_error_panel, main
from arground.metrics import evaluate_corpus
from arground.schema import ArgumentMap, dump_dialogues, dump_schema_catalog
from arground.scoring import classify_errors

from conftest import make_dialogue


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def _evaluate_argv(tmp_path, hair_catalog, hair_dialogue, arguments):
    (tmp_path / "catalog.json").write_text(dump_schema_catalog(hair_catalog), encoding="utf-8")
    (tmp_path / "gold.jsonl").write_text(dump_dialogues([hair_dialogue]), encoding="utf-8")
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
    (tmp_path / "dialogues.jsonl").write_text(dump_dialogues(dialogues), encoding="utf-8")
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
