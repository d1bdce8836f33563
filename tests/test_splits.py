import json
import random

import pytest

from arground.cli import EXIT_DATA, main
from arground.schema import dialogue_to_obj
from arground.splits import split_in_domain, split_out_of_domain

from conftest import jsonl, make_dialogue


def _corpus(sizes):
    """``sizes[domain]`` dialogues in each domain, ids unique across domains."""
    return [make_dialogue(f"{domain}-{i}", domain, "hair_appointment", {"name": "john"})
            for domain, n in sizes.items() for i in range(n)]


def _ids(dialogues):
    return sorted(d.id for d in dialogues)


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_in_domain_split_is_stratified(fraction, seed):
    dialogues = _corpus({"salon": 2, "taxi": 3, "hotel": 7, "spa": 1})
    train, test = split_in_domain(dialogues, fraction, seed)
    assert _ids(train + test) == _ids(dialogues)
    for domain in ("salon", "taxi", "hotel"):
        assert any(d.domain == domain for d in train) and any(d.domain == domain for d in test), domain
    assert not any(d.domain == "spa" for d in test)


def test_in_domain_partition_does_not_depend_on_input_order():
    dialogues = _corpus({"salon": 4, "taxi": 5, "hotel": 6})
    shuffled = list(dialogues)
    random.Random(5).shuffle(shuffled)
    first, second = split_in_domain(dialogues, 0.4, 9), split_in_domain(shuffled, 0.4, 9)
    assert (_ids(first[0]), _ids(first[1])) == (_ids(second[0]), _ids(second[1]))


def test_out_of_domain_holds_out_the_synonym_closure_in_any_order():
    dialogues = _corpus({"taxi": 2, "cab": 2, "car": 1, "hotel": 3})
    synonyms = {"Taxi": "cab", "car": "CAB", "inn": "hotel"}
    train, test = split_out_of_domain(dialogues, ["taxi"], synonyms)
    assert {d.domain for d in test} == {"taxi", "cab", "car"}
    assert {d.domain for d in train} == {"hotel"}
    again = split_out_of_domain(list(reversed(dialogues)), ["taxi"], synonyms)
    assert (_ids(again[0]), _ids(again[1])) == (_ids(train), _ids(test))


def _split_argv(d, dialogues, kind, *extra):
    catalog = [{"api_name": "hair_appointment", "description": "Book.",
                "slots": [{"name": "name", "kind": "free-text"}]}]
    (d / "catalog.json").write_text(json.dumps(catalog), encoding="utf-8")
    (d / "dialogues.jsonl").write_text(jsonl(map(dialogue_to_obj, dialogues)), encoding="utf-8")
    (d / "synonyms.json").write_text(json.dumps({"taxi": "cab"}), encoding="utf-8")
    return ["split", kind, "--dialogues", str(d / "dialogues.jsonl"), "--schemas", str(d / "catalog.json"),
            "--out-train", str(d / "train.jsonl"), "--out-test", str(d / "test.jsonl"),
            *(arg.format(d=d) for arg in extra)]


_IN_DOMAIN = ("--fraction", "0.5", "--seed", "1")
_TAXI_CAB = ("--synonyms", "{d}/synonyms.json")


@pytest.mark.parametrize(
    "sizes, kind, extra, message",
    [
        ({}, "in-domain", _IN_DOMAIN, "cannot split an empty dataset"),  # each one DegenerateSplit
        ({}, "out-of-domain", ("--holdout", "salon"), "cannot split an empty dataset"),
        ({"salon": 1, "barber": 1}, "in-domain", _IN_DOMAIN, "test side"),
        ({"salon": 2, "barber": 2}, "out-of-domain", ("--holdout", "taxi", *_TAXI_CAB), "test side"),
        ({"salon": 2, "cab": 2}, "out-of-domain", ("--holdout", "salon,taxi", *_TAXI_CAB), "train side"),
        ({"salon": 2, "barber": 2}, "out-of-domain", ("--holdout", "spa"), "holdout domain 'spa'"),
    ],
    ids=["empty-in-domain", "empty-out-of-domain", "in-domain-singletons", "out-of-domain-empty-test",
         "out-of-domain-empty-train", "unknown-holdout"],
)
def test_a_split_that_cannot_be_made_is_data_error(sizes, kind, extra, message, tmp_path, capsys):
    assert main(_split_argv(tmp_path, _corpus(sizes), kind, *extra)) == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error:" in err and message in err
    assert not (tmp_path / "train.jsonl").exists() and not (tmp_path / "test.jsonl").exists()
