import hashlib
import re
from importlib import resources
from types import SimpleNamespace

import pytest

from arground import prompting
from arground.errors import ApiMismatch, BackendError, EmptySlotResponse, UnknownSlot
from arground.generation import MockBackend, generate_all
from arground.prompting import (
    build_default_prompt,
    build_slot_prompt,
    load_template,
    multistep_map,
    parse_slot_response,
    slot_requests,
    template_hashes,
)
from arground.schema import ApiSchema, SlotSpec
from arground.scoring import classify_errors

from conftest import make_dialogue


class TestDefaultPrompt:
    def test_structure_counts(self, hair_schema, hair_dialogue):
        bundle = build_default_prompt(hair_schema, hair_dialogue)
        lines = bundle.text.splitlines()
        slot_lines = [l for l in lines if l.startswith("- ")]
        turn_lines = [l for l in lines if l.startswith(("User: ", "Agent: "))]
        assert len(slot_lines) == 3
        assert len(turn_lines) == 4
        assert slot_lines[0].startswith("- name (free-text):")
        assert turn_lines[0] == "User: I need a haircut tomorrow."

    def test_sections_in_order(self, hair_schema, hair_dialogue):
        text = build_default_prompt(hair_schema, hair_dialogue).text
        api_at = text.index("API: hair_appointment")
        history_at = text.index("User: ")
        cue_at = text.rindex("Arguments:")
        assert 0 < api_at < history_at < cue_at
        assert text.rstrip().endswith("Arguments:")

    def test_categorical_values_rendered(self, hair_schema, hair_dialogue):
        text = build_default_prompt(hair_schema, hair_dialogue).text
        assert "- stylist (categorical): preferred stylist [allowed: jess | jack]" in text

    def test_deterministic(self, hair_schema, hair_dialogue):
        a = build_default_prompt(hair_schema, hair_dialogue).text
        b = build_default_prompt(hair_schema, hair_dialogue).text
        assert a == b

    def test_api_mismatch(self, hair_schema, hair_dialogue):
        other = ApiSchema("nails", "nails", (SlotSpec("color", "free-text", ""),))
        with pytest.raises(ApiMismatch):
            build_default_prompt(other, hair_dialogue)


class TestSlotPrompt:
    def test_hint_contains_only_this_slot(self, hair_schema, hair_dialogue):
        slot = hair_schema.slot("time")
        text = build_slot_prompt(hair_schema, hair_dialogue, slot).text
        hint = text[text.index("Argument:") :]
        assert "Argument: time" in hint
        assert "name" not in hint.split("Value (or NONE):")[0].replace("Argument: time", "")
        assert "stylist" not in hint
        assert text.rstrip().endswith("Value (or NONE):")

    def test_categorical_hint_lists_values(self, hair_schema, hair_dialogue):
        slot = hair_schema.slot("stylist")
        text = build_slot_prompt(hair_schema, hair_dialogue, slot).text
        assert "Allowed: jess | jack" in text

    def test_unknown_slot(self, hair_schema, hair_dialogue):
        foreign = SlotSpec("color", "free-text", "nail color")
        with pytest.raises(UnknownSlot):
            build_slot_prompt(hair_schema, hair_dialogue, foreign)


class TestParseSlotResponse:
    def test_plain_value(self):
        assert parse_slot_response("3pm\n") == "3pm"

    def test_none_sentinel(self):
        assert parse_slot_response("NONE") is None
        assert parse_slot_response('"none"') is None

    def test_partial_quote_kept_verbatim(self):
        assert parse_slot_response('"John" is the name.') == '"john" is the name.'

    def test_fully_quoted_stripped(self):
        assert parse_slot_response('"John"') == "john"
        assert parse_slot_response("'3 PM'") == "3 pm"

    def test_first_non_empty_line(self):
        assert parse_slot_response("\n\n  jess\nsecond line") == "jess"

    def test_empty_raises(self):
        with pytest.raises(EmptySlotResponse):
            parse_slot_response("\n   \n")


def _multistep(backend, schema, dialogue):
    (records,) = generate_all(backend, [slot_requests(schema, dialogue, 0.0, 64)])
    return multistep_map(schema, dialogue, records), records


class TestMultistep:
    def test_scripted_assembly(self, hair_schema, hair_dialogue):
        backend = MockBackend(["john", "3pm", "NONE"])
        result, transcript = _multistep(backend, hair_schema, hair_dialogue)
        assert result.as_dict() == {"name": "john", "time": "3pm"}
        assert len(transcript) == 3
        assert transcript[0].request.tag == "d1:name"

    def test_all_none(self, hair_schema, hair_dialogue):
        backend = MockBackend(["NONE", "NONE", "NONE"])
        result, _ = _multistep(backend, hair_schema, hair_dialogue)
        assert len(result) == 0

    def test_backend_error_names_slot(self, hair_schema, hair_dialogue):
        backend = MockBackend(["john"])  # exhausted on the second slot
        with pytest.raises(BackendError) as exc:
            _multistep(backend, hair_schema, hair_dialogue)
        assert exc.value.slot == "time"

    def test_empty_response_treated_absent(self, hair_schema, hair_dialogue):
        backend = MockBackend(["john", "   ", "jess"])
        result, _ = _multistep(backend, hair_schema, hair_dialogue)
        assert result.as_dict() == {"name": "john", "stylist": "jess"}

    def test_no_nk_by_construction(self, hair_schema):
        # even junk responses can only land on schema keys
        junk = ["I think it is john", "purple!", "whatever", "NONE", "42", "eh"]
        dialogues = [
            make_dialogue(f"m{i}", "salon", "hair_appointment", {"name": "john"})
            for i in range(2)
        ]
        backend = MockBackend(junk)
        for dialogue in dialogues:
            result, _ = _multistep(backend, hair_schema, dialogue)
            breakdown = classify_errors(result, dialogue.gold_arguments, hair_schema)
            assert breakdown.n_nk == 0


def test_template_hashes_stable():
    first = template_hashes()
    second = template_hashes()
    assert first == second
    assert set(first) == {"version", "default", "slot"}
    assert re.fullmatch(r"[0-9a-f]{64}", first["default"])
    for name in ("default", "slot"):
        text = (resources.files("arground") / "templates" / f"{name}.txt").read_text(encoding="utf-8")
        assert first[name] == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_template_read_once(monkeypatch, hair_schema, hair_dialogue):
    reads = []

    def files(package):
        reads.append(package)
        return resources.files(package)

    load_template.cache_clear()
    monkeypatch.setattr(prompting, "resources", SimpleNamespace(files=files))
    try:
        first = build_default_prompt(hair_schema, hair_dialogue)
        second = build_default_prompt(hair_schema, hair_dialogue)
    finally:
        load_template.cache_clear()
    assert first == second
    assert len(reads) == 1
