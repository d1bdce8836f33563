import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arground.errors import BackendError, EmptySlotResponse
from arground.generation import MockBackend, generate_all
from arground.prompting import (
    build_default_prompt,
    build_slot_prompt,
    multistep_map,
    parse_slot_response,
    slot_requests,
    template_hashes,
)
from arground.schema import ApiSchema, Dialogue, DialogueTurn, SlotSpec, argument_map_from_obj
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


class TestSlotPrompt:
    def test_hint_contains_only_this_slot(self, hair_schema, hair_dialogue):
        slot = hair_schema.by_name["time"]
        text = build_slot_prompt(hair_schema, hair_dialogue, slot).text
        hint = text[text.index("Argument:") :]
        assert "Argument: time" in hint
        assert "name" not in hint.split("Value (or NONE):")[0].replace("Argument: time", "")
        assert "stylist" not in hint
        assert text.rstrip().endswith("Value (or NONE):")

    def test_categorical_hint_lists_values(self, hair_schema, hair_dialogue):
        slot = hair_schema.by_name["stylist"]
        text = build_slot_prompt(hair_schema, hair_dialogue, slot).text
        assert "Allowed: jess | jack" in text


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

    @pytest.mark.parametrize("raw, value", [
        ("john\u2028smith", "john smith"),
        ("john\x85smith", "john smith"),
        ("john\x0csmith", "john smith"),
        ("john\rsmith", "john smith"),
        ("john\r\nsmith", "john"),
        ("john\nsmith", "john"),
    ])
    def test_only_a_newline_ends_the_line(self, raw, value):
        """The slot request stops at "\\n", so no other line break cuts a value short."""
        assert parse_slot_response(raw) == value


def _multistep(backend, schema, dialogue):
    (records,) = generate_all(backend, [slot_requests(schema, dialogue, 0.0, 64)])
    return multistep_map(schema, dialogue, records), records


class TestMultistep:
    def test_scripted_assembly(self, hair_schema, hair_dialogue):
        backend = MockBackend(["john", "3pm", "NONE"])
        result, transcript = _multistep(backend, hair_schema, hair_dialogue)
        assert list(result.items()) == [("name", "john"), ("time", "3pm")]
        assert len(transcript) == 3
        assert transcript[0].request.tag == "d1:name"

    def test_all_none(self, hair_schema, hair_dialogue):
        backend = MockBackend(["NONE", "NONE", "NONE"])
        result, _ = _multistep(backend, hair_schema, hair_dialogue)
        assert len(result) == 0

    def test_backend_error_names_slot(self, hair_schema, hair_dialogue):
        backend = MockBackend(["john"])  # exhausted on the second slot
        with pytest.raises(BackendError, match=r"^backend failed on slot 'time' of dialogue 'd1': "):
            _multistep(backend, hair_schema, hair_dialogue)

    def test_empty_response_treated_absent(self, hair_schema, hair_dialogue):
        backend = MockBackend(["john", "   ", "jess"])
        result, _ = _multistep(backend, hair_schema, hair_dialogue)
        assert result == {"name": "john", "stylist": "jess"}

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


_THREE_SLOTS = ApiSchema("api", "", (SlotSpec("a", "free-text"), SlotSpec("b", "time"), SlotSpec("c", "free-text")))


@given(st.lists(st.text(max_size=20), min_size=3, max_size=3))
@settings(max_examples=200)
def test_multistep_map_is_canonical(replies):
    result, _ = _multistep(MockBackend(replies), _THREE_SLOTS, make_dialogue("h1", "salon", "api", {}))
    assert list(argument_map_from_obj(result).items()) == list(result.items())


def test_template_hashes_stable():
    first = template_hashes()
    assert first == template_hashes()
    assert first == {
        "version": "1",
        "default": "817a9ccf92275f61052c0a4af02073a7d2fe85aafc99e81efd3d67eeef249324",
        "slot": "4f625d682f7e14405bb0740256e8641553dd86561971e4cdd70fb54c33584de8",
    }


_BRACES = ("a {{ b", "{{history}}", "{{slot_hint}} and {{api_block}}", "{{instruction}", "{{}}")


@pytest.mark.parametrize("utterance", _BRACES)
def test_an_utterance_with_braces_renders_verbatim(utterance, hair_schema):
    dialogue = Dialogue("b1", "salon", "hair_appointment", (DialogueTurn("user", utterance),))
    default = build_default_prompt(hair_schema, dialogue).text
    slot = build_slot_prompt(hair_schema, dialogue, hair_schema.slots[0]).text
    assert default.count(utterance) == slot.count(utterance) == 1
    assert default.endswith(f"User: {utterance}\n\nArguments:\n")
    assert f"User: {utterance}\n\nArgument: name\n" in slot


def test_a_schema_description_with_a_placeholder_renders_verbatim(hair_dialogue):
    schema = ApiSchema("hair_appointment", "Book {{history}} now.", (SlotSpec("name", "free-text", "{{slot_hint}}"),))
    text = build_default_prompt(schema, hair_dialogue).text
    assert "Description: Book {{history}} now.\nSlots:\n- name (free-text): {{slot_hint}}\n" in text
    assert text.count("User: I need a haircut tomorrow.") == 1
