import copy
import io
import json
import string
import sys
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arground.errors import (
    DatasetInvalid,
    InvalidArgumentMap,
    ParseError,
    SchemaInvalid,
)
from arground.generation import GenerationRecord, GenerationRequest
from arground.metrics import MetricsReport
from arground.parsing import ParseOutcome
from arground.prompting import Prompt
from arground.sampler import SamplerConfig, SamplerStats, TrainingExample
from arground.schema import (
    ApiSchema,
    Dialogue,
    DialogueTurn,
    SlotSpec,
    argument_map_from_obj,
    canonicalize_key,
    canonicalize_value,
    dialogue_to_obj,
    load_dialogues,
    load_schema_catalog,
    value_conforms_to_slot,
)
from arground.scoring import ErrorBreakdown

from conftest import jsonl
from oracle import ref_canonicalize_key, ref_canonicalize_value

CATALOG_JSON = json.dumps(
    [
        {
            "api_name": "Hair Appointment",
            "description": "Book a hair appointment.",
            "slots": [
                {"name": "Name", "kind": "free-text", "description": "customer name"},
                {"name": "time", "kind": "time", "description": "appointment time"},
                {
                    "name": "stylist",
                    "kind": "categorical",
                    "description": "stylist",
                    "allowed_values": ["Jess", "Jack"],
                },
            ],
        }
    ]
)


class TestCanonicalizeKey:
    def test_rule_application(self):
        assert canonicalize_key("Appointment Time") == "appointment_time"

    def test_identity(self):
        assert canonicalize_key("name") == "name"

    def test_hyphen_and_padding(self):
        assert canonicalize_key("  Stylist-Name ") == "stylist_name"

    def test_blank_gives_empty(self):
        assert canonicalize_key("   ") == ""

    @given(st.text(min_size=1, max_size=30))
    def test_idempotent(self, raw):
        once = canonicalize_key(raw)
        assert canonicalize_key(once) == once


class TestCanonicalizeValue:
    def test_collapses_runs(self):
        assert canonicalize_value("New   York") == "new york"

    def test_identity(self):
        assert canonicalize_value("3pm") == "3pm"

    def test_trims_and_lowers(self):
        assert canonicalize_value("  JESS ") == "jess"

    @given(st.text(max_size=30))
    def test_idempotent(self, raw):
        once = canonicalize_value(raw)
        assert canonicalize_value(once) == once

    def test_follows_the_interpreters_unicode_tables(self):
        # U+2C2F was assigned in Unicode 14.0.0, which Python 3.11 ships; 3.10 ships 13.0.0
        expected = "\u2c5f" if tuple(map(int, unicodedata.unidata_version.split("."))) >= (14, 0, 0) else "\u2c2f"
        assert canonicalize_value("\u2c2f") == expected


# Every whitespace code point, the key separators, ASCII letters, and two
# letters whose lowercase differs in kind: "İ" lowers to two code points,
# "ẞ" to "ß".
_CANON_ALPHABET = "".join(
    [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    + ["-", "_", string.ascii_letters, "İ", "ẞ"]
)


_CANON_EXAMPLES = ("", "\x85", "-", " - ", "-a", "a-", "a - b", "\u3000A\u2028B\x1c", "İ x")


def _with_examples(test):
    for raw in _CANON_EXAMPLES:
        test = example(raw)(test)
    return settings(derandomize=True, max_examples=2000)(given(st.text(alphabet=_CANON_ALPHABET, max_size=24))(test))


class TestCanonicalizeAgainstRegexForms:
    @_with_examples
    def test_key_matches_the_regex_form(self, raw):
        assert canonicalize_key(raw) == ref_canonicalize_key(raw)

    @_with_examples
    def test_value_matches_the_regex_form(self, raw):
        assert canonicalize_value(raw) == ref_canonicalize_value(raw)


class TestConformance:
    def test_categorical_exact_member(self):
        slot = SlotSpec("stylist", "categorical", allowed_values=("jess", "jack"))
        assert value_conforms_to_slot(slot, "jess") is True

    def test_integer_parse_failure(self):
        assert value_conforms_to_slot(SlotSpec("n", "integer"), "3pm") is False

    def test_time_meridiem(self):
        assert value_conforms_to_slot(SlotSpec("t", "time"), "3pm") is True

    @pytest.mark.parametrize(
        "value,ok",
        [
            ("3pm", True),
            ("3 pm", True),
            ("12:30", True),
            ("0:05", True),
            ("23:59", True),
            ("11:59 pm", True),
            ("7", True),
            ("noon", False),
            ("purple", False),
            ("25:00", False),
            ("13pm", False),
            ("3:5", False),
            ("10:75", False),
        ],
    )
    def test_time_grammar(self, value, ok):
        assert value_conforms_to_slot(SlotSpec("t", "time"), value) is ok

    @pytest.mark.parametrize(
        "value,ok",
        [
            ("2024-01-05", True),
            ("3/5", True),
            ("3/5/2024", True),
            ("march 5", True),
            ("march 5th", True),
            ("5 march", True),
            ("5th of march", True),
            ("march 5, 2024", True),
            ("march", True),
            ("someday", False),
            ("monday", False),
            ("3/5/24", False),
        ],
    )
    def test_date_grammar(self, value, ok):
        assert value_conforms_to_slot(SlotSpec("d", "date"), value) is ok

    @pytest.mark.parametrize("value,ok", [("true", True), ("yes", True), ("nope", False)])
    def test_boolean(self, value, ok):
        assert value_conforms_to_slot(SlotSpec("b", "boolean"), value) is ok

    @pytest.mark.parametrize("value,ok", [("42", True), ("-7", True), ("+3", True), ("4.5", False)])
    def test_integer(self, value, ok):
        assert value_conforms_to_slot(SlotSpec("n", "integer"), value) is ok

    def test_categorical_fuzzy(self):
        slot = SlotSpec("s", "categorical", allowed_values=("christopher",))
        assert value_conforms_to_slot(slot, "cristopher") is True
        assert value_conforms_to_slot(slot, "jess") is False

    @given(st.text(min_size=1, max_size=20).map(canonicalize_value).filter(bool))
    def test_free_text_always_true(self, value):
        assert value_conforms_to_slot(SlotSpec("x", "free-text"), value) is True

    def test_empty_never_conforms(self):
        for kind in ("free-text", "integer", "boolean", "date", "time"):
            assert value_conforms_to_slot(SlotSpec("x", kind), "") is False


def _load_slot(**slot):
    """Load a catalog of one API whose one slot is ``slot``."""
    return load_schema_catalog(io.StringIO(json.dumps([{"api_name": "a", "slots": [{"name": "s", **slot}]}])))


class TestSlotSpecInvariants:
    def test_categorical_needs_values(self):
        with pytest.raises(SchemaInvalid, match="requires allowed_values"):
            _load_slot(kind="categorical")

    def test_categorical_no_duplicates(self):
        with pytest.raises(SchemaInvalid, match="duplicate allowed values"):
            _load_slot(kind="categorical", allowed_values=["Jess", "jess"])

    def test_non_categorical_rejects_values(self):
        with pytest.raises(SchemaInvalid, match="not categorical"):
            _load_slot(kind="integer", allowed_values=["1"])

    def test_unknown_kind(self):
        with pytest.raises(SchemaInvalid, match="unknown slot kind"):
            _load_slot(kind="floating")


class TestCatalog:
    def test_load_single_api(self):
        catalog = load_schema_catalog(io.StringIO(CATALOG_JSON))
        assert set(catalog) == {"hair_appointment"}
        schema = catalog["hair_appointment"]
        assert schema.slot_names() == ("name", "time", "stylist")
        assert schema.by_name["stylist"].allowed_values == ("jess", "jack")
        assert all(s.required for s in schema.slots)
        assert schema.by_name == {s.name: s for s in schema.slots}
        assert "Name" not in schema.by_name

    def test_duplicate_api(self):
        doc = json.dumps(
            [
                {"api_name": "a", "slots": [{"name": "x", "kind": "integer"}]},
                {"api_name": "A", "slots": [{"name": "y", "kind": "integer"}]},
            ]
        )
        with pytest.raises(SchemaInvalid):
            load_schema_catalog(io.StringIO(doc))

    def test_empty_allowed_values(self):
        doc = json.dumps(
            [
                {
                    "api_name": "a",
                    "slots": [{"name": "x", "kind": "categorical", "allowed_values": []}],
                }
            ]
        )
        with pytest.raises(SchemaInvalid):
            load_schema_catalog(io.StringIO(doc))

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError, match=r"^catalog is not valid JSON: Expecting value at line 1 column 15$"):
            load_schema_catalog(io.StringIO('[{"api_name": }]'))

    def test_schema_needs_slots(self):
        with pytest.raises(SchemaInvalid):
            load_schema_catalog(io.StringIO('[{"api_name": "a", "slots": []}]'))


class TestArgumentMap:
    def test_from_obj_canonicalizes(self):
        amap = argument_map_from_obj({"Name": "John", "Appointment Time": "3 PM", "party-size": 2, "vip": True})
        assert list(amap.items()) == [
            ("name", "john"), ("appointment_time", "3 pm"), ("party_size", "2"), ("vip", "true")]
        assert list(argument_map_from_obj(amap).items()) == list(amap.items())

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(InvalidArgumentMap):
            argument_map_from_obj({"Name": "a", "name": "b"})

    def test_empty_value_rejected(self):
        with pytest.raises(InvalidArgumentMap):
            argument_map_from_obj({"name": "  "})

    @pytest.mark.parametrize("mapping", [["name"], {"name": None}, {"name": ["a"]}, {"name": {"a": 1}}, {"  ": "a"}])
    def test_non_object_non_scalar_or_blank_key_rejected(self, mapping):
        with pytest.raises(InvalidArgumentMap):
            argument_map_from_obj(mapping)

    def test_order_preserved(self):
        assert list(argument_map_from_obj({"b": "2", "a": "1"}).items()) == [("b", "2"), ("a", "1")]


class TestDialogues:
    def test_load_and_dump(self, hair_catalog, hair_dialogue):
        text = jsonl([dialogue_to_obj(hair_dialogue)])
        loaded = load_dialogues(io.StringIO(text), hair_catalog)
        assert loaded == [hair_dialogue]
        assert list(loaded[0].gold_arguments.items()) == list(hair_dialogue.gold_arguments.items())

    def test_unknown_target_api(self, hair_catalog):
        line = json.dumps(
            {
                "id": "x",
                "domain": "salon",
                "target_api": "nails",
                "turns": [{"speaker": "user", "utterance": "hi"}],
                "gold_arguments": {},
            }
        )
        with pytest.raises(DatasetInvalid, match=r"^dataset line 1: dialogue 'x': target_api 'nails' not in catalog$"):
            load_dialogues(io.StringIO(line), hair_catalog)

    def test_a_gold_key_outside_its_schema_is_gold_schema_mismatch(self, hair_catalog, hair_dialogue):
        stray = {**dialogue_to_obj(hair_dialogue), "id": "d2", "gold_arguments": {"name": "ann", "Colour": "red"}}
        text = jsonl([dialogue_to_obj(hair_dialogue), stray])
        with pytest.raises(DatasetInvalid, match=r"^dataset line 2: dialogue 'd2': gold key 'colour' not in "
                                                 r"schema 'hair_appointment'$"):
            load_dialogues(io.StringIO(text), hair_catalog)
        # without a catalog there is no schema to check against
        assert list(load_dialogues(io.StringIO(text))[1].gold_arguments) == ["name", "colour"]

    def test_duplicate_id(self, hair_catalog, hair_dialogue):
        text = jsonl([dialogue_to_obj(hair_dialogue)] * 2)
        with pytest.raises(DatasetInvalid):
            load_dialogues(io.StringIO(text), hair_catalog)

    @staticmethod
    def _load(hair_catalog, **changes):
        record = {"id": "d", "domain": "salon", "target_api": "hair_appointment",
                  "turns": [{"speaker": "user", "utterance": "hi"}], **changes}
        return load_dialogues(io.StringIO(jsonl([record])), hair_catalog)

    def test_bad_speaker(self, hair_catalog):
        with pytest.raises(DatasetInvalid, match="speaker must be 'user' or 'agent', got 'narrator'"):
            self._load(hair_catalog, turns=[{"speaker": "narrator", "utterance": "hello"}])

    def test_empty_utterance(self, hair_catalog):
        with pytest.raises(DatasetInvalid, match="turn utterance is empty"):
            self._load(hair_catalog, turns=[{"speaker": "user", "utterance": "   "}])

    def test_turns_required(self, hair_catalog):
        with pytest.raises(DatasetInvalid, match="has no turns"):
            self._load(hair_catalog, turns=[])

    def test_fields_are_canonicalized(self, hair_catalog):
        (dialogue,) = self._load(hair_catalog, id=" d ", domain=" Hair  Salon ", target_api="Hair Appointment",
                                 turns=[{"speaker": " User", "utterance": " hi  there "}])
        assert (dialogue.id, dialogue.domain, dialogue.target_api) == ("d", "hair salon", "hair_appointment")
        assert (dialogue.turns[0].speaker, dialogue.turns[0].utterance) == ("user", "hi  there")


# --- the records -------------------------------------------------------------

_SLOT = SlotSpec("name", "free-text")
_TURN = DialogueTurn("user", "hi")
_REQUEST = GenerationRequest("p")
_RECORDS = [
    _SLOT, ApiSchema("api", "", (_SLOT,)), _TURN, Dialogue("d", "salon", "api", (_TURN,)), ParseOutcome({}),
    ErrorBreakdown(0, 0, 0, 0, 0, 1.0), TrainingExample("p", "{}", "gold", 1.0, "d"), SamplerConfig(),
    SamplerStats(), MetricsReport(*[0.0] * 7, 1, 0.0), Prompt("p"), _REQUEST, GenerationRecord(_REQUEST, ["o"], "m"),
]


@pytest.mark.parametrize("record", _RECORDS, ids=lambda record: type(record).__name__)
def test_no_attribute_of_a_record_can_be_assigned(record):
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_a_schema_indexes_its_slots_and_hashes_by_its_fields():
    jess = SlotSpec("stylist", "categorical", allowed_values=("jess",))
    schema = ApiSchema("hair", "book", (_SLOT, jess))
    assert schema.by_name == {"name": _SLOT, "stylist": jess}
    assert schema == ApiSchema("hair", "book", (_SLOT, jess)) and hash(schema) == hash(("hair", "book", (_SLOT, jess)))
    assert schema != ApiSchema("hair", "book", (jess, _SLOT))
    assert copy.deepcopy(schema) == schema and copy.deepcopy(schema).by_name == schema.by_name
