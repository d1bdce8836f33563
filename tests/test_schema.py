import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arground.errors import (
    DatasetInvalid,
    DuplicateApi,
    InvalidArgumentMap,
    InvalidKey,
    ParseError,
    SchemaInvalid,
)
from arground.schema import (
    ApiSchema,
    ArgumentMap,
    Dialogue,
    DialogueTurn,
    SlotSpec,
    canonicalize_key,
    canonicalize_value,
    dialogue_to_obj,
    dump_schema_catalog,
    load_dialogues,
    load_schema_catalog,
    value_conforms_to_slot,
)

from conftest import jsonl

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

from conftest import jsonl


class TestCanonicalizeKey:
    def test_rule_application(self):
        assert canonicalize_key("Appointment Time") == "appointment_time"

    def test_identity(self):
        assert canonicalize_key("name") == "name"

    def test_hyphen_and_padding(self):
        assert canonicalize_key("  Stylist-Name ") == "stylist_name"

    def test_empty_raises(self):
        with pytest.raises(InvalidKey):
            canonicalize_key("   ")

    @given(st.text(min_size=1, max_size=30))
    def test_idempotent(self, raw):
        try:
            once = canonicalize_key(raw)
        except InvalidKey:
            return
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


class TestSlotSpecInvariants:
    def test_categorical_needs_values(self):
        with pytest.raises(SchemaInvalid):
            SlotSpec("s", "categorical")

    def test_categorical_no_duplicates(self):
        with pytest.raises(SchemaInvalid):
            SlotSpec("s", "categorical", allowed_values=("Jess", "jess"))

    def test_non_categorical_rejects_values(self):
        with pytest.raises(SchemaInvalid):
            SlotSpec("s", "integer", allowed_values=("1",))

    def test_unknown_kind(self):
        with pytest.raises(SchemaInvalid):
            SlotSpec("s", "floating")


class TestCatalog:
    def test_load_single_api(self):
        catalog = load_schema_catalog(io.StringIO(CATALOG_JSON))
        assert set(catalog) == {"hair_appointment"}
        schema = catalog["hair_appointment"]
        assert schema.slot_names() == ("name", "time", "stylist")
        assert schema.slot("stylist").allowed_values == ("jess", "jack")
        assert all(s.required for s in schema.slots)

    def test_round_trip(self):
        catalog = load_schema_catalog(io.StringIO(CATALOG_JSON))
        again = load_schema_catalog(io.StringIO(dump_schema_catalog(catalog)))
        assert again == catalog

    def test_duplicate_api(self):
        doc = json.dumps(
            [
                {"api_name": "a", "slots": [{"name": "x", "kind": "integer"}]},
                {"api_name": "A", "slots": [{"name": "y", "kind": "integer"}]},
            ]
        )
        with pytest.raises(DuplicateApi):
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
        with pytest.raises(ParseError) as exc:
            load_schema_catalog(io.StringIO('[{"api_name": }]'))
        assert exc.value.line is not None

    def test_schema_needs_slots(self):
        with pytest.raises(SchemaInvalid):
            load_schema_catalog(io.StringIO('[{"api_name": "a", "slots": []}]'))


class TestArgumentMap:
    def test_from_pairs_canonicalizes(self):
        amap = ArgumentMap.from_pairs([("Name", "John"), ("Appointment Time", "3 PM")])
        assert amap.entries == (("name", "john"), ("appointment_time", "3 pm"))

    def test_duplicate_after_canonicalization(self):
        with pytest.raises(InvalidArgumentMap):
            ArgumentMap.from_pairs([("Name", "a"), ("name", "b")])

    def test_empty_value_rejected(self):
        with pytest.raises(InvalidArgumentMap):
            ArgumentMap.from_pairs([("name", "  ")])

    def test_order_preserved(self):
        amap = ArgumentMap.from_pairs([("b", "2"), ("a", "1")])
        assert amap.keys() == ("b", "a")
        assert amap.get("a") == "1"
        assert "b" in amap and "c" not in amap


class TestDialogues:
    def test_load_and_dump(self, hair_catalog, hair_dialogue):
        text = jsonl([dialogue_to_obj(hair_dialogue)])
        loaded = load_dialogues(io.StringIO(text), hair_catalog)
        assert loaded == [hair_dialogue]

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
        with pytest.raises(DatasetInvalid):
            load_dialogues(io.StringIO(line), hair_catalog)

    def test_duplicate_id(self, hair_catalog, hair_dialogue):
        text = jsonl([dialogue_to_obj(hair_dialogue)] * 2)
        with pytest.raises(DatasetInvalid):
            load_dialogues(io.StringIO(text), hair_catalog)

    def test_bad_speaker(self):
        with pytest.raises(DatasetInvalid):
            DialogueTurn("narrator", "hello")

    def test_empty_utterance(self):
        with pytest.raises(DatasetInvalid):
            DialogueTurn("user", "   ")

    def test_turns_required(self):
        with pytest.raises(DatasetInvalid):
            Dialogue("d", "salon", "api", (), ArgumentMap())
