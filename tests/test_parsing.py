from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arground.errors import InvalidKey, MalformedArguments, NoArgumentObject
from arground.parsing import (
    WARN_BARE_WORD,
    WARN_CODE_FENCE,
    WARN_DUPLICATE_KEY,
    WARN_EMPTY_VALUE,
    WARN_NULL_VALUE,
    WARN_SINGLE_QUOTES,
    WARN_TRAILING_COMMA,
    extract_argument_map,
    serialize_argument_map,
)
from arground.schema import ArgumentMap, canonicalize_key, canonicalize_value

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "malformed_outputs"


def test_clean_input():
    outcome = extract_argument_map('{"name": "John", "time": "3pm"}')
    assert outcome.map.entries == (("name", "john"), ("time", "3pm"))
    assert outcome.warnings == ()


def test_prose_quotes_and_trailing_comma():
    outcome = extract_argument_map("Sure! Here you go: {'name': 'John',}")
    assert outcome.map.entries == (("name", "john"),)
    assert WARN_SINGLE_QUOTES in outcome.warnings
    assert WARN_TRAILING_COMMA in outcome.warnings


def test_refusal_has_no_object():
    with pytest.raises(NoArgumentObject):
        extract_argument_map("I cannot help with that.")


def test_nested_object_rejected():
    with pytest.raises(MalformedArguments) as exc:
        extract_argument_map('{"name": {"first": "John"}}')
    assert exc.value.span


def test_array_value_rejected():
    with pytest.raises(MalformedArguments):
        extract_argument_map('{"names": ["a", "b"]}')


def test_literals_stringified():
    outcome = extract_argument_map('{"guests": 3, "confirmed": true}')
    assert outcome.map.as_dict() == {"guests": "3", "confirmed": "true"}
    assert WARN_BARE_WORD in outcome.warnings


def test_null_dropped():
    outcome = extract_argument_map('{"a": "x", "b": null, "c": None}')
    assert outcome.map.as_dict() == {"a": "x"}
    assert WARN_NULL_VALUE in outcome.warnings


def test_duplicate_key_last_wins():
    outcome = extract_argument_map('{"name": "John", "NAME": "Jess"}')
    assert outcome.map.as_dict() == {"name": "jess"}
    assert WARN_DUPLICATE_KEY in outcome.warnings


def test_empty_value_dropped_with_warning():
    outcome = extract_argument_map('{"a": "x", "b": ""}')
    assert outcome.map.as_dict() == {"a": "x"}
    assert WARN_EMPTY_VALUE in outcome.warnings


def test_code_fence_stripped():
    outcome = extract_argument_map('```json\n{"a": "b"}\n```')
    assert outcome.map.as_dict() == {"a": "b"}
    assert WARN_CODE_FENCE in outcome.warnings


def test_code_fence_inside_quoted_value_kept():
    outcome = extract_argument_map('{"note": "use ```python here"}')
    assert outcome.map.as_dict() == {"note": "use ```python here"}
    assert outcome.warnings == ()


def test_first_region_wins():
    outcome = extract_argument_map('{"a": "1"} then {"b": "2"}')
    assert outcome.map.as_dict() == {"a": "1"}


def test_empty_object_is_valid():
    outcome = extract_argument_map("{}")
    assert len(outcome.map) == 0


def test_warnings_listed_once():
    outcome = extract_argument_map("{'a': 'x', 'b': 'y', 'c': 'z'}")
    assert outcome.warnings.count(WARN_SINGLE_QUOTES) == 1


class TestSerialize:
    def test_single_entry(self):
        assert serialize_argument_map(ArgumentMap((("name", "john"),))) == '{"name": "john"}'

    def test_empty(self):
        assert serialize_argument_map(ArgumentMap()) == "{}"

    def test_sorted(self):
        amap = ArgumentMap((("time", "3pm"), ("name", "john")))
        assert serialize_argument_map(amap, "sorted") == '{"name": "john", "time": "3pm"}'
        assert serialize_argument_map(amap, "given") == '{"time": "3pm", "name": "john"}'

    def test_bad_order(self):
        with pytest.raises(ValueError):
            serialize_argument_map(ArgumentMap(), "shuffled")


def test_fixture_corpus():
    txt_files = sorted(FIXTURE_DIR.glob("*.txt"))
    assert len(txt_files) >= 20
    for txt in txt_files:
        raw = txt.read_text(encoding="utf-8")
        expected = txt.with_suffix(".expected").read_text(encoding="utf-8").rstrip("\n")
        if expected.startswith("{"):
            got = serialize_argument_map(extract_argument_map(raw).map, "given")
            assert got == expected, txt.name
        else:
            with pytest.raises((NoArgumentObject, MalformedArguments)) as exc:
                extract_argument_map(raw)
            assert type(exc.value).__name__ == expected, txt.name


def _canonical_keys():
    def to_key(raw):
        try:
            return canonicalize_key(raw)
        except InvalidKey:
            return None

    return st.text(min_size=1, max_size=12).map(to_key).filter(lambda k: k is not None)


def _canonical_values():
    return st.text(min_size=1, max_size=20).map(canonicalize_value).filter(bool)


def argument_maps():
    return st.dictionaries(_canonical_keys(), _canonical_values(), max_size=5).map(
        lambda d: ArgumentMap(tuple(d.items()))
    )


@given(argument_maps())
@example(ArgumentMap((("note", "x ``` y"),)))
@settings(max_examples=200)
def test_round_trip(amap):
    outcome = extract_argument_map(serialize_argument_map(amap, "given"))
    assert outcome.map == amap


@given(st.text(max_size=300))
@settings(max_examples=300)
def test_extract_never_crashes(raw):
    try:
        first = extract_argument_map(raw)
        second = extract_argument_map(raw)
        assert first == second  # deterministic
    except (NoArgumentObject, MalformedArguments):
        pass


@given(st.binary(max_size=200))
def test_extract_survives_arbitrary_bytes(blob):
    try:
        extract_argument_map(blob.decode("latin-1"))
    except (NoArgumentObject, MalformedArguments):
        pass
