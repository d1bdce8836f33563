import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arground import parsing
from arground.errors import MalformedArguments, NoArgumentObject
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
from arground.schema import argument_map_from_obj, canonicalize_key, canonicalize_value, has_surrogate
from oracle import ref_extract_argument_map, ref_first_balanced_region, ref_serialize

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "malformed_outputs"


def test_clean_input():
    outcome = extract_argument_map('{"name": "John", "time": "3pm"}')
    assert list(outcome.map.items()) == [("name", "john"), ("time", "3pm")]
    assert outcome.warnings == ()


def test_prose_quotes_and_trailing_comma():
    outcome = extract_argument_map("Sure! Here you go: {'name': 'John',}")
    assert list(outcome.map.items()) == [("name", "john")]
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
    assert outcome.map == {"guests": "3", "confirmed": "true"}
    assert WARN_BARE_WORD in outcome.warnings


def test_null_dropped():
    outcome = extract_argument_map('{"a": "x", "b": null, "c": None}')
    assert outcome.map == {"a": "x"}
    assert WARN_NULL_VALUE in outcome.warnings


def test_duplicate_key_last_wins():
    outcome = extract_argument_map('{"name": "John", "NAME": "Jess"}')
    assert outcome.map == {"name": "jess"}
    assert WARN_DUPLICATE_KEY in outcome.warnings


def test_empty_value_dropped_with_warning():
    outcome = extract_argument_map('{"a": "x", "b": ""}')
    assert outcome.map == {"a": "x"}
    assert WARN_EMPTY_VALUE in outcome.warnings


def test_code_fence_stripped():
    outcome = extract_argument_map('```json\n{"a": "b"}\n```')
    assert outcome.map == {"a": "b"}
    assert WARN_CODE_FENCE in outcome.warnings


def test_code_fence_inside_quoted_value_kept():
    outcome = extract_argument_map('{"note": "use ```python here"}')
    assert outcome.map == {"note": "use ```python here"}
    assert outcome.warnings == ()


def test_first_region_wins():
    outcome = extract_argument_map('{"a": "1"} then {"b": "2"}')
    assert outcome.map == {"a": "1"}


def test_empty_object_is_valid():
    outcome = extract_argument_map("{}")
    assert len(outcome.map) == 0


def test_warnings_listed_once():
    outcome = extract_argument_map("{'a': 'x', 'b': 'y', 'c': 'z'}")
    assert outcome.warnings.count(WARN_SINGLE_QUOTES) == 1


class TestSerialize:
    def test_single_entry(self):
        assert serialize_argument_map({"name": "john"}) == '{"name": "john"}'

    def test_empty(self):
        assert serialize_argument_map({}) == "{}"

    def test_sorted(self):
        amap = {"time": "3pm", "name": "john"}
        assert serialize_argument_map(amap, "sorted") == '{"name": "john", "time": "3pm"}'
        assert serialize_argument_map(amap, "given") == '{"time": "3pm", "name": "john"}'

    def test_bad_order(self):
        with pytest.raises(ValueError):
            serialize_argument_map({}, "shuffled")


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
    return st.text(min_size=1, max_size=12).map(canonicalize_key).filter(bool)


def _canonical_values():
    return st.text(min_size=1, max_size=20).map(canonicalize_value).filter(bool)


def argument_maps():
    return st.dictionaries(_canonical_keys(), _canonical_values(), max_size=5)


@given(argument_maps())
@example({"note": "x ``` y"})
@settings(max_examples=200)
def test_round_trip(amap):
    outcome = extract_argument_map(serialize_argument_map(amap, "given"))
    assert list(outcome.map.items()) == list(amap.items())


@given(st.text(max_size=300))
@settings(max_examples=300)
def test_extract_never_crashes(raw):
    try:
        first = extract_argument_map(raw)
        second = extract_argument_map(raw)
        assert (list(first.map.items()), first.warnings) == (list(second.map.items()), second.warnings)  # deterministic
        assert list(argument_map_from_obj(first.map).items()) == list(first.map.items())  # canonical
    except (NoArgumentObject, MalformedArguments):
        pass


@given(st.binary(max_size=200))
def test_extract_survives_arbitrary_bytes(blob):
    try:
        extract_argument_map(blob.decode("latin-1"))
    except (NoArgumentObject, MalformedArguments):
        pass


# --- the linear-time parser against the previous one (tests/oracle.py) -------

# Braces, both quotes, the separators, the backslash and a \uXXXX escape's
# letters, plus whitespace that str.isspace() accepts beyond the space.
_PARSER_ALPHABET = list("{}'\" a:,\\xu0") + ["\n", "\t", "\x1c", "\xa0"]


def _outcome(extract, raw):
    """Everything a caller can observe: map entries in order and warnings, or
    error class and span. A dict compares equal whatever its order, so the
    entries are compared as a list."""
    try:
        outcome = extract(raw)
    except (NoArgumentObject, MalformedArguments) as exc:
        return type(exc).__name__, getattr(exc, "span", None)
    return list(outcome.map.items()), outcome.warnings


@given(st.text(alphabet=_PARSER_ALPHABET, max_size=64))
@example("{ 'a" * 16)
@example("{'a': '\\u00e9'}{")
@example("{{\"a\\")
@settings(max_examples=2000)
def test_region_and_outcome_agree_with_oracle(raw):
    assert parsing._first_balanced_region(raw) == ref_first_balanced_region(raw)
    assert _outcome(extract_argument_map, raw) == _outcome(ref_extract_argument_map, raw)


@given(st.text(alphabet="{}'\"\\:, a", max_size=64))
@settings(max_examples=2000)
def test_region_agrees_with_oracle_on_dense_punctuation(raw):
    assert parsing._first_balanced_region(raw) == ref_first_balanced_region(raw)


# Whole tokens reach nested regions, closed strings next to stray quotes and
# escapes inside single quotes far more often than single characters do.
_PARSER_TOKENS = ["{", "}", "'", '"', "\\", ":", ",", " ", "\n", "\xa0", "a", "x", "null",
                  '"k"', "'v'", '"a\\"b"', "'a\\'b'", "'\\u00e9'", "\\u0041", "{}", "```"]


@given(st.lists(st.sampled_from(_PARSER_TOKENS), max_size=24))
@example(["{", "{", '"k"', "'", "}"])
@example(["{", "{", "'a\\'b'", "\\", "'", "}"])
@example(["{", '"k"', ":", " ", "x", ":", "'", "a", ",", " ", "'", "a", "}"])
@example(["{", "{", "'", "\\", "\\", "'", "}"])
@settings(max_examples=2000, deadline=None)
def test_region_and_outcome_agree_with_oracle_on_tokens(tokens):
    raw = "".join(tokens)
    assert parsing._first_balanced_region(raw) == ref_first_balanced_region(raw)
    outcome = _outcome(extract_argument_map, raw)
    assert outcome == _outcome(ref_extract_argument_map, raw)
    if isinstance(outcome[0], list):
        assert list(argument_map_from_obj(dict(outcome[0])).items()) == outcome[0]  # canonical


def test_fixture_corpus_agrees_with_oracle():
    """Every prefix of every fixture, so each reply cut off mid-object (as at
    ``max_tokens``) is covered too."""
    txt_files = sorted(FIXTURE_DIR.glob("*.txt"))
    assert len(txt_files) == 28
    for txt in txt_files:
        text = txt.read_text(encoding="utf-8")
        for raw in (text[:end] for end in range(len(text) + 1)):
            assert parsing._first_balanced_region(raw) == ref_first_balanced_region(raw), (txt.name, raw)
            assert _outcome(extract_argument_map, raw) == _outcome(ref_extract_argument_map, raw), (txt.name, raw)


def test_a_reply_cut_off_mid_object_takes_no_backward_pass(monkeypatch):
    monkeypatch.setattr(parsing, "_first_closing_open", lambda *args: pytest.fail("backward pass over text with no '}'"))
    with pytest.raises(NoArgumentObject):
        extract_argument_map("{ 'a" * 250)


@given(argument_maps())
@example(argument_map_from_obj({"note": 'say "hi"\\ \u00e9 \U0001f600 \x07', "a": "b"}))
@settings(max_examples=200)
def test_serialize_agrees_with_oracle(amap):
    for order in ("given", "sorted"):
        assert serialize_argument_map(amap, order) == ref_serialize(amap, order)


def _best_of_three(raw_by_size):
    """Best of three timings of extract_argument_map per size, interleaved so
    that a slow spell of the machine falls on both sizes alike."""
    best = dict.fromkeys(raw_by_size, float("inf"))
    for _ in range(3):
        for size, raw in raw_by_size.items():
            started = time.perf_counter()
            try:
                extract_argument_map(raw)
            except (NoArgumentObject, MalformedArguments):
                pass
            best[size] = min(best[size], time.perf_counter() - started)
    return best


@pytest.mark.parametrize("shape", ["{ 'a", "{", '{"a\\'])
def test_parser_scales_linearly(shape):
    # Quadrupling the input quadruples linear work and multiplies quadratic
    # work by 16; the bound of 8 sits between them and uses no wall-clock limit.
    raw_by_size = {size: (shape * size)[:size] for size in (16_000, 64_000)}
    best = _best_of_three(raw_by_size)
    assert best[64_000] / best[16_000] < 8


# --- the strict-JSON fast path against the oracle -----------------------------

_CHARS = st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from(["\xe9", " ", "\U0001f600", "\U00010348"]))
_TEXT = st.text(alphabet=_CHARS, max_size=8)
# An unpaired surrogate stays a lone \uXXXX escape, or a literal one without ensure_ascii.
_TEXT_WITH_SURROGATES = st.text(alphabet=st.one_of(_CHARS, st.sampled_from(["\ud83d", "\ude00"])), max_size=8)
_NESTED_VALUES = st.one_of(st.dictionaries(_TEXT, _TEXT, max_size=2), st.lists(_TEXT, max_size=2))
_AROUND = st.sampled_from([("", ""), ("Sure: ", " Done."), ("```json\n", "\n```"), ("", ' then {"b": "2"}'),
                           ("", "{}"), ("It's ", "\n")])


@st.composite
def json_outputs(draw):
    """Output whose first ``{`` starts ``json.dumps``-encoded pairs joined by hand,
    so keys may repeat; also whether the fast path must take it."""
    text = _TEXT_WITH_SURROGATES if draw(st.integers(0, 3)) == 0 else _TEXT
    keys = st.one_of(text, st.sampled_from(["", " "]))
    values = st.one_of(text, st.sampled_from(["", " ", "\t\n"]), st.integers(-(10**20), 10**20),
                       st.floats(), st.booleans(), st.none())
    pairs = draw(st.lists(st.tuples(keys, values), max_size=5))
    if draw(st.integers(0, 3)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(text), draw(_NESTED_VALUES)))
    if pairs and draw(st.booleans()):
        pairs.append((pairs[0][0].upper(), draw(values)))  # a duplicate key
    ensure_ascii = draw(st.booleans())
    sep = draw(st.sampled_from([", ", ",", ",\n  "]))
    body = sep.join(f"{json.dumps(k, ensure_ascii=ensure_ascii)}: {json.dumps(v, ensure_ascii=ensure_ascii)}"
                    for k, v in pairs)
    before, after = draw(_AROUND)
    # Judge each text as the parser decodes it: with ensure_ascii a lone high surrogate
    # followed by a lone low one is written as an escape pair, which decodes to one character.
    texts = [json.loads(json.dumps(t, ensure_ascii=ensure_ascii))
             for t in [k for k, _ in pairs] + [v for _, v in pairs if isinstance(v, str)]]
    fast = (all(v is None or isinstance(v, (str, int, float)) for _, v in pairs)
            and not any(has_surrogate(t) for t in texts))
    return f"{before}{{{body}}}{after}", fast


@given(json_outputs())
@example(('{"name": "john \\ud83d\\ude00"}', True))
@example(('{"name": "john \\ud83d"}', False))
@example(('{"\\ud83d\\ude00": null}', True))
@example(('{"guests": 498, "outdoor": true, "note": null, "x": -1.5e3, "y": NaN}', True))
@example(('{"a": "x", "A": " ", "": "y", "a": "z"}', True))
@settings(max_examples=500, deadline=None)
def test_fast_path_agrees_with_oracle(drawn):
    raw, fast = drawn
    outcome = _outcome(extract_argument_map, raw)
    assert outcome == _outcome(ref_extract_argument_map, raw)
    assert (parsing._strict_object(raw, raw.find("{")) is not None) == fast
    if fast:
        assert isinstance(outcome[0], list)


def test_clean_json_takes_the_fast_path_and_relaxed_text_does_not(monkeypatch):
    def no_relaxed_parse(inner, warnings):
        raise AssertionError("relaxed parser reached")

    monkeypatch.setattr(parsing, "_parse_object_body", no_relaxed_parse)
    outcome = extract_argument_map('```json\n{"name": "John", "guests": 3, "outdoor": false, "note": null}\n```')
    assert outcome.map == {"name": "john", "guests": "3", "outdoor": "false"}
    assert outcome.warnings == (WARN_CODE_FENCE, WARN_BARE_WORD, WARN_NULL_VALUE)
    with pytest.raises(AssertionError, match="relaxed parser reached"):
        extract_argument_map("{'a': 'b'}")


# --- surrogate escapes ----------------------------------------------------------

@pytest.mark.parametrize("raw", ['{"name": "john \\ud83d\\ude00"}', "{'name': 'john \\ud83d\\ude00'}",
                                 '{"name": "john \\uD83D\\uDE00"}', '{"name": "john \U0001f600"}'],
                         ids=["escaped", "single-quoted", "upper-case-hex", "literal"])
def test_a_surrogate_pair_escape_is_one_code_point(raw):
    assert extract_argument_map(raw).map == {"name": "john \U0001f600"}


@pytest.mark.parametrize("raw", ['{"name": "john \\ud83d"}', "{'name': 'john \\ude00\\ud83d'}",
                                 '{"name": "john \ud83d"}', '{"name\\ud83d": "john"}', '{"x\\udfff": null}',
                                 "{name: john \ud83d}"],
                         ids=["unpaired", "low-then-high", "literal", "in-key", "in-key-of-null", "bare-word"])
def test_a_surrogate_left_in_a_key_or_value_is_malformed(raw):
    with pytest.raises(MalformedArguments) as exc:
        extract_argument_map(raw)
    assert exc.value.span
