"""API schema, dialogue, and argument-map data model.

Every record is immutable and its constructor trusts its fields. Each is a
named tuple: ``SlotSpec``, ``DialogueTurn`` and ``Dialogue`` are
``typing.NamedTuple``s, and ``ApiSchema`` subclasses a
``collections.namedtuple`` so that its constructor can add ``by_name``. So a
record compares equal to the tuple of its fields, iterates over them, and
``_asdict()`` maps their names to them. An argument
map is a plain ``dict`` that no code changes once it is built. Each record
kind is checked and canonicalized once, where it enters the program, so
downstream comparisons (key alignment, value matching) never have to worry
about casing or whitespace again. A canonical value is the text lowercased,
its leading and trailing whitespace dropped and each inner run of whitespace
made one space; a canonical key is the same, but each inner run of whitespace
and hyphens becomes one ``_``. Whitespace is what ``str.isspace`` says it is.
Blank text gives ``""``, as a key or a value alike, and each caller checks.
Both follow the running interpreter's Unicode tables (Python 3.10: 13.0.0,
3.11: 14.0.0, 3.12: 15.0.0, 3.13: 15.1.0), so identical inputs give
byte-identical output across versions only when every character was
assigned in all of them: U+2C2F lowercases to U+2C5F from 3.11 on, and
stays itself on 3.10.

The entry points are ``load_schema_catalog`` for API schemas and their
slots, ``dialogue_from_obj`` for dialogues and their turns
(``load_dialogues`` reads a dataset through it), and
``argument_map_from_obj`` for argument maps from JSON objects (gold
arguments and prediction rows); ``extract_argument_map`` and
``multistep_map`` build maps from model output and slot replies. Given a
catalog, ``load_dialogues`` also checks each dialogue against it, once: its
``target_api`` names a schema and every gold key is a slot of that schema,
so scoring and sampling never re-check either.

Input files are decoded by ``read_json`` (one document) or ``read_jsonl``
(one object per line). Both refuse a ``\\u`` escape that decodes to an
unpaired surrogate, which UTF-8 cannot encode, so such input fails where it
is read rather than when an artifact holding it is written.

Catalog file: JSON array of
``{api_name, description, slots: [{name, kind, description, allowed_values?, required?}]}``.
Dialogue dataset: JSONL, one
``{id, domain, target_api, turns: [{speaker, utterance}], gold_arguments: {key: value}}``
object per line.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import DatasetInvalid, InvalidArgumentMap, ParseError, SchemaInvalid
from .fuzzy import values_match

SLOT_KINDS = ("free-text", "integer", "boolean", "categorical", "date", "time")

_KIND_ALIASES = {
    "free_text": "free-text",
    "freetext": "free-text",
    "text": "free-text",
    "string": "free-text",
    "str": "free-text",
    "int": "integer",
    "number": "integer",
    "bool": "boolean",
    "enum": "categorical",
    "cat": "categorical",
}

_KEY_SEPARATORS = re.compile(r"[\s\-]+")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def has_surrogate(text: str) -> bool:
    """True when ``text`` holds a surrogate code point, which UTF-8 cannot encode."""
    return _SURROGATE.search(text) is not None


def canonicalize_key(raw: str) -> str:
    """Lowercase, trim, and join whitespace/hyphen runs with '_'. Idempotent.

    Returns ``""`` for blank text, as ``canonicalize_value`` does; the caller
    checks for it. Lowercasing never makes or removes whitespace or a hyphen,
    so text without a hyphen is split on whitespace alone."""
    if "-" in raw:
        return _KEY_SEPARATORS.sub("_", raw.strip().lower())
    return "_".join(raw.lower().split())


def canonicalize_value(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return " ".join(raw.split()).lower()


def normalize_kind(raw: str) -> str:
    kind = raw.strip().lower()
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in SLOT_KINDS:
        raise SchemaInvalid(f"unknown slot kind {raw!r}")
    return kind


# --- value conformance (the schema side of the SV/HV distinction) ----------

_INT_PATTERN = re.compile(r"[+-]?\d+")
_BOOLEAN_VALUES = frozenset({"true", "false", "yes", "no"})

_MONTHS = (
    "january|february|march|april|may|june|july|august|september|october|"
    "november|december|jan|feb|mar|apr|jun|jul|aug|sep|sept|oct|nov|dec"
)
_DATE_PATTERNS = tuple(
    re.compile(p)
    for p in (
        r"\d{4}-\d{1,2}-\d{1,2}",
        r"\d{1,2}/\d{1,2}(?:/\d{4})?",
        rf"(?:{_MONTHS})(?: \d{{1,2}}(?:st|nd|rd|th)?)?(?:,? \d{{4}})?",
        rf"\d{{1,2}}(?:st|nd|rd|th)? (?:of )?(?:{_MONTHS})(?:,? \d{{4}})?",
    )
)
_TIME_PATTERN = re.compile(r"(\d{1,2})(?::(\d{2}))?(?: ?(am|pm))?")


def _is_time(value: str) -> bool:
    m = _TIME_PATTERN.fullmatch(value)
    if m is None:
        return False
    hour = int(m.group(1))
    minute = int(m.group(2)) if m.group(2) else 0
    if minute > 59:
        return False
    if m.group(3):
        return 1 <= hour <= 12
    return hour <= 23


def value_conforms_to_slot(slot: SlotSpec, value: str) -> bool:
    """True iff a canonicalized value is legal for the slot's kind."""
    if not value:
        return False
    kind = slot.kind
    if kind == "free-text":
        return True
    if kind == "integer":
        return _INT_PATTERN.fullmatch(value) is not None
    if kind == "boolean":
        return value in _BOOLEAN_VALUES
    if kind == "categorical":
        return any(values_match(value, allowed) for allowed in slot.allowed_values or ())
    if kind == "date":
        return any(p.fullmatch(value) for p in _DATE_PATTERNS)
    return _is_time(value)


# --- domain types -----------------------------------------------------------

class SlotSpec(NamedTuple):
    """One named argument of an API: its kind and, for categoricals, the
    allowed values (stored canonicalized)."""

    name: str
    kind: str
    description: str = ""
    allowed_values: tuple[str, ...] | None = None
    required: bool = True


class ApiSchema(namedtuple("ApiSchema", "api_name description slots by_name")):
    """The pre-defined contract of one API: name, description, ordered slots.

    ``by_name`` indexes the slots by name and must not be changed. The
    constructor builds it from ``slots``, so it decides no comparison, and
    the hash leaves it out. ``_make`` and ``_replace`` skip the constructor
    and keep the old index: build a changed schema with the constructor."""

    __slots__ = ()

    def __new__(cls, api_name: str, description: str = "", slots: tuple[SlotSpec, ...] = ()):
        return super().__new__(cls, api_name, description, slots, {s.name: s for s in slots})

    def __hash__(self):
        return hash(self[:3])

    def __getnewargs__(self):  # what copy and pickle pass to __new__
        return self[:3]

    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)


# An argument map: canonical keys to non-empty canonical values, in entry
# order. Absence of information is key absence, never an empty value. A map
# is never changed once built; build one from outside data with
# ``argument_map_from_obj``.
ArgumentMap = dict[str, str]


def argument_map_from_obj(mapping) -> ArgumentMap:
    """Canonicalize a JSON object of non-null scalar values, in order.

    Raises InvalidArgumentMap when ``mapping`` is not an object, or holds
    a null, list or object value, a blank key, an empty value, or two
    keys that canonicalize alike.
    """
    if not isinstance(mapping, dict):
        raise InvalidArgumentMap(f"expected a JSON object, got {type(mapping).__name__}")
    entries: ArgumentMap = {}
    for raw_key, raw_value in mapping.items():
        if raw_value is None or isinstance(raw_value, (dict, list)):
            raise InvalidArgumentMap(f"value of key {raw_key!r} must be a string, number or boolean")
        key = canonicalize_key(str(raw_key))
        if not key:
            raise InvalidArgumentMap(f"key {raw_key!r} is empty after canonicalization")
        value = canonicalize_value(str(raw_value))
        if not value:
            raise InvalidArgumentMap(f"empty value for key '{key}'")
        if key in entries:
            raise InvalidArgumentMap(f"duplicate key '{key}'")
        entries[key] = value
    return entries


class DialogueTurn(NamedTuple):
    speaker: str
    utterance: str


class Dialogue(NamedTuple):
    id: str
    domain: str
    target_api: str
    turns: tuple[DialogueTurn, ...]
    gold_arguments: ArgumentMap = {}  # shared, as every argument map is never changed


# --- input files: one JSON reader, one JSONL reader --------------------------

def _read_source(source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    return source.read()


def _decode(text: str, where: str, indent: int | None = None):
    """Decode a whole document, or, given ``indent``, a JSONL line stripped of that many leading blanks."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        at = f"line {exc.lineno} column {exc.colno}" if indent is None else f"column {exc.colno + indent}"
        raise ParseError(f"{where} is not valid JSON: {exc.msg} at {at}")
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or nesting past the stack
        raise ParseError(f"{where}: {exc}")
    # Only an escape can put a surrogate into text that was read as UTF-8.
    if "\\u" in text and has_surrogate(json.dumps(value, ensure_ascii=False)):
        raise ParseError(f"{where}: unpaired surrogate escape")
    return value


def read_json(source, name: str):
    """Decode one JSON document from a path or a text file object.

    Raises ParseError, naming the document ``name``, for text that is not
    JSON and for a ``\\u`` escape that decodes to an unpaired surrogate.
    """
    return _decode(_read_source(source), name)


def read_jsonl(source, name: str) -> Iterator[tuple[str, dict]]:
    """Yield ``(where, object)`` for each non-blank line of a JSONL source,
    ``where`` being ``"<name> line N"``.

    Raises ParseError, naming the line, for a line that ``read_json`` would
    refuse or that is not a JSON object. Lines end at ``\\n`` only: the
    program's JSONL writers put U+0085, U+2028 and U+2029 into strings raw,
    and ``str.splitlines`` would break a line there.
    """
    for lineno, raw in enumerate(_read_source(source).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        where = f"{name} line {lineno}"
        obj = _decode(line, where, len(raw) - len(raw.lstrip()))
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
        yield where, obj


# --- catalog records ----------------------------------------------------------

def _slot_from_obj(slot: dict, where: str) -> SlotSpec:
    name, kind, description = slot["name"], slot["kind"], slot.get("description", "")
    if not all(isinstance(v, str) for v in (name, kind, description)):
        raise SchemaInvalid(f"{where}: slot name, kind and description must be strings")
    where = f"{where}, slot {name!r}"
    allowed = slot.get("allowed_values")
    if allowed is not None and (not isinstance(allowed, list) or not all(isinstance(v, str) for v in allowed)):
        raise SchemaInvalid(f"{where}: allowed_values must be a list of strings")
    required = slot.get("required", True)
    if not isinstance(required, bool):
        raise SchemaInvalid(f"{where}: required must be true or false")
    name = canonicalize_key(name)
    if not name:
        raise SchemaInvalid(f"{where} has an empty name")
    kind = normalize_kind(kind)
    if allowed is not None:
        allowed = tuple(canonicalize_value(v) for v in allowed)
    if kind == "categorical":
        if not allowed:
            raise SchemaInvalid(f"categorical slot '{name}' requires allowed_values")
        if not all(allowed):
            raise SchemaInvalid(f"slot '{name}' has an empty allowed value")
        if len(set(allowed)) != len(allowed):
            raise SchemaInvalid(f"slot '{name}' has duplicate allowed values")
    elif allowed is not None:
        raise SchemaInvalid(f"slot '{name}' is not categorical but lists allowed_values")
    return SlotSpec(name, kind, description, allowed, required)


def _schema_from_obj(obj: dict) -> ApiSchema:
    if not isinstance(obj, dict):
        raise SchemaInvalid(f"catalog entry is not an object: {obj!r}")
    where = f"catalog entry {obj.get('api_name')!r}"
    try:
        api_name, description = obj["api_name"], obj.get("description", "")
        if not all(isinstance(v, str) for v in (api_name, description)):
            raise SchemaInvalid(f"{where}: api_name and description must be strings")
        raw_slots = obj.get("slots", [])
        if not isinstance(raw_slots, list) or not all(isinstance(s, dict) for s in raw_slots):
            raise SchemaInvalid(f"{where}: slots must be a list of objects")
        slots = tuple(_slot_from_obj(s, where) for s in raw_slots)
    except KeyError as exc:
        raise SchemaInvalid(f"catalog entry missing field {exc}") from exc
    api_name = canonicalize_key(api_name)
    if not api_name:
        raise SchemaInvalid(f"{where} has an empty api_name")
    if not slots:
        raise SchemaInvalid(f"schema '{api_name}' has no slots")
    if len({s.name for s in slots}) != len(slots):
        raise SchemaInvalid(f"schema '{api_name}' has duplicate slot names")
    return ApiSchema(api_name, description, slots)


def load_schema_catalog(source) -> dict[str, ApiSchema]:
    """Load and validate a catalog file into a map of api_name -> ApiSchema."""
    doc = read_json(source, "catalog")
    if not isinstance(doc, list):
        raise ParseError("catalog must be a JSON array of API objects")
    catalog: dict[str, ApiSchema] = {}
    for obj in doc:
        schema = _schema_from_obj(obj)
        if schema.api_name in catalog:
            raise SchemaInvalid(f"duplicate api_name '{schema.api_name}'")
        catalog[schema.api_name] = schema
    return catalog


# --- dialogue records ---------------------------------------------------------

def dialogue_to_obj(dialogue: Dialogue) -> dict:
    return {
        "id": dialogue.id,
        "domain": dialogue.domain,
        "target_api": dialogue.target_api,
        "turns": [{"speaker": t.speaker, "utterance": t.utterance} for t in dialogue.turns],
        "gold_arguments": dialogue.gold_arguments,
    }


def _turn_from_obj(turn: dict) -> DialogueTurn:
    speaker, utterance = turn["speaker"], turn["utterance"]
    if not isinstance(speaker, str) or not isinstance(utterance, str):
        raise DatasetInvalid("turn speaker and utterance must be strings")
    canonical = speaker.strip().lower()
    if canonical not in ("user", "agent"):
        raise DatasetInvalid(f"speaker must be 'user' or 'agent', got {speaker!r}")
    utterance = utterance.strip()
    if not utterance:
        raise DatasetInvalid("turn utterance is empty")
    return DialogueTurn(canonical, utterance)


def dialogue_from_obj(obj: dict) -> Dialogue:
    """Check and canonicalize one dialogue record; raises DatasetInvalid."""
    if not isinstance(obj, dict):
        raise DatasetInvalid(f"dialogue record must be a JSON object, got {type(obj).__name__}")
    try:
        raw_turns = obj["turns"]
        if not isinstance(raw_turns, list) or not all(isinstance(t, dict) for t in raw_turns):
            raise DatasetInvalid(f"dialogue {obj.get('id')!r}: turns must be a list of objects")
        try:
            turns = tuple(_turn_from_obj(t) for t in raw_turns)
        except DatasetInvalid as exc:
            raise DatasetInvalid(f"dialogue {obj.get('id')!r}: {exc}") from exc
        ident, domain, target_api = obj["id"], obj["domain"], obj["target_api"]
        if not all(isinstance(v, str) for v in (ident, domain, target_api)):
            raise DatasetInvalid(f"dialogue {ident!r}: id, domain and target_api must be strings")
        gold = argument_map_from_obj(obj.get("gold_arguments", {}))
    except KeyError as exc:
        raise DatasetInvalid(f"dialogue record missing field {exc}") from exc
    except InvalidArgumentMap as exc:
        raise DatasetInvalid(f"dialogue {obj.get('id')!r}: gold_arguments: {exc}") from exc
    ident = ident.strip()
    if not ident:
        raise DatasetInvalid("dialogue id is empty")
    domain = canonicalize_value(domain)
    if not domain:
        raise DatasetInvalid(f"dialogue '{ident}' has an empty domain")
    target_api = canonicalize_key(target_api)
    if not target_api:
        raise DatasetInvalid(f"dialogue '{ident}' has an empty target_api")
    if not turns:
        raise DatasetInvalid(f"dialogue '{ident}' has no turns")
    return Dialogue(ident, domain, target_api, turns, gold)


def load_dialogues(source, catalog: dict[str, ApiSchema] | None = None) -> list[Dialogue]:
    """Load a JSONL dialogue dataset. Given a catalog, a target_api outside it
    or a gold key that is not a slot of the target schema raises
    DatasetInvalid; callers with that catalog rely on both."""
    dialogues: list[Dialogue] = []
    seen_ids: set[str] = set()
    for where, obj in read_jsonl(source, "dataset"):
        try:
            dialogue = dialogue_from_obj(obj)
        except DatasetInvalid as exc:
            raise DatasetInvalid(f"{where}: {exc}") from exc
        if dialogue.id in seen_ids:
            raise DatasetInvalid(f"{where}: duplicate dialogue id '{dialogue.id}'")
        seen_ids.add(dialogue.id)
        if catalog is not None:
            api, where = dialogue.target_api, f"{where}: dialogue '{dialogue.id}'"
            schema = catalog.get(api)
            if schema is None:
                raise DatasetInvalid(f"{where}: target_api '{api}' not in catalog")
            for key in dialogue.gold_arguments:
                if key not in schema.by_name:
                    raise DatasetInvalid(f"{where}: gold key '{key}' not in schema '{api}'")
        dialogues.append(dialogue)
    return dialogues
