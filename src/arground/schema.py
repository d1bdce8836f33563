"""API schema, dialogue, and argument-map data model.

Everything is immutable after construction and canonicalized on the way
in, so downstream comparisons (key alignment, value matching) never have
to worry about casing or whitespace again. An argument map is checked and
canonicalized once, where it enters the program: ``ArgumentMap.from_dict``
for JSON objects (gold arguments and prediction rows), ``extract_argument_map``
for model output, ``multistep_map`` for slot replies; its constructor trusts them.

Catalog file: JSON array of
``{api_name, description, slots: [{name, kind, description, allowed_values?, required?}]}``.
Dialogue dataset: JSONL, one
``{id, domain, target_api, turns: [{speaker, utterance}], gold_arguments: {key: value}}``
object per line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    DatasetInvalid,
    DuplicateApi,
    InvalidArgumentMap,
    InvalidKey,
    ParseError,
    SchemaInvalid,
)
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
_VALUE_SPACES = re.compile(r"\s+")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def has_surrogate(text: str) -> bool:
    """True when ``text`` holds a surrogate code point, which UTF-8 cannot encode."""
    return _SURROGATE.search(text) is not None


def canonicalize_key(raw: str) -> str:
    """Lowercase, trim, and join whitespace/hyphen runs with '_'. Idempotent."""
    out = _KEY_SEPARATORS.sub("_", raw.strip().lower())
    if not out:
        raise InvalidKey(f"key {raw!r} is empty after canonicalization")
    return out


def canonicalize_value(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return _VALUE_SPACES.sub(" ", raw.strip()).lower()


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

@dataclass(frozen=True)
class SlotSpec:
    """One named argument of an API: its kind and, for categoricals, the
    allowed values (stored canonicalized)."""

    name: str
    kind: str
    description: str = ""
    allowed_values: tuple[str, ...] | None = None
    required: bool = True

    def __post_init__(self):
        try:
            object.__setattr__(self, "name", canonicalize_key(self.name))
        except InvalidKey as exc:
            raise SchemaInvalid(str(exc)) from exc
        object.__setattr__(self, "kind", normalize_kind(self.kind))
        if self.allowed_values is not None:
            object.__setattr__(
                self, "allowed_values", tuple(canonicalize_value(v) for v in self.allowed_values)
            )
        if self.kind == "categorical":
            if not self.allowed_values:
                raise SchemaInvalid(f"categorical slot '{self.name}' requires allowed_values")
            if any(not v for v in self.allowed_values):
                raise SchemaInvalid(f"slot '{self.name}' has an empty allowed value")
            if len(set(self.allowed_values)) != len(self.allowed_values):
                raise SchemaInvalid(f"slot '{self.name}' has duplicate allowed values")
        elif self.allowed_values is not None:
            raise SchemaInvalid(f"slot '{self.name}' is not categorical but lists allowed_values")


@dataclass(frozen=True)
class ApiSchema:
    """The pre-defined contract of one API: name, description, ordered slots."""

    api_name: str
    description: str = ""
    slots: tuple[SlotSpec, ...] = ()

    def __post_init__(self):
        try:
            object.__setattr__(self, "api_name", canonicalize_key(self.api_name))
        except InvalidKey as exc:
            raise SchemaInvalid(str(exc)) from exc
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.slots:
            raise SchemaInvalid(f"schema '{self.api_name}' has no slots")
        names = [s.name for s in self.slots]
        if len(set(names)) != len(names):
            raise SchemaInvalid(f"schema '{self.api_name}' has duplicate slot names")

    def slot(self, name: str) -> SlotSpec | None:
        for s in self.slots:
            if s.name == name:
                return s
        return None

    def slot_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.slots)


@dataclass(frozen=True)
class ArgumentMap:
    """Ordered key->value pairs; keys unique and canonical, values non-empty.

    Absence of information is modeled as key absence, never as an empty
    value. The constructor trusts its entries; build a map from outside data
    with :meth:`from_dict`.
    """

    entries: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_dict(cls, mapping) -> "ArgumentMap":
        """Canonicalize a JSON object of non-null scalar values, in order.

        Raises InvalidArgumentMap when ``mapping`` is not an object, or holds
        a null, list or object value, a blank key, an empty value, or two
        keys that canonicalize alike.
        """
        if not isinstance(mapping, dict):
            raise InvalidArgumentMap(f"expected a JSON object, got {type(mapping).__name__}")
        entries: dict[str, str] = {}
        for raw_key, raw_value in mapping.items():
            if raw_value is None or isinstance(raw_value, (dict, list)):
                raise InvalidArgumentMap(f"value of key {raw_key!r} must be a string, number or boolean")
            try:
                key = canonicalize_key(str(raw_key))
            except InvalidKey as exc:
                raise InvalidArgumentMap(str(exc)) from exc
            value = canonicalize_value(str(raw_value))
            if not value:
                raise InvalidArgumentMap(f"empty value for key '{key}'")
            if key in entries:
                raise InvalidArgumentMap(f"duplicate key '{key}'")
            entries[key] = value
        return cls(tuple(entries.items()))

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.entries)

    def get(self, key: str, default=None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict[str, str]:
        return dict(self.entries)

    def items(self) -> tuple[tuple[str, str], ...]:
        return self.entries

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self.entries)


@dataclass(frozen=True)
class DialogueTurn:
    speaker: str
    utterance: str

    def __post_init__(self):
        if not isinstance(self.speaker, str) or not isinstance(self.utterance, str):
            raise DatasetInvalid("turn speaker and utterance must be strings")
        speaker = self.speaker.strip().lower()
        if speaker not in ("user", "agent"):
            raise DatasetInvalid(f"speaker must be 'user' or 'agent', got {self.speaker!r}")
        object.__setattr__(self, "speaker", speaker)
        utterance = self.utterance.strip()
        if not utterance:
            raise DatasetInvalid("turn utterance is empty")
        object.__setattr__(self, "utterance", utterance)


@dataclass(frozen=True)
class Dialogue:
    id: str
    domain: str
    target_api: str
    turns: tuple[DialogueTurn, ...]
    gold_arguments: ArgumentMap = field(default_factory=ArgumentMap)

    def __post_init__(self):
        ident = self.id.strip()
        if not ident:
            raise DatasetInvalid("dialogue id is empty")
        object.__setattr__(self, "id", ident)
        domain = canonicalize_value(self.domain)
        if not domain:
            raise DatasetInvalid(f"dialogue '{ident}' has an empty domain")
        object.__setattr__(self, "domain", domain)
        try:
            object.__setattr__(self, "target_api", canonicalize_key(self.target_api))
        except InvalidKey as exc:
            raise DatasetInvalid(f"dialogue '{ident}': {exc}") from exc
        object.__setattr__(self, "turns", tuple(self.turns))
        if not self.turns:
            raise DatasetInvalid(f"dialogue '{ident}' has no turns")
        if not isinstance(self.gold_arguments, ArgumentMap):
            raise DatasetInvalid(f"dialogue '{ident}': gold_arguments must be an ArgumentMap")


# --- catalog and dataset IO --------------------------------------------------

def _read_source(source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    return source.read()


def _slot_from_obj(slot: dict, where: str) -> SlotSpec:
    if not all(isinstance(v, str) for v in (slot["name"], slot["kind"], slot.get("description", ""))):
        raise SchemaInvalid(f"{where}: slot name, kind and description must be strings")
    where = f"{where}, slot {slot['name']!r}"
    allowed = slot.get("allowed_values")
    if allowed is not None and (not isinstance(allowed, list) or not all(isinstance(v, str) for v in allowed)):
        raise SchemaInvalid(f"{where}: allowed_values must be a list of strings")
    required = slot.get("required", True)
    if not isinstance(required, bool):
        raise SchemaInvalid(f"{where}: required must be true or false")
    return SlotSpec(
        name=slot["name"],
        kind=slot["kind"],
        description=slot.get("description", ""),
        allowed_values=None if allowed is None else tuple(allowed),
        required=required,
    )


def _schema_from_obj(obj: dict) -> ApiSchema:
    if not isinstance(obj, dict):
        raise SchemaInvalid(f"catalog entry is not an object: {obj!r}")
    where = f"catalog entry {obj.get('api_name')!r}"
    try:
        if not all(isinstance(v, str) for v in (obj["api_name"], obj.get("description", ""))):
            raise SchemaInvalid(f"{where}: api_name and description must be strings")
        raw_slots = obj.get("slots", [])
        if not isinstance(raw_slots, list) or not all(isinstance(s, dict) for s in raw_slots):
            raise SchemaInvalid(f"{where}: slots must be a list of objects")
        return ApiSchema(
            api_name=obj["api_name"],
            description=obj.get("description", ""),
            slots=tuple(_slot_from_obj(s, where) for s in raw_slots),
        )
    except KeyError as exc:
        raise SchemaInvalid(f"catalog entry missing field {exc}") from exc


def load_schema_catalog(source) -> dict[str, ApiSchema]:
    """Load and validate a catalog file into a map of api_name -> ApiSchema."""
    text = _read_source(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"catalog is not valid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    if not isinstance(doc, list):
        raise ParseError("catalog must be a JSON array of API objects")
    catalog: dict[str, ApiSchema] = {}
    for obj in doc:
        schema = _schema_from_obj(obj)
        if schema.api_name in catalog:
            raise DuplicateApi(f"duplicate api_name '{schema.api_name}'")
        catalog[schema.api_name] = schema
    return catalog


def _schema_to_obj(schema: ApiSchema) -> dict:
    slots = []
    for s in schema.slots:
        slot_obj: dict = {"name": s.name, "kind": s.kind, "description": s.description}
        if s.allowed_values is not None:
            slot_obj["allowed_values"] = list(s.allowed_values)
        slot_obj["required"] = s.required
        slots.append(slot_obj)
    return {"api_name": schema.api_name, "description": schema.description, "slots": slots}


def dump_schema_catalog(catalog: dict[str, ApiSchema]) -> str:
    """Serialize a catalog back to its file format (round-trips exactly)."""
    return json.dumps([_schema_to_obj(s) for s in catalog.values()], indent=2, ensure_ascii=False)


def dialogue_to_obj(dialogue: Dialogue) -> dict:
    return {
        "id": dialogue.id,
        "domain": dialogue.domain,
        "target_api": dialogue.target_api,
        "turns": [{"speaker": t.speaker, "utterance": t.utterance} for t in dialogue.turns],
        "gold_arguments": dialogue.gold_arguments.as_dict(),
    }


def dialogue_from_obj(obj: dict) -> Dialogue:
    if not isinstance(obj, dict):
        raise DatasetInvalid(f"dialogue record must be a JSON object, got {type(obj).__name__}")
    try:
        raw_turns = obj["turns"]
        if not isinstance(raw_turns, list) or not all(isinstance(t, dict) for t in raw_turns):
            raise DatasetInvalid(f"dialogue {obj.get('id')!r}: turns must be a list of objects")
        try:
            turns = tuple(DialogueTurn(t["speaker"], t["utterance"]) for t in raw_turns)
        except DatasetInvalid as exc:
            raise DatasetInvalid(f"dialogue {obj.get('id')!r}: {exc}") from exc
        if not all(isinstance(obj[name], str) for name in ("id", "domain", "target_api")):
            raise DatasetInvalid(f"dialogue {obj.get('id')!r}: id, domain and target_api must be strings")
        return Dialogue(
            id=obj["id"],
            domain=obj["domain"],
            target_api=obj["target_api"],
            turns=turns,
            gold_arguments=ArgumentMap.from_dict(obj.get("gold_arguments", {})),
        )
    except KeyError as exc:
        raise DatasetInvalid(f"dialogue record missing field {exc}") from exc
    except InvalidArgumentMap as exc:
        raise DatasetInvalid(f"dialogue {obj.get('id')!r}: gold_arguments: {exc}") from exc


def load_dialogues(source, catalog: dict[str, ApiSchema] | None = None) -> list[Dialogue]:
    """Load a JSONL dialogue dataset; resolves target_api when a catalog is given."""
    text = _read_source(source)
    dialogues: list[Dialogue] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"dataset line {lineno} is not valid JSON: {exc.msg}", line=lineno)
        # Only an escape can put a surrogate into text that was read as UTF-8.
        if "\\u" in line and has_surrogate(json.dumps(obj, ensure_ascii=False)):
            raise DatasetInvalid(f"dataset line {lineno}: unpaired surrogate escape")
        try:
            dialogue = dialogue_from_obj(obj)
        except DatasetInvalid as exc:
            raise DatasetInvalid(f"dataset line {lineno}: {exc}") from exc
        if dialogue.id in seen_ids:
            raise DatasetInvalid(f"duplicate dialogue id '{dialogue.id}' (line {lineno})")
        seen_ids.add(dialogue.id)
        if catalog is not None and dialogue.target_api not in catalog:
            raise DatasetInvalid(
                f"dialogue '{dialogue.id}': target_api '{dialogue.target_api}' not in catalog"
            )
        dialogues.append(dialogue)
    return dialogues
