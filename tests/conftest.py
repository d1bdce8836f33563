import io
import json

import pytest

from arground.schema import Dialogue, DialogueTurn, argument_map_from_obj, load_schema_catalog

# The catalog of the hair_catalog fixture, as written to a --schemas file.
HAIR_CATALOG_JSON = """[
  {
    "api_name": "hair_appointment",
    "description": "Book a hair appointment with a stylist.",
    "slots": [
      {"name": "name", "kind": "free-text", "description": "customer name"},
      {"name": "time", "kind": "time", "description": "appointment time"},
      {"name": "stylist", "kind": "categorical", "description": "preferred stylist",
       "allowed_values": ["jess", "jack"]}
    ]
  }
]
"""


@pytest.fixture
def hair_catalog():
    return load_schema_catalog(io.StringIO(HAIR_CATALOG_JSON))


@pytest.fixture
def hair_schema(hair_catalog):
    return hair_catalog["hair_appointment"]


@pytest.fixture
def hair_dialogue():
    return Dialogue(
        id="d1",
        domain="salon",
        target_api="hair_appointment",
        turns=(
            DialogueTurn("user", "I need a haircut tomorrow."),
            DialogueTurn("agent", "Sure, what time works for you?"),
            DialogueTurn("user", "3pm please, the name is John."),
            DialogueTurn("agent", "Got it."),
        ),
        gold_arguments=argument_map_from_obj({"name": "John", "time": "3pm"}),
    )


def make_dialogue(ident, domain, api, gold, n_turns=2):
    turns = []
    for i in range(n_turns):
        speaker = "user" if i % 2 == 0 else "agent"
        turns.append(DialogueTurn(speaker, f"turn {i} of {ident}"))
    return Dialogue(
        id=ident,
        domain=domain,
        target_api=api,
        turns=tuple(turns),
        gold_arguments=argument_map_from_obj(gold),
    )


def jsonl(rows) -> str:
    """One JSON object per line, the layout of the program's JSONL files."""
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
