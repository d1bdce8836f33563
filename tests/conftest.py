import json

import pytest

from arground.schema import ApiSchema, ArgumentMap, Dialogue, DialogueTurn, SlotSpec


@pytest.fixture
def hair_schema():
    return ApiSchema(
        api_name="hair_appointment",
        description="Book a hair appointment with a stylist.",
        slots=(
            SlotSpec("name", "free-text", "customer name"),
            SlotSpec("time", "time", "appointment time"),
            SlotSpec("stylist", "categorical", "preferred stylist", ("jess", "jack")),
        ),
    )


@pytest.fixture
def hair_catalog(hair_schema):
    return {hair_schema.api_name: hair_schema}


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
        gold_arguments=ArgumentMap.from_dict({"name": "John", "time": "3pm"}),
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
        gold_arguments=ArgumentMap.from_dict(gold),
    )


def jsonl(rows) -> str:
    """One JSON object per line, the layout of the program's JSONL files."""
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
