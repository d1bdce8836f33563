"""Prompt construction and the multi-step, one-argument-at-a-time protocol.

The default prompt carries a fixed instruction, the API block (name,
description, one line per slot), the dialogue history, and the cue line
``Arguments:``. Slot prompts carry a hint block for exactly one slot and
end with ``Value (or NONE):``; the reply contract is a single line with
the sentinel NONE for unfillable slots.

The two templates are string constants in this module, not package data.
Each ``{{placeholder}}`` is filled in one pass, so text substituted into a
template (an utterance, a description) is never read as a placeholder. The
sha256 of each template is pinned into run metadata, so experiments stay
reproducible.
"""

from __future__ import annotations

import hashlib
import logging
import re
from typing import NamedTuple

from .errors import BackendError, EmptySlotResponse
from .generation import GenerationRecord, GenerationRequest
from .schema import ApiSchema, ArgumentMap, Dialogue, SlotSpec, canonicalize_value, has_surrogate

logger = logging.getLogger(__name__)

TEMPLATES_VERSION = "1"

DEFAULT_INSTRUCTION = (
    "Read the dialogue and fill the arguments for the given API call. "
    'Respond with a single flat dictionary mapping argument names to string '
    'values, like {"argument": "value"}, and nothing else.'
)

SLOT_INSTRUCTION = (
    "Read the dialogue and identify the value of one argument for the API call. "
    "Respond with the value only, on a single line. "
    "If the dialogue does not specify the value, respond NONE."
)

NONE_SENTINEL = "none"

TEMPLATES = {
    "default.txt": "{{instruction}}\n\n{{api_block}}\n\n{{history}}\n\nArguments:\n",
    "slot.txt": "{{instruction}}\n\n{{history}}\n\n{{slot_hint}}\n\nValue (or NONE):\n",
}

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")


class Prompt(NamedTuple):
    """A rendered prompt. Callers read ``.text``; ``bench/corpus.py`` does too,
    which is why the builders do not return the bare string yet."""

    text: str


def load_template(name: str) -> str:
    """The text of the template ``name`` ("default.txt" or "slot.txt")."""
    return TEMPLATES[name]


def render_template(template: str, fields: dict[str, str]) -> str:
    """Replace each ``{{name}}`` of the template with ``fields[name]``, in one pass."""
    return _PLACEHOLDER.sub(lambda m: fields[m.group(1)], template)


def template_hashes() -> dict[str, str]:
    """sha256 of each shipped template, recorded in run metadata."""
    return {
        "version": TEMPLATES_VERSION,
        "default": hashlib.sha256(load_template("default.txt").encode("utf-8")).hexdigest(),
        "slot": hashlib.sha256(load_template("slot.txt").encode("utf-8")).hexdigest(),
    }


def _slot_line(slot: SlotSpec) -> str:
    line = f"- {slot.name} ({slot.kind}): {slot.description}"
    if slot.allowed_values:
        line += " [allowed: " + " | ".join(slot.allowed_values) + "]"
    return line


def api_block(schema: ApiSchema) -> str:
    lines = [f"API: {schema.api_name}", f"Description: {schema.description}", "Slots:"]
    lines.extend(_slot_line(s) for s in schema.slots)
    return "\n".join(lines)


def history_block(dialogue: Dialogue) -> str:
    prefixes = {"user": "User", "agent": "Agent"}
    return "\n".join(f"{prefixes[t.speaker]}: {t.utterance}" for t in dialogue.turns)


def slot_hint_block(slot: SlotSpec) -> str:
    lines = [f"Argument: {slot.name}", f"Type: {slot.kind}", f"Description: {slot.description}"]
    if slot.allowed_values:
        lines.append("Allowed: " + " | ".join(slot.allowed_values))
    return "\n".join(lines)


def build_default_prompt(schema: ApiSchema, dialogue: Dialogue) -> Prompt:
    """The default prompt; ``schema`` is ``catalog[dialogue.target_api]``."""
    return Prompt(render_template(
        load_template("default.txt"),
        {
            "instruction": DEFAULT_INSTRUCTION,
            "api_block": api_block(schema),
            "history": history_block(dialogue),
        },
    ))


def build_slot_prompt(schema: ApiSchema, dialogue: Dialogue, slot: SlotSpec) -> Prompt:
    """The prompt for one slot of ``schema``, which is ``catalog[dialogue.target_api]``."""
    return Prompt(render_template(
        load_template("slot.txt"),
        {
            "instruction": SLOT_INSTRUCTION,
            "history": history_block(dialogue),
            "slot_hint": slot_hint_block(slot),
        },
    ))


def parse_slot_response(raw: str) -> str | None:
    """First non-empty line, canonicalized; NONE maps to absent.

    Only ``"\\n"`` ends a line, as in the slot request's stop sequence; any
    other line break (``\\r``, U+0085, U+2028) is whitespace within a line.
    Outer quotes are stripped only when the whole line is quoted; a quote
    embedded mid-line is kept verbatim. A line holding a surrogate, which
    no artifact can encode, is unusable like an empty one.
    """
    for line in raw.split("\n"):
        line = line.strip()
        if not line:
            continue
        if len(line) >= 2 and line[0] == line[-1] and line[0] in "\"'":
            line = line[1:-1]
        value = canonicalize_value(line)
        if not value:
            raise EmptySlotResponse("slot response line is empty after normalization")
        if has_surrogate(value):
            raise EmptySlotResponse("slot response line holds a surrogate")
        if value == NONE_SENTINEL:
            return None
        return value
    raise EmptySlotResponse("slot response contains no non-empty line")


def default_request(
    schema: ApiSchema, dialogue: Dialogue, n: int, temperature: float, max_tokens: int
) -> GenerationRequest:
    """One request for ``n`` outputs of the default prompt, tagged with the dialogue id."""
    return GenerationRequest(
        prompt=build_default_prompt(schema, dialogue).text,
        temperature=temperature,
        max_tokens=max_tokens,
        n_samples=n,
        tag=dialogue.id,
    )


def slot_requests(
    schema: ApiSchema, dialogue: Dialogue, temperature: float, max_tokens: int
) -> list[GenerationRequest]:
    """One single-line request per slot, in schema order, tagged ``<id>:<slot>``."""
    return [
        GenerationRequest(
            prompt=build_slot_prompt(schema, dialogue, slot).text,
            temperature=temperature,
            max_tokens=max_tokens,
            n_samples=1,
            stop_sequences=("\n",),
            tag=f"{dialogue.id}:{slot.name}",
        )
        for slot in schema.slots
    ]


def multistep_map(
    schema: ApiSchema, dialogue: Dialogue, records: list[GenerationRecord | BackendError]
) -> ArgumentMap:
    """Assemble the replies to ``slot_requests`` into an argument map.

    Keys come from the schema by construction, so multi-step predictions can
    never contain a non-existent key. An empty reply, or one holding a
    surrogate, is treated as absent; the first failed request raises,
    naming its slot.
    """
    arguments: ArgumentMap = {}
    for slot, record in zip(schema.slots, records):
        if isinstance(record, BackendError):
            failure = f"backend failed on slot '{slot.name}' of dialogue '{dialogue.id}': {record}"
            raise BackendError(failure) from record
        try:
            value = parse_slot_response(record.outputs[0])
        except EmptySlotResponse as exc:
            logger.warning(
                "unusable slot response for '%s' of dialogue '%s' (%s); treated as absent",
                slot.name,
                dialogue.id,
                exc,
            )
            continue
        if value is not None:
            arguments[slot.name] = value
    return arguments
