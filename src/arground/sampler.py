"""Training-data export and rejection sampling.

Phase one: one gold example per dialogue (default prompt, gold arguments
serialized in schema order, reward 1.0). Phase two: sample K candidates
per prompt, score each distinct candidate map of a dialogue once with the
error classifier, keep only candidates with strictly positive reward,
de-duplicate within a dialogue, and emit gold plus kept samples as the
augmented dataset. Gold examples are never dropped or modified.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

from .errors import BackendError, MalformedArguments, NoArgumentObject
from .generation import GenerationBackend, generate_all
from .parsing import extract_argument_map, serialize_argument_map
from .prompting import build_default_prompt, default_request
from .schema import ApiSchema, Dialogue
from .scoring import classify_errors

logger = logging.getLogger(__name__)


class TrainingExample(NamedTuple):
    prompt: str
    completion: str
    source: str  # "gold" or "sampled"
    reward: float
    dialogue_id: str


class SamplerStats(NamedTuple):
    generated: int = 0
    parse_failed: int = 0
    rejected: int = 0
    deduplicated: int = 0
    kept: int = 0
    skipped_dialogues: int = 0
    mean_kept_reward: float = 0.0


class SamplerConfig(NamedTuple):
    k: int = 4
    temperature: float = 0.8
    max_tokens: int = 256
    in_flight: int = 4
    strict: bool = False


def gold_training_example(dialogue: Dialogue, schema: ApiSchema, prompt: str) -> TrainingExample:
    """The gold example for ``prompt``, the dialogue's default prompt: its
    completion is the gold map in schema order."""
    gold = dialogue.gold_arguments
    ordered = {s.name: gold[s.name] for s in schema.slots if s.name in gold}
    return TrainingExample(
        prompt=prompt,
        completion=serialize_argument_map(ordered, "given"),
        source="gold",
        reward=1.0,
        dialogue_id=dialogue.id,
    )


def export_sft_dataset(
    dialogues: list[Dialogue], catalog: dict[str, ApiSchema]
) -> list[TrainingExample]:
    """One gold example per dialogue, in input order; ``dialogues`` come from
    ``load_dialogues(…, catalog)``."""
    examples = []
    for dialogue in dialogues:
        schema = catalog[dialogue.target_api]
        examples.append(gold_training_example(dialogue, schema, build_default_prompt(schema, dialogue).text))
    return examples


def rejection_sample(
    backend: GenerationBackend,
    dialogues: list[Dialogue],
    catalog: dict[str, ApiSchema],
    config: SamplerConfig,
) -> tuple[list[TrainingExample], SamplerStats]:
    """Generate, score, filter, and assemble the augmented dataset.

    ``dialogues`` come from ``load_dialogues(…, catalog)``. Emission order
    follows input dialogue order regardless of the in-flight bound: per
    dialogue the gold example first, then kept samples in generation order.
    """
    golds, groups = [], []
    for dialogue in dialogues:
        schema = catalog[dialogue.target_api]
        request = default_request(schema, dialogue, config.k, config.temperature, config.max_tokens)
        golds.append(gold_training_example(dialogue, schema, request.prompt))
        groups.append([request])
    records = generate_all(backend, groups, config.in_flight)

    augmented: list[TrainingExample] = []
    generated = parse_failed = rejected = deduplicated = skipped_dialogues = 0
    for dialogue, gold, (record,) in zip(dialogues, golds, records):
        augmented.append(gold)
        if isinstance(record, BackendError):
            if config.strict:
                raise record
            logger.warning("skipping dialogue '%s': %s", dialogue.id, record)
            skipped_dialogues += 1
            continue
        schema = catalog[dialogue.target_api]
        rewards: dict[tuple[tuple[str, str], ...], float] = {}  # by the map's sorted items
        generated += len(record.outputs)
        for output in record.outputs:
            try:
                candidate = extract_argument_map(output).map
            except (NoArgumentObject, MalformedArguments):
                parse_failed += 1
                continue
            dedup_key = tuple(sorted(candidate.items()))
            repeat = dedup_key in rewards
            if not repeat:
                rewards[dedup_key] = classify_errors(candidate, dialogue.gold_arguments, schema).reward
            reward = rewards[dedup_key]
            if reward <= 0.0:
                rejected += 1
                continue
            if repeat:
                deduplicated += 1
                continue
            augmented.append(
                TrainingExample(
                    prompt=record.request.prompt,
                    completion=serialize_argument_map(candidate, "given"),
                    source="sampled",
                    reward=reward,
                    dialogue_id=dialogue.id,
                )
            )
    kept_rewards = [e.reward for e in augmented if e.source == "sampled"]
    kept = len(kept_rewards)
    # fsum is correctly rounded on every Python; sum() of floats is compensated from 3.12 on only
    return augmented, SamplerStats(generated, parse_failed, rejected, deduplicated, kept, skipped_dialogues,
                                   math.fsum(kept_rewards) / kept if kept else 0.0)
