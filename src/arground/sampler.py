"""Training-data export and rejection sampling.

Phase one: one gold example per dialogue (default prompt, gold arguments
serialized in schema order, reward 1.0). Phase two: sample K candidates
per prompt, score each with the error classifier, keep only candidates
with strictly positive reward, de-duplicate within a dialogue, and emit
gold plus kept samples as the augmented dataset. Gold examples are never
dropped or modified.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import BackendError, DatasetInvalid, GoldSchemaMismatch, MalformedArguments, NoArgumentObject
from .generation import GenerationBackend, generate_all
from .parsing import extract_argument_map, serialize_argument_map
from .prompting import build_default_prompt, default_request
from .schema import ApiSchema, ArgumentMap, Dialogue
from .scoring import classify_errors

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingExample:
    prompt: str
    completion: str
    source: str  # "gold" or "sampled"
    reward: float
    dialogue_id: str


@dataclass
class SamplerStats:
    generated: int = 0
    parse_failed: int = 0
    rejected: int = 0
    deduplicated: int = 0
    kept: int = 0
    skipped_dialogues: int = 0
    mean_kept_reward: float = 0.0


@dataclass(frozen=True)
class SamplerConfig:
    k: int = 4
    temperature: float = 0.8
    max_tokens: int = 256
    in_flight: int = 4
    strict: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def _schema_for(dialogue: Dialogue, catalog: dict[str, ApiSchema]) -> ApiSchema:
    schema = catalog.get(dialogue.target_api)
    if schema is None:
        raise DatasetInvalid(
            f"dialogue '{dialogue.id}': target_api '{dialogue.target_api}' not in catalog"
        )
    return schema


def _gold_in_schema_order(dialogue: Dialogue, schema: ApiSchema) -> ArgumentMap:
    gold = dialogue.gold_arguments
    for key, _ in gold:
        if schema.slot(key) is None:
            raise GoldSchemaMismatch(
                f"dialogue '{dialogue.id}': gold key '{key}' not in schema '{schema.api_name}'"
            )
    ordered = tuple((s.name, gold.get(s.name)) for s in schema.slots if s.name in gold)
    return ArgumentMap(ordered)


def gold_training_example(dialogue: Dialogue, schema: ApiSchema, prompt: str) -> TrainingExample:
    """The gold example for ``prompt``, the dialogue's default prompt."""
    ordered = _gold_in_schema_order(dialogue, schema)
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
    """One gold example per dialogue, in input order."""
    examples = []
    for dialogue in dialogues:
        schema = _schema_for(dialogue, catalog)
        examples.append(gold_training_example(dialogue, schema, build_default_prompt(schema, dialogue).text))
    return examples


def rejection_sample(
    backend: GenerationBackend,
    dialogues: list[Dialogue],
    catalog: dict[str, ApiSchema],
    config: SamplerConfig,
) -> tuple[list[TrainingExample], SamplerStats]:
    """Generate, score, filter, and assemble the augmented dataset.

    Emission order follows input dialogue order regardless of the in-flight
    bound: per dialogue the gold example first, then kept samples in
    generation order.
    """
    stats = SamplerStats()
    # Validate every dialogue before any request is sent; a dataset bug is fatal.
    golds, groups = [], []
    for dialogue in dialogues:
        schema = _schema_for(dialogue, catalog)
        request = default_request(schema, dialogue, config.k, config.temperature, config.max_tokens)
        golds.append(gold_training_example(dialogue, schema, request.prompt))
        groups.append([request])
    records = generate_all(backend, groups, config.in_flight)

    augmented: list[TrainingExample] = []
    reward_sum = 0.0
    for dialogue, gold, (record,) in zip(dialogues, golds, records):
        augmented.append(gold)
        if isinstance(record, BackendError):
            if config.strict:
                raise record
            logger.warning("skipping dialogue '%s': %s", dialogue.id, record)
            stats.skipped_dialogues += 1
            continue
        schema = catalog[dialogue.target_api]
        kept: list[TrainingExample] = []
        seen: set[str] = set()
        for output in record.outputs:
            stats.generated += 1
            try:
                candidate = extract_argument_map(output).map
            except (NoArgumentObject, MalformedArguments):
                stats.parse_failed += 1
                continue
            breakdown = classify_errors(candidate, dialogue.gold_arguments, schema)
            if breakdown.reward <= 0.0:
                stats.rejected += 1
                continue
            dedup_key = serialize_argument_map(candidate, "sorted")
            if dedup_key in seen:
                stats.deduplicated += 1
                continue
            seen.add(dedup_key)
            kept.append(
                TrainingExample(
                    prompt=record.request.prompt,
                    completion=serialize_argument_map(candidate, "given"),
                    source="sampled",
                    reward=breakdown.reward,
                    dialogue_id=dialogue.id,
                )
            )
        stats.kept += len(kept)
        reward_sum += sum(e.reward for e in kept)
        augmented.extend(kept)
    stats.mean_kept_reward = reward_sum / stats.kept if stats.kept else 0.0
    return augmented, stats
