"""Grounding, scoring, and data curation for LLM-based API argument filling."""

__version__ = "0.1.0"

from .fuzzy import values_match
from .metrics import MetricsReport, char_f1, corpus_bleu, evaluate_corpus, fuzzy_match_rate
from .parsing import ParseOutcome, extract_argument_map, serialize_argument_map
from .prompting import build_default_prompt, build_slot_prompt
from .schema import (
    ApiSchema,
    ArgumentMap,
    Dialogue,
    DialogueTurn,
    SlotSpec,
    canonicalize_key,
    canonicalize_value,
    load_dialogues,
    load_schema_catalog,
    value_conforms_to_slot,
)
from .scoring import ErrorBreakdown, classify_errors, reward_value
from .sampler import SamplerConfig, TrainingExample, export_sft_dataset, rejection_sample
from .splits import split_in_domain, split_out_of_domain

__all__ = [
    "ApiSchema",
    "ArgumentMap",
    "Dialogue",
    "DialogueTurn",
    "ErrorBreakdown",
    "MetricsReport",
    "ParseOutcome",
    "SamplerConfig",
    "SlotSpec",
    "TrainingExample",
    "build_default_prompt",
    "build_slot_prompt",
    "canonicalize_key",
    "canonicalize_value",
    "char_f1",
    "classify_errors",
    "corpus_bleu",
    "evaluate_corpus",
    "export_sft_dataset",
    "extract_argument_map",
    "fuzzy_match_rate",
    "load_dialogues",
    "load_schema_catalog",
    "rejection_sample",
    "reward_value",
    "serialize_argument_map",
    "split_in_domain",
    "split_out_of_domain",
    "value_conforms_to_slot",
    "values_match",
]
