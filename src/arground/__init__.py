"""Grounding, scoring and data curation for LLM-based API argument filling; each name loads its module on first use."""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it provides (PEP 562: resolved by __getattr__)
_EXPORTS = {
    "fuzzy": ("values_match",),
    "metrics": ("MetricsReport", "char_f1", "corpus_bleu", "evaluate_corpus", "fuzzy_match_rate"),
    "parsing": ("ParseOutcome", "extract_argument_map", "serialize_argument_map"),
    "prompting": ("build_default_prompt", "build_slot_prompt"),
    "schema": (
        "ApiSchema",
        "Dialogue",
        "DialogueTurn",
        "SlotSpec",
        "argument_map_from_obj",
        "canonicalize_key",
        "canonicalize_value",
        "load_dialogues",
        "load_schema_catalog",
        "value_conforms_to_slot",
    ),
    "scoring": ("ErrorBreakdown", "classify_errors", "reward_value"),
    "sampler": ("SamplerConfig", "TrainingExample", "export_sft_dataset", "rejection_sample"),
    "splits": ("split_in_domain", "split_out_of_domain"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
