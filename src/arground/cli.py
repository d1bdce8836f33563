"""Command-line entry point.

Subcommands: export-sft, reject-sample, fill, evaluate, split, report.
Each command returns its artifacts as an ordered ``{path: text}`` dict and
writes nothing itself; ``_write_run`` writes each artifact atomically (temp
file + rename), then ``<first artifact>.meta.json``. That run record is
derived from the parsed arguments by one rule: ``command`` is the
subcommand (with its kind for ``split``); ``config_hash`` covers every
option except the command's input files, which its subparser names once
in ``inputs``; ``input_hashes`` hashes the input files given; and
``template_hash`` is recorded for the commands that build prompts
(export-sft, reject-sample, fill). Identical inputs and options therefore
produce byte-identical outputs. Exit codes, each carried by its error
class: 0 success; 1 a bad option, refused by its argparse ``type=`` before
any input is read or any file is made; 2 data error; 3 backend error. An
input file that is not UTF-8 or not JSON, or that holds a ``\\u`` escape
decoding to an unpaired surrogate, is a data error, refused as it is read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
import tempfile
from pathlib import Path
from typing import Iterable

from . import __version__
from .errors import (
    AlignmentError,
    ArgroundError,
    BackendError,
    InvalidArgumentMap,
    MalformedArguments,
    NoArgumentObject,
    UsageError,
)
from .generation import DEFAULT_IN_FLIGHT, MAX_IN_FLIGHT, backend_from_spec, generate_all, split_backend_spec
from .metrics import emit_error_panel, evaluate_corpus, metrics_report_csv
from .parsing import extract_argument_map
from .prompting import default_request, multistep_map, slot_requests, template_hashes
from .sampler import SamplerConfig, export_sft_dataset, rejection_sample
from .schema import argument_map_from_obj, dialogue_to_obj, has_surrogate, load_dialogues, load_schema_catalog
from .schema import read_json, read_jsonl
from .scoring import classify_errors
from .splits import build_split_manifest, split_in_domain, split_out_of_domain

logger = logging.getLogger(__name__)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_BACKEND = 0, UsageError.exit_code, ArgroundError.exit_code, BackendError.exit_code
_EXIT_LABELS = {EXIT_USAGE: "usage error", EXIT_DATA: "data error", EXIT_BACKEND: "backend error"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


# --- artifact helpers --------------------------------------------------------

def _atomic_write(path, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_PROMPT_COMMANDS = ("export-sft", "reject-sample", "fill")


def _write_run(args, artifacts: dict[str, str]) -> None:
    """Write each artifact atomically, then the run record next to the first."""
    for path, text in artifacts.items():
        _atomic_write(path, text)
    excluded = {"command", "split_kind", "func", "inputs", *args.inputs}
    config = {name: value for name, value in vars(args).items() if name not in excluded}
    meta = {
        "command": " ".join(filter(None, (args.command, getattr(args, "split_kind", None)))),
        "config_hash": _sha256_text(json.dumps(config, sort_keys=True)),
        "template_hash": template_hashes() if args.command in _PROMPT_COMMANDS else None,
        "input_hashes": {name: _sha256_file(getattr(args, name)) for name in args.inputs if getattr(args, name)},
        "versions": {"arground": __version__, "python": platform.python_version()},
    }
    _atomic_write(f"{next(iter(artifacts))}.meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _jsonl_rows(path) -> list[dict]:
    return [row for _, row in read_jsonl(path, f"{path}:")]


# The encoder json.dumps(..., ensure_ascii=False) would build for every row.
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _dump_jsonl(rows: Iterable[dict]) -> str:
    lines = [_JSONL_ENCODER.encode(r) for r in rows]
    return "\n".join(lines) + ("\n" if lines else "")


# --- subcommands: each returns its artifacts as {path: text} ---------------

def _cmd_export_sft(args) -> dict[str, str]:
    catalog = load_schema_catalog(args.schemas)
    dialogues = load_dialogues(args.dialogues, catalog)
    return {args.out: _dump_jsonl(e._asdict() for e in export_sft_dataset(dialogues, catalog))}


def _cmd_reject_sample(args) -> dict[str, str]:
    catalog = load_schema_catalog(args.schemas)
    dialogues = load_dialogues(args.dialogues, catalog)
    backend = backend_from_spec(args.backend)
    config = SamplerConfig(
        k=args.k,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
        in_flight=args.in_flight,
        strict=args.strict,
    )
    augmented, stats = rejection_sample(backend, dialogues, catalog, config)
    return {
        args.out: _dump_jsonl(e._asdict() for e in augmented),
        f"{args.out}.stats.json": json.dumps(stats._asdict(), indent=2) + "\n",
    }


def _cmd_fill(args) -> dict[str, str]:
    catalog = load_schema_catalog(args.schemas)
    dialogues = load_dialogues(args.dialogues, catalog)
    backend = backend_from_spec(args.backend)
    schemas = [catalog[d.target_api] for d in dialogues]
    if args.mode == "multistep":
        groups = [slot_requests(s, d, args.temperature, args.max_tokens) for s, d in zip(schemas, dialogues)]
    else:
        groups = [[default_request(s, d, 1, args.temperature, args.max_tokens)] for s, d in zip(schemas, dialogues)]

    rows = []
    for dialogue, schema, records in zip(dialogues, schemas, generate_all(backend, groups, args.in_flight)):
        warnings: list[str] = []
        if args.mode == "multistep":
            arguments = multistep_map(schema, dialogue, records)
        elif isinstance(records[0], BackendError):
            raise records[0]
        else:
            try:
                outcome = extract_argument_map(records[0].outputs[0])
                arguments, warnings = outcome.map, list(outcome.warnings)
            except (NoArgumentObject, MalformedArguments) as exc:
                arguments, warnings = {}, [f"unparseable output: {type(exc).__name__}"]
        rows.append({
            "id": dialogue.id,
            "target_api": dialogue.target_api,
            "mode": args.mode,
            "model": backend.backend_id,
            "arguments": arguments,
            "warnings": warnings,
        })
    return {args.out: _dump_jsonl(rows)}


def _cmd_evaluate(args) -> dict[str, str]:
    catalog = load_schema_catalog(args.schemas)
    gold_dialogues = load_dialogues(args.gold, catalog)
    pred_rows = _jsonl_rows(args.pred)

    by_id: dict[str, dict] = {}
    for row in pred_rows:
        if "id" not in row or "arguments" not in row:
            raise AlignmentError("prediction rows need 'id' and 'arguments' fields")
        if not isinstance(row["id"], str) or not isinstance(row.get("model", ""), str):
            raise AlignmentError(f"prediction {row['id']!r}: 'id' and 'model' must be strings")
        if row["id"] in by_id:
            raise AlignmentError(f"duplicate prediction id '{row['id']}'")
        by_id[row["id"]] = row

    pairs = []
    breakdowns = []
    scored_rows = []
    for dialogue in gold_dialogues:
        row = by_id.pop(dialogue.id, None)
        if row is None:
            raise AlignmentError(f"no prediction for dialogue '{dialogue.id}'")
        try:
            pred_map = argument_map_from_obj(row["arguments"])
        except InvalidArgumentMap as exc:
            raise InvalidArgumentMap(f"prediction '{dialogue.id}': arguments: {exc}") from exc
        breakdown = classify_errors(pred_map, dialogue.gold_arguments, catalog[dialogue.target_api])
        pairs.append((pred_map, dialogue.gold_arguments))
        breakdowns.append(breakdown)
        scored = dict(row)
        scored["breakdown"] = breakdown.to_obj()
        scored["dataset"] = args.dataset
        scored["split"] = args.split
        scored_rows.append(scored)
    if by_id:
        raise AlignmentError(f"predictions for unknown dialogue ids: {sorted(by_id)[:5]}")

    report = evaluate_corpus(pairs, breakdowns)
    backend_label = args.backend_label
    if not backend_label:
        models = {row.get("model", "") for row in pred_rows}
        backend_label = models.pop() if len(models) == 1 else ""
    artifacts = {args.out: metrics_report_csv(report, args.dataset, args.split, backend_label)}
    if args.scored_out:
        artifacts[args.scored_out] = _dump_jsonl(scored_rows)
    return artifacts


def _cmd_report(args) -> dict[str, str]:
    return {args.out: emit_error_panel(read_jsonl(args.breakdowns, "breakdowns"), args.group_by)}


def _load_synonyms(path) -> dict[str, str]:
    synonyms = read_json(path, path)
    if not isinstance(synonyms, dict) or not all(isinstance(v, str) for v in synonyms.values()):
        raise ArgroundError(f"{path}: synonyms must be a JSON object mapping domain to domain")
    return synonyms


def _cmd_split(args) -> dict[str, str]:
    catalog = load_schema_catalog(args.schemas) if args.schemas else None
    dialogues = load_dialogues(args.dialogues, catalog)
    if args.split_kind == "in-domain":
        train, test = split_in_domain(dialogues, args.fraction, args.seed)
        manifest = build_split_manifest(
            "in-domain", train, test, seed=args.seed, test_fraction=args.fraction
        )
    else:
        holdout = [h for h in (s.strip() for s in args.holdout.split(",")) if h]
        synonyms = _load_synonyms(args.synonyms) if args.synonyms else None
        train, test = split_out_of_domain(dialogues, holdout, synonyms)
        manifest = build_split_manifest(
            "out-of-domain", train, test, holdout_domains=holdout, synonym_map=synonyms
        )
    manifest_path = args.manifest or str(Path(args.out_train).parent / "split_manifest.json")
    return {
        args.out_train: _dump_jsonl(map(dialogue_to_obj, train)),
        args.out_test: _dump_jsonl(map(dialogue_to_obj, test)),
        manifest_path: json.dumps(manifest, indent=2, ensure_ascii=False) + "\n",
    }


# --- parser ------------------------------------------------------------------

def _option_type(convert, accept, rule: str):
    """An argparse ``type=``: ``convert(text)`` if ``accept`` holds for it, else an error stating ``rule``."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:  # not a number, or split_backend_spec refused it
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return parse


def _backend_ok(spec: str) -> bool:
    kind, model = split_backend_spec(spec)
    return kind != "http" or not has_surrogate(model)


_POSITIVE = _option_type(int, lambda n: n >= 1, "must be an integer >= 1")
_TEXT = _option_type(str, lambda text: not has_surrogate(text), "must encode as UTF-8")
_FRACTION = _option_type(float, lambda f: 0 < f < 1, "must be a number in (0, 1)")


_COMMANDS = ("export-sft", "reject-sample", "fill", "evaluate", "split", "report")


def build_parser(argv=()) -> _Parser:
    """The parser of every subcommand; when ``argv`` starts with one's name,
    that subcommand's alone, which parses that ``argv`` alike and is quicker
    to build."""
    parser = _Parser(prog="arground",
                     description="Grounding, scoring and data curation for LLM-based API argument filling.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS

    def add_backend_flags(p, temperature_default):
        p.add_argument("--backend", required=True, help="http:<model> | mock:<script> | replay:<log> | record:<log>",
                       type=_option_type(str, _backend_ok, "must be kind:argument, the kind http, mock, replay or "
                                                           "record, and an http: model must encode as UTF-8"))
        p.add_argument("--temperature", default=temperature_default, type=_option_type(
            float, lambda t: 0 <= t < float("inf"), "temperature must be a finite number >= 0"))
        p.add_argument("--max-tokens", type=_POSITIVE, default=256)
        p.add_argument("--in-flight", default=DEFAULT_IN_FLIGHT, type=_option_type(
                           int, lambda n: 1 <= n <= MAX_IN_FLIGHT, f"must be an integer in [1, {MAX_IN_FLIGHT}]"),
                       help=f"at most N backend requests outstanding, 1 <= N <= {MAX_IN_FLIGHT}; "
                            "mock and replay: backends are answered one at a time")

    if "export-sft" in commands:
        p = sub.add_parser("export-sft", help="emit gold prompt/completion training data")
        p.add_argument("--dialogues", required=True)
        p.add_argument("--schemas", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_export_sft, inputs=("dialogues", "schemas"))

    if "reject-sample" in commands:
        p = sub.add_parser("reject-sample", help="sample K candidates, keep positive-reward ones")
        p.add_argument("--dialogues", required=True)
        p.add_argument("--schemas", required=True)
        add_backend_flags(p, temperature_default=0.8)
        p.add_argument("--k", type=_POSITIVE, default=4)
        p.add_argument("--strict", action="store_true", help="backend failures abort the run")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_reject_sample, inputs=("dialogues", "schemas"))

    if "fill" in commands:
        p = sub.add_parser("fill", help="predict argument maps for dialogues")
        p.add_argument("--mode", choices=("default", "multistep"), default="default")
        p.add_argument("--dialogues", required=True)
        p.add_argument("--schemas", required=True)
        add_backend_flags(p, temperature_default=0.0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_fill, inputs=("dialogues", "schemas"))

    if "evaluate" in commands:
        p = sub.add_parser("evaluate", help="score predictions and emit the metrics CSV")
        p.add_argument("--pred", required=True)
        p.add_argument("--gold", required=True)
        p.add_argument("--schemas", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--dataset", type=_TEXT, default="")
        p.add_argument("--split", type=_TEXT, default="")
        p.add_argument("--backend-label", type=_TEXT, default="")
        p.add_argument("--scored-out", default="", help="also write predictions with embedded breakdowns")
        p.set_defaults(func=_cmd_evaluate, inputs=("pred", "gold", "schemas"))

    if "split" in commands:
        p = sub.add_parser("split", help="construct train/test splits")
        split_sub = p.add_subparsers(dest="split_kind", required=True)
        for kind in ("in-domain", "out-of-domain"):
            sp = split_sub.add_parser(kind)
            sp.add_argument("--dialogues", required=True)
            sp.add_argument("--schemas", default="")
            sp.add_argument("--out-train", required=True)
            sp.add_argument("--out-test", required=True)
            sp.add_argument("--manifest", default="")
            if kind == "in-domain":
                sp.add_argument("--fraction", type=_FRACTION, required=True)
                sp.add_argument("--seed", type=int, required=True)
                sp.set_defaults(func=_cmd_split, inputs=("dialogues", "schemas"))
            else:
                sp.add_argument("--holdout", required=True, help="comma-separated domains", type=_option_type(
                    str, lambda h: h.replace(",", " ").strip() and not has_surrogate(h),
                    "must name a domain, in UTF-8"))
                sp.add_argument("--synonyms", default="", help="JSON file mapping domain -> synonym")
                sp.set_defaults(func=_cmd_split, inputs=("dialogues", "schemas", "synonyms"))

    if "report" in commands:
        p = sub.add_parser("report", help="emit the per-group error-rate panel CSV")
        p.add_argument("--breakdowns", required=True, help="scored predictions JSONL")
        p.add_argument("--group-by", choices=("model", "split"), required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_report, inputs=("breakdowns",))

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        _write_run(args, args.func(args))
        return EXIT_OK
    except (ArgroundError, OSError, UnicodeDecodeError) as exc:  # an unreadable input file is a data error
        code = getattr(exc, "exit_code", EXIT_DATA)
        print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
