"""Command-line entry point and report emission.

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
produce byte-identical outputs. Exit codes: 0 success, 1 usage error,
2 data error, 3 backend error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import platform
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from . import __version__
from .errors import (
    AlignmentError,
    ArgroundError,
    AuthError,
    BackendError,
    EmptyCorpus,
    LogCorrupt,
    MalformedArguments,
    NoArgumentObject,
)
from .generation import DEFAULT_IN_FLIGHT, backend_from_spec, generate_all
from .metrics import error_rates, evaluate_corpus, metrics_report_csv
from .parsing import extract_argument_map
from .prompting import default_request, multistep_map, slot_requests, template_hashes
from .sampler import SamplerConfig, export_sft_dataset, rejection_sample
from .schema import ArgumentMap, dialogue_to_obj, load_dialogues, load_schema_catalog
from .scoring import ErrorBreakdown, classify_errors
from .splits import build_split_manifest, split_in_domain, split_out_of_domain

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class UsageError(Exception):
    pass


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
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ArgroundError(f"{path}: line {lineno} is not valid JSON: {exc.msg}")
        if not isinstance(row, dict):
            raise ArgroundError(f"{path}: line {lineno} is not a JSON object")
        rows.append(row)
    return rows


def _dump_jsonl(rows: Iterable[dict]) -> str:
    lines = [json.dumps(r, ensure_ascii=False) for r in rows]
    return "\n".join(lines) + ("\n" if lines else "")


# --- subcommands: each returns its artifacts as {path: text} ---------------

def _cmd_export_sft(args) -> dict[str, str]:
    catalog = load_schema_catalog(args.schemas)
    dialogues = load_dialogues(args.dialogues, catalog)
    return {args.out: _dump_jsonl(map(asdict, export_sft_dataset(dialogues, catalog)))}


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
        args.out: _dump_jsonl(map(asdict, augmented)),
        f"{args.out}.stats.json": json.dumps(asdict(stats), indent=2) + "\n",
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
                arguments, warnings = ArgumentMap(), [f"unparseable output: {type(exc).__name__}"]
        rows.append({
            "id": dialogue.id,
            "target_api": dialogue.target_api,
            "mode": args.mode,
            "model": backend.backend_id,
            "arguments": arguments.as_dict(),
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
        if not isinstance(row["arguments"], dict):
            raise AlignmentError(f"prediction '{dialogue.id}': 'arguments' must be a JSON object")
        pred_map = ArgumentMap.from_dict(row["arguments"])
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


def emit_error_panel(rows: list[dict], group_by: str) -> str:
    """CSV with one row per group: group,nk_rate,mk_rate,sv_rate,hv_rate,n_samples."""
    if not rows:
        raise EmptyCorpus("no breakdowns to report")
    if group_by not in ("model", "split"):
        raise ValueError(f"group_by must be 'model' or 'split', got {group_by!r}")
    groups: dict[str, list[ErrorBreakdown]] = {}
    for row in rows:
        if "breakdown" not in row:
            raise ArgroundError("rows must carry a 'breakdown' field (run evaluate --scored-out)")
        label = str(row.get(group_by, "unknown"))
        groups.setdefault(label, []).append(ErrorBreakdown.from_obj(row["breakdown"]))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "nk_rate", "mk_rate", "sv_rate", "hv_rate", "n_samples"])
    for label, breakdowns in groups.items():
        writer.writerow([label, *error_rates(breakdowns), len(breakdowns)])
    return buf.getvalue()


def _cmd_report(args) -> dict[str, str]:
    return {args.out: emit_error_panel(_jsonl_rows(args.breakdowns), args.group_by)}


def _load_synonyms(path) -> dict[str, str]:
    try:
        synonyms = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArgroundError(f"{path}: not valid JSON: {exc.msg}")
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

def build_parser() -> _Parser:
    parser = _Parser(prog="arground", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flags(p, temperature_default):
        p.add_argument("--backend", required=True, help="http:<profile> | mock:<script> | replay:<log> | record:<log>")
        p.add_argument("--temperature", type=float, default=temperature_default)
        p.add_argument("--max-tokens", type=int, default=256)
        p.add_argument("--in-flight", type=int, default=DEFAULT_IN_FLIGHT,
                       help="at most N backend requests outstanding; mock backends are sent one at a time")

    p = sub.add_parser("export-sft", help="emit gold prompt/completion training data")
    p.add_argument("--dialogues", required=True)
    p.add_argument("--schemas", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_sft, inputs=("dialogues", "schemas"))

    p = sub.add_parser("reject-sample", help="sample K candidates, keep positive-reward ones")
    p.add_argument("--dialogues", required=True)
    p.add_argument("--schemas", required=True)
    add_backend_flags(p, temperature_default=0.8)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--strict", action="store_true", help="backend failures abort the run")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reject_sample, inputs=("dialogues", "schemas"))

    p = sub.add_parser("fill", help="predict argument maps for dialogues")
    p.add_argument("--mode", choices=("default", "multistep"), default="default")
    p.add_argument("--dialogues", required=True)
    p.add_argument("--schemas", required=True)
    add_backend_flags(p, temperature_default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fill, inputs=("dialogues", "schemas"))

    p = sub.add_parser("evaluate", help="score predictions and emit the metrics CSV")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--schemas", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", default="")
    p.add_argument("--split", default="")
    p.add_argument("--backend-label", default="")
    p.add_argument("--scored-out", default="", help="also write predictions with embedded breakdowns")
    p.set_defaults(func=_cmd_evaluate, inputs=("pred", "gold", "schemas"))

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
            sp.add_argument("--fraction", type=float, required=True)
            sp.add_argument("--seed", type=int, required=True)
            sp.set_defaults(func=_cmd_split, inputs=("dialogues", "schemas"))
        else:
            sp.add_argument("--holdout", required=True, help="comma-separated domains")
            sp.add_argument("--synonyms", default="", help="JSON file mapping domain -> synonym")
            sp.set_defaults(func=_cmd_split, inputs=("dialogues", "schemas", "synonyms"))

    p = sub.add_parser("report", help="emit the per-group error-rate panel CSV")
    p.add_argument("--breakdowns", required=True, help="scored predictions JSONL")
    p.add_argument("--group-by", choices=("model", "split"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report, inputs=("breakdowns",))

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write_run(args, args.func(args))
        return EXIT_OK
    except (BackendError, AuthError, LogCorrupt) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArgroundError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
