"""Output checks for each workload, computed apart from the program.

Expected values come from the generator's labels, from ``tests/oracle.py``
(BLEU) or from properties the method must have: byte-identical reruns, gold
examples never dropped, kept rewards > 0, multistep keys within the schema.
No check compares against a stored copy of the program's output. Each check
returns a list of problems; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

from corpus import serialize


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def char_f1(pairs: list[tuple[dict, dict]]) -> float:
    """Micro-averaged character-multiset F1 over values aligned by key."""
    overlap = pred_chars = gold_chars = 0
    for pred, gold in pairs:
        for key, value in pred.items():
            pred_chars += len(value)
            if key in gold:
                have = Counter(gold[key])
                for ch, n in Counter(value).items():
                    overlap += min(n, have.get(ch, 0))
        gold_chars += sum(len(v) for v in gold.values())
    precision = overlap / pred_chars if pred_chars else 0.0
    recall = overlap / gold_chars if gold_chars else 0.0
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def rerun_identical(rounds: list[dict]) -> list[str]:
    first = rounds[0]["hashes"]
    problems = []
    if not first:
        problems.append("no artifacts were written")
    for i, record in enumerate(rounds[1:], 2):
        if record["hashes"] != first:
            changed = sorted(k for k in set(first) | set(record["hashes"]) if first.get(k) != record["hashes"].get(k))
            problems.append(f"round {i} artifacts differ from round 1: {changed}")
    return problems


def _rows_match_labels(rows: list[dict], labels: list[dict]) -> list[str]:
    problems = []
    if [r.get("id") for r in rows] != [d["id"] for d in labels]:
        return ["rows are not one per dialogue in input order"]
    for row, lab in zip(rows, labels):
        if row["arguments"] != lab["map"]:
            problems.append(f"{lab['id']}: arguments {row['arguments']} != labelled {lab['map']}")
    return problems


def check_eval_longtext(work: Path, labels: dict, oracle) -> list[str]:
    dialogues = labels["dialogues"]
    problems = _rows_match_labels(_jsonl(work / "fill.jsonl"), dialogues)

    scored = _jsonl(work / "scored.jsonl")
    for row, lab in zip(scored, dialogues):
        got = {k: row["breakdown"][k] for k in ("n_nk", "n_mk", "n_sv", "n_hv")}
        if got != lab["counts"] or row["breakdown"]["n_total"] != lab["n_total"]:
            problems.append(f"{lab['id']}: breakdown {got} != labelled {lab['counts']}")
        if not _close(row["breakdown"]["reward"], lab["reward"]):
            problems.append(f"{lab['id']}: reward {row['breakdown']['reward']} != labelled {lab['reward']}")
    if len(scored) != len(dialogues):
        problems.append(f"{len(scored)} scored rows for {len(dialogues)} dialogues")

    n_gold = sum(len(d["gold"]) for d in dialogues)
    n_total = sum(d["n_total"] for d in dialogues)
    expected = {
        "fm": 100.0 * sum(d["matched"] for d in dialogues) / n_gold,
        "fm_strict": 100.0 * sum(d["matched"] == len(d["gold"]) for d in dialogues) / len(dialogues),
        "f1": char_f1([(d["map"], d["gold"]) for d in dialogues]),
        "bleu": oracle.ref_corpus_bleu(
            [serialize(sorted(d["map"].items())).split() for d in dialogues],
            [serialize(sorted(d["gold"].items())).split() for d in dialogues],
        ),
        "n_samples": len(dialogues),
    }
    for name in ("nk", "mk", "sv", "hv"):
        expected[f"{name}_rate"] = sum(d["counts"][f"n_{name}"] for d in dialogues) / n_total

    metrics = _csv_rows(work / "metrics.csv")
    panel = _csv_rows(work / "panel.csv")
    if len(metrics) != 1 or len(panel) != 1:
        return problems + [f"metrics CSV has {len(metrics)} rows, panel has {len(panel)}; expected 1 each"]
    for key, value in expected.items():
        if not _close(float(metrics[0][key]), value):
            problems.append(f"metrics.csv {key} = {metrics[0][key]}, expected {value}")
    for key in ("nk_rate", "mk_rate", "sv_rate", "hv_rate", "n_samples"):
        if not _close(float(panel[0][key]), expected[key]):
            problems.append(f"panel.csv {key} = {panel[0][key]}, expected {expected[key]}")
    return problems


def check_reject_messy(work: Path, labels: dict) -> list[str]:
    dialogues = labels["dialogues"]
    candidates = [c for d in dialogues for c in d["candidates"]]
    outcomes = Counter(c["outcome"] for c in candidates)
    kept_rewards = [c["reward"] for c in candidates if c["outcome"] == "kept"]
    stats = json.loads((work / "augmented.jsonl.stats.json").read_text(encoding="utf-8"))
    expected = {
        "generated": len(candidates),
        "parse_failed": outcomes["parse_failed"],
        "rejected": outcomes["rejected"],
        "deduplicated": outcomes["deduplicated"],
        "kept": outcomes["kept"],
        "skipped_dialogues": 0,
    }
    problems = [f"stats {k} = {stats.get(k)}, expected {v}" for k, v in expected.items() if stats.get(k) != v]
    if not _close(stats["mean_kept_reward"], sum(kept_rewards) / len(kept_rewards)):
        problems.append(f"stats mean_kept_reward = {stats['mean_kept_reward']}")

    rows = _jsonl(work / "augmented.jsonl")
    pos = 0
    for d in dialogues:
        want = [("gold", 1.0, serialize((k, d["gold"][k]) for k in d["slot_order"] if k in d["gold"]))]
        want += [("sampled", c["reward"], serialize(c["map"].items()))
                 for c in d["candidates"] if c["outcome"] == "kept"]
        got = rows[pos:pos + len(want)]
        pos += len(want)
        for (source, reward, completion), row in zip(want, got):
            if row["dialogue_id"] != d["id"] or row["source"] != source or row["completion"] != completion:
                problems.append(f"{d['id']}: expected {source} {completion}, got {row['source']} {row['completion']}")
            elif not (row["reward"] > 0 and _close(row["reward"], reward)):
                problems.append(f"{d['id']}: reward {row['reward']} != labelled {reward}")
        if len(got) != len(want):
            problems.append(f"{d['id']}: {len(got)} examples, expected {len(want)}")
    if pos != len(rows):
        problems.append(f"{len(rows) - pos} unexpected examples after the last dialogue")
    golds = Counter(r["dialogue_id"] for r in rows if r["source"] == "gold")
    if sorted(golds) != sorted(d["id"] for d in dialogues) or set(golds.values()) != {1}:
        problems.append("not exactly one gold example per dialogue")
    return problems


def check_multistep_http(work: Path, labels: dict) -> list[str]:
    rows = _jsonl(work / "multistep.jsonl")
    problems = _rows_match_labels(rows, labels["dialogues"])
    for row, lab in zip(rows, labels["dialogues"]):
        if not set(row["arguments"]) <= set(lab["slots"]):
            problems.append(f"{lab['id']}: keys {sorted(row['arguments'])} outside the schema")
        if row.get("mode") != "multistep":
            problems.append(f"{lab['id']}: mode {row.get('mode')!r}")
    return problems
