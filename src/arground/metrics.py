"""Corpus-level evaluation: BLEU, fuzzy-match rate, char F1, error rates.

BLEU compares whitespace tokens of the sorted canonical serializations
(the only text both sides share), with uniform 4-gram weights, brevity
penalty, and add-one smoothing on orders 2-4. FM is the percentage of
gold slots whose value is fuzzy-matched by the prediction (0-100 scale),
read from the ``correct`` verdicts of ``classify_errors`` (one judgement per slot).
F1 is micro-averaged character-multiset precision/recall over values
aligned by exact canonical key; the multiset overlap of two values is
``fuzzy.char_overlap``, the same count the bag-distance bound of
``values_match`` uses.

BLEU clips each order's n-gram counts by the reference's. A hypothesis with
no repeated n-gram of that order (the common case) matches exactly the
n-grams it shares with the reference, counted as a set intersection; one
with repeats is clipped through ``Counter``s.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import AlignmentError, ArgroundError, EmptyCorpus, InvalidBreakdown
from .fuzzy import char_overlap
from .parsing import serialize_argument_map
from .scoring import VERDICT_CORRECT, ErrorBreakdown
from .schema import ArgumentMap

Pair = tuple[ArgumentMap, ArgumentMap]  # (pred, gold)


class MetricsReport(NamedTuple):
    """Corpus metrics, in the column order of the metrics CSV."""

    bleu: float
    fm: float
    f1: float
    nk_rate: float
    mk_rate: float
    sv_rate: float
    hv_rate: float
    n_samples: int
    fm_strict: float


def _matched_slots(breakdown: ErrorBreakdown) -> int:
    """Gold slots the prediction fuzzy-matched: the sample's ``correct`` verdicts."""
    return sum(1 for _, verdict in breakdown.per_slot_verdicts if verdict == VERDICT_CORRECT)


def fuzzy_match_rate(breakdowns: Sequence[ErrorBreakdown]) -> float:
    """Percentage of gold slots matched by the prediction, over the corpus."""
    if not breakdowns:
        raise EmptyCorpus("fuzzy_match_rate over zero samples")
    total = sum(b.n_total // 2 for b in breakdowns)
    if total == 0:
        return 100.0
    return 100.0 * sum(_matched_slots(b) for b in breakdowns) / total


def strict_match_rate(breakdowns: Sequence[ErrorBreakdown]) -> float:
    """Dialogue-level diagnostic: percentage of samples with every gold slot matched."""
    if not breakdowns:
        raise EmptyCorpus("strict_match_rate over zero samples")
    hits = sum(1 for b in breakdowns if _matched_slots(b) == b.n_total // 2)
    return 100.0 * hits / len(breakdowns)


def error_rates(breakdowns: Sequence[ErrorBreakdown]) -> tuple[float, float, float, float]:
    """(NK, MK, SV, HV) rates: summed counts over summed n_total, zeros when that is 0."""
    total = sum(b.n_total for b in breakdowns)
    if total == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return tuple(
        sum(getattr(b, name) for b in breakdowns) / total
        for name in ("n_nk", "n_mk", "n_sv", "n_hv")
    )


def _char_stats(pred: ArgumentMap, gold: ArgumentMap) -> tuple[int, int, int]:
    """(multiset overlap on aligned values, total pred chars, total gold chars)."""
    overlap = sum(char_overlap(value, gold[key]) for key, value in pred.items() if key in gold)
    pred_chars = sum(map(len, pred.values()))
    gold_chars = sum(map(len, gold.values()))
    return overlap, pred_chars, gold_chars


def _f1_from_stats(overlap: int, pred_chars: int, gold_chars: int) -> float:
    precision = overlap / pred_chars if pred_chars else 0.0
    recall = overlap / gold_chars if gold_chars else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def char_f1(pred: ArgumentMap, gold: ArgumentMap) -> float:
    """Character-multiset F1 for one pair; 0 when there is nothing to compare."""
    return _f1_from_stats(*_char_stats(pred, gold))


def corpus_char_f1(pairs: Sequence[Pair]) -> float:
    if not pairs:
        raise EmptyCorpus("corpus_char_f1 over zero pairs")
    overlap = pred_chars = gold_chars = 0
    for pred, gold in pairs:
        o, p, g = _char_stats(pred, gold)
        overlap += o
        pred_chars += p
        gold_chars += g
    return _f1_from_stats(overlap, pred_chars, gold_chars)


def corpus_bleu(pairs: Sequence[Pair]) -> float:
    """Corpus BLEU over sorted serializations; 0.0 when no unigram matches."""
    if not pairs:
        raise EmptyCorpus("corpus_bleu over zero pairs")
    matched = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = ref_len = 0
    for pred, gold in pairs:
        hyp = serialize_argument_map(pred, "sorted").split()
        ref = serialize_argument_map(gold, "sorted").split()
        hyp_len += len(hyp)
        ref_len += len(ref)
        for order in range(1, 5):
            hyp_grams = list(zip(*(hyp[i:] for i in range(order))))
            ref_grams = zip(*(ref[i:] for i in range(order)))
            distinct = set(hyp_grams)
            totals[order - 1] += len(hyp_grams)
            if len(distinct) == len(hyp_grams):
                matched[order - 1] += len(distinct.intersection(ref_grams))
            else:
                ref_counts = Counter(ref_grams)
                matched[order - 1] += sum(
                    min(count, ref_counts[gram]) for gram, count in Counter(hyp_grams).items()
                )
    if matched[0] == 0 or totals[0] == 0:
        return 0.0
    log_sum = 0.25 * math.log(matched[0] / totals[0])
    for order in range(2, 5):
        log_sum += 0.25 * math.log((matched[order - 1] + 1) / (totals[order - 1] + 1))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum)


def evaluate_corpus(pairs: Sequence[Pair], breakdowns: Sequence[ErrorBreakdown]) -> MetricsReport:
    """Assemble the full report; ``breakdowns[i]`` must be ``classify_errors`` of ``pairs[i]``.

    FM and strict FM are read from the breakdowns' verdicts; error rates are
    summed counts / summed n_total.
    """
    if len(pairs) != len(breakdowns):
        raise AlignmentError(f"{len(pairs)} pairs vs {len(breakdowns)} breakdowns")
    if not pairs:
        raise EmptyCorpus("evaluate_corpus over zero pairs")
    for index, ((_, gold), b) in enumerate(zip(pairs, breakdowns)):
        if b.n_total != 2 * len(gold):
            raise AlignmentError(f"breakdown {index}: n_total {b.n_total}, {len(gold)} gold slots")
    nk_rate, mk_rate, sv_rate, hv_rate = error_rates(breakdowns)
    return MetricsReport(
        bleu=corpus_bleu(pairs),
        fm=fuzzy_match_rate(breakdowns),
        f1=corpus_char_f1(pairs),
        nk_rate=nk_rate,
        mk_rate=mk_rate,
        sv_rate=sv_rate,
        hv_rate=hv_rate,
        n_samples=len(pairs),
        fm_strict=strict_match_rate(breakdowns),
    )


METRICS_CSV_COLUMNS = ("dataset", "split", "backend", *MetricsReport._fields)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def metrics_report_csv(report: MetricsReport, dataset: str, split: str, backend: str) -> str:
    """One-row CSV artifact for a report (header + data row)."""
    return _csv_text(METRICS_CSV_COLUMNS, [[dataset, split, backend, *report]])


def emit_error_panel(rows: Iterable[tuple[str, dict]], group_by: str) -> str:
    """CSV with one row per group: group,nk_rate,mk_rate,sv_rate,hv_rate,n_samples.

    ``rows`` holds ``(where, row)`` pairs as ``schema.read_jsonl`` yields them;
    a row without a valid breakdown, or whose ``group_by`` field is present but
    not a string, raises, naming ``where`` and the row's id. A row without that
    field is grouped as ``unknown``.
    """
    if group_by not in ("model", "split"):
        raise ValueError(f"group_by must be 'model' or 'split', got {group_by!r}")
    groups: dict[str, list[ErrorBreakdown]] = {}
    for where, row in rows:
        if isinstance(row.get("id"), str):
            where = f"{where} (id {row['id']!r})"
        if "breakdown" not in row:
            raise ArgroundError(f"{where}: no 'breakdown' field (run evaluate --scored-out)")
        try:
            breakdown = ErrorBreakdown.from_obj(row["breakdown"])
        except InvalidBreakdown as exc:
            raise InvalidBreakdown(f"{where}: {exc}") from exc
        label = row.get(group_by, "unknown")
        if not isinstance(label, str):
            raise ArgroundError(f"{where}: '{group_by}' must be a string, got {label!r}")
        groups.setdefault(label, []).append(breakdown)
    if not groups:
        raise EmptyCorpus("no breakdowns to report")
    return _csv_text(
        ("group", "nk_rate", "mk_rate", "sv_rate", "hv_rate", "n_samples"),
        [[label, *error_rates(breakdowns), len(breakdowns)] for label, breakdowns in groups.items()],
    )
