"""Independent reference implementations used to cross-check the library.

Everything here is written from the definitions, deliberately in a
different style from the main code (full-matrix edit distance, its own
conformance regexes, per-sentence BLEU accumulation), so agreement is
meaningful. The parser oracle is the exception: it is the previous
implementation, kept unchanged but for the surrogate rule to cross-check its
rewrite and the strict-JSON fast path. So are the canonicalizers: they are
the regex forms that ``schema.canonicalize_key`` and ``canonicalize_value``
replaced, and the parser oracle uses them.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter

from arground.errors import MalformedArguments, NoArgumentObject
from arground.parsing import (
    _ESCAPES,
    _NULL_TOKENS,
    WARN_BARE_WORD,
    WARN_CODE_FENCE,
    WARN_DUPLICATE_KEY,
    WARN_EMPTY_KEY,
    WARN_EMPTY_VALUE,
    WARN_NULL_VALUE,
    WARN_SINGLE_QUOTES,
    WARN_TRAILING_COMMA,
    ParseOutcome,
)
from arground.schema import ArgumentMap


# --- canonicalization -----------------------------------------------------------

_REF_KEY_SEPARATORS = re.compile(r"[\s\-]+")
_REF_VALUE_SPACES = re.compile(r"\s+")


def ref_canonicalize_key(raw: str) -> str:
    """Lowercase, trim, and join whitespace/hyphen runs with '_'; "" when
    nothing is left. Idempotent."""
    return _REF_KEY_SEPARATORS.sub("_", raw.strip().lower())


def ref_canonicalize_value(raw: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return _REF_VALUE_SPACES.sub(" ", raw.strip()).lower()


# --- edit distance / fuzzy match ---------------------------------------------

def edit_distance(a: str, b: str) -> int:
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


def ref_values_match(a: str, b: str) -> bool:
    longest = max(len(a), len(b))
    if longest == 0:
        return True
    return 1.0 - edit_distance(a, b) / longest >= 0.85


# --- slot conformance ---------------------------------------------------------

_REF_MONTH = (
    "(?:january|february|march|april|may|june|july|august|september|october|"
    "november|december|jan|feb|mar|apr|jun|jul|aug|sep|sept|oct|nov|dec)"
)
_REF_DAY = r"\d{1,2}(?:st|nd|rd|th)?"
_REF_DATE_RES = [
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}$"),
    re.compile(r"^\d{1,2}/\d{1,2}$"),
    re.compile(r"^\d{1,2}/\d{1,2}/\d{4}$"),
    re.compile(rf"^{_REF_MONTH}(?: {_REF_DAY})?(?:,? \d{{4}})?$"),
    re.compile(rf"^{_REF_DAY} (?:of )?{_REF_MONTH}(?:,? \d{{4}})?$"),
]
_REF_TIME_RE = re.compile(r"^(\d{1,2})(:(\d{2}))?( ?(am|pm))?$")


def ref_conforms(kind: str, allowed, value: str) -> bool:
    if value == "":
        return False
    if kind == "free-text":
        return True
    if kind == "integer":
        return re.match(r"^[+-]?\d+$", value) is not None
    if kind == "boolean":
        return value in ("true", "false", "yes", "no")
    if kind == "categorical":
        for candidate in allowed or []:
            if ref_values_match(value, candidate):
                return True
        return False
    if kind == "date":
        return any(rx.match(value) for rx in _REF_DATE_RES)
    if kind == "time":
        m = _REF_TIME_RE.match(value)
        if m is None:
            return False
        hour = int(m.group(1))
        if m.group(3) is not None and int(m.group(3)) > 59:
            return False
        if m.group(5) is not None:
            return 1 <= hour <= 12
        return hour <= 23
    raise ValueError(kind)


# --- brute-force error classification -----------------------------------------

def ref_breakdown(pred_pairs, gold_pairs, slots) -> dict:
    """Counts + reward straight from the definitions.

    pred_pairs/gold_pairs: ordered (key, value) lists, canonical strings.
    slots: list of (name, kind, allowed_values_or_None).
    """
    slot_table = {name: (kind, allowed) for name, kind, allowed in slots}
    gold = dict(gold_pairs)
    assert all(k in slot_table for k in gold), "gold references unknown slot"

    counts = {"nk": 0, "mk": 0, "sv": 0, "hv": 0}
    for key, value in pred_pairs:
        if key not in slot_table:
            counts["nk"] += 1
        elif key in gold and ref_values_match(value, gold[key]):
            pass
        elif ref_conforms(slot_table[key][0], slot_table[key][1], value):
            counts["sv"] += 1
        else:
            counts["hv"] += 1
    predicted_keys = [k for k, _ in pred_pairs]
    counts["mk"] = sum(1 for k in gold if k not in predicted_keys)

    n_error = counts["nk"] + counts["mk"] + counts["sv"] + counts["hv"]
    n_total = 2 * len(gold)
    if n_total == 0:
        reward = 1.0 if n_error == 0 else -1.0
    else:
        reward = 1.0 - 2.0 * n_error / n_total
        if reward > 1.0:
            reward = 1.0
        if reward < -1.0:
            reward = -1.0
    return {
        "n_nk": counts["nk"],
        "n_mk": counts["mk"],
        "n_sv": counts["sv"],
        "n_hv": counts["hv"],
        "n_total": n_total,
        "n_error": n_error,
        "reward": reward,
    }


# --- fuzzy-match rates -----------------------------------------------------------

def _ref_matched_gold_slots(pred_pairs, gold_pairs) -> int:
    predicted = dict(pred_pairs)
    hits = 0
    for key, gold_value in gold_pairs:
        if key in predicted and ref_values_match(predicted[key], gold_value):
            hits += 1
    return hits


def ref_fuzzy_match_rate(samples) -> float:
    """Percentage of gold slots, over the corpus, whose predicted value
    fuzzy-matches; 100 when the corpus has no gold slot.

    samples: list of (pred_pairs, gold_pairs), canonical (key, value) lists.
    """
    assert samples, "FM over an empty corpus"
    gold_slots = sum(len(gold_pairs) for _, gold_pairs in samples)
    if gold_slots == 0:
        return 100.0
    hits = sum(_ref_matched_gold_slots(p, g) for p, g in samples)
    return 100.0 * hits / gold_slots


def ref_strict_match_rate(samples) -> float:
    """Percentage of samples whose every gold slot is fuzzy-matched."""
    assert samples, "strict FM over an empty corpus"
    whole = [1 for p, g in samples if _ref_matched_gold_slots(p, g) == len(g)]
    return 100.0 * len(whole) / len(samples)


# --- reference corpus BLEU ------------------------------------------------------

def _grams(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def ref_corpus_bleu(hyp_token_lists, ref_token_lists) -> float:
    """Corpus BLEU, 4-gram uniform weights, brevity penalty, add-one
    smoothing on orders 2-4 (numerator and denominator)."""
    assert len(hyp_token_lists) == len(ref_token_lists)
    clipped = {1: 0, 2: 0, 3: 0, 4: 0}
    produced = {1: 0, 2: 0, 3: 0, 4: 0}
    hyp_total = sum(len(h) for h in hyp_token_lists)
    ref_total = sum(len(r) for r in ref_token_lists)
    for hyp, ref in zip(hyp_token_lists, ref_token_lists):
        for n in (1, 2, 3, 4):
            hyp_grams = _grams(hyp, n)
            ref_counter = Counter(_grams(ref, n))
            produced[n] += len(hyp_grams)
            used: Counter = Counter()
            for gram in hyp_grams:
                if used[gram] < ref_counter.get(gram, 0):
                    clipped[n] += 1
                    used[gram] += 1
    if clipped[1] == 0 or produced[1] == 0:
        return 0.0
    precisions = [clipped[1] / produced[1]]
    for n in (2, 3, 4):
        precisions.append((clipped[n] + 1) / (produced[n] + 1))
    # Summed left to right: from Python 3.12 on, sum() of floats is compensated
    # and can round differently, and the metrics CSV is compared byte for byte.
    log_total = 0.0
    for p in precisions:
        log_total += math.log(p)
    geo_mean = math.exp(log_total / 4.0)
    if hyp_total >= ref_total:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_total / hyp_total)
    return bp * geo_mean


# --- argument-object parsing ----------------------------------------------------
# The parser and serializer as they were before the linear-time rewrite, kept
# verbatim: a quote-aware forward scan restarted from every '{' (quadratic on
# text that never closes a brace), a character-at-a-time body scan, and two
# json.dumps calls per entry. Only the names changed, the repair labels are
# kept in a plain dict, and one rule was added since: a high and a low
# surrogate escape in a row decode to one code point, as in json, and a key or
# value that still holds a surrogate is malformed.

def ref_first_balanced_region(text: str) -> tuple[int, int] | None:
    """Span (open, close) of the first balanced brace region, quote-aware.

    Quote characters only open a string when they appear where a token may
    start (after '{', ':' or ','), so apostrophes inside bare words and in
    surrounding prose do not derail the scan.
    """
    n = len(text)
    start = text.find("{")
    while start != -1:
        depth = 0
        quote: str | None = None
        prev_sig = ""
        i = start
        while i < n:
            ch = text[i]
            if quote is not None:
                if ch == "\\":
                    i += 2
                    continue
                if ch == quote:
                    quote = None
                    prev_sig = ch
                i += 1
                continue
            if ch in "\"'":
                if prev_sig in ("{", ":", ","):
                    quote = ch
                prev_sig = ch
            elif ch == "{":
                depth += 1
                prev_sig = ch
            elif ch == "}":
                depth -= 1
                prev_sig = ch
                if depth == 0:
                    return start, i
            elif not ch.isspace():
                prev_sig = ch
            i += 1
        start = text.find("{", start + 1)
    return None


def _ref_holds_surrogate(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def ref_parse_object_body(inner: str, warnings: dict[str, None]) -> list[tuple[str, str | None]]:
    """Parse the text between the outer braces into raw (key, value) pairs.

    A value of None marks a null/none literal. Raises MalformedArguments
    with the offending span when the relaxed grammar still cannot cope.
    """
    pos = 0
    n = len(inner)
    pairs: list[tuple[str, str | None]] = []

    def skip_ws():
        nonlocal pos
        while pos < n and inner[pos].isspace():
            pos += 1

    def fail(message: str):
        raise MalformedArguments(message, span=inner[max(0, pos - 5) : pos + 40].strip())

    def scan_quoted() -> str:
        nonlocal pos
        quote = inner[pos]
        pos += 1
        buf: list[str] = []
        while pos < n:
            ch = inner[pos]
            if ch == "\\":
                if pos + 1 >= n:
                    fail("unterminated escape")
                nxt = inner[pos + 1]
                if nxt == "u" and pos + 6 <= n:
                    hexpart = inner[pos + 2 : pos + 6]
                    try:
                        code = int(hexpart, 16)
                        char = chr(code)
                    except ValueError:
                        pass
                    else:
                        pos += 6
                        if 0xD800 <= code <= 0xDBFF and inner[pos : pos + 2] == "\\u" and pos + 6 <= n:
                            try:
                                low = int(inner[pos + 2 : pos + 6], 16)
                            except ValueError:
                                low = -1
                            if 0xDC00 <= low <= 0xDFFF:
                                char = chr(0x10000 + (code - 0xD800) * 0x400 + (low - 0xDC00))
                                pos += 6
                        buf.append(char)
                        continue
                buf.append(_ESCAPES.get(nxt, nxt))
                pos += 2
                continue
            if ch == quote:
                pos += 1
                if quote == "'":
                    warnings.setdefault(WARN_SINGLE_QUOTES)
                return "".join(buf)
            buf.append(ch)
            pos += 1
        fail("unterminated string")
        raise AssertionError("unreachable")

    skip_ws()
    if pos >= n:
        return pairs
    while True:
        # key
        if inner[pos] in "\"'":
            key = scan_quoted()
        else:
            colon = inner.find(":", pos)
            if colon == -1:
                fail("missing ':' after key")
            key = inner[pos:colon].strip()
            if not key:
                fail("empty key")
            warnings.setdefault(WARN_BARE_WORD)
            pos = colon
        skip_ws()
        if pos >= n or inner[pos] != ":":
            fail("missing ':' after key")
        pos += 1
        skip_ws()
        if pos >= n:
            fail("missing value")
        ch = inner[pos]
        if ch in "{[":
            fail("nested value")
        value: str | None
        if ch in "\"'":
            value = scan_quoted()
        else:
            comma = inner.find(",", pos)
            end = n if comma == -1 else comma
            token = inner[pos:end].strip()
            pos = end
            if not token:
                fail("missing value")
            if token.lower() in _NULL_TOKENS:
                value = None
            else:
                warnings.setdefault(WARN_BARE_WORD)
                value = token
        pairs.append((key, value))
        if _ref_holds_surrogate(key) or (value is not None and _ref_holds_surrogate(value)):
            fail("surrogate code point in key or value")
        skip_ws()
        if pos >= n:
            break
        if inner[pos] != ",":
            fail("expected ',' between entries")
        pos += 1
        skip_ws()
        if pos >= n:
            warnings.setdefault(WARN_TRAILING_COMMA)
            break
    return pairs


def ref_extract_argument_map(raw: str) -> ParseOutcome:
    """Locate and parse the first balanced brace region in raw model output."""
    warnings: dict[str, None] = {}
    region = ref_first_balanced_region(raw)
    if region is None:
        raise NoArgumentObject("no balanced argument object in output")
    open_at, close_at = region
    if "```" in raw[:open_at] or "```" in raw[close_at + 1 :]:
        warnings.setdefault(WARN_CODE_FENCE)
    inner = raw[open_at + 1 : close_at]
    raw_pairs = ref_parse_object_body(inner, warnings)

    entries: dict[str, str] = {}
    for raw_key, raw_value in raw_pairs:
        if raw_value is None:
            warnings.setdefault(WARN_NULL_VALUE)
            continue
        key = ref_canonicalize_key(raw_key)
        if not key:
            warnings.setdefault(WARN_EMPTY_KEY)
            continue
        value = ref_canonicalize_value(raw_value)
        if not value:
            warnings.setdefault(WARN_EMPTY_VALUE)
            continue
        if key in entries:
            warnings.setdefault(WARN_DUPLICATE_KEY)
        entries[key] = value
    return ParseOutcome(entries, tuple(warnings))


def ref_serialize(amap: ArgumentMap, order: str = "given") -> str:
    """Render a map as ``{"k1": "v1", "k2": "v2"}``.

    ``given`` preserves entry order (training completions follow schema
    order); ``sorted`` orders keys lexicographically so serialization-based
    metrics are insensitive to key order.
    """
    if order not in ("given", "sorted"):
        raise ValueError(f"order must be 'given' or 'sorted', got {order!r}")
    entries = amap.items() if order == "given" else sorted(amap.items())
    body = ", ".join(
        f"{json.dumps(k, ensure_ascii=False)}: {json.dumps(v, ensure_ascii=False)}"
        for k, v in entries
    )
    return "{" + body + "}"
