"""Tolerant extraction of argument dictionaries from raw model text.

Real models wrap the answer in prose, code fences, single quotes, and
trailing commas. The relaxed grammar here accepts all of that, flattens
literals to strings, and reports every repair it applied as a warning.
Only the FIRST balanced ``{...}`` region is parsed; nested objects and
arrays are rejected because the argument format is flat key->value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidKey, MalformedArguments, NoArgumentObject
from .schema import ArgumentMap, canonicalize_key, canonicalize_value

WARN_CODE_FENCE = "stripped code fence"
WARN_SINGLE_QUOTES = "converted single quotes"
WARN_TRAILING_COMMA = "removed trailing comma"
WARN_BARE_WORD = "quoted bare word"
WARN_EMPTY_VALUE = "dropped empty value"
WARN_NULL_VALUE = "dropped null value"
WARN_EMPTY_KEY = "dropped empty key"
WARN_DUPLICATE_KEY = "kept last duplicate key"

_NULL_TOKENS = frozenset({"null", "none"})

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "/": "/",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


@dataclass(frozen=True)
class ParseOutcome:
    """Parsed argument map plus the list of repairs applied (each once)."""

    map: ArgumentMap
    warnings: tuple[str, ...] = ()


class _Warnings:
    """Ordered, de-duplicated repair labels."""

    def __init__(self):
        self._seen: dict[str, None] = {}

    def add(self, label: str) -> None:
        self._seen.setdefault(label, None)

    def as_tuple(self) -> tuple[str, ...]:
        return tuple(self._seen)


def _first_balanced_region(text: str) -> tuple[int, int] | None:
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


def _parse_object_body(inner: str, warnings: _Warnings) -> list[tuple[str, str | None]]:
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
                        buf.append(chr(int(hexpart, 16)))
                        pos += 6
                        continue
                    except ValueError:
                        pass
                buf.append(_ESCAPES.get(nxt, nxt))
                pos += 2
                continue
            if ch == quote:
                pos += 1
                if quote == "'":
                    warnings.add(WARN_SINGLE_QUOTES)
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
            warnings.add(WARN_BARE_WORD)
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
                warnings.add(WARN_BARE_WORD)
                value = token
        pairs.append((key, value))
        skip_ws()
        if pos >= n:
            break
        if inner[pos] != ",":
            fail("expected ',' between entries")
        pos += 1
        skip_ws()
        if pos >= n:
            warnings.add(WARN_TRAILING_COMMA)
            break
    return pairs


def extract_argument_map(raw: str) -> ParseOutcome:
    """Locate and parse the first balanced brace region in raw model output."""
    warnings = _Warnings()
    region = _first_balanced_region(raw)
    if region is None:
        raise NoArgumentObject("no balanced argument object in output")
    open_at, close_at = region
    if "```" in raw[:open_at] or "```" in raw[close_at + 1 :]:
        warnings.add(WARN_CODE_FENCE)
    inner = raw[open_at + 1 : close_at]
    raw_pairs = _parse_object_body(inner, warnings)

    entries: dict[str, str] = {}
    for raw_key, raw_value in raw_pairs:
        if raw_value is None:
            warnings.add(WARN_NULL_VALUE)
            continue
        try:
            key = canonicalize_key(raw_key)
        except InvalidKey:
            warnings.add(WARN_EMPTY_KEY)
            continue
        value = canonicalize_value(raw_value)
        if not value:
            warnings.add(WARN_EMPTY_VALUE)
            continue
        if key in entries:
            warnings.add(WARN_DUPLICATE_KEY)
        entries[key] = value
    return ParseOutcome(ArgumentMap(tuple(entries.items())), warnings.as_tuple())


def serialize_argument_map(amap: ArgumentMap, order: str = "given") -> str:
    """Render a map as ``{"k1": "v1", "k2": "v2"}``.

    ``given`` preserves entry order (training completions follow schema
    order); ``sorted`` orders keys lexicographically so serialization-based
    metrics are insensitive to key order.
    """
    if order not in ("given", "sorted"):
        raise ValueError(f"order must be 'given' or 'sorted', got {order!r}")
    entries = amap.entries if order == "given" else tuple(sorted(amap.entries))
    body = ", ".join(
        f"{json.dumps(k, ensure_ascii=False)}: {json.dumps(v, ensure_ascii=False)}"
        for k, v in entries
    )
    return "{" + body + "}"
