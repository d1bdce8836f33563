"""Tolerant extraction of argument dictionaries from raw model text.

Real models wrap the answer in prose, code fences, single quotes, and
trailing commas. The relaxed grammar here accepts all of that, flattens
literals to strings, and reports every repair it applied as a warning.
Only the FIRST balanced ``{...}`` region is parsed; nested objects and
arrays are rejected because the argument format is flat key->value.

Two paths give the same outcome. Most outputs are strict JSON, so the fast
path first hands the text from the first ``{`` to the C scanner of
``json.JSONDecoder.raw_decode``, keeping duplicate keys and the literal text
of numbers. When that decodes a flat object of strings, numbers, booleans and
nulls, its pairs go straight to canonicalization, and numbers and booleans
add the same "quoted bare word" warning as on the relaxed path. Anything else
falls back to the relaxed parser, which alone raises errors and sets their
span: text that is not strict JSON from the first ``{``, a nested object or
array, or a key or value holding a surrogate code point.

A ``\\uXXXX`` escape of a high surrogate followed by one of a low surrogate
decodes to one code point, as in ``json``. A key or value that still holds a
surrogate (an unpaired escape, or a literal one) cannot be written as UTF-8,
so both paths reject it as malformed.

Parsing takes time linear in the length of the output, whatever the output.
The relaxed region is the first ``{`` whose quote-aware forward scan closes.
On normal output the scan from the first ``{`` closes, and it moves by
compiled-regex jumps to the next brace, quote or backslash. Only when that
scan reaches the end with the brace still open (degenerate output such as
``{ 'a`` repeated) does one backward pass from the last ``}`` pick the first
later ``{`` that closes, instead of rescanning from every ``{``. A reply cut
off with no ``}`` after its first ``{`` has no region and is not scanned. The
body scan copies whole runs of quoted text between quotes and backslashes.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from .errors import MalformedArguments, NoArgumentObject
from .schema import ArgumentMap, canonicalize_key, canonicalize_value, has_surrogate

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


class ParseOutcome(NamedTuple):
    """Parsed argument map plus the list of repairs applied (each once)."""

    map: ArgumentMap
    warnings: tuple[str, ...] = ()


# Outside a quote only braces and quote characters matter; inside one, only
# its closing quote and the backslash.
_OUTSIDE_STOP = re.compile(r"""[{}"']""")
_QUOTED_STOP = {'"': re.compile(r'["\\]'), "'": re.compile(r"['\\]")}


def _quote_end(text: str, open_at: int) -> int | None:
    """Index of the quote closing the one at ``open_at``; None if the text ends first."""
    search = _QUOTED_STOP[text[open_at]].search
    pos = open_at + 1
    while True:
        m = search(text, pos)
        if m is None:
            return None
        at = m.start()
        if text[at] != "\\":
            return at
        pos = at + 2


def _close_of(text: str, start: int) -> int | None:
    """Index of the '}' balancing the '{' at ``start``; None if the text ends first.

    Quote characters only open a string where a token may start (after '{',
    ':' or ','), so apostrophes inside bare words and in surrounding prose do
    not derail the scan. Each step jumps to the next brace or quote.
    """
    depth = 1
    token_start = True
    pos = start + 1
    search = _OUTSIDE_STOP.search
    while True:
        m = search(text, pos)
        if m is None:
            return None
        at = m.start()
        ch = text[at]
        if ch == "{":
            depth += 1
            token_start = True
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return at
            token_start = False
        else:
            skipped = text[pos:at].rstrip()
            if skipped:
                token_start = skipped[-1] in ":,"
            if token_start:
                at = _quote_end(text, at)
                if at is None:
                    return None
            token_start = False
        pos = at + 1


def _first_closing_open(text: str, after: int) -> int | None:
    """First '{' past ``after`` whose forward scan closes, in one backward pass.

    Apart from depth, the forward scan is in one of six states: outside a
    quote at a token start (t) or not (o), inside a double (d) or single (s)
    quote, or an escape pending in either (ed, es). Walking right to left,
    each variable holds, for the text from the current position on, the
    minimum depth change over its prefixes when the scan enters there in that
    state. A scan from '{' at i closes when t at i + 1 is at most -1. The pass
    starts at the last '}': past it the depth never falls, so every minimum is 0.
    """
    t = o = d = s = ed = es = 0
    found = None
    for i in range(text.rfind("}"), after, -1):
        ch = text[i]
        if ch == "{":
            if t < 0:
                found = i
            t = o = min(0, t + 1)
            ed, es = d, s
        elif ch == "}":
            t = o = o - 1
            ed, es = d, s
        elif ch == '"':
            t, d, ed, es = d, o, d, s
        elif ch == "'":
            t, s, ed, es = s, o, d, s
        elif ch == "\\":
            t, d, s, ed, es = o, ed, es, d, s
        elif ch == ":" or ch == ",":
            o = t
            ed, es = d, s
        elif ch.isspace():
            ed, es = d, s
        else:
            t = o
            ed, es = d, s
    return found


def _first_balanced_region(text: str) -> tuple[int, int] | None:
    """Span (open, close) of the first '{' whose quote-aware scan balances."""
    start = text.find("{")
    if start == -1 or text.rfind("}") < start:
        return None
    close = _close_of(text, start)
    if close is None:
        start = _first_closing_open(text, start)
        if start is None:
            return None
        close = _close_of(text, start)
    return start, close


def _escaped_code(text: str, at: int) -> int | None:
    """Code point of the ``\\uXXXX`` escape at ``at``; None if there is none there."""
    if not text.startswith("\\u", at) or at + 6 > len(text):
        return None
    try:
        code = int(text[at + 2 : at + 6], 16)
    except ValueError:
        return None
    return code if code >= 0 else None


def _parse_object_body(inner: str, warnings: dict[str, None]) -> list[tuple[str, str | None]]:
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
        search = _QUOTED_STOP[quote].search
        pos += 1
        buf: list[str] = []
        while True:
            m = search(inner, pos)
            if m is None:
                pos = n
                fail("unterminated string")
            at = m.start()
            buf.append(inner[pos:at])
            pos = at
            if inner[at] == quote:
                pos += 1
                if quote == "'":
                    warnings[WARN_SINGLE_QUOTES] = None
                return "".join(buf)
            if pos + 1 >= n:
                fail("unterminated escape")
            code = _escaped_code(inner, pos)
            if code is not None:
                pos += 6
                if 0xD800 <= code < 0xDC00:
                    low = _escaped_code(inner, pos)
                    if low is not None and 0xDC00 <= low < 0xE000:
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        pos += 6
                buf.append(chr(code))
                continue
            nxt = inner[pos + 1]
            buf.append(_ESCAPES.get(nxt, nxt))
            pos += 2

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
            warnings[WARN_BARE_WORD] = None
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
                warnings[WARN_BARE_WORD] = None
                value = token
        pairs.append((key, value))
        if has_surrogate(key) or (value is not None and has_surrogate(value)):
            fail("surrogate code point in key or value")
        skip_ws()
        if pos >= n:
            break
        if inner[pos] != ",":
            fail("expected ',' between entries")
        pos += 1
        skip_ws()
        if pos >= n:
            warnings[WARN_TRAILING_COMMA] = None
            break
    return pairs


class _Literal(str):
    """A JSON number or constant, kept as its literal text like a relaxed bare word."""

    __slots__ = ()


# Pairs stay a list, so duplicate keys and their order survive.
_STRICT_JSON = json.JSONDecoder(
    object_pairs_hook=list, parse_int=_Literal, parse_float=_Literal, parse_constant=_Literal
)


def _strict_object(raw: str, open_at: int) -> tuple[list[tuple[str, str | None]], int, bool] | None:
    """Pairs of the flat JSON object at ``open_at``, the index of its '}', and
    whether a number or boolean was quoted; None where the relaxed parser must decide."""
    try:
        decoded, end = _STRICT_JSON.raw_decode(raw, open_at)
    except (ValueError, RecursionError):
        return None
    # Only non-ASCII text or a \u escape can decode to a surrogate.
    check_surrogates = not raw.isascii() or "\\u" in raw
    pairs = []
    bare = False
    for key, value in decoded:
        kind = type(value)
        if kind is _Literal:
            bare = True
        elif kind is bool:
            value = "true" if value else "false"
            bare = True
        elif kind is not str and value is not None:
            return None  # a nested object or array
        if check_surrogates and (has_surrogate(key) or (kind is str and has_surrogate(value))):
            return None
        pairs.append((key, value))
    return pairs, end - 1, bare


def extract_argument_map(raw: str) -> ParseOutcome:
    """Locate and parse the first balanced brace region in raw model output.

    Strict JSON from the first ``{`` that decodes to a flat object is read by
    the C ``json`` scanner; everything else (relaxed syntax, a nested value,
    a surrogate in a key or value, no object at all) goes to the relaxed
    parser, which alone raises. Both paths yield the same map and warnings.
    """
    warnings: dict[str, None] = {}  # repair labels, each once, in the order first applied
    open_at = raw.find("{")
    strict = _strict_object(raw, open_at) if open_at != -1 else None
    if strict is None:
        region = _first_balanced_region(raw)
        if region is None:
            raise NoArgumentObject("no balanced argument object in output")
        open_at, close_at = region
    else:
        raw_pairs, close_at, bare = strict
    if "```" in raw[:open_at] or "```" in raw[close_at + 1 :]:
        warnings[WARN_CODE_FENCE] = None
    if strict is None:
        raw_pairs = _parse_object_body(raw[open_at + 1 : close_at], warnings)
    elif bare:
        warnings[WARN_BARE_WORD] = None

    entries: ArgumentMap = {}
    for raw_key, raw_value in raw_pairs:
        if raw_value is None:
            warnings[WARN_NULL_VALUE] = None
            continue
        key, value = canonicalize_key(raw_key), canonicalize_value(raw_value)
        if not key or not value:
            warnings[WARN_EMPTY_VALUE if key else WARN_EMPTY_KEY] = None
            continue
        if key in entries:
            warnings[WARN_DUPLICATE_KEY] = None
        entries[key] = value
    return ParseOutcome(entries, tuple(warnings))


# The encoder json.dumps(..., ensure_ascii=False) would build on every call.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def serialize_argument_map(amap: ArgumentMap, order: str = "given") -> str:
    """Render a map as ``{"k1": "v1", "k2": "v2"}``.

    ``given`` preserves entry order (training completions follow schema
    order); ``sorted`` orders keys lexicographically so serialization-based
    metrics are insensitive to key order.
    """
    if order not in ("given", "sorted"):
        raise ValueError(f"order must be 'given' or 'sorted', got {order!r}")
    return _ENCODER.encode(amap if order == "given" else dict(sorted(amap.items())))
