"""Seeded corpus generator for the three benchmark workloads.

Everything the program reads is written here from ``--seed``: the schema
catalog, the dialogues, the replay logs and the stub model's reply index.
Next to them goes ``labels.json``, which only the benchmark reads: for every
model output it records what the parser must return and how the scorer must
judge it. The labels hold by construction:

* A near-miss substitutes ``d`` characters of the gold value with characters
  that do not occur in it. Every such character costs one edit in any
  alignment, so the edit distance is exactly ``d``, and ``d / len`` is below
  0.15 for a near-miss and above it for a long wrong value. Half of each sit
  at the boundary: the largest ``d`` that still matches, or the smallest that
  no longer does.
* A short wrong value (SV) is drawn until ``tests/oracle.py`` confirms that it
  conforms to its slot and does not fuzzy-match gold; a non-conforming value
  (HV) is checked against the oracle the same way.
* Every label on a model output is one of exact, near, SV, HV, MK, NK,
  unparseable or duplicate.

The output formats, the ``eval_longtext`` labels and the ``reject_messy``
candidate plan are fixed by counts, and the seed chooses values and order. A
few choices are drawn per value (extra near-misses in ``reject_messy``, slot
presence in ``multistep_http``), but every seed makes the same number of model
calls and outputs per round.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

FILL_TEMPERATURE = 0.0
SAMPLE_TEMPERATURE = 0.8
MAX_TOKENS = 256
STUB_MODEL = "bench-model"

# Sizes per workload round, chosen so one round takes one to three seconds.
EVAL_DIALOGUES = 80
REJECT_DIALOGUES = 240
REJECT_K = 8
MULTISTEP_DIALOGUES = 24

LONG_TEXT_CHARS = (124, 136)
DEGENERATE_EVERY = 16  # one degenerate output per this many reject dialogues
DEGENERATE_REPEATS = 250  # "{ 'a" x 250 = 1,000 chars, about max_tokens of text

WORDS = (
    "please table window quiet corner birthday cake candles friend family "
    "arrive early late parking garden terrace view sea river city lights "
    "vegetarian vegan gluten free nut allergy spicy mild dessert wine water "
    "sparkling still bread olive oil anniversary surprise flowers music "
    "piano jazz slow soft loud near far door entrance stairs lift wheel "
    "chair access baby high seat dog guide small large round square booth "
    "bar counter outside inside heater shade umbrella sun evening morning "
    "lunch dinner brunch menu tasting course chef special local fresh fish "
    "steak pasta rice noodles soup salad cheese fruit coffee tea honey lemon "
    "mint ginger garlic onion pepper salt sugar milk cream butter egg toast "
    "colleague manager client meeting quiet talk celebrate promotion retire "
    "graduate welcome farewell reunion cousin uncle aunt grandmother twins"
).split()

NK_KEYS = ("urgency", "loyalty_number", "promo_code", "contact_email", "referral")
HV_VALUES = {
    "integer": ("a few of us", "four or five", "not sure yet", "several people", "a dozen or so"),
    "boolean": ("maybe", "not sure", "depends on weather", "either way", "no preference"),
    "categorical": ("street food", "barbecue grill", "fusion tapas", "soul food", "dim sum brunch"),
    "date": ("next week sometime", "soon", "after the holidays", "whenever works", "someday"),
    "time": ("after lunch", "around dusk", "late evening", "whenever", "before work"),
}

APIS = (
    {
        "api_name": "book_table",
        "domain": "restaurant",
        "description": "Reserve a table at a restaurant.",
        "slots": (
            ("request", "free-text", "special requests in the customer's words"),
            ("party_size", "integer", "number of guests"),
            ("outdoor", "boolean", "whether to sit outside"),
            ("cuisine", "categorical", "kind of food",
             ("italian", "japanese", "mexican", "indian", "french", "ethiopian")),
            ("date", "date", "day of the booking"),
            ("time", "time", "time of the booking"),
        ),
    },
    {
        "api_name": "book_salon",
        "domain": "salon",
        "description": "Book a hair or beauty appointment.",
        "slots": (
            ("notes", "free-text", "what the customer wants done"),
            ("duration_minutes", "integer", "length of the appointment"),
            ("wash", "boolean", "whether to include a wash"),
            ("service", "categorical", "kind of service",
             ("haircut", "coloring", "manicure", "pedicure", "shave", "massage")),
            ("date", "date", "day of the appointment"),
            ("time", "time", "time of the appointment"),
        ),
    },
    {
        "api_name": "ship_parcel",
        "domain": "courier",
        "description": "Send a parcel with a courier.",
        "slots": (
            ("instructions", "free-text", "delivery instructions"),
            ("weight_kg", "integer", "parcel weight in kilograms"),
            ("insured", "boolean", "whether to insure the parcel"),
            ("speed", "categorical", "delivery speed",
             ("economy", "standard", "express", "overnight", "same day", "scheduled")),
            ("pickup_date", "date", "day of pickup"),
            ("pickup_time", "time", "time of pickup"),
        ),
    },
)

MONTHS = ("january", "february", "march", "april", "may", "june", "july",
          "august", "september", "october", "november", "december")


def load_oracle(root: Path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reward(n_error: int, n_gold: int) -> float:
    """The paper's reward 1 - 2*errors/(2*|gold|), clamped to [-1, 1]."""
    n_total = 2 * n_gold
    if n_total == 0:
        return 1.0 if n_error == 0 else -1.0
    return max(-1.0, min(1.0, 1.0 - 2.0 * n_error / n_total))


def serialize(pairs) -> str:
    """``{"k": "v", ...}`` in the given order; sorted, it is the text that BLEU
    and de-duplication compare."""
    return "{" + ", ".join(
        f"{json.dumps(k, ensure_ascii=False)}: {json.dumps(v, ensure_ascii=False)}" for k, v in pairs
    ) + "}"


def _schedule(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """n tags with fixed counts per share (largest remainder), shuffled by rng."""
    raw = {tag: share * n for tag, share in shares.items()}
    counts = {tag: math.floor(v) for tag, v in raw.items()}
    leftover = n - sum(counts.values())
    for tag in sorted(raw, key=lambda t: (counts[t] - raw[t], t))[:leftover]:
        counts[tag] += 1
    tags = [tag for tag in shares for _ in range(counts[tag])]
    rng.shuffle(tags)
    return tags


class _Values:
    """Draws canonical slot values and labelled perturbations of them."""

    def __init__(self, rng: random.Random, oracle):
        self.rng = rng
        self.oracle = oracle

    def text(self, low: int, high: int) -> str:
        target = self.rng.randint(low, high)
        words: list[str] = []
        while len(" ".join(words)) < target:
            words.append(self.rng.choice(WORDS))
        return " ".join(words)[:target].rstrip()

    def gold(self, kind: str, allowed, long_text: bool) -> str:
        rng = self.rng
        if kind == "free-text":
            return self.text(*LONG_TEXT_CHARS) if long_text else self.text(14, 26)
        if kind == "integer":
            return str(rng.randint(1, 999))
        if kind == "boolean":
            return rng.choice(("true", "false", "yes", "no"))
        if kind == "categorical":
            return rng.choice(allowed)
        if kind == "date":
            year, month, day = rng.randint(2020, 2030), rng.randint(1, 12), rng.randint(1, 28)
            return rng.choice((
                f"{year}-{month:02d}-{day:02d}",
                f"{MONTHS[month - 1]} {day}, {year}",
                f"{day} {MONTHS[month - 1]} {year}",
            ))
        hour, minute = rng.randint(1, 12), rng.choice((0, 15, 30, 45))
        return rng.choice((f"{hour}:{minute:02d} pm", f"{hour + 8}:{minute:02d}", f"{hour}am"))

    def substitute(self, value: str, d: int) -> str:
        """Replace d non-space characters with characters absent from value."""
        alphabet = [c for c in "0123456789xqzjkvw#%&*+=~" if c not in value]
        positions = [i for i, c in enumerate(value) if c != " "]
        chars = list(value)
        for i in self.rng.sample(positions, d):
            chars[i] = self.rng.choice(alphabet)
        return "".join(chars)

    def near(self, value: str) -> str | None:
        """A value within the fuzzy threshold but not equal, or None if too short.

        Half of them sit at the largest distance that still matches.
        """
        d_max = (15 * len(value) - 1) // 100  # largest d with d / len < 0.15
        if d_max < 1:
            return None
        d = d_max if self.rng.random() < 0.5 else self.rng.randint(1, d_max)
        return self.substitute(value, d)

    def wrong(self, kind: str, allowed, gold: str, long_text: bool) -> str:
        """A value that conforms to the slot kind and does not fuzzy-match gold (SV)."""
        if kind == "free-text" and long_text:
            # Half of them sit at the smallest distance that no longer matches.
            d_min = 15 * len(gold) // 100 + 1  # smallest d with d / len > 0.15
            d_max = min(len(gold.replace(" ", "")), math.ceil(0.35 * len(gold)))
            return self.substitute(gold, d_min if self.rng.random() < 0.5 else self.rng.randint(d_min, d_max))
        for _ in range(100):
            if kind == "boolean":
                value = {"true": "false", "false": "true", "yes": "no", "no": "yes"}[gold]
            elif kind == "categorical":
                value = self.rng.choice([a for a in allowed if a != gold])
            else:
                value = self.gold(kind, allowed, long_text)
            if not self.oracle.ref_values_match(value, gold) and self.oracle.ref_conforms(kind, allowed, value):
                return value
        raise RuntimeError(f"could not draw a wrong {kind} value for {gold!r}")

    def invalid(self, kind: str, allowed, gold: str) -> str:
        """A value that does not conform to the slot kind (HV); free text has none."""
        value = self.rng.choice(HV_VALUES[kind])
        if self.oracle.ref_conforms(kind, allowed, value) or self.oracle.ref_values_match(value, gold):
            raise RuntimeError(f"HV value {value!r} conforms to {kind}")
        return value


# --- rendering model outputs with the parser's repair kinds ------------------

FORMATS = ("json", "prose", "fence", "single", "bare", "spaced", "loud", "escaped")


def _spaced_key(key: str) -> str:
    return key.replace("_", " ").title()


def _escape_one(value: str, rng: random.Random) -> str:
    """JSON-quote value with one letter written as a \\u escape."""
    quoted = json.dumps(value, ensure_ascii=False)
    letters = [i for i, c in enumerate(quoted) if c.isalpha()]
    if not letters:
        return quoted
    i = rng.choice(letters)
    return quoted[:i] + f"\\u{ord(quoted[i]):04x}" + quoted[i + 1:]


def render(entries: list[tuple[str, str | None]], fmt: str, rng: random.Random) -> str:
    """Write (key, value) entries as a model would, in format fmt.

    A value of None is written as a null literal, which the parser drops.
    Every format parses back to the same canonical map.
    """
    def body(quote: str, sep: str = ", ", kv: str = ": ", key_fn=None, bare_literals=False) -> str:
        parts = []
        for key, value in entries:
            k = key_fn(key) if key_fn else key
            if quote == "":  # a comma would end a bare value, so such a value stays quoted
                v = "null" if value is None or not value.strip() else value
                v = json.dumps(v) if "," in v else v
                parts.append(f"{k}{kv}{v}")
                continue
            qk = json.dumps(k) if quote == '"' else f"'{k}'"
            if value is None:
                v = "null"
            elif bare_literals and (value.isdigit() or value in ("true", "false")):
                v = value
            elif quote == '"':
                v = json.dumps(value, ensure_ascii=False)
            else:
                v = f"'{value}'"
            parts.append(f"{qk}{kv}{v}")
        return sep.join(parts)

    if fmt == "json":
        return "{" + body('"', bare_literals=True) + "}"
    if fmt == "prose":
        return "Sure! Here are the arguments you asked for: {" + body('"') + "} Let me know if that works."
    if fmt == "fence":
        return "```json\n{\n  " + body('"', sep=",\n  ") + "\n}\n```"
    if fmt == "single":
        return "Here you go: {" + body("'") + ",}" if entries else "Here you go: {}"
    if fmt == "bare":
        return "{" + body("", key_fn=_spaced_key) + "}"
    if fmt == "spaced":
        return "{\r\n   " + body('"', sep=" ,\r\n   ", kv=" :  ") + "\r\n}"
    if fmt == "loud":
        upper = [(k, None if v is None else v.upper()) for k, v in entries]
        return "{" + ", ".join(
            f"{json.dumps(_spaced_key(k))}: {'null' if v is None else json.dumps(v)}" for k, v in upper
        ) + "}"
    if fmt == "escaped":
        return "{" + ", ".join(
            f"{json.dumps(k)}: {'null' if v is None else _escape_one(v, rng)}" for k, v in entries
        ) + "}"
    raise ValueError(fmt)


FORMAT_SHARES = {fmt: 1 / len(FORMATS) for fmt in FORMATS}
UNPARSEABLE = (
    "I'm sorry, I cannot determine the arguments from this conversation.",
    '{"request": {"text": "nested objects are not allowed"}}',
    '{"party_size": ["two", "three"]}',
    '{"date" "missing colon"}',
    'The arguments are {"time": "unterminated',
)


def degenerate_output() -> str:
    """A max-length output that opens braces and never closes one."""
    return "{ 'a" * DEGENERATE_REPEATS


class _Prediction:
    """Builds one labelled prediction: the entries a model writes, the map the
    parser must return, and the per-slot verdict counts the scorer must give."""

    def __init__(self, gold: dict[str, str]):
        self.gold = gold
        self.entries: list[tuple[str, str | None]] = []
        self.expected: dict[str, str] = {}
        self.counts = {"n_nk": 0, "n_mk": 0, "n_sv": 0, "n_hv": 0}
        self.matched = 0  # gold slots fuzzy-matched by the prediction
        self.tags: list[str] = []

    def put(self, key: str, value: str, verdict: str) -> None:
        self.entries.append((key, value))
        self.expected[key] = value
        self.tags.append(f"{key}:{verdict}")
        if verdict in ("exact", "near"):
            self.matched += 1
        elif verdict == "NK":
            self.counts["n_nk"] += 1
        elif verdict == "SV":
            self.counts["n_sv"] += 1
        elif verdict == "HV":
            self.counts["n_hv"] += 1

    def miss(self, key: str, rng: random.Random) -> None:
        """Leave a gold key out: omitted, null, or blank (all dropped by the parser)."""
        how = rng.choice(("omit", "omit", "null", "blank"))
        if how == "null":
            self.entries.append((key, None))
        elif how == "blank":
            self.entries.append((key, "   "))
        self.counts["n_mk"] += 1
        self.tags.append(f"{key}:MK")

    def label(self) -> dict:
        n_error = sum(self.counts.values())
        return {
            "map": self.expected,
            "counts": self.counts,
            "n_total": 2 * len(self.gold),
            "reward": reward(n_error, len(self.gold)),
            "matched": self.matched,
            "tags": self.tags,
        }

    @staticmethod
    def unparseable(gold: dict[str, str], tag: str) -> dict:
        return {
            "map": {},
            "counts": {"n_nk": 0, "n_mk": len(gold), "n_sv": 0, "n_hv": 0},
            "n_total": 2 * len(gold),
            "reward": reward(len(gold), len(gold)),
            "matched": 0,
            "tags": [tag],
        }


def _slot_prediction(pred: _Prediction, values: _Values, slot, verdict: str, long_text: bool, rng) -> None:
    name, kind, _desc, *rest = slot
    allowed = rest[0] if rest else None
    gold = pred.gold[name]
    if verdict == "near":
        near = values.near(gold)
        if near is None:
            verdict = "exact"
        else:
            pred.put(name, near, "near")
            return
    if verdict == "exact":
        pred.put(name, gold, "exact")
    elif verdict == "SV":
        pred.put(name, values.wrong(kind, allowed, gold, long_text), "SV")
    elif verdict == "HV" and kind != "free-text":
        pred.put(name, values.invalid(kind, allowed, gold), "HV")
    elif verdict == "HV":
        pred.put(name, values.wrong(kind, allowed, gold, long_text), "SV")
    else:
        pred.miss(name, rng)


# --- dialogues ---------------------------------------------------------------

def _catalog_obj() -> list[dict]:
    out = []
    for api in APIS:
        slots = []
        for name, kind, desc, *rest in api["slots"]:
            slot = {"name": name, "kind": kind, "description": desc}
            if rest:
                slot["allowed_values"] = list(rest[0])
            slots.append(slot)
        out.append({"api_name": api["api_name"], "description": api["description"], "slots": slots})
    return out


def _dialogue_obj(ident: str, api: dict, gold: dict[str, str], rng: random.Random) -> dict:
    turns = [{"speaker": "user", "utterance": f"Hi, I would like to use {api['description'].lower()}"},
             {"speaker": "agent", "utterance": "Of course. What are the details?"}]
    for name, value in gold.items():
        turns.append({"speaker": "user", "utterance": f"The {name.replace('_', ' ')} is {value}."})
        if rng.random() < 0.5:
            turns.append({"speaker": "agent", "utterance": f"Noted: {value}."})
    turns.append({"speaker": "agent", "utterance": "Thanks, let me set that up."})
    return {"id": ident, "domain": api["domain"], "target_api": api["api_name"],
            "turns": turns, "gold_arguments": gold}


def _golds(values: _Values, n: int, prefix: str, long_text: bool, rng, drop_share: float = 0.0):
    """n dialogues cycling over the APIs; optionally drop some gold slots."""
    out = []
    for i in range(n):
        api = APIS[i % len(APIS)]
        gold = {}
        for name, kind, _desc, *rest in api["slots"]:
            if drop_share and rng.random() < drop_share:
                continue
            gold[name] = values.gold(kind, rest[0] if rest else None, long_text)
        out.append((f"{prefix}-{i:04d}", api, gold))
    return out


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def _record(prompt: str, temperature: float, n: int, outputs: list[str], tag: str) -> dict:
    """One entry of a record log, in the format the program's replay reader takes."""
    return {
        "request": {"prompt": prompt, "temperature": temperature, "max_tokens": MAX_TOKENS,
                    "n_samples": n, "stop_sequences": [], "tag": tag},
        "outputs": outputs,
        "backend_id": "bench-recorded",
        "timestamp": 0.0,
        "latency": 0.0,
    }


def _program_inputs(work: Path):
    """The catalog and dialogues as the program loads them, so that the prompts
    the replay logs and the stub index are keyed by are built by the program's
    own prompt builders."""
    from arground.schema import load_dialogues, load_schema_catalog

    catalog = load_schema_catalog(work / "catalog.json")
    return catalog, load_dialogues(work / "dialogues.jsonl", catalog)


# --- workloads ---------------------------------------------------------------

def _eval_longtext(work: Path, rng: random.Random, values: _Values) -> dict:
    golds = _golds(values, EVAL_DIALOGUES, "ev", True, rng)
    n = len(golds)
    shape = _schedule(rng, n, {"plain": 0.72, "nk": 0.12, "dupkey": 0.10, "unparseable": 0.06})
    # Slot verdicts are scheduled over the parseable outputs only, so the amount
    # of scoring work is the same for every seed.
    n_parsed = n - shape.count("unparseable")
    long_tags = _schedule(rng, n_parsed, {"exact": 0.25, "near": 0.45, "SV": 0.20, "MK": 0.10})
    short_tags = _schedule(rng, n_parsed * 5, {"exact": 0.55, "near": 0.10, "SV": 0.15, "HV": 0.12, "MK": 0.08})
    formats = _schedule(rng, n, FORMAT_SHARES)
    outputs, labels = [], []
    parsed = 0
    for i, (ident, api, gold) in enumerate(golds):
        if shape[i] == "unparseable":
            outputs.append(UNPARSEABLE[i % len(UNPARSEABLE)])
            labels.append(_Prediction.unparseable(gold, "unparseable"))
            continue
        pred = _Prediction(gold)
        for j, slot in enumerate(api["slots"]):
            verdict = long_tags[parsed] if j == 0 else short_tags[parsed * 5 + j - 1]
            _slot_prediction(pred, values, slot, verdict, True, rng)
        if shape[i] == "nk":
            key = rng.choice(NK_KEYS)
            pred.put(key, values.text(6, 14), "NK")
        entries = list(pred.entries)
        if shape[i] == "dupkey" and pred.expected:
            # The key appears twice; the parser keeps the last value at the first position.
            key = next(iter(pred.expected))
            entries.insert(0, (key, "an earlier guess"))
            pred.tags.append(f"{key}:duplicate")
        outputs.append(render(entries, formats[i], rng))
        labels.append(pred.label())
        parsed += 1

    _write_jsonl(work / "dialogues.jsonl", [_dialogue_obj(i, a, g, rng) for i, a, g in golds])
    from arground.prompting import build_default_prompt

    catalog, dialogues = _program_inputs(work)
    records = []
    for dialogue, output in zip(dialogues, outputs):
        prompt = build_default_prompt(catalog[dialogue.target_api], dialogue).text
        records.append(_record(prompt, FILL_TEMPERATURE, 1, [output], dialogue.id))
    _write_jsonl(work / "replay.jsonl", records)
    return {"dialogues": [{"id": i, "gold": g, **lab} for (i, _a, g), lab in zip(golds, labels)]}


def _reject_messy(work: Path, rng: random.Random, values: _Values) -> dict:
    golds = _golds(values, REJECT_DIALOGUES, "rj", False, rng)
    # Per dialogue: K candidates. "kept*" carry 0-3 errors, "rejected" 6 or more,
    # "duplicate" repeats an earlier kept map in another format.
    plan = ["kept0", "near0", "kept1", "kept2", "kept3", "duplicate", "rejected", "unparseable"]
    outputs_by_dialogue, labels = [], []
    formats = _schedule(rng, len(golds) * REJECT_K, FORMAT_SHARES)
    for i, (ident, api, gold) in enumerate(golds):
        order = list(plan)
        rng.shuffle(order)
        # A duplicate needs an earlier kept map: move it after the first kept one.
        order.remove("duplicate")
        first_kept = min(order.index(k) for k in ("kept0", "near0", "kept1", "kept2", "kept3"))
        order.insert(first_kept + 1, "duplicate")
        outs, cands = [], []
        seen: dict[str, dict] = {}
        for c, kind in enumerate(order):
            fmt = formats[i * REJECT_K + c]
            if kind == "unparseable":
                if i % DEGENERATE_EVERY == 0:
                    outs.append(degenerate_output())
                    cands.append({"tag": "degenerate", "outcome": "parse_failed"})
                else:
                    outs.append(UNPARSEABLE[(i + c) % len(UNPARSEABLE)])
                    cands.append({"tag": "unparseable", "outcome": "parse_failed"})
                continue
            if kind == "duplicate":
                key = sorted(seen)[rng.randrange(len(seen))]
                prev = seen[key]
                outs.append(render(list(prev["map"].items()), fmt, rng))
                cands.append({**prev, "tag": "duplicate", "outcome": "deduplicated"})
                continue
            pred = _Prediction(gold)
            n_err = {"kept0": 0, "near0": 0, "kept1": 1, "kept2": 2, "kept3": 3, "rejected": 6}[kind]
            slot_idx = rng.sample(range(len(api["slots"])), n_err)
            for j, slot in enumerate(api["slots"]):
                verdict = "exact"
                if j in slot_idx:
                    verdict = rng.choice(("SV", "HV", "MK"))
                elif (kind == "near0" and j == 0) or rng.random() < 0.15:
                    verdict = "near"
                _slot_prediction(pred, values, slot, verdict, False, rng)
            if kind == "rejected":
                pred.put(rng.choice(NK_KEYS), values.text(6, 14), "NK")
            lab = pred.label()
            key = serialize(sorted(lab["map"].items()))
            if lab["reward"] <= 0.0:
                outcome = "rejected"
            elif key in seen:
                outcome = "deduplicated"
            else:
                outcome = "kept"
                seen[key] = {"map": lab["map"], "reward": lab["reward"]}
            outs.append(render(list(pred.entries), fmt, rng))
            cands.append({"tag": kind, "outcome": outcome, "map": lab["map"], "reward": lab["reward"],
                          "tags": lab["tags"]})
        outputs_by_dialogue.append(outs)
        labels.append(cands)

    _write_jsonl(work / "dialogues.jsonl", [_dialogue_obj(i, a, g, rng) for i, a, g in golds])
    from arground.prompting import build_default_prompt

    catalog, dialogues = _program_inputs(work)
    records = []
    for dialogue, outs in zip(dialogues, outputs_by_dialogue):
        prompt = build_default_prompt(catalog[dialogue.target_api], dialogue).text
        records.append(_record(prompt, SAMPLE_TEMPERATURE, REJECT_K, outs, dialogue.id))
    _write_jsonl(work / "replay.jsonl", records)
    slot_order = {a["api_name"]: [s[0] for s in a["slots"]] for a in APIS}
    return {
        "k": REJECT_K,
        "dialogues": [
            {"id": i, "gold": g, "api": a["api_name"], "slot_order": slot_order[a["api_name"]], "candidates": c}
            for (i, a, g), c in zip(golds, labels)
        ],
    }


SLOT_REPLY_SHAPES = ("plain", "double", "single", "lead_blank", "trailing", "loud", "padded")
NONE_REPLIES = ("NONE", "none", '"NONE"', "NONE\nThe dialogue does not say.", "  None  ")


def _slot_reply(value: str, shape: str) -> str:
    return {
        "plain": value,
        "double": f'"{value}"',
        "single": f"'{value}'",
        "lead_blank": f"\n\n{value}",
        "trailing": f"{value}\nI hope this helps.",
        "loud": value.upper(),
        "padded": f"   {value}   ",
    }[shape]


def _multistep_http(work: Path, rng: random.Random, values: _Values) -> dict:
    golds = _golds(values, MULTISTEP_DIALOGUES, "ms", False, rng, drop_share=0.2)
    _write_jsonl(work / "dialogues.jsonl", [_dialogue_obj(i, a, g, rng) for i, a, g in golds])
    from arground.prompting import build_slot_prompt

    catalog, dialogues = _program_inputs(work)
    index, labels = {}, []
    shapes = _schedule(rng, len(golds) * 6, {s: 1 / len(SLOT_REPLY_SHAPES) for s in SLOT_REPLY_SHAPES})
    for i, ((ident, api, gold), dialogue) in enumerate(zip(golds, dialogues)):
        schema = catalog[dialogue.target_api]
        expected = {}
        for j, slot in enumerate(schema.slots):
            if slot.name in gold and rng.random() < 0.9:
                reply = _slot_reply(gold[slot.name], shapes[i * 6 + j])
                expected[slot.name] = gold[slot.name]
            else:
                reply = rng.choice(NONE_REPLIES)
            prompt = build_slot_prompt(schema, dialogue, slot).text
            index[sha256_text(prompt)] = {
                "reply": reply, "dialogue": dialogue.id, "first": j == 0, "last": j == len(schema.slots) - 1,
            }
        labels.append({"id": ident, "map": expected, "slots": list(schema.slot_names())})
    (work / "stub_index.json").write_text(json.dumps(index, ensure_ascii=False), encoding="utf-8")
    return {"model": STUB_MODEL, "dialogues": labels}


BUILDERS = {
    "eval_longtext": _eval_longtext,
    "reject_messy": _reject_messy,
    "multistep_http": _multistep_http,
}


def generate(workload: str, seed: int, work: Path, root: Path) -> dict:
    """Write the workload's inputs under work/ and return its labels."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    (work / "catalog.json").write_text(json.dumps(_catalog_obj(), indent=2) + "\n", encoding="utf-8")
    labels = BUILDERS[workload](work, rng, _Values(rng, load_oracle(root)))
    labels["seed"] = seed
    (work / "labels.json").write_text(json.dumps(labels, ensure_ascii=False), encoding="utf-8")
    return labels
