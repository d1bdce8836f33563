"""Span tracer for the traced benchmark run.

It wraps the public functions of each layer from outside the program. A
module binds an imported name at import time, so the wrapper replaces the
function under every name that refers to it in every ``arground`` module
(``values_match`` is bound in ``fuzzy``, ``scoring``, ``metrics``,
``schema`` and the package itself). Methods are wrapped on their class.

The wrappers can be removed again, so a traced run can alternate traced and
untraced rounds. Span parents are tracked per thread: a span's self time is
its duration minus the time covered by its direct children on the same
thread. Spans are kept in memory and summarised when the run ends. Untraced
runs never import this module.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

# (module, attribute, span name); "Class.method" wraps a method.
TARGETS = (
    ("arground.schema", "load_schema_catalog", "schema.load_schema_catalog"),
    ("arground.schema", "load_dialogues", "schema.load_dialogues"),
    ("arground.schema", "value_conforms_to_slot", "schema.value_conforms_to_slot"),
    ("arground.prompting", "build_default_prompt", "prompting.build_default_prompt"),
    ("arground.prompting", "build_slot_prompt", "prompting.build_slot_prompt"),
    ("arground.prompting", "load_template", "prompting.load_template"),
    ("arground.prompting", "parse_slot_response", "prompting.parse_slot_response"),
    ("arground.prompting", "run_multistep", "prompting.run_multistep"),
    ("arground.generation", "HttpBackend.generate", "generation.generate"),
    ("arground.generation", "ReplayBackend.generate", "generation.generate"),
    ("arground.generation", "open_replay", "generation.open_replay"),
    ("arground.generation", "request_key", "generation.request_key"),
    ("arground.parsing", "extract_argument_map", "parsing.extract_argument_map"),
    ("arground.fuzzy", "values_match", "fuzzy.values_match"),
    ("arground.fuzzy", "levenshtein", "fuzzy.levenshtein"),
    ("arground.scoring", "classify_errors", "scoring.classify_errors"),
    ("arground.metrics", "evaluate_corpus", "metrics.evaluate_corpus"),
    ("arground.metrics", "fuzzy_match_rate", "metrics.fuzzy_match_rate"),
    ("arground.metrics", "strict_match_rate", "metrics.strict_match_rate"),
    ("arground.metrics", "corpus_bleu", "metrics.corpus_bleu"),
    ("arground.metrics", "corpus_char_f1", "metrics.corpus_char_f1"),
    ("arground.sampler", "rejection_sample", "sampler.rejection_sample"),
    ("arground.sampler", "gold_training_example", "sampler.gold_training_example"),
    ("arground.cli", "emit_error_panel", "cli.emit_error_panel"),
)

PAIR_SPAN = "fuzzy.values_match"
SCORER_SPAN = "scoring.classify_errors"
LONG_PAIR_CHARS = 64  # the eval_longtext free-text values are 124-136 chars, every other value shorter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.records: list[tuple[str, float, float, bool]] = []  # name, duration, self, raised
        # values_match pairs seen in the round: all calls, and the calls that
        # classify_errors makes on a long value (each dialogue or candidate is
        # classified once, so these repeat only across dialogues or candidates)
        self.pairs = {"all": [0, 0, set()], "long": [0, 0, set()]}  # calls, repeats, seen
        self.missing: list[str] = []
        self._installed: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        frame = [0.0, name]  # time covered by direct children, span name
        stack.append(frame)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self.records.append((name, duration, duration - frame[0], raised))

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) as a span named name (used for the CLI commands)."""
        return self.call(name, fn, args, kwargs)

    def _wrap(self, fn, name: str):
        tracer = self

        if name == PAIR_SPAN:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                key = (args[0], args[1]) if len(args) >= 2 else None
                scopes = ["all"]
                if (key and max(len(key[0]), len(key[1])) >= LONG_PAIR_CHARS
                        and any(frame[1] == SCORER_SPAN for frame in tracer._stack())):
                    scopes.append("long")
                with tracer._lock:
                    for scope in scopes:
                        counts = tracer.pairs[scope]
                        counts[0] += 1
                        if key in counts[2]:
                            counts[1] += 1
                        else:
                            counts[2].add(key)
                return tracer.call(name, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        return wrapper

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding of every target."""
        bindings = []
        modules = [m for n, m in list(sys.modules.items()) if n == "arground" or n.startswith("arground.")]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(module, owner_name, None) if module else None
            if owner is None or (method and method not in vars(owner)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if method:
                original = vars(owner)[method]
                bindings.append((owner, method, original, self._wrap(original, span_name)))
                continue
            wrapper = self._wrap(owner, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        bindings.append((mod, key, owner, wrapper))
        return bindings

    def install(self) -> None:
        """Replace every binding of each target in the loaded arground modules."""
        if self._installed is None:
            self._installed = self._bindings()
        for owner, attr, _original, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put the original functions back, so the next round runs untraced."""
        for owner, attr, original, _wrapper in self._installed or ():
            setattr(owner, attr, original)

    def reset_round(self) -> None:
        """Pairs are counted as repeats only within one round of the workload."""
        with self._lock:
            for counts in self.pairs.values():
                counts[2].clear()

    def summary(self, rounds: int) -> dict:
        """Per-round calls, busy and self seconds; per-call p50 and max in us."""
        by_name: dict[str, list] = {}
        for name, duration, self_time, raised in self.records:
            by_name.setdefault(name, []).append((duration, self_time, raised))
        out = {}
        for name, rows in by_name.items():
            durations = [r[0] for r in rows]
            out[name] = {
                "calls": len(rows) / rounds,
                "busy_s": sum(durations) / rounds,
                "self_s": sum(r[1] for r in rows) / rounds,
                "raised": sum(1 for r in rows if r[2]) / rounds,
                "us_p50": statistics.median(durations) * 1e6,
                "us_max": max(durations) * 1e6,
            }
        return {
            "spans": out,
            "repeat_pair_share": {
                scope: counts[1] / counts[0] if counts[0] else 0.0 for scope, counts in self.pairs.items()
            },
            "missing": self.missing,
        }
