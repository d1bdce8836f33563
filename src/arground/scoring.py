"""Error classification and reward for model-predicted argument maps.

Each predicted entry is judged against the schema and the gold map:

* key outside the schema            -> NK (value ignored)
* key in schema and gold, fuzzy hit -> correct
* key in schema and gold, miss      -> SV if the value conforms to the
                                       slot's kind, HV otherwise
* key in schema but not in gold     -> one error, SV/HV by conformance
* gold key absent from prediction   -> MK (one error per missing slot)

n_total counts keys AND values of the gold map (2 per slot); the reward
1 - 2 * n_error / n_total is clamped to [-1, 1]. For an empty gold map
the reward is 1 for an empty prediction and -1 otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidBreakdown
from .fuzzy import values_match
from .schema import ApiSchema, ArgumentMap, value_conforms_to_slot

VERDICT_CORRECT = "correct"
VERDICT_NK = "NK"
VERDICT_MK = "MK"
VERDICT_SV = "SV"
VERDICT_HV = "HV"

# No real map has more slots than this. A float holds every count up to it
# exactly, and rates summed over any number of rows stay finite.
MAX_COUNT = 2**53


class ErrorBreakdown(NamedTuple):
    """Per-sample error counts, gold size, and the resulting reward."""

    n_nk: int
    n_mk: int
    n_sv: int
    n_hv: int
    n_total: int
    reward: float
    per_slot_verdicts: tuple[tuple[str, str], ...] = ()

    @property
    def n_error(self) -> int:
        return self.n_nk + self.n_mk + self.n_sv + self.n_hv

    def to_obj(self) -> dict:
        return {
            "n_nk": self.n_nk,
            "n_mk": self.n_mk,
            "n_sv": self.n_sv,
            "n_hv": self.n_hv,
            "n_total": self.n_total,
            "reward": self.reward,
            "verdicts": [[k, v] for k, v in self.per_slot_verdicts],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ErrorBreakdown":
        """Inverse of :meth:`to_obj`; raises InvalidBreakdown on a breakdown that
        :func:`classify_errors` could not have written: a missing field, a count
        that is not an integer in [0, MAX_COUNT], an odd ``n_total`` or one below
        ``2 * n_mk``, or a reward that is not ``reward_value`` of the counts."""
        try:
            counts = [obj[name] for name in ("n_nk", "n_mk", "n_sv", "n_hv", "n_total")]
            if not all(type(n) is int and 0 <= n <= MAX_COUNT for n in counts):
                raise InvalidBreakdown(f"malformed breakdown: counts must be integers in [0, 2**53], got {counts}")
            n_nk, n_mk, n_sv, n_hv, n_total = counts
            if n_total % 2 or 2 * n_mk > n_total:
                raise InvalidBreakdown(f"malformed breakdown: n_total {n_total} is odd or below 2 * n_mk {n_mk}")
            reward = obj["reward"]
            # reward_value is always finite, so this also refuses NaN and infinities
            if type(reward) not in (int, float) or reward != reward_value(n_nk + n_mk + n_sv + n_hv, n_total):
                raise InvalidBreakdown(f"malformed breakdown: reward {reward!r} does not follow from the counts")
            verdicts = tuple((k, v) for k, v in obj.get("verdicts", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidBreakdown(f"malformed breakdown: {type(exc).__name__} {exc}") from exc
        return cls(n_nk, n_mk, n_sv, n_hv, n_total, float(reward), verdicts)


def reward_value(n_error: int, n_total: int) -> float:
    """Reward 1 - 2*n_error/n_total clamped to [-1, 1]; empty-gold edge per docstring above."""
    if n_total == 0:
        return 1.0 if n_error == 0 else -1.0
    raw = 1.0 - 2.0 * n_error / n_total
    return max(-1.0, min(1.0, raw))


def classify_errors(pred: ArgumentMap, gold: ArgumentMap, schema: ApiSchema) -> ErrorBreakdown:
    """Classify every predicted entry and missing gold slot; compute the reward.

    Every gold key must be a slot of ``schema``, as it is for dialogues from
    ``load_dialogues(…, catalog)``; it is not checked here.
    """
    slots = schema.by_name
    n_nk = n_mk = n_sv = n_hv = 0
    verdicts: list[tuple[str, str]] = []

    for key, value in pred.items():
        slot = slots.get(key)
        if slot is None:
            n_nk += 1
            verdicts.append((key, VERDICT_NK))
            continue
        if key in gold and values_match(value, gold[key]):
            verdicts.append((key, VERDICT_CORRECT))
        elif value_conforms_to_slot(slot, value):
            n_sv += 1
            verdicts.append((key, VERDICT_SV))
        else:
            n_hv += 1
            verdicts.append((key, VERDICT_HV))

    for key in gold:
        if key not in pred:
            n_mk += 1
            verdicts.append((key, VERDICT_MK))

    n_total = 2 * len(gold)
    n_error = n_nk + n_mk + n_sv + n_hv
    return ErrorBreakdown(
        n_nk=n_nk,
        n_mk=n_mk,
        n_sv=n_sv,
        n_hv=n_hv,
        n_total=n_total,
        reward=reward_value(n_error, n_total),
        per_slot_verdicts=tuple(verdicts),
    )
