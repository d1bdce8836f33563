import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arground.fuzzy import char_overlap, levenshtein, values_match
from arground.schema import ApiSchema, SlotSpec
from arground.scoring import ErrorBreakdown, classify_errors, reward_value

from oracle import edit_distance, ref_breakdown, ref_values_match


def amap(*pairs):
    return dict(pairs)


GOLD = amap(("name", "john"), ("time", "3pm"))


class TestValuesMatch:
    def test_identity(self):
        assert values_match("new york", "new york") is True

    def test_single_typo_long_word(self):
        # edit distance 1 over max length 11 -> similarity ~0.909
        assert edit_distance("cristopher", "christopher") == 1
        assert values_match("cristopher", "christopher") is True

    def test_short_substitution(self):
        assert edit_distance("3pm", "noon") == 4
        assert values_match("3pm", "noon") is False

    def test_threshold_boundary(self):
        # 1 edit over 5 chars = 0.8 < 0.85
        assert values_match("jessi", "jess") is False

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric_and_agrees_with_oracle(self, a, b):
        assert levenshtein(a, b) == edit_distance(a, b)
        assert values_match(a, b) == ref_values_match(a, b)
        assert values_match(a, b) == values_match(b, a)

    @given(st.text(max_size=12))
    def test_self_similarity(self, a):
        assert levenshtein(a, a) == 0 and values_match(a, a)


# --- levenshtein / values_match against the oracle on longer strings ----------

SMALL_ALPHABET = "ab c"
NON_BMP_ALPHABET = "a\u00e9\U0001f600\U00010348\U0001d11e"


@st.composite
def near_miss_pairs(draw, alphabet=SMALL_ALPHABET, max_size=300):
    """A base string and a copy with a few random inserts, deletes and substitutions."""
    size = draw(st.integers(0, max_size))
    base = draw(st.text(alphabet=alphabet, min_size=size, max_size=size))
    edits = st.tuples(st.sampled_from("ids"), st.integers(0, max_size), st.sampled_from(alphabet))
    chars = list(base)
    for op, pos, char in draw(st.lists(edits, max_size=max(1, len(base) // 4))):
        pos %= len(chars) + 1
        if op == "i":
            chars.insert(pos, char)
        elif pos < len(chars):
            if op == "d":
                del chars[pos]
            else:
                chars[pos] = char
    return base, "".join(chars)


@st.composite
def shared_affix_pairs(draw):
    affix = st.text(alphabet=SMALL_ALPHABET, max_size=120)
    middle = st.text(alphabet=SMALL_ALPHABET, max_size=20)
    prefix, suffix = draw(affix), draw(affix)
    return prefix + draw(middle) + suffix, prefix + draw(middle) + suffix


@st.composite
def boundary_gap_pairs(draw):
    """Pairs whose length gap is 15% of the longer string, or one char either side."""
    k = draw(st.integers(1, 15))
    gold = draw(st.text(alphabet=SMALL_ALPHABET, min_size=20 * k, max_size=20 * k))
    gap = 3 * k + draw(st.sampled_from((-1, 0, 1)))
    cut = draw(st.integers(0, len(gold) - gap))
    chars = list(gold[:cut] + gold[cut + gap :])
    for pos in draw(st.lists(st.integers(0, len(chars) - 1), max_size=2)):
        chars[pos] = "b" if chars[pos] == "a" else "a"
    pred = "".join(chars)
    return (pred, gold) if draw(st.booleans()) else (gold, pred)


def _agrees_with_oracle(pair):
    a, b = pair
    assert levenshtein(a, b) == edit_distance(a, b)
    assert values_match(a, b) == ref_values_match(a, b)
    assert values_match(b, a) == values_match(a, b)


@given(near_miss_pairs())
@settings(max_examples=40, deadline=None)
def test_near_miss_pairs_agree_with_oracle(pair):
    _agrees_with_oracle(pair)


@given(shared_affix_pairs())
@settings(deadline=None)
def test_shared_prefix_and_suffix_agree_with_oracle(pair):
    _agrees_with_oracle(pair)


@given(near_miss_pairs(alphabet=NON_BMP_ALPHABET, max_size=60))
@settings(deadline=None)
def test_non_bmp_pairs_agree_with_oracle(pair):
    _agrees_with_oracle(pair)


@given(boundary_gap_pairs())
@settings(max_examples=40, deadline=None)
@example(("a" * 17, "a" * 20))
@example(("a" * 16 + "b", "a" * 20))
def test_length_gap_at_threshold_agrees_with_oracle(pair):
    _agrees_with_oracle(pair)


# --- the exact bounds values_match settles pairs with, against the oracle -------
# Equal-length substitutions are settled by the Hamming upper bound at the
# largest matching distance and fall through one above it; rotations and shifts
# have a Hamming distance far above the edit distance, so they must reach
# Myers; permutations have a bag distance of 0 and a large edit distance.

ALPHABETS = (SMALL_ALPHABET, NON_BMP_ALPHABET)
derandomized = settings(derandomize=True, max_examples=60, deadline=None)


def _largest_matching_distance(length):
    return max(d for d in range(length + 1) if 1.0 - d / length >= 0.85)


@st.composite
def substitution_pairs(draw, alphabet):
    """A string and a copy with substitutions at the largest matching Hamming distance, or one more."""
    gold = draw(st.text(alphabet=alphabet, min_size=7, max_size=140))
    hamming = min(len(gold), _largest_matching_distance(len(gold)) + draw(st.sampled_from((0, 1))))
    positions = draw(st.lists(st.integers(0, len(gold) - 1), min_size=hamming, max_size=hamming, unique=True))
    chars = list(gold)
    for pos in positions:
        chars[pos] = draw(st.sampled_from([c for c in alphabet if c != gold[pos]]))
    return "".join(chars), gold


@st.composite
def shifted_pairs(draw, alphabet):
    """A string and its rotation, or the string shifted left with new characters appended."""
    gold = draw(st.text(alphabet=alphabet, min_size=2, max_size=140))
    k = draw(st.integers(1, max(1, len(gold) // 8)))
    if draw(st.booleans()):
        return gold[k:] + gold[:k], gold
    return gold[k:] + draw(st.text(alphabet=alphabet, min_size=k, max_size=k)), gold


@st.composite
def permuted_pairs(draw, alphabet):
    gold = draw(st.text(alphabet=alphabet, min_size=1, max_size=60))
    return "".join(draw(st.permutations(gold))), gold


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_substitutions_at_the_hamming_boundary_agree_with_oracle(alphabet):
    derandomized(given(substitution_pairs(alphabet))(_agrees_with_oracle))()


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_rotations_and_shifts_agree_with_oracle(alphabet):
    derandomized(given(shifted_pairs(alphabet))(_agrees_with_oracle))()


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_permutations_agree_with_oracle(alphabet):
    derandomized(given(permuted_pairs(alphabet))(_agrees_with_oracle))()


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_char_overlap_is_the_multiset_intersection(alphabet):
    @derandomized
    @given(st.text(alphabet=alphabet, max_size=40), st.text(alphabet=alphabet, max_size=40))
    def check(a, b):
        assert char_overlap(a, b) == sum((Counter(a) & Counter(b)).values())

    check()


class TestClassifyErrors:
    def test_perfect_match(self, hair_schema):
        b = classify_errors(amap(("name", "john"), ("time", "3pm")), GOLD, hair_schema)
        assert (b.n_nk, b.n_mk, b.n_sv, b.n_hv) == (0, 0, 0, 0)
        assert b.reward == 1.0
        assert b.n_total == 4

    def test_missing_key(self, hair_schema):
        b = classify_errors(amap(("name", "john")), GOLD, hair_schema)
        assert b.n_mk == 1 and b.n_error == 1
        assert b.reward == 0.5

    def test_non_existent_key(self, hair_schema):
        b = classify_errors(
            amap(("name", "john"), ("time", "3pm"), ("color", "red")), GOLD, hair_schema
        )
        assert b.n_nk == 1
        assert b.reward == 0.5

    def test_hallucinated_value(self, hair_schema):
        b = classify_errors(amap(("name", "john"), ("time", "purple")), GOLD, hair_schema)
        assert b.n_hv == 1
        assert b.reward == 0.5

    def test_schema_grounded_wrong_value(self, hair_schema):
        b = classify_errors(amap(("name", "jack"), ("time", "3pm")), GOLD, hair_schema)
        assert b.n_sv == 1
        assert b.reward == 0.5

    def test_predicted_slot_outside_gold(self, hair_schema):
        # stylist is in the schema but not the gold: one error, typed by conformance
        b = classify_errors(
            amap(("name", "john"), ("time", "3pm"), ("stylist", "jess")), GOLD, hair_schema
        )
        assert b.n_sv == 1 and b.n_error == 1
        b = classify_errors(
            amap(("name", "john"), ("time", "3pm"), ("stylist", "zorp")), GOLD, hair_schema
        )
        assert b.n_hv == 1 and b.n_error == 1

    def test_verdicts_cover_pred_and_missing(self, hair_schema):
        b = classify_errors(amap(("color", "red")), GOLD, hair_schema)
        assert b.per_slot_verdicts == (("color", "NK"), ("name", "MK"), ("time", "MK"))

    def test_round_trip_obj(self, hair_schema):
        b = classify_errors(amap(("name", "jack")), GOLD, hair_schema)
        assert ErrorBreakdown.from_obj(b.to_obj()) == b


class TestReward:
    def test_zero_errors(self):
        assert reward_value(0, 4) == 1.0

    def test_half_errors(self):
        assert reward_value(2, 4) == 0.0

    def test_clamped_below(self):
        assert reward_value(5, 2) == -1.0

    def test_empty_gold_edge(self):
        assert reward_value(0, 0) == 1.0
        assert reward_value(3, 0) == -1.0

    def test_clamp_case_constructed(self, hair_schema):
        gold = amap(("name", "john"))
        pred = amap(("z1", "a"), ("z2", "a"), ("z3", "a"), ("z4", "a"))
        b = classify_errors(pred, gold, hair_schema)
        assert (b.n_nk, b.n_mk) == (4, 1)
        assert b.reward == -1.0

    def test_reward_of_matches_field(self, hair_schema):
        b = classify_errors(amap(("name", "john")), GOLD, hair_schema)
        assert b.reward == reward_value(b.n_error, b.n_total)


# --- property tests -----------------------------------------------------------

SCHEMA = ApiSchema(
    "toy",
    "toy schema",
    (
        SlotSpec("a", "free-text", "a"),
        SlotSpec("b", "time", "b"),
        SlotSpec("c", "categorical", "c", ("jess", "jack")),
    ),
)
VALUES = ("jess", "jack", "3pm", "purple")
KEYS = ("a", "b", "c", "zz")


def pred_maps():
    return st.lists(
        st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)), max_size=4, unique_by=lambda t: t[0]
    ).map(dict)


def gold_maps():
    return st.lists(
        st.tuples(st.sampled_from(("a", "b", "c")), st.sampled_from(VALUES)),
        max_size=3,
        unique_by=lambda t: t[0],
    ).map(dict)


@given(pred_maps(), gold_maps())
@settings(max_examples=300)
def test_summation_invariant_and_range(pred, gold):
    b = classify_errors(pred, gold, SCHEMA)
    assert b.n_error == b.n_nk + b.n_mk + b.n_sv + b.n_hv
    assert -1.0 <= b.reward <= 1.0
    assert (b.reward == 1.0) == (b.n_error == 0)
    assert b.n_total == 2 * len(gold)


@given(pred_maps(), gold_maps())
@settings(max_examples=200)
def test_adding_nk_never_increases_reward(pred, gold):
    b_before = classify_errors(pred, gold, SCHEMA)
    extended = {**pred, "not_a_slot": "x"}
    b_after = classify_errors(extended, gold, SCHEMA)
    assert b_after.reward <= b_before.reward
    assert b_after.n_nk == b_before.n_nk + 1


@given(pred_maps(), gold_maps(), st.randoms())
@settings(max_examples=200)
def test_permutation_invariance(pred, gold, rng):
    entries = list(pred.items())
    rng.shuffle(entries)
    shuffled = dict(entries)
    b1 = classify_errors(pred, gold, SCHEMA)
    b2 = classify_errors(shuffled, gold, SCHEMA)
    assert (b1.n_nk, b1.n_mk, b1.n_sv, b1.n_hv, b1.reward) == (
        b2.n_nk,
        b2.n_mk,
        b2.n_sv,
        b2.n_hv,
        b2.reward,
    )
    assert sorted(b1.per_slot_verdicts) == sorted(b2.per_slot_verdicts)


def test_exhaustive_small_instance_oracle_equivalence():
    """Enumerate every prediction over 4 keys x 4 values against two golds."""
    slot_triples = [(s.name, s.kind, s.allowed_values) for s in SCHEMA.slots]
    golds = [(), (("a", "jess"), ("b", "3pm"))]
    options = [None, *VALUES]
    checked = 0
    for gold_pairs in golds:
        gold = dict(gold_pairs)
        for assignment in itertools.product(options, repeat=len(KEYS)):
            pairs = tuple(
                (key, value) for key, value in zip(KEYS, assignment) if value is not None
            )
            pred = dict(pairs)
            mine = classify_errors(pred, gold, SCHEMA)
            ref = ref_breakdown(list(pairs), list(gold_pairs), slot_triples)
            assert (mine.n_nk, mine.n_mk, mine.n_sv, mine.n_hv, mine.n_total) == (
                ref["n_nk"],
                ref["n_mk"],
                ref["n_sv"],
                ref["n_hv"],
                ref["n_total"],
            )
            assert abs(mine.reward - ref["reward"]) <= 1e-12
            checked += 1
    assert checked == 2 * len(options) ** len(KEYS)
