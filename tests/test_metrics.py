import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arground.errors import AlignmentError, EmptyCorpus
from arground.metrics import (
    METRICS_CSV_COLUMNS,
    char_f1,
    corpus_bleu,
    corpus_char_f1,
    evaluate_corpus,
    fuzzy_match_rate,
    metrics_report_csv,
    strict_match_rate,
)
from arground.parsing import serialize_argument_map
from arground.schema import ApiSchema, SlotSpec
from arground.scoring import classify_errors

from oracle import ref_corpus_bleu, ref_fuzzy_match_rate, ref_strict_match_rate


def amap(*pairs):
    return dict(pairs)


GOLD2 = amap(("name", "john"), ("time", "3pm"))


class TestFuzzyMatchRate:
    def test_identity_corpus(self):
        pairs = [(GOLD2, GOLD2)] * 3
        assert fuzzy_match_rate(breakdowns_for(pairs)) == 100.0

    def test_all_empty_predictions(self):
        pairs = [(amap(), GOLD2)] * 3
        assert fuzzy_match_rate(breakdowns_for(pairs)) == 0.0

    def test_half_matched(self):
        pairs = [(amap(("name", "john")), GOLD2)]
        assert fuzzy_match_rate(breakdowns_for(pairs)) == 50.0

    def test_typos_tolerated(self):
        pred = amap(("name", "cristopher"))
        gold = amap(("name", "christopher"))
        assert fuzzy_match_rate(breakdowns_for([(pred, gold)])) == 100.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fuzzy_match_rate(breakdowns_for([]))

    def test_strict_variant(self):
        pairs = [(GOLD2, GOLD2), (amap(("name", "john")), GOLD2)]
        assert strict_match_rate(breakdowns_for(pairs)) == 50.0


class TestCharF1:
    def test_identity(self):
        assert char_f1(amap(("name", "john")), amap(("name", "john"))) == 1.0

    def test_hand_computed_prefix(self):
        # pred jess vs gold jessica: P=4/4, R=4/7, F1=8/11
        value = char_f1(amap(("name", "jess")), amap(("name", "jessica")))
        assert value == pytest.approx(8 / 11, abs=1e-12)
        assert value == pytest.approx(0.727, abs=1e-3)

    def test_empty_prediction(self):
        assert char_f1(amap(), amap(("name", "john"))) == 0.0

    def test_both_empty(self):
        assert char_f1(amap(), amap()) == 0.0

    def test_unaligned_pred_slots_hurt_precision(self):
        pred = amap(("name", "john"), ("zz", "junk"))
        gold = amap(("name", "john"))
        # overlap 4, pred chars 8, gold chars 4 -> P=0.5, R=1
        assert char_f1(pred, gold) == pytest.approx(2 * 0.5 / 1.5, abs=1e-12)

    def test_corpus_micro_average(self):
        pairs = [
            (amap(("name", "jess")), amap(("name", "jessica"))),
            (amap(("name", "john")), amap(("name", "john"))),
        ]
        # totals: overlap 8, pred 8, gold 11
        p, r = 8 / 8, 8 / 11
        assert corpus_char_f1(pairs) == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestCorpusBleu:
    def test_identity(self):
        assert corpus_bleu([(GOLD2, GOLD2)] * 2) == pytest.approx(1.0, abs=1e-9)

    def test_empty_predictions(self):
        assert corpus_bleu([(amap(), GOLD2)] * 2) == 0.0

    def test_single_pair_against_reference(self):
        pred = amap(("name", "john"))
        gold = GOLD2
        hyp = serialize_argument_map(pred, "sorted").split()
        ref = serialize_argument_map(gold, "sorted").split()
        expected = ref_corpus_bleu([hyp], [ref])
        got = corpus_bleu([(pred, gold)])
        assert got == pytest.approx(expected, abs=1e-12)
        # frozen sanity value: bp=e^-1, p1=1/2, p2=1/2, p3=p4=1
        assert got == pytest.approx(0.2601300475114445, abs=1e-12)

    def test_random_corpus_against_reference(self):
        rng = random.Random(7)
        vocab = ["john", "jess", "3pm", "noon", "red", "42"]
        keys = ["name", "time", "color", "guests"]
        pairs = []
        for _ in range(25):
            def rand_map():
                chosen = rng.sample(keys, rng.randint(0, len(keys)))
                return {k: rng.choice(vocab) for k in sorted(chosen)}

            pairs.append((rand_map(), rand_map()))
        hyps = [serialize_argument_map(p, "sorted").split() for p, _ in pairs]
        refs = [serialize_argument_map(g, "sorted").split() for _, g in pairs]
        assert corpus_bleu(pairs) == pytest.approx(ref_corpus_bleu(hyps, refs), abs=1e-12)

    def test_key_order_cannot_perturb(self):
        pred_a = amap(("name", "john"), ("time", "3pm"))
        pred_b = amap(("time", "3pm"), ("name", "john"))
        assert corpus_bleu([(pred_a, GOLD2)]) == corpus_bleu([(pred_b, GOLD2)])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_bleu([])


# --- exact agreement: the metrics CSV is pinned byte for byte ---------------------

_REPEATING = ["a a b a a b", "a a b a a b a a b", "b b b b b", "a b a b a b a b", "a a a"]


def _repeating_corpus(seed):
    """Gold values that repeat n-grams at every order; predictions of 0 to 3 value tokens or near copies."""
    rng = random.Random(seed)
    keys = ["name", "note", "time"]
    pairs = []
    for _ in range(40):
        gold = {key: rng.choice(_REPEATING) for key in rng.sample(keys, rng.randint(1, len(keys)))}
        pred = {}
        for key in rng.sample(keys, rng.randint(0, len(keys))):
            if rng.random() < 0.5:
                pred[key] = " ".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            else:
                pred[key] = rng.choice(_REPEATING)
        pairs.append((pred, gold))
    pairs.append(({}, {"name": "a a b a a b"}))
    return pairs


def _counter_char_f1(pairs):
    overlap = pred_chars = gold_chars = 0
    for pred, gold in pairs:
        for key, value in pred.items():
            if key in gold:
                overlap += sum((Counter(value) & Counter(gold[key])).values())
        pred_chars += sum(len(value) for value in pred.values())
        gold_chars += sum(len(value) for value in gold.values())
    precision = overlap / pred_chars if pred_chars else 0.0
    recall = overlap / gold_chars if gold_chars else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_bleu_and_char_f1_equal_their_references_exactly_on_repeated_ngrams(seed):
    pairs = _repeating_corpus(seed)
    hyps = [serialize_argument_map(pred, "sorted").split() for pred, _ in pairs]
    refs = [serialize_argument_map(gold, "sorted").split() for _, gold in pairs]
    assert corpus_bleu(pairs) == ref_corpus_bleu(hyps, refs)
    assert corpus_char_f1(pairs) == _counter_char_f1(pairs)
    for pair, hyp, ref in zip(pairs, hyps, refs):
        assert corpus_bleu([pair]) == ref_corpus_bleu([hyp], [ref])
        assert corpus_char_f1([pair]) == _counter_char_f1([pair])


SCHEMA = ApiSchema(
    "toy",
    "toy",
    (SlotSpec("name", "free-text", ""), SlotSpec("time", "time", ""), SlotSpec("x", "free-text", "")),
)


def breakdowns_for(pairs):
    return [classify_errors(pred, gold, SCHEMA) for pred, gold in pairs]


class TestEvaluateCorpus:
    def test_identity_report(self):
        pairs = [(GOLD2, GOLD2)] * 4
        report = evaluate_corpus(pairs, breakdowns_for(pairs))
        assert report.bleu == pytest.approx(1.0, abs=1e-9)
        assert report.fm == 100.0
        assert report.f1 == pytest.approx(1.0, abs=1e-9)
        assert report.fm_strict == 100.0
        assert (report.nk_rate, report.mk_rate, report.sv_rate, report.hv_rate) == (0, 0, 0, 0)
        assert report.n_samples == 4

    def test_single_mk_per_sample(self):
        pairs = [(amap(("name", "john")), GOLD2)] * 3
        report = evaluate_corpus(pairs, breakdowns_for(pairs))
        assert report.mk_rate == 0.25
        assert report.nk_rate == report.sv_rate == report.hv_rate == 0.0

    def test_empty_prediction_corpus(self):
        pairs = [(amap(), GOLD2)] * 2
        report = evaluate_corpus(pairs, breakdowns_for(pairs))
        assert report.fm == 0.0
        assert report.f1 == 0.0
        assert report.mk_rate == 0.5

    def test_alignment_error(self):
        pairs = [(GOLD2, GOLD2)]
        with pytest.raises(AlignmentError):
            evaluate_corpus(pairs, [])

    def test_mismatched_breakdown(self):
        pairs = [(GOLD2, GOLD2), (amap(("name", "john")), amap(("name", "john")))]
        swapped = list(reversed(breakdowns_for(pairs)))
        with pytest.raises(AlignmentError):
            evaluate_corpus(pairs, swapped)

    def test_rates_reconstruct_error_sum(self):
        pairs = [
            (amap(("name", "jeff"), ("zz", "x")), GOLD2),
            (amap(("time", "purple")), GOLD2),
        ]
        bds = breakdowns_for(pairs)
        report = evaluate_corpus(pairs, bds)
        total = sum(b.n_total for b in bds)
        rate_sum = report.nk_rate + report.mk_rate + report.sv_rate + report.hv_rate
        assert rate_sum * total == pytest.approx(sum(b.n_error for b in bds), abs=1e-9)

    def test_csv_shape(self):
        pairs = [(GOLD2, GOLD2)]
        report = evaluate_corpus(pairs, breakdowns_for(pairs))
        text = metrics_report_csv(report, "sgd", "in-domain", "mock")
        header, row = text.strip().split("\n")
        assert header == ",".join(METRICS_CSV_COLUMNS)
        fields = row.split(",")
        assert fields[:3] == ["sgd", "in-domain", "mock"]
        assert float(fields[3]) == pytest.approx(1.0)
        assert fields[10] == "1"


# --- invariance / sensitivity properties ---------------------------------------

@given(st.randoms())
@settings(max_examples=50)
def test_key_reordering_invariance(rng):
    entries = [("name", "john"), ("time", "3pm"), ("x", "deep dish")]
    rng.shuffle(entries)
    pred = dict(entries)
    rng.shuffle(entries)
    gold = dict(entries)
    pairs_a = [(pred, gold)]
    pairs_b = [(dict(sorted(pred.items())), dict(sorted(gold.items())))]
    assert fuzzy_match_rate(breakdowns_for(pairs_a)) == fuzzy_match_rate(breakdowns_for(pairs_b))
    assert corpus_char_f1(pairs_a) == corpus_char_f1(pairs_b)


@given(st.integers(min_value=0, max_value=6))
def test_typo_moves_f1_but_not_fm(position):
    gold_value = "belgrade"  # length 8 >= 7
    typo = gold_value[:position] + "q" + gold_value[position + 1 :]
    pred = amap(("name", typo))
    gold = amap(("name", gold_value))
    assert fuzzy_match_rate(breakdowns_for([(pred, gold)])) == 100.0
    assert char_f1(pred, gold) < 1.0


_VALUES = ["john", "jon", "johnny", "3pm", "4pm", "deep dish pizza", "deep dish pizzas", "purple"]


def _maps(keys):
    return st.dictionaries(st.sampled_from(keys), st.sampled_from(_VALUES), max_size=len(keys))


@given(st.lists(st.tuples(_maps(["name", "time", "x", "zz"]), _maps(["name", "time", "x"])), min_size=1, max_size=6))
@settings(max_examples=150)
def test_fm_agrees_with_oracle(pairs):
    report = evaluate_corpus(pairs, breakdowns_for(pairs))
    samples = [(list(pred.items()), list(gold.items())) for pred, gold in pairs]
    assert report.fm == pytest.approx(ref_fuzzy_match_rate(samples), abs=1e-9)
    assert report.fm_strict == pytest.approx(ref_strict_match_rate(samples), abs=1e-9)
