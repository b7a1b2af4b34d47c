"""BLEU against a from-scratch oracle: explicit window enumeration, exact
fraction arithmetic, no shared helpers with the implementation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ktransformer.metrics import (
    BleuReport,
    bleu,
    brevity_penalty,
    clipped_counts,
    corpus_bleu,
    length_bucket_report,
    ngram_precision,
)


def oracle_clipped(candidate, reference, n):
    """Count matches by scanning candidate windows and consuming reference
    windows one at a time."""
    ref_windows = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
    matched = 0
    budget = list(ref_windows)
    for i in range(len(candidate) - n + 1):
        w = tuple(candidate[i : i + n])
        if w in budget:
            budget.remove(w)
            matched += 1
    total = max(len(candidate) - n + 1, 0)
    return matched, total


def oracle_bleu(candidate, reference, n_max=4, smooth=False):
    """Recompute the full score per the stated definition."""
    precisions = []
    for n in range(1, n_max + 1):
        m, t = oracle_clipped(candidate, reference, n)
        if t == 0:
            precisions.append(None)
        elif smooth and n > 1:
            precisions.append(Fraction(m + 1, t + 1))
        else:
            precisions.append(Fraction(m, t))
    valid = [p for p in precisions if p is not None]
    if not valid:
        return 0.0
    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    if any(p == 0 for p in valid):
        return 0.0
    w = 1.0 / len(valid)
    return bp * math.exp(sum(w * math.log(float(p)) for p in valid))


def random_pair(rng, vmax=6, cmin=1, cmax=12, rmin=1, rmax=12):
    vocab = [f"t{i}" for i in range(vmax)]
    cand = [vocab[int(rng.integers(0, vmax))] for _ in range(int(rng.integers(cmin, cmax + 1)))]
    ref = [vocab[int(rng.integers(0, vmax))] for _ in range(int(rng.integers(rmin, rmax + 1)))]
    return cand, ref


# ------------------------------------------------------------ counts


def test_clipping_hand_case():
    cand = ["the", "the", "the"]
    ref = ["the", "cat"]
    assert clipped_counts(cand, ref, 1) == (1, 3)
    assert ngram_precision(cand, ref, 1) == Fraction(1, 3)


def test_counts_match_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cand, ref = random_pair(rng)
        for n in range(1, 5):
            assert clipped_counts(cand, ref, n) == oracle_clipped(cand, ref, n)


def test_short_candidate_order_undefined():
    assert clipped_counts(["a", "b"], ["a", "b", "c"], 3) == (0, 0)
    assert ngram_precision(["a", "b"], ["a", "b", "c"], 3) is None


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        clipped_counts(["a"], ["a"], 0)
    with pytest.raises(ValueError):
        bleu(["a"], ["a"], n_max=0)
    with pytest.raises(ValueError):
        corpus_bleu([(["a"], ["a"])], n_max=0)


# ------------------------------------------------------------ brevity


def test_brevity_hand_cases():
    assert brevity_penalty(10, 5) == 1.0
    assert brevity_penalty(5, 5) == 1.0
    assert abs(brevity_penalty(5, 10) - math.exp(-1.0)) < 1e-12
    assert abs(brevity_penalty(5, 10) - 0.367879441) < 1e-9


def test_brevity_requires_positive_lengths():
    with pytest.raises(ValueError):
        brevity_penalty(0, 5)
    with pytest.raises(ValueError):
        brevity_penalty(5, 0)


# ------------------------------------------------------------ sentence bleu


def test_identity_scores_one():
    toks = ["a", "quick", "brown", "fox", "jumps"]
    rep = bleu(toks, toks)
    assert rep.score == 1.0
    assert rep.bp == 1.0
    assert all(p == 1 for p in rep.precisions)


def test_disjoint_scores_zero():
    rep = bleu(["x", "y", "z", "w"], ["a", "b", "c", "d"])
    assert rep.score == 0.0


def test_zero_fourgram_zeroes_unsmoothed_score():
    cand = ["a", "b", "c", "x", "a", "b", "c"]  # shares unigrams but no 4-gram
    ref = ["a", "b", "q", "c", "a", "b", "q"]
    rep = bleu(cand, ref)
    assert rep.precisions[0] > 0
    assert rep.precisions[3] == 0
    assert rep.score == 0.0
    smoothed = bleu(cand, ref, smooth=True)
    assert smoothed.score > 0.0


def test_two_token_candidate_renormalizes_weights():
    rep = bleu(["a", "b"], ["a", "b", "c"])
    assert rep.precisions[2] is None and rep.precisions[3] is None
    assert rep.weights == [0.5, 0.5, 0.0, 0.0]
    # P1 = 2/2, P2 = 1/1, bp = exp(1 - 3/2)
    assert abs(rep.score - math.exp(-0.5)) < 1e-12


def test_empty_candidate_scores_zero():
    rep = bleu([], ["a", "b"])
    assert rep.score == 0.0
    assert rep.bp == 0.0
    assert rep.weights == [0.0] * 4


def test_empty_reference_rejected():
    with pytest.raises(ValueError):
        bleu(["a"], [])


def test_unigram_never_smoothed():
    rep = bleu(["x", "y"], ["a", "b"], smooth=True)
    assert rep.precisions[0] == 0  # stays exact 0/2
    assert rep.precisions[1] == Fraction(1, 2)  # (0+1)/(1+1)
    assert rep.score == 0.0  # zero unigram still kills the product


def test_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(60):
        cand, ref = random_pair(rng)
        for smooth in (False, True):
            got = bleu(cand, ref, smooth=smooth).score
            want = oracle_bleu(cand, ref, smooth=smooth)
            assert abs(got - want) < 1e-12


# ------------------------------------------------------------ corpus bleu


def test_corpus_single_pair_equals_sentence():
    rng = np.random.default_rng(2)
    cand, ref = random_pair(rng)
    a = bleu(cand, ref)
    b = corpus_bleu([(cand, ref)])
    assert a.score == b.score and a.precisions == b.precisions


def test_corpus_micro_average_oracle():
    pairs = [
        (["a", "b", "c"], ["a", "b", "d"]),
        (["x", "y"], ["x", "z", "y"]),
        (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"]),
    ]
    rep = corpus_bleu(pairs)
    for n in range(1, 5):
        m = sum(oracle_clipped(c, r, n)[0] for c, r in pairs)
        t = sum(oracle_clipped(c, r, n)[1] for c, r in pairs)
        if t == 0:
            assert rep.precisions[n - 1] is None
        else:
            assert rep.precisions[n - 1] == Fraction(m, t)
    assert rep.c == sum(len(c) for c, _ in pairs)
    assert rep.r == sum(len(r) for _, r in pairs)


def test_corpus_duplicating_every_pair_keeps_score():
    rng = np.random.default_rng(3)
    pairs = [random_pair(rng) for _ in range(6)]
    a = corpus_bleu(pairs)
    b = corpus_bleu(pairs + pairs)
    assert abs(a.score - b.score) < 1e-12
    assert a.precisions == b.precisions


def test_corpus_order_invariant():
    rng = np.random.default_rng(4)
    pairs = [random_pair(rng) for _ in range(8)]
    a = corpus_bleu(pairs)
    b = corpus_bleu(list(reversed(pairs)))
    assert a.score == b.score


def test_corpus_empty_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([])


def test_corpus_empty_candidate_allowed():
    rep = corpus_bleu([([], ["a", "b"]), (["a", "b"], ["a", "b"])])
    assert 0.0 < rep.score < 1.0  # bp punishes the missing tokens


def test_corpus_counts_only_the_orders_a_candidate_has(monkeypatch):
    # orders past a candidate's length add (0, 0), so they are not counted
    import ktransformer.metrics as metrics

    calls = []

    def counting(candidate, reference, n):
        calls.append(n)
        return clipped_counts(candidate, reference, n)

    monkeypatch.setattr(metrics, "clipped_counts", counting)
    pairs = [(["a", "b", "c"], ["a", "b", "c"]), (["a", "b", "d", "e"], ["a", "b", "d"])]
    rep = corpus_bleu(pairs, n_max=2000)
    assert len(calls) == 3 + 4
    assert len(rep.precisions) == len(rep.weights) == 2000
    assert rep.precisions[4:] == [None] * 1996
    for n in range(1, 5):
        m = sum(oracle_clipped(c, r, n)[0] for c, r in pairs)
        t = sum(oracle_clipped(c, r, n)[1] for c, r in pairs)
        assert rep.precisions[n - 1] == Fraction(m, t)


# ------------------------------------------------------------ buckets


def test_bucket_partition_covers_all_pairs():
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(40):
        cand, ref = random_pair(rng, cmax=25, rmax=25)
        pairs.append((cand, ref))
    rows = length_bucket_report(pairs, bucket_edges=(5, 10, 20), lengths=[len(r) for _, r in pairs])
    assert [((r.low, r.high)) for r in rows] == [(0, 5), (5, 10), (10, 20), (20, math.inf)]
    assert sum(r.count for r in rows) == 40
    for row in rows:
        if row.count == 0:
            assert row.report is None


def test_bucket_rows_match_manual_split():
    rng = np.random.default_rng(6)
    pairs = [random_pair(rng, cmax=15, rmax=15) for _ in range(30)]
    rows = length_bucket_report(pairs, bucket_edges=(5, 10), lengths=[len(r) for _, r in pairs])
    for row in rows:
        manual = [(c, r) for c, r in pairs if row.low < len(r) <= row.high]
        assert len(manual) == row.count
        if manual:
            assert row.report.score == corpus_bleu(manual).score


def test_bucket_key_can_be_supplied():
    pairs = [(["a"], ["a"]), (["b", "b"], ["b", "b"])]
    rows = length_bucket_report(pairs, bucket_edges=(10,), lengths=[3, 30])
    assert rows[0].count == 1 and rows[1].count == 1


def test_bucket_bad_edges_rejected():
    with pytest.raises(ValueError):
        length_bucket_report([(["a"], ["a"])], bucket_edges=(), lengths=[1])
    with pytest.raises(ValueError):
        length_bucket_report([(["a"], ["a"])], bucket_edges=(5, 5), lengths=[1])
    with pytest.raises(ValueError):
        length_bucket_report([(["a"], ["a"])], bucket_edges=(0, 3), lengths=[1])


def test_bucket_length_count_mismatch():
    with pytest.raises(ValueError):
        length_bucket_report([(["a"], ["a"])], bucket_edges=(5,), lengths=[1, 2])
