"""BLEU scoring with exact integer n-gram arithmetic.

Clipped n-gram counts stay integers and precisions stay ``Fraction``s; the
only floating-point step is the final geometric combination with the brevity
penalty. Corpus scores are micro-averaged (counts summed before dividing).
Sentence and corpus scores live in [0, 1]; the CLI additionally prints the
conventional x100 scale.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def clipped_counts(candidate: Sequence[str], reference: Sequence[str], n: int) -> tuple[int, int]:
    """(matched, total) n-gram counts for one pair.

    Each candidate n-gram matches at most as many times as it occurs in the
    reference (clipping). ``total`` is 0 when the candidate is shorter
    than n, which marks the order as undefined for this pair.
    """
    if n < 1:
        raise ValueError(f"n-gram order must be at least 1, got {n}")
    cand = _ngram_counts(candidate, n)
    ref = _ngram_counts(reference, n)
    matched = sum(min(c, ref[g]) for g, c in cand.items())
    total = max(len(candidate) - n + 1, 0)
    return matched, total


def ngram_precision(candidate: Sequence[str], reference: Sequence[str], n: int) -> Fraction | None:
    """Clipped precision P_n as an exact ratio; None when undefined
    (candidate shorter than n)."""
    matched, total = clipped_counts(candidate, reference, n)
    if total == 0:
        return None
    return Fraction(matched, total)


def brevity_penalty(c: int, r: int) -> float:
    """1 for candidates longer than the reference, else exp(1 - r/c)."""
    if c < 1 or r < 1:
        raise ValueError(f"lengths must be at least 1, got c={c}, r={r}")
    return 1.0 if c > r else math.exp(1.0 - r / c)


@dataclass
class BleuReport:
    """Score breakdown: the final value plus everything that built it.

    ``precisions[i]`` is P_{i+1} (None where undefined) and ``weights[i]``
    the weight actually used after renormalizing over defined orders, so the
    stored weights always sum to 1 when any order is defined. An empty
    candidate has no defined orders; it scores 0 with bp reported as 0.
    """

    score: float
    bp: float
    precisions: list[Fraction | None]
    weights: list[float]
    c: int
    r: int


def _combine(counts: list[tuple[int, int]], c: int, r: int, smooth: bool) -> BleuReport:
    """Fold per-order (matched, total) counts into a BleuReport.

    The defined orders share the weight equally. Add-one smoothing, when
    enabled, bumps both matched and total by 1 for defined orders above
    unigram; unigram precision is never smoothed.
    """
    n_max = len(counts)
    precisions: list[Fraction | None] = []
    for i, (matched, total) in enumerate(counts):
        if total == 0:
            precisions.append(None)
        elif smooth and i > 0:
            precisions.append(Fraction(matched + 1, total + 1))
        else:
            precisions.append(Fraction(matched, total))

    valid = [i for i in range(n_max) if precisions[i] is not None]
    if not valid:
        return BleuReport(score=0.0, bp=0.0, precisions=precisions, weights=[0.0] * n_max, c=c, r=r)

    bp = brevity_penalty(c, r)
    base = 1.0 / n_max
    weight = base / sum(base for _ in valid)
    weights = [weight if i in valid else 0.0 for i in range(n_max)]
    if any(precisions[i] == 0 for i in valid):
        score = 0.0
    else:
        score = bp * math.exp(sum(weights[i] * math.log(float(precisions[i])) for i in valid))
    return BleuReport(score=score, bp=bp, precisions=precisions, weights=weights, c=c, r=r)


def bleu(candidate: Sequence[str], reference: Sequence[str], n_max: int = 4, smooth: bool = False) -> BleuReport:
    """Sentence BLEU: the corpus score of the one pair, so bp times the
    geometric mean of P_1..P_n_max.

    Any defined precision equal to zero makes the score 0 unless smoothing
    is on; orders where the candidate is too short are dropped and the
    remaining orders weighed equally.
    """
    return corpus_bleu([(candidate, reference)], n_max, smooth)


def corpus_bleu(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]], n_max: int = 4, smooth: bool = False
) -> BleuReport:
    """Micro-averaged corpus BLEU: per-order matched/total counts and the
    c/r lengths are summed over all pairs before any division."""
    if len(pairs) == 0:
        raise ValueError("empty corpus")
    if n_max < 1:
        raise ValueError(f"n-gram order must be at least 1, got {n_max}")
    totals = [[0, 0] for _ in range(n_max)]
    c = r = 0
    for candidate, reference in pairs:
        if len(reference) == 0:
            raise ValueError("empty reference")
        c += len(candidate)
        r += len(reference)
        # an order longer than the candidate would add (0, 0), so it is skipped
        for n in range(1, min(n_max, len(candidate)) + 1):
            matched, total = clipped_counts(candidate, reference, n)
            totals[n - 1][0] += matched
            totals[n - 1][1] += total
    return _combine([(m, t) for m, t in totals], c, r, smooth)


@dataclass
class BucketRow:
    """One length bucket: (low, high] bounds, pair count, and its corpus
    score (None when the bucket is empty)."""

    low: int
    high: float
    count: int
    report: BleuReport | None


def length_bucket_report(
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]], bucket_edges: Sequence[int], lengths: Sequence[int]
) -> list[BucketRow]:
    """Corpus BLEU per sentence-length bucket.

    Buckets partition lengths as (0, e1], (e1, e2], ..., (e_last, inf).
    ``lengths`` holds the bucketing key of each pair, such as its source
    length.
    """
    edges = [int(e) for e in bucket_edges]
    if not edges or any(e <= 0 for e in edges) or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"bucket edges must be positive and strictly increasing, got {bucket_edges}")
    if len(lengths) != len(pairs):
        raise ValueError(f"{len(lengths)} lengths for {len(pairs)} pairs")

    bounds = [(0, edges[0])] + list(zip(edges, edges[1:])) + [(edges[-1], math.inf)]
    grouped: list[list[tuple[Sequence[str], Sequence[str]]]] = [[] for _ in bounds]
    for pair, ln in zip(pairs, lengths):
        for b, (lo, hi) in enumerate(bounds):
            if lo < ln <= hi:
                grouped[b].append(pair)
                break
        else:
            raise ValueError(f"sentence length {ln} not in any bucket")
    rows = []
    for (lo, hi), members in zip(bounds, grouped):
        report = corpus_bleu(members) if members else None
        rows.append(BucketRow(low=lo, high=hi, count=len(members), report=report))
    return rows
