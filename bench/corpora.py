"""Synthetic parallel corpora for the benchmark, generated from a seed.

Two task families, built with the same recipes as the test suite's
synthetic data but kept here so the benchmark never imports the tests:

- copy: the target repeats the source verbatim;
- topic: sentences come from one of two disjoint content vocabularies and
  carry one or two ambiguous tokens whose translation depends on the topic.

Every generator takes a ``seed`` that numpy's ``default_rng`` accepts (an
int or a list of ints), so one workload seed can feed several independent
streams.
"""

from __future__ import annotations

import numpy as np

from ktransformer.corpus import ParallelCorpus, Vocabulary, build_vocab

PROFILE = "space_tokenized"

COPY_VOCAB = 40     # copy-task vocabulary size
COPY_MIN_LEN = 3
COPY_MAX_LEN = 20

TOPIC_CONTENT = 6   # content tokens per topic
TOPIC_AMBIG = 2     # tokens shared by both topics


def copy_sentences(n: int, seed) -> list[list[str]]:
    """Uniform random strings over ``COPY_VOCAB`` tokens, lengths uniform
    in [COPY_MIN_LEN, COPY_MAX_LEN]."""
    rng = np.random.default_rng(seed)
    tokens = [f"w{i:02d}" for i in range(COPY_VOCAB)]
    out = []
    for _ in range(n):
        length = int(rng.integers(COPY_MIN_LEN, COPY_MAX_LEN + 1))
        out.append([tokens[int(rng.integers(0, COPY_VOCAB))] for _ in range(length)])
    return out


def copy_lines_by_length(per_length: int, seed) -> list[list[str]]:
    """``per_length`` random strings of every length in [COPY_MIN_LEN,
    COPY_MAX_LEN], in seeded random order: the seed changes the tokens and
    the order, never the length mix."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.repeat(np.arange(COPY_MIN_LEN, COPY_MAX_LEN + 1), per_length))
    return [[f"w{int(i):02d}" for i in rng.integers(0, COPY_VOCAB, size=int(n))] for n in lengths]


def copy_corpus(n: int, seed) -> ParallelCorpus:
    src = copy_sentences(n, seed)
    return ParallelCorpus(src, [list(s) for s in src], PROFILE, PROFILE)


def _topic_target(token: str, topic: int) -> str:
    # content maps 1:1; ambiguous tokens resolve by sentence topic
    if token.startswith("x"):
        return ("XA" if topic == 0 else "XB") + token[1:]
    return token.upper()


def topic_corpus(n: int, seed, min_len: int = 5, max_len: int = 9) -> ParallelCorpus:
    rng = np.random.default_rng(seed)
    pools = ([f"a{i}" for i in range(TOPIC_CONTENT)], [f"b{i}" for i in range(TOPIC_CONTENT)])
    ambig = [f"x{i}" for i in range(TOPIC_AMBIG)]
    src, tgt = [], []
    for _ in range(n):
        topic = int(rng.integers(0, 2))
        pool = pools[topic]
        length = int(rng.integers(min_len, max_len + 1))
        n_ambig = int(rng.integers(1, TOPIC_AMBIG + 1))
        sent = [pool[int(rng.integers(0, len(pool)))] for _ in range(length - n_ambig)]
        sent += [ambig[int(rng.integers(0, TOPIC_AMBIG))] for _ in range(n_ambig)]
        sent = [sent[i] for i in rng.permutation(length)]
        src.append(sent)
        tgt.append([_topic_target(t, topic) for t in sent])
    return ParallelCorpus(src, tgt, PROFILE, PROFILE)


def vocab_over(sentences) -> Vocabulary:
    """Vocabulary holding every token seen, ranked by count."""
    return build_vocab([list(s) for s in sentences], max_size=4 + 10_000)


def length_histogram(sentences) -> dict[int, int]:
    hist: dict[int, int] = {}
    for s in sentences:
        hist[len(s)] = hist.get(len(s), 0) + 1
    return dict(sorted(hist.items()))
