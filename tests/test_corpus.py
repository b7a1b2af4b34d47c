"""Text preprocessing, vocabulary construction, encoding, batching."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktransformer.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    DataError,
    ParallelCorpus,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    make_batches,
    normalize_symbols,
    preprocess,
    retained_indices,
)


# ------------------------------------------------------------ preprocess


def test_space_profile_example():
    assert preprocess("The CAT.", "space_tokenized") == ["the", "cat", "."]


def test_char_profile_example():
    assert preprocess("你好。", "char_tokenized") == ["你", "好", "。"]


def test_fullwidth_forms_mapped_to_ascii():
    assert preprocess("Ｈｅｌｌｏ，ｗｏｒｌｄ！", "space_tokenized") == ["hello", ",", "world", "!"]


def test_curly_quotes_normalized():
    assert preprocess("“Hi”", "space_tokenized") == ['"', "hi", '"']
    assert normalize_symbols("‘a’") == "'a'"


def test_ideographic_space_splits_tokens():
    assert preprocess("a　b", "space_tokenized") == ["a", "b"]


def test_control_chars_stripped():
    assert preprocess("ab", "space_tokenized") == ["ab"]
    assert preprocess("a\tb", "space_tokenized") == ["a", "b"]  # tab is whitespace, kept as separator


def test_punctuation_separated():
    assert preprocess("well,done!", "space_tokenized") == ["well", ",", "done", "!"]
    assert preprocess("(x)", "space_tokenized") == ["(", "x", ")"]


def test_empty_and_whitespace_lines():
    assert preprocess("", "space_tokenized") == []
    assert preprocess("   \t ", "space_tokenized") == []
    assert preprocess("", "char_tokenized") == []


def test_char_profile_drops_whitespace():
    assert preprocess("a b  c", "char_tokenized") == ["a", "b", "c"]


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        preprocess("x", "word_tokenized")


def test_preprocess_idempotent_on_examples():
    for line in ["The CAT.", "well,done!", "Ｈｅｌｌｏ，ｗｏｒｌｄ！", "a　b"]:
        once = preprocess(line, "space_tokenized")
        twice = preprocess(" ".join(once), "space_tokenized")
        assert twice == once


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF), max_size=40))
def test_preprocess_idempotent_property(line):
    once = preprocess(line, "space_tokenized")
    twice = preprocess(" ".join(once), "space_tokenized")
    assert twice == once


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF), max_size=40))
def test_char_profile_idempotent_property(line):
    once = preprocess(line, "char_tokenized")
    twice = preprocess(" ".join(once), "char_tokenized")
    assert twice == once


# ------------------------------------------------------------ vocabulary


def test_specials_occupy_first_four_ids():
    v = build_vocab([["a"]], max_size=8)
    assert v.token_of(0) == "<PAD>"
    assert v.token_of(1) == "<UNK>"
    assert v.token_of(2) == "<BOS>"
    assert v.token_of(3) == "<EOS>"
    assert v.id_of("a") == 4


def test_vocab_example_a_a_b():
    v = build_vocab([["a", "a", "b"]], max_size=8)
    assert len(v) == 6
    assert v.id_of("a") == 4 and v.id_of("b") == 5


def test_max_size_four_keeps_only_specials():
    v = build_vocab([["a", "b", "c"]], max_size=4)
    assert len(v) == 4
    assert v.id_of("a") == UNK_ID


def test_ranking_matches_counter_oracle():
    rng = np.random.default_rng(0)
    words = [f"t{i}" for i in range(30)]
    sentences = [[words[int(rng.integers(0, 30))] for _ in range(8)] for _ in range(50)]
    v = build_vocab(sentences, max_size=4 + 12)
    counts = collections.Counter(t for s in sentences for t in s)
    expect = sorted(counts, key=lambda t: (-counts[t], t))[:12]
    assert v.regular_tokens() == expect


def test_count_ties_break_lexicographically():
    v = build_vocab([["b", "a", "c"]], max_size=16)
    assert v.regular_tokens() == ["a", "b", "c"]


def test_min_freq_filters():
    v = build_vocab([["a", "a", "b"]], max_size=16, min_freq=2)
    assert v.regular_tokens() == ["a"]


def test_literal_special_spellings_skipped():
    v = build_vocab([["<PAD>", "x", "<EOS>"]], max_size=16)
    assert v.regular_tokens() == ["x"]


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        build_vocab([], max_size=8)
    with pytest.raises(DataError):
        build_vocab([[]], max_size=8)


def test_max_size_below_specials_rejected():
    with pytest.raises(ValueError):
        build_vocab([["a"]], max_size=3)


def test_vocabulary_rejects_duplicates_and_specials():
    with pytest.raises(ValueError):
        Vocabulary(["a", "a"])
    with pytest.raises(ValueError):
        Vocabulary([PAD_TOKEN])


def test_token_of_out_of_range():
    v = build_vocab([["a"]], max_size=8)
    with pytest.raises(ValueError):
        v.token_of(len(v))
    with pytest.raises(ValueError):
        v.token_of(-1)


def test_vocab_save_load_round_trip(tmp_path):
    v = build_vocab([["a", "b", "б", "好"]], max_size=16)
    path = tmp_path / "v.vocab"
    v.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == v.regular_tokens()  # line i holds the token with id i+4
    w = Vocabulary.load(path)
    assert w.regular_tokens() == v.regular_tokens()
    assert w.id_of("好") == v.id_of("好")
    path.write_text("\ufeff" + "".join(t + "\n" for t in lines), encoding="utf-8")
    assert Vocabulary.load(path).regular_tokens() == v.regular_tokens()  # a leading byte-order mark is ignored


def test_vocab_load_rejects_blank_line(tmp_path):
    path = tmp_path / "bad.vocab"
    path.write_text("a\n\nb\n", encoding="utf-8")
    with pytest.raises(DataError):
        Vocabulary.load(path)


# ------------------------------------------------------------ encode/decode


def test_encode_known_tokens():
    v = build_vocab([["a", "b"]], max_size=8)
    assert encode(["b", "a", "b"], v) == [v.id_of("b"), v.id_of("a"), v.id_of("b")]


def test_encode_oov_maps_to_unk():
    v = build_vocab([["a"]], max_size=8)
    assert encode(["zzz"], v) == [UNK_ID]


def test_round_trip_replaces_exactly_oov_positions():
    v = build_vocab([["a", "b", "c"]], max_size=8)
    rng = np.random.default_rng(1)
    pool = ["a", "b", "c", "oov1", "oov2"]
    for _ in range(20):
        toks = [pool[int(rng.integers(0, 5))] for _ in range(int(rng.integers(1, 10)))]
        back = decode(encode(toks, v), v)
        expect = [t if t in v else UNK_TOKEN for t in toks]
        assert back == expect


def test_decode_special_ids_spelled_out():
    v = build_vocab([["a"]], max_size=8)
    assert decode([PAD_ID, UNK_ID, BOS_ID, EOS_ID, 4], v) == ["<PAD>", "<UNK>", "<BOS>", "<EOS>", "a"]


def test_decode_out_of_range_rejected():
    v = build_vocab([["a"]], max_size=8)
    with pytest.raises(ValueError):
        decode([len(v)], v)


# ------------------------------------------------------------ parallel corpus


def test_alignment_enforced():
    with pytest.raises(DataError):
        ParallelCorpus([["a"]], [], "space_tokenized", "space_tokenized")


def test_raw_file_loading(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("The CAT.\nhello there\n", encoding="utf-8")
    tgt.write_text("你好。\nok\n", encoding="utf-8")
    c = ParallelCorpus.from_raw_files(src, tgt, "space_tokenized", "char_tokenized")
    assert len(c) == 2
    assert c.src[0] == ["the", "cat", "."]
    assert c.tgt[0] == ["你", "好", "。"]
    # a leading byte-order mark is not part of the first token
    src.write_text("\ufeffThe CAT.\nhello there\n", encoding="utf-8")
    assert ParallelCorpus.from_raw_files(src, tgt, "space_tokenized", "char_tokenized").src == c.src


def test_raw_file_line_count_mismatch(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a\nb\n", encoding="utf-8")
    tgt.write_text("x\n", encoding="utf-8")
    with pytest.raises(DataError):
        ParallelCorpus.from_raw_files(src, tgt, "space_tokenized", "space_tokenized")


def test_token_file_round_trip(tmp_path):
    c = ParallelCorpus([["a", "b"], ["c"]], [["x"], ["y", "z"]], "space_tokenized", "space_tokenized")
    sp, tp = tmp_path / "s.tok", tmp_path / "t.tok"
    c.write_token_files(sp, tp)
    d = ParallelCorpus.from_token_files(sp, tp)
    assert d.src == c.src and d.tgt == c.tgt


# ------------------------------------------------------------ batching


def _demo_corpus(n=40, seed=0, max_len=12):
    rng = np.random.default_rng(seed)
    toks = ["a", "b", "c", "d"]
    src, tgt = [], []
    for _ in range(n):
        ls = int(rng.integers(1, max_len + 1))
        lt = int(rng.integers(1, max_len + 1))
        src.append([toks[int(rng.integers(0, 4))] for _ in range(ls)])
        tgt.append([toks[int(rng.integers(0, 4))] for _ in range(lt)])
    return ParallelCorpus(src, tgt, "space_tokenized", "space_tokenized")


def _vocab4():
    return build_vocab([["a", "b", "c", "d"]], max_size=8)


def test_batches_cover_each_retained_pair_once():
    corpus = _demo_corpus(37)
    v = _vocab4()
    batches = make_batches(corpus, v, v, batch_size=5, max_len=8, seed=3)
    kept = retained_indices(corpus, max_len=8)
    total = sum(len(b) for b in batches)
    assert total == len(kept)
    # manual filter oracle
    manual = sum(1 for s, t in corpus.pairs() if 1 <= len(s) <= 8 and 1 <= len(t) <= 8)
    assert total == manual
    # every retained source reappears exactly once after stripping padding
    seen = []
    for b in batches:
        for i in range(len(b)):
            ids = b.src_ids[i][b.src_mask[i]]
            seen.append(tuple(ids.tolist()))
    expect = [tuple(encode(corpus.src[i], v)) for i in kept]
    assert sorted(seen) == sorted(expect)


def test_over_length_pairs_dropped():
    corpus = ParallelCorpus(
        [["a"] * 51, ["a", "b"]],
        [["b"], ["c"]],
        "space_tokenized",
        "space_tokenized",
    )
    v = _vocab4()
    batches = make_batches(corpus, v, v, batch_size=4, max_len=50, seed=0)
    assert sum(len(b) for b in batches) == 1


def test_uniform_length_batch_has_no_padding():
    corpus = ParallelCorpus(
        [["a", "b", "c"]] * 4,
        [["d", "c", "b"]] * 4,
        "space_tokenized",
        "space_tokenized",
    )
    v = _vocab4()
    batches = make_batches(corpus, v, v, batch_size=2, max_len=10, seed=0)
    assert len(batches) == 2
    for b in batches:
        assert b.src_ids.shape == (2, 3)
        assert np.all(b.src_mask) and np.all(b.tgt_mask)
        assert not np.any(b.src_ids == PAD_ID)


def test_padding_is_pad_id_and_mask_marks_it():
    corpus = ParallelCorpus(
        [["a"], ["a", "b", "c"]],
        [["b", "c"], ["d"]],
        "space_tokenized",
        "space_tokenized",
    )
    v = _vocab4()
    (b,) = make_batches(corpus, v, v, batch_size=2, max_len=10, seed=1)
    for row_ids, row_mask in zip(b.src_ids, b.src_mask):
        n = int(row_mask.sum())
        assert np.all(row_mask[:n]) and not np.any(row_mask[n:])
        assert np.all(row_ids[n:] == PAD_ID)
        assert not np.any(row_ids[:n] == PAD_ID)


def test_same_seed_same_order_different_seed_differs():
    corpus = _demo_corpus(40)
    v = _vocab4()
    a = make_batches(corpus, v, v, batch_size=4, max_len=12, seed=7)
    b = make_batches(corpus, v, v, batch_size=4, max_len=12, seed=7)
    c = make_batches(corpus, v, v, batch_size=4, max_len=12, seed=8)
    key = lambda bs: [x.src_ids.tolist() for x in bs]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_last_batch_may_be_short():
    corpus = _demo_corpus(10, max_len=4)
    v = _vocab4()
    batches = make_batches(corpus, v, v, batch_size=4, max_len=12, seed=0)
    sizes = [len(b) for b in batches]
    assert sum(sizes) == 10
    assert sizes == [4, 4, 2]


def test_empty_after_filter_rejected():
    corpus = ParallelCorpus([["a"] * 9], [["b"]], "space_tokenized", "space_tokenized")
    v = _vocab4()
    with pytest.raises(DataError):
        make_batches(corpus, v, v, batch_size=2, max_len=8, seed=0)


def test_bad_batch_size_rejected():
    corpus = _demo_corpus(4)
    v = _vocab4()
    with pytest.raises(ValueError):
        make_batches(corpus, v, v, batch_size=0, max_len=12, seed=0)
