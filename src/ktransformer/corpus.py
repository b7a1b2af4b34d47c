"""Text-to-tensor plumbing: normalization and tokenization, vocabulary
construction around four reserved tokens, integer encoding, and padded
batching with boolean masks.

File formats are deliberately plain: corpora are UTF-8 text files with one
sentence per line, aligned by line number; a vocabulary file stores one
token per line where line i holds the token with id i + 4 (the four
specials are implicit). A leading byte-order mark on an input file is
ignored; files are written without one.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
BOS_TOKEN = "<BOS>"
EOS_TOKEN = "<EOS>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

PROFILES = ("space_tokenized", "char_tokenized")
DEFAULT_PROFILE = PROFILES[0]


class DataError(Exception):
    """Malformed or unusable input data (files, alignment, emptiness)."""


_symbol_table: dict[int, str] | None = None


def _load_symbol_table() -> dict[int, str]:
    """Parse the bundled symbol map: full-width ASCII variants, ideographic
    space, and curly quotes onto canonical single-width characters.

    Replacement cells may use a \\uXXXX escape (needed for the bare space).
    """
    table: dict[int, str] = {}
    text = resources.files("ktransformer").joinpath("data/symbol_map.tsv").read_text("utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if len(cells) != 2 or len(cells[0]) != 1:
            raise DataError(f"symbol_map.tsv line {lineno}: expected <char>\\t<replacement>")
        src, dst = cells
        if dst.startswith("\\u") and len(dst) == 6:
            dst = chr(int(dst[2:], 16))
        table[ord(src)] = dst
    return table


def normalize_symbols(text: str) -> str:
    """Apply the bundled character normalization map."""
    global _symbol_table
    if _symbol_table is None:
        _symbol_table = _load_symbol_table()
    return text.translate(_symbol_table)


def _strip_control(text: str) -> str:
    return "".join(ch for ch in text if ch.isspace() or unicodedata.category(ch) != "Cc")


def preprocess(line: str, profile: str) -> list[str]:
    """Normalize one raw line and split it into surface tokens.

    Both profiles lowercase, map symbols to canonical single-width forms,
    and drop non-whitespace control characters. ``space_tokenized`` then
    isolates punctuation characters as their own tokens and splits on
    whitespace; ``char_tokenized`` emits every non-whitespace character as a
    token. An empty line yields an empty list.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    text = _strip_control(normalize_symbols(line)).lower()
    if profile == "char_tokenized":
        return [ch for ch in text if not ch.isspace()]
    spaced = "".join(f" {ch} " if unicodedata.category(ch).startswith("P") else ch for ch in text)
    return spaced.split()


class Vocabulary:
    """Token/id bijection with ids 0..3 reserved for the special tokens."""

    def __init__(self, tokens: Sequence[str]):
        for t in tokens:
            if t in SPECIAL_TOKENS:
                raise ValueError(f"special token {t!r} cannot appear as a regular entry")
        self._id_to_token: list[str] = list(SPECIAL_TOKENS) + list(tokens)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def id_of(self, token: str) -> int:
        """Id of a token; unknown tokens map to the <UNK> id."""
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise ValueError(f"token id {token_id} out of range for vocabulary of {len(self)}")
        return self._id_to_token[token_id]

    def regular_tokens(self) -> list[str]:
        """All non-special tokens in id order."""
        return self._id_to_token[4:]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("".join(t + "\n" for t in self.regular_tokens()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"cannot read vocabulary {path}: {e}") from e
        tokens = text.splitlines()
        if any(not t for t in tokens):
            raise DataError(f"vocabulary {path} contains an empty line")
        try:
            return cls(tokens)
        except ValueError as e:
            raise DataError(f"vocabulary {path}: {e}") from e


def build_vocab(sentences: Iterable[Sequence[str]], max_size: int, min_freq: int = 1) -> Vocabulary:
    """Rank tokens by descending frequency (ties alphabetically) and keep
    the most frequent ``max_size - 4`` of those at or above ``min_freq``.

    ``max_size`` counts the four reserved ids, so 4 means specials only.
    Literal occurrences of the special token strings are ignored.
    """
    if max_size < 4:
        raise ValueError(f"max_size must be at least 4 (the reserved ids), got {max_size}")
    if min_freq < 1:
        raise ValueError(f"min_freq must be at least 1, got {min_freq}")
    counts: Counter[str] = Counter()
    for sent in sentences:
        counts.update(t for t in sent if t not in SPECIAL_TOKENS)
    if not counts:
        raise DataError("empty corpus: no tokens to build a vocabulary from")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, c in ranked if c >= min_freq][: max_size - 4]
    return Vocabulary(kept)


def encode(tokens: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map surface tokens to ids; out-of-vocabulary tokens become <UNK>."""
    return [vocab.id_of(t) for t in tokens]


def decode(ids: Sequence[int], vocab: Vocabulary) -> list[str]:
    """Map ids back to tokens; raises on out-of-range ids."""
    return [vocab.token_of(i) for i in ids]


def _read_lines(path: str | Path) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e


def _read_aligned(src_path, tgt_path) -> tuple[list[str], list[str]]:
    src_lines = _read_lines(src_path)
    tgt_lines = _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"alignment mismatch: {src_path} has {len(src_lines)} lines, {tgt_path} has {len(tgt_lines)}"
        )
    return src_lines, tgt_lines


@dataclass
class ParallelCorpus:
    """Aligned source/target token sequences with their language profiles."""

    src: list[list[str]]
    tgt: list[list[str]]
    profile_src: str = DEFAULT_PROFILE
    profile_tgt: str = DEFAULT_PROFILE

    def __post_init__(self):
        if len(self.src) != len(self.tgt):
            raise DataError(f"unaligned corpus: {len(self.src)} source vs {len(self.tgt)} target sentences")

    def __len__(self) -> int:
        return len(self.src)

    def pairs(self) -> Iterator[tuple[list[str], list[str]]]:
        return zip(self.src, self.tgt)

    @classmethod
    def from_raw_files(cls, src_path, tgt_path, profile_src: str, profile_tgt: str) -> "ParallelCorpus":
        """Load and preprocess two aligned one-sentence-per-line text files."""
        src_lines, tgt_lines = _read_aligned(src_path, tgt_path)
        return cls(
            src=[preprocess(l, profile_src) for l in src_lines],
            tgt=[preprocess(l, profile_tgt) for l in tgt_lines],
            profile_src=profile_src,
            profile_tgt=profile_tgt,
        )

    @classmethod
    def from_token_files(cls, src_path, tgt_path, profile_src=DEFAULT_PROFILE, profile_tgt=DEFAULT_PROFILE) -> "ParallelCorpus":
        """Load already-tokenized files (tokens separated by spaces)."""
        src_lines, tgt_lines = _read_aligned(src_path, tgt_path)
        return cls(
            src=[l.split() for l in src_lines],
            tgt=[l.split() for l in tgt_lines],
            profile_src=profile_src,
            profile_tgt=profile_tgt,
        )

    def write_token_files(self, src_path, tgt_path) -> None:
        Path(src_path).write_text("".join(" ".join(s) + "\n" for s in self.src), encoding="utf-8")
        Path(tgt_path).write_text("".join(" ".join(t) + "\n" for t in self.tgt), encoding="utf-8")


def retained_indices(corpus: ParallelCorpus, max_len: int) -> list[int]:
    """Indices of pairs where both sides are non-empty and at most max_len
    tokens; the batcher trains on exactly these."""
    return [
        i
        for i, (s, t) in enumerate(corpus.pairs())
        if 1 <= len(s) <= max_len and 1 <= len(t) <= max_len
    ]


@dataclass
class Batch:
    """Padded id matrices for one batch; masks are True at real tokens."""

    src_ids: np.ndarray    # (B, S) int64
    src_mask: np.ndarray   # (B, S) bool
    tgt_ids: np.ndarray    # (B, T) int64
    tgt_mask: np.ndarray   # (B, T) bool

    def __len__(self) -> int:
        return self.src_ids.shape[0]


def _pad_block(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(r) for r in rows)
    ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = True
    return ids, mask


def make_batches(
    corpus: ParallelCorpus,
    vocab_src: Vocabulary,
    vocab_tgt: Vocabulary,
    batch_size: int,
    max_len: int,
    seed: int = 0,
) -> list[Batch]:
    """Filter, shuffle, encode, and pad the corpus into batches.

    Pairs with an empty side or a side longer than ``max_len`` are dropped;
    the rest are shuffled by ``seed`` and grouped, each batch padded to its
    own longest sequence. Every retained pair appears exactly once.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    kept = retained_indices(corpus, max_len)
    if not kept:
        raise DataError(f"corpus empty after filtering to lengths 1..{max_len}")
    order = np.random.default_rng(seed).permutation(len(kept))
    batches = []
    for lo in range(0, len(kept), batch_size):
        chosen = [kept[j] for j in order[lo : lo + batch_size]]
        src_ids, src_mask = _pad_block([encode(corpus.src[i], vocab_src) for i in chosen])
        tgt_ids, tgt_mask = _pad_block([encode(corpus.tgt[i], vocab_tgt) for i in chosen])
        batches.append(Batch(src_ids=src_ids, src_mask=src_mask, tgt_ids=tgt_ids, tgt_mask=tgt_mask))
    return batches
