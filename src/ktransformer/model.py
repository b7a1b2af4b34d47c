"""The translation model: a post-norm encoder-decoder stack whose encoder
self-attention can be steered by per-sentence k-means structure.

Per source sentence, the raw (position-free) token embeddings are clustered;
each encoder attention head then receives an additive pre-softmax bias
built from a same-cluster indicator and from the cosine affinity between
each key token's embedding and the head's centroid. Both terms are gated by
learnable per-head scalars that start at zero, so a freshly built model is
exactly a vanilla Transformer. Assignments and centroids are constants of
the forward pass; gradients reach only the gate scalars.

Encoding, teacher-forced decoding and the loss take one sentence (1-D ids,
(length, d_model) activations) or a padded batch of them ((B, length) ids,
(B, length, d_model) activations) with boolean masks marking each real
prefix. A batch runs as one pass and gives every sentence the floats it
would get on its own at the batch's padded width; k-means and the cluster
tables are still per sentence. Greedy decoding runs many encoded sentences
in lockstep through ``IncrementalDecoder``: one new (batch, d_model) row per
step, with each layer's self-attention keys and values cached and the
encoder memories' cross-attention keys and values projected once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .cluster import ClusterResult, kmeans_fit
from .corpus import PAD_ID, BOS_ID, EOS_ID
from .layers import (
    FeedForward,
    LayerNormParams,
    MultiHeadAttention,
    dropout,
    feed_forward,
    glorot,
    multi_head_attention,
    positional_encoding,
    residual_layernorm,
    scaled_dot_attention,
)
from .tensor import (
    Tensor,
    add,
    dtype_of,
    gated_heads,
    masked_cross_entropy,
    matmul,
    merge_heads,
    mul,
    pick_rows,
    stack,
)

CLUSTER_MODES = ("off", "same_cluster", "centroid_affinity", "both")

# Greedy decoding runs sentences in lockstep batches of at most this many,
# taken in order of source length so each batch's sentences end together.
DECODE_BATCH = 64


@dataclass
class ModelConfig:
    """Every architectural knob; defaults follow the desk-scale profile."""

    vocab_src: int
    vocab_tgt: int
    d_model: int = 512
    heads: int = 8
    d_ff: int = 2048
    layers_enc: int = 2
    layers_dec: int = 2
    dropout: float = 0.1
    max_len: int = 50
    clusters_k: int = 4
    cluster_mode: str = "off"
    precision: str = "f32"
    init_seed: int = 0
    cluster_seed: int = 0

    def validate(self) -> None:
        if self.vocab_src < 4 or self.vocab_tgt < 4:
            raise ValueError("vocabulary sizes must cover the 4 reserved ids")
        if self.d_model < 2 or self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even and positive, got {self.d_model}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} must divide evenly into {self.heads} heads")
        if self.d_ff < 1 or self.layers_enc < 1 or self.layers_dec < 1 or self.max_len < 1:
            raise ValueError("d_ff, layer counts, and max_len must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.clusters_k < 1:
            raise ValueError(f"clusters_k must be at least 1, got {self.clusters_k}")
        if self.cluster_mode not in CLUSTER_MODES:
            raise ValueError(f"cluster_mode must be one of {CLUSTER_MODES}, got {self.cluster_mode!r}")
        dtype_of(self.precision)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build and validate a config from ``to_dict`` output, which may come
        from a file: every field must also have its declared type."""
        cfg = cls(**d)
        kinds = {"int": int, "float": (int, float), "str": str}
        for f in fields(cls):
            if not isinstance(getattr(cfg, f.name), kinds[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, got {getattr(cfg, f.name)!r}")
        cfg.validate()
        return cfg


class ClusterBiasParams:
    """Per-head gate scalars for the two cluster bias terms, initialized to
    zero so the untrained bias vanishes identically."""

    def __init__(self, heads: int, dtype):
        self.gain_same = [Tensor(np.zeros((), dtype=dtype), requires_grad=True) for _ in range(heads)]
        self.gain_affinity = [Tensor(np.zeros((), dtype=dtype), requires_grad=True) for _ in range(heads)]

    def params(self) -> dict[str, Tensor]:
        out = {}
        for h, g in enumerate(self.gain_same):
            out[f"same{h}"] = g
        for h, g in enumerate(self.gain_affinity):
            out[f"aff{h}"] = g
        return out


def cluster_bias(
    result: ClusterResult,
    embeddings: Tensor,
    head: int,
    params: ClusterBiasParams,
    mode: str,
    total_len: int | None = None,
) -> Tensor | None:
    """Additive attention-score bias for one head, shape (total, total).

    bias[i][j] = gain_same[head] * [assignments i and j equal]
               + gain_affinity[head] * cos(embeddings[j], centroids[head mod k])
    with terms included per ``mode``. The indicator and cosine matrices are
    constants; gradient reaches only the two gate scalars. When ``total_len``
    exceeds the clustered length (PAD suffix), extra rows and columns are
    zero; those scores are masked away regardless.
    """
    if mode not in CLUSTER_MODES:
        raise ValueError(f"cluster_mode must be one of {CLUSTER_MODES}, got {mode!r}")
    if mode == "off":
        return None
    if head >= len(params.gain_same):
        raise ValueError(f"head {head} out of range for {len(params.gain_same)} heads")
    n = result.assignments.shape[0]
    total = n if total_len is None else total_len
    if total < n:
        raise ValueError(f"total_len {total} shorter than clustered length {n}")
    dtype = params.gain_same[head].data.dtype

    bias: Tensor | None = None
    if mode in ("same_cluster", "both"):
        same = np.zeros((total, total), dtype=dtype)
        same[:n, :n] = _same_cluster(result)
        bias = mul(params.gain_same[head], Tensor(same))
    if mode in ("centroid_affinity", "both"):
        cos = _centroid_cosines(result, embeddings.data[:n])
        aff = np.zeros((total, total), dtype=dtype)
        aff[:n, :n] = cos[head % cos.shape[0]].astype(dtype)
        term = mul(params.gain_affinity[head], Tensor(aff))
        bias = term if bias is None else add(bias, term)
    return bias


def _same_cluster(result: ClusterResult) -> np.ndarray:
    """(n, n) boolean: tokens i and j share a cluster."""
    a = result.assignments
    return a[:, None] == a[None, :]


def _centroid_cosines(result: ClusterResult, embeddings: np.ndarray) -> np.ndarray:
    """(k, n) float64 cosines between each centroid and each token's
    embedding; a zero-norm side gives 0."""
    emb = np.asarray(embeddings, dtype=np.float64)
    e_norm = np.sqrt((emb * emb).sum(axis=1))
    ok = e_norm >= 1e-12
    cos = np.zeros((result.centroids.shape[0], emb.shape[0]), dtype=np.float64)
    for j, c in enumerate(result.centroids):
        centroid = np.asarray(c, dtype=np.float64)
        c_norm = np.sqrt((centroid * centroid).sum())
        if c_norm >= 1e-12:
            cos[j, ok] = (emb[ok] @ centroid) / (e_norm[ok] * c_norm)
    return cos


def _prefixed(**parts) -> dict[str, Tensor]:
    """Every part's ``params()`` in argument order, each name prefixed with
    the part's keyword: ``"{prefix}.{name}"``."""
    return {f"{prefix}.{name}": p for prefix, part in parts.items() for name, p in part.params().items()}


class EncoderLayer:
    def __init__(self, rng, d_model, heads, d_ff, dtype):
        self.attn = MultiHeadAttention(rng, d_model, heads, dtype)
        self.ln1 = LayerNormParams(d_model, dtype)
        self.ffn = FeedForward(rng, d_model, d_ff, dtype)
        self.ln2 = LayerNormParams(d_model, dtype)
        self.bias = ClusterBiasParams(heads, dtype)

    def params(self) -> dict[str, Tensor]:
        return _prefixed(attn=self.attn, ln1=self.ln1, ffn=self.ffn, ln2=self.ln2, bias=self.bias)


class DecoderLayer:
    def __init__(self, rng, d_model, heads, d_ff, dtype):
        self.self_attn = MultiHeadAttention(rng, d_model, heads, dtype)
        self.ln1 = LayerNormParams(d_model, dtype)
        self.cross_attn = MultiHeadAttention(rng, d_model, heads, dtype)
        self.ln2 = LayerNormParams(d_model, dtype)
        self.ffn = FeedForward(rng, d_model, d_ff, dtype)
        self.ln3 = LayerNormParams(d_model, dtype)

    def params(self) -> dict[str, Tensor]:
        return _prefixed(
            self=self.self_attn, ln1=self.ln1, cross=self.cross_attn, ln2=self.ln2, ffn=self.ffn, ln3=self.ln3
        )


def _check_ids(ids, vocab_size: int, what: str) -> np.ndarray:
    """One sentence (1-D) or a padded batch (B, n) of non-empty id rows."""
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError(f"{what} ids must be a non-empty 1-D sequence or (batch, length) array")
    if arr.min() < 0 or arr.max() >= vocab_size:
        raise ValueError(f"{what} id out of range for vocabulary of {vocab_size}")
    return arr


def _check_mask(mask, ids: np.ndarray, what: str) -> np.ndarray:
    """Masks must mark a non-empty real prefix of every sentence; the suffix
    must be <PAD>."""
    if mask is None:
        return np.ones(ids.shape, dtype=bool)
    m = np.asarray(mask, dtype=bool)
    if m.shape != ids.shape:
        raise ValueError(f"{what} mask shape {m.shape} does not match ids {ids.shape}")
    n_real = m.sum(axis=-1, keepdims=True)
    if not n_real.all():
        raise ValueError(f"{what} mask marks no real tokens")
    if (m != (np.arange(m.shape[-1]) < n_real)).any():
        raise ValueError(f"{what} mask must be a True prefix followed by padding")
    if (ids[~m] != PAD_ID).any():
        raise ValueError(f"{what} padding positions must hold the <PAD> id")
    return m


class KTransformer:
    """Encoder-decoder with the cluster-bias hook on encoder self-attention."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        dtype = dtype_of(config.precision)
        self.dtype = dtype
        rng = np.random.default_rng(config.init_seed)
        self.src_embed = Tensor(glorot(rng, config.vocab_src, config.d_model, dtype), requires_grad=True)
        self.tgt_embed = Tensor(glorot(rng, config.vocab_tgt, config.d_model, dtype), requires_grad=True)
        # one extra row: decoder input is <BOS>-prefixed, so its width can be max_len + 1
        self.pe = Tensor(positional_encoding(config.max_len + 1, config.d_model, dtype))
        self.encoder = [
            EncoderLayer(rng, config.d_model, config.heads, config.d_ff, dtype) for _ in range(config.layers_enc)
        ]
        self.decoder = [
            DecoderLayer(rng, config.d_model, config.heads, config.d_ff, dtype) for _ in range(config.layers_dec)
        ]
        self.out_proj = Tensor(glorot(rng, config.d_model, config.vocab_tgt, dtype), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        """All trainable tensors in a stable, checkpoint-defining order."""
        encoder = {f"enc{i}": layer for i, layer in enumerate(self.encoder)}
        decoder = {f"dec{i}": layer for i, layer in enumerate(self.decoder)}
        embeds = {"src_embed": self.src_embed, "tgt_embed": self.tgt_embed}
        return embeds | _prefixed(**encoder, **decoder) | {"out_proj": self.out_proj}

    def cluster_source(self, embeddings: Tensor) -> ClusterResult:
        """Cluster one sentence's raw token embeddings with k clamped to the
        sentence length; runs outside the gradient tape."""
        n = embeddings.data.shape[0]
        k_eff = min(self.config.clusters_k, n)
        return kmeans_fit(embeddings.data, k_eff, seed=self.config.cluster_seed)

    def _dropout_draws(self, training: bool, rng, lead: tuple[int, ...], lengths: tuple[int, ...]) -> list:
        """U[0, 1) samples for input dropout at each site of a sentence,
        (length, d_model) each, for every sentence in turn: sentence 0's
        sites in order, then sentence 1's, and so on. That is the order in
        which running the sentences one at a time draws them, so a batch
        gets the same masks. Nones when dropout is inactive."""
        if not training or self.config.dropout == 0.0:
            return [None] * len(lengths)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        d = self.config.d_model
        flat = rng.random(lead + (sum(lengths) * d,))
        cuts = np.cumsum([n * d for n in lengths])[:-1]
        return [u.reshape(lead + (n, d)) for u, n in zip(np.split(flat, cuts, axis=-1), lengths)]

    def _dropout_in(self, x: Tensor, uniform) -> Tensor:
        return dropout(x, self.config.dropout, None, uniform is not None, uniform=uniform)

    def _cluster_bias_tables(self, emb: np.ndarray, mask: np.ndarray):
        """k-means on each sentence's real token embeddings, and the constant
        tables of the cluster bias: the same-cluster indicator, (B, 1, n, n),
        and each head's centroid cosine of every key, broadcast over the
        query rows, (B, heads, n, n); zero in padded rows and columns. Returns
        (cluster results, indicator, cosines); a table that ``cluster_mode``
        does not use is None."""
        cfg = self.config
        b, n = mask.shape
        want_same = cfg.cluster_mode in ("same_cluster", "both")
        want_aff = cfg.cluster_mode in ("centroid_affinity", "both")
        same = np.zeros((b, 1, n, n), dtype=self.dtype) if want_same else None
        aff = np.zeros((b, cfg.heads, n, n), dtype=self.dtype) if want_aff else None
        results = []
        for i in range(b):
            n_real = int(mask[i].sum())
            real = emb[i, :n_real].copy()
            result = self.cluster_source(Tensor(real))
            results.append(result)
            if want_same:
                same[i, 0, :n_real, :n_real] = _same_cluster(result)
            if want_aff:
                cos = _centroid_cosines(result, real).astype(self.dtype)
                for h in range(cfg.heads):
                    aff[i, h, :n_real, :n_real] = cos[h % cos.shape[0]]
        return results, same, aff

    def encode(self, src_ids, src_mask=None, training: bool = False, rng=None):
        """Run the encoder over one (possibly PAD-suffixed) source sentence,
        or over a (B, n) batch of them.

        Returns (memory, cluster result); for a batch, the cluster slot is
        the list of per-sentence results. It is None when cluster_mode is
        off. Padded rows pass through the stack but are excluded from every
        attention softmax via the mask.
        """
        ids = _check_ids(src_ids, self.config.vocab_src, "source")
        (uniform,) = self._dropout_draws(training, rng, ids.shape[:-1], (ids.shape[-1],))
        return self._encode(ids, src_mask, uniform)

    def _encode(self, ids: np.ndarray, src_mask, uniform):
        cfg = self.config
        n = ids.shape[-1]
        if n > cfg.max_len:
            raise ValueError(f"source length {n} exceeds max_len {cfg.max_len}")
        mask = _check_mask(src_mask, ids, "source")

        emb = pick_rows(self.src_embed, ids)
        results, tables = None, (None, None)
        if cfg.cluster_mode != "off":
            results, *tables = self._cluster_bias_tables(emb.data.reshape(-1, n, cfg.d_model), mask.reshape(-1, n))
            if ids.ndim == 1:
                results, tables = results[0], [None if t is None else t[0] for t in tables]

        x = add(emb, Tensor(self.pe.data[:n]))
        x = self._dropout_in(x, uniform)
        keep = mask[..., None, None, :]
        for layer in self.encoder:
            gains = (layer.bias.gain_same, layer.bias.gain_affinity)
            terms = [(g, t) for g, t in zip(gains, tables) if t is not None]
            bias = gated_heads(terms) if terms else None
            attn = multi_head_attention(x, x, x, layer.attn, bias=bias, keep=keep)
            x = residual_layernorm(x, attn, layer.ln1)
            x = residual_layernorm(x, feed_forward(layer.ffn, x), layer.ln2)
        return x, results

    def decode_forward(self, tgt_ids, memory: Tensor, tgt_mask=None, src_mask=None, training: bool = False, rng=None) -> Tensor:
        """Teacher-forced decoder pass: causal self-attention, cross-attention
        over the encoder memory, FFN; returns (m, vocab_tgt) logits, or
        (B, m, vocab_tgt) for a batch of ids with (B, s, d_model) memory."""
        ids = _check_ids(tgt_ids, self.config.vocab_tgt, "target")
        (uniform,) = self._dropout_draws(training, rng, ids.shape[:-1], (ids.shape[-1],))
        return self._decode(ids, memory, tgt_mask, src_mask, uniform)

    def _decode(self, ids: np.ndarray, memory: Tensor, tgt_mask, src_mask, uniform) -> Tensor:
        cfg = self.config
        m = ids.shape[-1]
        if m > cfg.max_len + 1:
            raise ValueError(f"decoder input length {m} exceeds {cfg.max_len + 1}")
        mask = _check_mask(tgt_mask, ids, "target")
        rows = memory.data.shape[:-1]
        if rows[:-1] != ids.shape[:-1]:
            raise ValueError(f"memory shape {memory.data.shape} does not match target ids {ids.shape}")
        smask = np.ones(rows, dtype=bool) if src_mask is None else np.asarray(src_mask, dtype=bool)
        if smask.shape != rows:
            raise ValueError(f"source mask shape {smask.shape} does not match memory rows {rows}")

        causal = np.tril(np.ones((m, m), dtype=bool))
        keep_self = (causal & mask[..., None, :])[..., None, :, :]
        keep_cross = smask[..., None, None, :]

        x = add(pick_rows(self.tgt_embed, ids), Tensor(self.pe.data[:m]))
        x = self._dropout_in(x, uniform)
        for layer in self.decoder:
            sa = multi_head_attention(x, x, x, layer.self_attn, keep=keep_self)
            x = residual_layernorm(x, sa, layer.ln1)
            ca = multi_head_attention(x, memory, memory, layer.cross_attn, keep=keep_cross)
            x = residual_layernorm(x, ca, layer.ln2)
            x = residual_layernorm(x, feed_forward(layer.ffn, x), layer.ln3)
        return matmul(x, self.out_proj)

    def sequence_loss(self, src_ids, tgt_ids, src_mask=None, tgt_mask=None, training: bool = False, rng=None) -> Tensor:
        """Teacher-forced cross-entropy for one sentence pair (a scalar), or
        for each pair of a padded (B, n) batch (a (B,) vector).

        The decoder reads <BOS> + target and the loss compares against
        target + <EOS>; padding positions are excluded from each mean. The
        whole batch is one pass; dropout masks are drawn sentence by
        sentence, encoder input then decoder input, as one sentence at a
        time would draw them.
        """
        sids = _check_ids(src_ids, self.config.vocab_src, "source")
        tids = _check_ids(tgt_ids, self.config.vocab_tgt, "target")
        if sids.shape[:-1] != tids.shape[:-1]:
            raise ValueError(f"source ids {sids.shape} and target ids {tids.shape} hold different sentence counts")
        tmask = _check_mask(tgt_mask, tids, "target")
        m_real = tmask.sum(axis=-1, keepdims=True)
        lead, width = tids.shape[:-1], tids.shape[-1] + 1
        dec_in = np.concatenate([np.full(lead + (1,), BOS_ID, dtype=np.int64), tids], axis=-1)
        dec_mask = np.arange(width) <= m_real
        target = np.concatenate([tids, np.full(lead + (1,), PAD_ID, dtype=np.int64)], axis=-1)
        target = np.where(np.arange(width) == m_real, EOS_ID, target)

        enc_u, dec_u = self._dropout_draws(training, rng, lead, (sids.shape[-1], width))
        memory, _ = self._encode(sids, src_mask, enc_u)
        logits = self._decode(dec_in, memory, dec_mask, src_mask, dec_u)
        return loss(logits, target)

    def greedy_translate(self, src_ids, src_mask=None, max_out_len: int | None = None) -> list[int]:
        """Greedy decoding of one sentence; see ``greedy_translate_batch``."""
        return self.greedy_translate_batch([src_ids], None if src_mask is None else [src_mask], max_out_len)[0]

    def greedy_translate_batch(self, sources, src_masks=None, max_out_len: int | None = None) -> list[list[int]]:
        """Deterministic greedy decoding of every source sentence: argmax
        token by token from <BOS> until <EOS> or the length cap (max_len by
        default). Returns each sentence's emitted ids in input order; the
        final <EOS> is stripped, any other reserved id is kept as emitted.
        Argmax ties resolve to the lowest token id.

        Each sentence is encoded on its own; decoding then runs in
        length-sorted lockstep batches of up to ``DECODE_BATCH``. Decoding
        past max_len + 1 decoder positions raises ValueError.
        """
        cap = self.config.max_len if max_out_len is None else max_out_len
        if cap < 0:
            raise ValueError(f"max_out_len must be nonnegative, got {cap}")
        masks = [None] * len(sources) if src_masks is None else list(src_masks)
        if len(masks) != len(sources):
            raise ValueError(f"{len(masks)} source masks for {len(sources)} sources")
        encoded = []
        for ids, mask in zip(sources, masks):
            memory, _ = self.encode(ids, mask)
            n = memory.data.shape[0]
            encoded.append((memory, np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)))
        order = sorted(range(len(encoded)), key=lambda i: int(encoded[i][1].sum()))
        out: list[list[int]] = [[] for _ in encoded]
        for start in range(0, len(order), DECODE_BATCH):
            chunk = order[start : start + DECODE_BATCH]
            decoder = IncrementalDecoder(self, [encoded[i][0] for i in chunk], [encoded[i][1] for i in chunk])
            active = np.array(chunk)
            ids = np.full(len(chunk), BOS_ID, dtype=np.int64)
            for _ in range(cap):
                ids = np.argmax(decoder.step(ids), axis=1)
                going = ids != EOS_ID
                for i, t in zip(active[going], ids[going]):
                    out[i].append(int(t))
                if not going.all():
                    active, ids = active[going], ids[going]
                    if active.size == 0:
                        break
                    decoder.keep_rows(np.flatnonzero(going))
        return out


class IncrementalDecoder:
    """Cached decoder state for a batch of encoded sentences in lockstep.

    ``step`` feeds one new target token per sentence, (batch,) ids at the
    next position, and returns the (batch, vocab_tgt) logits for it: each
    decoder layer projects only the new rows, appends their keys and values
    to its self-attention cache, and attends over the cache and over the
    encoder memory, whose cross-attention keys and values are projected once
    here. Per-head tensors are head-major (heads * batch, rows, d_k) stacks,
    so every (head, sentence) pair is one attention problem. The logits
    equal the last row of a teacher-forced ``decode_forward`` over the same
    prefix, up to rounding. No tape is recorded.
    """

    def __init__(self, model: KTransformer, memories: list[Tensor], src_masks: list[np.ndarray]):
        cfg = model.config
        self.model = model
        self.heads, self.d_k = cfg.heads, cfg.d_model // cfg.heads
        b, s = len(memories), max(mem.data.shape[0] for mem in memories)
        rows = np.zeros((b * s, cfg.d_model), dtype=model.dtype)
        keep = np.zeros((b, s), dtype=bool)
        for i, (mem, mask) in enumerate(zip(memories, src_masks)):
            n = mem.data.shape[0]
            rows[i * s : i * s + n] = mem.data
            keep[i, :n] = mask
        rows = Tensor(rows)
        self.memory = [
            (self._project(rows, layer.cross_attn.wk, s), self._project(rows, layer.cross_attn.wv, s))
            for layer in model.decoder
        ]
        self.memory_keep = np.broadcast_to(keep[None, :, None, :], (self.heads, b, 1, s)).reshape(-1, 1, s)
        empty = np.zeros((self.heads * b, 0, self.d_k), dtype=model.dtype)
        self.cache = [(empty, empty) for _ in model.decoder]
        self.length = 0

    def _project(self, x: Tensor, weights: list[Tensor], rows_per_sentence: int = 1) -> np.ndarray:
        """x @ w for each head's w, as a (heads * batch, rows, d_k) stack."""
        return stack([matmul(x, w) for w in weights]).data.reshape(-1, rows_per_sentence, self.d_k)

    def _attend(self, x: Tensor, mha, k: np.ndarray, v: np.ndarray, keep=None) -> Tensor:
        q = self._project(x, mha.wq)
        out, _ = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), keep=keep)
        return matmul(merge_heads(Tensor(out.data.reshape(self.heads, -1, self.d_k))), mha.wo)

    def step(self, ids) -> np.ndarray:
        """Decode one position for every sentence; see the class docstring."""
        m = self.model
        if self.length > m.config.max_len:
            raise ValueError(f"decoder input length {self.length + 1} exceeds {m.config.max_len + 1}")
        x = add(pick_rows(m.tgt_embed, ids), Tensor(m.pe.data[self.length]))
        for li, layer in enumerate(m.decoder):
            k, v = self.cache[li]
            k = np.concatenate([k, self._project(x, layer.self_attn.wk)], axis=1)
            v = np.concatenate([v, self._project(x, layer.self_attn.wv)], axis=1)
            self.cache[li] = (k, v)
            x = residual_layernorm(x, self._attend(x, layer.self_attn, k, v), layer.ln1)
            x = residual_layernorm(x, self._attend(x, layer.cross_attn, *self.memory[li], self.memory_keep), layer.ln2)
            x = residual_layernorm(x, feed_forward(layer.ffn, x), layer.ln3)
        self.length += 1
        return matmul(x, m.out_proj).data

    def keep_rows(self, rows: np.ndarray) -> None:
        """Keep only the sentences at ``rows`` (indices into the current batch)."""

        def pick(a: np.ndarray) -> np.ndarray:
            return a.reshape(self.heads, -1, *a.shape[1:])[:, rows].reshape(-1, *a.shape[1:])

        self.cache = [(pick(k), pick(v)) for k, v in self.cache]
        self.memory = [(pick(k), pick(v)) for k, v in self.memory]
        self.memory_keep = pick(self.memory_keep)


def loss(logits: Tensor, target_ids) -> Tensor:
    """Mean cross-entropy of logits rows against target ids, skipping <PAD>
    positions, per sentence for (B, m, vocab) logits; raises on an all-pad
    target."""
    targets = np.asarray(target_ids, dtype=np.int64)
    active = targets != PAD_ID
    if not active.any(axis=-1).all():
        raise ValueError("loss over an all-pad target")
    return masked_cross_entropy(logits, targets, active)
