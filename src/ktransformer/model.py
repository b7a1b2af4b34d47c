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
would get on its own at the batch's padded width. The cluster stage is
whole-batch too: one batched k-means fit over the real rows of every
sentence and one build of each bias table, with each sentence's floats
those of clustering it alone. Training, with its dropout draws, and
serving reach the two stacks through the same ``encode`` and
``decode_forward``. Greedy decoding sorts the sentences by length
and encodes each chunk of them as one padded batch; a memory row then
matches encoding its sentence alone up to rounding (within 1e-12 relative
in f64). The chunk decodes in lockstep
through ``IncrementalDecoder``: one new (batch, d_model) row per step, heads
in training's (batch, heads, rows, d_k) layout, each attention's per-head
projections fused into one product, each layer's
self-attention keys and values cached and the memory's cross-attention keys
and values projected once. Decode steps run on plain numpy arrays, with no
tape, and call the array functions of training's taped blocks. The
emitted tokens are those of re-running the teacher-forced decoder over the
whole prefix for each token, unless two logits tie within rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .cluster import ClusterBatch, kmeans_fit_batch
from .corpus import PAD_ID, BOS_ID, EOS_ID, _pad_block
from .layers import (
    FeedForward,
    LayerNormParams,
    MultiHeadAttention,
    ParameterRecord,
    _attend,
    _feed_forward,
    _residual_layernorm,
    dropout,
    feed_forward,
    glorot,
    multi_head_attention,
    positional_encoding,
    residual_layernorm,
)
from .tensor import (
    Tensor,
    add,
    dtype_of,
    gated_heads,
    masked_cross_entropy,
    matmul,
    pick_rows,
)

CLUSTER_MODES = ("off", "same_cluster", "centroid_affinity", "both")

# Greedy decoding runs sentences in lockstep batches of at most this many,
# taken in order of source length so each batch's sentences end together.
DECODE_BATCH = 64

# Largest max_len a configuration may set; a checkpoint's payload does not
# bound it, as the positional table is rebuilt. Every recipe uses 50 or less.
MAX_LEN_LIMIT = 1024


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
        if self.max_len > MAX_LEN_LIMIT:
            raise ValueError(f"max_len must be at most {MAX_LEN_LIMIT}, got {self.max_len}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.clusters_k < 1:
            raise ValueError(f"clusters_k must be at least 1, got {self.clusters_k}")
        if self.init_seed < 0 or self.cluster_seed < 0:
            raise ValueError("init_seed and cluster_seed must be nonnegative")
        if self.cluster_mode not in CLUSTER_MODES:
            raise ValueError(f"cluster_mode must be one of {CLUSTER_MODES}, got {self.cluster_mode!r}")
        dtype_of(self.precision)

    def parameter_count(self) -> int:
        """How many floats ``KTransformer(self).parameters()`` holds, worked
        out without building anything."""
        d, ff = self.d_model, self.d_ff
        attention = 4 * d * d  # every head's q, k and v (d_model x d_model / heads each), then wo
        ffn = 2 * d * ff + ff + d
        encoder = attention + ffn + 2 * 2 * d + 2 * self.heads  # two layer norms, two gates per head
        decoder = 2 * attention + ffn + 3 * 2 * d
        embeddings = (self.vocab_src + 2 * self.vocab_tgt) * d  # the target table twice: embedding and out_proj
        return embeddings + self.layers_enc * encoder + self.layers_dec * decoder

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build and validate a config from ``to_dict`` output, which may come
        from a file: every field must also have its declared type."""
        cfg = cls(**d)
        kinds = {"int": int, "float": (int, float), "str": str}
        for f in fields(cls):
            value = getattr(cfg, f.name)
            if isinstance(value, bool) or not isinstance(value, kinds[f.type]):  # JSON true is a Python int
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        cfg.validate()
        return cfg


class ClusterBiasParams:
    """Per-head gate scalars for the two cluster bias terms, initialized to
    zero so the untrained bias vanishes identically."""

    def __init__(self, heads: int, dtype=np.float32, new=None):
        new = new or ParameterRecord(dtype)
        self.gain_same = [new(f"same{h}", ()) for h in range(heads)]
        self.gain_affinity = [new(f"aff{h}", ()) for h in range(heads)]


def _batch_centroid_cosines(fit: ClusterBatch, emb: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(B, K, n) float64: the cosines between each centroid of every
    sentence of a padded batch and each of its tokens' embeddings, zero past
    the sentence's clusters and real rows, and for a zero-norm side. A sentence's
    dot products stay one matrix-vector product per centroid over exactly
    its usable rows (real, nonzero norm), as alone, since a product over
    padded rows can round differently."""
    emb = np.asarray(emb, dtype=np.float64)
    cen = fit.centroids.astype(np.float64)
    e_norm = np.sqrt((emb * emb).sum(axis=2))
    c_norm = np.sqrt((cen * cen).sum(axis=2))
    usable = (e_norm >= 1e-12) & mask
    dots = np.zeros(cen.shape[:2] + emb.shape[1:2], dtype=np.float64)
    for b, rows in enumerate(usable):
        cols = np.flatnonzero(rows)
        dots[b][:, cols] = (emb[b, cols] @ cen[b][:, :, None])[..., 0]
    keep = (c_norm >= 1e-12)[:, :, None] & usable[:, None, :]  # a slot past k[b] holds a zero centroid
    cos = np.zeros(dots.shape, dtype=np.float64)
    return np.divide(dots, e_norm[:, None, :] * c_norm[:, :, None], out=cos, where=keep)


class EncoderLayer:
    def __init__(self, rng, d_model, heads, d_ff, new):
        self.attn = MultiHeadAttention(rng, d_model, heads, new=new.part("attn"))
        self.ln1 = LayerNormParams(d_model, new=new.part("ln1"))
        self.ffn = FeedForward(rng, d_model, d_ff, new=new.part("ffn"))
        self.ln2 = LayerNormParams(d_model, new=new.part("ln2"))
        self.bias = ClusterBiasParams(heads, new=new.part("bias"))


class DecoderLayer:
    def __init__(self, rng, d_model, heads, d_ff, new):
        self.self_attn = MultiHeadAttention(rng, d_model, heads, new=new.part("self"))
        self.ln1 = LayerNormParams(d_model, new=new.part("ln1"))
        self.cross_attn = MultiHeadAttention(rng, d_model, heads, new=new.part("cross"))
        self.ln2 = LayerNormParams(d_model, new=new.part("ln2"))
        self.ffn = FeedForward(rng, d_model, d_ff, new=new.part("ffn"))
        self.ln3 = LayerNormParams(d_model, new=new.part("ln3"))


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
    """Encoder-decoder with the cluster-bias hook on encoder self-attention.

    Each parameter is named where it is made (``layers.ParameterRecord``), on
    the next slice of one buffer of ``config.parameter_count()`` elements:
    the order made is that of the buffer, ``parameters()`` and a checkpoint.
    Weights are drawn from ``config.init_seed`` into their views; with
    ``draw_weights=False`` they stay zeros, for a caller that overwrites them
    all (loading a checkpoint), and the buffer is all that is allocated."""

    def __init__(self, config: ModelConfig, draw_weights: bool = True):
        config.validate()
        self.config = config
        dtype = dtype_of(config.precision)
        self.dtype = dtype
        rng = np.random.default_rng(config.init_seed) if draw_weights else None
        self._record = new = ParameterRecord(dtype, config.parameter_count())
        d, heads, d_ff = config.d_model, config.heads, config.d_ff
        self.src_embed = glorot(rng, new("src_embed", (config.vocab_src, d)))
        self.tgt_embed = glorot(rng, new("tgt_embed", (config.vocab_tgt, d)))
        # one extra row: decoder input is <BOS>-prefixed, so its width can be max_len + 1
        self.pe = Tensor(positional_encoding(config.max_len + 1, d, dtype))
        self.encoder = [EncoderLayer(rng, d, heads, d_ff, new.part(f"enc{i}")) for i in range(config.layers_enc)]
        self.decoder = [DecoderLayer(rng, d, heads, d_ff, new.part(f"dec{i}")) for i in range(config.layers_dec)]
        self.out_proj = glorot(rng, new("out_proj", (d, config.vocab_tgt)))

    def parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor by name, in the order made: a checkpoint's."""
        return self._record.params()

    def parameter_buffer(self) -> np.ndarray | None:
        """The flat buffer whose consecutive views the parameters are, in order
        and filling it: the model's own, or ``trainer.AdamState.flat_params``
        once that holds them; None while one is an array of its own."""
        views = [p.data for p in self.parameters().values()]
        flat = views[0].base
        if not all(v.base is flat and v.flags.c_contiguous for v in views):
            return None
        return flat if sum(v.size for v in views) == flat.size else None

    def _dropout_draws(
        self, rng: np.random.Generator | None, lead: tuple[int, ...], lengths: tuple[int, ...], rows: slice
    ) -> list:
        """U[0, 1) samples from ``rng`` for input dropout at each site of a
        sentence, (length, d_model) each, for every sentence in turn:
        sentence 0's sites in order, then sentence 1's, and so on. That is
        the order in which running the sentences one at a time draws them,
        so a batch gets the same masks. The whole batch of ``lead`` is drawn
        and the ``rows`` of it kept, so a sentence's masks do not depend on
        which others run with it. Nones without an rng or at rate 0."""
        if rng is None or self.config.dropout == 0.0:
            return [None] * len(lengths)
        d = self.config.d_model
        flat = rng.random(lead + (sum(lengths) * d,))[rows]
        cuts = np.cumsum([n * d for n in lengths])[:-1]
        return [u.reshape(u.shape[:-1] + (n, d)) for u, n in zip(np.split(flat, cuts, axis=-1), lengths)]

    def cluster_bias_tables(self, emb: np.ndarray, mask: np.ndarray):
        """The cluster stage of ``encode`` for a padded batch of raw token
        embeddings, (B, n, d_model), and its (B, n) mask: k-means on every
        sentence's real rows, as one batched fit with k clamped to each
        sentence's length, and the constant tables of the cluster bias: the same-cluster indicator, (B, 1, n, n), and
        each head's centroid cosine of every key, broadcast over the query
        rows, (B, heads, n, n); zero in padded rows and columns. Returns
        (cluster batch, indicator, cosines); a table that ``cluster_mode``
        does not use is None."""
        cfg = self.config
        fit = kmeans_fit_batch(emb, mask.sum(axis=1), cfg.clusters_k, seed=cfg.cluster_seed)
        same = aff = None
        if cfg.cluster_mode in ("same_cluster", "both"):
            a = fit.assignments
            same = ((a[:, :, None] == a[:, None, :]) & mask[:, :, None] & mask[:, None, :]).astype(self.dtype)[:, None]
        if cfg.cluster_mode in ("centroid_affinity", "both"):
            cos = _batch_centroid_cosines(fit, emb, mask)
            head_centroid = (np.arange(cfg.heads) % fit.k[:, None])[:, :, None]
            keys = np.take_along_axis(cos, head_centroid, axis=1).astype(self.dtype)
            aff = np.where(mask[:, None, :, None], keys[:, :, None, :], 0)
        return fit, same, aff

    def encode(self, src_ids, src_mask=None, uniform=None):
        """Run the encoder over one (possibly PAD-suffixed) source sentence,
        or over a (B, n) batch of them. ``uniform`` holds the U[0, 1) draws
        of input dropout, one per element of the embedded input; without
        draws there is no dropout.

        Returns (memory, cluster result); for a batch, the cluster slot is
        the batch's ``ClusterBatch``, whose item b is sentence b's result.
        It is None when cluster_mode is off. Padded rows pass through the stack but are excluded from every
        attention softmax via the mask.
        """
        cfg = self.config
        ids = _check_ids(src_ids, cfg.vocab_src, "source")
        n = ids.shape[-1]
        if n > cfg.max_len:
            raise ValueError(f"source length {n} exceeds max_len {cfg.max_len}")
        mask = _check_mask(src_mask, ids, "source")

        emb = pick_rows(self.src_embed, ids)
        results, tables = None, (None, None)
        if cfg.cluster_mode != "off":
            results, *tables = self.cluster_bias_tables(emb.data.reshape(-1, n, cfg.d_model), mask.reshape(-1, n))
            if ids.ndim == 1:
                results, tables = results[0], [None if t is None else t[0] for t in tables]

        x = dropout(add(emb, Tensor(self.pe.data[:n])), cfg.dropout, uniform)
        keep = mask[..., None, None, :]
        for layer in self.encoder:
            gains = (layer.bias.gain_same, layer.bias.gain_affinity)
            terms = [(g, t) for g, t in zip(gains, tables) if t is not None]
            bias = gated_heads(terms) if terms else None
            attn = multi_head_attention(x, x, layer.attn, bias=bias, keep=keep)
            x = residual_layernorm(x, attn, layer.ln1)
            x = residual_layernorm(x, feed_forward(layer.ffn, x), layer.ln2)
        return x, results

    def decode_forward(self, tgt_ids, memory: Tensor, tgt_mask=None, src_mask=None, uniform=None) -> Tensor:
        """Teacher-forced decoder pass: causal self-attention, cross-attention
        over the encoder memory, FFN; returns (m, vocab_tgt) logits, or
        (B, m, vocab_tgt) for a batch of ids with (B, s, d_model) memory.
        ``uniform`` holds the input dropout draws, as for ``encode``."""
        cfg = self.config
        ids = _check_ids(tgt_ids, cfg.vocab_tgt, "target")
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

        x = dropout(add(pick_rows(self.tgt_embed, ids), Tensor(self.pe.data[:m])), cfg.dropout, uniform)
        for layer in self.decoder:
            sa = multi_head_attention(x, x, layer.self_attn, keep=keep_self)
            x = residual_layernorm(x, sa, layer.ln1)
            ca = multi_head_attention(x, memory, layer.cross_attn, keep=keep_cross)
            x = residual_layernorm(x, ca, layer.ln2)
            x = residual_layernorm(x, feed_forward(layer.ffn, x), layer.ln3)
        return matmul(x, self.out_proj)

    def sequence_loss(self, src_ids, tgt_ids, src_mask=None, tgt_mask=None, rng=None, rows=slice(None)) -> Tensor:
        """Teacher-forced cross-entropy for one sentence pair (a scalar), or
        for each pair of a padded (B, n) batch (a (B,) vector).

        The decoder reads <BOS> + target and the loss compares against
        target + <EOS>; padding positions are excluded from each mean. The
        whole batch is one pass. Dropout is on exactly when a numpy
        Generator ``rng`` is given: its masks are drawn from it sentence by
        sentence, encoder input then decoder input, as one sentence at a
        time would draw them. ``rows``, a slice of a batch's sentences, runs
        only those (at the batch's padded width), with the masks they get
        when the whole batch runs.
        """
        sids = _check_ids(src_ids, self.config.vocab_src, "source")
        tids = _check_ids(tgt_ids, self.config.vocab_tgt, "target")
        if sids.shape[:-1] != tids.shape[:-1]:
            raise ValueError(f"source ids {sids.shape} and target ids {tids.shape} hold different sentence counts")
        draws = sids.shape[:-1]
        if rows != slice(None):
            if sids.ndim != 2 or not range(draws[0])[rows]:
                raise ValueError(f"rows {rows} select no sentence of the batch")
            sids, tids = sids[rows], tids[rows]
            src_mask = None if src_mask is None else np.asarray(src_mask)[rows]
            tgt_mask = None if tgt_mask is None else np.asarray(tgt_mask)[rows]
        tmask = _check_mask(tgt_mask, tids, "target")
        m_real = tmask.sum(axis=-1, keepdims=True)
        lead, width = tids.shape[:-1], tids.shape[-1] + 1
        dec_in = np.concatenate([np.full(lead + (1,), BOS_ID, dtype=np.int64), tids], axis=-1)
        dec_mask = np.arange(width) <= m_real
        target = np.concatenate([tids, np.full(lead + (1,), PAD_ID, dtype=np.int64)], axis=-1)
        target = np.where(np.arange(width) == m_real, EOS_ID, target)

        enc_u, dec_u = self._dropout_draws(rng, draws, (sids.shape[-1], width), rows)
        memory, _ = self.encode(sids, src_mask, enc_u)
        logits = self.decode_forward(dec_in, memory, dec_mask, src_mask, dec_u)
        return loss(logits, target)

    def greedy_translate(self, src_ids, max_out_len: int | None = None) -> list[int]:
        """Greedy decoding of one sentence; see ``greedy_translate_batch``."""
        return self.greedy_translate_batch([src_ids], max_out_len)[0]

    def greedy_translate_batch(self, sources, max_out_len: int | None = None) -> list[list[int]]:
        """Deterministic greedy decoding of every source sentence, each a
        1-D sequence of ids with no padding: argmax token by token from
        <BOS> until <EOS> or the length cap (max_len by default). Returns
        each sentence's emitted ids in input order; the final <EOS> is
        stripped, any other reserved id is kept as emitted. Argmax ties
        resolve to the lowest token id.

        The sentences are sorted by length and cut into chunks of up to
        ``DECODE_BATCH``. Each chunk is encoded as one padded (B, width)
        batch, its cluster stage one batched fit over the real rows, and
        then decodes in lockstep through
        ``IncrementalDecoder``. At the chunk's padded width a memory row
        matches encoding its sentence alone up to rounding (within 1e-12
        relative in f64), so the emitted tokens are those of the
        full-prefix greedy loop unless two logits tie within that rounding.
        Decoding past max_len + 1 decoder positions raises ValueError.
        """
        cap = self.config.max_len if max_out_len is None else max_out_len
        if cap < 0:
            raise ValueError(f"max_out_len must be nonnegative, got {cap}")
        srcs = [_check_ids(ids, self.config.vocab_src, "source") for ids in sources]
        if any(ids.ndim != 1 for ids in srcs):
            raise ValueError("greedy decoding takes 1-D source sentences")
        order = sorted(range(len(srcs)), key=lambda i: len(srcs[i]))
        out: list[list[int]] = [[] for _ in srcs]
        for start in range(0, len(order), DECODE_BATCH):
            chunk = order[start : start + DECODE_BATCH]
            src, src_mask = _pad_block([srcs[i] for i in chunk])
            memory, _ = self.encode(src, src_mask)
            decoder = IncrementalDecoder(self, memory, src_mask)
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


def _fused(weights: list[Tensor]) -> np.ndarray:
    """Per-head projection weights side by side: one (d_model, len * d_k)
    matrix whose column blocks are the weights in list order."""
    return np.concatenate([w.data for w in weights], axis=1)


class IncrementalDecoder:
    """Cached decoder state for a batch of encoded sentences in lockstep.

    Built from a (batch, s, d_model) encoder memory and its (batch, s)
    source mask. ``step`` feeds one new target token per sentence, (batch,)
    ids at the next position, and returns the (batch, vocab_tgt) logits for
    it: each decoder layer projects only the new rows, appends their keys
    and values to its self-attention cache, and attends over the cache and
    over the encoder memory, whose cross-attention keys and values are
    projected once here.

    Head i's W_i^Q, W_i^K, W_i^V are column blocks of one matrix, so each
    attention's per-head weights are concatenated once, here: self-attention
    projects q, k and v of every head with one (d_model, 3 * d_model)
    product, cross-attention its queries with one (d_model, d_model) product
    and the memory's keys and values with one (d_model, 2 * d_model)
    product. The fused weights belong to this decoder, not to the model, so
    they always match the parameters it was built from. Per-head arrays are
    (batch, heads, rows, d_k) stacks, the layout of training's attention.

    Serving records no tape, so the state and every step are plain numpy
    arrays: no ``Tensor``, no tape entry and no per-op shape check. After
    the fused projections each step calls the array functions of training's
    taped blocks (``layers._attend``, ``_residual_layernorm`` and
    ``_feed_forward``), so its logits are those of taped ops on the same
    projections, bit for bit. Keys are kept as K^T in the C-ordered layout
    of the attention block's transposed copy, the memory's transposed once
    and each new self-attention row appended. The logits equal the last row
    of a teacher-forced ``decode_forward`` over the same prefix up to
    rounding (within 1e-12 relative in f64).
    """

    def __init__(self, model: KTransformer, memory: Tensor, src_mask: np.ndarray):
        cfg = model.config
        self.model = model
        self.heads, self.d_k = cfg.heads, cfg.d_model // cfg.heads
        keep = np.asarray(src_mask, dtype=bool)
        if memory.data.ndim != 3 or keep.shape != memory.data.shape[:2]:
            raise ValueError(f"memory {memory.data.shape} and source mask {keep.shape} are not (batch, s, d), (batch, s)")
        if not keep.any(axis=1).all():
            raise ValueError("attention row with every key masked out")
        self.scale = model.dtype.type(1.0 / math.sqrt(self.d_k))
        self.weights = [
            (_fused(layer.self_attn.wq + layer.self_attn.wk + layer.self_attn.wv), _fused(layer.cross_attn.wq))
            for layer in model.decoder
        ]
        self.memory = []
        for layer in model.decoder:
            k, v = self._project(memory.data, _fused(layer.cross_attn.wk + layer.cross_attn.wv))
            self.memory.append((np.swapaxes(k, -1, -2).copy(), v))
        self.memory_keep = keep[:, None, None, :]
        b = keep.shape[0]
        empty_kt = np.zeros((b, self.heads, self.d_k, 0), dtype=model.dtype)
        empty_v = np.zeros((b, self.heads, 0, self.d_k), dtype=model.dtype)
        self.cache = [(empty_kt, empty_v) for _ in model.decoder]
        self.length = 0

    def _project(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """x @ w for (batch, d_model) rows or a (batch, rows, d_model) batch
        and a fused weight of p (d_model, d_model) blocks, each block cut into
        per-head stacks: (p, batch, heads, rows, d_k)."""
        b, rows = x.shape[0], x.shape[1] if x.ndim == 3 else 1
        y = (x @ w).reshape(b, rows, -1, self.heads, self.d_k)
        return np.ascontiguousarray(y.transpose(2, 0, 3, 1, 4))

    def _attend(self, q: np.ndarray, wo: Tensor, kt: np.ndarray, v: np.ndarray, keep=None) -> np.ndarray:
        """Attention of the new rows over keys k^T given as ``kt``, projected
        by ``wo``; keys where ``keep`` is False get no weight."""
        _, out = _attend(q, kt, v, self.scale, keep=keep)
        # one query row per sentence: (batch, 1, d_model) is (batch, d_model)
        return out.reshape(q.shape[0], -1) @ wo.data

    def step(self, ids) -> np.ndarray:
        """Decode one position for every sentence; see the class docstring."""
        m = self.model
        if self.length > m.config.max_len:
            raise ValueError(f"decoder input length {self.length + 1} exceeds {m.config.max_len + 1}")
        x = m.tgt_embed.data[ids] + m.pe.data[self.length]
        for li, layer in enumerate(m.decoder):
            w_qkv, w_q = self.weights[li]
            q, k, v = self._project(x, w_qkv)
            kt = np.concatenate([self.cache[li][0], np.swapaxes(k, -1, -2)], axis=3)
            v = np.concatenate([self.cache[li][1], v], axis=2)
            self.cache[li] = (kt, v)
            x = _residual_layernorm(x, self._attend(q, layer.self_attn.wo, kt, v), layer.ln1)[0]
            (q,) = self._project(x, w_q)
            ca = self._attend(q, layer.cross_attn.wo, *self.memory[li], self.memory_keep)
            x = _residual_layernorm(x, ca, layer.ln2)[0]
            x = _residual_layernorm(x, _feed_forward(layer.ffn, x)[0], layer.ln3)[0]
        self.length += 1
        return x @ m.out_proj.data

    def keep_rows(self, rows: np.ndarray) -> None:
        """Keep only the sentences at ``rows`` (indices into the current batch)."""
        self.cache = [(k[rows], v[rows]) for k, v in self.cache]
        self.memory = [(k[rows], v[rows]) for k, v in self.memory]
        self.memory_keep = self.memory_keep[rows]


def loss(logits: Tensor, target_ids) -> Tensor:
    """Mean cross-entropy of logits rows against target ids, skipping <PAD>
    positions, per sentence for (B, m, vocab) logits; raises on an all-pad
    target."""
    targets = np.asarray(target_ids, dtype=np.int64)
    return masked_cross_entropy(logits, targets, targets != PAD_ID)
