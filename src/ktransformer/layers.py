"""Transformer building blocks: positional encodings, scaled dot-product
attention with an additive bias hook, multi-head attention, the position-wise
feed-forward network, residual layer norm, and inverted dropout.

Modules here are plain parameter containers plus pure functions; the wiring
into an encoder-decoder lives in ``model``.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (
    Tensor,
    add,
    layernorm_rows,
    masked_fill,
    matmul,
    merge_heads,
    mul,
    relu,
    scale,
    softmax_rows,
    stack,
    transpose,
)

NEG_INF = float("-inf")


def positional_encoding(max_len: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal position table of shape (max_len, d_model).

    Feature pair 2i uses sin(pos / 10000^(2i/d_model)) and feature 2i+1 the
    cosine at the same frequency, so every position gets a unique phase
    pattern and relative offsets are linear functions of the encodings.
    """
    if max_len < 1 or d_model < 2 or d_model % 2 != 0:
        raise ValueError(f"positional table needs max_len >= 1 and even d_model >= 2, got ({max_len}, {d_model})")
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    even = np.arange(0, d_model, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, even / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : d_model // 2])
    return table.astype(dtype)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def dropout(
    x: Tensor,
    rate: float,
    rng: np.random.Generator | int | None,
    training: bool,
    uniform: np.ndarray | None = None,
) -> Tensor:
    """Inverted dropout: zero each element with probability ``rate`` and
    scale survivors by 1/(1-rate). Identity when not training or rate is 0.
    ``uniform`` optionally supplies the U[0, 1) samples, one per element,
    instead of drawing them from ``rng``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if uniform is None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        uniform = rng.random(x.data.shape)
    keep = uniform >= rate
    mask = Tensor((keep / (1.0 - rate)).astype(x.data.dtype))
    return mul(x, mask)


class LayerNormParams:
    """Learnable gain/shift for one layer-norm site."""

    def __init__(self, d_model: int, dtype=np.float32):
        self.gain = Tensor(np.ones(d_model, dtype=dtype), requires_grad=True)
        self.shift = Tensor(np.zeros(d_model, dtype=dtype), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        return {"gain": self.gain, "shift": self.shift}


def residual_layernorm(x: Tensor, sublayer_out: Tensor, ln: LayerNormParams, eps: float = 1e-5) -> Tensor:
    """Post-norm residual connection: layernorm(x + sublayer_out)."""
    return layernorm_rows(add(x, sublayer_out), ln.gain, ln.shift, eps=eps)


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    bias: Tensor | None = None,
    keep: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """softmax(Q K^T / sqrt(d_k) + bias) V for one head, or for every head
    (and sentence) of (..., heads, n, d) stacks at once.

    Returns (output, attention weights). ``bias`` is an optional additive
    tensor of the scores' shape, applied to the scaled scores before
    masking. ``keep`` is an optional boolean array that broadcasts to the
    scores' shape, e.g. one (n_q, n_k) mask shared by all heads; False
    entries are excluded from the softmax. A query row with no kept key is
    an error rather than a silent uniform distribution.
    """
    qs, ks, vs = q.data.shape, k.data.shape, v.data.shape
    if len(qs) < 2 or len(ks) != len(qs) or len(vs) != len(qs):
        raise ValueError(f"attention operands must be stacks of matrices alike, got {qs}, {ks}, {vs}")
    if qs[:-2] != ks[:-2] or ks[:-2] != vs[:-2] or qs[-1] != ks[-1] or ks[-2] != vs[-2]:
        raise ValueError(f"attention shape mismatch: q {qs}, k {ks}, v {vs}")
    d_k = qs[-1]
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    if bias is not None:
        if bias.data.shape != scores.data.shape:
            raise ValueError(f"bias shape {bias.data.shape} does not match scores {scores.data.shape}")
        scores = add(scores, bias)
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if not keep.any(axis=-1).all():
            raise ValueError("attention row with every key masked out")
        scores = masked_fill(scores, keep, NEG_INF)
    weights = softmax_rows(scores)
    return matmul(weights, v), weights


class MultiHeadAttention:
    """h heads of width d_k = d_model/h plus the output projection.

    ``wq``, ``wk`` and ``wv`` are lists with one (d_model, d_k) projection
    per head: head i's W_i^Q is ``wq[i]``. They are drawn from ``rng`` head
    by head (head 0's wq, wk, wv, then head 1's, ...), then ``wo``, and
    ``params`` names them ``head{i}.wq`` and so on, after ``wo``.
    """

    def __init__(self, rng: np.random.Generator, d_model: int, n_heads: int, dtype=np.float32):
        if d_model % n_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.wq, self.wk, self.wv = [], [], []
        for _ in range(n_heads):
            for ws in (self.wq, self.wk, self.wv):
                ws.append(Tensor(glorot(rng, d_model, self.d_k, dtype), requires_grad=True))
        self.wo = Tensor(glorot(rng, d_model, d_model, dtype), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        out = {"wo": self.wo}
        for i in range(self.n_heads):
            out |= {f"head{i}.wq": self.wq[i], f"head{i}.wk": self.wk[i], f"head{i}.wv": self.wv[i]}
        return out


def multi_head_attention(
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    mha: MultiHeadAttention,
    bias: Tensor | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Concat_i head_i(Q W_i^Q, K W_i^K, V W_i^V) projected by W^O, for
    (n, d_model) inputs or (B, n, d_model) batches.

    Each head's projections run in head order (q, k, v), then all heads
    share one stacked (..., heads, n, d_k) attention chain; the tape
    therefore sums gradients in the same order as a per-head loop would, and
    every float matches it. ``bias`` optionally supplies an additive score
    bias of shape (..., heads, n_q, n_k); this is the hook the clustering
    signal plugs into.
    """
    heads = zip(mha.wq, mha.wk, mha.wv)
    projected = [(matmul(q_in, wq), matmul(k_in, wk), matmul(v_in, wv)) for wq, wk, wv in heads]
    q, k, v = (stack(parts) for parts in zip(*projected))
    out, _ = scaled_dot_attention(q, k, v, bias=bias, keep=keep)
    return matmul(merge_heads(out), mha.wo)


class FeedForward:
    """Two-layer position-wise network with an inner ReLU."""

    def __init__(self, rng: np.random.Generator, d_model: int, d_ff: int, dtype=np.float32):
        self.w1 = Tensor(glorot(rng, d_model, d_ff, dtype), requires_grad=True)
        self.b1 = Tensor(np.zeros(d_ff, dtype=dtype), requires_grad=True)
        self.w2 = Tensor(glorot(rng, d_ff, d_model, dtype), requires_grad=True)
        self.b2 = Tensor(np.zeros(d_model, dtype=dtype), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def feed_forward(ff: FeedForward, x: Tensor) -> Tensor:
    """max(0, x W1 + b1) W2 + b2 applied to every row."""
    return add(matmul(relu(add(matmul(x, ff.w1), ff.b1)), ff.w2), ff.b2)
