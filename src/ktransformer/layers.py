"""Transformer building blocks: positional encodings, scaled dot-product
attention with an additive bias hook, multi-head attention, the position-wise
feed-forward network, residual layer norm, and inverted dropout.

Modules here are plain parameter containers plus pure functions; the wiring
into an encoder-decoder lives in ``model``.
"""

from __future__ import annotations

import math
from typing import Sequence

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


def dropout(x: Tensor, rate: float, rng: np.random.Generator | int | None, training: bool) -> Tensor:
    """Inverted dropout: zero each element with probability ``rate`` and
    scale survivors by 1/(1-rate). Identity when not training or rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    keep = rng.random(x.data.shape) >= rate
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
    """softmax(Q K^T / sqrt(d_k) + bias) V for one head, or for every head of
    (heads, n, d) stacks at once.

    Returns (output, attention weights). ``bias`` is an optional additive
    tensor of the scores' shape, applied to the scaled scores before
    masking. ``keep`` is an optional (n_q, n_k) boolean array shared by all
    heads; False entries are excluded from the softmax. A query row with no
    kept key is an error rather than a silent uniform distribution.
    """
    qs, ks, vs = q.data.shape, k.data.shape, v.data.shape
    if len(qs) not in (2, 3) or len(ks) != len(qs) or len(vs) != len(qs):
        raise ValueError(f"attention operands must be 2-D or 3-D alike, got {qs}, {ks}, {vs}")
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


class AttentionHead:
    """Projection weights for a single attention head."""

    def __init__(self, rng: np.random.Generator, d_model: int, d_k: int, dtype=np.float32):
        self.wq = Tensor(glorot(rng, d_model, d_k, dtype), requires_grad=True)
        self.wk = Tensor(glorot(rng, d_model, d_k, dtype), requires_grad=True)
        self.wv = Tensor(glorot(rng, d_model, d_k, dtype), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv}


class MultiHeadAttention:
    """h independent heads of width d_model/h plus the output projection."""

    def __init__(self, rng: np.random.Generator, d_model: int, n_heads: int, dtype=np.float32):
        if d_model % n_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.heads = [AttentionHead(rng, d_model, self.d_k, dtype) for _ in range(n_heads)]
        self.wo = Tensor(glorot(rng, d_model, d_model, dtype), requires_grad=True)

    def params(self) -> dict[str, Tensor]:
        out = {"wo": self.wo}
        for i, h in enumerate(self.heads):
            for name, p in h.params().items():
                out[f"head{i}.{name}"] = p
        return out


def multi_head_attention(
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    mha: MultiHeadAttention,
    per_head_bias: Sequence[Tensor] | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Concat_i head_i(Q W_i^Q, K W_i^K, V W_i^V) projected by W^O.

    Each head's projections run in head order (q, k, v), then all heads
    share one stacked attention chain; the tape therefore sums gradients in
    the same order as a per-head loop would, and every float matches it.
    ``per_head_bias`` optionally supplies one additive (n_q, n_k) score bias
    per head; this is the hook the clustering signal plugs into.
    """
    if per_head_bias is not None and len(per_head_bias) != mha.n_heads:
        raise ValueError(f"expected {mha.n_heads} per-head biases, got {len(per_head_bias)}")
    projected = [(matmul(q_in, h.wq), matmul(k_in, h.wk), matmul(v_in, h.wv)) for h in mha.heads]
    q, k, v = (stack(parts) for parts in zip(*projected))
    bias = stack(per_head_bias) if per_head_bias is not None else None
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
