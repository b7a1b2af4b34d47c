"""Transformer building blocks: positional encodings, multi-head attention
with an additive score-bias hook, the position-wise feed-forward network,
residual layer norm, and inverted dropout.

Modules here are parameter containers, which name each parameter where they
make it (``ParameterRecord``), plus pure functions; the wiring into an
encoder-decoder lives in ``model``.

Attention, feed-forward and residual layer norm are each one taped op: one
tape entry per call. Their forwards are array functions here (``_attend``,
``_feed_forward``, ``_residual_layernorm``) that serving's
``model.IncrementalDecoder`` calls too. Each block's rule makes the numpy
calls of the rules of the chain of simpler ops it stands for (matmul,
transpose, scale, add, masked fill, row softmax, head merge, relu, layer
norm) in that chain's reverse tape order, and hands an input that the chain
reads more than once its terms in the chain's order (``tensor.Terms``). Every BLAS product keeps the shapes and
operand layouts of the chain's: OpenBLAS picks its kernel by both, so one
product with the heads' weights side by side, or a transposed copy of an
operand, can change the bits. Loss and gradients are therefore the chain's,
bit for bit; the chain itself is kept in the tests as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (
    Tensor,
    Terms,
    _check_same_dtype,
    _emit,
    _fold,
    _fold_weight_grad,
    _fold_weight_grads,
    _layernorm_values,
    _softmax_values,
    _swap_last,
    _wrap,
    mul,
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


class ParameterRecord:
    """A module's trainable tensors by name, in the order made, which is the
    order of ``params()`` and, given ``size``, of one buffer of ``size``
    elements: ``new(name, shape)`` makes a zero-filled tensor on a fresh
    array or on the buffer's next ``shape`` elements (adopted without a
    copy) and records it. ``part(prefix)`` is a submodule's record on the
    same buffer and names, where ``name`` is ``prefix.name``. No record
    refers to itself, so a model's buffer is freed with its last reference,
    not when the cycle collector runs."""

    def __init__(self, dtype, size: int | None = None):
        self._prefix, self._named = "", {}
        self._zeros = lambda shape: np.zeros(shape, dtype=dtype)
        if size is not None:
            flat, offset = np.zeros(size, dtype=dtype), 0

            def zeros(shape):
                nonlocal flat, offset
                lo, offset = offset, offset + math.prod(shape)
                data = flat[lo:offset].reshape(shape)
                if offset == size:  # full: only the views hold it now, so rebinding them all frees it
                    flat = None
                return data

            self._zeros = zeros

    def __call__(self, name: str, shape: tuple[int, ...]) -> Tensor:
        self._named[self._prefix + name] = tensor = _wrap(self._zeros(shape), requires_grad=True)
        return tensor

    def part(self, prefix: str) -> ParameterRecord:
        part = object.__new__(ParameterRecord)
        part._prefix, part._named, part._zeros = f"{self._prefix}{prefix}.", self._named, self._zeros
        return part

    def params(self) -> dict[str, Tensor]:
        """A copy of the record: each tensor made, by name, in order."""
        n = len(self._prefix)
        return {name[n:]: t for name, t in self._named.items() if name.startswith(self._prefix)}


def glorot(rng: np.random.Generator | None, w: Tensor) -> Tensor:
    """Draw Glorot/Xavier uniform values for the (fan_in, fan_out) weight
    ``w`` into it and return it; without ``rng`` it is left as it is (the
    weight will be overwritten)."""
    if rng is not None:
        fan_in, fan_out = w.data.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w.data[...] = rng.uniform(-limit, limit, size=w.data.shape)
    return w


def dropout(x: Tensor, rate: float, uniform: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: zero each element whose U[0, 1) draw in ``uniform``
    (one per element) is below ``rate`` and scale survivors by 1/(1-rate).
    Identity without draws or at rate 0; the caller owns the randomness."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if uniform is None or rate == 0.0:
        return x
    keep = uniform >= rate
    mask = Tensor((keep / (1.0 - rate)).astype(x.data.dtype))
    return mul(x, mask)


class LayerNormParams:
    """Learnable gain/shift for one layer-norm site."""

    def __init__(self, d_model: int, dtype=np.float32, new=None):
        new = new or ParameterRecord(dtype)
        self.params = new.params
        self.gain = new("gain", (d_model,))
        self.gain.data[...] = 1
        self.shift = new("shift", (d_model,))


def _residual_layernorm(x: np.ndarray, sublayer_out: np.ndarray, ln: LayerNormParams):
    """Post-norm residual connection on arrays, layernorm(x + sublayer_out):
    ``tensor._layernorm_values``' (y, xhat, std)."""
    return _layernorm_values(x + sublayer_out, ln.gain.data, ln.shift.data)


def residual_layernorm(x: Tensor, sublayer_out: Tensor, ln: LayerNormParams) -> Tensor:
    """Post-norm residual connection, layernorm(x + sublayer_out), over the
    rows of (n, d) tensors or of each sentence of (B, n, d) batches: each
    row normalized to zero mean and unit population variance (with
    ``tensor.LAYERNORM_EPS`` added to the variance), then scaled by the
    gain and shifted. With a batch axis the gain's and shift's gradients are
    per-sentence sums, folded."""
    _check_same_dtype(x, sublayer_out, ln.gain, ln.shift)
    shape = x.data.shape
    d = shape[-1]
    if sublayer_out.data.shape != shape:
        raise ValueError(f"add shape mismatch: {shape} + {sublayer_out.data.shape}")
    if x.data.ndim not in (2, 3) or ln.gain.data.shape != (d,) or ln.shift.data.shape != (d,):
        raise ValueError(f"layernorm shapes: x {shape}, gain {ln.gain.data.shape}, shift {ln.shift.data.shape}")
    y, xhat, std = _residual_layernorm(x.data, sublayer_out.data, ln)
    gd = ln.gain.data
    fold = _fold if x.data.ndim == 3 else (lambda c: c)

    def rule(g):
        # layer norm's rule, then the sum's: both summands get the same gradient
        dgain = fold((g * xhat).sum(axis=-2))
        dshift = fold(g.sum(axis=-2))
        dxhat = g * gd
        dx = (
            dxhat - dxhat.sum(axis=-1, keepdims=True) / d - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        ) / std
        return dx, dx, dgain, dshift

    return _emit((x, sublayer_out, ln.gain, ln.shift), y, rule)


class MultiHeadAttention:
    """h heads of width d_k = d_model/h plus the output projection.

    ``wq``, ``wk`` and ``wv`` are lists with one (d_model, d_k) projection
    per head: head i's W_i^Q is ``wq[i]``, named ``head{i}.wq``. ``wo`` is
    made first, where checkpoints have always held it, but drawn last: the
    draws from ``rng`` go head by head (head 0's wq, wk, wv, then head 1's,
    ...), then ``wo``.
    """

    def __init__(self, rng: np.random.Generator | None, d_model: int, n_heads: int, dtype=np.float32, new=None):
        if d_model % n_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by {n_heads} heads")
        new = new or ParameterRecord(dtype)
        self.params = new.params
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.wo = new("wo", (d_model, d_model))
        self.wq, self.wk, self.wv = [], [], []
        for i in range(n_heads):
            for part, ws in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv)):
                ws.append(glorot(rng, new(f"head{i}.{part}", (d_model, self.d_k))))
        glorot(rng, self.wo)


def _heads_first(a: np.ndarray) -> np.ndarray:
    """A (..., heads, rows, cols) stack viewed as (heads, ..., rows, cols)."""
    lead = a.ndim - 3
    return a.transpose(lead, *range(lead), lead + 1, lead + 2)


def _project_heads(x: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """x @ ws[i] for each of a part's per-head weights ``ws`` (heads,
    d_model, d_k), stacked C-ordered: (..., heads, rows, d_k). One batched
    matmul, whose every product has the shapes and layouts of x @ ws[i]
    alone, so each head's bits are that lone product's."""
    out = np.empty((*x.shape[:-2], ws.shape[0], x.shape[-2], ws.shape[-1]), dtype=x.dtype)
    np.matmul(x, ws[(slice(None),) + (None,) * (x.ndim - 2)], out=_heads_first(out))
    return out


def _attend(q: np.ndarray, kt: np.ndarray, v: np.ndarray, scale, bias=None, keep=None):
    """softmax(q k^T * scale + bias) v for every head (and sentence) of
    (..., heads, rows, d_k) stacks, with k^T given as ``kt``; keys where
    ``keep`` is False get no weight. Returns (attention weights, the heads'
    outputs side by side: (..., rows, heads * d_k))."""
    scores = (q @ kt) * scale
    if bias is not None:
        scores = scores + bias
    if keep is not None:
        scores = np.where(keep, scores, scores.dtype.type(NEG_INF))
    weights = _softmax_values(scores)
    out = weights @ v
    *lead, heads, rows, d_k = out.shape
    return weights, np.swapaxes(out, -3, -2).reshape(*lead, rows, heads * d_k)


def _projection_grads(x: np.ndarray, ws: list[np.ndarray], gs: list[np.ndarray], with_dx: bool):
    """The backward of ``_project_heads(x, ws[p])`` for each part p, from
    the gradients ``gs[p]`` of its (..., heads, rows, d_k) stacks: what the
    per-head matmuls it stands for hand back, in the same BLAS products.

    Returns (weight gradients, x's terms). The weight gradients are one
    contiguous (d_model, d_k) block per part and head, (parts, heads,
    d_model, d_k), the per-sentence products folded in one fold. x's terms,
    when ``with_dx``, are gs[p][..., i, :, :] @ ws[p][i]^T of the last head
    first and, within a head, of the last part first."""
    parts, heads = len(gs), gs[0].shape[-3]
    dw = _fold_weight_grads(x, gs)
    if not with_dx:
        return dw, None
    lead = (slice(None),) + (None,) * (x.ndim - 2)
    slots = np.empty((1 + heads * parts, *x.shape), dtype=x.dtype)
    terms = slots[1:].reshape(heads, parts, *x.shape)[::-1, ::-1]
    for p, (w, g) in enumerate(zip(ws, gs)):
        np.matmul(_heads_first(g), _swap_last(w)[lead], out=terms[:, p])
    return dw, Terms(slots)


def multi_head_attention(
    q_in: Tensor,
    kv_in: Tensor,
    mha: MultiHeadAttention,
    bias: Tensor | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """Concat_i head_i(X W_i^Q, M W_i^K, M W_i^V) projected by W^O, for
    (n, d_model) inputs or (B, n, d_model) batches, with X = ``q_in`` and
    M = ``kv_in``: ``q_in`` itself for self-attention, the encoder memory
    for cross-attention. head_i(Q, K, V) = softmax(Q K^T / sqrt(d_k) +
    bias_i) V, where ``bias`` optionally supplies an additive score bias of
    shape (..., heads, n_q, n_k), the hook the clustering signal plugs into,
    and ``keep`` optionally a boolean mask that broadcasts to the scores'
    shape: False entries are excluded from the softmax. A query row with no
    kept key is an error rather than a silent uniform distribution.

    One tape entry. Each part's projections (q, k, v) are one batched
    matmul over the heads, and all heads then share one stacked
    (..., heads, n, d_k) chain. The rule hands every float the per-head
    chain would, from the same BLAS products with the same shapes and
    layouts: X (and M, for self-attention) gets the terms of v, k and q of
    the last head, then of the head before, and so on; in cross-attention X
    gets q's terms from the last head on and M the terms of v and k.
    """
    weights_in = (*mha.wq, *mha.wk, *mha.wv)
    dtype = _check_same_dtype(q_in, kv_in, mha.wo, *weights_in)
    cross = q_in is not kv_in
    qs, ks = q_in.data.shape, kv_in.data.shape
    d_model = mha.wo.data.shape[0]
    for s in (qs, ks):
        if len(s) not in (2, 3) or s[-1] != d_model:
            raise ValueError(f"matmul shape mismatch: {s} x {(d_model, mha.d_k)}")
    if len(qs) != len(ks) or qs[:-2] != ks[:-2]:
        raise ValueError(f"attention shape mismatch: queries {qs}, keys and values {ks}")
    heads, d_k = mha.n_heads, mha.d_k
    scores_shape = (*qs[:-2], heads, qs[-2], ks[-2])
    if bias is not None:
        _check_same_dtype(q_in, bias)
        if bias.data.shape != scores_shape:
            raise ValueError(f"bias shape {bias.data.shape} does not match scores {scores_shape}")
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if not keep.any(axis=-1).all():
            raise ValueError("attention row with every key masked out")
        if keep.ndim > len(scores_shape) or np.broadcast_shapes(keep.shape, scores_shape) != scores_shape:
            raise ValueError(f"mask shape {keep.shape} does not match tensor shape {scores_shape}")

    x, mem, wo = q_in.data, kv_in.data, mha.wo.data
    w_q, w_k, w_v = (np.stack([w.data for w in ws]) for ws in (mha.wq, mha.wk, mha.wv))
    q, k, v = _project_heads(x, w_q), _project_heads(mem, w_k), _project_heads(mem, w_v)
    kt = _swap_last(k).copy()
    cv = dtype.type(1.0 / math.sqrt(d_k))
    attn, merged = _attend(q, kt, v, cv, None if bias is None else bias.data, keep)

    def rule(g):
        # the rules of the chain's ops, last op first: @ wo, head merge,
        # @ v, softmax, mask, + bias, scale, q @ k^T, k's transpose
        dwo = _fold_weight_grad(merged, g)
        g = g @ _swap_last(wo)
        g = np.ascontiguousarray(np.swapaxes(g.reshape(*g.shape[:-1], heads, d_k), -3, -2))
        dv = _swap_last(attn) @ g
        g = g @ _swap_last(v)
        g = attn * (g - (g * attn).sum(axis=-1, keepdims=True))
        if keep is not None:
            g = g * keep
        dbias = g
        g = g * cv
        dk = _swap_last(_swap_last(q) @ g)
        dq = g @ _swap_last(kt)
        if cross:
            dw_kv, mem_terms = _projection_grads(mem, [w_k, w_v], [dk, dv], kv_in.requires_grad)
            dw_q, x_terms = _projection_grads(x, [w_q], [dq], q_in.requires_grad)
            grads = (x_terms, mem_terms, *dw_q[0], *dw_kv[0], *dw_kv[1])
        else:
            dw, x_terms = _projection_grads(x, [w_q, w_k, w_v], [dq, dk, dv], q_in.requires_grad)
            grads = (x_terms, *dw.reshape(-1, d_model, d_k))
        return grads + (dwo,) + (() if bias is None else (dbias,))

    inputs = (q_in, kv_in) if cross else (q_in,)
    inputs += weights_in + (mha.wo,) + (() if bias is None else (bias,))
    return _emit(inputs, merged @ wo, rule)


class FeedForward:
    """Two-layer position-wise network with an inner ReLU."""

    def __init__(self, rng: np.random.Generator | None, d_model: int, d_ff: int, dtype=np.float32, new=None):
        new = new or ParameterRecord(dtype)
        self.params = new.params
        self.w1 = glorot(rng, new("w1", (d_model, d_ff)))
        self.b1 = new("b1", (d_ff,))
        self.w2 = glorot(rng, new("w2", (d_ff, d_model)))
        self.b2 = new("b2", (d_model,))


def _feed_forward(ff: FeedForward, x: np.ndarray):
    """max(0, x W1 + b1) W2 + b2 on arrays: (output, the ReLU's output)."""
    h = x @ ff.w1.data + ff.b1.data
    hidden = np.where(h > 0, h, h.dtype.type(0))
    return hidden @ ff.w2.data + ff.b2.data, hidden


def feed_forward(ff: FeedForward, x: Tensor) -> Tensor:
    """max(0, x W1 + b1) W2 + b2 applied to every row of an (n, d_model)
    tensor or of each sentence of a (B, n, d_model) batch; the ReLU's
    subgradient at exactly 0 is 0. With a batch axis each weight's and
    bias's gradient is its per-sentence sum, folded."""
    w1, b1, w2, b2 = ff.w1.data, ff.b1.data, ff.w2.data, ff.b2.data
    _check_same_dtype(x, ff.w1, ff.b1, ff.w2, ff.b2)
    xs = x.data.shape
    if len(xs) not in (2, 3) or xs[-1] != w1.shape[0] or w2.shape[0] != w1.shape[1]:
        raise ValueError(f"matmul shape mismatch: {xs} x {w1.shape} x {w2.shape}")
    if b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]:
        raise ValueError(f"add shape mismatch: biases {b1.shape}, {b2.shape} for weights {w1.shape}, {w2.shape}")
    xd = x.data
    out, hidden = _feed_forward(ff, xd)
    batched = len(xs) == 3

    def bias_grad(g):
        return _fold(g.sum(axis=1)) if batched else g.sum(axis=0)

    def rule(g):
        # + b2, @ W2, relu, + b1, @ W1, last op first; hidden > 0 exactly
        # where the pre-activation is
        db2 = bias_grad(g)
        dw2 = _fold_weight_grad(hidden, g)
        g = (g @ _swap_last(w2)) * (hidden > 0)
        db1 = bias_grad(g)
        dw1 = _fold_weight_grad(xd, g)
        return g @ _swap_last(w1), dw1, db1, dw2, db2

    return _emit((x, ff.w1, ff.b1, ff.w2, ff.b2), out, rule)
