"""Test-only oracles: slow, obviously correct references that the program's
fast paths are checked against, kept out of the package because no program
path calls them.

- ``finite_diff_check``: tape gradients against central differences;
- ``cluster_bias``, ``_same_cluster``, ``_centroid_cosines``: the cluster
  bias of one head of one sentence, which ``KTransformer.cluster_bias_tables``
  builds for a whole batch and every head at once;
- ``assign`` and ``mse``: nearest-centroid assignment and the k-means cost;
- ``kmeans_fit``: the fit of one point set, a batch of one through
  ``kmeans_fit_batch``;
- the taped op chains that ``layers``' one-entry blocks stand for, op by
  op: ``multi_head_attention_per_op`` (with ``scaled_dot_attention``),
  ``feed_forward_per_op`` and ``residual_layernorm_per_op``, on the tensor
  ops that only they use (``transpose``, ``relu``, ``softmax_rows``,
  ``stack``, ``merge_heads``, ``masked_fill``, ``layernorm_rows``). The
  blocks' forward values and gradients must equal these byte for byte.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ktransformer.cluster import ClusterResult, _as_points, _nearest, kmeans_fit_batch
from ktransformer.layers import NEG_INF, FeedForward, LayerNormParams, MultiHeadAttention
from ktransformer.model import CLUSTER_MODES, ClusterBiasParams
from ktransformer.tensor import (
    GradientTape,
    Tensor,
    _check_same_dtype,
    _emit,
    _fold,
    _layernorm_values,
    _softmax_values,
    _swap_last,
    add,
    backward,
    matmul,
    mul,
    scale,
)


def finite_diff_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between tape gradients of ``f`` and central
    finite differences, elementwise over ``x``.

    ``f`` must map one tensor to a scalar tensor. ``x`` is copied into a
    float64 leaf; the analytic gradient comes from one taped reverse sweep
    and the numeric one from two untaped forward evaluations per element.
    """
    leaf = Tensor(np.asarray(x.data, dtype=np.float64), requires_grad=True)
    with GradientTape() as tape:
        y = f(leaf)
    if y.data.shape not in ((), (1,)):
        raise ValueError("finite_diff_check needs a scalar-valued function")
    backward(y, tape)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    aflat = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(leaf).data)
        flat[i] = orig - step
        fm = float(f(leaf).data)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * step)
        a = float(aflat[i])
        err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
        worst = max(worst, err)
    return worst


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


def assign(points, centroids) -> np.ndarray:
    """Index of the nearest centroid per point (squared Euclidean).

    Distance ties resolve to the lowest centroid index.
    """
    pts = _as_points(points)
    cen = np.asarray(centroids, dtype=pts.dtype)
    if cen.ndim != 2 or cen.shape[1] != pts.shape[1]:
        raise ValueError(f"centroid shape {cen.shape} does not match points {pts.shape}")
    return _nearest(pts[None], cen[None], np.ones((1, cen.shape[0]), dtype=bool))[0]


def mse(points, centroids, assignments) -> float:
    """Mean over all points of the squared distance to the assigned centroid."""
    pts = _as_points(points)
    cen = np.asarray(centroids, dtype=pts.dtype)
    a = np.asarray(assignments, dtype=np.int64)
    diff = pts - cen[a]
    return float((diff * diff).sum() / pts.shape[0])


def kmeans_fit(points, k: int, seed: int = 0) -> ClusterResult:
    """Fit k centroids to one (n, d) point set: ``kmeans_fit_batch`` over a
    batch of one, with k in [1, n]."""
    pts = _as_points(points)
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f"k must be in [1, {pts.shape[0]}], got {k}")
    return kmeans_fit_batch(pts[None], [pts.shape[0]], k, seed)[0]


# ---------------------------------------------------------------- per-op chains


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


def multi_head_attention_per_op(
    q_in: Tensor,
    kv_in: Tensor,
    mha: MultiHeadAttention,
    bias: Tensor | None = None,
    keep: np.ndarray | None = None,
) -> Tensor:
    """``layers.multi_head_attention`` as a chain of taped ops: each head's
    projections in head order (q, k, v), the heads stacked, one stacked
    ``scaled_dot_attention``, the heads merged, then W^O."""
    heads = zip(mha.wq, mha.wk, mha.wv)
    projected = [(matmul(q_in, wq), matmul(kv_in, wk), matmul(kv_in, wv)) for wq, wk, wv in heads]
    q, k, v = (stack(parts) for parts in zip(*projected))
    out, _ = scaled_dot_attention(q, k, v, bias=bias, keep=keep)
    return matmul(merge_heads(out), mha.wo)


def feed_forward_per_op(ff: FeedForward, x: Tensor) -> Tensor:
    """``layers.feed_forward`` as a chain of taped ops."""
    return add(matmul(relu(add(matmul(x, ff.w1), ff.b1)), ff.w2), ff.b2)


def residual_layernorm_per_op(x: Tensor, sublayer_out: Tensor, ln: LayerNormParams) -> Tensor:
    """``layers.residual_layernorm`` as a chain of taped ops."""
    return layernorm_rows(add(x, sublayer_out), ln.gain, ln.shift)


# ---------------------------------------------------------------- their tensor ops


def _check_matrix_or_stack(x: Tensor, op: str) -> None:
    if x.data.ndim < 2:
        raise ValueError(f"{op} expects a matrix or a stack of matrices, got shape {x.data.shape}")


def transpose(x: Tensor) -> Tensor:
    """Matrix transpose, applied to each matrix of a stack."""
    _check_matrix_or_stack(x, "transpose")

    def rule(g):
        return (_swap_last(g),)

    return _emit((x,), _swap_last(x.data).copy(), rule)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    mask = x.data > 0

    def rule(g):
        return (g * mask,)

    return _emit((x,), np.where(mask, x.data, x.data.dtype.type(0)), rule)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor or of each matrix of a stack,
    stabilized by row-max subtraction."""
    _check_matrix_or_stack(x, "softmax_rows")
    s = _softmax_values(x.data)

    def rule(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _emit((x,), s, rule)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape matrices, or equal-shape batches of matrices, along
    a new (head) axis in front of the last two: (..., rows, cols) parts give
    (..., len(parts), rows, cols)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("stack needs at least one tensor")
    _check_same_dtype(*parts)
    shape = parts[0].data.shape
    if len(shape) < 2 or any(p.data.shape != shape for p in parts):
        raise ValueError(f"stack needs equal shapes of 2 or more axes, got {[p.data.shape for p in parts]}")

    def rule(g):
        return tuple(g[..., i, :, :] for i in range(len(parts)))

    return _emit(parts, np.stack([p.data for p in parts], axis=-3), rule)


def merge_heads(x: Tensor) -> Tensor:
    """(..., heads, rows, width) -> (..., rows, heads * width): head i's
    matrix becomes columns i*width .. (i+1)*width - 1, as in the multi-head
    concatenation."""
    if x.data.ndim < 3:
        raise ValueError(f"merge_heads expects a (..., heads, rows, width) stack, got shape {x.data.shape}")
    *lead, h, n, w = x.data.shape

    def rule(g):
        return (np.ascontiguousarray(np.swapaxes(g.reshape(*lead, n, h, w), -3, -2)),)

    return _emit((x,), np.swapaxes(x.data, -3, -2).reshape(*lead, n, h * w), rule)


def masked_fill(x: Tensor, keep, fill: float) -> Tensor:
    """Replace positions where ``keep`` is False with ``fill`` (e.g. -inf).
    ``keep`` may be any shape that broadcasts to the tensor's, e.g. one
    (rows, cols) mask for every head of a stack."""
    keep = np.asarray(keep, dtype=bool)
    if keep.ndim > x.data.ndim or np.broadcast_shapes(keep.shape, x.data.shape) != x.data.shape:
        raise ValueError(f"mask shape {keep.shape} does not match tensor shape {x.data.shape}")

    def rule(g):
        return (g * keep,)

    return _emit((x,), np.where(keep, x.data, x.data.dtype.type(fill)), rule)


def layernorm_rows(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize each row of an (n, d) tensor or of each sentence of a
    (B, n, d) batch to zero mean / unit population variance (with
    ``LAYERNORM_EPS`` added to the variance), then apply an affine gain and
    shift over the feature axis."""
    _check_same_dtype(x, gain, shift)
    d = x.data.shape[-1]
    if x.data.ndim not in (2, 3) or gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ValueError(
            f"layernorm shapes: x {x.data.shape}, gain {gain.data.shape}, shift {shift.data.shape}"
        )
    y, xhat, std = _layernorm_values(x.data, gain.data, shift.data)
    gd = gain.data
    fold = _fold if x.data.ndim == 3 else (lambda c: c)

    def rule(g):
        dgain = fold((g * xhat).sum(axis=-2))
        dshift = fold(g.sum(axis=-2))
        dxhat = g * gd
        dx = (
            dxhat - dxhat.sum(axis=-1, keepdims=True) / d - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        ) / std
        return dx, dgain, dshift

    return _emit((x, gain, shift), y, rule)
