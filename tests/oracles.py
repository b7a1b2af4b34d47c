"""Test-only oracles: slow, obviously correct references that the program's
fast paths are checked against, kept out of the package because no program
path calls them.

- ``finite_diff_check``: tape gradients against central differences;
- ``cluster_bias``, ``_same_cluster``, ``_centroid_cosines``: the cluster
  bias of one head of one sentence, which ``KTransformer.cluster_bias_tables``
  builds for a whole batch and every head at once;
- ``assign`` and ``mse``: nearest-centroid assignment and the k-means cost;
- ``kmeans_fit``: the fit of one point set, a batch of one through
  ``kmeans_fit_batch``.
"""

from __future__ import annotations

import numpy as np

from ktransformer.cluster import ClusterResult, _as_points, _nearest, kmeans_fit_batch
from ktransformer.model import CLUSTER_MODES, ClusterBiasParams
from ktransformer.tensor import GradientTape, Tensor, add, backward, mul


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
