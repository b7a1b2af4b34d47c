"""Lloyd's k-means over small point sets, sized for per-sentence use.

The fit is deterministic given a seed, repairs empty clusters instead of
silently dropping them, and tracks the mean squared distance after every
iteration so callers can assert the descent property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# kmeans_fit's stopping rule, read at each call
KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 100


@dataclass
class ClusterResult:
    """Outcome of one k-means fit."""

    centroids: np.ndarray          # (k, d)
    assignments: np.ndarray        # (n,) int64, values in [0, k)
    mse: float
    iterations: int
    mse_history: list[float] = field(default_factory=list)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points)
    if pts.dtype not in (np.float32, np.float64):
        pts = pts.astype(np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    return pts


def assign(points, centroids) -> np.ndarray:
    """Index of the nearest centroid per point (squared Euclidean).

    Distance ties resolve to the lowest centroid index.
    """
    pts = _as_points(points)
    cen = np.asarray(centroids, dtype=pts.dtype)
    if cen.ndim != 2 or cen.shape[1] != pts.shape[1]:
        raise ValueError(f"centroid shape {cen.shape} does not match points {pts.shape}")
    diff = pts[:, None, :] - cen[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    return d2.argmin(axis=1).astype(np.int64)


def mse(points, centroids, assignments) -> float:
    """Mean over all points of the squared distance to the assigned centroid."""
    pts = _as_points(points)
    cen = np.asarray(centroids, dtype=pts.dtype)
    a = np.asarray(assignments, dtype=np.int64)
    diff = pts - cen[a]
    return float((diff * diff).sum() / pts.shape[0])


def _repair_empty(pts: np.ndarray, centroids: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Reseat every empty cluster on the point currently worst served.

    The donor point is the one farthest from its own centroid among clusters
    holding at least two points, so no repair ever empties another cluster;
    with n >= k a donor always exists. Cost never increases: the moved
    point's distance drops to zero and no other term changes.
    """
    k = centroids.shape[0]
    counts = np.bincount(a, minlength=k)
    while (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        d2 = ((pts - centroids[a]) ** 2).sum(axis=1)
        donors = counts[a] >= 2
        if not donors.any():
            raise RuntimeError("empty cluster with no donor; need at least k points")
        d2 = np.where(donors, d2, -1.0)
        p = int(d2.argmax())
        counts[a[p]] -= 1
        counts[empty] += 1
        a[p] = empty
        centroids[empty] = pts[p]
    return a


def kmeans_fit(points, k: int, seed: int = 0) -> ClusterResult:
    """Fit k centroids by Lloyd iteration.

    Centroids start on k distinct sample points chosen by ``seed``. Each
    round reassigns points to their nearest centroid, repairs empty clusters,
    then moves every centroid to the mean of its members; the loop stops when
    no centroid moved more than ``KMEANS_TOL`` (Euclidean) or after
    ``KMEANS_MAX_ITER`` rounds. The recorded per-round mse values never
    increase.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(n, size=k, replace=False)].copy()
    history: list[float] = []
    a = np.zeros(n, dtype=np.int64)
    it = 0
    for it in range(1, KMEANS_MAX_ITER + 1):
        a = assign(pts, centroids)
        a = _repair_empty(pts, centroids, a)
        moved = 0.0
        for j in range(k):
            members = pts[a == j]
            mean_j = members.sum(axis=0) / members.shape[0]  # ndarray.mean's sum and division, minus its Python wrapper
            moved = max(moved, float(np.sqrt(((mean_j - centroids[j]) ** 2).sum())))
            centroids[j] = mean_j
        history.append(mse(pts, centroids, a))
        if moved < KMEANS_TOL:
            break
    return ClusterResult(centroids=centroids, assignments=a, mse=history[-1], iterations=it, mse_history=history)
