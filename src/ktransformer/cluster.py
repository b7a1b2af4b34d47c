"""Lloyd's k-means over small point sets, sized for per-sentence use.

The fit is deterministic given a seed, repairs empty clusters instead of
silently dropping them, and tracks the mean squared distance after every
iteration so callers can assert the descent property. ``kmeans_fit_batch``
runs one Lloyd loop for a whole padded batch of sentences, each with its own
length, cluster count and stopping round, and gives every sentence the floats
that fitting it alone gives; ``kmeans_fit`` is its batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# kmeans_fit_batch's stopping rule, read at each call
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


@dataclass
class ClusterBatch:
    """Outcome of one batched fit. Sentence b has ``k[b]`` clusters: its
    centroids are ``centroids[b, :k[b]]`` (later slots are zero) and its
    assignments ``assignments[b, :lengths[b]]`` (later rows are -1).
    ``batch[b]`` is sentence b's ``ClusterResult``."""

    centroids: np.ndarray          # (B, K, d), K the largest k[b]
    assignments: np.ndarray        # (B, n) int64
    lengths: np.ndarray            # (B,) int64
    k: np.ndarray                  # (B,) int64, min(requested k, lengths[b])
    iterations: np.ndarray         # (B,) int64
    mse_history: list[list[float]]

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, b: int) -> ClusterResult:
        history = self.mse_history[b]
        return ClusterResult(
            centroids=self.centroids[b, : self.k[b]],
            assignments=self.assignments[b, : self.lengths[b]],
            mse=history[-1],
            iterations=int(self.iterations[b]),
            mse_history=history,
        )


def _as_points(points, ndim: int = 2) -> np.ndarray:
    """``points`` as a float array of ``ndim`` axes, the last one d: (n, d),
    or (batch, n, d) for a padded batch; no axis before d may be empty."""
    pts = np.asarray(points)
    if pts.dtype not in (np.float32, np.float64):
        pts = pts.astype(np.float64)
    if pts.ndim != ndim or 0 in pts.shape[:-1]:
        raise ValueError(f"points must be a non-empty array of {ndim} axes ending in d, got shape {pts.shape}")
    return pts


def _nearest(pts: np.ndarray, centroids: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(B, n) index of each point's nearest centroid among the (B, K) ``slots``
    in use, by squared Euclidean distance; ties go to the lowest index."""
    diff = pts[:, :, None, :] - centroids[:, None, :, :]
    d2 = (diff * diff).sum(axis=3)
    return np.where(slots[:, None, :], d2, np.inf).argmin(axis=2)


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


def _repair_empty(pts, centroids, a, slots, real) -> None:
    """Reseat every empty cluster on the point currently worst served, in
    place on ``centroids`` and ``a``: one reseat per affected sentence per
    pass, its lowest-index empty slot first.

    The donor point is the one farthest from its own centroid among clusters
    holding at least two points, so no repair ever empties another cluster;
    with n >= k a donor always exists. Padded rows (``real`` False) never
    donate. Cost never increases: the moved point's distance drops to zero
    and no other term changes.
    """
    counts = ((a[:, :, None] == np.arange(centroids.shape[1])) & real[:, :, None]).sum(axis=1)
    while True:
        empty = (counts == 0) & slots
        rows = np.flatnonzero(empty.any(axis=1))
        if rows.size == 0:
            return
        seat = empty[rows].argmax(axis=1)
        own = a[rows]
        d2 = ((pts[rows] - centroids[rows[:, None], own]) ** 2).sum(axis=2)
        donors = (counts[rows[:, None], own] >= 2) & real[rows]
        if not donors.any(axis=1).all():
            raise RuntimeError("empty cluster with no donor; need at least k points")
        p = np.where(donors, d2, -1.0).argmax(axis=1)
        counts[rows, own[np.arange(rows.size), p]] -= 1
        counts[rows, seat] += 1
        a[rows, p] = seat
        centroids[rows, seat] = pts[rows, p]


@functools.lru_cache(maxsize=1024)
def _initial_seats(seed: int, n: int, k: int) -> np.ndarray:
    """The k distinct rows, of n, on which a fit seeded by ``seed`` starts its
    centroids. Memoised and read-only: a run asks for the same few
    (seed, n, k) over and over, and each generator costs tens of
    microseconds to build."""
    seats = np.random.default_rng(seed).choice(n, size=k, replace=False)
    seats.flags.writeable = False
    return seats


def kmeans_fit_batch(points, lengths, k: int, seed: int = 0) -> ClusterBatch:
    """Fit every sentence of a padded (B, n, d) batch by Lloyd iteration.

    Sentence b is its first ``lengths[b]`` rows, fitted with
    k_b = min(k, lengths[b]) centroids that start on k_b distinct rows chosen
    by ``seed``. Each round reassigns points to their nearest centroid,
    repairs empty clusters, then moves every centroid to the mean of its
    members (their sum over their count); a sentence stops, and its centroids
    and assignments freeze, when no centroid moved more than ``KMEANS_TOL``
    (Euclidean) or after ``KMEANS_MAX_ITER`` rounds. The recorded per-round
    mse values never increase. Every sentence gets the floats of fitting it
    alone, byte for byte: each reduction runs over the sentence's own rows
    in the order a lone fit uses.
    """
    pts = _as_points(points, ndim=3)
    b, n, d = pts.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (b,) or (lengths < 1).any() or (lengths > n).any():
        raise ValueError(f"lengths must be {b} values in [1, {n}], got {lengths.tolist()}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    real = np.arange(n) < lengths[:, None]
    if not np.isfinite(pts[real]).all():
        raise ValueError("points contain non-finite values")

    ks = np.minimum(k, lengths)
    slots = np.arange(ks.max()) < ks[:, None]
    seats = np.zeros(slots.shape, dtype=np.int64)
    distinct = np.unique(lengths).tolist()
    for length in distinct:
        seats[lengths == length, : min(k, length)] = _initial_seats(seed, length, min(k, length))
    centroids = np.where(slots[:, :, None], pts[np.arange(b)[:, None], seats], 0)
    assignments = np.full((b, n), -1, dtype=np.int64)
    iterations = np.zeros(b, dtype=np.int64)
    max_iter = KMEANS_MAX_ITER
    history = np.zeros((b, max_iter))
    live = np.arange(b)
    for it in range(1, max_iter + 1):
        p, c, s, r = pts[live], centroids[live], slots[live], real[live]
        a = _nearest(p, c, s)
        _repair_empty(p, c, a, s, r)
        # a member sum is the sequential row sum of sum(axis=0) over the
        # members alone: adding +0.0 for every non-member changes no bit;
        # a slot past k_b has no members and keeps its zero centroid
        member = (a[:, None, :] == np.arange(c.shape[1])[:, None]) & r[:, None, :]
        sums = np.where(member[:, :, :, None], p[:, None], 0).sum(axis=2)
        means = sums / np.maximum(member.sum(axis=2), 1).astype(pts.dtype)[:, :, None]
        moved = np.sqrt(((means - c) ** 2).sum(axis=2)).max(axis=1)
        centroids[live] = means
        assignments[live] = np.where(r, a, -1)
        # each sentence's mse sums exactly its own rows: one reduction per length
        diff = p - means[np.arange(len(live))[:, None], a]
        sq = (diff * diff).reshape(len(live), n * d)
        live_lengths = lengths[live]
        for length in distinct:
            same = live_lengths == length
            if same.any():
                history[live[same], it - 1] = sq[same, : length * d].sum(axis=1) / length
        iterations[live] = it
        live = live[moved.astype(np.float64) >= KMEANS_TOL]
        if live.size == 0:
            break
    return ClusterBatch(
        centroids=centroids,
        assignments=assignments,
        lengths=lengths,
        k=ks,
        iterations=iterations,
        mse_history=[history[i, :t].tolist() for i, t in enumerate(iterations.tolist())],
    )


def kmeans_fit(points, k: int, seed: int = 0) -> ClusterResult:
    """Fit k centroids to one (n, d) point set: ``kmeans_fit_batch`` over a
    batch of one, with k in [1, n]."""
    pts = _as_points(points)
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f"k must be in [1, {pts.shape[0]}], got {k}")
    return kmeans_fit_batch(pts[None], [pts.shape[0]], k, seed)[0]
