"""Lloyd clustering against a brute-force oracle that scores every possible
assignment of points to clusters."""

import itertools

import numpy as np
import pytest

from ktransformer import cluster
from ktransformer.cluster import assign, kmeans_fit, mse

_label_cache = {}


def _all_labelings(n, k):
    if (n, k) not in _label_cache:
        _label_cache[(n, k)] = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
    return _label_cache[(n, k)]


def brute_force_optimum(points, k):
    """Minimum achievable mean cost over all assignments; empty clusters
    contribute nothing, so this covers solutions using fewer clusters too."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    best = np.inf
    for labels in _all_labelings(n, k):
        cost = 0.0
        for c in range(k):
            member = pts[labels == c]
            if member.shape[0] == 0:
                continue
            centroid = member.mean(axis=0)
            cost += float(((member - centroid) ** 2).sum())
        best = min(best, cost / n)
    return best


def test_hand_case_two_pairs():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    res = kmeans_fit(pts, k=2, seed=1)
    assert abs(res.mse - 0.25) < 1e-12
    cents = sorted(res.centroids.tolist())
    assert np.allclose(cents, [[0.0, 0.5], [10.0, 0.5]], atol=1e-12)
    # the two left points share a cluster, the two right points the other
    assert res.assignments[0] == res.assignments[1]
    assert res.assignments[2] == res.assignments[3]
    assert res.assignments[0] != res.assignments[2]


def test_mse_normalizes_by_point_count():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    cents = np.array([[0.0, 0.5], [10.0, 0.5]])
    labels = np.array([0, 0, 1, 1])
    assert abs(mse(pts, cents, labels) - 0.25) < 1e-15


def test_k_equals_n_reaches_zero():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(5, 3))
    res = kmeans_fit(pts, k=5, seed=0)
    assert res.mse < 1e-24
    assert sorted(res.assignments.tolist()) == [0, 1, 2, 3, 4]


def test_k_one_centroid_is_mean():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(7, 2))
    res = kmeans_fit(pts, k=1, seed=3)
    assert np.allclose(res.centroids[0], pts.mean(axis=0), atol=1e-12)
    assert abs(res.mse - float(((pts - pts.mean(axis=0)) ** 2).sum()) / 7) < 1e-12


def test_assign_tie_breaks_to_lowest_index():
    pts = np.array([[0.0, 0.0]])
    cents = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert assign(pts, cents)[0] == 0


def test_assign_matches_linear_scan():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(10, 4))
    cents = rng.normal(size=(3, 4))
    got = assign(pts, cents)
    for i, p in enumerate(pts):
        dists = [float(((p - c) ** 2).sum()) for c in cents]
        assert got[i] == int(np.argmin(dists))


def test_history_monotone_nonincreasing():
    rng = np.random.default_rng(3)
    for seed in range(10):
        pts = rng.normal(size=(30, 4)) + rng.integers(0, 3, size=(30, 1)) * 4.0
        res = kmeans_fit(pts, k=3, seed=seed)
        hist = res.mse_history
        assert len(hist) == res.iterations
        assert hist[-1] == res.mse
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-12


def test_never_beats_brute_force_small():
    rng = np.random.default_rng(4)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        pts = rng.normal(size=(n, 2)) * 3.0
        res = kmeans_fit(pts, k=k, seed=trial)
        best = brute_force_optimum(pts, k)
        assert res.mse >= best - 1e-9


def test_slow_and_vectorized_oracles_agree():
    from synth import kmeans_brute_force

    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, min(3, n) + 1))
        pts = rng.normal(size=(n, 2)) * 2.0
        assert abs(brute_force_optimum(pts, k) - kmeans_brute_force(pts, k)) < 1e-9


def test_lloyd_cost_matches_direct_recompute():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    res = kmeans_fit(pts, k=4, seed=11)
    assert abs(res.mse - mse(pts, res.centroids, res.assignments)) < 1e-12


def test_seeded_runs_bit_identical():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(25, 5))
    a = kmeans_fit(pts, k=4, seed=42)
    b = kmeans_fit(pts, k=4, seed=42)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.assignments.tobytes() == b.assignments.tobytes()
    assert a.mse == b.mse and a.iterations == b.iterations


def test_duplicate_points_tolerated():
    pts = np.zeros((6, 2))
    res = kmeans_fit(pts, k=2, seed=0)
    assert res.mse == 0.0
    assert np.all(np.isfinite(res.centroids))


def test_empty_cluster_repair_keeps_k_centroids():
    # one far outlier plus a tight clump; some seeds initially give a
    # centroid no members once means move
    rng = np.random.default_rng(7)
    clump = rng.normal(size=(12, 2)) * 0.01
    pts = np.vstack([clump, [[100.0, 100.0]]])
    for seed in range(8):
        res = kmeans_fit(pts, k=3, seed=seed)
        assert res.centroids.shape == (3, 2)
        assert np.all(np.isfinite(res.centroids))
        for a, b in zip(res.mse_history, res.mse_history[1:]):
            assert b <= a + 1e-12


def test_parameter_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans_fit(pts, k=0, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(pts, k=4, seed=0)
    bad = pts.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        kmeans_fit(bad, k=2, seed=0)


def test_stops_within_max_iter(monkeypatch):
    monkeypatch.setattr(cluster, "KMEANS_MAX_ITER", 3)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(50, 3))
    res = kmeans_fit(pts, k=5, seed=1)
    assert res.iterations <= 3
