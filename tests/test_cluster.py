"""Lloyd clustering against a brute-force oracle that scores every possible
assignment of points to clusters, and the batched fit against the
per-sentence Lloyd loop it replaced."""

import itertools

import numpy as np
import pytest

from ktransformer import cluster
from ktransformer.cluster import kmeans_fit_batch

from oracles import assign, kmeans_fit, mse

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
    # the batch fit: lengths in [1, n], k >= 1, non-finite values only in padding
    batch = np.stack([pts, pts])
    for lengths, k in (([1, 4], 2), ([0, 3], 2), ([3, 3], 0)):
        with pytest.raises(ValueError):
            kmeans_fit_batch(batch, lengths, k)
    batch[1, 2, 0] = np.nan
    with pytest.raises(ValueError):
        kmeans_fit_batch(batch, [3, 3], 2)
    kmeans_fit_batch(batch, [3, 2], 2)


def test_stops_within_max_iter(monkeypatch):
    monkeypatch.setattr(cluster, "KMEANS_MAX_ITER", 3)
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(50, 3))
    res = kmeans_fit(pts, k=5, seed=1)
    assert res.iterations <= 3


# ------------------------------------------------------------ batched fit
# The per-sentence Lloyd loop that kmeans_fit_batch replaced, kept verbatim
# (names prefixed) as the oracle for its floats.


def _ref_assign(points, centroids) -> np.ndarray:
    pts = cluster._as_points(points)
    cen = np.asarray(centroids, dtype=pts.dtype)
    if cen.ndim != 2 or cen.shape[1] != pts.shape[1]:
        raise ValueError(f"centroid shape {cen.shape} does not match points {pts.shape}")
    diff = pts[:, None, :] - cen[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    return d2.argmin(axis=1).astype(np.int64)


def _ref_repair_empty(pts: np.ndarray, centroids: np.ndarray, a: np.ndarray) -> np.ndarray:
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


def _ref_kmeans_fit(points, k: int, seed: int = 0) -> cluster.ClusterResult:
    pts = cluster._as_points(points)
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
    for it in range(1, cluster.KMEANS_MAX_ITER + 1):
        a = _ref_assign(pts, centroids)
        a = _ref_repair_empty(pts, centroids, a)
        moved = 0.0
        for j in range(k):
            members = pts[a == j]
            mean_j = members.sum(axis=0) / members.shape[0]  # ndarray.mean's sum and division, minus its Python wrapper
            moved = max(moved, float(np.sqrt(((mean_j - centroids[j]) ** 2).sum())))
            centroids[j] = mean_j
        history.append(mse(pts, centroids, a))
        if moved < cluster.KMEANS_TOL:
            break
    return cluster.ClusterResult(centroids=centroids, assignments=a, mse=history[-1], iterations=it, mse_history=history)


def _same_fit(got, want) -> bool:
    return (
        got.centroids.dtype == want.centroids.dtype
        and got.centroids.tobytes() == want.centroids.tobytes()
        and got.assignments.tobytes() == want.assignments.tobytes()
        and got.iterations == want.iterations
        and type(got.mse) is float
        and got.mse == want.mse
        and got.mse_history == want.mse_history
    )


def test_batch_fit_matches_per_sentence_reference(monkeypatch):
    # random padded batches, some sentences drawn from a 1-4 point vocabulary
    # so that many rounds repair an empty cluster; every sentence must get
    # the reference's floats byte for byte, and those of fitting it alone
    rounds_with_empty = []
    reference_repair = _ref_repair_empty

    def counting_repair(pts, centroids, a):
        rounds_with_empty.append(bool((np.bincount(a, minlength=centroids.shape[0]) == 0).any()))
        return reference_repair(pts, centroids, a)

    monkeypatch.setitem(globals(), "_ref_repair_empty", counting_repair)
    rng = np.random.default_rng(12)
    for trial in range(200):
        dtype = (np.float32, np.float64)[trial % 2]
        b, d, k, seed = int(rng.integers(1, 17)), (16, 64)[trial // 2 % 2], int(rng.integers(1, 6)), trial % 4
        lengths = rng.integers(1, 21, size=b)
        pts = rng.normal(size=(b, int(lengths.max()), d)) * 50.0  # the padding is noise
        for i in np.flatnonzero(rng.random(b) < 0.5):
            vocab = rng.normal(size=(int(rng.integers(1, 5)), d))
            pts[i] = vocab[rng.integers(0, len(vocab), size=pts.shape[1])]
        for i, n in enumerate(lengths):
            pts[i, :n] += rng.normal(size=d) * 3.0
        pts = pts.astype(dtype)
        batch = kmeans_fit_batch(pts, lengths, k, seed)
        assert len(batch) == b
        for i, n in enumerate(lengths.tolist()):
            sentence = pts[i, :n].copy()
            want = _ref_kmeans_fit(sentence, min(k, n), seed)
            assert _same_fit(batch[i], want), (trial, i)
            if i == 0:
                assert _same_fit(kmeans_fit(sentence, min(k, n), seed), want), trial
            assert np.all(batch.assignments[i, n:] == -1)
            assert np.all(batch.centroids[i, min(k, n) :] == 0)
    assert sum(rounds_with_empty) > 100
