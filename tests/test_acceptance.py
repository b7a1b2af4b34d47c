"""Acceptance gate: the eight end-to-end guarantees this package makes.

Each test prints one verdict line (run with ``pytest -s`` to see them all;
on failure the line is part of the assertion message). Tolerances and
budgets are stated next to each check.
"""

import csv
import math
import time

import numpy as np
import pytest

from ktransformer import tensor as T
from ktransformer.layers import positional_encoding
from ktransformer.metrics import bleu, corpus_bleu, ngram_precision
from ktransformer.model import ClusterBiasParams, KTransformer, ModelConfig
from ktransformer.tensor import Tensor
from ktransformer.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
)

from oracles import cluster_bias, finite_diff_check, kmeans_fit, layernorm_rows, scaled_dot_attention
from synth import (
    kmeans_brute_force,
    make_copy_corpus,
    make_topic_corpus,
    vocab_over,
    vocab_pair,
)


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"{tag} {'PASS' if ok else 'FAIL'}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


# --------------------------------------------------------------------- AC-1


def test_ac1_zero_gain_cluster_model_matches_baseline():
    """With all gate scalars at their zero init, every cluster mode must be
    indistinguishable from cluster_mode=off: bit-for-bit in f64, within
    1e-6 relative in f32. 20 seeds, under a minute."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for seed in range(20):
        n = int(rng.integers(2, 9))
        ids = rng.integers(4, 16, size=n)
        dec = np.concatenate([[2], rng.integers(4, 16, size=max(1, n - 1))])

        def build(mode, precision):
            return KTransformer(ModelConfig(
                vocab_src=16, vocab_tgt=16, d_model=16, heads=2, d_ff=32,
                layers_enc=2, layers_dec=2, dropout=0.0, max_len=10,
                clusters_k=3, cluster_mode=mode, precision=precision,
                init_seed=seed, cluster_seed=seed))

        base = build("off", "f64")
        mem_b, _ = base.encode(ids)
        log_b = base.decode_forward(dec, mem_b)
        for mode in ("same_cluster", "centroid_affinity", "both"):
            m = build(mode, "f64")
            mem, res = m.encode(ids)
            logits = m.decode_forward(dec, mem)
            assert res is not None
            if mem.data.tobytes() != mem_b.data.tobytes() or logits.data.tobytes() != log_b.data.tobytes():
                _verdict("AC-1", False, f"f64 mismatch at seed {seed} mode {mode}")

        base32 = build("off", "f32")
        mem_b32, _ = base32.encode(ids)
        m32 = build("both", "f32")
        mem32, _ = m32.encode(ids)
        denom = np.abs(mem_b32.data) + 1e-30
        worst_rel = max(worst_rel, float(np.max(np.abs(mem32.data - mem_b32.data) / denom)))
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-6 and elapsed < 60
    _verdict("AC-1", ok, f"20 seeds exact in f64, f32 rel err {worst_rel:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------- AC-2


def test_ac2_gradients_match_finite_differences():
    """Analytic gradients within 1e-4 relative of central differences for
    every layer type, including attention under a nonzero cluster bias and
    the full sequence loss. All dims at most 8, f64, under two minutes."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    checks: list[tuple[str, float]] = []

    # attention with a genuinely nonzero cluster bias, gradient wrt queries
    pts = rng.normal(size=(4, 8))
    res = kmeans_fit(pts, k=2, seed=1)
    bp = ClusterBiasParams(1, np.float64)
    bp.gain_same[0].data = np.array(0.7)
    bp.gain_affinity[0].data = np.array(-0.4)
    bias = cluster_bias(res, Tensor(pts, dtype=np.float64), 0, bp, "both")
    assert np.any(bias.data != 0.0)
    k = Tensor(rng.normal(size=(4, 8)), dtype=np.float64)
    v = Tensor(rng.normal(size=(4, 8)), dtype=np.float64)
    c = Tensor(rng.normal(size=(4, 8)), dtype=np.float64)

    def att(t):
        out, _ = scaled_dot_attention(t, k, v, bias=bias)
        return T.sum_all(T.mul(out, c))

    checks.append(("attention+bias", finite_diff_check(att, Tensor(rng.normal(size=(4, 8)), dtype=np.float64))))

    # feed-forward
    from ktransformer.layers import FeedForward, feed_forward

    ff = FeedForward(rng, d_model=8, d_ff=8, dtype=np.float64)
    cf = Tensor(rng.normal(size=(3, 8)), dtype=np.float64)
    checks.append(("ffn", finite_diff_check(
        lambda t: T.sum_all(T.mul(feed_forward(ff, t), cf)), Tensor(rng.normal(size=(3, 8)), dtype=np.float64))))

    # layernorm
    gain = Tensor(rng.normal(size=8), dtype=np.float64)
    shift = Tensor(rng.normal(size=8), dtype=np.float64)
    cl = Tensor(rng.normal(size=(3, 8)), dtype=np.float64)
    checks.append(("layernorm", finite_diff_check(
        lambda t: T.sum_all(T.mul(layernorm_rows(t, gain, shift), cl)),
        Tensor(rng.normal(size=(3, 8)), dtype=np.float64))))

    # full loss wrt parameter tensors of a complete model
    def model_for(mode):
        return KTransformer(ModelConfig(
            vocab_src=8, vocab_tgt=8, d_model=8, heads=2, d_ff=8,
            layers_enc=1, layers_dec=1, dropout=0.0, max_len=8,
            clusters_k=2, cluster_mode=mode, precision="f64",
            init_seed=3, cluster_seed=0))

    src = np.array([4, 5, 6, 7])
    tgt = np.array([5, 4, 6])

    # clustering reads source embeddings, so perturb those with the bias off
    # (a flip of one assignment would make the numeric derivative jump)
    m_off = model_for("off")
    old = m_off.src_embed

    def wrt_src(t):
        m_off.src_embed = t
        try:
            return m_off.sequence_loss(src, tgt)
        finally:
            m_off.src_embed = old

    checks.append(("loss/src_embed", finite_diff_check(wrt_src, old)))

    # with the bias active, gains and non-embedding weights stay safe to
    # perturb because they never feed the clustering
    m_on = model_for("both")
    m_on.encoder[0].bias.gain_same[0].data = np.array(0.3)
    m_on.encoder[0].bias.gain_affinity[1].data = np.array(-0.2)

    tgt_old = m_on.tgt_embed

    def wrt_tgt(t):
        m_on.tgt_embed = t
        try:
            return m_on.sequence_loss(src, tgt)
        finally:
            m_on.tgt_embed = tgt_old

    checks.append(("loss/tgt_embed", finite_diff_check(wrt_tgt, tgt_old)))

    wqs = m_on.encoder[0].attn.wq
    wq_old = wqs[0]

    def wrt_wq(t):
        wqs[0] = t
        try:
            return m_on.sequence_loss(src, tgt)
        finally:
            wqs[0] = wq_old

    checks.append(("loss/enc_wq", finite_diff_check(wrt_wq, wq_old)))

    gain_old = m_on.encoder[0].bias.gain_same[0]

    def wrt_gain(t):
        m_on.encoder[0].bias.gain_same[0] = t
        try:
            return m_on.sequence_loss(src, tgt)
        finally:
            m_on.encoder[0].bias.gain_same[0] = gain_old

    checks.append(("loss/gain_same", finite_diff_check(wrt_gain, gain_old)))

    ln_old = m_on.decoder[0].ln3.gain

    def wrt_ln(t):
        m_on.decoder[0].ln3.gain = t
        try:
            return m_on.sequence_loss(src, tgt)
        finally:
            m_on.decoder[0].ln3.gain = ln_old

    checks.append(("loss/dec_ln_gain", finite_diff_check(wrt_ln, ln_old)))

    proj_old = m_on.out_proj

    def wrt_proj(t):
        m_on.out_proj = t
        try:
            return m_on.sequence_loss(src, tgt)
        finally:
            m_on.out_proj = proj_old

    checks.append(("loss/out_proj", finite_diff_check(wrt_proj, proj_old)))

    elapsed = time.time() - t0
    worst = max(err for _, err in checks)
    detail = ", ".join(f"{name} {err:.1e}" for name, err in checks)
    _verdict("AC-2", worst < 1e-4 and elapsed < 120, f"{detail}, {elapsed:.1f}s")


# --------------------------------------------------------------------- AC-3


def test_ac3_lloyd_never_beats_exhaustive_optimum():
    """200 random instances with n <= 8 points and k <= 3: the iterative
    result never goes below the enumerated optimum, per-round cost never
    increases, and the four-point hand case lands exactly on 0.25."""
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst_gap = np.inf
    for trial in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        pts = rng.normal(size=(n, 2)) * float(rng.uniform(0.5, 4.0))
        res = kmeans_fit(pts, k=k, seed=trial)
        best = kmeans_brute_force(pts, k)
        if res.mse < best - 1e-9:
            _verdict("AC-3", False, f"trial {trial}: beat the optimum ({res.mse} < {best})")
        worst_gap = min(worst_gap, res.mse - best)
        for a, b in zip(res.mse_history, res.mse_history[1:]):
            if b > a + 1e-12:
                _verdict("AC-3", False, f"trial {trial}: cost rose {a} -> {b}")

    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    hand = kmeans_fit(pts, k=2, seed=1)
    elapsed = time.time() - t0
    ok = abs(hand.mse - 0.25) < 1e-12 and elapsed < 60
    _verdict("AC-3", ok, f"200 instances, hand case mse {hand.mse}, {elapsed:.1f}s")


# --------------------------------------------------------------------- AC-4


def test_ac4_bleu_matches_exhaustive_oracle():
    """50 random pairs against window-by-window recounting: precisions
    exact, scores within 1e-12; identity scores 1; the clipping example
    gives P1 = 1/3. Under 30 seconds."""
    from test_metrics import oracle_bleu, oracle_clipped
    from fractions import Fraction

    t0 = time.time()
    rng = np.random.default_rng(13)
    vocab = [f"t{i}" for i in range(6)]
    for trial in range(50):
        cand = [vocab[int(rng.integers(0, 6))] for _ in range(int(rng.integers(1, 13)))]
        ref = [vocab[int(rng.integers(0, 6))] for _ in range(int(rng.integers(1, 13)))]
        rep = bleu(cand, ref)
        for n in range(1, 5):
            m, t = oracle_clipped(cand, ref, n)
            want = None if t == 0 else Fraction(m, t)
            if rep.precisions[n - 1] != want:
                _verdict("AC-4", False, f"trial {trial} P{n}: {rep.precisions[n-1]} != {want}")
        if abs(rep.score - oracle_bleu(cand, ref)) > 1e-12:
            _verdict("AC-4", False, f"trial {trial} score mismatch")

    toks = "a small example sentence with several tokens".split()
    identity = bleu(toks, toks).score
    p1 = ngram_precision(["the", "the", "the"], ["the", "cat"], 1)
    elapsed = time.time() - t0
    ok = identity == 1.0 and p1 == Fraction(1, 3) and elapsed < 30
    _verdict("AC-4", ok, f"50 pairs exact, identity {identity}, clipped P1 {p1}, {elapsed:.1f}s")


# --------------------------------------------------------------------- AC-5


@pytest.mark.slow
def test_ac5_copy_task_learned_to_criterion(tmp_path):
    """20-token vocabulary, 200 sentences of length 3-12, d_model 32 with
    2 heads and 2+2 layers: training loss under 0.05 within 2000 steps,
    at least 99% exact greedy reproduction, corpus BLEU at least 0.99.
    Budget ten minutes."""
    t0 = time.time()
    corpus = make_copy_corpus(200, seed=11, vocab_size=20, min_len=3, max_len=12)
    vs, vt = vocab_pair(corpus)
    model = KTransformer(ModelConfig(
        vocab_src=len(vs), vocab_tgt=len(vt), d_model=32, heads=2, d_ff=64,
        layers_enc=2, layers_dec=2, dropout=0.0, max_len=12,
        precision="f32", init_seed=0))
    cfg = TrainConfig(out_dir=str(tmp_path / "run"), lr=3e-3, max_steps=700, batch_size=16, seed=0)
    rows = train(model, corpus, vs, vt, cfg)
    below = [r.step for r in rows if r.loss < 0.05]
    first_below = below[0] if below else None

    exact = 0
    pairs = []
    for src, tgt in corpus.pairs():
        out = model.greedy_translate(np.array([vs.id_of(t) for t in src]))
        toks = [vt.token_of(i) for i in out]
        pairs.append((toks, tgt))
        exact += toks == tgt
    score = corpus_bleu(pairs).score
    elapsed = time.time() - t0
    ok = (
        first_below is not None and first_below <= 2000
        and exact >= 0.99 * len(corpus)
        and score >= 0.99
        and elapsed < 600
    )
    _verdict("AC-5", ok,
             f"loss<0.05 at step {first_below}, exact {exact}/{len(corpus)}, bleu {score:.4f}, {elapsed:.0f}s")


# --------------------------------------------------------------------- AC-6


@pytest.mark.slow
def test_ac6_cluster_conditioning_not_worse_on_topic_task(tmp_path):
    """Two-topic synthetic task with ambiguous tokens, k=2 clusters: over
    5 seeds, mean held-out BLEU of cluster_mode=both at least matches the
    baseline trained identically with the bias off. Budget 30 minutes."""
    t0 = time.time()
    train_corpus = make_topic_corpus(120, seed=100)
    held = make_topic_corpus(40, seed=200)
    vs = vocab_over(train_corpus.src + held.src)
    vt = vocab_over(train_corpus.tgt + held.tgt)

    def run(mode, seed):
        model = KTransformer(ModelConfig(
            vocab_src=len(vs), vocab_tgt=len(vt), d_model=32, heads=2, d_ff=64,
            layers_enc=1, layers_dec=1, dropout=0.0, max_len=12, precision="f32",
            clusters_k=2, cluster_mode=mode, init_seed=seed, cluster_seed=0))
        cfg = TrainConfig(out_dir=str(tmp_path / f"{mode}_{seed}"),
                          lr=3e-3, max_steps=700, batch_size=8, seed=seed)
        train(model, train_corpus, vs, vt, cfg)
        pairs = []
        for src, tgt in held.pairs():
            out = model.greedy_translate(np.array([vs.id_of(t) for t in src]))
            pairs.append(([vt.token_of(i) for i in out], tgt))
        return corpus_bleu(pairs).score

    base_scores = [run("off", seed) for seed in range(5)]
    kt_scores = [run("both", seed) for seed in range(5)]
    base_mean = float(np.mean(base_scores))
    kt_mean = float(np.mean(kt_scores))
    elapsed = time.time() - t0
    ok = kt_mean >= base_mean and elapsed < 1800
    _verdict("AC-6", ok,
             f"baseline mean {base_mean:.4f}, clustered mean {kt_mean:.4f} over 5 seeds, {elapsed:.0f}s")


# --------------------------------------------------------------------- AC-7


def test_ac7_determinism_checkpoints_and_report(tmp_path):
    """Same-seed runs reproduce losses bit-for-bit in f64; a checkpoint
    round trip is byte-exact; the report CSV equals a manual split and
    rescore. Under two minutes."""
    t0 = time.time()

    # (a) two identical 10-step runs
    losses = []
    for rep in range(2):
        corpus = make_copy_corpus(24, seed=5, vocab_size=8, min_len=2, max_len=5)
        vs, vt = vocab_pair(corpus)
        model = KTransformer(ModelConfig(
            vocab_src=len(vs), vocab_tgt=len(vt), d_model=8, heads=2, d_ff=16,
            layers_enc=1, layers_dec=1, dropout=0.1, max_len=8,
            precision="f64", init_seed=0, cluster_mode="both", clusters_k=2))
        cfg = TrainConfig(out_dir=str(tmp_path / f"run{rep}"), lr=1e-3, max_steps=10, batch_size=4, seed=3)
        rows = train(model, corpus, vs, vt, cfg)
        losses.append([r.loss for r in rows])
    if losses[0] != losses[1]:
        _verdict("AC-7", False, "same-seed losses differ")

    # (b) checkpoint round trip
    params = model.parameters()
    state = AdamState(params, lr=1e-3)
    rng = np.random.default_rng(0)
    for p in params.values():
        p.grad = rng.normal(size=p.data.shape)
    adam_step(params, state)
    ck = tmp_path / "rt.ckpt"
    save_checkpoint(model, ck, state=state, vocab_src=vs, vocab_tgt=vt,
                    profile_src="space_tokenized", profile_tgt="space_tokenized")
    loaded = load_checkpoint(ck)
    for name, p in model.parameters().items():
        if loaded.model.parameters()[name].data.tobytes() != p.data.tobytes():
            _verdict("AC-7", False, f"round trip differs at {name}")
    for name in params:
        if loaded.state.m[name].tobytes() != state.m[name].tobytes():
            _verdict("AC-7", False, f"round trip differs at m.{name}")
        if loaded.state.v[name].tobytes() != state.v[name].tobytes():
            _verdict("AC-7", False, f"round trip differs at v.{name}")
    if loaded.state.t != state.t or loaded.vocab_src.regular_tokens() != vs.regular_tokens():
        _verdict("AC-7", False, "round trip metadata differs")

    # (c) report CSV equals manual split and rescore
    from ktransformer.cli import main

    rng = np.random.default_rng(8)
    vocab = [f"t{i}" for i in range(8)]
    refs, hyps = [], []
    for _ in range(30):
        n = int(rng.integers(2, 16))
        ref = [vocab[int(rng.integers(0, 8))] for _ in range(n)]
        refs.append(ref)
        hyps.append(ref[: max(1, n - int(rng.integers(0, 3)))])
    ref_f, hyp_f = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref_f.write_text("\n".join(" ".join(r) for r in refs) + "\n", encoding="utf-8")
    hyp_f.write_text("\n".join(" ".join(h) for h in hyps) + "\n", encoding="utf-8")
    out = tmp_path / "rep"
    rc = main(["report", "--system", f"sys={hyp_f}", "--ref", str(ref_f),
               "--buckets", "5,10", "--out-dir", str(out)])
    if rc != 0:
        _verdict("AC-7", False, f"report exited {rc}")
    rows_csv = list(csv.DictReader((out / "report.csv").read_text().splitlines()))
    for row in rows_csv:
        lo = int(row["bucket_low"])
        hi = math.inf if row["bucket_high"] == "inf" else int(row["bucket_high"])
        manual = [(h, r) for h, r in zip(hyps, refs) if lo < len(r) <= hi]
        if int(row["pair_count"]) != len(manual):
            _verdict("AC-7", False, f"bucket ({lo}, {hi}] count mismatch")
        if manual:
            want = corpus_bleu(manual)
            got_ok = (
                row["bleu"] == f"{want.score:.6f}" and row["bp"] == f"{want.bp:.6f}"
                and all(
                    row[f"p{n}"] == (f"{float(want.precisions[n-1]):.6f}" if want.precisions[n-1] is not None else "")
                    for n in range(1, 5)
                )
            )
            if not got_ok:
                _verdict("AC-7", False, f"bucket ({lo}, {hi}] cells differ from manual rescore")

    elapsed = time.time() - t0
    _verdict("AC-7", elapsed < 120, f"determinism, round trip, report vs manual rescore, {elapsed:.1f}s")


# --------------------------------------------------------------------- AC-8


def test_ac8_positional_table_identities():
    """d_model 512, 50 positions: row zero is exactly (0, 1, 0, 1, ...),
    all entries within [-1, 1], each sin/cos pair on the unit circle to
    1e-6. Under a second."""
    t0 = time.time()
    pe = positional_encoding(50, 512, np.float64)
    row0_ok = np.array_equal(pe[0], np.tile([0.0, 1.0], 256))
    bounded = bool(np.all(pe >= -1.0) and np.all(pe <= 1.0))
    s, c = pe[:, 0::2], pe[:, 1::2]
    unit = float(np.max(np.abs(s * s + c * c - 1.0)))
    elapsed = time.time() - t0
    ok = row0_ok and bounded and unit <= 1e-6 and elapsed < 1.0
    _verdict("AC-8", ok, f"row0 exact {row0_ok}, bounded {bounded}, unit-circle err {unit:.1e}, {elapsed:.2f}s")
