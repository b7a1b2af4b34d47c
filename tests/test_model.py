"""Encoder-decoder behavior: cluster bias wiring, masking, determinism,
teacher forcing, greedy decoding."""

import numpy as np
import pytest

from ktransformer import tensor as T
from ktransformer.cluster import ClusterResult, kmeans_fit
from ktransformer.corpus import BOS_ID, EOS_ID, PAD_ID
from ktransformer.model import (
    ClusterBiasParams,
    IncrementalDecoder,
    KTransformer,
    ModelConfig,
    cluster_bias,
    loss,
)
from ktransformer.tensor import GradientTape, Tensor, backward


def small_config(**kw):
    base = dict(
        vocab_src=12,
        vocab_tgt=12,
        d_model=8,
        heads=2,
        d_ff=16,
        layers_enc=1,
        layers_dec=1,
        dropout=0.0,
        max_len=10,
        clusters_k=2,
        cluster_mode="off",
        precision="f64",
        init_seed=0,
        cluster_seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


# ------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(heads=3).validate()  # 8 not divisible by 3
    with pytest.raises(ValueError):
        small_config(cluster_mode="sometimes").validate()
    with pytest.raises(ValueError):
        small_config(dropout=1.0).validate()
    with pytest.raises(ValueError):
        small_config(vocab_src=3).validate()
    with pytest.raises(ValueError):
        small_config(clusters_k=0).validate()
    with pytest.raises(ValueError):
        small_config(precision="f128").validate()


def test_config_dict_round_trip():
    cfg = small_config(cluster_mode="both", clusters_k=3)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


# ------------------------------------------------------------ cluster bias


def planted_result():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    return kmeans_fit(pts, k=2, seed=1), Tensor(pts, dtype=np.float64)


def test_bias_off_mode_is_none():
    res, emb = planted_result()
    params = ClusterBiasParams(2, np.float64)
    assert cluster_bias(res, emb, 0, params, "off") is None


def test_bias_zero_gains_give_zero_matrix():
    res, emb = planted_result()
    params = ClusterBiasParams(2, np.float64)
    for mode in ("same_cluster", "centroid_affinity", "both"):
        bias = cluster_bias(res, emb, 0, params, mode)
        assert bias.data.shape == (4, 4)
        assert np.array_equal(bias.data, np.zeros((4, 4)))


def test_bias_same_cluster_indicator():
    res, emb = planted_result()
    params = ClusterBiasParams(1, np.float64)
    params.gain_same[0].data = np.array(1.0)
    bias = cluster_bias(res, emb, 0, params, "same_cluster")
    a = res.assignments
    expect = (a[:, None] == a[None, :]).astype(np.float64)
    assert np.array_equal(bias.data, expect)
    assert np.array_equal(np.diag(bias.data), np.ones(4))


def test_bias_affinity_is_cosine_to_head_centroid():
    res, emb = planted_result()
    params = ClusterBiasParams(2, np.float64)
    params.gain_affinity[1].data = np.array(2.0)
    bias = cluster_bias(res, emb, 1, params, "centroid_affinity")
    centroid = res.centroids[1 % res.centroids.shape[0]]
    for j in range(4):
        v = emb.data[j]
        nv, nc = np.linalg.norm(v), np.linalg.norm(centroid)
        cos = 0.0 if nv < 1e-12 or nc < 1e-12 else float(v @ centroid) / (nv * nc)
        # bias depends on the key column only, scaled by the gain
        assert np.allclose(bias.data[:, j], 2.0 * cos, atol=1e-12)


def test_bias_zero_norm_embedding_contributes_zero():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    res = kmeans_fit(pts, k=2, seed=1)
    params = ClusterBiasParams(1, np.float64)
    params.gain_affinity[0].data = np.array(1.0)
    bias = cluster_bias(res, Tensor(pts, dtype=np.float64), 0, params, "centroid_affinity")
    assert np.all(bias.data[:, 0] == 0.0)  # zero vector has no direction


def test_bias_pad_extension_stays_zero():
    res, emb = planted_result()
    params = ClusterBiasParams(1, np.float64)
    params.gain_same[0].data = np.array(3.0)
    bias = cluster_bias(res, emb, 0, params, "same_cluster", total_len=6)
    assert bias.data.shape == (6, 6)
    assert np.all(bias.data[4:, :] == 0.0) and np.all(bias.data[:, 4:] == 0.0)
    with pytest.raises(ValueError):
        cluster_bias(res, emb, 0, params, "same_cluster", total_len=3)


def test_bias_gradient_reaches_only_gains():
    res, emb = planted_result()
    emb.requires_grad = True  # even so, the bias path must not touch it
    params = ClusterBiasParams(1, np.float64)
    params.gain_same[0].data = np.array(0.5)
    params.gain_affinity[0].data = np.array(0.5)
    with GradientTape() as tape:
        bias = cluster_bias(res, emb, 0, params, "both")
        y = T.sum_all(bias)
    backward(y, tape)
    assert params.gain_same[0].grad is not None
    assert params.gain_affinity[0].grad is not None
    assert emb.grad is None


@pytest.mark.parametrize("mode", ["same_cluster", "centroid_affinity", "both"])
@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_one_bias_op_equals_single_head_cluster_bias(mode, precision):
    # the encoder's one bias op per layer, for a padded batch, against
    # cluster_bias head by head and sentence by sentence
    m = KTransformer(small_config(cluster_mode=mode, clusters_k=3, heads=4, precision=precision))
    layer = m.encoder[0]
    for i, g in enumerate(layer.bias.gain_same + layer.bias.gain_affinity):
        g.data = np.asarray(0.4 * (i + 1) * (-1) ** i, dtype=g.data.dtype)
    ids = np.array([[4, 5, 6, 7, 8, 9], [9, 4, PAD_ID, PAD_ID, PAD_ID, PAD_ID], [10, 11, 10, 4, PAD_ID, PAD_ID]])
    mask = ids != PAD_ID
    emb = m.src_embed.data[ids]
    results, *tables = m._cluster_bias_tables(emb, mask)
    gains = (layer.bias.gain_same, layer.bias.gain_affinity)
    terms = [(g, t) for g, t in zip(gains, tables) if t is not None]
    bias = T.gated_heads(terms).data
    assert bias.shape == (3, 4, 6, 6)
    for b, n_real in enumerate(mask.sum(axis=1)):
        real = Tensor(emb[b, :n_real].copy())
        assert np.array_equal(results[b].assignments, m.cluster_source(real).assignments)
        for h in range(4):
            want = cluster_bias(results[b], real, h, layer.bias, mode, total_len=6).data
            assert bias[b, h].tobytes() == want.tobytes()


def test_bias_head_out_of_range():
    res, emb = planted_result()
    params = ClusterBiasParams(1, np.float64)
    with pytest.raises(ValueError):
        cluster_bias(res, emb, 1, params, "same_cluster")


# ------------------------------------------------------------ forward


def test_zero_gain_cluster_modes_match_off_exactly():
    ids = np.array([4, 7, 5, 9, 6])
    for mode in ("same_cluster", "centroid_affinity", "both"):
        a = KTransformer(small_config(cluster_mode="off"))
        b = KTransformer(small_config(cluster_mode=mode))
        mem_a, res_a = a.encode(ids)
        mem_b, res_b = b.encode(ids)
        assert res_a is None and res_b is not None
        assert mem_a.data.tobytes() == mem_b.data.tobytes()
        la = a.decode_forward(np.array([BOS_ID, 4]), mem_a)
        lb = b.decode_forward(np.array([BOS_ID, 4]), mem_b)
        assert la.data.tobytes() == lb.data.tobytes()


def test_param_names_identical_across_modes():
    a = KTransformer(small_config(cluster_mode="off"))
    b = KTransformer(small_config(cluster_mode="both"))
    assert list(a.parameters()) == list(b.parameters())
    for (na, pa), (nb, pb) in zip(a.parameters().items(), b.parameters().items()):
        assert na == nb
        assert pa.data.tobytes() == pb.data.tobytes()


def test_gain_params_present_and_scalar():
    m = KTransformer(small_config(cluster_mode="both"))
    names = list(m.parameters())
    assert "enc0.bias.same0" in names and "enc0.bias.aff1" in names
    assert m.parameters()["enc0.bias.same0"].data.shape == ()


def test_padding_invariance_of_real_rows():
    m = KTransformer(small_config())
    ids = np.array([4, 5, 6])
    mem_plain, _ = m.encode(ids)
    padded = np.array([4, 5, 6, PAD_ID, PAD_ID])
    mask = np.array([True, True, True, False, False])
    mem_pad, _ = m.encode(padded, src_mask=mask)
    assert np.max(np.abs(mem_plain.data - mem_pad.data[:3])) == 0.0


def test_padding_invariance_through_decoder():
    m = KTransformer(small_config(cluster_mode="both"))
    src = np.array([4, 5, 6, 7])
    tgt = np.array([8, 9])
    plain = m.sequence_loss(src, tgt)
    spad = np.array([4, 5, 6, 7, PAD_ID])
    smask = np.array([True] * 4 + [False])
    tpad = np.array([8, 9, PAD_ID, PAD_ID])
    tmask = np.array([True, True, False, False])
    padded = m.sequence_loss(spad, tgt, src_mask=smask)
    both = m.sequence_loss(spad, tpad, src_mask=smask, tgt_mask=tmask)
    assert abs(float(plain.data) - float(padded.data)) < 1e-12
    assert abs(float(plain.data) - float(both.data)) < 1e-12


def test_causal_masking_blocks_future_tokens():
    m = KTransformer(small_config())
    mem, _ = m.encode(np.array([4, 5, 6]))
    a = m.decode_forward(np.array([BOS_ID, 4, 5, 6]), mem)
    b = m.decode_forward(np.array([BOS_ID, 4, 9, 11]), mem)
    # positions 0 and 1 see identical prefixes, later ones differ
    assert np.array_equal(a.data[:2], b.data[:2])
    assert not np.allclose(a.data[2:], b.data[2:])


def test_eval_forward_deterministic_despite_dropout_config():
    m = KTransformer(small_config(dropout=0.3))
    ids = np.array([4, 5, 6, 7])
    mem1, _ = m.encode(ids, training=False)
    mem2, _ = m.encode(ids, training=False)
    assert mem1.data.tobytes() == mem2.data.tobytes()


def test_training_dropout_needs_rng_and_changes_output():
    m = KTransformer(small_config(dropout=0.5))
    ids = np.array([4, 5, 6, 7])
    base, _ = m.encode(ids, training=False)
    drop, _ = m.encode(ids, training=True, rng=np.random.default_rng(0))
    assert base.data.tobytes() != drop.data.tobytes()
    again, _ = m.encode(ids, training=True, rng=np.random.default_rng(0))
    assert drop.data.tobytes() == again.data.tobytes()


def test_encode_rejects_bad_inputs():
    m = KTransformer(small_config())
    with pytest.raises(ValueError):
        m.encode(np.arange(11) % 8 + 4)  # 11 > max_len 10
    with pytest.raises(ValueError):
        m.encode(np.array([4, 99]))  # id out of vocab
    with pytest.raises(ValueError):
        m.encode(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        m.encode(np.array([4, 5]), src_mask=np.array([False, True]))  # mask not a prefix


def test_cluster_k_clamped_to_sentence_length():
    m = KTransformer(small_config(cluster_mode="both", clusters_k=4))
    mem, res = m.encode(np.array([4, 5]))  # 2 tokens < k=4
    assert res.centroids.shape[0] == 2


def test_same_cluster_attention_weight_exceeds_cross_cluster():
    # plant two well separated embedding groups; with a positive same-cluster
    # gain the pairwise weight inside a group must beat the weight across
    cfg = small_config(cluster_mode="same_cluster", clusters_k=2, heads=1, d_model=4, d_ff=8)
    m = KTransformer(cfg)
    emb = np.zeros((12, 4))
    emb[4] = emb[5] = [10.0, 0.0, 0.0, 0.0]
    emb[6] = emb[7] = [0.0, 10.0, 0.0, 0.0]
    m.src_embed.data = emb
    gain = m.parameters()["enc0.bias.same0"]
    gain.data = np.array(5.0)
    # neutralize content-driven scores: identical q/k projections via zeroed
    # weights would give uniform logits; the bias then decides
    layer = m.encoder[0]
    for wq in layer.attn.wq:
        wq.data = np.zeros_like(wq.data)
    ids = np.array([4, 5, 6, 7])
    emb_t = T.pick_rows(m.src_embed, ids)
    res = m.cluster_source(emb_t)
    bias = cluster_bias(res, emb_t, 0, layer.bias, "same_cluster")
    from ktransformer.layers import scaled_dot_attention

    q = T.matmul(emb_t, layer.attn.wq[0])
    k = T.matmul(emb_t, layer.attn.wk[0])
    v = T.matmul(emb_t, layer.attn.wv[0])
    _, w = scaled_dot_attention(q, k, v, bias=bias)
    same = res.assignments
    for i in range(4):
        for j in range(4):
            if same[i] == same[j]:
                for jj in range(4):
                    if same[i] != same[jj]:
                        assert w.data[i, j] > w.data[i, jj]


def test_gradients_flow_into_gains_when_nonzero_bias_mode():
    m = KTransformer(small_config(cluster_mode="both"))
    src = np.array([4, 5, 6, 7])
    tgt = np.array([8, 9, 10])
    with GradientTape() as tape:
        l = m.sequence_loss(src, tgt)
    backward(l, tape)
    got = m.parameters()["enc0.bias.same0"].grad
    assert got is not None and got.shape == ()
    assert m.src_embed.grad is not None


# ------------------------------------------------------------ loss


def test_loss_uniform_logits_is_log_vocab():
    v = 12
    logits = Tensor(np.zeros((3, v)), dtype=np.float64)
    l = loss(logits, np.array([4, 5, 6]))
    assert abs(float(l.data) - np.log(v)) < 1e-12


def test_loss_ignores_pad_positions():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 6))
    a = loss(Tensor(z, dtype=np.float64), np.array([4, 5, PAD_ID, PAD_ID]))
    b = loss(Tensor(z[:2], dtype=np.float64), np.array([4, 5]))
    assert abs(float(a.data) - float(b.data)) < 1e-12


def test_loss_all_pad_rejected():
    with pytest.raises(ValueError):
        loss(Tensor(np.zeros((2, 5))), np.array([PAD_ID, PAD_ID]))


def test_sequence_loss_matches_manual_teacher_forcing():
    m = KTransformer(small_config())
    src = np.array([4, 5, 6])
    tgt = np.array([7, 8])
    got = m.sequence_loss(src, tgt)
    mem, _ = m.encode(src)
    logits = m.decode_forward(np.array([BOS_ID, 7, 8]), mem)
    want = loss(logits, np.array([7, 8, EOS_ID]))
    assert float(got.data) == float(want.data)


# ------------------------------------------------------------ greedy


def reference_greedy(m, src_ids, src_mask=None, max_out_len=None):
    """Full-prefix greedy loop: one teacher-forced decoder pass over the
    whole prefix per emitted token. The oracle for the cached decoder."""
    cap = m.config.max_len if max_out_len is None else max_out_len
    memory, _ = m.encode(src_ids, src_mask)
    smask = None if src_mask is None else np.asarray(src_mask, dtype=bool)
    out = []
    for _ in range(cap):
        logits = m.decode_forward(np.array([BOS_ID] + out, dtype=np.int64), memory, src_mask=smask)
        next_id = int(np.argmax(logits.data[-1]))
        if next_id == EOS_ID:
            break
        out.append(next_id)
    return out


def rig_winner(m, token):
    """Make `token` win every decoder step: the last layer norm emits a
    constant all-ones row and out_proj scores only `token`'s column."""
    ln = m.decoder[-1].ln3
    ln.gain.data[...] = 0.0
    ln.shift.data[...] = 1.0
    m.out_proj.data[...] = 0.0
    m.out_proj.data[:, token] = 1.0
    return m


def decoding_model(cluster_mode="both", precision="f64", **kw):
    """A model whose greedy outputs stop at varied lengths, with non-zero
    cluster gates so the encoder bias takes part."""
    m = KTransformer(small_config(cluster_mode=cluster_mode, precision=precision, layers_enc=2, layers_dec=2,
                                  init_seed=1, **kw))
    for layer in m.encoder:
        for h, g in enumerate(layer.bias.gain_same):
            g.data[...] = 0.7 - h
        for h, g in enumerate(layer.bias.gain_affinity):
            g.data[...] = -0.4 + h
    m.out_proj.data[:, EOS_ID] *= 2.0
    return m


def test_greedy_emits_argmax_and_stops_at_eos():
    srcs = [np.array([4, 5, 6]), np.array([7]), np.array([8, 9, 10, 11, 4])]
    m = rig_winner(KTransformer(small_config()), 5)
    assert m.greedy_translate(srcs[0], max_out_len=4) == [5, 5, 5, 5]
    assert m.greedy_translate_batch(srcs, max_out_len=4) == [[5, 5, 5, 5]] * 3
    m = rig_winner(KTransformer(small_config()), EOS_ID)
    assert m.greedy_translate(srcs[0], max_out_len=4) == []
    assert m.greedy_translate_batch(srcs, max_out_len=4) == [[]] * 3


@pytest.mark.parametrize("cluster_mode", ["off", "both"])
@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_cached_greedy_matches_full_prefix_loop(cluster_mode, precision):
    m = decoding_model(cluster_mode, precision)
    max_len = m.config.max_len
    rng = np.random.default_rng(5)
    srcs = [rng.integers(4, 12, size=n) for n in range(1, max_len + 1)]
    for cap in (0, 1, max_len, None):
        want = [reference_greedy(m, s, max_out_len=cap) for s in srcs]
        assert m.greedy_translate_batch(srcs, max_out_len=cap) == want
    lengths = {len(o) for o in want}
    assert len(lengths) > 1 and max(lengths) == max_len  # some stop early, some hit the cap


@pytest.mark.parametrize("cluster_mode", ["off", "both"])
def test_cached_greedy_with_padded_sources(cluster_mode):
    m = decoding_model(cluster_mode)
    max_len = m.config.max_len
    rng = np.random.default_rng(6)
    srcs, masks = [], []
    for n_real in (1, 3, 6, max_len):
        ids = np.full(max_len, PAD_ID, dtype=np.int64)
        ids[:n_real] = rng.integers(4, 12, size=n_real)
        srcs.append(ids)
        masks.append(np.arange(max_len) < n_real)
    want = [reference_greedy(m, s, k) for s, k in zip(srcs, masks)]
    assert m.greedy_translate_batch(srcs, masks) == want
    assert [m.greedy_translate(s, k) for s, k in zip(srcs, masks)] == want


def test_sentence_alone_equals_sentence_in_batch(monkeypatch):
    m = decoding_model()
    rng = np.random.default_rng(7)
    srcs = [rng.integers(4, 12, size=n) for n in (4, 1, 9, 2, 10, 6, 3, 7)]
    batch = m.greedy_translate_batch(srcs)
    assert batch == [m.greedy_translate(s) for s in srcs]
    assert m.greedy_translate_batch([]) == []
    monkeypatch.setattr("ktransformer.model.DECODE_BATCH", 3)  # three length-sorted chunks
    assert m.greedy_translate_batch(srcs) == batch


def test_incremental_logits_match_teacher_forced_last_row():
    # f64: every cached step, also after dropping a sentence from the batch,
    # reproduces the last logits row of a full teacher-forced pass
    m = decoding_model()
    max_len = m.config.max_len
    rng = np.random.default_rng(8)
    srcs = [rng.integers(4, 12, size=n) for n in (3, max_len, 1)]
    masks = [np.ones(3, dtype=bool), np.arange(max_len) < 5, np.ones(1, dtype=bool)]
    srcs[1][5:] = PAD_ID
    memories = [m.encode(s, k)[0] for s, k in zip(srcs, masks)]
    prefixes = [np.concatenate([[BOS_ID], rng.integers(1, 12, size=max_len)]) for _ in srcs]
    dec = IncrementalDecoder(m, memories, masks)
    rows = [0, 1, 2]
    for t in range(max_len + 1):
        if t == 4:
            rows = [0, 2]
            dec.keep_rows(np.array([0, 2]))
        logits = dec.step(np.array([prefixes[i][t] for i in rows]))
        for r, i in enumerate(rows):
            want = m.decode_forward(prefixes[i][: t + 1], memories[i], src_mask=masks[i]).data[-1]
            assert np.abs(logits[r] - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="exceeds"):
        dec.step(np.array([4, 4]))


def test_greedy_past_positional_table_is_value_error():
    m = rig_winner(KTransformer(small_config()), 5)  # never emits EOS
    max_len = m.config.max_len
    assert m.greedy_translate(np.array([4, 5]), max_out_len=max_len + 1) == [5] * (max_len + 1)
    with pytest.raises(ValueError, match="exceeds"):
        m.greedy_translate(np.array([4, 5]), max_out_len=max_len + 2)
    with pytest.raises(ValueError, match="exceeds"):
        m.greedy_translate_batch([np.array([4]), np.array([6, 7, 8])], max_out_len=max_len + 5)


def test_greedy_zero_cap_gives_empty():
    m = KTransformer(small_config())
    assert m.greedy_translate(np.array([4, 5]), max_out_len=0) == []


def test_greedy_deterministic():
    m = KTransformer(small_config(cluster_mode="both", dropout=0.2))
    a = m.greedy_translate(np.array([4, 5, 6, 7]))
    b = m.greedy_translate(np.array([4, 5, 6, 7]))
    assert a == b


def test_greedy_never_emits_specials():
    m = KTransformer(small_config())
    for seed_ids in ([4], [5, 6], [7, 8, 9]):
        out = m.greedy_translate(np.array(seed_ids))
        assert EOS_ID not in out and BOS_ID not in out


def test_same_seed_models_identical_across_modes():
    a = KTransformer(small_config(init_seed=3, cluster_mode="off"))
    b = KTransformer(small_config(init_seed=3, cluster_mode="both"))
    for (na, pa), (nb, pb) in zip(a.parameters().items(), b.parameters().items()):
        assert pa.data.tobytes() == pb.data.tobytes(), na


def test_fd_full_loss_wrt_gain_scalars():
    # clustering reads embeddings only, so perturbing a gain cannot flip
    # assignments and the finite difference is clean
    m = KTransformer(small_config(cluster_mode="both"))
    src = np.array([4, 5, 6, 7])
    tgt = np.array([8, 9])
    gain = m.parameters()["enc0.bias.aff0"]

    def f(t):
        m.encoder[0].bias.gain_affinity[0] = t
        try:
            return m.sequence_loss(src, tgt)
        finally:
            m.encoder[0].bias.gain_affinity[0] = gain

    err = T.finite_diff_check(f, gain)
    assert err < 1e-6


def test_fd_full_loss_wrt_out_proj():
    m = KTransformer(small_config(cluster_mode="both"))
    src = np.array([4, 5, 6])
    tgt = np.array([7, 8])
    keep = m.out_proj

    def f(t):
        m.out_proj = t
        try:
            return m.sequence_loss(src, tgt)
        finally:
            m.out_proj = keep

    assert T.finite_diff_check(f, keep) < 1e-6
