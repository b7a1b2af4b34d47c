"""Encoder-decoder behavior: cluster bias wiring, masking, determinism,
teacher forcing, greedy decoding."""

import numpy as np
import pytest

from ktransformer import tensor as T
from ktransformer.cluster import ClusterResult
from ktransformer.corpus import BOS_ID, EOS_ID, PAD_ID
from ktransformer.model import (
    ClusterBiasParams,
    IncrementalDecoder,
    MAX_LEN_LIMIT,
    KTransformer,
    ModelConfig,
    loss,
)
from ktransformer.tensor import GradientTape, Tensor, backward

from oracles import (
    cluster_bias,
    feed_forward_per_op,
    finite_diff_check,
    kmeans_fit,
    residual_layernorm_per_op,
    scaled_dot_attention,
)


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


def test_config_bounds_max_len():
    small_config(max_len=MAX_LEN_LIMIT).validate()
    with pytest.raises(ValueError, match="max_len must be at most"):
        small_config(max_len=MAX_LEN_LIMIT + 1).validate()


def test_config_dict_round_trip():
    cfg = small_config(cluster_mode="both", clusters_k=3)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_parameter_count_is_the_built_models_size():
    # load_checkpoint checks a payload's length against this count before it
    # builds anything, so the count must follow the constructors
    import itertools

    grid = itertools.product((8, 12), (1, 2, 4), (1, 3), (1, 2), (3, 16), (4, 11), (5, 9))
    for d_model, heads, layers_enc, layers_dec, d_ff, vocab_src, vocab_tgt in grid:
        cfg = small_config(d_model=d_model, heads=heads, layers_enc=layers_enc, layers_dec=layers_dec, d_ff=d_ff,
                           vocab_src=vocab_src, vocab_tgt=vocab_tgt)
        built = KTransformer(cfg, draw_weights=False).parameters()
        assert cfg.parameter_count() == sum(p.data.size for p in built.values()), cfg


@pytest.mark.parametrize("draw_weights", [True, False])
def test_parameters_are_consecutive_views_of_one_buffer(draw_weights):
    # in parameters() order, which a checkpoint's payload follows
    cfg = small_config(heads=2, layers_enc=2, layers_dec=2)
    model = KTransformer(cfg, draw_weights=draw_weights)
    views = [p.data for p in model.parameters().values()]
    flat = views[0].base
    assert isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.size == cfg.parameter_count()
    offset = 0
    for v in views:
        assert v.base is flat and v.flags.c_contiguous
        assert v.__array_interface__["data"][0] == flat.__array_interface__["data"][0] + offset * flat.itemsize
        offset += v.size
    assert offset == flat.size and model.parameter_buffer() is flat
    # without drawing, only the layer-norm gains are nonzero: ones
    gains = sum(p.data.size for n, p in model.parameters().items() if n.endswith(".gain"))
    assert (np.count_nonzero(flat) > gains) == draw_weights
    assert np.count_nonzero(flat == 1) >= gains


def test_parameter_buffer_is_none_once_a_parameter_is_rebound():
    model = KTransformer(small_config())
    model.out_proj.data = model.out_proj.data.copy()
    assert model.parameter_buffer() is None


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
    # cluster_bias head by head and sentence by sentence; then for a batch
    # whose sentences all share one length, as a translate chunk often does
    m = KTransformer(small_config(cluster_mode=mode, clusters_k=3, heads=4, precision=precision))
    layer = m.encoder[0]
    for i, g in enumerate(layer.bias.gain_same + layer.bias.gain_affinity):
        g.data = np.asarray(0.4 * (i + 1) * (-1) ** i, dtype=g.data.dtype)
    mixed = np.array([
        [4, 5, 6, 7, 8, 9],
        [9, 4, PAD_ID, PAD_ID, PAD_ID, PAD_ID],
        [10, 11, 10, 4, PAD_ID, PAD_ID],
        [5, 5, 5, 7, PAD_ID, PAD_ID],  # two distinct points for 3 clusters: a repair
        [8, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID],  # one token, one cluster
        [6, 7, 8, 9, PAD_ID, PAD_ID],  # a third row of length 4
    ])
    one_length = np.array([
        [4, 5, 6, 7, 8, 9],
        [9, 8, 7, 6, 5, 4],
        [10, 11, 10, 4, 11, 5],  # zero-norm keys
        [5, 5, 5, 5, 7, 5],  # two distinct points for 3 clusters: a repair
        [8, 8, 8, 8, 8, 8],  # one distinct point
        [6, 7, 8, 9, 10, 4],
    ])
    m.src_embed.data[11] = 0.0  # a zero-norm key, whose cosines are 0, in the third row
    for ids in (mixed, one_length):
        mask = ids != PAD_ID
        emb = m.src_embed.data[ids]
        results, *tables = m.cluster_bias_tables(emb, mask)
        gains = (layer.bias.gain_same, layer.bias.gain_affinity)
        terms = [(g, t) for g, t in zip(gains, tables) if t is not None]
        bias = T.gated_heads(terms).data
        assert bias.shape == (6, 4, 6, 6)
        for b, n_real in enumerate(mask.sum(axis=1)):
            real = Tensor(emb[b, :n_real].copy())
            alone = kmeans_fit(real.data, min(3, int(n_real)), seed=m.config.cluster_seed)
            assert results[b].assignments.tobytes() == alone.assignments.tobytes()
            assert results[b].centroids.tobytes() == alone.centroids.tobytes()
            for h in range(4):
                want = cluster_bias(alone, real, h, layer.bias, mode, total_len=6).data
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
    mem1, _ = m.encode(ids)
    mem2, _ = m.encode(ids)
    assert mem1.data.tobytes() == mem2.data.tobytes()


def test_training_dropout_needs_rng_and_changes_output():
    m = KTransformer(small_config(dropout=0.5))
    ids = np.array([4, 5, 6, 7])
    shape = (len(ids), m.config.d_model)
    base, _ = m.encode(ids)
    drop, _ = m.encode(ids, uniform=np.random.default_rng(0).random(shape))
    assert base.data.tobytes() != drop.data.tobytes()
    again, _ = m.encode(ids, uniform=np.random.default_rng(0).random(shape))
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
    res = kmeans_fit(emb_t.data, min(cfg.clusters_k, len(ids)), seed=cfg.cluster_seed)
    bias = cluster_bias(res, emb_t, 0, layer.bias, "same_cluster")
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


def test_sequence_loss_matches_manual_teacher_forcing(monkeypatch):
    m = KTransformer(small_config())
    src = np.array([4, 5, 6])
    tgt = np.array([7, 8])
    calls = []

    def spy(name):
        real = getattr(KTransformer, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapped

    # training goes through the public stages, so a tracer of them sees it
    for name in ("encode", "decode_forward"):
        monkeypatch.setattr(KTransformer, name, spy(name))
    got = m.sequence_loss(src, tgt)
    assert calls == ["encode", "decode_forward"]
    mem, _ = m.encode(src)
    logits = m.decode_forward(np.array([BOS_ID, 7, 8]), mem)
    want = loss(logits, np.array([7, 8, EOS_ID]))
    assert float(got.data) == float(want.data)


# ------------------------------------------------------------ greedy


def reference_greedy(m, src_ids, max_out_len=None):
    """Full-prefix greedy loop: one teacher-forced decoder pass over the
    whole prefix per emitted token. The oracle for the cached decoder."""
    cap = m.config.max_len if max_out_len is None else max_out_len
    memory, _ = m.encode(src_ids)
    out = []
    for _ in range(cap):
        logits = m.decode_forward(np.array([BOS_ID] + out, dtype=np.int64), memory)
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


def test_sentence_alone_equals_sentence_in_batch(monkeypatch):
    m = decoding_model()
    rng = np.random.default_rng(7)
    srcs = [rng.integers(4, 12, size=n) for n in (4, 1, 9, 2, 10, 6, 3, 7)]
    batch = m.greedy_translate_batch(srcs)
    assert batch == [m.greedy_translate(s) for s in srcs]
    assert m.greedy_translate_batch([]) == []

    # three length-sorted chunks, each encoded as one padded batch: every
    # real memory row is within 1e-12 relative of encoding the line alone
    chunks = []

    class Recording(IncrementalDecoder):
        def __init__(self, model, memory, src_mask):
            chunks.append((memory.data, src_mask))
            super().__init__(model, memory, src_mask)

    monkeypatch.setattr("ktransformer.model.DECODE_BATCH", 3)
    monkeypatch.setattr("ktransformer.model.IncrementalDecoder", Recording)
    assert m.greedy_translate_batch(srcs) == batch
    by_length = sorted(srcs, key=len)
    assert [mask.shape[0] for _, mask in chunks] == [3, 3, 2]
    rows = [(memory[r], mask[r]) for memory, mask in chunks for r in range(mask.shape[0])]
    for s, (row, mask) in zip(by_length, rows):
        alone, _ = m.encode(s)
        assert mask.sum() == len(s) and not mask[len(s):].any()
        assert np.abs(row[: len(s)] - alone.data).max() <= 1e-12 * np.abs(alone.data).max()


def test_incremental_logits_match_teacher_forced_last_row():
    # every cached step, also after dropping a sentence from the batch,
    # reproduces the last logits row of a full teacher-forced pass; f32
    # rounds the fused and the per-head projections differently
    for precision, rtol in (("f64", 1e-12), ("f32", 1e-5)):
        m = decoding_model(precision=precision)
        max_len = m.config.max_len
        rng = np.random.default_rng(8)
        srcs = np.full((3, max_len), PAD_ID, dtype=np.int64)
        masks = np.arange(max_len) < np.array([[3], [5], [1]])
        srcs[masks] = rng.integers(4, 12, size=int(masks.sum()))
        memory, _ = m.encode(srcs, masks)
        prefixes = [np.concatenate([[BOS_ID], rng.integers(1, 12, size=max_len)]) for _ in srcs]
        dec = IncrementalDecoder(m, memory, masks)
        rows = [0, 1, 2]
        for t in range(max_len + 1):
            if t == 4:
                rows = [0, 2]
                dec.keep_rows(np.array([0, 2]))
            logits = dec.step(np.array([prefixes[i][t] for i in rows]))
            for r, i in enumerate(rows):
                want = m.decode_forward(prefixes[i][: t + 1], Tensor(memory.data[i]), src_mask=masks[i]).data[-1]
                assert np.abs(logits[r] - want).max() <= rtol * np.abs(want).max()
        with pytest.raises(ValueError, match="exceeds"):
            dec.step(np.array([4, 4]))


class TensorOpDecoder:
    """The cached decoder as taped ops: ``IncrementalDecoder`` before it ran
    on plain arrays, kept as the oracle its steps must match byte for byte."""

    def __init__(self, model, memory, src_mask):
        cfg = model.config
        self.model = model
        self.heads, self.d_k = cfg.heads, cfg.d_model // cfg.heads
        keep = np.asarray(src_mask, dtype=bool)

        def fused(weights):
            return Tensor(np.concatenate([w.data for w in weights], axis=1))

        self.weights = [
            (fused(layer.self_attn.wq + layer.self_attn.wk + layer.self_attn.wv), fused(layer.cross_attn.wq))
            for layer in model.decoder
        ]
        self.memory = [
            tuple(self._project(memory, fused(layer.cross_attn.wk + layer.cross_attn.wv))) for layer in model.decoder
        ]
        self.memory_keep = keep[:, None, None, :]
        empty = np.zeros((keep.shape[0], self.heads, 0, self.d_k), dtype=model.dtype)
        self.cache = [(empty, empty) for _ in model.decoder]
        self.length = 0

    def _project(self, x, w):
        b, rows = x.data.shape[0], x.data.shape[1] if x.data.ndim == 3 else 1
        y = T.matmul(x, w).data.reshape(b, rows, -1, self.heads, self.d_k)
        return np.ascontiguousarray(y.transpose(2, 0, 3, 1, 4))

    def _attend(self, q, wo, k, v, keep=None):
        out, _ = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), keep=keep)
        return T.matmul(Tensor(out.data.reshape(q.shape[0], -1)), wo)

    def step(self, ids):
        m = self.model
        x = T.add(T.pick_rows(m.tgt_embed, ids), Tensor(m.pe.data[self.length]))
        for li, layer in enumerate(m.decoder):
            w_qkv, w_q = self.weights[li]
            q, k, v = self._project(x, w_qkv)
            k = np.concatenate([self.cache[li][0], k], axis=2)
            v = np.concatenate([self.cache[li][1], v], axis=2)
            self.cache[li] = (k, v)
            x = residual_layernorm_per_op(x, self._attend(q, layer.self_attn.wo, k, v), layer.ln1)
            (q,) = self._project(x, w_q)
            x = residual_layernorm_per_op(
                x, self._attend(q, layer.cross_attn.wo, *self.memory[li], self.memory_keep), layer.ln2
            )
            x = residual_layernorm_per_op(x, feed_forward_per_op(layer.ffn, x), layer.ln3)
        self.length += 1
        return T.matmul(x, m.out_proj).data

    keep_rows = IncrementalDecoder.keep_rows


@pytest.mark.parametrize("cluster_mode", ["off", "both"])
@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_array_step_is_byte_equal_to_tensor_op_step(cluster_mode, precision):
    # every step, before and after dropping sentences, over memories with
    # masked (padded) rows; d_k 6 makes the score scale inexact
    m = decoding_model(cluster_mode, precision, d_model=12, d_ff=20)
    max_len = m.config.max_len
    rng = np.random.default_rng(9)
    srcs = np.full((4, max_len), PAD_ID, dtype=np.int64)
    masks = np.arange(max_len) < np.array([[3], [max_len], [1], [6]])
    srcs[masks] = rng.integers(4, 12, size=int(masks.sum()))
    memory, _ = m.encode(srcs, masks)
    got, want = IncrementalDecoder(m, memory, masks), TensorOpDecoder(m, memory, masks)
    batch = 4
    for t in range(max_len + 1):
        if t in (3, 7):
            rows = np.array([0, 2]) if t == 3 else np.array([1])
            got.keep_rows(rows)
            want.keep_rows(rows)
            batch = rows.size
        ids = np.full(batch, BOS_ID) if t == 0 else rng.integers(1, 12, size=batch)
        a, b = got.step(ids), want.step(ids)
        assert a.dtype == b.dtype == m.dtype
        assert np.array_equal(a, b), t


def test_greedy_outputs_equal_under_tensor_op_decoder(monkeypatch):
    m = decoding_model(precision="f32")
    rng = np.random.default_rng(10)
    srcs = [rng.integers(4, 12, size=n) for n in (4, 1, 9, 2, 10, 6, 3, 7)]
    got = m.greedy_translate_batch(srcs)
    monkeypatch.setattr("ktransformer.model.IncrementalDecoder", TensorOpDecoder)
    assert m.greedy_translate_batch(srcs) == got


def test_decode_steps_record_no_tape_entry():
    m = decoding_model()
    srcs = np.array([[4, 5, 6], [7, 8, PAD_ID]])
    masks = srcs != PAD_ID
    with GradientTape() as tape:
        memory, _ = m.encode(srcs, masks)
        taped = len(tape)
        dec = IncrementalDecoder(m, memory, masks)
        dec.step(np.array([BOS_ID, BOS_ID]))
        dec.step(np.array([5, 9]))
    assert taped > 0 and len(tape) == taped


def test_memory_with_no_kept_key_is_value_error():
    m = decoding_model()
    memory, _ = m.encode(np.array([[4, 5], [6, 7]]))
    with pytest.raises(ValueError, match="every key masked out"):
        IncrementalDecoder(m, memory, np.array([[True, True], [False, False]]))


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

    err = finite_diff_check(f, gain)
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

    assert finite_diff_check(f, keep) < 1e-6
