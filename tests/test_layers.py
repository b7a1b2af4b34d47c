"""Building blocks: positional table, attention, feed-forward, norm, dropout."""

import numpy as np
import pytest

from ktransformer import tensor as T
from ktransformer.layers import (
    FeedForward,
    LayerNormParams,
    MultiHeadAttention,
    dropout,
    feed_forward,
    multi_head_attention,
    positional_encoding,
    residual_layernorm,
)
from ktransformer.tensor import GradientTape, Tensor, backward

from oracles import (
    feed_forward_per_op,
    finite_diff_check,
    masked_fill,
    multi_head_attention_per_op,
    residual_layernorm_per_op,
    scaled_dot_attention,
    softmax_rows,
    stack,
    transpose,
)


def t64(values):
    return Tensor(np.asarray(values, dtype=np.float64))


# ------------------------------------------------------------ positional


def test_pe_row_zero_alternates_zero_one():
    pe = positional_encoding(5, 8, np.float64)
    assert np.array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_pe_first_position_hand_values():
    pe = positional_encoding(3, 4, np.float64)
    # pairs (sin, cos) at rates 1 and 1/10000^(2/4)
    assert abs(pe[1, 0] - np.sin(1.0)) < 1e-12
    assert abs(pe[1, 1] - np.cos(1.0)) < 1e-12
    assert abs(pe[1, 2] - np.sin(1.0 / 100.0)) < 1e-12
    assert abs(pe[1, 3] - np.cos(1.0 / 100.0)) < 1e-12


def test_pe_bounded_and_unit_pairs():
    pe = positional_encoding(50, 512, np.float64)
    assert pe.shape == (50, 512)
    assert np.all(pe >= -1.0) and np.all(pe <= 1.0)
    s, c = pe[:, 0::2], pe[:, 1::2]
    assert np.max(np.abs(s * s + c * c - 1.0)) < 1e-12


def test_pe_odd_width_rejected():
    with pytest.raises(ValueError):
        positional_encoding(4, 7, np.float64)


def test_pe_distinct_rows():
    pe = positional_encoding(50, 16, np.float64)
    for i in range(50):
        for j in range(i + 1, 50):
            assert not np.allclose(pe[i], pe[j], atol=1e-9)


# ------------------------------------------------------------ attention


def test_attention_single_key_returns_value():
    q = t64(np.random.default_rng(0).normal(size=(3, 4)))
    k = t64([[0.3, -0.2, 0.5, 0.1]])
    v = t64([[1.0, 2.0, 3.0, 4.0]])
    out, w = scaled_dot_attention(q, k, v)
    assert np.allclose(out.data, np.repeat(v.data, 3, axis=0), atol=1e-12)
    assert np.allclose(w.data, 1.0, atol=1e-12)


def test_attention_identical_keys_average_values():
    q = t64([[1.0, 0.0]])
    k = t64([[0.5, 0.5], [0.5, 0.5]])
    v = t64([[2.0, 0.0], [0.0, 2.0]])
    out, w = scaled_dot_attention(q, k, v)
    assert np.allclose(w.data, [[0.5, 0.5]], atol=1e-12)
    assert np.allclose(out.data, [[1.0, 1.0]], atol=1e-12)


def test_attention_weights_rows_sum_to_one_with_bias():
    rng = np.random.default_rng(4)
    q, k, v = (t64(rng.normal(size=(5, 8))) for _ in range(3))
    bias = t64(rng.normal(size=(5, 5)))
    _, w = scaled_dot_attention(q, k, v, bias=bias)
    assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-6)


def test_attention_zero_bias_bitwise_equal_to_absent():
    rng = np.random.default_rng(5)
    q, k, v = (t64(rng.normal(size=(4, 6))) for _ in range(3))
    out_a, w_a = scaled_dot_attention(q, k, v)
    out_b, w_b = scaled_dot_attention(q, k, v, bias=t64(np.zeros((4, 4))))
    assert out_a.data.tobytes() == out_b.data.tobytes()
    assert w_a.data.tobytes() == w_b.data.tobytes()


def test_attention_scale_uses_key_width():
    # with scale 1/sqrt(d_k): logits q.k/sqrt(2) reproduced by hand
    q = t64([[1.0, 1.0]])
    k = t64([[1.0, 1.0], [0.0, 0.0]])
    v = t64([[1.0, 0.0], [0.0, 1.0]])
    _, w = scaled_dot_attention(q, k, v)
    z = np.array([2.0 / np.sqrt(2.0), 0.0])
    ref = np.exp(z) / np.exp(z).sum()
    assert np.allclose(w.data, ref[None, :], atol=1e-12)


def test_attention_masked_key_ignored():
    rng = np.random.default_rng(6)
    q = t64(rng.normal(size=(2, 4)))
    k = t64(rng.normal(size=(3, 4)))
    v = t64(rng.normal(size=(3, 4)))
    keep = np.array([[True, True, False], [True, True, False]])
    out_m, w_m = scaled_dot_attention(q, k, v, keep=keep)
    assert np.allclose(w_m.data[:, 2], 0.0, atol=1e-300)
    # equals attention over the first two keys only
    out_r, _ = scaled_dot_attention(q, Tensor(k.data[:2]), Tensor(v.data[:2]))
    assert np.allclose(out_m.data, out_r.data, atol=1e-12)


def test_attention_fully_masked_row_rejected():
    q, k, v = (t64(np.ones((2, 2))) for _ in range(3))
    keep = np.array([[True, True], [False, False]])
    with pytest.raises(ValueError):
        scaled_dot_attention(q, k, v, keep=keep)


def test_attention_key_value_permutation_invariant():
    rng = np.random.default_rng(7)
    q = t64(rng.normal(size=(3, 4)))
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    out_a, _ = scaled_dot_attention(q, t64(k), t64(v))
    perm = rng.permutation(5)
    out_b, _ = scaled_dot_attention(q, t64(k[perm]), t64(v[perm]))
    assert np.allclose(out_a.data, out_b.data, atol=1e-12)


def test_attention_shape_checks():
    with pytest.raises(ValueError):
        scaled_dot_attention(t64(np.ones((2, 3))), t64(np.ones((4, 2))), t64(np.ones((4, 5))))
    with pytest.raises(ValueError):
        scaled_dot_attention(t64(np.ones((2, 3))), t64(np.ones((4, 3))), t64(np.ones((3, 5))))


def test_attention_gradients_flow_to_all_inputs():
    rng = np.random.default_rng(8)
    q = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
    k = Tensor(rng.normal(size=(5, 4)), requires_grad=True, dtype=np.float64)
    v = Tensor(rng.normal(size=(5, 4)), requires_grad=True, dtype=np.float64)
    bias = Tensor(np.zeros((3, 5)), requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        out, _ = scaled_dot_attention(q, k, v, bias=bias)
        loss = T.sum_all(T.mul(out, out))
    backward(loss, tape)
    for t in (q, k, v, bias):
        assert t.grad is not None and np.any(t.grad != 0.0)


def test_fd_attention_with_bias():
    rng = np.random.default_rng(9)
    k = t64(rng.normal(size=(4, 3)))
    v = t64(rng.normal(size=(4, 3)))
    c = t64(rng.normal(size=(2, 3)))
    bias = t64(rng.normal(size=(2, 4)))

    def f(t):
        out, _ = scaled_dot_attention(t, k, v, bias=bias)
        return T.sum_all(T.mul(out, c))

    assert finite_diff_check(f, t64(rng.normal(size=(2, 3)))) < 1e-6


# ------------------------------------------------------------ multi-head


def test_multi_head_output_shape_and_grads():
    rng = np.random.default_rng(10)
    mha = MultiHeadAttention(rng, d_model=8, n_heads=2, dtype=np.float64)
    x = t64(rng.normal(size=(5, 8)))
    with GradientTape() as tape:
        out = multi_head_attention(x, x, mha)
        loss = T.sum_all(T.mul(out, out))
    backward(loss, tape)
    assert out.data.shape == (5, 8)
    for name, p in mha.params().items():
        assert p.grad is not None, name


def test_multi_head_rejects_uneven_split():
    with pytest.raises(ValueError):
        MultiHeadAttention(np.random.default_rng(0), d_model=8, n_heads=3, dtype=np.float64)


def test_multi_head_bias_count_checked():
    rng = np.random.default_rng(11)
    mha = MultiHeadAttention(rng, d_model=8, n_heads=2, dtype=np.float64)
    x = t64(rng.normal(size=(3, 8)))
    with pytest.raises(ValueError):
        multi_head_attention(x, x, mha, bias=stack([t64(np.zeros((3, 3)))]))


def test_multi_head_zero_biases_match_absent():
    rng = np.random.default_rng(12)
    mha = MultiHeadAttention(rng, d_model=8, n_heads=2, dtype=np.float64)
    x = t64(rng.normal(size=(4, 8)))
    plain = multi_head_attention(x, x, mha)
    zeros = t64(np.zeros((2, 4, 4)))
    biased = multi_head_attention(x, x, mha, bias=zeros)
    assert plain.data.tobytes() == biased.data.tobytes()


def test_multi_head_param_names_stable():
    mha = MultiHeadAttention(np.random.default_rng(0), d_model=4, n_heads=2, dtype=np.float64)
    assert list(mha.params()) == [
        "wo",
        "head0.wq", "head0.wk", "head0.wv",
        "head1.wq", "head1.wk", "head1.wv",
    ]


def test_single_head_with_identity_weights_reduces_to_plain_attention():
    mha = MultiHeadAttention(np.random.default_rng(1), d_model=4, n_heads=1, dtype=np.float64)
    eye = np.eye(4)
    for w in (mha.wq[0], mha.wk[0], mha.wv[0], mha.wo):
        w.data = eye.copy()
    rng = np.random.default_rng(2)
    x = t64(rng.normal(size=(3, 4)))
    out = multi_head_attention(x, x, mha)
    ref, _ = scaled_dot_attention(x, x, x)
    assert np.allclose(out.data, ref.data, atol=1e-12)


def _concat_cols_reference(parts):
    """Column concatenation recorded on the tape, as the per-head loop did it."""
    splits = np.cumsum([p.data.shape[1] for p in parts])[:-1]

    def rule(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=1))

    return T._emit(tuple(parts), np.concatenate([p.data for p in parts], axis=1), rule)


def _per_head_reference(q_in, kv_in, mha, per_head_bias, keep):
    """One 2-D attention chain per head, then concatenation and W^O."""
    outs = []
    for i in range(mha.n_heads):
        q, k, v = T.matmul(q_in, mha.wq[i]), T.matmul(kv_in, mha.wk[i]), T.matmul(kv_in, mha.wv[i])
        scores = T.scale(T.matmul(q, transpose(k)), 1.0 / np.sqrt(mha.d_k))
        if per_head_bias is not None:
            scores = T.add(scores, per_head_bias[i])
        if keep is not None:
            scores = masked_fill(scores, keep, float("-inf"))
        outs.append(T.matmul(softmax_rows(scores), v))
    return T.matmul(_concat_cols_reference(outs), mha.wo)


@pytest.mark.parametrize(
    "n_heads, n_q, n_k, cross, with_bias, causal",
    [
        (1, 5, 5, False, False, False),
        (4, 5, 5, False, True, False),
        (4, 6, 6, False, False, True),
        (4, 3, 7, True, False, False),
        (1, 4, 4, False, True, True),
    ],
)
def test_multi_head_matches_per_head_reference_bytewise(n_heads, n_q, n_k, cross, with_bias, causal):
    rng = np.random.default_rng(20 + n_heads)
    mha = MultiHeadAttention(rng, d_model=8, n_heads=n_heads, dtype=np.float64)
    x_leaf = Tensor(rng.normal(size=(n_q, 8)), requires_grad=True, dtype=np.float64)
    mem_leaf = Tensor(rng.normal(size=(n_k, 8)), requires_grad=True, dtype=np.float64)
    biases = None
    if with_bias:
        biases = [Tensor(rng.normal(size=(n_q, n_k)), requires_grad=True, dtype=np.float64) for _ in range(n_heads)]
    keep = np.tril(np.ones((n_q, n_k), dtype=bool)) if causal else None
    c = t64(rng.normal(size=(n_q, 8)))
    leaves = [x_leaf, mem_leaf, *mha.params().values(), *(biases or [])]

    def run(attend):
        for t in leaves:
            t.grad = None
        with GradientTape() as tape:
            # non-leaf inputs, so fan-in sums happen on the tape, in tape order
            x = T.scale(x_leaf, 1.0)
            mem = T.scale(mem_leaf, 1.0) if cross else x
            out = attend(x, mem, mha, biases, keep)
            # the residual also reads x, as in the encoder and decoder layers
            loss = T.sum_all(T.mul(T.add(x, out), c))
        backward(loss, tape)
        return out.data.tobytes(), [t.grad.tobytes() if t.grad is not None else None for t in leaves]

    def stacked(q_in, kv_in, mha, biases, keep):
        return multi_head_attention(q_in, kv_in, mha, bias=stack(biases) if biases else None, keep=keep)

    want_out, want_grads = run(_per_head_reference)
    got_out, got_grads = run(stacked)
    assert got_out == want_out
    assert (got_grads[1] is not None) == cross
    assert got_grads == want_grads


def _taped_bytes(leaves, forward, earlier=None):
    """Forward output bytes and every leaf's gradient bytes after one taped
    sweep of ``forward()``'s (output, loss); ``earlier`` maps a leaf to a
    gradient it holds before the sweep."""
    for t in leaves:
        t.grad = None if earlier is None else earlier.get(t)
    with GradientTape() as tape:
        out, loss = forward()
    backward(loss, tape)
    return out.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in leaves]


def _check_attention_block(dtype, cross, batched, via, heads=4, d_k=3, n_q=5, n_k=7, seed=40):
    """The attention block against the per-op chain, output and every
    gradient byte for byte, with padded keys masked, a causal mask in
    self-attention and a gated cluster bias with non-zero gates."""
    rng = np.random.default_rng(seed)
    d_model, n_k = heads * d_k, n_k if cross else n_q
    lead = (3,) if batched else ()
    mha = MultiHeadAttention(rng, d_model, heads, dtype=dtype)
    x_leaf = Tensor(rng.normal(size=lead + (n_q, d_model)), requires_grad=True, dtype=dtype)
    mem_leaf = Tensor(rng.normal(size=lead + (n_k, d_model)), requires_grad=True, dtype=dtype)
    gains = [[Tensor(rng.normal(), requires_grad=True, dtype=dtype) for _ in range(heads)] for _ in range(2)]
    tables = [rng.normal(size=lead + (h, n_q, n_k)).astype(dtype) for h in (1, heads)]
    real_keys = np.arange(n_k) < (np.array([[n_k], [max(1, n_k - 3)], [1]]) if batched else max(1, n_k - 2))
    keep = real_keys[..., None, :] if cross else np.tril(np.ones((n_q, n_k), dtype=bool)) & real_keys[..., None, :]
    keep = keep[..., None, :, :]
    c = Tensor(rng.normal(size=lead + (n_q, d_model)), dtype=dtype)
    leaves = [x_leaf, mem_leaf, *gains[0], *gains[1], *mha.params().values()]
    earlier = {t: rng.normal(size=t.data.shape).astype(dtype) for t in (x_leaf, mem_leaf)}

    def forward(attend):
        def run():
            x = x_leaf if via == "leaf" else T.scale(x_leaf, 1.0)
            mem = (mem_leaf if via == "leaf" else T.scale(mem_leaf, 1.0)) if cross else x
            bias = T.gated_heads(list(zip(gains, tables)))
            out = attend(x, mem, mha, bias=bias, keep=keep)
            return out, T.sum_all(T.mul(T.add(x, out), c))

        return run

    want = _taped_bytes(leaves, forward(multi_head_attention_per_op), earlier)
    got = _taped_bytes(leaves, forward(multi_head_attention), earlier)
    assert got[0] == want[0]
    assert (got[1][1] != earlier[mem_leaf].tobytes()) == cross
    assert got[1] == want[1]
    with GradientTape() as tape:
        x = T.scale(x_leaf, 1.0)
        multi_head_attention(x, T.scale(mem_leaf, 1.0) if cross else x, mha, keep=keep)
    assert len(tape) == (3 if cross else 2)  # the scales, then one entry for the block


@pytest.mark.parametrize("via", ["op", "leaf"])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_block_matches_per_op_chain_bytewise(dtype, cross, batched, via):
    # the gradient terms of x (and of the memory) reach an input that
    # already holds one (the residual's, plus, for a leaf, one from an
    # earlier sweep), so their order is pinned
    _check_attention_block(dtype, cross, batched, via, seed=40 + 2 * cross + batched)


@pytest.mark.parametrize(
    "dtype, cross, heads, d_k, n_q, n_k",
    [
        (np.float32, False, 8, 4, 13, 13),
        (np.float64, False, 3, 17, 5, 5),
        (np.float32, True, 3, 17, 1, 6),
        (np.float64, True, 2, 1, 4, 9),
        (np.float64, False, 4, 10, 1, 1),
        (np.float32, True, 4, 16, 6, 1),
    ],
)
def test_attention_block_matches_per_op_chain_at_blas_edge_shapes(dtype, cross, heads, d_k, n_q, n_k):
    # shapes at which one product with the heads' weights side by side, or
    # the same product from operands laid out otherwise, reaches other BLAS
    # kernels and other bits: odd and one-wide heads, single query rows
    # (gemv) and single keys
    _check_attention_block(dtype, cross, True, "op", heads, d_k, n_q, n_k, seed=60 + heads + d_k)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ffn_and_residual_blocks_match_per_op_chains_bytewise(dtype, batched):
    # x feeds the FFN and both residual sums, so its terms arrive from three
    # entries; a leaf gradient from an earlier sweep comes first
    rng = np.random.default_rng(50 + batched)
    lead = (3,) if batched else ()
    ff = FeedForward(rng, 6, 10, dtype=dtype)
    ff.b1.data = rng.normal(size=10).astype(dtype)  # some pre-activations negative, some positive
    ln1, ln2 = LayerNormParams(6, dtype), LayerNormParams(6, dtype)
    for ln in (ln1, ln2):
        ln.gain.data = rng.normal(size=6).astype(dtype)
        ln.shift.data = rng.normal(size=6).astype(dtype)
    x_leaf = Tensor(rng.normal(size=lead + (4, 6)), requires_grad=True, dtype=dtype)
    c = Tensor(rng.normal(size=lead + (4, 6)), dtype=dtype)
    leaves = [x_leaf, *ff.params().values(), *ln1.params().values(), *ln2.params().values()]
    earlier = {x_leaf: rng.normal(size=x_leaf.data.shape).astype(dtype)}

    def forward(ffn, residual):
        def run():
            h = residual(x_leaf, ffn(ff, x_leaf), ln1)
            out = residual(h, x_leaf, ln2)
            return out, T.sum_all(T.mul(out, c))

        return run

    want = _taped_bytes(leaves, forward(feed_forward_per_op, residual_layernorm_per_op), earlier)
    got = _taped_bytes(leaves, forward(feed_forward, residual_layernorm), earlier)
    assert got == want


def test_blocks_keep_the_chains_input_checks():
    rng = np.random.default_rng(13)
    mha = MultiHeadAttention(rng, d_model=8, n_heads=2, dtype=np.float64)
    x = t64(rng.normal(size=(2, 3, 8)))
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        multi_head_attention(t64(rng.normal(size=(3, 6))), t64(rng.normal(size=(3, 6))), mha)
    with pytest.raises(ValueError, match="attention shape mismatch"):
        multi_head_attention(x, t64(rng.normal(size=(3, 4, 8))), mha)
    with pytest.raises(ValueError, match="every key masked out"):
        multi_head_attention(x, x, mha, keep=np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError, match="mask shape"):
        multi_head_attention(x, x, mha, keep=np.ones((1, 2, 2, 3, 3), dtype=bool))
    with pytest.raises(TypeError, match="mixed tensor dtypes"):
        multi_head_attention(Tensor(x.data, dtype=np.float32), x, mha)
    ff = FeedForward(rng, 8, 4, dtype=np.float64)
    with pytest.raises(ValueError, match="matmul shape mismatch"):
        feed_forward(ff, t64(rng.normal(size=(3, 6))))
    with pytest.raises(ValueError, match="add shape mismatch"):
        residual_layernorm(x, t64(rng.normal(size=(3, 8))), LayerNormParams(8, np.float64))
    with pytest.raises(ValueError, match="layernorm shapes"):
        residual_layernorm(x, x, LayerNormParams(4, np.float64))


# ------------------------------------------------------------ feed-forward


def test_ffn_hand_case_clipped_to_zero():
    ff = FeedForward(np.random.default_rng(0), d_model=1, d_ff=1, dtype=np.float64)
    ff.w1.data = np.array([[1.0]])
    ff.b1.data = np.array([-3.0])
    ff.w2.data = np.array([[5.0]])
    ff.b2.data = np.array([0.0])
    out = feed_forward(ff, t64([[2.0]]))
    assert out.data[0, 0] == 0.0


def test_ffn_hand_case_sixteen():
    ff = FeedForward(np.random.default_rng(0), d_model=1, d_ff=1, dtype=np.float64)
    ff.w1.data = np.array([[1.0]])
    ff.b1.data = np.array([1.0])
    ff.w2.data = np.array([[5.0]])
    ff.b2.data = np.array([1.0])
    out = feed_forward(ff, t64([[2.0]]))
    assert out.data[0, 0] == 16.0


def test_ffn_zero_first_layer_gives_second_bias():
    ff = FeedForward(np.random.default_rng(3), d_model=3, d_ff=5, dtype=np.float64)
    ff.w1.data = np.zeros((3, 5))
    ff.b1.data = np.zeros(5)
    out = feed_forward(ff, t64(np.random.default_rng(4).normal(size=(2, 3))))
    assert np.allclose(out.data, np.broadcast_to(ff.b2.data, (2, 3)), atol=1e-12)


def test_fd_ffn():
    rng = np.random.default_rng(5)
    ff = FeedForward(rng, d_model=4, d_ff=6, dtype=np.float64)

    def f(t):
        return T.sum_all(T.mul(feed_forward(ff, t), feed_forward(ff, t)))

    assert finite_diff_check(f, t64(rng.normal(size=(2, 4)))) < 1e-6


# ------------------------------------------------------------ layernorm


def test_residual_layernorm_hand_case():
    ln = LayerNormParams(2, np.float64)
    out = residual_layernorm(t64([[0.0, 2.0]]), t64([[1.0, 1.0]]), ln)
    # h + sub = (1, 3), normalized to (-1, 1)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_residual_layernorm_rows_standardized():
    rng = np.random.default_rng(6)
    ln = LayerNormParams(8, np.float64)
    out = residual_layernorm(t64(rng.normal(size=(4, 8))), t64(rng.normal(size=(4, 8))), ln)
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(out.data.std(axis=1), 1.0, atol=1e-4)


# ------------------------------------------------------------ dropout


def test_dropout_eval_mode_is_identity():
    x = t64(np.random.default_rng(0).normal(size=(10, 10)))
    out = dropout(x, 0.5)
    assert out is x


def test_dropout_rate_zero_is_identity():
    x = t64(np.random.default_rng(0).normal(size=(4, 4)))
    out = dropout(x, 0.0, uniform=np.random.default_rng(1).random(x.data.shape))
    assert np.array_equal(out.data, x.data)


def test_dropout_statistics():
    x = Tensor(np.ones((100, 100)), dtype=np.float64)
    out = dropout(x, 0.1, uniform=np.random.default_rng(123).random(x.data.shape))
    survived = np.count_nonzero(out.data) / out.data.size
    assert abs(survived - 0.9) < 0.02
    # inverted scaling keeps the mean near 1
    assert abs(out.data.mean() - 1.0) < 0.03
    # surviving entries are scaled by 1/(1-rate)
    kept = out.data[out.data != 0.0]
    assert np.allclose(kept, 1.0 / 0.9, atol=1e-12)


def test_dropout_seeded_repeatable():
    x = t64(np.random.default_rng(0).normal(size=(20, 20)))
    a = dropout(x, 0.3, uniform=np.random.default_rng(9).random(x.data.shape))
    b = dropout(x, 0.3, uniform=np.random.default_rng(9).random(x.data.shape))
    assert a.data.tobytes() == b.data.tobytes()


def test_dropout_rate_bounds():
    x = t64(np.ones((2, 2)))
    with pytest.raises(ValueError):
        dropout(x, 1.0, uniform=np.random.default_rng(0).random(x.data.shape))
    with pytest.raises(ValueError):
        dropout(x, -0.1, uniform=np.random.default_rng(0).random(x.data.shape))


def test_dropout_gradient_masks_match_forward():
    x = Tensor(np.ones((6, 6)), requires_grad=True, dtype=np.float64)
    with GradientTape() as tape:
        out = dropout(x, 0.5, uniform=np.random.default_rng(2).random(x.data.shape))
        loss = T.sum_all(out)
    backward(loss, tape)
    dropped = out.data == 0.0
    assert np.all(x.grad[dropped] == 0.0)
    assert np.allclose(x.grad[~dropped], 2.0, atol=1e-12)
