"""Autodiff core: forward values against independent oracles, gradients
against closed forms and central finite differences."""

import weakref

import numpy as np
import pytest

from ktransformer import tensor as T
from ktransformer.layers import (
    FeedForward,
    LayerNormParams,
    MultiHeadAttention,
    feed_forward,
    multi_head_attention,
    residual_layernorm,
)
from ktransformer.tensor import GradientTape, Tensor, backward

from oracles import (
    finite_diff_check,
    layernorm_rows,
    masked_fill,
    merge_heads,
    relu,
    softmax_rows,
    stack,
    transpose,
)


def slow_matmul(a, b):
    """Triple-loop reference product, no numpy dot involved."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def leaf(values, dtype=np.float64):
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=True)


# ---------------------------------------------------------------- forward


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], dtype=np.float64)
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
        assert np.allclose(got, slow_matmul(a, b), rtol=0, atol=1e-12)
    # (heads, rows, cols) stacks multiply head by head
    a = rng.normal(size=(3, 2, 4))
    b = rng.normal(size=(3, 4, 5))
    got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)).data
    assert got.shape == (3, 2, 5)
    for h in range(3):
        assert np.allclose(got[h], slow_matmul(a[h], b[h]), rtol=0, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 4))))
    # a batch times one shared weight is supported; a matrix times a stack,
    # or a batch whose inner width misses the weight's, is not
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3, 4))))
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((4, 5))))


def test_softmax_hand_case():
    out = softmax_rows(Tensor([[0.0, np.log(2.0)]], dtype=np.float64))
    assert np.allclose(out.data, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_softmax_large_logits_stable():
    out = softmax_rows(Tensor([[1000.0, 0.0]], dtype=np.float64))
    assert np.all(np.isfinite(out.data))
    assert abs(float(out.data.sum()) - 1.0) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for shape in ((6, 9), (3, 6, 9)):
        out = softmax_rows(Tensor(rng.normal(size=shape), dtype=np.float64))
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_relu_forward():
    out = relu(Tensor([[-1.0, 0.0, 2.5]], dtype=np.float64))
    assert np.array_equal(out.data, [[0.0, 0.0, 2.5]])


def test_add_row_bias_broadcast():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    b = Tensor([10.0, 20.0, 30.0], dtype=np.float64)
    out = T.add(x, b)
    assert np.array_equal(out.data, [[10.0, 21.0, 32.0], [13.0, 24.0, 35.0]])


def test_pick_rows_values():
    table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = T.pick_rows(table, np.array([2, 0, 2]))
    assert np.array_equal(out.data, table.data[[2, 0, 2]])


def test_pick_rows_rejects_out_of_range():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        T.pick_rows(table, np.array([4]))
    with pytest.raises(ValueError):
        T.pick_rows(table, np.array([-1]))


def test_masked_fill_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    keep = np.array([[True, False], [False, True]])
    out = masked_fill(x, keep, -50.0)
    assert np.array_equal(out.data, [[1.0, -50.0], [-50.0, 4.0]])
    # a (rows, cols) mask is shared by every head of a stack
    stacked = Tensor(np.arange(8, dtype=np.float64).reshape(2, 2, 2))
    out = masked_fill(stacked, keep, -50.0)
    assert np.array_equal(out.data, [[[0.0, -50.0], [-50.0, 3.0]], [[4.0, -50.0], [-50.0, 7.0]]])
    with pytest.raises(ValueError):
        masked_fill(stacked, np.ones((2, 3), dtype=bool), -50.0)


def test_layernorm_hand_case():
    x = Tensor([[1.0, 3.0]], dtype=np.float64)
    gain = Tensor([1.0, 1.0], dtype=np.float64)
    shift = Tensor([0.0, 0.0], dtype=np.float64)
    out = layernorm_rows(x, gain, shift)
    # population std of (1,3) is 1, so the row maps to (-1, 1) up to eps
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_layernorm_constant_row_maps_to_shift():
    x = Tensor([[5.0, 5.0, 5.0]], dtype=np.float64)
    gain = Tensor([2.0, 2.0, 2.0], dtype=np.float64)
    shift = Tensor([0.5, 0.5, 0.5], dtype=np.float64)
    out = layernorm_rows(x, gain, shift)
    assert np.allclose(out.data, 0.5, atol=1e-12)


def test_stack_values():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    out = stack([a, b])
    assert out.data.shape == (2, 2, 3)
    assert np.array_equal(out.data[0], a.data) and np.array_equal(out.data[1], b.data)
    with pytest.raises(ValueError):
        stack([a, Tensor(np.zeros((2, 2)))])


def test_merge_heads_places_head_i_in_column_block_i():
    x = np.arange(12, dtype=np.float64).reshape(3, 2, 2)  # 3 heads, 2 rows, width 2
    out = merge_heads(Tensor(x))
    assert out.data.shape == (2, 6)
    # oracle: row r is head 0's row r, then head 1's, then head 2's
    for r in range(2):
        assert list(out.data[r]) == [float(v) for h in range(3) for v in x[h, r]]
    with pytest.raises(ValueError):
        merge_heads(Tensor(np.zeros((2, 3))))


def test_dtype_mixing_rejected():
    with pytest.raises(TypeError):
        T.add(Tensor(np.zeros((2, 2)), dtype=np.float32), Tensor(np.zeros((2, 2)), dtype=np.float64))


# ---------------------------------------------------------------- gradients


def test_grad_sum_of_squares():
    x = leaf([[1.0, -2.0], [0.5, 3.0]])
    with GradientTape() as tape:
        y = T.sum_all(T.mul(x, x))
    backward(y, tape)
    assert np.allclose(x.grad, 2.0 * x.data, atol=1e-12)


def test_grad_matmul_closed_form():
    rng = np.random.default_rng(11)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(4, 2)))
    with GradientTape() as tape:
        y = T.sum_all(T.matmul(a, b))
    backward(y, tape)
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, slow_matmul(ones, b.data.T), atol=1e-12)
    assert np.allclose(b.grad, slow_matmul(a.data.T, ones), atol=1e-12)


def test_grad_relu_hand_case():
    x = leaf([[-1.0, 2.0]])
    with GradientTape() as tape:
        y = T.sum_all(relu(x))
    backward(y, tape)
    assert np.array_equal(x.grad, [[0.0, 1.0]])


def test_grad_row_bias_is_column_sum():
    x = leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
    b = leaf([0.0, 0.0, 0.0])
    with GradientTape() as tape:
        y = T.sum_all(T.add(x, b))
    backward(y, tape)
    assert np.array_equal(b.grad, [2.0, 2.0, 2.0])


def test_grad_pick_rows_accumulates_duplicates():
    table = leaf(np.zeros((3, 2)))
    with GradientTape() as tape:
        y = T.sum_all(T.pick_rows(table, np.array([1, 1, 0])))
    backward(y, tape)
    assert np.array_equal(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def test_grad_masked_fill_blocks_filled_entries():
    x = leaf([[1.0, 2.0]])
    keep = np.array([[True, False]])
    with GradientTape() as tape:
        y = T.sum_all(masked_fill(x, keep, -9.0))
    backward(y, tape)
    assert np.array_equal(x.grad, [[1.0, 0.0]])


def test_grad_transpose_and_scale():
    x = leaf([[1.0, 2.0], [3.0, 4.0]])
    with GradientTape() as tape:
        y = T.sum_all(T.scale(transpose(x), 3.0))
    backward(y, tape)
    assert np.array_equal(x.grad, np.full((2, 2), 3.0))
    # on a stack, each head is transposed and so is each head's gradient
    x = leaf(np.arange(12, dtype=np.float64).reshape(2, 2, 3))
    c = Tensor(np.arange(12, dtype=np.float64).reshape(2, 3, 2))
    with GradientTape() as tape:
        out = transpose(x)
        y = T.sum_all(T.mul(out, c))
    backward(y, tape)
    assert np.array_equal(out.data, np.swapaxes(x.data, 1, 2))
    assert np.array_equal(x.grad, np.swapaxes(c.data, 1, 2))


# finite differences; functions chosen so the scalar output actually moves
# with the input (softmax alone is constant under sum)


def fd(f, x, tol=1e-6):
    err = finite_diff_check(f, Tensor(np.asarray(x, dtype=np.float64)))
    assert err < tol, f"finite-diff relative error {err}"


def test_fd_matmul_chain():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    fd(lambda t: T.sum_all(T.mul(T.matmul(t, w), T.matmul(t, w))), rng.normal(size=(2, 4)))
    # (heads, rows, cols) stacks: gradients reach both operands head by head
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 2))
    c = Tensor(rng.normal(size=(2, 3, 2)), dtype=np.float64)
    fd(lambda t: T.sum_all(T.mul(T.matmul(t, Tensor(b, dtype=np.float64)), c)), a)
    fd(lambda t: T.sum_all(T.mul(T.matmul(Tensor(a, dtype=np.float64), t), c)), b)


def test_fd_relu_chain():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(3, 5)), dtype=np.float64)
    fd(lambda t: T.sum_all(relu(T.matmul(t, w))), rng.normal(size=(2, 3)) + 0.1)


def test_fd_softmax_weighted():
    rng = np.random.default_rng(2)
    c = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    fd(lambda t: T.sum_all(T.mul(softmax_rows(t), c)), rng.normal(size=(3, 4)))


def test_fd_stack_each_part():
    rng = np.random.default_rng(7)
    parts = [rng.normal(size=(2, 3)) for _ in range(3)]
    c = Tensor(rng.normal(size=(3, 2, 3)), dtype=np.float64)
    for i in range(3):

        def f(t, i=i):
            ts = [t if j == i else Tensor(p, dtype=np.float64) for j, p in enumerate(parts)]
            return T.sum_all(T.mul(stack(ts), c))

        fd(f, parts[i])


def test_fd_merge_heads():
    rng = np.random.default_rng(8)
    c = Tensor(rng.normal(size=(2, 6)), dtype=np.float64)
    fd(lambda t: T.sum_all(T.mul(merge_heads(t), c)), rng.normal(size=(3, 2, 2)))


def test_fd_masked_softmax():
    rng = np.random.default_rng(3)
    keep = np.array([[True, True, False, True]] * 2)
    for heads in ((), (3,)):
        c = Tensor(rng.normal(size=heads + (2, 4)), dtype=np.float64)

        def f(t):
            return T.sum_all(T.mul(softmax_rows(masked_fill(t, keep, float("-inf"))), c))

        fd(f, rng.normal(size=heads + (2, 4)))


def test_fd_layernorm_all_three_inputs():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    gain = rng.normal(size=4)
    shift = rng.normal(size=4)
    c = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)

    def wrt_x(t):
        return T.sum_all(
            T.mul(layernorm_rows(t, Tensor(gain, dtype=np.float64), Tensor(shift, dtype=np.float64)), c)
        )

    def wrt_gain(t):
        return T.sum_all(T.mul(layernorm_rows(Tensor(x, dtype=np.float64), t, Tensor(shift, dtype=np.float64)), c))

    def wrt_shift(t):
        return T.sum_all(T.mul(layernorm_rows(Tensor(x, dtype=np.float64), Tensor(gain, dtype=np.float64), t), c))

    fd(wrt_x, x)
    fd(wrt_gain, gain)
    fd(wrt_shift, shift)


def test_fd_cross_entropy_wrt_logits():
    rng = np.random.default_rng(5)
    targets = np.array([2, 0, 1])
    active = np.array([True, True, False])
    fd(lambda t: T.masked_cross_entropy(t, targets, active), rng.normal(size=(3, 4)))


# ---------------------------------------------------------------- cross-entropy


def test_cross_entropy_uniform_logits_is_log_vocab():
    v = 7
    logits = Tensor(np.zeros((3, v)), dtype=np.float64)
    loss = T.masked_cross_entropy(logits, np.array([0, 3, 6]), np.array([True] * 3))
    assert abs(float(loss.data) - np.log(v)) < 1e-12


def test_cross_entropy_matches_direct_log_softmax():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(4, 5))
    targets = np.array([1, 4, 0, 2])
    active = np.array([True, False, True, True])
    loss = T.masked_cross_entropy(Tensor(z, dtype=np.float64), targets, active)
    # oracle: plain -log softmax per active row, averaged
    ref = 0.0
    for i in range(4):
        if not active[i]:
            continue
        p = np.exp(z[i]) / np.exp(z[i]).sum()
        ref -= np.log(p[targets[i]])
    ref /= active.sum()
    assert abs(float(loss.data) - ref) < 1e-12


def test_cross_entropy_all_masked_rejected():
    with pytest.raises(ValueError):
        T.masked_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]), np.array([False, False]))


def test_cross_entropy_confident_correct_is_small():
    z = np.full((1, 4), -1e3)
    z[0, 2] = 1e3
    loss = T.masked_cross_entropy(Tensor(z, dtype=np.float64), np.array([2]), np.array([True]))
    assert float(loss.data) < 1e-10


# ---------------------------------------------------------------- tape rules


def test_backward_requires_scalar():
    x = leaf([[1.0, 2.0]])
    with GradientTape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ValueError):
        backward(y, tape)


def test_backward_twice_rejected():
    x = leaf([[1.0]])
    with GradientTape() as tape:
        y = T.sum_all(x)
    backward(y, tape)
    with pytest.raises(RuntimeError):
        backward(y, tape)


def test_backward_frees_what_only_the_tape_held():
    # the intermediate h and the product's rule closure are held by the tape
    # alone once the caller drops h: the sweep frees them, the gradients are
    # the closed form's, len(tape) still counts what was recorded, and the
    # spent tape still refuses a second replay
    x = leaf([[1.0, -2.0], [0.5, 3.0]])
    w = leaf([[2.0, 0.0], [1.0, -1.0]])
    with GradientTape() as tape:
        h = T.matmul(x, w)
        loss = T.sum_all(T.mul(h, h))
    held = weakref.ref(h.data)
    hd = h.data.copy()
    del h
    assert held() is not None
    backward(loss, tape)
    assert held() is None
    assert np.array_equal(x.grad, 2.0 * hd @ w.data.T)
    assert np.array_equal(w.grad, 2.0 * x.data.T @ hd)
    assert len(tape) == 3
    with pytest.raises(RuntimeError):
        backward(loss, tape)


def test_backward_foreign_loss_rejected():
    x = leaf([[1.0]])
    with GradientTape() as tape:
        T.sum_all(x)
    stray = Tensor(np.array(0.0))
    with pytest.raises(ValueError):
        backward(stray, tape)


def test_ops_outside_tape_record_nothing():
    x = leaf([[1.0, 2.0]])
    y = T.sum_all(T.mul(x, x))
    assert x.grad is None
    with GradientTape() as tape:
        pass
    with pytest.raises(ValueError):
        backward(y, tape)


def test_grad_accumulates_across_tapes():
    x = leaf([[1.0, 2.0]])
    for _ in range(2):
        with GradientTape() as tape:
            y = T.sum_all(x)
        backward(y, tape)
    assert np.array_equal(x.grad, [[2.0, 2.0]])


def test_constant_leaf_gets_no_grad():
    x = leaf([[1.0]])
    c = Tensor(np.array([[2.0]]), dtype=np.float64)
    with GradientTape() as tape:
        y = T.sum_all(T.mul(x, c))
    backward(y, tape)
    assert c.grad is None
    assert x.grad is not None


def test_shared_node_fans_in():
    # y = sum(h) + sum(h∘h) with h reused; dy/dx = 2 + ... checked vs fd
    rng = np.random.default_rng(12)

    def f(t):
        h = T.scale(t, 2.0)
        return T.add(T.sum_all(h), T.sum_all(T.mul(h, h)))

    err = finite_diff_check(f, Tensor(rng.normal(size=(2, 3)), dtype=np.float64))
    assert err < 1e-6


def test_default_dtype_is_f32():
    assert Tensor([[1.0]]).dtype == np.float32
    assert T.dtype_of("f64") == np.float64
    with pytest.raises(ValueError):
        T.dtype_of("f16")


# ---------------------------------------------------------------- batches
#
# A batch of B sentences must give every sentence the floats it gets alone,
# and a parameter shared by the batch the fold of the per-sentence
# gradients, last sentence first. B = 11 is above the 8 at which numpy's
# 1-D sums turn pairwise, so a fold that went through one would show.


def _batch_cases(dtype):
    rng = np.random.default_rng(30)
    b, n = 11, 4

    def shared(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)

    def taking(data, op):
        def make(rows):
            x = Tensor(data[rows], requires_grad=True, dtype=dtype)
            return op(x), x
        return make

    x5, x1, logits = rng.normal(size=(b, n, 5)), rng.normal(size=(b, n, 1)), rng.normal(size=(b, n, 6))
    w, bias, bias1, scalar, table, gain, shift, emb = (
        shared(5, 3), shared(5), shared(1), shared(), shared(n, 5), shared(5), shared(5), shared(7, 5)
    )
    ids = rng.integers(0, 7, size=(b, n))
    targets = rng.integers(0, 6, size=(b, n))
    active = np.arange(n) < rng.integers(1, n + 1, size=(b, 1))
    gains = [[Tensor(v, requires_grad=True, dtype=dtype) for v in rng.normal(size=2)] for _ in range(2)]
    tables = [rng.normal(size=(b, 1, 3, 3)).astype(dtype), rng.normal(size=(b, 2, 3, 3)).astype(dtype)]
    return {
        "matmul_shared_weight": (taking(x5, lambda x: T.matmul(x, w)), [w]),
        "row_bias": (taking(x5, lambda x: T.add(x, bias)), [bias]),
        "row_bias_width_1": (taking(x1, lambda x: T.add(x, bias1)), [bias1]),
        "shared_table": (taking(x5, lambda x: T.add(x, table)), [table]),
        "scalar_add": (taking(x5, lambda x: T.add(x, scalar)), [scalar]),
        "scalar_mul": (taking(x5, lambda x: T.mul(scalar, x)), [scalar]),
        "layernorm": (taking(x5, lambda x: layernorm_rows(x, gain, shift)), [gain, shift]),
        "pick_rows": (lambda rows: (T.pick_rows(emb, ids[rows]), None), [emb]),
        "cross_entropy": (
            lambda rows: (lambda x: (T.masked_cross_entropy(x, targets[rows], active[rows]), x))(
                Tensor(logits[rows], requires_grad=True, dtype=dtype)),
            [],
        ),
        "gated_heads": (
            lambda rows: (T.gated_heads([(g, t[rows]) for g, t in zip(gains, tables)]), None),
            [g for gs in gains for g in gs],
        ),
    }, b


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "case",
    ["matmul_shared_weight", "row_bias", "row_bias_width_1", "scalar_add", "scalar_mul", "shared_table", "layernorm",
     "pick_rows", "cross_entropy", "gated_heads"],
)
def test_batched_op_equals_per_sentence_ops_and_fold(case, dtype):
    cases, b = _batch_cases(dtype)
    make, shared = cases[case]
    rng = np.random.default_rng(31)

    def run(rows, c):
        for p in shared:
            p.grad = None
        with GradientTape() as tape:
            out, x = make(rows)
            loss = T.sum_all(T.mul(out, Tensor(c, dtype=dtype)))
        backward(loss, tape)
        return out.data, None if x is None else x.grad, [np.asarray(p.grad) for p in shared]

    c = rng.normal(size=make(slice(None))[0].data.shape)
    want_out, want_x, want_shared = run(slice(None), c)
    per_sentence = []
    for i in range(b):
        out, x_grad, grads = run(i, c[i])
        assert np.asarray(out).tobytes() == np.asarray(want_out[i]).tobytes()
        if x_grad is not None:
            assert x_grad.tobytes() == want_x[i].tobytes()
        per_sentence.append(grads)
    for j in range(len(shared)):
        folded = per_sentence[-1][j]
        for grads in reversed(per_sentence[:-1]):
            folded = folded + grads[j]
        assert np.asarray(folded).tobytes() == want_shared[j].tobytes()


def test_weight_grad_fold_is_the_same_across_blocks(monkeypatch):
    # blocks of a few sentences carry the running total: any block size
    # gives the fold's bytes
    rng = np.random.default_rng(32)
    x = rng.normal(size=(9, 3, 4)).astype(np.float32)
    g = rng.normal(size=(9, 3, 5)).astype(np.float32)
    whole = T._fold_weight_grad(x, g)
    for block in (20, 40, 60):
        monkeypatch.setattr(T, "_FOLD_BLOCK", block)
        assert T._fold_weight_grad(x, g).tobytes() == whole.tobytes()
    want = x[-1].T @ g[-1]
    for i in range(7, -1, -1):
        want = want + x[i].T @ g[i]
    assert whole.tobytes() == want.tobytes()


def test_sum_all_adds_in_index_order():
    v = np.array([1e8, 1.0, -1e8, 1.0] * 3, dtype=np.float32)
    want = v[0]
    for x in v[1:]:
        want = want + x
    assert T.sum_all(Tensor(v)).data.tobytes() == np.asarray(want).tobytes()


def test_fd_batched_ops():
    rng = np.random.default_rng(33)
    w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    x = rng.normal(size=(3, 2, 4))
    c = Tensor(rng.normal(size=(3, 2, 3)), dtype=np.float64)
    fd(lambda t: T.sum_all(T.mul(T.matmul(t, w), c)), x)
    fd(lambda t: T.sum_all(T.mul(T.matmul(Tensor(x, dtype=np.float64), t), c)), w.data)
    gain, shift = rng.normal(size=4), rng.normal(size=4)
    cl = Tensor(rng.normal(size=(3, 2, 4)), dtype=np.float64)
    as64 = lambda a: Tensor(a, dtype=np.float64)
    fd(lambda t: T.sum_all(T.mul(layernorm_rows(t, as64(gain), as64(shift)), cl)), x)
    fd(lambda t: T.sum_all(T.mul(layernorm_rows(as64(x), t, as64(shift)), cl)), gain)
    fd(lambda t: T.sum_all(T.mul(layernorm_rows(as64(x), as64(gain), t), cl)), shift)
    tables = rng.normal(size=(3, 2, 2, 2))
    ch = Tensor(rng.normal(size=(3, 2, 2, 2)), dtype=np.float64)
    fd(lambda t: T.sum_all(T.mul(T.gated_heads([([t, as64(0.5)], tables)]), ch)), np.array(0.3))
    # the one-entry blocks: attention (self with a gated bias and a causal
    # mask, cross over padded memory, one head's weight), FFN, residual norm
    mha = MultiHeadAttention(rng, 4, 2, dtype=np.float64)
    mem = rng.normal(size=(3, 3, 4))
    causal = np.tril(np.ones((2, 2), dtype=bool))
    padded = (np.arange(3) < np.array([[3], [2], [1]]))[:, None, None, :]
    bias_tables = rng.normal(size=(3, 2, 2, 2))

    def self_attention(t):
        bias = T.gated_heads([([as64(0.7), as64(-0.4)], bias_tables)])
        return T.sum_all(T.mul(multi_head_attention(t, t, mha, bias=bias, keep=causal), cl))

    fd(self_attention, x)
    fd(lambda t: T.sum_all(T.mul(multi_head_attention(as64(x), t, mha, keep=padded), cl)), mem)

    def wrt_wk1(t):
        mha.wk[1] = t
        return T.sum_all(T.mul(multi_head_attention(as64(x), as64(mem), mha, keep=padded), cl))

    fd(wrt_wk1, mha.wk[1].data)
    ff = FeedForward(rng, 4, 5, dtype=np.float64)
    ff.b1.data = rng.normal(size=5)
    fd(lambda t: T.sum_all(T.mul(feed_forward(ff, t), cl)), x)
    ln = LayerNormParams(4, np.float64)
    ln.gain.data, ln.shift.data = gain, shift
    sub = rng.normal(size=(3, 2, 4))
    fd(lambda t: T.sum_all(T.mul(residual_layernorm(t, as64(sub), ln), cl)), x)
