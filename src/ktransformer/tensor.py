"""Dense float tensors with reverse-mode autodiff on an explicit gradient tape.

Everything is numpy-backed and deliberately small: scalars, vectors and
(rows, cols) matrices, optionally behind leading axes (a batch of sentences,
then heads), and just enough operations for an encoder-decoder attention
stack and its training loop (matmul, row softmax, layer norm, embedding
lookup, masked cross-entropy). Every op computes each sentence and head of
a stack with the same numpy/BLAS call as a lone 2-D matrix, so batching never
changes a float. A parameter shared by the sentences of a batch (a 2-D
weight, a row bias, a layer-norm gain or shift, an embedding table, a gate
scalar) gets its gradient per sentence, folded last sentence first,
((c[B-1] + c[B-2]) + ...) + c[0]: for a parameter that enters each
sentence's computation once, the order in which a tape that ran the
sentences one after another accumulates it. Default element type is
float32; gradient checking runs in float64.

Gradient arrays produced by ``backward`` are shared between tensors and must
be treated as immutable; replace ``t.grad`` instead of mutating it in place.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
_SUPPORTED = (F32, F64)

_PRECISIONS = {"f32": F32, "f64": F64}

# added to each row's variance in ``layernorm_rows``
LAYERNORM_EPS = 1e-5


def dtype_of(precision: str) -> np.dtype:
    """Map a precision name ("f32" or "f64") to its numpy dtype."""
    try:
        return _PRECISIONS[precision]
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}; expected one of {sorted(_PRECISIONS)}") from None


class Tensor:
    """A dense row-major float array plus gradient metadata.

    ``grad`` is populated for requires_grad leaves by ``backward`` and
    accumulates across tapes until reset to None.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        # float32 unless the caller passed a dtype or an array already in a
        # supported float type
        if dtype is None and not (isinstance(data, np.ndarray) and data.dtype in _SUPPORTED):
            dtype = np.float32
        arr = np.array(data, dtype=dtype)
        if arr.dtype not in _SUPPORTED:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _wrap(arr: np.ndarray) -> Tensor:
    # Internal constructor: adopts arr without copying.
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    t.grad = None
    return t


_tape_stack: list["GradientTape"] = []


class GradientTape:
    """Ordered record of executed operations for one reverse sweep.

    Used as a context manager; operations executed inside the block whose
    inputs require gradients are recorded. ``backward`` then replays the
    record in reverse, visiting each entry exactly once. A tape can be
    replayed only once.
    """

    def __init__(self):
        self._entries: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []
        self._output_ids: set[int] = set()
        self._used = False

    def __enter__(self) -> "GradientTape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _tape_stack or _tape_stack[-1] is not self:
            raise RuntimeError("gradient tape stack corrupted")
        _tape_stack.pop()

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, inputs: tuple[Tensor, ...], out: Tensor, rule: Callable) -> None:
        self._entries.append((inputs, out, rule))
        self._output_ids.add(id(out))


def _emit(inputs: tuple[Tensor, ...], arr: np.ndarray, rule: Callable) -> Tensor:
    """Wrap an op result, recording it on the active tape when grads flow."""
    out = _wrap(arr)
    if _tape_stack and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape_stack[-1]._record(inputs, out, rule)
    return out


def backward(loss: Tensor, tape: GradientTape) -> None:
    """Replay the tape in reverse from a scalar loss, populating leaf grads.

    Every requires_grad leaf reachable from the loss ends up with ``grad``
    set (accumulated on top of any existing value). Parameter values are not
    touched. A second replay of the same tape raises.
    """
    if loss.data.shape not in ((), (1,)):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if id(loss) not in tape._output_ids:
        raise ValueError("loss tensor was not produced on this tape")
    if tape._used:
        raise RuntimeError("tape already replayed; record a fresh tape")
    tape._used = True

    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    output_ids = tape._output_ids
    for inputs, out, rule in reversed(tape._entries):
        g = flowing.pop(id(out), None)
        if g is None:
            continue  # branch not contributing to this loss
        for t, gt in zip(inputs, rule(g)):
            if gt is None or not t.requires_grad:
                continue
            key = id(t)
            if key in output_ids:
                acc = flowing.get(key)
                flowing[key] = gt if acc is None else acc + gt
            else:
                t.grad = gt if t.grad is None else t.grad + gt


def _check_same_dtype(*tensors: Tensor) -> np.dtype:
    d = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != d:
            raise TypeError(f"mixed tensor dtypes: {d} vs {t.data.dtype}")
    return d


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return shape == () or shape == (1,)


def _check_matrix_or_stack(x: Tensor, op: str) -> None:
    if x.data.ndim < 2:
        raise ValueError(f"{op} expects a matrix or a stack of matrices, got shape {x.data.shape}")


def _swap_last(a: np.ndarray) -> np.ndarray:
    # a transposed view of every matrix in a stack (plain .T for 2-D)
    return np.swapaxes(a, -1, -2)


def _sum_slices(c: np.ndarray) -> np.ndarray:
    """((c[0] + c[1]) + c[2]) + ..., whole slices added one after another."""
    # add.reduce over the leading axis does exactly this, except when each
    # slice is one element: numpy then sums the run pairwise, so take the
    # last running total instead
    return np.cumsum(c, axis=0)[-1] if c[0].size == 1 else np.add.reduce(c, axis=0)


def _fold(c: np.ndarray) -> np.ndarray:
    """Per-sentence gradients c[b] of a shared parameter, folded in tape
    order: ((c[B-1] + c[B-2]) + ...) + c[0]."""
    return _sum_slices(c[::-1])


def _scalar_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of a scalar added to (or, with g pre-multiplied, scaling)
    every element: the sum of g, per sentence and folded when g has a
    leading batch axis in front of a matrix."""
    if g.ndim >= 3:
        return _fold(g.reshape(g.shape[0], -1).sum(axis=1)).reshape(shape)
    return g.sum().reshape(shape)


# Largest stack of per-sentence weight gradients held at once, in elements.
_FOLD_BLOCK = 1 << 22


def _fold_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a weight that every sentence of a (B, n, k) input ``a``
    multiplies: the per-sentence a[b]^T g[b], folded as ``_fold`` does. The
    products are formed a block of sentences at a time, last sentence first;
    each later block carries the running total in its first slot."""
    a, g = a[::-1], g[::-1]
    per = max(1, _FOLD_BLOCK // (a.shape[-1] * g.shape[-1]))
    total = None
    for lo in range(0, a.shape[0], per):
        part = _swap_last(a[lo : lo + per]) @ g[lo : lo + per]
        if total is not None:
            part = np.concatenate([total[None], part])
        total = _sum_slices(part)
    return total


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors; slice by slice of two stacks with
    the same leading axes; or of each sentence of a (B, n, k) batch with
    one shared (k, m) weight."""
    _check_same_dtype(a, b)
    ash, bsh = a.data.shape, b.data.shape
    shared = len(ash) == 3 and len(bsh) == 2
    if (
        len(ash) < 2
        or not (len(ash) == len(bsh) or shared)
        or (not shared and ash[:-2] != bsh[:-2])
        or ash[-1] != bsh[-2]
    ):
        raise ValueError(f"matmul shape mismatch: {ash} x {bsh}")
    ad, bd = a.data, b.data

    def rule(g):
        gb = _fold_weight_grad(ad, g) if shared else _swap_last(ad) @ g
        return g @ _swap_last(bd), gb

    return _emit((a, b), ad @ bd, rule)


def transpose(x: Tensor) -> Tensor:
    """Matrix transpose, applied to each matrix of a stack."""
    _check_matrix_or_stack(x, "transpose")

    def rule(g):
        return (_swap_last(g),)

    return _emit((x,), _swap_last(x.data).copy(), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. Besides equal shapes, supports adding a length-n bias
    vector to each row of an (m, n) tensor or of each sentence of a
    (B, m, n) batch, adding one (m, n) tensor to each sentence of a batch,
    and adding a scalar tensor."""
    _check_same_dtype(a, b)
    ash, bsh = a.data.shape, b.data.shape
    if ash == bsh:
        rule = lambda g: (g, g)
    elif _is_scalar_shape(bsh):
        rule = lambda g: (g, _scalar_grad(g, bsh))
    elif _is_scalar_shape(ash):
        rule = lambda g: (_scalar_grad(g, ash), g)
    elif len(ash) == 2 and len(bsh) == 1 and ash[1] == bsh[0]:
        rule = lambda g: (g, g.sum(axis=0))
    elif len(ash) == 3 and len(bsh) == 1 and ash[2] == bsh[0]:
        rule = lambda g: (g, _fold(g.sum(axis=1)) if b.requires_grad else None)
    elif len(ash) == 3 and bsh == ash[1:]:
        rule = lambda g: (g, _fold(g) if b.requires_grad else None)
    else:
        raise ValueError(f"add shape mismatch: {ash} + {bsh}")
    return _emit((a, b), a.data + b.data, rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a scalar tensor."""
    _check_same_dtype(a, b)
    ash, bsh = a.data.shape, b.data.shape
    ad, bd = a.data, b.data
    if ash == bsh:
        rule = lambda g: (g * bd, g * ad)
    elif _is_scalar_shape(bsh):
        rule = lambda g: (g * bd, _scalar_grad(g * ad, bsh))
    elif _is_scalar_shape(ash):
        rule = lambda g: (_scalar_grad(g * bd, ash), g * ad)
    else:
        raise ValueError(f"mul shape mismatch: {ash} * {bsh}")
    return _emit((a, b), ad * bd, rule)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a Python constant."""
    cv = x.data.dtype.type(c)

    def rule(g):
        return (g * cv,)

    return _emit((x,), x.data * cv, rule)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    mask = x.data > 0

    def rule(g):
        return (g * mask,)

    return _emit((x,), np.where(mask, x.data, x.data.dtype.type(0)), rule)


def _softmax_values(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array, stabilized by row-max
    subtraction: the values of ``softmax_rows``."""
    # the ufunc reductions that ndarray.max and ndarray.sum call, minus their Python wrappers
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor or of each matrix of a stack,
    stabilized by row-max subtraction."""
    _check_matrix_or_stack(x, "softmax_rows")
    s = _softmax_values(x.data)

    def rule(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _emit((x,), s, rule)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements in index order, as a scalar tensor: a running
    total, so a batch's per-sentence losses add up exactly as when added one
    sentence at a time."""
    shape = x.data.shape
    flat = x.data.reshape(-1)

    def rule(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit((x,), np.cumsum(flat)[-1] if flat.size else flat.dtype.type(0), rule)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape matrices, or equal-shape batches of matrices, along
    a new (head) axis in front of the last two: (..., rows, cols) parts give
    (..., len(parts), rows, cols)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("stack needs at least one tensor")
    _check_same_dtype(*parts)
    shape = parts[0].data.shape
    if len(shape) < 2 or any(p.data.shape != shape for p in parts):
        raise ValueError(f"stack needs equal shapes of 2 or more axes, got {[p.data.shape for p in parts]}")

    def rule(g):
        return tuple(g[..., i, :, :] for i in range(len(parts)))

    return _emit(parts, np.stack([p.data for p in parts], axis=-3), rule)


def merge_heads(x: Tensor) -> Tensor:
    """(..., heads, rows, width) -> (..., rows, heads * width): head i's
    matrix becomes columns i*width .. (i+1)*width - 1, as in the multi-head
    concatenation."""
    if x.data.ndim < 3:
        raise ValueError(f"merge_heads expects a (..., heads, rows, width) stack, got shape {x.data.shape}")
    *lead, h, n, w = x.data.shape

    def rule(g):
        return (np.ascontiguousarray(np.swapaxes(g.reshape(*lead, n, h, w), -3, -2)),)

    return _emit((x,), np.swapaxes(x.data, -3, -2).reshape(*lead, n, h * w), rule)


def pick_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table by integer index (embedding lookup); 1-D
    ids give (n, cols), a (B, n) batch of ids gives (B, n, cols)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim not in (1, 2) or table.data.ndim != 2:
        raise ValueError("pick_rows expects a 2-D table and 1-D or (batch, n) indices")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(f"row index out of range for table with {table.data.shape[0]} rows")
    td = table.data

    def rule(g):
        dt = np.zeros_like(td)
        if idx.ndim == 1:
            np.add.at(dt, idx, g)
            return (dt,)
        # per-sentence row sums over the rows the batch uses, then the fold
        rows, where = np.unique(idx, return_inverse=True)
        per = np.zeros((idx.shape[0], rows.size, td.shape[1]), dtype=td.dtype)
        np.add.at(per, (np.arange(idx.shape[0])[:, None], where.reshape(idx.shape)), g)
        dt[rows] = _fold(per)
        return (dt,)

    return _emit((table,), td[idx], rule)


def masked_fill(x: Tensor, keep, fill: float) -> Tensor:
    """Replace positions where ``keep`` is False with ``fill`` (e.g. -inf).
    ``keep`` may be any shape that broadcasts to the tensor's, e.g. one
    (rows, cols) mask for every head of a stack."""
    keep = np.asarray(keep, dtype=bool)
    if keep.ndim > x.data.ndim or np.broadcast_shapes(keep.shape, x.data.shape) != x.data.shape:
        raise ValueError(f"mask shape {keep.shape} does not match tensor shape {x.data.shape}")

    def rule(g):
        return (g * keep,)

    return _emit((x,), np.where(keep, x.data, x.data.dtype.type(fill)), rule)


def _layernorm_values(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values of ``layernorm_rows`` on arrays: (y, xhat, std), with
    xhat each row normalized, std each row's sqrt(variance + eps) and
    y = xhat * gain + shift."""
    d = x.shape[-1]
    # add.reduce / d: ndarray.mean's own reduction and division, minus its slow Python wrapper
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(centered**2, axis=-1, keepdims=True) / d
    std = np.sqrt(var + x.dtype.type(LAYERNORM_EPS))
    xhat = centered / std
    return xhat * gain + shift, xhat, std


def layernorm_rows(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize each row of an (n, d) tensor or of each sentence of a
    (B, n, d) batch to zero mean / unit population variance (with
    ``LAYERNORM_EPS`` added to the variance), then apply an affine gain and
    shift over the feature axis."""
    _check_same_dtype(x, gain, shift)
    d = x.data.shape[-1]
    if x.data.ndim not in (2, 3) or gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ValueError(
            f"layernorm shapes: x {x.data.shape}, gain {gain.data.shape}, shift {shift.data.shape}"
        )
    y, xhat, std = _layernorm_values(x.data, gain.data, shift.data)
    gd = gain.data
    fold = _fold if x.data.ndim == 3 else (lambda c: c)

    def rule(g):
        dgain = fold((g * xhat).sum(axis=-2))
        dshift = fold(g.sum(axis=-2))
        dxhat = g * gd
        dx = (
            dxhat - dxhat.sum(axis=-1, keepdims=True) / d - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        ) / std
        return dx, dgain, dshift

    return _emit((x, gain, shift), y, rule)


def masked_cross_entropy(logits: Tensor, targets, active) -> Tensor:
    """Mean token-level cross-entropy of ``logits`` rows against integer
    ``targets``, averaged over rows where ``active`` is True.

    (m, vocab) logits give a scalar; (B, m, vocab) logits give the (B,)
    vector of per-sentence means. Uses a stable log-softmax; raises if every
    position of a sentence is masked out.
    """
    if logits.data.ndim not in (2, 3):
        raise ValueError(f"logits must be 2-D or (batch, rows, vocab), got shape {logits.data.shape}")
    *rows_shape, v = logits.data.shape
    tgt = np.asarray(targets, dtype=np.int64)
    act = np.asarray(active, dtype=bool)
    if tgt.shape != tuple(rows_shape) or act.shape != tuple(rows_shape):
        raise ValueError(f"targets/mask must have shape {tuple(rows_shape)}")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise ValueError(f"target id out of range for vocabulary of {v}")
    z = logits.data
    n_active = act.sum(axis=-1).astype(z.dtype)
    if not n_active.all():
        raise ValueError("cross-entropy over a fully masked target")

    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    se = e.sum(axis=-1, keepdims=True)
    logp = (z - zmax) - np.log(se)
    nll = -np.take_along_axis(logp, tgt[..., None], axis=-1)[..., 0]
    value = (nll * act).sum(axis=-1) / n_active

    def rule(g):
        dz = e / se
        dz[np.arange(v) == tgt[..., None]] -= 1.0
        dz *= act[..., None] / n_active[..., None, None]
        return (dz * g[..., None, None],)

    return _emit((logits,), np.asarray(value, dtype=z.dtype), rule)


def gated_heads(terms: Sequence[tuple[Sequence[Tensor], np.ndarray]]) -> Tensor:
    """Sum over ``terms`` of gains[h] * table[..., h, :, :]: per-head scalar
    gains times constant tables shaped (..., heads, rows, cols), where a
    table's head axis may be 1 and shared by every head.

    With a leading batch axis each gain's gradient is its per-sentence sum,
    folded in tape order.
    """
    gains = tuple(g for gs, _ in terms for g in gs)
    dtype = _check_same_dtype(*gains)
    if any(g.data.shape != () for g in gains):
        raise ValueError("gated_heads takes scalar gains")
    heads = len(terms[0][0])
    out = None
    for gs, table in terms:
        if len(gs) != heads or table.ndim < 3 or table.shape[-3] not in (1, heads):
            raise ValueError(f"{len(gs)} gains for a table of shape {table.shape}, expected {heads} heads")
        vec = np.array([g.data for g in gs], dtype=dtype).reshape(heads, 1, 1)
        term = vec * table
        out = term if out is None else out + term

    def rule(g):
        grads = []
        for _, table in terms:
            per = (g * table).reshape(*g.shape[:-2], -1).sum(axis=-1)
            grads.extend(_fold(per) if per.ndim == 2 else per)
        return tuple(grads)

    return _emit(gains, out, rule)


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
