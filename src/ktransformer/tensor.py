"""Dense float tensors with reverse-mode autodiff on an explicit gradient tape.

Everything is numpy-backed and deliberately small: scalars, vectors and
(rows, cols) matrices, optionally behind leading axes (a batch of sentences,
then heads), and just enough operations for an encoder-decoder training loop
(matmul, add, mul, scale, embedding lookup, masked cross-entropy, gated
cluster-bias heads). The attention, feed-forward and residual layer-norm
blocks are ops too, one tape entry each, defined in ``layers`` on the
helpers here. Every op computes each sentence and head of a stack with the
same numpy/BLAS call as a lone 2-D matrix, so batching never changes a
float. A parameter shared by the sentences of a batch (a 2-D
weight, a row bias, a layer-norm gain or shift, an embedding table, a gate
scalar) gets its gradient per sentence, folded last sentence first,
((c[B-1] + c[B-2]) + ...) + c[0]: for a parameter that enters each
sentence's computation once, the order in which a tape that ran the
sentences one after another accumulates it. A tape may hold a carry, which
hands the fold totals of its backward sweep between two processes that each
hold part of a batch, so the split batch folds to the same bytes. Default
element type is float32.

An op's rule maps the gradient of its output to one gradient per input,
which ``backward`` adds onto the input's running gradient. A block op, one
tape entry that stands for a chain of simpler ops, can hand an input several
terms instead: ``Terms`` around a stack of arrays in the order in which the
chain's own rules would hand them over, behind a free first slot for the
running gradient. ``backward`` adds them one after another, so the input's
gradient holds the bytes it holds when the chain is taped op by op.

Gradient arrays produced by ``backward`` are shared between tensors and must
be treated as immutable; replace ``t.grad`` instead of mutating it in place.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)
_SUPPORTED = (F32, F64)

_PRECISIONS = {"f32": F32, "f64": F64}

# added to each row's variance in ``_layernorm_values``
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
_sweep_carry = None  # the carry of the tape ``backward`` is replaying, if any


class GradientTape:
    """Ordered record of executed operations for one reverse sweep.

    Used as a context manager; operations executed inside the block whose
    inputs require gradients are recorded. ``backward`` then replays the
    record in reverse, visiting each entry exactly once and dropping it
    after its rule has run. A tape can be replayed only once.

    ``carry``, when given, hands the sweep's folds over between the two
    processes of a batch split in two, through ``take(shape)`` and
    ``give(total)``. The process that runs the batch's last sentences folds
    each shared parameter's gradient over them and gives the total on; the
    one that runs the first sentences takes it and starts its fold from it
    in the first slot, where the fold over the whole batch holds the running
    total at that point. Both sweeps fold the same parameters in the same
    tape order, so every float is the one-process fold's. A side's ``take``
    returns None when it has nothing to start from, and its ``give`` may
    drop the total.
    """

    def __init__(self, carry=None):
        self._entries: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []
        self._output_ids: set[int] = set()
        self._used = False
        self.carry = carry

    def __enter__(self) -> "GradientTape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _tape_stack or _tape_stack[-1] is not self:
            raise RuntimeError("gradient tape stack corrupted")
        _tape_stack.pop()

    def __len__(self) -> int:
        # the entries recorded, also after ``backward`` has dropped them: each
        # entry's output stays alive while the record does, so no id repeats
        return len(self._output_ids)

    def _record(self, inputs: tuple[Tensor, ...], out: Tensor, rule: Callable) -> None:
        self._entries.append((inputs, out, rule))
        self._output_ids.add(id(out))


def _carried(fold: Callable[[np.ndarray | None], np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """``fold(first)``, with ``first`` the total that the carry of the sweep
    in progress takes (None without one), and its result given on; the
    result is a new array, as the carry may reuse ``first``'s memory."""
    carry = _sweep_carry
    if carry is None:
        return fold(None)
    total = fold(carry.take(shape))
    carry.give(total)
    return total


class Terms:
    """Gradient terms of one input of a block op, ``slots[1:]``, in the
    order in which ``backward`` adds them onto that input's gradient;
    ``slots[0]`` is free for the running gradient they are added to."""

    __slots__ = ("slots",)

    def __init__(self, slots: np.ndarray):
        self.slots = slots

    def onto(self, acc: np.ndarray | None) -> np.ndarray:
        """((acc + t[0]) + t[1]) + ..., or the terms' own sum without acc."""
        if acc is None:
            return _sum_slices(self.slots[1:])
        self.slots[0] = acc
        return _sum_slices(self.slots)


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
    set (accumulated on top of any existing value); an input's ``Terms``
    are added one after another. Parameter values are not touched. A
    second replay of the same tape raises. The tape's carry, if it has one,
    hands over the folds of this sweep and of no other.

    The sweep drops the tape's record as it goes, each entry once its rule
    has run, so the activations and rule closures that only the tape held
    are freed by the time ``backward`` returns; a rule that raises leaves
    no unswept entry behind either. ``len(tape)`` still counts the entries
    recorded.
    """
    if loss.data.shape not in ((), (1,)):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if id(loss) not in tape._output_ids:
        raise ValueError("loss tensor was not produced on this tape")
    if tape._used:
        raise RuntimeError("tape already replayed; record a fresh tape")
    tape._used = True

    global _sweep_carry
    _sweep_carry = tape.carry
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    output_ids = tape._output_ids
    entries, tape._entries = tape._entries, []
    try:
        while entries:
            inputs, out, rule = entries.pop()
            g = flowing.pop(id(out), None)
            if g is None:
                continue  # branch not contributing to this loss
            for t, gt in zip(inputs, rule(g)):
                if gt is None or not t.requires_grad:
                    continue
                key = id(t)
                inner = key in output_ids
                acc = flowing.get(key) if inner else t.grad
                if type(gt) is Terms:
                    acc = gt.onto(acc)
                else:
                    acc = gt if acc is None else acc + gt
                if inner:
                    flowing[key] = acc
                else:
                    t.grad = acc
    finally:
        _sweep_carry = None
        entries.clear()


def _check_same_dtype(*tensors: Tensor) -> np.dtype:
    d = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != d:
            raise TypeError(f"mixed tensor dtypes: {d} vs {t.data.dtype}")
    return d


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return shape == () or shape == (1,)


def _swap_last(a: np.ndarray) -> np.ndarray:
    # a transposed view of every matrix in a stack (plain .T for 2-D)
    return np.swapaxes(a, -1, -2)


def _sum_slices(c: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """((c[0] + c[1]) + c[2]) + ..., whole slices added one after another,
    after a running total ``first`` when one is given."""
    if first is not None:
        c = np.concatenate([first[None], c])
    # add.reduce over the leading axis does exactly this, except when each
    # slice is one element: numpy then sums the run pairwise, so take the
    # last running total instead
    return np.cumsum(c, axis=0)[-1] if c[0].size == 1 else np.add.reduce(c, axis=0)


def _fold(c: np.ndarray) -> np.ndarray:
    """Per-sentence gradients c[b] of a shared parameter, folded in tape
    order: ((c[B-1] + c[B-2]) + ...) + c[0], after any carried total."""

    return _carried(lambda first: _sum_slices(c[::-1], first), c.shape[1:])


def _scalar_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of a scalar added to (or, with g pre-multiplied, scaling)
    every element: the sum of g, per sentence and folded when g has a
    leading batch axis in front of a matrix."""
    if g.ndim >= 3:
        return _fold(g.reshape(g.shape[0], -1).sum(axis=1)).reshape(shape)
    return g.sum().reshape(shape)


# Largest stack of per-sentence weight gradients held at once, in elements.
_FOLD_BLOCK = 1 << 22


def _fold_weight_grads(a: np.ndarray, gs: Sequence[np.ndarray]) -> np.ndarray:
    """Gradients of weights that every sentence of a (B, n, k) input ``a``
    multiplies, one per (B, ..., n, m) stack of ``gs``: the per-sentence
    a[b]^T g[b] of every g (broadcast over g's middle axes), folded as
    ``_fold`` does, (len(gs), ..., k, m). Each g is one batched matmul. The
    products are formed a block of sentences at a time, last sentence
    first, each block behind a first slot that holds the running total: a
    carried total or an earlier block's. For one (n, k) sentence ``a`` and
    (..., n, m) stacks the products are the gradients; nothing is folded."""
    if a.ndim == 2:
        out = np.empty((len(gs), *gs[0].shape[:-2], a.shape[-1], gs[0].shape[-1]), dtype=a.dtype)
        for j, g in enumerate(gs):
            np.matmul(_swap_last(a), g, out=out[j])
        return out
    a, gs = a[::-1], [g[::-1] for g in gs]
    mid, k, m = gs[0].shape[1:-2], a.shape[-1], gs[0].shape[-1]
    at = _swap_last(a)[(slice(None),) + (None,) * len(mid)]
    shape = (len(gs), *mid, k, m)
    per = max(1, _FOLD_BLOCK // math.prod(shape))

    def fold(total):
        for lo in range(0, a.shape[0], per):
            hi = min(lo + per, a.shape[0])
            slots = np.empty((1 + hi - lo, *shape), dtype=a.dtype)
            for j, g in enumerate(gs):
                np.matmul(at[lo:hi], g[lo:hi], out=slots[1:, j])
            if total is None:
                total = _sum_slices(slots[1:])
            else:
                slots[0] = total
                total = _sum_slices(slots)
        return total

    return _carried(fold, shape)


def _fold_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``_fold_weight_grads`` of one ``g``: (k, m)."""
    return _fold_weight_grads(a, [g])[0]


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


def _softmax_values(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array, stabilized by row-max
    subtraction."""
    # the ufunc reductions that ndarray.max and ndarray.sum call, minus their Python wrappers
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements in index order, as a scalar tensor: a running
    total, so a batch's per-sentence losses add up exactly as when added one
    sentence at a time."""
    shape = x.data.shape
    flat = x.data.reshape(-1)

    def rule(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit((x,), np.cumsum(flat)[-1] if flat.size else flat.dtype.type(0), rule)


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
        if idx.ndim == 1:
            dt = np.zeros_like(td)
            np.add.at(dt, idx, g)
            return (dt,)
        # per-sentence row sums over the rows the batch uses, then their
        # fold: a row the batch does not use keeps what the fold carried in
        # (+0.0 for each of these sentences would change no bit of it)
        rows, where = np.unique(idx, return_inverse=True)
        per = np.zeros((idx.shape[0], rows.size, td.shape[1]), dtype=td.dtype)
        np.add.at(per, (np.arange(idx.shape[0])[:, None], where.reshape(idx.shape)), g)

        def fold(first):
            dt = np.zeros_like(td) if first is None else first.copy()
            dt[rows] = _sum_slices(per[::-1], None if first is None else first[rows])
            return dt

        return (_carried(fold, td.shape),)

    return _emit((table,), td[idx], rule)


def _layernorm_values(x: np.ndarray, gain: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of each row of an array: (y, xhat, std), with xhat each
    row normalized to zero mean and unit population variance (with
    ``LAYERNORM_EPS`` added to the variance), std each row's
    sqrt(variance + eps) and y = xhat * gain + shift."""
    d = x.shape[-1]
    # add.reduce / d: ndarray.mean's own reduction and division, minus its slow Python wrapper
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(centered**2, axis=-1, keepdims=True) / d
    std = np.sqrt(var + x.dtype.type(LAYERNORM_EPS))
    xhat = centered / std
    return xhat * gain + shift, xhat, std


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

