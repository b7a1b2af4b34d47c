"""Dense float tensors with reverse-mode autodiff on an explicit gradient tape.

Everything is numpy-backed and deliberately small: scalar, 1-D and 2-D arrays,
plus (heads, rows, cols) stacks for attention, and just enough operations for
an encoder-decoder attention stack and its training loop (matmul, row
softmax, layer norm, embedding lookup, masked cross-entropy). ``matmul``,
``transpose``, ``softmax_rows`` and ``masked_fill`` act on each head of a
stack exactly as on a lone 2-D matrix, so stacking heads never changes a
float. Default element type is float32; gradient checking runs in float64.

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


def dtype_of(precision: str) -> np.dtype:
    """Map a precision name ("f32" or "f64") to its numpy dtype."""
    try:
        return _PRECISIONS[precision]
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}; expected one of {sorted(_PRECISIONS)}") from None


class Tensor:
    """A dense row-major float array plus gradient metadata.

    ``grad`` is populated for requires_grad leaves by ``backward`` and
    accumulates across tapes until reset to None, which is what lets a
    training step sum gradients over the sentences of a batch.
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
    if x.data.ndim not in (2, 3):
        raise ValueError(f"{op} expects a 2-D tensor or a (heads, rows, cols) stack, got shape {x.data.shape}")


def _swap_last(a: np.ndarray) -> np.ndarray:
    # a transposed view of every matrix in a stack (plain .T for 2-D)
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, or head by head of two stacks with
    the same leading head axis."""
    _check_same_dtype(a, b)
    ash, bsh = a.data.shape, b.data.shape
    if len(ash) not in (2, 3) or len(ash) != len(bsh) or ash[:-2] != bsh[:-2] or ash[-1] != bsh[-2]:
        raise ValueError(f"matmul shape mismatch: {ash} x {bsh}")
    ad, bd = a.data, b.data

    def rule(g):
        return g @ _swap_last(bd), _swap_last(ad) @ g

    return _emit((a, b), ad @ bd, rule)


def transpose(x: Tensor) -> Tensor:
    """Matrix transpose, applied to each head of a stack."""
    _check_matrix_or_stack(x, "transpose")

    def rule(g):
        return (_swap_last(g),)

    return _emit((x,), _swap_last(x.data).copy(), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. Besides equal shapes, supports adding a length-n bias
    vector to each row of an (m, n) tensor, and adding a scalar tensor."""
    _check_same_dtype(a, b)
    ash, bsh = a.data.shape, b.data.shape
    if ash == bsh:
        rule = lambda g: (g, g)
    elif _is_scalar_shape(bsh):
        rule = lambda g: (g, g.sum().reshape(bsh))
    elif _is_scalar_shape(ash):
        rule = lambda g: (g.sum().reshape(ash), g)
    elif len(ash) == 2 and len(bsh) == 1 and ash[1] == bsh[0]:
        rule = lambda g: (g, g.sum(axis=0))
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
        rule = lambda g: (g * bd, (g * ad).sum().reshape(bsh))
    elif _is_scalar_shape(ash):
        rule = lambda g: ((g * bd).sum().reshape(ash), g * ad)
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


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor or of each head of a stack,
    stabilized by row-max subtraction."""
    _check_matrix_or_stack(x, "softmax_rows")
    z = x.data
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _emit((x,), s, rule)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    shape = x.data.shape

    def rule(g):
        return (np.broadcast_to(g, shape).copy(),)

    return _emit((x,), x.data.sum(), rule)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape 2-D tensors along a new leading (head) axis."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("stack needs at least one tensor")
    _check_same_dtype(*parts)
    shape = parts[0].data.shape
    if len(shape) != 2 or any(p.data.shape != shape for p in parts):
        raise ValueError(f"stack needs equal 2-D shapes, got {[p.data.shape for p in parts]}")

    def rule(g):
        return tuple(g)

    return _emit(parts, np.stack([p.data for p in parts]), rule)


def merge_heads(x: Tensor) -> Tensor:
    """(heads, rows, width) -> (rows, heads * width): head i's matrix becomes
    columns i*width .. (i+1)*width - 1, as in the multi-head concatenation."""
    if x.data.ndim != 3:
        raise ValueError(f"merge_heads expects a (heads, rows, width) stack, got shape {x.data.shape}")
    h, n, w = x.data.shape

    def rule(g):
        return (np.ascontiguousarray(g.reshape(n, h, w).transpose(1, 0, 2)),)

    return _emit((x,), x.data.transpose(1, 0, 2).reshape(n, h * w), rule)


def pick_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of a 2-D table by integer index (embedding lookup)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1 or table.data.ndim != 2:
        raise ValueError("pick_rows expects a 2-D table and 1-D indices")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(f"row index out of range for table with {table.data.shape[0]} rows")
    td = table.data

    def rule(g):
        dt = np.zeros_like(td)
        np.add.at(dt, idx, g)
        return (dt,)

    return _emit((table,), td[idx], rule)


def masked_fill(x: Tensor, keep, fill: float) -> Tensor:
    """Replace positions where ``keep`` is False with ``fill`` (e.g. -inf).
    A 2-D ``keep`` applies to every head of a (heads, rows, cols) stack."""
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != x.data.shape and not (x.data.ndim == 3 and keep.shape == x.data.shape[1:]):
        raise ValueError(f"mask shape {keep.shape} does not match tensor shape {x.data.shape}")

    def rule(g):
        return (g * keep,)

    return _emit((x,), np.where(keep, x.data, x.data.dtype.type(fill)), rule)


def layernorm_rows(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit population variance, then apply
    an affine gain and shift over the feature axis."""
    _check_same_dtype(x, gain, shift)
    if x.data.ndim != 2 or gain.data.shape != (x.data.shape[1],) or shift.data.shape != (x.data.shape[1],):
        raise ValueError(
            f"layernorm shapes: x {x.data.shape}, gain {gain.data.shape}, shift {shift.data.shape}"
        )
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    n = x.data.shape[1]
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    std = np.sqrt(var + x.data.dtype.type(eps))
    xhat = (x.data - mu) / std
    gd = gain.data

    def rule(g):
        dgain = (g * xhat).sum(axis=0)
        dshift = g.sum(axis=0)
        dxhat = g * gd
        dx = (
            dxhat - dxhat.mean(axis=1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        ) / std
        return dx, dgain, dshift

    return _emit((x, gain, shift), xhat * gd + shift.data, rule)


def masked_cross_entropy(logits: Tensor, targets, active) -> Tensor:
    """Mean token-level cross-entropy of ``logits`` rows against integer
    ``targets``, averaged over rows where ``active`` is True.

    Uses a stable log-softmax; raises if every position is masked out.
    """
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.data.shape}")
    m, v = logits.data.shape
    tgt = np.asarray(targets, dtype=np.int64)
    act = np.asarray(active, dtype=bool)
    if tgt.shape != (m,) or act.shape != (m,):
        raise ValueError(f"targets/mask must have shape ({m},)")
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise ValueError(f"target id out of range for vocabulary of {v}")
    n_active = int(act.sum())
    if n_active == 0:
        raise ValueError("cross-entropy over a fully masked target")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    se = e.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(se)
    rows = np.arange(m)
    nll = -logp[rows, tgt]
    value = (nll * act).sum() / z.dtype.type(n_active)

    def rule(g):
        dz = e / se
        dz[rows, tgt] -= 1.0
        dz *= act[:, None] / z.dtype.type(n_active)
        return (dz * g,)

    return _emit((logits,), np.asarray(value, dtype=z.dtype), rule)


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
