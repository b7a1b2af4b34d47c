"""Training machinery: Adam with bias correction, global-norm gradient
clipping, the teacher-forced loop with periodic greedy-decoding validation,
and a self-contained binary checkpoint format.

On a host with two or more CPUs, ``train`` splits each large enough batch
with one forked helper process: the helper runs the batch's last sentences
and hands over its fold totals, in ``AdamState.flat_grads``, and its losses
through shared memory, with two kinds of event per step: ``F`` for each fold
total of its backward sweep and ``D`` once the sweep is over and its losses
are in place. Both processes' tapes hold the helper as their carry (see
``tensor.GradientTape``), so every float is the one a single process computes.

Checkpoint layout: an 8-byte magic, a little-endian u64 manifest length, the
JSON manifest that ``_manifest`` describes, then the row-major little-endian
buffers in ``_layout`` order. A manifest loads only if it equals what
``save_checkpoint`` would write for what was loaded, so round trips are
bit-exact (``save(load(f)) == f`` for a file it wrote) and independent of
host endianness.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import json
import math
import mmap
import os
import signal
import stat
import struct
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import PROFILES, ParallelCorpus, Vocabulary, decode, encode, make_batches
from .metrics import corpus_bleu
from .model import KTransformer, ModelConfig
from .tensor import GradientTape, Tensor, backward, dtype_of, scale, sum_all

CHECKPOINT_MAGIC = b"KTRX0001"
FORMAT_VERSION = 1

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# A batch is split with the helper process when its padded tokens times
# d_model reach this; below it the hand-off costs more than half a batch
# saves (the crossover measured on the benchmark and acceptance recipes).
SPLIT_MIN_WORK = 16384


class DivergenceError(Exception):
    """Training hit a non-finite loss or gradient."""


class CheckpointError(Exception):
    """Unreadable, corrupted, or incompatible checkpoint file."""


@dataclass
class TrainConfig:
    """Optimization schedule and bookkeeping knobs.

    The default learning rate is the desk-scale 3e-4; the configuration
    accepts any finite positive value for callers who want the literature's
    0.5. Adam's beta1, beta2 and eps are the constants ``ADAM_BETA1``,
    ``ADAM_BETA2`` and ``ADAM_EPS``.
    """

    out_dir: str | Path
    lr: float = 3e-4
    warmup_steps: int = 0
    max_steps: int = 100
    batch_size: int = 16
    val_interval: int = 0
    grad_clip: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr}")
        if self.max_steps < 0 or self.warmup_steps < 0 or self.val_interval < 0:
            raise ValueError("step counts must be nonnegative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ValueError(f"grad_clip must be finite and nonnegative (0 disables clipping), got {self.grad_clip}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


class AdamState:
    """First/second moment buffers, the learning rate and the shared step
    counter; beta1, beta2 and eps are the module's ``ADAM_*`` constants.

    The state owns one flat buffer each for the parameters, their gradients,
    m and v (``flat_params``, ``flat_grads``, ``flat_m``, ``flat_v``), laid
    out in ``params`` order (tensor i at ``[bounds[i], bounds[i + 1])``),
    in the parameters' one dtype; no other parameter-sized buffer stays.
    ``m``, ``v`` and ``grad_views`` map names to views into them. The
    parameters and gradients are anonymous shared memory, which a forked
    process shares; from construction on each parameter's ``data`` is its
    view in ``param_views``, holding the value it had: a model's parameters
    are copied out of its own buffer (``KTransformer.parameter_buffer``),
    which the model no longer uses. A split step's helper writes its fold
    totals into ``flat_grads`` before ``adam_step`` fills it (``_Helper``)."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4):
        # lr 0 is allowed here and makes the update an identity; TrainConfig
        # is the layer that insists on a positive rate.
        if not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
        kinds = {p.data.dtype.type for p in params.values()}
        if len(kinds) > 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(k.__name__ for k in kinds)}")
        dtype = kinds.pop() if kinds else np.float64
        self.lr = lr
        self.t = 0
        self.bounds = bounds = np.cumsum([0] + [p.data.size for p in params.values()]).tolist()
        self.flat_params, self.flat_grads = (_shared_zeros(bounds[-1], np.dtype(dtype)) for _ in range(2))
        self.flat_m, self.flat_v = (np.zeros(bounds[-1], dtype=dtype) for _ in range(2))

        def views(flat: np.ndarray) -> dict[str, np.ndarray]:
            return {
                name: flat[lo:hi].reshape(p.data.shape)
                for (name, p), lo, hi in zip(params.items(), bounds, bounds[1:])
            }

        self.m, self.v = views(self.flat_m), views(self.flat_v)
        self.param_views, self.grad_views = views(self.flat_params), views(self.flat_grads)
        for name, view in self.param_views.items():
            view[...] = params[name].data
            params[name].data = view


def _shared_zeros(n: int, dtype: np.dtype) -> np.ndarray:
    """n zeros of ``dtype`` in anonymous shared memory: a process forked
    later reads and writes the same bytes."""
    return np.frombuffer(mmap.mmap(-1, max(1, n * dtype.itemsize)), dtype=dtype, count=n)


def clip_global_norm(flat: np.ndarray, bounds: list[int], cap: float) -> float:
    """Scale ``flat``, which holds tensor i at ``[bounds[i], bounds[i + 1])``,
    in place by cap/norm when its global L2 norm exceeds cap (a cap of 0
    disables clipping); returns the pre-clip norm, each tensor's float64 sum
    of squares taken over its own slice and added in order. Direction is
    preserved: the result is a nonnegative multiple of the input, and a norm
    that is not finite (a non-finite element, an overflow) leaves it as is."""
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow is the infinite norm it gives
        for lo, hi in zip(bounds, bounds[1:]):
            total += float(np.square(flat[lo:hi], dtype=np.float64).sum())
    norm = math.sqrt(total)
    if 0 < cap < norm < math.inf:
        flat *= cap / norm
    return norm


def adam_step(params: dict[str, Tensor], state: AdamState, lr_scale: float = 1.0, grad_clip: float = 0.0) -> float:
    """One bias-corrected Adam update of the parameters' ``grad``, in place
    on the state's flat buffers; returns the gradients' pre-clip global norm.

    Each parameter's ``data`` is its view into ``state.flat_params``; a
    tensor whose ``data`` was rebound since is copied in first. Each
    ``grad`` is copied into its slot of ``state.flat_grads`` (zeros where it
    is None), cast to the parameters' dtype, and reset to None. The buffer is
    then clipped to ``grad_clip`` (``clip_global_norm``; 0 disables it). Any
    non-finite gradient or pre-clip norm rejects the whole step (raises
    before touching parameters or moments). ``lr_scale`` carries the warmup
    multiplier. Each element goes through the per-tensor update's operations
    in their order, so the floats do not depend on the layout. A SIGINT that
    arrives from the step counter's increment through the parameters'
    update is held until the update is done (``_interrupt_held``), so its
    ``KeyboardInterrupt`` leaves a whole step behind, never a torn one.
    """
    if params.keys() != state.param_views.keys():
        raise ValueError("parameter names do not match the optimizer state")
    for name, view in state.param_views.items():
        p = params[name]
        if p.data is not view:
            if p.data.shape != view.shape:
                raise ValueError(f"parameter {name!r} has shape {p.data.shape}, the optimizer state {view.shape}")
            view[...] = p.data
            p.data = view
        if p.grad is not None and p.grad.shape != view.shape:
            raise ValueError(f"gradient shape {p.grad.shape} for {name!r} does not match {view.shape}")
        state.grad_views[name][...] = 0 if p.grad is None else p.grad
        p.grad = None
    g = state.flat_grads
    norm = clip_global_norm(g, state.bounds, grad_clip)
    if not (math.isfinite(norm) and np.isfinite(g).all()):
        name = next((name for name, view in state.grad_views.items() if not np.isfinite(view).all()), None)
        what = "gradient norm overflowed" if name is None else f"non-finite gradient for {name!r}"
        raise DivergenceError(f"{what}; step rejected")
    with _interrupt_held():
        state.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** state.t
        bc2 = 1.0 - ADAM_BETA2 ** state.t
        lr = state.lr * float(lr_scale)  # a numpy scalar would promote f32 parameters
        m, v, s = state.flat_m, state.flat_v, np.empty_like(g)  # s: scratch, from what the step's tape freed
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        v *= ADAM_BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - ADAM_BETA2
        v += s
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), the gradient buffer holding the step
        np.sqrt(np.divide(v, bc2, out=s), out=s)
        s += ADAM_EPS
        step = np.divide(m, bc1, out=g)
        step *= lr
        step /= s
        state.flat_params -= step
    return norm


@contextlib.contextmanager
def _interrupt_held():
    """Hold a SIGINT that arrives inside the block until the block is done,
    then raise it again, so that its ``KeyboardInterrupt`` cannot stop the
    block halfway. The handler is swapped for one that records the signal:
    a signal mask would not do, as the kernel hands a signal that the main
    thread blocks to another thread, such as a BLAS worker, and Python then
    runs its handler in the main thread all the same. Only the main thread
    can set a handler; elsewhere, or where the handler in force was not set
    from Python, the block runs as it is."""
    previous = signal.getsignal(signal.SIGINT)
    if threading.current_thread() is not threading.main_thread() or previous is None:
        yield
        return
    caught = []
    signal.signal(signal.SIGINT, lambda signum, frame: caught.append(signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        if caught:
            signal.raise_signal(signal.SIGINT)


def _dtype_code(dtype: np.dtype) -> str:
    # classify by kind and width so a non-native byte order still serializes
    if dtype.kind != "f" or dtype.itemsize not in (4, 8):
        raise CheckpointError(f"unsupported dtype {dtype}")
    return f"<f{dtype.itemsize}"


def _layout(params: dict[str, Tensor], state: AdamState | None) -> list[tuple[str, np.ndarray]]:
    """The (buffer name, array) pairs in file order: the parameters, then
    Adam's ``m.*`` and ``v.*`` moments when there is optimizer state."""
    layout = [(name, p.data) for name, p in params.items()]
    if state is not None:
        layout += [(f"{kind}.{name}", bank[name]) for kind, bank in (("m", state.m), ("v", state.v)) for name in params]
    return layout


@dataclass
class LoadedCheckpoint:
    """What a checkpoint holds: ``save_checkpoint``'s input, ``load_checkpoint``'s result."""

    model: KTransformer
    state: AdamState | None
    vocab_src: Vocabulary | None
    vocab_tgt: Vocabulary | None
    profile_src: str | None
    profile_tgt: str | None


def _manifest(c: LoadedCheckpoint, params: dict[str, Tensor], buffer_sha256: str) -> dict:
    """The one description of the format: the manifest that ``save_checkpoint``
    writes for ``c``, whose model has ``params``, and the only one that
    ``load_checkpoint`` accepts for what it loaded."""
    entries, offset = [], 0
    for name, arr in _layout(params, c.state):
        code = _dtype_code(arr.dtype)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": code, "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    hyper = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}
    adam = None if c.state is None else {"t": c.state.t, "lr": c.state.lr, **hyper, "moments": entries[len(params) :]}
    return {
        "format_version": FORMAT_VERSION,
        "model_config": c.model.config.to_dict(),
        "params": entries[: len(params)],
        "adam": adam,
        "vocab_src": c.vocab_src.regular_tokens() if c.vocab_src is not None else None,
        "vocab_tgt": c.vocab_tgt.regular_tokens() if c.vocab_tgt is not None else None,
        "profile_src": c.profile_src,
        "profile_tgt": c.profile_tgt,
        "buffer_sha256": buffer_sha256,
    }


def save_checkpoint(
    model: KTransformer,
    path: str | Path,
    state: AdamState | None = None,
    vocab_src: Vocabulary | None = None,
    vocab_tgt: Vocabulary | None = None,
    profile_src: str | None = None,
    profile_tgt: str | None = None,
) -> None:
    """Serialize model (and optionally optimizer state and vocabularies).

    Each buffer goes to the hash and to the file as it is, without a copy
    of the payload, unless it has to be made C-contiguous little-endian
    first. The file is written beside ``path`` as ``<name>.tmp`` and moved
    onto it; if either fails, the temporary file is removed and an earlier
    file at ``path`` stays as it was."""
    params = model.parameters()
    contents = LoadedCheckpoint(model, state, vocab_src, vocab_tgt, profile_src, profile_tgt)
    # views of the stored arrays, except where the order or byte order differs
    buffers = [np.ascontiguousarray(arr, dtype=_dtype_code(arr.dtype)) for _, arr in _layout(params, state)]
    digest = hashlib.sha256()
    for buf in buffers:
        digest.update(buf)
    manifest = _manifest(contents, params, digest.hexdigest())
    blob = json.dumps(manifest, ensure_ascii=False, sort_keys=True).encode("utf-8")
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for buf in buffers:
                f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _first_difference(stored, expected, path: str) -> str | None:
    """The path of the first value in which ``stored`` differs from
    ``expected``, such as ``manifest.adam.moments[3] ('m.tgt_embed').shape``;
    None if there is none."""
    if isinstance(stored, dict) and isinstance(expected, dict):
        if stored.keys() != expected.keys():
            return f"{path}.{min(stored.keys() ^ expected.keys())}"
        parts = [(f"{path}.{k}", stored[k], expected[k]) for k in sorted(expected)]
    elif isinstance(stored, list) and isinstance(expected, list) and len(stored) == len(expected):
        names = [f" ({e['name']!r})" if isinstance(e, dict) else "" for e in expected]
        parts = [(f"{path}[{i}]{names[i]}", s, e) for i, (s, e) in enumerate(zip(stored, expected))]
    else:
        return None if stored == expected else path
    return next((d for p, s, e in parts if (d := _first_difference(s, e, p)) is not None), None)


def _embedded_vocab(manifest: dict, key: str, size: int) -> Vocabulary | None:
    """The manifest's vocabulary under ``key``, which must be valid and hold
    exactly the model's ``size`` ids; None when the checkpoint has none."""
    tokens = manifest.get(key)
    if tokens is None:
        return None
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointError(f"invalid {key} in checkpoint: not a list of token strings")
    try:
        vocab = Vocabulary(tokens)
    except ValueError as e:
        raise CheckpointError(f"invalid {key} in checkpoint: {e}") from e
    if len(vocab) != size:
        raise CheckpointError(f"{key} in checkpoint has {len(vocab)} ids, the model has {size}")
    return vocab


def _embedded_profile(manifest: dict, key: str) -> str | None:
    """The manifest's preprocessing profile under ``key``, which must be one
    of ``PROFILES``; None when the checkpoint has none."""
    profile = manifest.get(key)
    if profile is not None and profile not in PROFILES:
        raise CheckpointError(f"unknown {key} {profile!r} in checkpoint; expected one of {PROFILES}")
    return profile


def _read_exactly(f, buf, path) -> None:
    """Fill the writable, C-contiguous ``buf`` from the unbuffered file ``f``,
    read after read, as one read may return less than asked for; a file that
    ends first is truncated."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view):
        try:
            n = f.readinto(view[got:])
        except OSError as e:
            raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
        if not n:
            raise CheckpointError(f"checkpoint {path} is truncated")
        got += n


def _read_manifest(f, path) -> tuple[dict, int]:
    """Read the magic, the manifest length and the manifest from the start of
    the unbuffered file ``f`` and check them and the format version; returns
    the manifest and the payload's length that the file's size leaves."""
    info = os.fstat(f.fileno())
    if not stat.S_ISREG(info.st_mode):  # a pipe's size says nothing of what it holds
        raise CheckpointError(f"cannot read checkpoint {path}: not a regular file")
    header = len(CHECKPOINT_MAGIC) + 8
    if info.st_size < header:
        raise CheckpointError(f"checkpoint {path} is truncated")
    head = bytearray(header)
    _read_exactly(f, head, path)
    if head[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    (mlen,) = struct.unpack("<Q", head[len(CHECKPOINT_MAGIC) :])
    if header + mlen > info.st_size:
        raise CheckpointError(f"checkpoint {path} is truncated inside the manifest")
    blob = bytearray(mlen)
    _read_exactly(f, blob, path)
    try:
        manifest = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable checkpoint manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint manifest is not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # exact type, as True == 1
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r}, expected {FORMAT_VERSION}"
        )
    return manifest, info.st_size - header - mlen


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Rebuild model, optimizer state, and vocabularies from a checkpoint.

    Reads the header and the manifest and checks what it has to interpret
    (the magic, format version, model configuration, and the payload length
    that the configuration implies against the file's size, before anything
    is built; then the Adam step counter and learning rate). The payload is
    then read straight into the buffers it stays in: the model's
    (``KTransformer.parameter_buffer``), or, with Adam state,
    ``AdamState.flat_params``, ``flat_m`` and ``flat_v``, and hashed there,
    so a load holds it once. The file loads only if that hash and the
    manifest equal what ``save_checkpoint`` would write for what was loaded,
    and only if every parameter and Adam moment is finite; any truncation,
    corruption or mismatch is a ``CheckpointError``."""
    try:
        f = open(path, "rb", buffering=0)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    with f:
        manifest, payload = _read_manifest(f, path)
        try:
            config = ModelConfig.from_dict(manifest["model_config"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"invalid model configuration in checkpoint: {e}") from e
        # checked before anything is built, so no configuration can allocate more than the file holds
        adam = manifest.get("adam")
        banks = 1 if adam is None else 3  # the parameters, then Adam's m and v
        implied = config.parameter_count() * np.dtype(dtype_of(config.precision)).itemsize * banks
        if implied != payload:
            raise CheckpointError(f"checkpoint buffer holds {payload} bytes, its model configuration implies {implied}")
        try:
            model = KTransformer(config, draw_weights=False)
        except MemoryError as e:  # only a real out-of-memory: the file's length bounds the model's size
            raise CheckpointError(f"model configuration in checkpoint is too large to build: {e}") from e
        params = model.parameters()
        state = None
        if adam is not None:
            # exact types, as a bool is neither; a negative step would make a bias correction divide by zero
            t, lr = (adam.get("t"), adam.get("lr")) if isinstance(adam, dict) else (None, None)
            if not (type(t) is int and t >= 0 and type(lr) in (int, float)):
                raise CheckpointError("malformed optimizer state in checkpoint manifest")
            try:
                state = AdamState(params, lr=lr)
            except ValueError as e:
                raise CheckpointError(f"invalid optimizer state in checkpoint: {e}") from e
            state.t = t
        # every buffer has the model's dtype (AdamState insists on one) and holds the parameters in order
        buffers = [model.parameter_buffer()] if state is None else [state.flat_params, state.flat_m, state.flat_v]
        digest = hashlib.sha256()
        for buf in buffers:
            _read_exactly(f, buf, path)
            digest.update(buf)
    buffer_sha256 = digest.hexdigest()
    if buffer_sha256 != manifest.get("buffer_sha256"):
        raise CheckpointError("checkpoint buffer integrity check failed")
    if sys.byteorder != "little":  # the file's floats are little-endian
        for buf in buffers:
            buf.byteswap(inplace=True)

    vocabs = [_embedded_vocab(manifest, key, getattr(config, key)) for key in ("vocab_src", "vocab_tgt")]
    profiles = [_embedded_profile(manifest, key) for key in ("profile_src", "profile_tgt")]
    loaded = LoadedCheckpoint(model, state, *vocabs, *profiles)
    expected = _manifest(loaded, params, buffer_sha256)
    if manifest != expected:
        where = _first_difference(manifest, expected, "manifest")
        raise CheckpointError(f"checkpoint manifest is not what save_checkpoint writes for its contents: {where} differs")

    for bank, buf in enumerate(buffers):
        if not (np.isfinite(buf.min()) and np.isfinite(buf.max())):  # a NaN is both
            # the first non-finite value lies in the first tensor that holds one
            ends = np.cumsum([p.data.size for p in params.values()])
            i = int(np.searchsorted(ends, np.argmin(np.isfinite(buf)), side="right"))
            raise CheckpointError(f"non-finite values in {_layout(params, state)[bank * len(params) + i][0]!r}")
    return loaded


def corpus_greedy_bleu(
    model: KTransformer, corpus: ParallelCorpus, vocab_src: Vocabulary, vocab_tgt: Vocabulary
) -> float | None:
    """Greedy-decode every usable pair (output capped at the model's
    max_len) and score smoothed corpus BLEU against the raw reference
    tokens, so early-training curves are not pinned at zero by missing
    4-grams; None when no pair is usable."""
    usable = [
        (src, ref) for src, ref in corpus.pairs() if 1 <= len(src) <= model.config.max_len and len(ref) > 0
    ]
    if not usable:
        return None
    hyps = model.greedy_translate_batch([encode(src, vocab_src) for src, _ in usable])
    pairs = [(decode(hyp, vocab_tgt), list(ref)) for hyp, (_, ref) in zip(hyps, usable)]
    return corpus_bleu(pairs, smooth=True).score


@dataclass
class LogRow:
    """One training step: ``grad_norm`` is the pre-clip global L2 norm of its
    gradients, which ``train_log.csv`` does not hold."""

    step: int
    loss: float
    val_bleu: float | None
    wall_ms: float
    grad_norm: float


def _log_line(row: LogRow) -> str:
    val = "" if row.val_bleu is None else f"{row.val_bleu:.6f}"
    return f"{row.step},{row.loss:.6f},{val},{row.wall_ms:.3f}\n"


# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Have the C library's malloc keep the memory this process frees for
    reuse: blocks up to 32 MB come from the heap, whose free top goes back
    to the system only beyond 64 MB. A training step frees its tape at once,
    at the top of the heap, and by default glibc hands that back, so the
    next step faults every page of it in again (hundreds to about 1900
    minor faults per step at the benchmark's shapes). Process-wide and lasting; nothing
    happens where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say or
    cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _split_point(sentences: int, padded_tokens: int, d_model: int) -> int:
    """How many of a batch's first sentences the main process runs when a
    helper is there to take the rest: half, leaving the helper the larger
    half, or all of them for a batch of one or one too small to pay for the
    hand-off."""
    split = sentences >= 2 and padded_tokens * d_model >= SPLIT_MIN_WORK
    return sentences // 2 if split else sentences


def _taped_loss(model: KTransformer, batch, seed: int, step: int, rows: slice, carry=None):
    """One process's part of a training step: the taped per-sentence losses
    of the batch's ``rows``, with the step's dropout draws, and their sum from
    the first row times 1/B for the batch's B sentences, on a tape that holds
    ``carry``. Returns (tape, losses, loss)."""
    with GradientTape(carry) as tape:
        losses = model.sequence_loss(
            batch.src_ids,
            batch.tgt_ids,
            src_mask=batch.src_mask,
            tgt_mask=batch.tgt_mask,
            rng=np.random.default_rng([seed, step - 1]),
            rows=rows,
        )
        loss = scale(sum_all(losses), 1.0 / len(batch))
    return tape, losses, loss


class _Helper:
    """The one helper process of a ``train`` call and both ends of its
    hand-off: the carry that both processes' tapes hold for a split step.

    The helper is forked once, runs sentences [h, B) of every split batch
    and reports through anonymous shared memory and one byte per event on a
    pipe, two kinds of event per step: b"F" once each fold total of its
    backward sweep is in place, in tape order, and b"D" once its sweep is
    over and its losses are in place. The main process sends each split
    step's number down a second pipe, after it has written that step's
    parameters; the helper waits on a blocking read for it. In the main
    process this carry takes each fold's starting total from the helper
    (``take``); in the helper it gives them (``give``). The totals go into
    ``AdamState.flat_grads`` in tape order, the losses into a buffer of their
    own: the main process has taken every ``F`` and the ``D`` before
    ``adam_step`` writes the gradients there, and the helper writes again only
    after the next ``go``. Each fold returns a new array (``tensor._carried``),
    so no view of the buffer outlives its fold."""

    def __init__(self, totals: np.ndarray, batch_size: int):
        self.totals = totals
        self.shared_losses = _shared_zeros(batch_size, totals.dtype)
        self.go_r, self.go_w = os.pipe()
        self.events_r, self.events_w = os.pipe()
        self.pid: int | None = None  # the helper's, in the main process until it is reaped
        self.in_helper = False
        self.offset = 0
        self.pending = b""

    def fork(self, model: KTransformer, steps, seed: int) -> None:
        """Fork the helper, which serves ``steps`` and exits."""
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                self.in_helper = True
                os.close(self.go_w)
                os.close(self.events_r)
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process reaps it
                self._serve(model, steps, seed)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)  # never back into the caller's frames
        self.pid = pid
        os.close(self.go_r)
        os.close(self.events_w)

    def close(self) -> None:
        """Close the main process's ends and reap the helper, wherever it is."""
        os.close(self.go_w)
        os.close(self.events_r)
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    # ---- main process side

    def go(self, step: int) -> None:
        self.offset = 0
        os.write(self.go_w, struct.pack("<q", step))

    def expect(self, event: bytes) -> None:
        """Block until the helper's next event, which must be ``event``."""
        if not self.pending:
            self.pending = os.read(self.events_r, 4096)
            if not self.pending:
                _, status = os.waitpid(self.pid, 0)
                self.pid = None
                raise RuntimeError(
                    f"training helper process exited mid-step with status {os.waitstatus_to_exitcode(status)}"
                )
        got, self.pending = self.pending[:1], self.pending[1:]
        if got != event:
            raise RuntimeError(f"fold hand-off out of step: expected {event!r} from the helper, got {got!r}")

    def losses(self, n: int) -> np.ndarray:
        """Block until the helper's step is done, then its ``n`` losses."""
        self.expect(b"D")
        return self.shared_losses[:n].copy()

    def take(self, shape: tuple[int, ...]) -> np.ndarray | None:
        if self.in_helper:
            return None
        self.expect(b"F")
        return self._slot(math.prod(shape)).reshape(shape)

    # ---- helper side

    def _serve(self, model: KTransformer, steps, seed: int) -> None:
        """The helper's loop: the same steps and batches as the main
        process's, running the second part of each split batch."""
        params = model.parameters()
        for step, batch in steps:
            b = len(batch)
            h = _split_point(b, batch.src_ids.size + batch.tgt_ids.size, model.config.d_model)
            if h == b:
                continue
            got = os.read(self.go_r, 8)
            if not got:
                return  # the main process is done
            if struct.unpack("<q", got)[0] != step:
                raise RuntimeError(f"helper at step {step} was sent step {struct.unpack('<q', got)[0]}")
            self.offset = 0
            tape, losses, loss = _taped_loss(model, batch, seed, step, slice(h, b), self)
            backward(loss, tape)
            for p in params.values():
                p.grad = None
            self.shared_losses[: b - h] = losses.data
            os.write(self.events_w, b"D")

    def give(self, total: np.ndarray) -> None:
        if not self.in_helper:
            return
        self._slot(total.size)[...] = total.reshape(-1)
        os.write(self.events_w, b"F")

    def _slot(self, size: int) -> np.ndarray:
        # the next fold total's place in the shared buffer
        lo, self.offset = self.offset, self.offset + size
        if self.offset > self.totals.size:
            raise RuntimeError("fold totals exceed the parameters' size")
        return self.totals[lo : self.offset]


def train(
    model: KTransformer,
    corpus: ParallelCorpus,
    vocab_src: Vocabulary,
    vocab_tgt: Vocabulary,
    config: TrainConfig,
    val_corpus: ParallelCorpus | None = None,
) -> list[LogRow]:
    """Teacher-forced training: seeded epoch shuffling, one taped pass over
    each padded batch, clipping, Adam, periodic validation BLEU. The step's
    loss is the mean of the per-sentence losses, summed from sentence 0.
    With 2 or more usable CPUs, a batch whose padded tokens times d_model
    reach ``SPLIT_MIN_WORK`` is split: a helper process, forked once per
    call and reaped before ``train`` returns or raises, runs its last half
    and hands over its fold totals and losses, bit for bit; the loss mean,
    its finiteness check, clipping, Adam, validation and checkpoints stay in
    this process. A step's memory is freed as soon as it is dead: its
    activations when ``backward`` returns (in both processes), its
    gradients once ``adam_step`` has copied them; four parameter-sized
    buffers stay (``AdamState``). The C library's malloc is set to keep what
    a step frees for the next one (``_keep_freed_memory``).

    Writes train_log.csv (append-only), best.ckpt at each validation
    high-water mark, and final.ckpt once, when ``train`` returns or raises:
    it holds the state after the last completed step (the initial state if
    none completed). A divergence raises before any parameter or moment
    changes, so it too leaves the last good state there. Deterministic given
    the seeds: same config, same corpus, same floats.
    """
    config.validate()
    _keep_freed_memory()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    final_path = out_dir / "final.ckpt"
    params = model.parameters()
    state = AdamState(params, lr=config.lr)
    meta = dict(
        vocab_src=vocab_src,
        vocab_tgt=vocab_tgt,
        profile_src=corpus.profile_src,
        profile_tgt=corpus.profile_tgt,
    )
    # epoch e's batches are built only when epoch e starts; range comes first
    # in the zip so no batch is pulled after max_steps
    epochs = (
        make_batches(corpus, vocab_src, vocab_tgt, config.batch_size, max_len=model.config.max_len, seed=config.seed + e)
        for e in itertools.count()
    )
    steps = zip(range(1, config.max_steps + 1), itertools.chain.from_iterable(epochs))
    d_model = model.config.d_model
    log: list[LogRow] = []
    best = -1.0
    helper = None
    try:
        # fork only if the largest batch would split; the helper walks its own copy of ``steps``
        widest = config.batch_size * 2 * model.config.max_len
        if _usable_cpus() >= 2 and _split_point(config.batch_size, widest, d_model) < config.batch_size:
            helper = _Helper(state.flat_grads, config.batch_size)
            helper.fork(model, steps, config.seed)
        with open(out_dir / "train_log.csv", "w", encoding="utf-8") as log_file:
            log_file.write("step,loss,val_bleu,wall_ms\n")
            for step, batch in steps:
                t0 = time.perf_counter()
                b = len(batch)
                h = b if helper is None else _split_point(b, batch.src_ids.size + batch.tgt_ids.size, d_model)
                carry = helper if h < b else None
                if carry is not None:
                    carry.go(step)
                tape, losses, mean_loss = _taped_loss(model, batch, config.seed, step, slice(0, h), carry)
                backward(mean_loss, tape)
                # the helper's losses come with D, after its last read of the parameters
                values = losses.data if carry is None else np.concatenate([losses.data, carry.losses(b - h)])
                loss_val = float(scale(sum_all(Tensor(values)), 1.0 / b).data)
                if not math.isfinite(loss_val):
                    raise DivergenceError(f"non-finite loss at step {step}; last good parameters kept in {final_path}")
                lr_scale = min(1.0, step / config.warmup_steps) if config.warmup_steps > 0 else 1.0
                grad_norm = adam_step(params, state, lr_scale=lr_scale, grad_clip=config.grad_clip)

                val = None
                if config.val_interval > 0 and step % config.val_interval == 0 and val_corpus is not None:
                    val = corpus_greedy_bleu(model, val_corpus, vocab_src, vocab_tgt)
                    if val is not None and val >= best:
                        best = val
                        save_checkpoint(model, out_dir / "best.ckpt", state=state, **meta)
                wall_ms = (time.perf_counter() - t0) * 1000.0
                row = LogRow(step=step, loss=loss_val, val_bleu=val, wall_ms=wall_ms, grad_norm=grad_norm)
                log.append(row)
                log_file.write(_log_line(row))
                log_file.flush()
    finally:
        if helper is not None:
            helper.close()
        save_checkpoint(model, final_path, state=state, **meta)
    return log
