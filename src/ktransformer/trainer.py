"""Training machinery: Adam with bias correction, global-norm gradient
clipping, the teacher-forced loop with periodic greedy-decoding validation,
and a self-contained binary checkpoint format.

Checkpoint layout: an 8-byte magic, a little-endian u64 manifest length, the
JSON manifest that ``_manifest`` describes, then the row-major little-endian
buffers in ``_layout`` order. A manifest loads only if it equals what
``save_checkpoint`` would write for what was loaded, so round trips are
bit-exact (``save(load(f)) == f`` for a file it wrote) and independent of
host endianness.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import PROFILES, ParallelCorpus, Vocabulary, decode, encode, make_batches
from .metrics import corpus_bleu
from .model import KTransformer, ModelConfig
from .tensor import GradientTape, Tensor, backward, scale, sum_all

CHECKPOINT_MAGIC = b"KTRX0001"
FORMAT_VERSION = 1

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    out in ``params`` order, and one scratch buffer of the same size, all in
    the parameters' one dtype. ``m[name]`` and ``v[name]`` are views into the
    moment buffers; ``adam_step`` makes each parameter's ``data`` its view
    in ``param_views``."""

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
        bounds = np.cumsum([0] + [p.data.size for p in params.values()]).tolist()
        flat = [np.zeros(bounds[-1], dtype=dtype) for _ in range(5)]
        self.flat_params, self.flat_grads, self.flat_m, self.flat_v, self.scratch = flat

        def views(flat: np.ndarray) -> dict[str, np.ndarray]:
            return {
                name: flat[lo:hi].reshape(p.data.shape)
                for (name, p), lo, hi in zip(params.items(), bounds, bounds[1:])
            }

        self.m, self.v = views(self.flat_m), views(self.flat_v)
        self.param_views, self.grad_views = views(self.flat_params), views(self.flat_grads)


def clip_global_norm(grads: dict[str, np.ndarray], cap: float) -> float:
    """Scale all gradients by cap/norm when the global L2 norm exceeds cap
    (a cap of 0 disables clipping); returns the pre-clip norm. Direction is
    preserved: the result is a nonnegative multiple of the input."""
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if cap > 0 and norm > cap:
        factor = cap / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState, lr_scale: float = 1.0) -> None:
    """One bias-corrected Adam update, in place on the state's flat buffers.

    Each parameter's ``data`` becomes its view into ``state.flat_params``; a
    tensor whose ``data`` was rebound since the last step is copied in
    first. The gradients are copied into ``state.flat_grads`` in one
    concatenation, cast to the parameters' dtype. Any non-finite gradient
    rejects the whole step (raises before touching parameters or moments).
    ``lr_scale`` carries the warmup multiplier. Each element goes through
    the per-tensor update's operations in their order, so the floats do not
    depend on the layout.
    """
    if set(grads) != set(params):
        missing = set(params) ^ set(grads)
        raise ValueError(f"gradient/parameter name mismatch: {sorted(missing)[:5]}")
    if params.keys() != state.param_views.keys():
        raise ValueError("parameter names do not match the optimizer state")
    for name, view in state.param_views.items():
        p = params[name]
        if grads[name].shape != p.data.shape:
            raise ValueError(f"gradient shape {grads[name].shape} for {name!r} does not match {p.data.shape}")
        if p.data is not view:
            if p.data.shape != view.shape:
                raise ValueError(f"parameter {name!r} has shape {p.data.shape}, the optimizer state {view.shape}")
            view[...] = p.data
            p.data = view
    g = state.flat_grads
    np.concatenate([grads[name].reshape(-1) for name in state.param_views], out=g)
    if not np.isfinite(g).all():
        name = next(name for name in grads if not np.isfinite(state.grad_views[name]).all())
        raise DivergenceError(f"non-finite gradient for {name!r}; step rejected")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    lr = state.lr * float(lr_scale)  # a numpy scalar would promote f32 parameters
    m, v, s = state.flat_m, state.flat_v, state.scratch
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
    """Serialize model (and optionally optimizer state and vocabularies)."""
    params = model.parameters()
    contents = LoadedCheckpoint(model, state, vocab_src, vocab_tgt, profile_src, profile_tgt)
    buffer = b"".join(arr.astype(_dtype_code(arr.dtype), copy=False).tobytes() for _, arr in _layout(params, state))
    manifest = _manifest(contents, params, hashlib.sha256(buffer).hexdigest())
    blob = json.dumps(manifest, ensure_ascii=False, sort_keys=True).encode("utf-8")
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(buffer)
    os.replace(tmp, path)


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


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Rebuild model, optimizer state, and vocabularies from a checkpoint.

    Checks what it has to interpret (the magic, format version, buffer hash,
    model configuration, Adam step counter and learning rate, embedded
    vocabularies and profiles), then loads the file only if its manifest
    equals the one ``save_checkpoint`` would write for what was loaded, and
    only if every parameter and Adam moment is finite; any truncation,
    corruption or mismatch is a ``CheckpointError``."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    header = len(CHECKPOINT_MAGIC) + 8
    if len(data) < header:
        raise CheckpointError(f"checkpoint {path} is truncated")
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    (mlen,) = struct.unpack("<Q", data[len(CHECKPOINT_MAGIC) : header])
    if header + mlen > len(data):
        raise CheckpointError(f"checkpoint {path} is truncated inside the manifest")
    try:
        manifest = json.loads(data[header : header + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable checkpoint manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {manifest.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    buffer = data[header + mlen :]
    buffer_sha256 = hashlib.sha256(buffer).hexdigest()
    if buffer_sha256 != manifest.get("buffer_sha256"):
        raise CheckpointError("checkpoint buffer integrity check failed")

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"invalid model configuration in checkpoint: {e}") from e
    try:
        model = KTransformer(config, draw_weights=False)
    except (MemoryError, ValueError) as e:  # numpy refuses arrays beyond the address space or index range
        raise CheckpointError(f"model configuration in checkpoint is too large to build: {e}") from e
    params = model.parameters()
    state = None
    adam = manifest.get("adam")
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
    vocabs = [_embedded_vocab(manifest, key, getattr(config, key)) for key in ("vocab_src", "vocab_tgt")]
    profiles = [_embedded_profile(manifest, key) for key in ("profile_src", "profile_tgt")]
    loaded = LoadedCheckpoint(model, state, *vocabs, *profiles)
    expected = _manifest(loaded, params, buffer_sha256)
    if manifest != expected:
        where = _first_difference(manifest, expected, "manifest")
        raise CheckpointError(f"checkpoint manifest is not what save_checkpoint writes for its contents: {where} differs")

    layout = _layout(params, state)
    if sum(arr.nbytes for _, arr in layout) != len(buffer):
        raise CheckpointError(f"checkpoint buffer length {len(buffer)} does not match its manifest")
    # every buffer has the model's dtype (AdamState insists on one), so the file is one float array
    values = np.frombuffer(buffer, dtype=_dtype_code(model.dtype))
    finite = np.isfinite(values)
    if not finite.all():
        # the first non-finite value lies in the first buffer that holds one
        ends = np.cumsum([arr.size for _, arr in layout])
        name = layout[int(np.searchsorted(ends, np.argmin(finite), side="right"))][0]
        raise CheckpointError(f"non-finite values in {name!r}")
    offset = 0
    for _, arr in layout:
        arr[...] = values[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
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
    step: int
    loss: float
    val_bleu: float | None
    wall_ms: float


def _log_line(row: LogRow) -> str:
    val = "" if row.val_bleu is None else f"{row.val_bleu:.6f}"
    return f"{row.step},{row.loss:.6f},{val},{row.wall_ms:.3f}\n"


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

    Writes train_log.csv (append-only), best.ckpt at each validation
    high-water mark, and final.ckpt once, when ``train`` returns or raises:
    it holds the state after the last completed step (the initial state if
    none completed). A divergence raises before any parameter or moment
    changes, so it too leaves the last good state there. Deterministic given
    the seeds: same config, same corpus, same floats.
    """
    config.validate()
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
    log: list[LogRow] = []
    best = -1.0
    try:
        with open(out_dir / "train_log.csv", "w", encoding="utf-8") as log_file:
            log_file.write("step,loss,val_bleu,wall_ms\n")
            for step, batch in zip(range(1, config.max_steps + 1), itertools.chain.from_iterable(epochs)):
                t0 = time.perf_counter()
                rng = np.random.default_rng([config.seed, step - 1])
                with GradientTape() as tape:
                    losses = model.sequence_loss(
                        batch.src_ids, batch.tgt_ids, src_mask=batch.src_mask, tgt_mask=batch.tgt_mask, rng=rng
                    )
                    mean_loss = scale(sum_all(losses), 1.0 / len(batch))
                loss_val = float(mean_loss.data)
                if not math.isfinite(loss_val):
                    raise DivergenceError(f"non-finite loss at step {step}; last good parameters kept in {final_path}")
                backward(mean_loss, tape)
                grads: dict[str, np.ndarray] = {}
                for name, p in params.items():
                    grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
                    p.grad = None
                clip_global_norm(grads, config.grad_clip)
                lr_scale = min(1.0, step / config.warmup_steps) if config.warmup_steps > 0 else 1.0
                adam_step(params, grads, state, lr_scale=lr_scale)

                val = None
                if config.val_interval > 0 and step % config.val_interval == 0 and val_corpus is not None:
                    val = corpus_greedy_bleu(model, val_corpus, vocab_src, vocab_tgt)
                    if val is not None and val >= best:
                        best = val
                        save_checkpoint(model, out_dir / "best.ckpt", state=state, **meta)
                row = LogRow(step=step, loss=loss_val, val_bleu=val, wall_ms=(time.perf_counter() - t0) * 1000.0)
                log.append(row)
                log_file.write(_log_line(row))
                log_file.flush()
    finally:
        save_checkpoint(model, final_path, state=state, **meta)
    return log
