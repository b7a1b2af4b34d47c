"""Training machinery: Adam with bias correction, global-norm gradient
clipping, the teacher-forced loop with periodic greedy-decoding validation,
and a self-contained binary checkpoint format.

Checkpoint layout: an 8-byte magic, a little-endian u64 manifest length, a
JSON manifest (format version, model configuration, per-buffer name, shape,
element type, and byte offset, optimizer state header, optional embedded
vocabularies and profiles, and the sha256 of the data buffer), then the
concatenated row-major little-endian parameter data. Round trips are
bit-exact and host-endianness independent.
"""

from __future__ import annotations

import hashlib
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
    counter; beta1, beta2 and eps are the module's ``ADAM_*`` constants."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4):
        # lr 0 is allowed here and makes the update an identity; TrainConfig
        # is the layer that insists on a positive rate.
        if not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


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
    """One bias-corrected Adam update, in place on the parameter tensors.

    Any non-finite gradient rejects the whole step (raises before touching
    parameters or moments). ``lr_scale`` carries the warmup multiplier.
    """
    if set(grads) != set(params):
        missing = set(params) ^ set(grads)
        raise ValueError(f"gradient/parameter name mismatch: {sorted(missing)[:5]}")
    for name, g in grads.items():
        if g.shape != params[name].data.shape:
            raise ValueError(f"gradient shape {g.shape} for {name!r} does not match {params[name].data.shape}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {name!r}; step rejected")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    lr = state.lr * float(lr_scale)  # a numpy scalar would promote f32 parameters
    for name, p in params.items():
        g = grads[name].astype(p.data.dtype, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _dtype_code(dtype: np.dtype) -> str:
    # classify by kind and width so a non-native byte order still serializes
    dtype = np.dtype(dtype)
    if dtype.kind == "f" and dtype.itemsize == 4:
        return "<f4"
    if dtype.kind == "f" and dtype.itemsize == 8:
        return "<f8"
    raise CheckpointError(f"unsupported dtype {dtype}")


def _buffer_entry(name: str, arr: np.ndarray, offset: int) -> tuple[dict, bytes]:
    code = _dtype_code(arr.dtype)
    raw = np.ascontiguousarray(arr).astype(code, copy=False).tobytes()
    entry = {"name": name, "shape": list(arr.shape), "dtype": code, "offset": offset, "nbytes": len(raw)}
    return entry, raw


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
    chunks: list[bytes] = []
    offset = 0
    param_entries = []
    for name, p in params.items():
        entry, raw = _buffer_entry(name, p.data, offset)
        param_entries.append(entry)
        chunks.append(raw)
        offset += len(raw)
    adam = None
    if state is not None:
        moment_entries = []
        for kind, bank in (("m", state.m), ("v", state.v)):
            for name in params:
                entry, raw = _buffer_entry(f"{kind}.{name}", bank[name], offset)
                moment_entries.append(entry)
                chunks.append(raw)
                offset += len(raw)
        adam = {
            "t": state.t,
            "lr": state.lr,
            "beta1": ADAM_BETA1,
            "beta2": ADAM_BETA2,
            "eps": ADAM_EPS,
            "moments": moment_entries,
        }
    buffer = b"".join(chunks)
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": model.config.to_dict(),
        "params": param_entries,
        "adam": adam,
        "vocab_src": vocab_src.regular_tokens() if vocab_src is not None else None,
        "vocab_tgt": vocab_tgt.regular_tokens() if vocab_tgt is not None else None,
        "profile_src": profile_src,
        "profile_tgt": profile_tgt,
        "buffer_sha256": hashlib.sha256(buffer).hexdigest(),
    }
    blob = json.dumps(manifest, ensure_ascii=False, sort_keys=True).encode("utf-8")
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(buffer)
    os.replace(tmp, path)


def _entries(value, what: str) -> list[dict]:
    """A manifest list of buffer entries: objects with every key that
    ``_read_entry`` reads and a string name."""
    keys = {"name", "shape", "dtype", "offset", "nbytes"}
    if not isinstance(value, list) or not all(
        isinstance(e, dict) and keys <= e.keys() and isinstance(e["name"], str) for e in value
    ):
        raise CheckpointError(f"malformed {what} entries in checkpoint manifest")
    return value


def _read_entry(buffer: bytes, entry: dict, offset: int, like: np.ndarray) -> np.ndarray:
    """The array that ``entry`` describes, which must start at ``offset``,
    have the shape and element type of ``like`` and hold only finite
    values."""
    name, code = entry["name"], _dtype_code(like.dtype)
    if entry["offset"] != offset:
        raise CheckpointError(f"manifest/buffer offset inconsistency at {name!r}")
    if entry["dtype"] != code:
        raise CheckpointError(f"{name!r} stored as {entry['dtype']}, model expects {code}")
    if entry["shape"] != list(like.shape) or entry["nbytes"] != like.nbytes:
        stored = f"{entry['shape']!r} ({entry['nbytes']!r} bytes)"
        raise CheckpointError(f"shape mismatch for {name!r}: {stored} vs {like.shape}")
    if offset + like.nbytes > len(buffer):
        raise CheckpointError(f"checkpoint truncated inside {name!r}")
    arr = np.frombuffer(buffer, dtype=code, count=like.size, offset=offset).reshape(like.shape).astype(like.dtype)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"non-finite values in {name!r}")
    return arr


@dataclass
class LoadedCheckpoint:
    model: KTransformer
    state: AdamState | None
    vocab_src: Vocabulary | None
    vocab_tgt: Vocabulary | None
    profile_src: str | None
    profile_tgt: str | None


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

    Verifies the magic, format version, the manifest's structure, its
    buffer offsets and shapes, the buffer hash, that every parameter and
    Adam moment is finite, the Adam step counter, a finite nonnegative
    learning rate, Adam's beta1/beta2/eps equal to the ``ADAM_*`` constants
    (the only values ``save_checkpoint`` writes), the embedded profiles,
    and that each embedded vocabulary is valid and matches the model's
    vocabulary size, so any truncation, corruption or mismatch is an
    explicit error."""
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
    if hashlib.sha256(buffer).hexdigest() != manifest.get("buffer_sha256"):
        raise CheckpointError("checkpoint buffer integrity check failed")

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"invalid model configuration in checkpoint: {e}") from e
    model = KTransformer(config, draw_weights=False)
    params = model.parameters()
    entries = _entries(manifest.get("params", []), "parameter")
    if [e["name"] for e in entries] != list(params):
        raise CheckpointError("checkpoint parameter names do not match the model")
    offset = 0
    for entry in entries:
        p = params[entry["name"]]
        p.data = _read_entry(buffer, entry, offset, p.data)
        offset += p.data.nbytes

    state = None
    adam = manifest.get("adam")
    if adam is not None:
        hyper = ("lr", "beta1", "beta2", "eps")
        t = adam.get("t") if isinstance(adam, dict) else None
        well_formed = isinstance(t, int) and not isinstance(t, bool) and t >= 0
        if not (well_formed and all(isinstance(adam.get(k), (int, float)) for k in hyper)):
            raise CheckpointError("malformed optimizer state in checkpoint manifest")
        for k, want in (("beta1", ADAM_BETA1), ("beta2", ADAM_BETA2), ("eps", ADAM_EPS)):
            if adam[k] != want:
                raise CheckpointError(f"invalid optimizer state in checkpoint: {k} is {adam[k]!r}, expected {want!r}")
        try:
            state = AdamState(params, lr=adam["lr"])
        except ValueError as e:
            raise CheckpointError(f"invalid optimizer state in checkpoint: {e}") from e
        state.t = adam["t"]
        moments = _entries(adam.get("moments"), "optimizer")
        if [e["name"] for e in moments] != [f"{kind}.{name}" for kind in "mv" for name in params]:
            raise CheckpointError("checkpoint optimizer buffers do not match the model's parameters")
        for entry in moments:
            kind, _, name = entry["name"].partition(".")
            bank = state.m if kind == "m" else state.v
            bank[name] = _read_entry(buffer, entry, offset, params[name].data)
            offset += bank[name].nbytes
    if offset != len(buffer):
        raise CheckpointError(f"checkpoint buffer has {len(buffer) - offset} unaccounted bytes")

    return LoadedCheckpoint(
        model=model,
        state=state,
        vocab_src=_embedded_vocab(manifest, "vocab_src", config.vocab_src),
        vocab_tgt=_embedded_vocab(manifest, "vocab_tgt", config.vocab_tgt),
        profile_src=_embedded_profile(manifest, "profile_src"),
        profile_tgt=_embedded_profile(manifest, "profile_tgt"),
    )


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

    Writes train_log.csv (append-only), final.ckpt (initial state first, so
    a later divergence abort always leaves the last good parameters there),
    and best.ckpt at each validation high-water mark. Deterministic given
    the seeds: same config, same corpus, same floats.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    final_path = out_dir / "final.ckpt"
    best_path = out_dir / "best.ckpt"
    params = model.parameters()
    state = AdamState(params, lr=config.lr)
    meta = dict(
        vocab_src=vocab_src,
        vocab_tgt=vocab_tgt,
        profile_src=corpus.profile_src,
        profile_tgt=corpus.profile_tgt,
    )
    save_checkpoint(model, final_path, state=state, **meta)

    log: list[LogRow] = []
    best = -1.0
    step = 0
    epoch = 0
    with open(out_dir / "train_log.csv", "w", encoding="utf-8") as log_file:
        log_file.write("step,loss,val_bleu,wall_ms\n")
        while step < config.max_steps:
            batches = make_batches(
                corpus, vocab_src, vocab_tgt, config.batch_size, max_len=model.config.max_len, seed=config.seed + epoch
            )
            for batch in batches:
                if step >= config.max_steps:
                    break
                t0 = time.perf_counter()
                rng = np.random.default_rng([config.seed, step])
                with GradientTape() as tape:
                    losses = model.sequence_loss(
                        batch.src_ids, batch.tgt_ids, src_mask=batch.src_mask, tgt_mask=batch.tgt_mask, rng=rng
                    )
                    mean_loss = scale(sum_all(losses), 1.0 / len(batch))
                loss_val = float(mean_loss.data)
                if not math.isfinite(loss_val):
                    save_checkpoint(model, final_path, state=state, **meta)
                    raise DivergenceError(
                        f"non-finite loss at step {step + 1}; last good parameters kept in {final_path}"
                    )
                backward(mean_loss, tape)
                grads: dict[str, np.ndarray] = {}
                for name, p in params.items():
                    grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
                    p.grad = None
                clip_global_norm(grads, config.grad_clip)
                lr_scale = min(1.0, (step + 1) / config.warmup_steps) if config.warmup_steps > 0 else 1.0
                try:
                    adam_step(params, grads, state, lr_scale=lr_scale)
                except DivergenceError:
                    save_checkpoint(model, final_path, state=state, **meta)
                    raise
                step += 1

                val = None
                if config.val_interval > 0 and step % config.val_interval == 0 and val_corpus is not None and len(val_corpus) > 0:
                    val = corpus_greedy_bleu(model, val_corpus, vocab_src, vocab_tgt)
                    if val is not None and val >= best:
                        best = val
                        save_checkpoint(model, best_path, state=state, **meta)
                row = LogRow(step=step, loss=loss_val, val_bleu=val, wall_ms=(time.perf_counter() - t0) * 1000.0)
                log.append(row)
                log_file.write(_log_line(row))
                log_file.flush()
            epoch += 1
    save_checkpoint(model, final_path, state=state, **meta)
    return log
