"""Run configuration: a flat, typed ``key = value`` text format covering
model hyperparameters, training schedule, corpus profiles, and file paths.

Every key has a default; unknown keys are a hard error so typos cannot
silently fall back to defaults. ``serialize`` and ``parse_text`` round-trip,
which is what lets a run directory's echoed config reproduce the run.

``ModelConfig`` and ``TrainConfig`` own the model and schedule defaults:
``RunConfig`` reads each one from its owner, and ``to_model_config`` /
``to_train_config`` copy the shared keys by name.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .model import ModelConfig
from .trainer import TrainConfig


class ConfigError(Exception):
    """Malformed configuration text or an unknown/invalid key."""


@dataclass
class RunConfig:
    # model
    d_model: int = ModelConfig.d_model
    heads: int = ModelConfig.heads
    d_ff: int = ModelConfig.d_ff
    layers_enc: int = ModelConfig.layers_enc
    layers_dec: int = ModelConfig.layers_dec
    dropout: float = ModelConfig.dropout
    max_len: int = ModelConfig.max_len
    clusters_k: int = ModelConfig.clusters_k
    cluster_mode: str = ModelConfig.cluster_mode
    precision: str = ModelConfig.precision
    init_seed: int = ModelConfig.init_seed
    cluster_seed: int = ModelConfig.cluster_seed
    # training
    lr: float = TrainConfig.lr
    warmup_steps: int = TrainConfig.warmup_steps
    max_steps: int = TrainConfig.max_steps
    batch_size: int = TrainConfig.batch_size
    val_interval: int = TrainConfig.val_interval
    val_fraction: float = 0.1
    grad_clip: float = TrainConfig.grad_clip
    seed: int = TrainConfig.seed
    # corpus profiles
    profile_src: str = "space_tokenized"
    profile_tgt: str = "space_tokenized"
    # paths (empty string = unset)
    train_src: str = ""
    train_tgt: str = ""
    vocab_src: str = ""
    vocab_tgt: str = ""
    out_dir: str = ""

    def set_key(self, key: str, raw: str) -> None:
        """Assign one key from its textual value, with type checking."""
        field_types = {f.name: f.type for f in fields(self)}
        if key not in field_types:
            raise ConfigError(f"unknown configuration key {key!r}")
        kind = field_types[key]
        try:
            if kind == "int":
                value = int(raw)
            elif kind == "float":
                value = float(raw)
            else:
                value = raw
        except ValueError:
            raise ConfigError(f"key {key!r} expects {kind}, got {raw!r}") from None
        setattr(self, key, value)

    def serialize(self) -> str:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            out.append(f"{f.name} = {value!r}" if isinstance(value, float) else f"{f.name} = {value}")
        return "\n".join(out) + "\n"

    def _shared(self, owner, *given: str) -> dict:
        """This config's values for the fields of ``owner`` it has by the
        same name, except the ``given`` ones, which the caller supplies."""
        mine = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(owner) if f.name in mine and f.name not in given}

    def to_model_config(self, vocab_src_size: int, vocab_tgt_size: int) -> ModelConfig:
        # here vocab_src/vocab_tgt are vocabulary paths; in ModelConfig they are sizes
        shared = self._shared(ModelConfig, "vocab_src", "vocab_tgt")
        return _validated(ModelConfig(vocab_src=vocab_src_size, vocab_tgt=vocab_tgt_size, **shared))

    def to_train_config(self, out_dir: str | Path) -> TrainConfig:
        return _validated(TrainConfig(out_dir=out_dir, **self._shared(TrainConfig, "out_dir")))


def _validated(cfg):
    """``cfg`` once its ``validate()`` passes; its ValueError becomes a ConfigError."""
    try:
        cfg.validate()
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return cfg


def parse_text(text: str) -> RunConfig:
    """Parse ``key = value`` lines onto the defaults. Blank lines and ``#``
    comments are ignored."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        cfg.set_key(key.strip(), raw.strip())
    return cfg


def parse_file(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read configuration {path}: {e}") from e
    return parse_text(text)
