"""Run configuration: a flat, typed ``key = value`` text format covering
model hyperparameters, training schedule, corpus profiles, and file paths.

Every key has a default; unknown keys are a hard error so typos cannot
silently fall back to defaults. ``serialize`` and ``parse_text`` round-trip,
which is what lets a run directory's echoed config reproduce the run.
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
    d_model: int = 512
    heads: int = 8
    d_ff: int = 2048
    layers_enc: int = 2
    layers_dec: int = 2
    dropout: float = 0.1
    max_len: int = 50
    clusters_k: int = 4
    cluster_mode: str = "off"
    precision: str = "f32"
    init_seed: int = 0
    cluster_seed: int = 0
    # training
    lr: float = 3e-4
    warmup_steps: int = 0
    max_steps: int = 100
    batch_size: int = 16
    val_interval: int = 0
    val_fraction: float = 0.1
    grad_clip: float = 1.0
    seed: int = 0
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

    def to_model_config(self, vocab_src_size: int, vocab_tgt_size: int) -> ModelConfig:
        cfg = ModelConfig(
            vocab_src=vocab_src_size,
            vocab_tgt=vocab_tgt_size,
            d_model=self.d_model,
            heads=self.heads,
            d_ff=self.d_ff,
            layers_enc=self.layers_enc,
            layers_dec=self.layers_dec,
            dropout=self.dropout,
            max_len=self.max_len,
            clusters_k=self.clusters_k,
            cluster_mode=self.cluster_mode,
            precision=self.precision,
            init_seed=self.init_seed,
            cluster_seed=self.cluster_seed,
        )
        try:
            cfg.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        return cfg

    def to_train_config(self, out_dir: str | Path) -> TrainConfig:
        cfg = TrainConfig(
            out_dir=out_dir,
            lr=self.lr,
            warmup_steps=self.warmup_steps,
            max_steps=self.max_steps,
            batch_size=self.batch_size,
            val_interval=self.val_interval,
            grad_clip=self.grad_clip,
            seed=self.seed,
        )
        try:
            cfg.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        return cfg


def parse_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse ``key = value`` lines onto a copy of ``base`` (or the defaults).
    Blank lines and ``#`` comments are ignored."""
    cfg = RunConfig(**{f.name: getattr(base, f.name) for f in fields(RunConfig)}) if base else RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        cfg.set_key(key.strip(), raw.strip())
    return cfg


def parse_file(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read configuration {path}: {e}") from e
    return parse_text(text, base=base)
