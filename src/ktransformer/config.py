"""Run configuration: a flat, typed ``key = value`` text format covering
model hyperparameters, training schedule, corpus profiles, and file paths.

Every key has a default; unknown keys are a hard error so typos cannot
silently fall back to defaults. ``serialize`` and ``parse_text`` round-trip,
which is what lets a run directory's echoed config reproduce the run.

The model keys are the fields of ``ModelConfig`` but the two vocabulary
sizes, which are counted from the vocabulary files; the schedule keys are
the fields of ``TrainConfig`` but ``out_dir``, which is a run key of its own.
Each takes its name, type and default from its owner, so a field added
there is a run key too. ``RunConfig`` declares only the keys that no other
config has.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from .corpus import DEFAULT_PROFILE
from .model import ModelConfig
from .trainer import TrainConfig


class ConfigError(Exception):
    """Malformed configuration text or an unknown/invalid key."""


_MODEL_KEYS = [f for f in fields(ModelConfig) if f.name not in ("vocab_src", "vocab_tgt")]
_SCHEDULE_KEYS = [f for f in fields(TrainConfig) if f.name != "out_dir"]

# RunConfig's first fields: the model keys, then the schedule keys
_ModelAndScheduleKeys = make_dataclass(
    "_ModelAndScheduleKeys", [(f.name, f.type, field(default=f.default)) for f in _MODEL_KEYS + _SCHEDULE_KEYS]
)


@dataclass
class RunConfig(_ModelAndScheduleKeys):
    val_fraction: float = 0.1
    # corpus profiles
    profile_src: str = DEFAULT_PROFILE
    profile_tgt: str = DEFAULT_PROFILE
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

    def _values(self, keys) -> dict:
        return {f.name: getattr(self, f.name) for f in keys}

    def to_model_config(self, vocab_src_size: int, vocab_tgt_size: int) -> ModelConfig:
        # here vocab_src/vocab_tgt are vocabulary paths; in ModelConfig they are sizes
        return _validated(ModelConfig(vocab_src=vocab_src_size, vocab_tgt=vocab_tgt_size, **self._values(_MODEL_KEYS)))

    def to_train_config(self, out_dir: str | Path) -> TrainConfig:
        return _validated(TrainConfig(out_dir=out_dir, **self._values(_SCHEDULE_KEYS)))


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
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read configuration {path}: {e}") from e
    return parse_text(text)
