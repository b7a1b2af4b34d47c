"""Run configuration: parsing, defaults, serialization."""

from dataclasses import fields

import pytest

from ktransformer.config import ConfigError, RunConfig, parse_file, parse_text
from ktransformer.model import ModelConfig
from ktransformer.trainer import TrainConfig

# A valid non-default value for every model key (all ModelConfig fields but
# the vocabulary sizes) and for the seven schedule keys.
MODEL_VALUES = {
    "d_model": "8",
    "heads": "2",
    "d_ff": "16",
    "layers_enc": "3",
    "layers_dec": "4",
    "dropout": "0.25",
    "max_len": "7",
    "clusters_k": "3",
    "cluster_mode": "both",
    "precision": "f64",
    "init_seed": "5",
    "cluster_seed": "6",
}
SCHEDULE_VALUES = {
    "lr": "0.001",
    "warmup_steps": "3",
    "max_steps": "5",
    "batch_size": "4",
    "val_interval": "2",
    "grad_clip": "0.5",
    "seed": "9",
}


def _set_all(values):
    cfg = RunConfig()
    for key, raw in values.items():
        cfg.set_key(key, raw)
    return cfg


def test_defaults():
    cfg = RunConfig()
    assert cfg.d_model == 512
    assert cfg.heads == 8
    assert cfg.cluster_mode == "off"
    assert cfg.precision == "f32"
    assert cfg.lr == 3e-4
    assert cfg.profile_src == "space_tokenized"
    # every model and schedule key takes its owner's default
    assert set(MODEL_VALUES) == {f.name for f in fields(ModelConfig)} - {"vocab_src", "vocab_tgt"}
    for key in MODEL_VALUES:
        assert getattr(cfg, key) == getattr(ModelConfig, key), key
    for key in SCHEDULE_VALUES:
        assert getattr(cfg, key) == getattr(TrainConfig, key), key


def test_parse_overrides_and_comments():
    cfg = parse_text(
        """
        # architecture
        d_model = 64
        heads = 4

        cluster_mode = both   # trailing comment
        lr = 0.5
        """
    )
    assert cfg.d_model == 64 and cfg.heads == 4
    assert cfg.cluster_mode == "both"
    assert cfg.lr == 0.5


def test_parse_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_text("d_modell = 64")


def test_parse_bad_int_rejected():
    with pytest.raises(ConfigError):
        parse_text("d_model = sixty")
    with pytest.raises(ConfigError):
        parse_text("lr = fast")


def test_parse_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_text("d_model 64")


def test_serialize_round_trip():
    cfg = parse_text("d_model = 32\nlr = 0.0003\ncluster_mode = same_cluster\ntrain_src = data/x.txt")
    again = parse_text(cfg.serialize())
    assert again == cfg


def test_parse_on_top_of_base():
    base = parse_text("d_model = 32\nheads = 2")
    cfg = parse_text("heads = 4", base=base)
    assert cfg.d_model == 32 and cfg.heads == 4
    assert base.heads == 2  # base untouched


def test_parse_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("max_steps = 7\nseed = 3\n", encoding="utf-8")
    cfg = parse_file(p)
    assert cfg.max_steps == 7 and cfg.seed == 3


def test_to_model_config_maps_and_validates():
    cfg = parse_text("d_model = 8\nheads = 2\nd_ff = 16\ncluster_mode = both")
    mc = cfg.to_model_config(10, 11)
    assert mc.vocab_src == 10 and mc.vocab_tgt == 11
    assert mc.d_model == 8 and mc.cluster_mode == "both"
    full = _set_all(MODEL_VALUES).to_model_config(10, 11)
    for key, raw in MODEL_VALUES.items():
        default = getattr(ModelConfig, key)
        assert getattr(full, key) == type(default)(raw) != default, key
    assert (full.vocab_src, full.vocab_tgt) == (10, 11)
    bad = parse_text("d_model = 8\nheads = 3")
    with pytest.raises(ConfigError):
        bad.to_model_config(10, 10)


def test_to_train_config_validates():
    cfg = parse_text("lr = 0.001\nmax_steps = 5")
    tc = cfg.to_train_config("out")
    assert tc.lr == 0.001 and tc.max_steps == 5 and tc.out_dir == "out"
    full = _set_all(SCHEDULE_VALUES).to_train_config("out")
    for key, raw in SCHEDULE_VALUES.items():
        default = getattr(TrainConfig, key)
        assert getattr(full, key) == type(default)(raw) != default, key
    with pytest.raises(ConfigError):
        parse_text("batch_size = 0").to_train_config("out")
