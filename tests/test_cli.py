"""Command-line surface: every subcommand through main(), exit codes,
byte-level determinism of outputs."""

import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktransformer.cli import EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, main
from ktransformer.metrics import corpus_bleu

from synth import make_copy_corpus

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KTRANSFORMER_RUN_DIR", raising=False)
    return tmp_path


def write_parallel(tmp_path, n=30, seed=0):
    corpus = make_copy_corpus(n, seed=seed, vocab_size=10, min_len=2, max_len=6)
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("\n".join(" ".join(s) for s in corpus.src) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(" ".join(t) for t in corpus.tgt) + "\n", encoding="utf-8")
    return src, tgt


def run_preprocess(tmp_path, out="prep", **kw):
    src, tgt = write_parallel(tmp_path, **kw)
    rc = main([
        "preprocess", "--src", str(src), "--tgt", str(tgt), "--out-dir", str(tmp_path / out),
    ])
    assert rc == EXIT_OK
    return tmp_path / out


def train_cfg_lines(prep, out_dir):
    return "\n".join([
        "d_model = 16",
        "heads = 2",
        "d_ff = 32",
        "layers_enc = 1",
        "layers_dec = 1",
        "dropout = 0.0",
        "max_len = 12",
        "lr = 0.003",
        "max_steps = 12",
        "batch_size = 8",
        "val_interval = 0",
        f"train_src = {prep}/src.tok",
        f"train_tgt = {prep}/tgt.tok",
        f"vocab_src = {prep}/src.vocab",
        f"vocab_tgt = {prep}/tgt.vocab",
        f"out_dir = {out_dir}",
    ]) + "\n"


def run_train(tmp_path, prep, out="run", extra=()):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(train_cfg_lines(prep, tmp_path / out), encoding="utf-8")
    rc = main(["train", "--config", str(cfg), *extra])
    assert rc == EXIT_OK
    return tmp_path / out


# ------------------------------------------------------------ preprocess


def test_preprocess_outputs_and_stats(workdir, capsys):
    prep = run_preprocess(workdir)
    for name in ("src.tok", "tgt.tok", "src.vocab", "tgt.vocab", "stats.txt"):
        assert (prep / name).exists(), name
    out = capsys.readouterr().out
    assert "pairs_total = 30" in out
    assert "pairs_retained = 30" in out
    stats = (prep / "stats.txt").read_text()
    assert "pairs_dropped = 0" in stats
    # token files align with the input line count
    assert len((prep / "src.tok").read_text().splitlines()) == 30


def test_preprocess_rerun_byte_identical(workdir):
    prep1 = run_preprocess(workdir, out="p1")
    prep2 = run_preprocess(workdir, out="p2")
    for name in ("src.tok", "tgt.tok", "src.vocab", "tgt.vocab", "stats.txt"):
        assert (prep1 / name).read_bytes() == (prep2 / name).read_bytes(), name


def test_preprocess_empty_input_is_data_error(workdir, capsys):
    src = workdir / "e.txt"
    tgt = workdir / "f.txt"
    src.write_text("", encoding="utf-8")
    tgt.write_text("", encoding="utf-8")
    rc = main(["preprocess", "--src", str(src), "--tgt", str(tgt), "--out-dir", str(workdir / "p")])
    assert rc == EXIT_DATA
    assert "empty corpus" in capsys.readouterr().err


def test_preprocess_misaligned_is_data_error(workdir):
    src = workdir / "a.txt"
    tgt = workdir / "b.txt"
    src.write_text("one line\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    rc = main(["preprocess", "--src", str(src), "--tgt", str(tgt), "--out-dir", str(workdir / "p")])
    assert rc == EXIT_DATA


def test_preprocess_non_utf8_input_is_data_error(workdir, capsys):
    src, tgt = write_parallel(workdir)
    src.write_bytes(b"w01 \xff w02\n" * 30)
    rc = main(["preprocess", "--src", str(src), "--tgt", str(tgt), "--out-dir", str(workdir / "p")])
    assert rc == EXIT_DATA
    assert f"cannot read {src}" in capsys.readouterr().err
    assert not (workdir / "p").exists()


def test_preprocess_missing_file_is_data_error(workdir):
    rc = main(["preprocess", "--src", "no_such.txt", "--tgt", "also_missing.txt", "--out-dir", str(workdir / "p")])
    assert rc == EXIT_DATA
    assert not (workdir / "p").exists()  # created only after the inputs were read


# ------------------------------------------------------------ train


def test_train_writes_run_dir(workdir):
    prep = run_preprocess(workdir)
    run = run_train(workdir, prep)
    assert (run / "final.ckpt").exists()
    assert (run / "train_log.csv").exists()
    assert (run / "config_resolved.cfg").exists()


def test_train_echoed_config_reparses_identically(workdir):
    from ktransformer.config import parse_file

    prep = run_preprocess(workdir)
    run = run_train(workdir, prep, extra=["--cluster-mode", "both", "--seed", "5"])
    echoed = parse_file(run / "config_resolved.cfg")
    assert echoed.cluster_mode == "both"
    assert echoed.seed == 5
    assert echoed.d_model == 16
    # feeding the echo back reproduces the identical run
    rerun = workdir / "rerun"
    rc = main(["train", "--config", str(run / "config_resolved.cfg"), "--out-dir", str(rerun)])
    assert rc == EXIT_OK
    a = (run / "train_log.csv").read_text().splitlines()
    b = (rerun / "train_log.csv").read_text().splitlines()
    # wall_ms varies; every deterministic column must match
    for la, lb in zip(a, b):
        assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]


def test_train_flag_overrides_win(workdir):
    from ktransformer.config import parse_file

    prep = run_preprocess(workdir)
    run = run_train(workdir, prep, extra=["--max-steps", "3", "--set", "lr=0.001"])
    echoed = parse_file(run / "config_resolved.cfg")
    assert echoed.max_steps == 3
    assert echoed.lr == 0.001
    log = (run / "train_log.csv").read_text().splitlines()
    assert len(log) == 4  # header + 3 steps


def test_train_two_seeds_diverge(workdir):
    prep = run_preprocess(workdir)
    r0 = run_train(workdir, prep, out="s0", extra=["--seed", "0"])
    r1 = run_train(workdir, prep, out="s1", extra=["--seed", "1"])
    a = (r0 / "train_log.csv").read_text()
    b = (r1 / "train_log.csv").read_text()
    assert [l.split(",")[1] for l in a.splitlines()[1:]] != [l.split(",")[1] for l in b.splitlines()[1:]]


def test_train_unknown_config_key_is_usage_error(workdir, capsys):
    prep = run_preprocess(workdir)
    cfg = workdir / "bad.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r") + "warp_speed = 9\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg)])
    assert rc == EXIT_USAGE
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("damaged", ["config", "vocab"])
def test_train_non_utf8_file_is_classified(workdir, capsys, damaged):
    # an undecodable configuration is a usage error, an undecodable corpus file a data error
    prep = run_preprocess(workdir)
    cfg = workdir / "run.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r"), encoding="utf-8")
    target = cfg if damaged == "config" else prep / "src.vocab"
    target.write_bytes(target.read_bytes() + b"\xff\n")
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg)])
    err = capsys.readouterr().err
    if damaged == "config":
        assert rc == EXIT_USAGE and f"cannot read configuration {cfg}" in err
    else:
        assert rc == EXIT_DATA and f"cannot read vocabulary {target}" in err
    assert not (workdir / "r").exists()


def test_train_missing_required_paths_is_usage_error(workdir):
    cfg = workdir / "thin.cfg"
    cfg.write_text("max_steps = 2\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg)])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("fraction", ["-0.5", "1.0", "2.0"])
def test_train_val_fraction_out_of_range_is_usage_error(workdir, capsys, fraction):
    prep = run_preprocess(workdir)
    cfg = workdir / "run.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r"), encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--set", f"val_fraction={fraction}"])
    assert rc == EXIT_USAGE
    assert "val_fraction" in capsys.readouterr().err
    assert not (workdir / "r").exists()


def test_train_validation_without_val_fraction_is_usage_error(workdir, capsys):
    # validation with no share of the pairs to validate on is a contradiction,
    # not a reason to take a training pair anyway
    prep = run_preprocess(workdir)
    cfg = workdir / "run.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r"), encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--set", "val_fraction=0", "--set", "val_interval=2"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "val_interval" in err and "val_fraction" in err
    assert not (workdir / "r").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        pytest.param("lr=nan", "finite", id="lr=nan"),
        pytest.param("lr=inf", "finite", id="lr=inf"),
        pytest.param("grad_clip=nan", "finite", id="grad_clip=nan"),
        pytest.param("batch_size=0", "batch_size must be at least 1", id="batch_size=0"),
        pytest.param("init_seed=-1", "nonnegative", id="init_seed=-1"),
        pytest.param("cluster_seed=-1", "nonnegative", id="cluster_seed=-1"),
    ],
)
def test_train_non_finite_lr_or_clip_is_usage_error(workdir, capsys, setting, message):
    prep = run_preprocess(workdir)
    cfg = workdir / "run.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r"), encoding="utf-8")
    rc = main(["train", "--config", str(cfg), "--set", setting])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (workdir / "r").exists()  # nothing written, not even config_resolved.cfg


def test_train_divergence_exit_code(workdir):
    prep = run_preprocess(workdir)
    cfg = workdir / "div.cfg"
    cfg.write_text(
        train_cfg_lines(prep, workdir / "dv")
        + "lr = 1e200\ngrad_clip = 0\nprecision = f64\nmax_steps = 40\n",
        encoding="utf-8",
    )
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", str(cfg)])
    assert rc == EXIT_DIVERGENCE


def test_train_untrainable_corpus_leaves_no_run_dir(workdir, capsys):
    # every pair is longer than max_len: refused before anything is written
    prep = run_preprocess(workdir)
    cfg = workdir / "short.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r") + "max_len = 1\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert not (workdir / "r").exists()


def test_train_env_var_run_dir(workdir, monkeypatch):
    prep = run_preprocess(workdir)
    env_dir = workdir / "from_env"
    monkeypatch.setenv("KTRANSFORMER_RUN_DIR", str(env_dir))
    cfg = workdir / "noout.cfg"
    cfg.write_text(
        train_cfg_lines(prep, "").replace(f"out_dir = \n", ""), encoding="utf-8"
    )
    # strip the empty out_dir line entirely
    lines = [l for l in cfg.read_text().splitlines() if not l.startswith("out_dir")]
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["train", "--config", str(cfg)])
    assert rc == EXIT_OK
    assert (env_dir / "final.ckpt").exists()


def _run_capped(workdir, *args) -> subprocess.CompletedProcess:
    """``ktransformer.cli`` with ``args``, run in ``workdir`` by a separate
    process whose address space is capped at 3 GB."""
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    return subprocess.run(
        [sys.executable, "-m", "ktransformer.cli", *args],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        preexec_fn=cap_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps the child's address space with RLIMIT_AS")
@pytest.mark.parametrize(
    "setting",
    [
        pytest.param("layers_enc = 1000000000000", id="layers-enc-1e12"),
        pytest.param("d_model = 1000000", id="d-model-1e6"),
    ],
)
def test_train_oversized_model_exits_2_in_bounded_memory(workdir, setting):
    # both once raised numpy's MemoryError with a traceback (exit 1); the
    # model's size is now compared with the machine's memory before it is built
    prep = run_preprocess(workdir)
    cfg = workdir / "big.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r") + setting + "\n", encoding="utf-8")
    run = _run_capped(workdir, "train", "--config", str(cfg))
    assert run.returncode == EXIT_USAGE, run.stderr
    assert run.stderr.startswith("configuration error:") and "Adam moments need" in run.stderr, run.stderr
    assert "Traceback" not in run.stderr
    assert not (workdir / "r").exists()


def test_train_model_beyond_the_address_space_is_usage_error(workdir, capsys, monkeypatch):
    # a model within the machine's memory that this process still cannot allocate
    from ktransformer import cli

    def refuse(config):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli, "KTransformer", refuse)
    prep = run_preprocess(workdir)
    cfg = workdir / "run.cfg"
    cfg.write_text(train_cfg_lines(prep, workdir / "r"), encoding="utf-8")
    assert main(["train", "--config", str(cfg)]) == EXIT_USAGE
    assert "too large to build" in capsys.readouterr().err
    assert not (workdir / "r").exists()


# ------------------------------------------------------------ translate


def _trained_run(workdir, extra=()):
    prep = run_preprocess(workdir)
    run = run_train(workdir, prep, extra=list(extra))
    return prep, run


def test_translate_line_counts_and_determinism(workdir):
    prep, run = _trained_run(workdir)
    inp = workdir / "in.txt"
    inp.write_text("w01 w02 w03\nw04 w05\n\nw06\n", encoding="utf-8")
    out1 = workdir / "out1.txt"
    out2 = workdir / "out2.txt"
    assert main(["translate", "--checkpoint", str(run / "final.ckpt"), "--input", str(inp), "--output", str(out1)]) == EXIT_OK
    assert main(["translate", "--checkpoint", str(run / "final.ckpt"), "--input", str(inp), "--output", str(out2)]) == EXIT_OK
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert lines[2] == ""  # empty source line stays empty
    assert out1.read_bytes() == out2.read_bytes()


def test_translate_missing_checkpoint_is_data_error(workdir):
    inp = workdir / "in.txt"
    inp.write_text("a\n", encoding="utf-8")
    rc = main(["translate", "--checkpoint", "missing.ckpt", "--input", str(inp), "--output", str(workdir / "o.txt")])
    assert rc == EXIT_DATA


def test_translate_checkpoint_without_vocab_is_data_error(workdir):
    from ktransformer.model import KTransformer, ModelConfig
    from ktransformer.trainer import save_checkpoint

    model = KTransformer(ModelConfig(vocab_src=8, vocab_tgt=8, d_model=8, heads=2, d_ff=16,
                                     layers_enc=1, layers_dec=1, max_len=10))
    path = workdir / "bare.ckpt"
    save_checkpoint(model, path)
    inp = workdir / "in.txt"
    inp.write_text("a\n", encoding="utf-8")
    rc = main(["translate", "--checkpoint", str(path), "--input", str(inp), "--output", str(workdir / "o.txt")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("tokens", [["a", "b", "b", "c"], ["a", "b", "c"]])
def test_translate_checkpoint_with_bad_vocab_is_data_error(workdir, tokens):
    # a duplicate token, or fewer tokens than the model's embedding rows
    import json
    import struct

    from ktransformer.corpus import Vocabulary
    from ktransformer.model import KTransformer, ModelConfig
    from ktransformer.trainer import save_checkpoint

    model = KTransformer(ModelConfig(vocab_src=8, vocab_tgt=8, d_model=8, heads=2, d_ff=16,
                                     layers_enc=1, layers_dec=1, max_len=10))
    path = workdir / "v.ckpt"
    vocab = Vocabulary(["a", "b", "c", "d"])
    save_checkpoint(model, path, vocab_src=vocab, vocab_tgt=vocab)
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16 : 16 + mlen])
    manifest["vocab_tgt"] = tokens
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :])
    inp = workdir / "in.txt"
    inp.write_text("a b\n", encoding="utf-8")
    out = workdir / "o.txt"
    rc = main(["translate", "--checkpoint", str(path), "--input", str(inp), "--output", str(out)])
    assert rc == EXIT_DATA
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda m: {**m, "adam": {}}, id="adam-empty"),
        pytest.param(lambda m: {**m, "params": [{}] + m["params"][1:]}, id="param-empty"),
        pytest.param(lambda m: {**m, "params": 5}, id="params-int"),
        pytest.param(lambda m: [m], id="manifest-list"),
        pytest.param(lambda m: {**m, "profile_src": "klingon"}, id="profile-unknown"),
        pytest.param(lambda m: {**m, "note": "edited"}, id="manifest-extra-key"),
        # an embedding table beyond the 128 TiB address space: numpy refuses it at once
        pytest.param(lambda m: {**m, "model_config": {**m["model_config"], "vocab_src": 10**13}}, id="config-huge-vocab"),
    ],
)
def test_translate_malformed_manifest_is_data_error(workdir, capsys, edit):
    import json
    import struct

    from ktransformer.corpus import Vocabulary
    from ktransformer.model import KTransformer, ModelConfig
    from ktransformer.trainer import AdamState, save_checkpoint

    model = KTransformer(ModelConfig(vocab_src=8, vocab_tgt=8, d_model=8, heads=2, d_ff=16,
                                     layers_enc=1, layers_dec=1, max_len=10))
    path = workdir / "m.ckpt"
    vocab = Vocabulary(["a", "b", "c", "d"])
    save_checkpoint(model, path, state=AdamState(model.parameters()), vocab_src=vocab, vocab_tgt=vocab)
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    blob = json.dumps(edit(json.loads(raw[16 : 16 + mlen]))).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :])
    inp = workdir / "in.txt"
    inp.write_text("a b\n", encoding="utf-8")
    out = workdir / "o.txt"
    rc = main(["translate", "--checkpoint", str(path), "--input", str(inp), "--output", str(out)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps the child's address space with RLIMIT_AS")
@pytest.mark.parametrize(
    "edit, reason",
    [
        # once built layer by layer until the process was killed
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "layers_enc": 2**40}},
            "its model configuration implies",
            id="layers-enc-2-40",
        ),
        # once loaded as version 1, since True == 1
        pytest.param(lambda m: {**m, "format_version": True}, "format version True", id="format-version-true"),
        # once loaded with a 1020 MB peak: the positional table is rebuilt, not stored
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "max_len": 10**6}},
            "max_len must be at most",
            id="max-len-10-6",
        ),
    ],
)
def test_translate_crafted_checkpoint_exits_3_in_bounded_memory(workdir, edit, reason):
    # the benchmark fixture with one manifest value edited and its payload and
    # hash left valid, translated by a separate process whose address space is
    # capped, so an unbounded allocation fails here instead of exhausting the
    # machine; the huge model is refused by arithmetic, before anything is built
    raw = (REPO / "bench" / "fixtures" / "copy_d64h4_both.ckpt").read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    blob = json.dumps(edit(json.loads(raw[16 : 16 + mlen]))).encode("utf-8")
    path = workdir / "crafted.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :])
    (workdir / "in.txt").write_text("a b\n", encoding="utf-8")
    run = _run_capped(workdir, "translate", "--checkpoint", str(path), "--input", "in.txt", "--output", "out.txt")
    assert run.returncode == EXIT_DATA, run.stderr
    assert run.stderr.startswith("data error:") and reason in run.stderr and "Traceback" not in run.stderr, run.stderr
    assert not (workdir / "out.txt").exists()


def test_translate_non_finite_checkpoint_is_data_error(workdir, capsys):
    # one NaN in the embedding row of "b": lines without "b" would translate
    from ktransformer.corpus import Vocabulary
    from ktransformer.model import KTransformer, ModelConfig
    from ktransformer.trainer import save_checkpoint

    model = KTransformer(ModelConfig(vocab_src=8, vocab_tgt=8, d_model=8, heads=2, d_ff=16,
                                     layers_enc=1, layers_dec=1, max_len=10))
    vocab = Vocabulary(["a", "b", "c", "d"])
    model.src_embed.data[vocab.id_of("b"), 0] = np.nan
    path = workdir / "nan.ckpt"
    save_checkpoint(model, path, vocab_src=vocab, vocab_tgt=vocab)
    inp = workdir / "in.txt"
    inp.write_text("a b\n", encoding="utf-8")
    out = workdir / "o.txt"
    rc = main(["translate", "--checkpoint", str(path), "--input", str(inp), "--output", str(out)])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_translate_model_beyond_the_address_space_is_data_error(workdir, capsys, monkeypatch):
    # a checkpoint whose model this process cannot allocate, though its file is whole
    from ktransformer import trainer
    from ktransformer.corpus import Vocabulary
    from ktransformer.model import KTransformer, ModelConfig
    from ktransformer.trainer import save_checkpoint

    model = KTransformer(ModelConfig(vocab_src=8, vocab_tgt=8, d_model=8, heads=2, d_ff=16,
                                     layers_enc=1, layers_dec=1, max_len=10))
    vocab = Vocabulary(["a", "b", "c", "d"])
    path = workdir / "m.ckpt"
    save_checkpoint(model, path, vocab_src=vocab, vocab_tgt=vocab)

    def refuse(config, draw_weights=True):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(trainer, "KTransformer", refuse)
    inp = workdir / "in.txt"
    inp.write_text("a b\n", encoding="utf-8")
    rc = main(["translate", "--checkpoint", str(path), "--input", str(inp), "--output", str(workdir / "o.txt")])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith("data error:") and "too large to build" in err and "Traceback" not in err, err
    assert not (workdir / "o.txt").exists()


def test_translate_past_positional_table_is_usage_error(workdir):
    from ktransformer.corpus import Vocabulary
    from ktransformer.model import KTransformer, ModelConfig
    from ktransformer.trainer import save_checkpoint

    vocab = Vocabulary(["a", "b", "c", "d"])
    model = KTransformer(ModelConfig(vocab_src=8, vocab_tgt=8, d_model=8, heads=2, d_ff=16,
                                     layers_enc=1, layers_dec=1, max_len=6))
    # never emits <EOS>: the last layer norm outputs ones and out_proj scores only "a"
    model.decoder[-1].ln3.gain.data[...] = 0.0
    model.decoder[-1].ln3.shift.data[...] = 1.0
    model.out_proj.data[...] = 0.0
    model.out_proj.data[:, vocab.id_of("a")] = 1.0
    path = workdir / "rigged.ckpt"
    save_checkpoint(model, path, vocab_src=vocab, vocab_tgt=vocab)
    inp = workdir / "in.txt"
    inp.write_text("a b\n\nc d b\n", encoding="utf-8")
    out = workdir / "o.txt"
    args = ["translate", "--checkpoint", str(path), "--input", str(inp), "--output", str(out), "--max-out-len"]
    assert main(args + ["7"]) == EXIT_OK  # max_len + 1 tokens still fit the positional table
    assert out.read_text(encoding="utf-8").splitlines() == [" ".join("a" * 7), "", " ".join("a" * 7)]
    out.unlink()
    assert main(args + ["8"]) == EXIT_USAGE
    assert not out.exists()
    # one parser serves every call: a cap given to an earlier call does not carry over
    assert main(args[:-1]) == EXIT_OK
    assert out.read_text(encoding="utf-8").splitlines() == [" ".join("a" * 6), "", " ".join("a" * 6)]
    assert main(args + ["2"]) == EXIT_OK
    assert out.read_text(encoding="utf-8").splitlines() == ["a a", "", "a a"]


def test_translate_unwritable_output_fails_before_decoding(workdir, monkeypatch):
    _, run = _trained_run(workdir)
    inp = workdir / "in.txt"
    inp.write_text("w01 w02\n", encoding="utf-8")

    def never(*args, **kw):
        raise AssertionError("decoded before the output was opened")

    monkeypatch.setattr("ktransformer.model.KTransformer.greedy_translate_batch", never)
    argv = ["translate", "--checkpoint", str(run / "final.ckpt"), "--input", str(inp),
            "--output", str(workdir / "nodir" / "out.txt")]
    assert main(argv) == EXIT_DATA


def test_translate_output_directory_fails_before_loading(workdir, monkeypatch, capsys):
    inp = workdir / "in.txt"
    inp.write_text("w01 w02\n", encoding="utf-8")
    out = workdir / "out"
    out.mkdir()

    def never(*args, **kw):
        raise AssertionError("loaded or decoded before the output was checked")

    monkeypatch.setattr("ktransformer.cli.load_checkpoint", never)
    monkeypatch.setattr("ktransformer.model.KTransformer.greedy_translate_batch", never)
    argv = ["translate", "--checkpoint", "any.ckpt", "--input", str(inp), "--output", str(out)]
    assert main(argv) == EXIT_DATA
    assert "is a directory" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())
    assert sorted(p.name for p in workdir.iterdir()) == ["in.txt", "out"]


def test_translate_non_utf8_input_is_data_error(workdir, capsys):
    _, run = _trained_run(workdir)
    inp = workdir / "in.txt"
    inp.write_bytes(b"w01 \xff\n")
    capsys.readouterr()
    argv = ["translate", "--checkpoint", str(run / "final.ckpt"), "--input", str(inp),
            "--output", str(workdir / "out.txt")]
    assert main(argv) == EXIT_DATA
    assert f"cannot read {inp}" in capsys.readouterr().err
    assert not (workdir / "out.txt").exists()


def test_translate_failed_request_keeps_earlier_output(workdir, monkeypatch):
    _, run = _trained_run(workdir)
    inp = workdir / "in.txt"
    inp.write_text("w01 w02\nw03\n", encoding="utf-8")
    out = workdir / "out.txt"
    argv = ["translate", "--checkpoint", str(run / "final.ckpt"), "--input", str(inp), "--output", str(out)]
    assert main(argv) == EXIT_OK
    before = out.read_bytes()

    def fail(*args, **kw):
        raise ValueError("decoding failed")

    monkeypatch.setattr("ktransformer.model.KTransformer.greedy_translate_batch", fail)
    assert main(argv) == EXIT_USAGE
    assert out.read_bytes() == before
    assert sorted(p.name for p in workdir.iterdir() if p.name.startswith("out")) == ["out.txt"]


def test_translate_empty_input_gives_empty_output(workdir):
    prep, run = _trained_run(workdir)
    inp = workdir / "none.txt"
    inp.write_text("", encoding="utf-8")
    out = workdir / "none_out.txt"
    assert main(["translate", "--checkpoint", str(run / "final.ckpt"), "--input", str(inp), "--output", str(out)]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == ""


# ------------------------------------------------------------ evaluate


def test_evaluate_identity_is_perfect(workdir, capsys):
    ref = workdir / "ref.txt"
    ref.write_text("the cat sat here\nanother test line\n", encoding="utf-8")
    rc = main(["evaluate", "--hyp", str(ref), "--ref", str(ref)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "BLEU = 1.000000" in out
    assert "100.00" in out
    assert "bp = 1.000000" in out


def test_main_calls_the_handler_the_module_holds(workdir, monkeypatch):
    ref = workdir / "ref.txt"
    ref.write_text("a b c\n", encoding="utf-8")
    args = ["evaluate", "--hyp", str(ref), "--ref", str(ref)]
    assert main(args) == EXIT_OK  # the shared parser exists from here on
    seen = []
    monkeypatch.setattr("ktransformer.cli.cmd_evaluate", lambda a: seen.append(a.n) or EXIT_DATA)
    assert main(args + ["--n", "2"]) == EXIT_DATA
    assert seen == [2]


def test_evaluate_agrees_with_library_scoring(workdir, capsys):
    hyp = workdir / "hyp.txt"
    ref = workdir / "ref.txt"
    hyp.write_text("a b c d\nx y\n", encoding="utf-8")
    ref.write_text("a b c e\nx y z\n", encoding="utf-8")
    rc = main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--smooth", "on"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    pairs = [(["a", "b", "c", "d"], ["a", "b", "c", "e"]), (["x", "y"], ["x", "y", "z"])]
    want = corpus_bleu(pairs, smooth=True).score
    assert f"BLEU = {want:.6f}" in out


def test_evaluate_misaligned_is_data_error(workdir):
    hyp = workdir / "h.txt"
    ref = workdir / "r.txt"
    hyp.write_text("a\nb\n", encoding="utf-8")
    ref.write_text("a\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == EXIT_DATA


def test_evaluate_non_utf8_input_is_data_error(workdir, capsys):
    hyp = workdir / "h.txt"
    ref = workdir / "r.txt"
    hyp.write_bytes(b"a \xff\n")
    ref.write_text("a b\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == EXIT_DATA
    assert f"cannot read {hyp}" in capsys.readouterr().err


def test_evaluate_empty_reference_line_is_data_error(workdir, capsys):
    hyp = workdir / "h.txt"
    ref = workdir / "r.txt"
    hyp.write_text("a\n", encoding="utf-8")
    ref.write_text("\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == EXIT_DATA
    # two empty files hold no line to score
    hyp.write_text("", encoding="utf-8")
    ref.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("n", [0, -1])
def test_evaluate_order_below_one_is_usage_error(workdir, capsys, n):
    ref = workdir / "ref.txt"
    ref.write_text("a b c\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(ref), "--ref", str(ref), "--n", str(n)]) == EXIT_USAGE
    assert "invalid arguments" in capsys.readouterr().err


# ------------------------------------------------------------ report


def _report_inputs(workdir):
    rng = np.random.default_rng(4)
    vocab = [f"t{i}" for i in range(8)]
    refs, sys_a, sys_b = [], [], []
    for _ in range(24):
        n = int(rng.integers(2, 14))
        ref = [vocab[int(rng.integers(0, 8))] for _ in range(n)]
        refs.append(ref)
        sys_a.append(ref[: max(1, n - 1)])        # near-copy system
        sys_b.append(list(reversed(ref)))          # scrambled system
    ref_f = workdir / "r.txt"
    a_f = workdir / "a.txt"
    b_f = workdir / "b.txt"
    for path, rows in ((ref_f, refs), (a_f, sys_a), (b_f, sys_b)):
        path.write_text("\n".join(" ".join(r) for r in rows) + "\n", encoding="utf-8")
    return ref_f, a_f, b_f, refs, sys_a, sys_b


def test_report_csv_matches_manual_rescore(workdir):
    ref_f, a_f, b_f, refs, sys_a, sys_b = _report_inputs(workdir)
    out = workdir / "rep"
    rc = main([
        "report", "--system", f"near={a_f}", "--system", f"rev={b_f}",
        "--ref", str(ref_f), "--buckets", "4,8", "--out-dir", str(out),
    ])
    assert rc == EXIT_OK
    rows = list(csv.DictReader((out / "report.csv").read_text().splitlines()))
    assert {r["system"] for r in rows} == {"near", "rev"}
    for row in rows:
        lo = int(row["bucket_low"])
        hi = math.inf if row["bucket_high"] == "inf" else int(row["bucket_high"])
        hyps = sys_a if row["system"] == "near" else sys_b
        manual = [(h, r) for h, r in zip(hyps, refs) if lo < len(r) <= hi]
        assert int(row["pair_count"]) == len(manual)
        if manual:
            want = corpus_bleu(manual)
            assert row["bleu"] == f"{want.score:.6f}"
            assert row["bp"] == f"{want.bp:.6f}"
        else:
            assert row["bleu"] == ""


def test_report_svg_written_and_deterministic(workdir):
    ref_f, a_f, b_f, *_ = _report_inputs(workdir)
    outs = []
    for name in ("rep1", "rep2"):
        out = workdir / name
        rc = main([
            "report", "--system", f"near={a_f}", "--system", f"rev={b_f}",
            "--ref", str(ref_f), "--out-dir", str(out),
        ])
        assert rc == EXIT_OK
        outs.append((out / "report.svg").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"<svg")


def test_report_duplicate_system_name_is_usage_error(workdir):
    ref_f, a_f, b_f, *_ = _report_inputs(workdir)
    rc = main([
        "report", "--system", f"x={a_f}", "--system", f"x={b_f}",
        "--ref", str(ref_f), "--out-dir", str(workdir / "rep"),
    ])
    assert rc == EXIT_USAGE


def test_report_bad_bucket_spec_is_usage_error(workdir):
    ref_f, a_f, *_ = _report_inputs(workdir)
    rc = main([
        "report", "--system", f"x={a_f}", "--ref", str(ref_f),
        "--buckets", "10,5", "--out-dir", str(workdir / "rep"),
    ])
    assert rc == EXIT_USAGE


def test_report_source_lengths_change_bucketing(workdir):
    ref_f, a_f, b_f, refs, *_ = _report_inputs(workdir)
    # a source file with every line length 1 puts every pair in the first bucket
    src_f = workdir / "s.txt"
    src_f.write_text("\n".join("z" for _ in refs) + "\n", encoding="utf-8")
    out = workdir / "rep_src"
    rc = main([
        "report", "--system", f"x={a_f}", "--ref", str(ref_f),
        "--src", str(src_f), "--buckets", "4,8", "--out-dir", str(out),
    ])
    assert rc == EXIT_OK
    rows = list(csv.DictReader((out / "report.csv").read_text().splitlines()))
    assert int(rows[0]["pair_count"]) == len(refs)
    assert all(int(r["pair_count"]) == 0 for r in rows[1:])


@pytest.mark.parametrize("damage", ["hyp-short", "src-short", "ref-empty-line", "all-empty"])
def test_report_misaligned_or_empty_reference_is_data_error(workdir, capsys, damage):
    ref_f, a_f, b_f, refs, *_ = _report_inputs(workdir)
    src_f = workdir / "s.txt"
    src_f.write_text("\n".join("z" for _ in refs) + "\n", encoding="utf-8")
    if damage == "all-empty":
        for path in (ref_f, a_f, b_f, src_f):
            path.write_text("", encoding="utf-8")
    else:
        path = {"hyp-short": b_f, "src-short": src_f, "ref-empty-line": ref_f}[damage]
        lines = path.read_text(encoding="utf-8").splitlines()
        if damage == "ref-empty-line":
            lines[3] = ""
        else:
            lines.pop()
        path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    out = workdir / "rep"
    rc = main([
        "report", "--system", f"near={a_f}", "--system", f"rev={b_f}", "--ref", str(ref_f),
        "--src", str(src_f), "--out-dir", str(out),
    ])
    assert rc == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ unwritable outputs


@pytest.mark.parametrize("command", ["translate-into-missing-dir", "report-out-dir-is-file", "preprocess-out-dir-is-file"])
def test_unwritable_output_is_data_error(workdir, capsys, command):
    blocker = workdir / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    if command == "translate-into-missing-dir":
        _, run = _trained_run(workdir)
        inp = workdir / "in.txt"
        inp.write_text("w01 w02\n", encoding="utf-8")
        argv = ["translate", "--checkpoint", str(run / "final.ckpt"), "--input", str(inp),
                "--output", str(workdir / "nodir" / "out.txt")]
    elif command == "report-out-dir-is-file":
        ref_f, a_f, *_ = _report_inputs(workdir)
        argv = ["report", "--system", f"x={a_f}", "--ref", str(ref_f), "--out-dir", str(blocker)]
    else:
        src, tgt = write_parallel(workdir)
        argv = ["preprocess", "--src", str(src), "--tgt", str(tgt), "--out-dir", str(blocker)]
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    out, err = capsys.readouterr()
    assert "data error:" in err and out == ""
    assert not (workdir / "nodir").exists()
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


# ------------------------------------------------------------ parser


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == EXIT_USAGE


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == EXIT_USAGE


def test_bad_flag_value_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["preprocess", "--src", "a", "--tgt", "b", "--out-dir", "c", "--profile-src", "nope"])
    assert e.value.code == EXIT_USAGE
