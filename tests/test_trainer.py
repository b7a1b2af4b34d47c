"""Optimizer math, checkpoint format, and the training loop."""

import csv
import hashlib
import json
import math
import os
import signal
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ktransformer.model import KTransformer, ModelConfig
from ktransformer.tensor import Tensor
from ktransformer.trainer import (
    AdamState,
    CheckpointError,
    DivergenceError,
    TrainConfig,
    adam_step,
    clip_global_norm,
    corpus_greedy_bleu,
    load_checkpoint,
    save_checkpoint,
    train,
)

from synth import make_copy_corpus, vocab_pair


def single_param(value, lr=0.1):
    p = {"w": Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)}
    return p, AdamState(p, lr=lr)


def step_with(params, grads, state, **kw):
    """``adam_step`` with ``grads`` handed over as the parameters' ``grad``."""
    for name, g in grads.items():
        params[name].grad = g
    return adam_step(params, state, **kw)


def tiny_model(**kw):
    base = dict(
        vocab_src=10,
        vocab_tgt=10,
        d_model=8,
        heads=2,
        d_ff=16,
        layers_enc=1,
        layers_dec=1,
        dropout=0.0,
        max_len=12,
        precision="f64",
    )
    base.update(kw)
    return KTransformer(ModelConfig(**base))


# ------------------------------------------------------------ adam


def test_zero_gradient_leaves_parameter_unchanged():
    params, state = single_param([1.0, -2.0])
    before = params["w"].data.copy()
    step_with(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"].data, before)
    assert state.t == 1


def test_first_step_moves_by_lr_times_sign():
    params, state = single_param([0.0, 0.0], lr=0.1)
    step_with(params, {"w": np.array([0.5, -3.0])}, state)
    # bias correction makes the first update exactly lr * g/(|g| + eps')
    assert np.allclose(params["w"].data, [-0.1, 0.1], atol=1e-6)


def test_quadratic_descends_in_five_steps():
    params, state = single_param([2.0], lr=0.2)
    losses = []
    for _ in range(5):
        w = float(params["w"].data[0])
        losses.append(w * w)
        step_with(params, {"w": np.array([2.0 * w])}, state)
    w = float(params["w"].data[0])
    assert w * w < losses[0]
    assert losses == sorted(losses, reverse=True)


def test_lr_zero_is_identity_but_still_counts():
    params, state = single_param([1.0, 2.0], lr=0.0)
    before = params["w"].data.copy()
    step_with(params, {"w": np.array([5.0, -5.0])}, state)
    assert np.array_equal(params["w"].data, before)
    assert state.t == 1
    assert np.any(state.m["w"] != 0.0)  # moments still track the gradient


def test_negative_lr_rejected():
    p = {"w": Tensor(np.zeros(1), requires_grad=True)}
    with pytest.raises(ValueError):
        AdamState(p, lr=-0.1)


def test_lr_scale_applies_warmup_fraction():
    pa, sa = single_param([1.0], lr=0.1)
    pb, sb = single_param([1.0], lr=0.05)
    g = {"w": np.array([2.0])}
    step_with(pa, dict(g), sa, lr_scale=0.5)
    step_with(pb, dict(g), sb, lr_scale=1.0)
    assert np.allclose(pa["w"].data, pb["w"].data, atol=1e-12)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_numpy_lr_scale_keeps_parameter_dtype(precision):
    # a numpy float64 scale must not promote f32 parameters (their moments
    # stay f32, and the next forward would mix dtypes)
    runs = []
    for lr_scale in (0.5, np.float64(0.5)):
        model = tiny_model(precision=precision)
        params = model.parameters()
        state = AdamState(params, lr=0.01)
        grads = {name: np.full(p.data.shape, 0.25, dtype=p.data.dtype) for name, p in params.items()}
        step_with(params, grads, state, lr_scale=lr_scale)
        assert all(p.data.dtype == model.dtype for p in params.values())
        model.encode(np.array([4, 5, 6]))
        runs.append(b"".join(p.data.tobytes() for p in params.values()))
    assert runs[0] == runs[1]


def test_nonfinite_gradient_rejected_before_mutation():
    params, state = single_param([1.0, 2.0])
    before = params["w"].data.copy()
    with pytest.raises(DivergenceError):
        step_with(params, {"w": np.array([np.nan, 0.0])}, state)
    assert np.array_equal(params["w"].data, before)
    assert state.t == 0
    assert np.all(state.m["w"] == 0.0)

    # a model's flat buffers: a NaN in a middle tensor names that tensor and
    # changes no parameter or moment byte
    model = tiny_model()
    params = model.parameters()
    state = AdamState(params, lr=0.01)
    rng = np.random.default_rng(3)
    step_with(params, {n: rng.normal(size=p.data.shape) for n, p in params.items()}, state)
    names = list(params)
    middle = names[len(names) // 2]
    grads = {n: rng.normal(size=p.data.shape) for n, p in params.items()}
    grads[middle].flat[-1] = np.inf
    grads[names[-1]].flat[0] = np.nan  # a later tensor is not the one named
    snapshot = {n: (p.data.tobytes(), state.m[n].tobytes(), state.v[n].tobytes()) for n, p in params.items()}
    with pytest.raises(DivergenceError, match=f"non-finite gradient for '{middle}'"):
        step_with(params, grads, state)
    assert state.t == 1
    assert {n: (p.data.tobytes(), state.m[n].tobytes(), state.v[n].tobytes()) for n, p in params.items()} == snapshot


def _clip_per_tensor(grads, cap):
    """The oracle of the flat clip: each tensor's float64 sum of squares,
    added in order, and each tensor scaled by cap/norm when the norm exceeds
    cap. Returns the norm and the clipped gradients."""
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if cap > 0 and norm > cap:
        grads = {name: g * (cap / norm) for name, g in grads.items()}
    return norm, grads


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_flat_adam_matches_per_tensor_formula(precision):
    # five steps under warmup, one parameter rebound between steps and one
    # gradient None, unclipped and clipped at every step, against the
    # per-tensor clip and update applied tensor by tensor: norms, parameters
    # and moments byte for byte, with every parameter ending as a view into
    # the state's one flat buffer
    for cap in (0.0, 0.5):
        model = tiny_model(precision=precision)
        params = model.parameters()
        assert any(p.data.ndim == 0 for p in params.values())  # the cluster gates
        state = AdamState(params, lr=0.01)
        want = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(w) for n, w in want.items()}
        v = {n: np.zeros_like(w) for n, w in want.items()}
        rng = np.random.default_rng(5)
        for t in range(1, 6):
            if t == 3:
                model.tgt_embed.data = model.tgt_embed.data * 0.5
                want["tgt_embed"] = want["tgt_embed"] * 0.5
            grads = {n: rng.normal(size=p.data.shape).astype(p.data.dtype) for n, p in params.items()}
            grads["enc0.ffn.b1"] = None  # no gradient reached it: Adam sees zeros
            lr_scale = min(1.0, t / 4)
            norm = step_with(params, grads, state, lr_scale=lr_scale, grad_clip=cap)
            assert all(p.grad is None for p in params.values())
            grads["enc0.ffn.b1"] = np.zeros_like(want["enc0.ffn.b1"])
            want_norm, grads = _clip_per_tensor(grads, cap)
            assert norm == want_norm and (cap == 0 or norm > cap)
            bc1, bc2, lr = 1.0 - 0.9**t, 1.0 - 0.999**t, 0.01 * lr_scale
            for name in want:
                g = grads[name]
                m[name] *= 0.9
                m[name] += (1.0 - 0.9) * g
                v[name] *= 0.999
                v[name] += (1.0 - 0.999) * (g * g)
                want[name] = want[name] - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)
            for name, p in params.items():
                assert p.data.dtype == model.dtype
                assert p.data.tobytes() == want[name].tobytes(), (cap, t, name)
                assert state.m[name].tobytes() == m[name].tobytes() and state.v[name].tobytes() == v[name].tobytes()
        flat = state.flat_params
        assert all(np.shares_memory(p.data, flat) for p in params.values())
        assert flat.tobytes() == b"".join(p.data.tobytes() for p in params.values())


def test_gradient_name_mismatch_rejected():
    # the gradients come with the parameters, whose names must be the state's
    params, state = single_param([1.0])
    with pytest.raises(ValueError, match="do not match the optimizer state"):
        adam_step({"other": params["w"]}, state)
    with pytest.raises(ValueError, match="do not match the optimizer state"):
        adam_step({}, state)


def test_gradient_shape_mismatch_rejected():
    params, state = single_param([1.0, 2.0])
    with pytest.raises(ValueError):
        step_with(params, {"w": np.zeros(3)}, state)


def test_adam_matches_reference_formula():
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=4)
    params, state = single_param(w0, lr=0.01)
    # independent reference implementation
    m = np.zeros(4)
    v = np.zeros(4)
    w = w0.copy()
    for t in range(1, 6):
        g = rng.normal(size=4)
        step_with(params, {"w": g.copy()}, state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        w = w - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(params["w"].data, w, atol=1e-12)


# ------------------------------------------------------------ clipping


def test_clip_noop_below_cap():
    g = np.array([0.3, 0.4])  # norm 0.5
    norm = clip_global_norm(g, [0, 2], 1.0)
    assert abs(norm - 0.5) < 1e-12
    assert np.array_equal(g, [0.3, 0.4])


def test_clip_rescales_to_cap_preserving_direction():
    g = np.array([3.0, 0.0, 4.0])  # tensors [3, 0] and [4]: norm 5
    norm = clip_global_norm(g, [0, 2, 3], 1.0)
    assert abs(norm - 5.0) < 1e-12
    assert abs(np.sqrt(float((g * g).sum())) - 1.0) < 1e-12
    assert np.allclose(g, [0.6, 0.0, 0.8], atol=1e-12)


def test_clip_zero_cap_disables():
    g = np.array([30.0, 40.0])
    norm = clip_global_norm(g, [0, 2], 0.0)
    assert abs(norm - 50.0) < 1e-12
    assert np.array_equal(g, [30.0, 40.0])


# ------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = tiny_model(vocab_src=6, vocab_tgt=5)  # the sizes of the vocabularies saved with it
    params = model.parameters()
    state = AdamState(params, lr=0.01)
    rng = np.random.default_rng(1)
    for _ in range(3):
        grads = {n: rng.normal(size=p.data.shape) for n, p in params.items()}
        step_with(params, grads, state)
    path = tmp_path / "model.ckpt"
    from ktransformer.corpus import Vocabulary

    save_checkpoint(model, path, state=state, vocab_src=Vocabulary(["a", "b"]), vocab_tgt=Vocabulary(["x"]),
                    profile_src="space_tokenized", profile_tgt="char_tokenized")
    loaded = load_checkpoint(path)
    assert loaded.model.config == model.config
    for name, p in model.parameters().items():
        assert loaded.model.parameters()[name].data.tobytes() == p.data.tobytes(), name
    assert loaded.state.t == 3
    for name in params:
        assert loaded.state.m[name].tobytes() == state.m[name].tobytes()
        assert loaded.state.v[name].tobytes() == state.v[name].tobytes()
    assert loaded.vocab_src.regular_tokens() == ["a", "b"]
    assert loaded.vocab_tgt.regular_tokens() == ["x"]
    assert loaded.profile_src == "space_tokenized"
    assert loaded.profile_tgt == "char_tokenized"


def _rewrite_manifest(path, edit=None, **changes):
    """Replace manifest entries of a saved checkpoint, and then the whole
    manifest by ``edit(manifest)`` if given, keeping its buffer."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16 : 16 + mlen])
    manifest.update(changes)
    if edit is not None:
        manifest = edit(manifest)
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :])


@pytest.mark.parametrize(
    "vocab_src, match",
    [
        (["a", "b", "a", "c", "d", "e"], "duplicate"),
        (["a", "b", "<PAD>", "c", "d", "e"], "special"),
        (["a", "b", "c", "d", "e"], "has 9 ids, the model has 10"),
        ([1, 2, 3, 4, 5, 6], "token strings"),
    ],
)
def test_checkpoint_with_bad_vocabulary_is_checkpoint_error(tmp_path, vocab_src, match):
    from ktransformer.corpus import Vocabulary

    path = tmp_path / "v.ckpt"
    words = ["a", "b", "c", "d", "e", "f"]
    save_checkpoint(tiny_model(), path, vocab_src=Vocabulary(words), vocab_tgt=Vocabulary(words))
    assert len(load_checkpoint(path).vocab_src) == 10
    _rewrite_manifest(path, vocab_src=vocab_src)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def _edit_param(m, i, **changes):
    params = list(m["params"])
    params[i] = {**params[i], **changes}
    return {**m, "params": params}


def _edit_adam(m, **changes):
    return {**m, "adam": {**m["adam"], **changes}}


@pytest.mark.parametrize(
    "edit, match",
    [
        pytest.param(lambda m: {**m, "adam": {}}, "malformed optimizer state", id="adam-empty"),
        pytest.param(lambda m: _edit_adam(m, lr="fast"), "malformed optimizer state", id="adam-lr-str"),
        pytest.param(lambda m: _edit_adam(m, lr=-1.0), "invalid optimizer state", id="adam-lr-neg"),
        # json writes a NaN float as the literal NaN, which json.loads reads back
        pytest.param(lambda m: _edit_adam(m, lr=float("nan")), "invalid optimizer state", id="adam-lr-nan"),
        # a step counter of -1 makes the next bias correction divide by zero
        pytest.param(lambda m: _edit_adam(m, t=-1), "malformed optimizer state", id="adam-t-negative"),
        pytest.param(lambda m: _edit_adam(m, t=True), "malformed optimizer state", id="adam-t-bool"),
        pytest.param(lambda m: _edit_adam(m, beta1=1.0), r"manifest\.adam\.beta1 differs", id="adam-beta1-one"),
        # in range, but not the constant that every checkpoint is written with
        pytest.param(lambda m: _edit_adam(m, eps=1e-7), r"manifest\.adam\.eps differs", id="adam-eps-other"),
        pytest.param(lambda m: _edit_adam(m, moments=5), r"manifest\.adam\.moments differs", id="moments-int"),
        pytest.param(
            # every v buffer relabelled as an m buffer: the v moments would load as zeros
            lambda m: _edit_adam(m, moments=[{**e, "name": "m" + e["name"][1:]} for e in m["adam"]["moments"]]),
            r"manifest\.adam\.moments\[\d+\] \('v\.src_embed'\)\.name differs",
            id="moments-v-as-m",
        ),
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "d_model": 8.0}},
            "d_model must be int",
            id="config-float-width",
        ),
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "heads": True}},
            "heads must be int",
            id="config-bool-heads",
        ),
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "cluster_seed": -1}},
            "init_seed and cluster_seed must be nonnegative",
            id="config-negative-cluster-seed",
        ),
        # parameter counts that the payload cannot hold, rejected before anything is built
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "vocab_src": 10**13}},
            "buffer holds 39648 bytes, its model configuration implies",
            id="config-huge-vocab",
        ),
        # a positional table beyond the 128 TiB address space, refused by the bound on max_len
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "max_len": 10**17}},
            "max_len must be at most",
            id="config-huge-max-len",
        ),
        # past numpy's index range, which only arithmetic on Python ints can count
        pytest.param(
            lambda m: {**m, "model_config": {**m["model_config"], "vocab_src": 10**19}},
            "buffer holds 39648 bytes, its model configuration implies",
            id="config-vocab-past-index-range",
        ),
        pytest.param(lambda m: {**m, "params": [{}] + m["params"][1:]}, r"params\[0\] \('src_embed'\)", id="param-empty"),
        pytest.param(
            lambda m: {**m, "params": [{k: v for k, v in e.items() if k != "offset"} for e in m["params"]]},
            r"manifest\.params\[0\] \('src_embed'\)\.offset differs",
            id="param-no-offset",
        ),
        pytest.param(lambda m: {**m, "params": 5}, r"manifest\.params differs", id="params-int"),
        pytest.param(lambda m: _edit_param(m, 0, name=7), r"params\[0\] \('src_embed'\)\.name differs", id="param-name-int"),
        pytest.param(lambda m: _edit_param(m, 0, shape="10x8"), r"\('src_embed'\)\.shape differs", id="shape-str"),
        pytest.param(lambda m: _edit_param(m, 0, shape=[8, 10]), r"\('src_embed'\)\.shape\[0\] differs", id="shape-transposed"),
        pytest.param(lambda m: _edit_param(m, 0, nbytes=8), r"\('src_embed'\)\.nbytes differs", id="nbytes-short"),
        # keys that save_checkpoint never writes, though nothing reads them
        pytest.param(lambda m: {**m, "note": "edited"}, r"manifest\.note differs", id="manifest-extra-key"),
        pytest.param(lambda m: _edit_param(m, 0, scale=1), r"\('src_embed'\)\.scale differs", id="param-entry-extra-key"),
        pytest.param(lambda m: [m], "not a JSON object", id="manifest-list"),
        pytest.param(lambda m: {**m, "profile_src": "klingon"}, "unknown profile_src", id="profile-src"),
        pytest.param(lambda m: {**m, "profile_tgt": 3}, "unknown profile_tgt", id="profile-tgt"),
    ],
)
def test_malformed_manifest_is_checkpoint_error(tmp_path, edit, match):
    from ktransformer.corpus import Vocabulary

    model = tiny_model()
    path = tmp_path / "m.ckpt"
    words = ["a", "b", "c", "d", "e", "f"]
    save_checkpoint(model, path, state=AdamState(model.parameters()), vocab_src=Vocabulary(words),
                    vocab_tgt=Vocabulary(words), profile_src="space_tokenized", profile_tgt="char_tokenized")
    assert load_checkpoint(path).state is not None
    _rewrite_manifest(path, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def test_saving_a_loaded_checkpoint_rewrites_it_byte_for_byte(tmp_path):
    # save(load(f)) == f: the loader accepts only the manifest that
    # save_checkpoint writes for what it loaded, and reads every value exactly
    from ktransformer.corpus import Vocabulary

    model = tiny_model(vocab_src=6, vocab_tgt=5)
    params = model.parameters()
    state = AdamState(params, lr=0.01)
    rng = np.random.default_rng(2)
    for _ in range(3):
        step_with(params, {n: rng.normal(size=p.data.shape) for n, p in params.items()}, state)
    own = tmp_path / "f64.ckpt"
    save_checkpoint(model, own, state=state, vocab_src=Vocabulary(["a", "b"]), vocab_tgt=Vocabulary(["é"]),
                    profile_src="space_tokenized", profile_tgt="char_tokenized")
    fixture = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "copy_d64h4_both.ckpt"
    for path in (own, fixture):
        loaded = load_checkpoint(path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded.model, again, state=loaded.state, vocab_src=loaded.vocab_src, vocab_tgt=loaded.vocab_tgt,
                        profile_src=loaded.profile_src, profile_tgt=loaded.profile_tgt)
        assert again.read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("name", ["src_embed", "v.src_embed"])
def test_non_finite_checkpoint_value_is_checkpoint_error(tmp_path, precision, name):
    # the buffer hash proves only that the bytes are intact: a NaN weight or
    # moment must still not load
    model = tiny_model(precision=precision)
    state = AdamState(model.parameters())
    target = state.v["src_embed"] if name.startswith("v.") else model.src_embed.data
    target[5, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path, state=state)
    with pytest.raises(CheckpointError, match=f"non-finite values in '{name}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_non_finite_checkpoint_names_first_buffer_in_file_order(tmp_path, precision):
    # tgt_embed's last value comes before out_proj's first and every moment
    model = tiny_model(precision=precision)
    state = AdamState(model.parameters())
    model.out_proj.data[0, 0] = np.inf
    state.m["src_embed"][0, 0] = np.nan
    model.tgt_embed.data[-1, -1] = -np.inf
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path, state=state)
    with pytest.raises(CheckpointError, match="non-finite values in 'tgt_embed'"):
        load_checkpoint(path)


def test_checkpoint_without_optimizer_state(tmp_path):
    model = tiny_model()
    path = tmp_path / "bare.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.state is None
    assert loaded.vocab_src is None


def test_checkpoint_f32_round_trip(tmp_path):
    model = tiny_model(precision="f32")
    path = tmp_path / "f32.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for name, p in model.parameters().items():
        got = loaded.model.parameters()[name]
        assert got.data.dtype == np.float32
        assert got.data.tobytes() == p.data.tobytes()


def test_corrupted_trailing_byte_detected(tmp_path):
    model = tiny_model()
    path = tmp_path / "c.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_file_detected(tmp_path):
    model = tiny_model()
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTAFMT1" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_mismatch_detected(tmp_path):
    model = tiny_model()
    path = tmp_path / "v.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16 : 16 + mlen])
    manifest["format_version"] = 2
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_payload_cut_after_a_valid_manifest_or_with_a_byte_appended_is_checkpoint_error(tmp_path):
    model = tiny_model()
    path = tmp_path / "p.ckpt"
    save_checkpoint(model, path, state=AdamState(model.parameters()))
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    for edited in (raw[: 16 + mlen + 100], raw + b"\0"):
        path.write_bytes(edited)
        with pytest.raises(CheckpointError, match=f"buffer holds {len(edited) - 16 - mlen} bytes"):
            load_checkpoint(path)


def test_short_reads_fill_the_payload_and_a_file_that_ends_early_is_truncated(tmp_path, monkeypatch):
    import ktransformer.trainer as trainer

    model = tiny_model()
    path = tmp_path / "r.ckpt"
    save_checkpoint(model, path, state=AdamState(model.parameters()))
    real_open = open
    payload = path.stat().st_size - 16 - struct.unpack("<Q", path.read_bytes()[8:16])[0]

    class Trickle:
        # hands at most 7 bytes per read, and none past ``limit`` bytes
        def __init__(self, f, limit):
            self.f, self.left = f, limit

        def readinto(self, view):
            n = self.f.readinto(view[: min(7, len(view), self.left)])
            self.left -= n
            return n

        def fileno(self):
            return self.f.fileno()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(trainer, "open", lambda p, *a, **k: Trickle(real_open(p, *a, **k), 10**9), raising=False)
    loaded = load_checkpoint(path)
    for name, p in model.parameters().items():
        assert loaded.model.parameters()[name].data.tobytes() == p.data.tobytes(), name
    # a file that fstat sees whole but whose reads end halfway through the payload
    cut = path.stat().st_size - payload // 2
    monkeypatch.setattr(trainer, "open", lambda p, *a, **k: Trickle(real_open(p, *a, **k), cut), raising=False)
    with pytest.raises(CheckpointError, match="is truncated"):
        load_checkpoint(path)


def test_model_too_large_to_allocate_on_load_is_checkpoint_error(tmp_path, monkeypatch):
    import ktransformer.trainer as trainer

    path = tmp_path / "big.ckpt"
    save_checkpoint(tiny_model(), path)

    def refuse(config, draw_weights=True):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(trainer, "KTransformer", refuse)
    with pytest.raises(CheckpointError, match="too large to build"):
        load_checkpoint(path)


def test_checkpoint_that_is_not_a_regular_file_is_checkpoint_error():
    # a pipe or device has no size to check the payload's length against
    with pytest.raises(CheckpointError, match="not a regular file"):
        load_checkpoint(os.devnull)


@pytest.mark.parametrize("with_state", [False, True])
def test_load_holds_the_payload_once(tmp_path, with_state):
    # the payload is read straight into the buffers it stays in, not into
    # bytes that are then copied
    model = tiny_model(vocab_src=400, vocab_tgt=400, d_model=16, d_ff=64)
    path = tmp_path / "w.ckpt"
    save_checkpoint(model, path, state=AdamState(model.parameters()) if with_state else None)
    payload = model.config.parameter_count() * 8 * (3 if with_state else 1)
    load_checkpoint(path)  # imports and caches warmed up
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * payload, peak / payload


def test_values_written_little_endian_regardless_of_source_order(tmp_path):
    # simulate a big-endian producer: parameters held in swapped byte order
    # must serialize to the identical file
    a = tiny_model()
    b = tiny_model()
    for p in b.parameters().values():
        p.data = p.data.astype(">f8")
    pa, pb = tmp_path / "native.ckpt", tmp_path / "swapped.ckpt"
    save_checkpoint(a, pa)
    save_checkpoint(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    loaded = load_checkpoint(pb)
    for name, p in a.parameters().items():
        assert loaded.model.parameters()[name].data.tobytes() == p.data.tobytes()


def test_checkpoint_atomic_replace(tmp_path):
    model = tiny_model()
    path = tmp_path / "a.ckpt"
    save_checkpoint(model, path)
    first = path.read_bytes()
    save_checkpoint(model, path)  # overwrite in place
    assert path.read_bytes() == first
    assert list(tmp_path.iterdir()) == [path]  # no temp litter


def _joined_checkpoint_bytes(model, state, **meta) -> bytes:
    """The file as the payload-joining formula built it: every buffer
    converted with ``astype(...).tobytes()`` and joined before hashing."""
    from ktransformer import trainer

    params = model.parameters()
    contents = trainer.LoadedCheckpoint(model, state, meta.get("vocab_src"), meta.get("vocab_tgt"),
                                        meta.get("profile_src"), meta.get("profile_tgt"))
    buffer = b"".join(
        arr.astype(trainer._dtype_code(arr.dtype), copy=False).tobytes() for _, arr in trainer._layout(params, state)
    )
    manifest = trainer._manifest(contents, params, hashlib.sha256(buffer).hexdigest())
    blob = json.dumps(manifest, ensure_ascii=False, sort_keys=True).encode("utf-8")
    return trainer.CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + buffer


@pytest.mark.parametrize("with_state", [False, True])
def test_streamed_save_writes_the_joined_payloads_bytes(tmp_path, with_state):
    # one parameter rebound to a strided view, one stored big-endian and, with
    # optimizer state, one moment of each kind: the file is the one the
    # joining formula builds, and it loads back to the same values
    from ktransformer.corpus import Vocabulary

    model = tiny_model(precision="f32", vocab_src=6, vocab_tgt=5)
    params = model.parameters()
    state = AdamState(params, lr=0.01) if with_state else None
    rng = np.random.default_rng(3)
    if state is not None:
        step_with(params, {n: rng.normal(size=p.data.shape) for n, p in params.items()}, state)
    wide = np.zeros((params["out_proj"].data.shape[0], 2 * params["out_proj"].data.shape[1]), dtype=np.float32)
    wide[:, ::2] = params["out_proj"].data
    params["out_proj"].data = wide[:, ::2]
    params["src_embed"].data = params["src_embed"].data.astype(">f4")
    assert not params["out_proj"].data.flags.c_contiguous
    if state is not None:
        state.m["tgt_embed"] = np.asfortranarray(state.m["tgt_embed"])
        state.v["out_proj"] = state.v["out_proj"].astype(">f4")
        assert not state.m["tgt_embed"].flags.c_contiguous
    meta = dict(vocab_src=Vocabulary(["a", "b"]), vocab_tgt=Vocabulary(["x"]), profile_src="space_tokenized")
    path = tmp_path / "streamed.ckpt"
    save_checkpoint(model, path, state=state, **meta)
    assert path.read_bytes() == _joined_checkpoint_bytes(model, state, **meta)
    loaded = load_checkpoint(path)
    for name, p in params.items():
        assert loaded.model.parameters()[name].data.tobytes() == p.data.astype("<f4").tobytes(), name
    if state is not None:
        for name in params:
            assert loaded.state.m[name].tobytes() == state.m[name].astype("<f4").tobytes(), name
            assert loaded.state.v[name].tobytes() == state.v[name].astype("<f4").tobytes(), name


def test_failed_checkpoint_replace_keeps_the_earlier_file_and_no_temp(tmp_path, monkeypatch):
    from ktransformer import trainer

    model = tiny_model()
    path = tmp_path / "a.ckpt"
    save_checkpoint(model, path)
    first = path.read_bytes()
    for p in model.parameters().values():
        p.data = p.data + 1.0

    def failing_replace(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(trainer.os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace refused"):
        save_checkpoint(model, path)
    assert path.read_bytes() == first
    assert list(tmp_path.iterdir()) == [path]


# ------------------------------------------------------------ training loop


def _quick_setup(n=24, steps=8, **cfg_kw):
    corpus = make_copy_corpus(n, seed=5, vocab_size=8, min_len=2, max_len=5)
    vs, vt = vocab_pair(corpus)
    model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt))
    kw = dict(lr=1e-3, max_steps=steps, batch_size=4, seed=0, val_interval=0)
    kw.update(cfg_kw)
    return corpus, vs, vt, model, kw


def test_train_writes_log_and_checkpoints(tmp_path):
    corpus, vs, vt, model, kw = _quick_setup()
    cfg = TrainConfig(out_dir=str(tmp_path), **kw)
    rows = train(model, corpus, vs, vt, cfg)
    assert len(rows) == 8
    assert (tmp_path / "final.ckpt").exists()
    log = (tmp_path / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,loss,val_bleu,wall_ms"
    assert len(log) == 9
    reader = list(csv.DictReader(log))
    assert [int(r["step"]) for r in reader] == list(range(1, 9))
    for r in reader:
        assert float(r["loss"]) > 0.0
        assert float(r["wall_ms"]) >= 0.0


def test_train_loss_decreases_on_tiny_task(tmp_path):
    corpus, vs, vt, model, kw = _quick_setup(steps=40)
    kw["lr"] = 3e-3
    cfg = TrainConfig(out_dir=str(tmp_path), **kw)
    rows = train(model, corpus, vs, vt, cfg)
    first = np.mean([r.loss for r in rows[:5]])
    last = np.mean([r.loss for r in rows[-5:]])
    assert last < first


def test_train_same_seed_bit_identical_losses(tmp_path):
    losses = []
    for run in range(2):
        corpus, vs, vt, model, kw = _quick_setup(steps=10)
        cfg = TrainConfig(out_dir=str(tmp_path / f"r{run}"), **kw)
        rows = train(model, corpus, vs, vt, cfg)
        losses.append([r.loss for r in rows])
    assert losses[0] == losses[1]


def test_train_different_seed_differs(tmp_path):
    outs = []
    for seed in (0, 1):
        corpus, vs, vt, model, kw = _quick_setup(steps=6)
        kw["seed"] = seed
        cfg = TrainConfig(out_dir=str(tmp_path / f"s{seed}"), **kw)
        rows = train(model, corpus, vs, vt, cfg)
        outs.append([r.loss for r in rows])
    assert outs[0] != outs[1]


def test_train_zero_steps_saves_initial_state(tmp_path):
    corpus, vs, vt, model, kw = _quick_setup(steps=0)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    cfg = TrainConfig(out_dir=str(tmp_path), **kw)
    rows = train(model, corpus, vs, vt, cfg)
    assert rows == []
    for n, p in model.parameters().items():
        assert np.array_equal(p.data, before[n])
    loaded = load_checkpoint(tmp_path / "final.ckpt")
    for n, p in model.parameters().items():
        assert loaded.model.parameters()[n].data.tobytes() == p.data.tobytes()


def test_train_validation_checkpoints(tmp_path):
    corpus, vs, vt, model, kw = _quick_setup(steps=9)
    kw["val_interval"] = 3
    cfg = TrainConfig(out_dir=str(tmp_path), **kw)
    val = make_copy_corpus(6, seed=77, vocab_size=8, min_len=2, max_len=5)
    rows = train(model, corpus, vs, vt, cfg, val_corpus=val)
    assert (tmp_path / "best.ckpt").exists()
    scored = [r for r in rows if r.val_bleu is not None]
    assert [r.step for r in scored] == [3, 6, 9]
    for r in scored:
        assert 0.0 <= r.val_bleu <= 1.0


def test_train_divergence_aborts_with_last_good_state(tmp_path):
    # an absurd rate walks parameters to ~1e200 in one update; the next
    # forward pass overflows and the loop must abort
    corpus, vs, vt, model, kw = _quick_setup(steps=60)
    kw.update(lr=1e200, grad_clip=0.0)
    cfg = TrainConfig(out_dir=str(tmp_path), **kw)
    with pytest.raises(DivergenceError):
        with np.errstate(all="ignore"):
            train(model, corpus, vs, vt, cfg)
    # the retained checkpoint is the last state reached by a clean update:
    # every stored value still finite, optimizer clock past step zero
    loaded = load_checkpoint(tmp_path / "final.ckpt")
    for name, p in loaded.model.parameters().items():
        assert np.all(np.isfinite(p.data)), name
    assert loaded.state.t >= 1
    log = (tmp_path / "train_log.csv").read_text().splitlines()
    assert len(log) < 61  # aborted early, not a full run


def test_train_nan_gradient_aborts_with_last_good_state(tmp_path, monkeypatch):
    # the second divergence trigger: a finite loss whose gradient adam_step
    # rejects; the parameters after two clean updates must stay on disk
    corpus, vs, vt, model, kw = _quick_setup(steps=8)
    calls = []

    def clip_then_poison(flat, bounds, cap):
        norm = clip_global_norm(flat, bounds, cap)
        calls.append(norm)
        if len(calls) == 3:
            flat[bounds[0] : bounds[1]] = np.nan  # the first tensor's gradient
        return norm

    monkeypatch.setattr("ktransformer.trainer.clip_global_norm", clip_then_poison)
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    with pytest.raises(DivergenceError, match="non-finite gradient"):
        train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path), **kw))
    assert len(calls) == 3
    loaded = load_checkpoint(tmp_path / "final.ckpt")
    assert loaded.state.t == 2
    for name, p in loaded.model.parameters().items():
        assert np.all(np.isfinite(p.data)), name
        assert p.data.tobytes() == model.parameters()[name].data.tobytes()
    assert any(not np.array_equal(before[n], p.data) for n, p in loaded.model.parameters().items())


def test_train_interrupt_leaves_last_completed_step(tmp_path, monkeypatch):
    # any exit, not only a divergence, leaves final.ckpt at the last completed step
    corpus, vs, vt, model, kw = _quick_setup(steps=8)
    calls = []

    def clip_then_interrupt(flat, bounds, cap):
        calls.append(cap)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return clip_global_norm(flat, bounds, cap)

    monkeypatch.setattr("ktransformer.trainer.clip_global_norm", clip_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path), **kw))
    loaded = load_checkpoint(tmp_path / "final.ckpt")
    assert loaded.state.t == 2
    for name, p in loaded.model.parameters().items():
        assert p.data.tobytes() == model.parameters()[name].data.tobytes(), name
    assert len((tmp_path / "train_log.csv").read_text().splitlines()) == 1 + 2


@pytest.mark.skipif(sys.platform == "win32", reason="sends a real SIGINT with os.kill")
def test_train_sigint_during_the_update_lands_after_it(tmp_path, monkeypatch):
    # a real SIGINT sent while step 3's update runs: the step completes, so
    # final.ckpt is byte for byte the one of a clean 3-step run
    import ktransformer.trainer as trainer

    corpus, vs, vt, model, kw = _quick_setup(steps=3)
    train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path / "clean"), **kw))
    corpus, vs, vt, model, kw = _quick_setup(steps=8)
    sqrt, updates = np.sqrt, []

    def sqrt_then_interrupt(*args, **kwargs):
        if sys._getframe(1).f_code is trainer.adam_step.__code__:
            updates.append(1)
            if len(updates) == 3:
                os.kill(os.getpid(), signal.SIGINT)
        return sqrt(*args, **kwargs)

    monkeypatch.setattr(np, "sqrt", sqrt_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path / "cut"), **kw))
    monkeypatch.undo()
    assert len(updates) == 3
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    assert (tmp_path / "cut" / "final.ckpt").read_bytes() == (tmp_path / "clean" / "final.ckpt").read_bytes()


def test_train_builds_each_epoch_when_it_starts(tmp_path, monkeypatch):
    # 24 pairs in batches of 4 are 6 steps an epoch: 12 steps use exactly two
    # epochs, and no batch is pulled after the last step
    import ktransformer.trainer as trainer

    make_batches = trainer.make_batches
    seeds = []

    def recording(*args, seed, **kw):
        seeds.append(seed)
        return make_batches(*args, seed=seed, **kw)

    monkeypatch.setattr(trainer, "make_batches", recording)
    corpus, vs, vt, model, kw = _quick_setup(steps=12, seed=3)
    rows = train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path), **kw))
    assert [r.step for r in rows] == list(range(1, 13))
    assert seeds == [3, 4]


def test_train_config_validation(tmp_path):
    with pytest.raises(ValueError):
        TrainConfig(out_dir=str(tmp_path), lr=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(out_dir=str(tmp_path), max_steps=-1).validate()
    with pytest.raises(ValueError):
        TrainConfig(out_dir=str(tmp_path), batch_size=0).validate()


# ------------------------------------------------------------ greedy bleu


def test_corpus_greedy_bleu_in_unit_range():
    corpus = make_copy_corpus(5, seed=9, vocab_size=8, min_len=2, max_len=4)
    vs, vt = vocab_pair(corpus)
    model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt))
    score = corpus_greedy_bleu(model, corpus, vs, vt)
    assert score is None or 0.0 <= score <= 1.0


# ------------------------------------------------------------ golden floats

# sha256 digests recorded with the sentence-by-sentence training step that
# the batched step replaced; the batched step must reproduce every byte.
GOLDEN = {
    "f64": (
        "92a062860d8aa3f5a68608c96ffe88b32448631b40485d211fca18098d5abe96",
        "a2d94a565f0fcedb12d648e336619fb0bebe414c58280014474a948c81b81e0d",
    ),
    "f32": (
        "0cfc5cbaf781a432d694fe5386270f8a067f5c77460df4f31d22745b7203b8cf",
        "6d58e7522a2286c83e3f3b62d309cd6fe9b0c0a657a951cf039aecc3d5b6bb2d",
    ),
}


def _golden_run(tmp_path, precision):
    """Ten training steps on a tiny mixed-length task with padding, dropout
    and non-zero cluster gates; returns the digests of the ten losses and of
    every parameter gradient of step 1 (clipping off, so they are raw)."""
    import hashlib

    from ktransformer import trainer
    from ktransformer.corpus import ParallelCorpus

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(9)]
    src = [[words[int(rng.integers(0, 9))] for _ in range(int(rng.integers(1, 8)))] for _ in range(20)]
    tgt = [s[::-1] + s[:1] for s in src]
    corpus = ParallelCorpus(src, tgt, "space_tokenized", "space_tokenized")
    vs, vt = vocab_pair(corpus)
    model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), layers_enc=2, dropout=0.1, clusters_k=3,
                       cluster_mode="both", precision=precision)
    gates = [p for name, p in model.parameters().items() if ".bias." in name]
    for i, p in enumerate(gates):
        p.data = np.asarray(0.25 * (i + 1) * (-1) ** i, dtype=p.data.dtype)

    seen = []
    real_adam_step = trainer.adam_step

    def recording_adam_step(params, state, lr_scale=1.0, grad_clip=0.0):
        if not seen:
            h = hashlib.sha256()
            for name, p in params.items():
                g = np.asarray(p.grad if p.grad is not None else np.zeros_like(p.data))
                h.update(f"{name}:{g.dtype.str}:{g.shape}".encode())
                h.update(np.ascontiguousarray(g).tobytes())
            seen.append(h.hexdigest())
        return real_adam_step(params, state, lr_scale=lr_scale, grad_clip=grad_clip)

    trainer.adam_step = recording_adam_step
    try:
        cfg = TrainConfig(out_dir=str(tmp_path), lr=3e-3, max_steps=10, batch_size=8, seed=0, grad_clip=0.0)
        rows = train(model, corpus, vs, vt, cfg)
    finally:
        trainer.adam_step = real_adam_step
    losses = np.array([r.loss for r in rows], dtype=np.float64)
    assert len(rows) == 10 and np.all(np.isfinite(losses))
    return hashlib.sha256(losses.tobytes()).hexdigest(), seen[0]


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_training_floats_match_golden_digests(tmp_path, precision):
    assert _golden_run(tmp_path, precision) == GOLDEN[precision]


def _batch_of_eight(precision):
    from ktransformer.corpus import ParallelCorpus, make_batches

    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(9)]
    src = [[words[int(rng.integers(0, 9))] for _ in range(n)] for n in (1, 6, 3, 7, 2, 5, 7, 4)]
    corpus = ParallelCorpus(src, [s[::-1] + s[:1] for s in src], "space_tokenized", "space_tokenized")
    vs, vt = vocab_pair(corpus)
    model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), layers_enc=2, dropout=0.1, clusters_k=3,
                       cluster_mode="both", precision=precision)
    for i, p in enumerate(p for name, p in model.parameters().items() if ".bias." in name):
        p.data = np.asarray(0.3 * (i + 1) * (-1) ** i, dtype=p.data.dtype)
    (batch,) = make_batches(corpus, vs, vt, 8, max_len=12, seed=0)
    return model, batch


def _step_loss(model, src, tgt, smask, tmask, rng, batch_size):
    """The per-sentence losses over the given rows and the training step's
    loss, as ``train`` forms it from all of a batch's rows."""
    from ktransformer.tensor import scale, sum_all

    losses = model.sequence_loss(src, tgt, src_mask=smask, tgt_mask=tmask, rng=rng)
    return losses, scale(sum_all(losses), 1.0 / batch_size)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_batched_step_equals_fold_of_batch_of_one_passes(precision):
    # one batched pass against eight batch-of-one passes at the same padded
    # width, drawing dropout from one generator in turn: the loss must be
    # their left-to-right sum and every gradient their fold, last sentence
    # first, byte for byte
    from ktransformer.tensor import GradientTape, backward

    model, batch = _batch_of_eight(precision)
    params = model.parameters()
    b = len(batch)
    rng = np.random.default_rng([0, 0])
    with GradientTape() as tape:
        _, loss = _step_loss(model, batch.src_ids, batch.tgt_ids, batch.src_mask, batch.tgt_mask, rng, b)
    backward(loss, tape)
    want = {name: np.asarray(p.grad) for name, p in params.items()}
    for p in params.values():
        p.grad = None

    rng = np.random.default_rng([0, 0])
    total, per_sentence = None, []
    for i in range(b):
        rows = slice(i, i + 1)
        with GradientTape() as tape:
            one, step = _step_loss(model, batch.src_ids[rows], batch.tgt_ids[rows], batch.src_mask[rows],
                                   batch.tgt_mask[rows], rng, b)
        backward(step, tape)
        total = one.data[0] if total is None else total + one.data[0]
        per_sentence.append({name: np.asarray(p.grad) for name, p in params.items()})
        for p in params.values():
            p.grad = None
    assert np.asarray(loss.data).tobytes() == np.asarray(total * total.dtype.type(1.0 / b)).tobytes()
    for name in params:
        folded = per_sentence[-1][name]
        for grads in reversed(per_sentence[:-1]):
            folded = folded + grads[name]
        assert np.asarray(folded).tobytes() == want[name].tobytes(), name


def test_step_tape_length_does_not_grow_with_batch_size(tmp_path):
    # no per-sentence loop: a training step records as many ops for a batch
    # of 8 as for a batch of 1
    from ktransformer import trainer
    from ktransformer.corpus import ParallelCorpus

    rng = np.random.default_rng(4)
    src = [[f"w{int(rng.integers(0, 9))}" for _ in range(int(rng.integers(1, 8)))] for _ in range(8)]
    corpus = ParallelCorpus(src, [list(s) for s in src], "space_tokenized", "space_tokenized")
    vs, vt = vocab_pair(corpus)
    lengths = []
    real_backward = trainer.backward

    def recording_backward(loss, tape):
        lengths.append(len(tape))
        return real_backward(loss, tape)

    trainer.backward = recording_backward
    try:
        for size in (1, 8):
            model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), layers_enc=2, dropout=0.1,
                               cluster_mode="both")
            cfg = TrainConfig(out_dir=str(tmp_path / f"b{size}"), max_steps=1, batch_size=size, seed=0)
            train(model, corpus, vs, vt, cfg)
    finally:
        trainer.backward = real_backward
    assert len(lengths) == 2 and lengths[0] == lengths[1]


def test_step_tape_length_does_not_depend_on_head_count(tmp_path):
    # each attention, feed-forward and residual layer norm is one tape entry
    # whatever the number of heads
    from ktransformer import trainer
    from ktransformer.corpus import ParallelCorpus

    rng = np.random.default_rng(5)
    src = [[f"w{int(rng.integers(0, 9))}" for _ in range(int(rng.integers(1, 8)))] for _ in range(8)]
    corpus = ParallelCorpus(src, [list(s) for s in src], "space_tokenized", "space_tokenized")
    vs, vt = vocab_pair(corpus)
    lengths = []
    real_backward = trainer.backward

    def recording_backward(loss, tape):
        lengths.append(len(tape))
        return real_backward(loss, tape)

    trainer.backward = recording_backward
    try:
        for heads in (1, 2, 4):
            model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), heads=heads, layers_enc=2, layers_dec=2,
                               dropout=0.1, cluster_mode="both")
            cfg = TrainConfig(out_dir=str(tmp_path / f"h{heads}"), max_steps=1, batch_size=8, seed=0)
            train(model, corpus, vs, vt, cfg)
    finally:
        trainer.backward = real_backward
    assert len(lengths) == 3 and lengths[0] == lengths[1] == lengths[2]


# ------------------------------------------------------------ two processes


def _split_task():
    """A mixed-length task with padding and validation pairs, in which the
    pair ("rare rare w1") holds the only "rare" of either side."""
    from ktransformer.corpus import ParallelCorpus

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(9)]
    src = [[words[int(rng.integers(0, 9))] for _ in range(int(rng.integers(1, 8)))] for _ in range(20)]
    src.append(["rare", "rare", "w1"])
    tgt = [s[::-1] + s[:1] for s in src]
    corpus = ParallelCorpus(src, tgt, "space_tokenized", "space_tokenized")
    val = ParallelCorpus(src[:4], tgt[:4], "space_tokenized", "space_tokenized")
    vs, vt = vocab_pair(corpus)
    return corpus, val, vs, vt


def _force_split(monkeypatch, cpus):
    from ktransformer import trainer

    monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(trainer, "SPLIT_MIN_WORK", 0)  # split even these tiny batches


def _recorded_forks(monkeypatch) -> list[int]:
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("mode", ["off", "both"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize(
    "batch_size, split_min_work",
    [
        pytest.param(1, 0, id="1"),
        pytest.param(3, 0, id="3"),
        pytest.param(16, 0, id="16"),
        # between the widths of this task's 16- and 5-sentence batches (1920
        # and 600), so split and unsplit steps alternate: an unsplit step's
        # Adam update writes the buffer that the helper hands its totals in
        pytest.param(16, 1000, id="16-alternating"),
    ],
)
def test_split_batches_train_bit_for_bit_as_one_process(tmp_path, monkeypatch, batch_size, split_min_work, precision,
                                                        mode):
    # the helper's fold totals and losses, handed over, give the one-process
    # losses and checkpoints byte for byte, with dropout on and non-zero gates
    import hashlib

    from ktransformer import trainer
    from ktransformer.corpus import make_batches

    corpus, val, vs, vt = _split_task()
    steps = 8
    if batch_size > 1:
        # some step's "rare" row is used by the helper's sentences only
        batches = [b for e in range(steps) for b in make_batches(corpus, vs, vt, batch_size, max_len=12, seed=e)]
        rare = vs.id_of("rare")
        assert any(
            rare in b.src_ids[len(b) // 2 :] and rare not in b.src_ids[: len(b) // 2] for b in batches[:steps]
        )
    runs, forks, split_steps = [], _recorded_forks(monkeypatch), []
    real_go = trainer._Helper.go
    monkeypatch.setattr(trainer._Helper, "go", lambda helper, step: (split_steps.append(step), real_go(helper, step)))
    for cpus in (1, 2):
        _force_split(monkeypatch, cpus)
        monkeypatch.setattr(trainer, "SPLIT_MIN_WORK", split_min_work)
        model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), layers_enc=2, dropout=0.1, clusters_k=3,
                           cluster_mode=mode, precision=precision)
        for i, p in enumerate(p for name, p in model.parameters().items() if ".bias." in name):
            p.data = np.asarray(0.25 * (i + 1) * (-1) ** i, dtype=p.data.dtype)
        out = tmp_path / f"cpus{cpus}"
        cfg = TrainConfig(out_dir=str(out), lr=3e-3, max_steps=steps, batch_size=batch_size, seed=0, val_interval=3)
        rows = train(model, corpus, vs, vt, cfg, val_corpus=val)
        digests = [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("final.ckpt", "best.ckpt")]
        runs.append((np.array([r.loss for r in rows]).tobytes(), digests))
    assert len(forks) == (0 if batch_size == 1 else 1)  # a batch of one never splits
    if split_min_work:
        assert split_steps == [1, 3, 5, 7]
    assert runs[0] == runs[1]


def test_log_rows_keep_each_steps_pre_clip_norm(tmp_path, monkeypatch):
    # a row's grad_norm is the norm of that step's raw gradients, taken before
    # the default cap clips them, and a split run logs the same values
    from ktransformer import trainer

    corpus, _, vs, vt = _split_task()
    real_adam_step = trainer.adam_step
    runs = []
    for cpus in (1, 2):
        _force_split(monkeypatch, cpus)
        raw = []

        def recording_adam_step(params, state, lr_scale=1.0, grad_clip=0.0):
            grads = {n: p.grad if p.grad is not None else np.zeros_like(p.data) for n, p in params.items()}
            raw.append(_clip_per_tensor(grads, 0.0)[0])
            return real_adam_step(params, state, lr_scale=lr_scale, grad_clip=grad_clip)

        monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
        model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), layers_enc=2, dropout=0.1, cluster_mode="both")
        cfg = TrainConfig(out_dir=str(tmp_path / f"cpus{cpus}"), lr=3e-3, max_steps=6, batch_size=8, seed=0)
        rows = train(model, corpus, vs, vt, cfg)
        assert [r.grad_norm for r in rows] == raw
        assert any(norm > cfg.grad_clip for norm in raw)  # clipping was active
        runs.append(raw)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("ending", ["return", "divergence", "failed_save"])
def test_helper_is_reaped_however_train_ends(tmp_path, monkeypatch, ending):
    from ktransformer import trainer

    corpus, vs, vt, model, kw = _quick_setup(steps=6)
    _force_split(monkeypatch, 2)
    forks = _recorded_forks(monkeypatch)
    if ending == "return":
        train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path), **kw))
    elif ending == "divergence":
        kw.update(lr=1e200, grad_clip=0.0)
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path), **kw))
    else:
        def failing_save(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(trainer, "save_checkpoint", failing_save)
        with pytest.raises(OSError, match="no space"):
            train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path), **kw))
    assert len(forks) == 1 and _reaped(forks[0])


def test_helper_dying_mid_step_fails_train_promptly(tmp_path, monkeypatch):
    # the helper exits with status 7 in its third backward sweep: train raises
    # naming that status instead of waiting for the fold totals, and final.ckpt
    # holds the two completed steps
    from ktransformer import trainer

    corpus, vs, vt, model, kw = _quick_setup(steps=6)
    _force_split(monkeypatch, 2)
    forks = _recorded_forks(monkeypatch)
    main, sweeps = os.getpid(), []
    real_backward = trainer.backward

    def dying_backward(loss, tape):
        if os.getpid() != main:
            sweeps.append(loss)
            if len(sweeps) == 3:
                os._exit(7)
        return real_backward(loss, tape)

    monkeypatch.setattr(trainer, "backward", dying_backward)
    with pytest.raises(RuntimeError, match="exited mid-step with status 7"):
        train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path), **kw))
    assert len(forks) == 1 and _reaped(forks[0])
    loaded = load_checkpoint(tmp_path / "final.ckpt")
    assert loaded.state.t == 2
    for name, p in loaded.model.parameters().items():
        assert p.data.tobytes() == model.parameters()[name].data.tobytes()


def test_non_finite_loss_in_helpers_half_raises_before_the_update(tmp_path, monkeypatch):
    # only the helper's losses of step 3 are NaN: train raises naming step 3
    # once the helper's step is done, the helper is reaped, and final.ckpt
    # holds Adam step 2 with the parameters of a one-process two-step run
    from ktransformer import trainer

    corpus, vs, vt, model, kw = _quick_setup(steps=6)
    _, _, _, reference, _ = _quick_setup()
    train(reference, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path / "two"), **{**kw, "max_steps": 2}))
    _force_split(monkeypatch, 2)
    forks = _recorded_forks(monkeypatch)
    main = os.getpid()
    real_taped_loss = trainer._taped_loss

    def poisoned(model, batch, seed, step, rows, carry=None):
        tape, losses, loss = real_taped_loss(model, batch, seed, step, rows, carry)
        if os.getpid() != main and step == 3:
            losses.data = np.full_like(losses.data, np.nan)
        return tape, losses, loss

    monkeypatch.setattr(trainer, "_taped_loss", poisoned)
    with pytest.raises(DivergenceError, match="at step 3;"):
        train(model, corpus, vs, vt, TrainConfig(out_dir=str(tmp_path / "split"), **kw))
    assert len(forks) == 1 and _reaped(forks[0])
    loaded = load_checkpoint(tmp_path / "split" / "final.ckpt")
    assert loaded.state.t == 2
    for name, p in loaded.model.parameters().items():
        assert p.data.tobytes() == reference.parameters()[name].data.tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_frees_each_steps_tape_and_gradients(tmp_path, monkeypatch, cpus):
    # weak references to every activation a step's tape recorded, and to the
    # gradients handed to Adam, are dead by validation and by the next
    # step's forward, in the main process and (split) in the helper, whose
    # failed check would end train with its exit status
    import weakref

    from ktransformer import trainer

    corpus, val, vs, vt = _split_task()
    _force_split(monkeypatch, cpus)
    forks = _recorded_forks(monkeypatch)
    held, checks = [], []
    real_taped_loss, real_adam_step, real_bleu = trainer._taped_loss, trainer.adam_step, trainer.corpus_greedy_bleu

    def assert_freed(where):
        alive = [i for i, ref in enumerate(held) if ref() is not None]
        assert not alive, f"{len(alive)} of {len(held)} arrays still alive at {where}"
        held.clear()
        checks.append(where)

    def watched_taped_loss(model, batch, seed, step, rows, carry=None):
        assert_freed(f"step {step}")
        tape, losses, loss = real_taped_loss(model, batch, seed, step, rows, carry)
        kept = (losses.data, loss.data)
        held.extend(
            weakref.ref(out.data)
            for _, out, _ in tape._entries
            if isinstance(out.data, np.ndarray) and not any(out.data is k for k in kept)
        )
        assert held
        return tape, losses, loss

    def watched_adam_step(params, state, lr_scale=1.0, grad_clip=0.0):
        held.extend(weakref.ref(p.grad) for p in params.values() if isinstance(p.grad, np.ndarray))
        return real_adam_step(params, state, lr_scale=lr_scale, grad_clip=grad_clip)

    def watched_bleu(*args):
        assert_freed("validation")
        return real_bleu(*args)

    monkeypatch.setattr(trainer, "_taped_loss", watched_taped_loss)
    monkeypatch.setattr(trainer, "adam_step", watched_adam_step)
    monkeypatch.setattr(trainer, "corpus_greedy_bleu", watched_bleu)
    model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), layers_enc=2, dropout=0.1, cluster_mode="both")
    cfg = TrainConfig(out_dir=str(tmp_path), lr=3e-3, max_steps=6, batch_size=8, seed=0, val_interval=2)
    train(model, corpus, vs, vt, cfg, val_corpus=val)
    assert len(forks) == cpus - 1
    assert checks == ["step 1", "step 2", "validation", "step 3", "step 4", "validation", "step 5", "step 6",
                      "validation"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc malloc's page faults")
def test_steady_training_steps_reuse_freed_memory(tmp_path, monkeypatch):
    # each step frees its tape at once; the memory stays in the process for
    # the next step instead of being handed back and faulted in again
    import resource

    from ktransformer import trainer
    from ktransformer.corpus import ParallelCorpus

    monkeypatch.setattr(trainer, "_usable_cpus", lambda: 1)
    rng = np.random.default_rng(6)
    src = [[f"w{int(rng.integers(0, 24))}" for _ in range(int(rng.integers(3, 21)))] for _ in range(64)]
    corpus = ParallelCorpus(src, [list(s) for s in src], "space_tokenized", "space_tokenized")
    vs, vt = vocab_pair(corpus)
    steps, faults = 12, []
    for call in range(2):
        model = tiny_model(vocab_src=len(vs), vocab_tgt=len(vt), d_model=64, heads=4, d_ff=128, layers_enc=2,
                           layers_dec=2, max_len=20, dropout=0.1, precision="f32")
        cfg = TrainConfig(out_dir=str(tmp_path / f"call{call}"), max_steps=steps, batch_size=16, seed=0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(model, corpus, vs, vt, cfg)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
    assert faults[1] < 100, faults  # about 1800 per step when the heap is handed back
