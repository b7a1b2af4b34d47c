"""Benchmark harness for ktransformer: end-to-end timings and a traced,
layer-by-layer breakdown, driven through the package's public entry points.

Usage, from the root of the repository:

    python3 bench/run.py --workload train_copy_off --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 1

Workloads (see bench/README.md for why each exists):

- ``train_copy_off``: ``trainer.train`` on a copy corpus, cluster bias off;
- ``train_topic_both``: ``trainer.train`` on the two-topic corpus with
  ``cluster_mode=both``, validation BLEU and best-checkpoint writes;
- ``translate_copy``: ``cli.main(["translate", ...])`` serving the
  committed copy checkpoint over held-out lines.

All inputs are generated from ``--seed``. Every workload is a closed loop in
this one process: a unit of work (a train() call, or a pass of translate
requests over every input file) starts when the previous one returns, and
another starts while it is expected to end within ``--seconds`` (a train()
call: within half a call past it). At least one runs.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the same work twice, untraced and then traced by
bench/tracer.py, and reports the per-layer metrics; the slowdown of the
traced copy is ``trace.overhead_share``. Spans go to
``.bench_work/trace_<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("train_copy_off", "train_topic_both", "translate_copy")
SETUP_REPEATS = 5  # each side of the measured work

# Training workloads: 400 pairs in batches of 16 is 25 steps an epoch, so a
# train() call of 150 steps sees every pair exactly six times. One long call
# samples more of the training trajectory (and of validation decoding) than
# repeats of a short one, which would replay the same steps.
TRAIN_PAIRS = 400
BATCH_SIZE = 16
TRAIN_EPOCHS = 6
TRAIN_STEPS = TRAIN_EPOCHS * math.ceil(TRAIN_PAIRS / BATCH_SIZE)
TOPIC_VAL_PAIRS = 4
# Validation every 5 steps makes a fifth of the steps validation steps, so
# step_ms_p90 sits inside them rather than on the edge between the kinds.
TOPIC_VAL_INTERVAL = 5
TOPIC_MAX_LEN = 12
FINAL_LOSS_WINDOW = 10

# Translate workload: 8 held-out lines of each copy length, 3..20, in
# request files of 8 lines. A fixed length mix keeps lines/s comparable
# across seeds, since decoding cost grows faster than length.
TRANSLATE_PER_LENGTH = 8
TRANSLATE_LINES_PER_FILE = 8
BLEU_FLOOR = 0.95
ARGMAX_TOL = 1e-4  # relative slack for the teacher-forced argmax re-check


def import_package():
    """Import ktransformer from this checkout's src/ and nowhere else."""
    pkg = ROOT / "src" / "ktransformer"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import ktransformer

    if Path(ktransformer.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: imported ktransformer from {ktransformer.__file__}, not {pkg}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"error: cannot read {path}: {e}") from None


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: dict[str, float] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)  # design-level names, printed for people
    inputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    items: int = 0  # train steps or translated lines in the traced phase
    untraced_s: float = 0.0
    traced_s: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")


def time_setups(build, times: list[float]):
    """Run ``build`` SETUP_REPEATS times, appending each duration to
    ``times``; return the last result.

    Runs call this before and after the measured work and report the median
    of both batches: the host's speed drifts on a scale of seconds, and an
    even count of samples from two moments puts the median between them when
    they differ.
    """
    result = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result


# ---------------------------------------------------------------- training


def train_inputs(workload: str, seed: int):
    from ktransformer.model import KTransformer, ModelConfig

    import corpora
    from make_fixture import MODEL_SHAPE

    if workload == "train_copy_off":
        corpus, val, mode = corpora.copy_corpus(TRAIN_PAIRS, [seed, 0]), None, "off"
        vs, vt = corpora.vocab_over(corpus.src), corpora.vocab_over(corpus.tgt)
    else:
        corpus, mode = corpora.topic_corpus(TRAIN_PAIRS, [seed, 0]), "both"
        val = corpora.topic_corpus(TOPIC_VAL_PAIRS, [seed, 1])
        vs, vt = corpora.vocab_over(corpus.src + val.src), corpora.vocab_over(corpus.tgt + val.tgt)
    shape = dict(MODEL_SHAPE)
    if val is not None:
        # max_len is also greedy decoding's length cap; 12 bounds how long an
        # undertrained model can ramble on 5-9 token sentences, which
        # otherwise makes validation cost swing with the training trajectory.
        shape["max_len"] = TOPIC_MAX_LEN
    config = ModelConfig(vocab_src=len(vs), vocab_tgt=len(vt), dropout=0.1, clusters_k=4, cluster_mode=mode,
                         precision="f32", init_seed=0, cluster_seed=0, **shape)
    KTransformer(config)  # building the model is part of set-up; each call trains a fresh one
    return corpus, val, vs, vt, config


def run_train(workload: str, seed: int, seconds: float, trace: bool, out: Outcome, run_dir: Path, tracer_factory):
    from ktransformer import trainer
    from ktransformer.corpus import make_batches
    from ktransformer.model import KTransformer
    from ktransformer.trainer import TrainConfig

    import corpora

    setups: list[float] = []
    corpus, val, vs, vt, config = time_setups(lambda: train_inputs(workload, seed), setups)
    val_interval = TOPIC_VAL_INTERVAL if val is not None else 0

    def one_call(i: int):
        model = KTransformer(config)
        cfg = TrainConfig(out_dir=run_dir / f"call{i}", lr=3e-3, max_steps=TRAIN_STEPS, batch_size=BATCH_SIZE,
                          val_interval=val_interval, seed=0)
        t0 = time.perf_counter()
        rows = trainer.train(model, corpus, vs, vt, cfg, val_corpus=val)
        return rows, time.perf_counter() - t0

    calls = []
    tracer = None
    if trace:
        calls.append(one_call(0))
        tracer = tracer_factory()
        with tracer:
            calls.append(one_call(1))
        out.untraced_s, out.traced_s = calls[0][1], calls[1][1]
        out.items = len(calls[1][0])
    else:
        # Start another call while that is expected to end less than half a
        # call past the budget, so runs measure about --seconds on average.
        t_start = time.perf_counter()
        while not calls or time.perf_counter() - t_start + calls[-1][1] / 2 <= seconds:
            calls.append(one_call(len(calls)))

    time_setups(lambda: train_inputs(workload, seed), setups)
    out.e2e["setup_s"] = statistics.median(setups)

    digests = set()
    for i, (rows, _) in enumerate(calls):
        losses = np.array([r.loss for r in rows], dtype=np.float64)
        out.attempted += len(rows)
        out.failed += int((~np.isfinite(losses)).sum())
        out.check(len(rows) == TRAIN_STEPS, f"call {i} ran {len(rows)} of {TRAIN_STEPS} steps")
        final = float(losses[-FINAL_LOSS_WINDOW:].mean())
        out.check(final < losses[0], f"call {i}: final loss {final:.4f} not below first {losses[0]:.4f}")
        digests.add(hashlib.sha256(losses.tobytes()).hexdigest())
        if val is not None:
            vals = [r.val_bleu for r in rows if r.val_bleu is not None]
            out.check(len(vals) == TRAIN_STEPS // val_interval and all(0.0 <= v <= 1.0 for v in vals),
                      f"call {i}: validation BLEU missing or out of range")
            try:
                trainer.load_checkpoint(run_dir / f"call{i}" / "best.ckpt")
                error = None
            except trainer.CheckpointError as e:
                error = e
            out.check(error is None, f"call {i}: best.ckpt unreadable: {error}")
    out.check(len(digests) == 1, "same-seed train() calls gave different losses")
    out.notes.append(f"loss_digest sha256:{sorted(digests)[0]}")

    final_loss = float(np.mean([r.loss for r in calls[0][0][-FINAL_LOSS_WINDOW:]]))
    walls = [c[1] for c in calls]
    step_ms = [r.wall_ms for rows, _ in calls for r in rows]
    tokens = TRAIN_EPOCHS * sum(len(s) + len(t) for s, t in corpus.pairs())
    pairs = TRAIN_EPOCHS * len(corpus)
    out.e2e.update(
        tokens_per_s=tokens * len(walls) / sum(walls),
        sentences_per_s=pairs * len(walls) / sum(walls),
        latency_ms_p90=float(np.percentile(step_ms, 90)),
        quality=1.0 / final_loss,
    )
    out.named.update(
        train_tokens_per_s=(out.e2e["tokens_per_s"], "tok/s"),
        step_ms_p50=(float(np.percentile(step_ms, 50)), "ms"),
        step_ms_p90=(out.e2e["latency_ms_p90"], "ms"),
        final_loss=(final_loss, "nats"),
    )
    padded = real = 0
    for epoch in range(TRAIN_EPOCHS):
        for b in make_batches(corpus, vs, vt, BATCH_SIZE, max_len=config.max_len, seed=epoch):
            padded += b.src_ids.size + b.tgt_ids.size
            real += int(b.src_mask.sum() + b.tgt_mask.sum())
    out.inputs = dict(
        pairs=len(corpus),
        src_len_hist=corpora.length_histogram(corpus.src),
        tgt_len_hist=corpora.length_histogram(corpus.tgt),
        pad_ratio=padded / real,
        val_pairs=len(val) if val is not None else 0,
        steps_per_call=TRAIN_STEPS,
        calls=len(calls),
        step_samples=len(step_ms),
    )
    return tracer


# ---------------------------------------------------------------- translation


def translate_inputs(seed: int, run_dir: Path):
    from ktransformer.trainer import load_checkpoint

    import corpora
    from make_fixture import FIXTURE

    lines = corpora.copy_lines_by_length(TRANSLATE_PER_LENGTH, [seed, 2])
    files = []
    for i in range(math.ceil(len(lines) / TRANSLATE_LINES_PER_FILE)):
        path = run_dir / f"in{i}.txt"
        chunk = lines[i * TRANSLATE_LINES_PER_FILE : (i + 1) * TRANSLATE_LINES_PER_FILE]
        path.write_text("".join(" ".join(s) + "\n" for s in chunk), encoding="utf-8")
        files.append(path)
    return lines, files, load_checkpoint(FIXTURE)


def run_translate(seed: int, seconds: float, trace: bool, out: Outcome, run_dir: Path, tracer_factory):
    from ktransformer import cli
    from ktransformer.corpus import BOS_ID, EOS_ID
    from ktransformer.metrics import corpus_bleu

    import corpora
    from make_fixture import FIXTURE

    setups: list[float] = []
    lines, files, loaded = time_setups(lambda: translate_inputs(seed, run_dir), setups)
    outputs: dict[int, list[str]] = {}

    def request(i: int) -> tuple[float, int]:
        f = i % len(files)
        dest = run_dir / f"out{f}.txt"
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["translate", "--checkpoint", str(FIXTURE), "--input", str(files[f]), "--output", str(dest)])
        dt = time.perf_counter() - t0
        got = dest.read_text(encoding="utf-8").splitlines()
        out.attempted += TRANSLATE_LINES_PER_FILE
        if code != 0 or len(got) != TRANSLATE_LINES_PER_FILE:
            out.failed += TRANSLATE_LINES_PER_FILE
            out.notes.append(f"request {i}: exit code {code}, {len(got)} output lines")
        elif f in outputs:
            out.check(got == outputs[f], f"request {i}: output differs from the first pass over the same file")
        else:
            outputs[f] = got
        return dt, sum(len(l.split()) for l in got)

    # Requests go in whole passes over the files, so every run sees the same mix.
    samples = []  # (seconds, emitted tokens) per request
    tracer = None
    t_start = time.perf_counter()
    if trace:
        while not samples or len(samples) % len(files) or time.perf_counter() - t_start < seconds / 2:
            samples.append(request(len(samples)))
        n = len(samples)
        out.untraced_s = sum(s for s, _ in samples)
        tracer = tracer_factory()
        with tracer:
            traced = [request(i) for i in range(n)]
        out.traced_s = sum(s for s, _ in traced)
        out.items = n * TRANSLATE_LINES_PER_FILE
    else:
        while not samples or len(samples) % len(files) or (
            time.perf_counter() - t_start + len(files) * samples[-1][0] <= seconds
        ):
            samples.append(request(len(samples)))

    time_setups(lambda: translate_inputs(seed, run_dir), setups)
    out.e2e["setup_s"] = statistics.median(setups)

    # Re-score every distinct line with one teacher-forced decoder pass.
    model, vs, vt = loaded.model, loaded.vocab_src, loaded.vocab_tgt
    cap = model.config.max_len
    pairs = []
    for f in range(len(files)):
        for j, hyp in enumerate(outputs.get(f, [])):
            src = lines[f * TRANSLATE_LINES_PER_FILE + j]
            pairs.append((hyp.split(), src))
            out_ids = [vt.id_of(t) for t in hyp.split()]
            memory, _ = model.encode([vs.id_of(t) for t in src])
            logits = model.decode_forward([BOS_ID] + out_ids, memory).data
            wanted = out_ids + ([EOS_ID] if len(out_ids) < cap else [])
            ok = all(
                logits[r, t] >= logits[r].max() - ARGMAX_TOL * max(1.0, abs(float(logits[r].max())))
                for r, t in enumerate(wanted)
            )
            out.check(ok, f"file {f} line {j}: output is not the greedy argmax path")
    bleu = corpus_bleu(pairs).score
    out.check(bleu >= BLEU_FLOOR, f"translate BLEU {bleu:.4f} below floor {BLEU_FLOOR}")

    total_s = sum(s for s, _ in samples)
    request_ms = [s * 1000 for s, _ in samples]
    out.e2e.update(
        tokens_per_s=sum(k for _, k in samples) / total_s,
        sentences_per_s=len(samples) * TRANSLATE_LINES_PER_FILE / total_s,
        latency_ms_p90=float(np.percentile(request_ms, 90)),
        quality=bleu,
    )
    out.named.update(
        translate_lines_per_s=(out.e2e["sentences_per_s"], "lines/s"),
        translate_tokens_per_s=(out.e2e["tokens_per_s"], "tok/s"),
        translate_bleu=(bleu, "BLEU"),
        request_ms_p50=(float(np.percentile(request_ms, 50)), "ms"),
        request_ms_p90=(out.e2e["latency_ms_p90"], "ms"),
    )
    out.inputs = dict(
        lines=len(lines),
        lines_per_request=TRANSLATE_LINES_PER_FILE,
        src_len_hist=corpora.length_histogram(lines),
        requests=len(samples),
        checkpoint=FIXTURE.relative_to(ROOT).as_posix(),
    )
    return tracer


# ---------------------------------------------------------------- entry point


def run_workload(args, spec: dict) -> int:
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracing

    run_dir = WORK / f"{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    run_dir.mkdir(parents=True)
    out = Outcome()
    correct = True
    tracer = None
    try:
        if args.workload == "translate_copy":
            tracer = run_translate(args.seed, args.seconds, args.trace, out, run_dir, tracing.Tracer)
        else:
            tracer = run_train(args.workload, args.seed, args.seconds, args.trace, out, run_dir, tracing.Tracer)
    except Exception:  # any failure of the program under test is reported, not hidden
        traceback.print_exc()
        out.attempted += 1
        out.failed += 1
        correct = False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = correct and out.failed == 0
    out.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    out.named["peak_rss_mb"] = (out.e2e["peak_rss_mb"], "MB")
    out.named["setup_s"] = (out.e2e.get("setup_s", float("nan")), "s")
    out.named["failed_share"] = (out.failed / max(out.attempted, 1), "failed/attempted")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("inputs " + json.dumps(out.inputs))
    for note in out.notes:
        print(note)
    if args.trace:
        kinds = spec["per_layer"]
        if tracer is not None:
            names = [m["name"] for m in kinds if m["name"] != "trace.overhead_share"]
            values, absent = tracer.layer_metrics(names, max(out.items, 1))
            values["trace.overhead_share"] = out.traced_s / out.untraced_s - 1.0
            tracer.write_json(WORK / f"trace_{args.workload}.json",
                              dict(workload=args.workload, seed=args.seed, items=out.items, layer_metrics=values))
        else:
            values, absent = {m["name"]: 0.0 for m in kinds}, [m["name"] for m in kinds]
        print(f"absent {json.dumps(absent)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in kinds}
    else:
        for name, (value, unit) in out.named.items():
            print(f"{name:<24} {value:>14.6g} {unit}")
        metrics = {m["name"]: {"value": out.e2e.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1), "failed": out.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results, status = {}, 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = (proc.stdout.strip().splitlines() or ["null"])[-1]
        results[w] = json.loads(last) if last.startswith("{") else None
        status = status or proc.returncode
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ktransformer benchmark harness")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
