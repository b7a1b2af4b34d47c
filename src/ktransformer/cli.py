"""Command-line surface: preprocess, train, translate, evaluate, report.

Exit codes: 0 success, 2 usage or configuration error, 3 data or checkpoint
error or an output that cannot be written, 4 numerical divergence during
training. Every command is deterministic given its inputs, flags, and
seeds; the one exception is the wall-clock column of the training log.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_file
from .corpus import (
    DEFAULT_PROFILE,
    DataError,
    ParallelCorpus,
    PROFILES,
    Vocabulary,
    _read_aligned,
    _read_lines,
    build_vocab,
    decode,
    encode,
    preprocess,
    retained_indices,
)
from .metrics import BucketRow, corpus_bleu, length_bucket_report
from .model import CLUSTER_MODES, KTransformer
from .tensor import dtype_of
from .trainer import CheckpointError, DivergenceError, load_checkpoint, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4

RUN_DIR_ENV = "KTRANSFORMER_RUN_DIR"

SVG_PALETTE = ("#4878a8", "#d08770", "#6aa84f", "#b07cc6", "#c9b458", "#bf616a")


def _resolve_out_dir(flag_value: str | None, config_value: str = "") -> Path:
    if flag_value:
        return Path(flag_value)
    if config_value:
        return Path(config_value)
    env = os.environ.get(RUN_DIR_ENV)
    if env:
        return Path(env)
    return Path("run")


def cmd_preprocess(args) -> int:
    corpus = ParallelCorpus.from_raw_files(args.src, args.tgt, args.profile_src, args.profile_tgt)
    if len(corpus) == 0:
        raise DataError("empty corpus: input files contain no sentences")
    vocab_src = build_vocab(corpus.src, args.max_vocab, args.min_freq)
    vocab_tgt = build_vocab(corpus.tgt, args.max_vocab, args.min_freq)
    out_dir = Path(args.out_dir)  # created only once the inputs have been read and checked
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus.write_token_files(out_dir / "src.tok", out_dir / "tgt.tok")
    vocab_src.save(out_dir / "src.vocab")
    vocab_tgt.save(out_dir / "tgt.vocab")
    retained = len(retained_indices(corpus, args.max_len))
    stats = (
        f"pairs_total = {len(corpus)}\n"
        f"pairs_retained = {retained}\n"
        f"pairs_dropped = {len(corpus) - retained}\n"
        f"max_len = {args.max_len}\n"
        f"vocab_src_size = {len(vocab_src)}\n"
        f"vocab_tgt_size = {len(vocab_tgt)}\n"
    )
    (out_dir / "stats.txt").write_text(stats, encoding="utf-8")
    sys.stdout.write(stats)
    print(f"wrote src.tok, tgt.tok, src.vocab, tgt.vocab, stats.txt to {out_dir}")
    return EXIT_OK


def _split_validation(corpus: ParallelCorpus, fraction: float, seed: int, enabled: bool):
    """Deterministically carve off a validation slice (possibly empty)."""
    n = len(corpus)
    n_val = max(1, min(round(n * fraction), n - 1)) if enabled and n >= 2 else 0
    val_idx = set(int(i) for i in np.random.default_rng(seed).permutation(n)[:n_val])

    def part(in_val: bool) -> ParallelCorpus:
        keep = [i for i in range(n) if (i in val_idx) == in_val]
        return ParallelCorpus(
            src=[corpus.src[i] for i in keep],
            tgt=[corpus.tgt[i] for i in keep],
            profile_src=corpus.profile_src,
            profile_tgt=corpus.profile_tgt,
        )

    return part(False), part(True)


def cmd_train(args) -> int:
    cfg = parse_file(args.config) if args.config else RunConfig()
    for item in args.set or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        cfg.set_key(key.strip(), raw.strip())
    for key in ("cluster_mode", "seed", "max_steps"):  # flags that override the same-named keys
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    out_dir = _resolve_out_dir(args.out_dir, cfg.out_dir)
    cfg.out_dir = str(out_dir)
    for key in ("train_src", "train_tgt", "vocab_src", "vocab_tgt"):
        if not getattr(cfg, key):
            raise ConfigError(f"configuration key {key!r} must point at a preprocessed corpus file")
    if not 0.0 <= cfg.val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {cfg.val_fraction}")
    if cfg.val_interval > 0 and cfg.val_fraction == 0.0:
        raise ConfigError(f"val_interval = {cfg.val_interval} validates on no pairs with val_fraction = 0")
    for key in ("profile_src", "profile_tgt"):  # a checkpoint with an unknown profile cannot translate
        if getattr(cfg, key) not in PROFILES:
            raise ConfigError(f"{key} must be one of {PROFILES}, got {getattr(cfg, key)!r}")
    train_config = cfg.to_train_config(out_dir)  # validated before anything is written
    vocab_src = Vocabulary.load(cfg.vocab_src)
    vocab_tgt = Vocabulary.load(cfg.vocab_tgt)
    model_config = cfg.to_model_config(len(vocab_src), len(vocab_tgt))
    needed = 4 * model_config.parameter_count() * np.dtype(dtype_of(model_config.precision)).itemsize
    if hasattr(os, "sysconf") and needed > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"the model's parameters, gradients and Adam moments need {needed} bytes, more than "
                          "this machine's physical memory")  # checked before anything is built

    corpus = ParallelCorpus.from_token_files(
        cfg.train_src, cfg.train_tgt, profile_src=cfg.profile_src, profile_tgt=cfg.profile_tgt
    )
    train_corpus, val_corpus = _split_validation(corpus, cfg.val_fraction, cfg.seed, cfg.val_interval > 0)
    if not retained_indices(train_corpus, cfg.max_len):
        raise DataError(f"corpus empty after filtering to lengths 1..{cfg.max_len}")

    try:
        model = KTransformer(model_config)
    except MemoryError as e:  # within the machine's memory, beyond what this process may allocate
        raise ConfigError(f"the model is too large to build: {e}") from e
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_resolved.cfg").write_text(cfg.serialize(), encoding="utf-8")
    log = train(model, train_corpus, vocab_src, vocab_tgt, train_config, val_corpus)
    last = log[-1].loss if log else float("nan")
    print(f"trained {len(log)} steps; final loss {last:.6f}" if log else "trained 0 steps")
    print(f"checkpoints and train_log.csv in {out_dir}")
    return EXIT_OK


def cmd_translate(args) -> int:
    if Path(args.output).is_dir():  # os.replace could only fail on it after the whole file was decoded
        raise DataError(f"output {args.output} is a directory")
    loaded = load_checkpoint(args.checkpoint)
    if loaded.vocab_src is None or loaded.vocab_tgt is None:
        raise CheckpointError("checkpoint carries no vocabularies and cannot translate raw text")
    model = loaded.model
    profile = loaded.profile_src or DEFAULT_PROFILE
    lines = _read_lines(args.input)
    tokenized = [preprocess(line, profile)[: model.config.max_len] for line in lines]
    todo = [i for i, tokens in enumerate(tokenized) if tokens]
    sources = [encode(tokenized[i], loaded.vocab_src) for i in todo]
    out_lines = [""] * len(lines)
    # opened before decoding and moved onto --output only on success, so an
    # unwritable output fails fast and a failed request leaves the old one
    tmp = Path(f"{args.output}.tmp")
    f = open(tmp, "w", encoding="utf-8")
    try:
        with f:
            for i, out_ids in zip(todo, model.greedy_translate_batch(sources, max_out_len=args.max_out_len)):
                out_lines[i] = " ".join(decode(out_ids, loaded.vocab_tgt))
            f.write("".join(l + "\n" for l in out_lines))
        os.replace(tmp, args.output)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"translated {len(lines)} lines -> {args.output}")
    return EXIT_OK


def _aligned_token_pairs(hyp_path, ref_path) -> list[tuple[list[str], list[str]]]:
    hyp_lines, ref_lines = _read_aligned(hyp_path, ref_path)
    if not ref_lines:
        raise DataError(f"empty corpus: {hyp_path} and {ref_path} hold no lines")
    pairs = []
    for i, (h, r) in enumerate(zip(hyp_lines, ref_lines), start=1):
        ref_tokens = r.split()
        if not ref_tokens:
            raise DataError(f"reference line {i} in {ref_path} is empty")
        pairs.append((h.split(), ref_tokens))
    return pairs


def cmd_evaluate(args) -> int:
    pairs = _aligned_token_pairs(args.hyp, args.ref)
    report = corpus_bleu(pairs, n_max=args.n, smooth=args.smooth == "on")
    print(f"BLEU = {report.score:.6f}  ({report.score * 100:.2f} on the x100 scale)")
    for i, p in enumerate(report.precisions, start=1):
        if p is None:
            print(f"p{i} = undefined (no {i}-grams in any candidate)")
        else:
            print(f"p{i} = {p.numerator}/{p.denominator} = {float(p):.6f}")
    print(f"bp = {report.bp:.6f}  (c = {report.c}, r = {report.r})")
    return EXIT_OK


def _bucket_label(row: BucketRow) -> str:
    return f">{row.low}" if math.isinf(row.high) else f"{row.low + 1}-{int(row.high)}"


def render_report_svg(systems: list[str], rows_by_system: dict[str, list[BucketRow]]) -> str:
    """Hand-emitted grouped bar chart: one bar per (system, bucket)."""
    buckets = rows_by_system[systems[0]]
    bar_w = 22
    gap = 28
    group_w = bar_w * len(systems) + gap
    left, top = 66, 46
    plot_h = 240
    width = left + group_w * len(buckets) + 30
    height = top + plot_h + 72
    peak = max(
        [row.report.score for rows in rows_by_system.values() for row in rows if row.report is not None],
        default=0.0,
    )
    ymax = max(0.1, math.ceil(peak * 10) / 10)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="15">Corpus BLEU by sentence length</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="#444"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{width - 20}" y2="{top + plot_h}" stroke="#444"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        y = top + plot_h - frac * plot_h
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#444"/>')
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{frac * ymax:.2f}</text>'
        )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" transform="rotate(-90 16 {top + plot_h / 2:.1f})" '
        f'text-anchor="middle">BLEU</text>'
    )
    for bi, row in enumerate(buckets):
        gx = left + bi * group_w + gap / 2
        for si, name in enumerate(systems):
            srow = rows_by_system[name][bi]
            color = SVG_PALETTE[si % len(SVG_PALETTE)]
            if srow.report is not None:
                h = srow.report.score / ymax * plot_h
                parts.append(
                    f'<rect x="{gx + si * bar_w:.1f}" y="{top + plot_h - h:.1f}" '
                    f'width="{bar_w - 3}" height="{h:.1f}" fill="{color}"/>'
                )
        label_x = gx + bar_w * len(systems) / 2
        parts.append(
            f'<text x="{label_x:.1f}" y="{top + plot_h + 18}" text-anchor="middle">{_bucket_label(row)}</text>'
        )
        parts.append(
            f'<text x="{label_x:.1f}" y="{top + plot_h + 34}" text-anchor="middle" fill="#666">'
            f"n={row.count}</text>"
        )
    legend_y = top + plot_h + 54
    lx = left
    for si, name in enumerate(systems):
        color = SVG_PALETTE[si % len(SVG_PALETTE)]
        parts.append(f'<rect x="{lx}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 17}" y="{legend_y}">{name}</text>')
        lx += 17 + 8 * len(name) + 26
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(args) -> int:
    systems: list[tuple[str, str]] = []
    for item in args.system:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"--system expects NAME=HYPFILE, got {item!r}")
        if any(name == n for n, _ in systems):
            raise ConfigError(f"duplicate system name {name!r}")
        systems.append((name, path))
    try:
        edges = [int(e) for e in args.buckets.split(",") if e.strip()]
    except ValueError:
        raise ConfigError(f"--buckets expects comma-separated integers, got {args.buckets!r}") from None

    pairs_by_system = {name: _aligned_token_pairs(path, args.ref) for name, path in systems}
    if args.src:
        src_lines, _ = _read_aligned(args.src, args.ref)
        lengths = [max(len(l.split()), 1) for l in src_lines]
    else:
        # no source file given: bucket by reference length as the stand-in
        lengths = [len(r) for _, r in pairs_by_system[systems[0][0]]]

    rows_by_system: dict[str, list[BucketRow]] = {}
    overall: dict[str, float] = {}
    for name, pairs in pairs_by_system.items():
        rows_by_system[name] = length_bucket_report(pairs, edges, lengths=lengths)
        overall[name] = corpus_bleu(pairs).score

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_lines = ["system,bucket_low,bucket_high,pair_count,bleu,p1,p2,p3,p4,bp"]
    for name, _ in systems:
        for row in rows_by_system[name]:
            high = "inf" if math.isinf(row.high) else str(int(row.high))
            if row.report is None:
                csv_lines.append(f"{name},{row.low},{high},0,,,,,,")
            else:
                rep = row.report
                pcells = ",".join("" if p is None else f"{float(p):.6f}" for p in rep.precisions)
                csv_lines.append(
                    f"{name},{row.low},{high},{row.count},{rep.score:.6f},{pcells},{rep.bp:.6f}"
                )
    (out_dir / "report.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    names = [n for n, _ in systems]
    (out_dir / "report.svg").write_text(render_report_svg(names, rows_by_system), encoding="utf-8")

    print(f"{'system':<20} {'BLEU':>8} {'BLEU x100':>10}")
    for name in names:
        print(f"{name:<20} {overall[name]:>8.4f} {overall[name] * 100:>10.2f}")
    print(f"report.csv and report.svg written to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktransformer",
        description="Desk-scale neural machine translation with cluster-recalibrated attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="tokenize a parallel corpus and build vocabularies")
    p.add_argument("--src", required=True, help="raw source text, one sentence per line")
    p.add_argument("--tgt", required=True, help="raw target text, aligned by line")
    p.add_argument("--profile-src", default=DEFAULT_PROFILE, choices=PROFILES)
    p.add_argument("--profile-tgt", default=DEFAULT_PROFILE, choices=PROFILES)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--max-vocab", type=int, default=8000, help="vocabulary size cap including the 4 specials")
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--max-len", type=int, default=50, help="length bound used for the retention stats")

    p = sub.add_parser("train", help="train a model on a preprocessed corpus")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one configuration key")
    p.add_argument("--cluster-mode", choices=CLUSTER_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--out-dir", help=f"run directory (default: config, then ${RUN_DIR_ENV}, then ./run)")

    p = sub.add_parser("translate", help="greedy-decode a text file with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--max-out-len", type=int, default=None)

    p = sub.add_parser("evaluate", help="corpus BLEU of a hypothesis file against a reference")
    p.add_argument("--hyp", required=True, help="hypothesis tokens, space-separated per line")
    p.add_argument("--ref", required=True, help="reference tokens, space-separated per line")
    p.add_argument("--n", type=int, default=4, help="highest n-gram order")
    p.add_argument("--smooth", choices=("off", "on"), default="off")

    p = sub.add_parser("report", help="per-length-bucket BLEU comparison (CSV + SVG)")
    p.add_argument("--system", action="append", required=True, metavar="NAME=HYPFILE")
    p.add_argument("--ref", required=True)
    p.add_argument("--src", help="source file for true length bucketing (reference length otherwise)")
    p.add_argument("--buckets", default="10,20,30,40,50")
    p.add_argument("--out-dir", required=True)
    return parser


# Built on first use and shared by every later ``main`` call in the process:
# parse_args starts each call from a fresh namespace, so nothing carries over.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the handler is looked up per call, not bound into the shared parser, so
    # one that replaces ``cmd_<command>`` later (a tracer, a test) is called
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"invalid arguments: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
