"""Train the checkpoint that the ``translate_copy`` workload serves.

Usage, from the root of the repository:

    python3 bench/make_fixture.py

Trains a d_model 64 / 4 head / 2+2 layer model with ``cluster_mode=both``
on the copy task in rounds of fresh synthetic data, until greedy decoding
copies at least 99% of a held-out set exactly, then writes the checkpoint
without Adam moments to ``bench/fixtures/``. Deterministic: the same code
and numpy build give the same bytes. The benchmark only loads the file.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIXTURE = BENCH_DIR / "fixtures" / "copy_d64h4_both.ckpt"

# Shape shared by the fixture and the two training workloads.
MODEL_SHAPE = dict(d_model=64, heads=4, d_ff=256, layers_enc=2, layers_dec=2, max_len=24)

FIXTURE_SEED = 20240808
ROUND_PAIRS = 2000
ROUND_STEPS = 600
MAX_ROUNDS = 20
HELD_OUT = 200
TARGET_EXACT = 0.99


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ktransformer.model import KTransformer, ModelConfig
    from ktransformer.trainer import TrainConfig, save_checkpoint, train

    import corpora

    first = corpora.copy_corpus(ROUND_PAIRS, [FIXTURE_SEED, 0])
    vocab = corpora.vocab_over(first.src)
    if len(vocab) != 4 + corpora.COPY_VOCAB:
        raise SystemExit(f"first round does not cover the copy vocabulary ({len(vocab)} ids)")
    model = KTransformer(ModelConfig(
        vocab_src=len(vocab), vocab_tgt=len(vocab), dropout=0.0, clusters_k=4, cluster_mode="both",
        precision="f32", init_seed=0, cluster_seed=0, **MODEL_SHAPE))
    held = corpora.copy_sentences(HELD_OUT, [FIXTURE_SEED, 1])
    work = ROOT / ".bench_work" / "fixture"
    t0 = time.perf_counter()
    try:
        for r in range(MAX_ROUNDS):
            corpus = first if r == 0 else corpora.copy_corpus(ROUND_PAIRS, [FIXTURE_SEED, 0, r])
            cfg = TrainConfig(out_dir=work, lr=2e-3, warmup_steps=100, max_steps=ROUND_STEPS, batch_size=16, seed=r)
            rows = train(model, corpus, vocab, vocab, cfg)
            exact = sum(
                model.greedy_translate([vocab.id_of(t) for t in s]) == [vocab.id_of(t) for t in s] for s in held
            )
            share = exact / len(held)
            print(f"round {r}: loss {rows[-1].loss:.4f}, held-out exact {exact}/{len(held)}, "
                  f"{time.perf_counter() - t0:.0f}s", flush=True)
            if share >= TARGET_EXACT:
                break
        else:
            print(f"held-out exact copies stayed below {TARGET_EXACT:.0%}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, FIXTURE, state=None, vocab_src=vocab, vocab_tgt=vocab,
                    profile_src=corpora.PROFILE, profile_tgt=corpora.PROFILE)
    digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    print(f"wrote {FIXTURE.relative_to(ROOT)} ({FIXTURE.stat().st_size} bytes, sha256 {digest})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
