#!/usr/bin/env python3
"""Record the canary outputs the benchmark checks against: the first two
toy training losses from the fixed canary batches, and the paper-size
model's embedding of the canary WAV. Re-record only with a change that
alters the math on purpose, and say so with that change.

    python3 bench/record_reference.py
"""

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import workloads  # noqa: E402
from sevx import pipeline  # noqa: E402
from sevx.config import RunConfig  # noqa: E402


def main() -> int:
    cfg = RunConfig({**workloads.TOY, "seed": str(workloads.CANARY_SEED)})
    m, head, opt = workloads.build_toy_trainer(cfg, cfg["data.num_speakers"])
    losses = workloads.canary_losses(m, head, opt)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(BENCH_DIR)) as tmp:
        _, canary = workloads.write_embed_corpus(tmp, seed=0)
        ckpt = os.path.join(tmp, "checkpoint.sevx")
        workloads.write_embed_checkpoint(ckpt)
        model_, _, _ = pipeline.load_checkpoint(ckpt)
        emb = workloads.embed_one(model_, canary)
    ref = {"train_toy_canary_losses": losses,
           "embed_full_canary_embedding": [float(v) for v in emb]}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print(f"canary losses {losses}; embedding norm {float((emb ** 2).sum()) ** 0.5:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
