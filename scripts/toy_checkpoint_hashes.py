#!/usr/bin/env python3
"""SHA-256 of small checkpoints trained for three SGD steps at lr 0.05, one
per variant: SE off, each of the four wirings, the max, mean and std
squeezes, and the mean+std temporal pooling, so every mode of
``nn.stats_pool`` is pinned. Each ``<label>`` line is followed by an
``eval-<label>`` line: the SHA-256 of the float32 ``extract_embedding``
outputs of the trained model on a few fixed inputs. Those inputs are also
embedded together by ``extract_embeddings``; the script exits 1 if any byte
of that batch differs from the one-at-a-time embeddings.

A refactor that does not touch the math must leave every line unchanged.
The hashes are bit-exact only with BLAS on one thread, so the script pins it
through the environment before numpy is imported.

Usage: python scripts/toy_checkpoint_hashes.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from sevx.config import RunConfig  # noqa: E402
from sevx.model import (AAMHead, SGDOptimizer, build_model, extract_embedding,  # noqa: E402
                        extract_embeddings, train_step)
from sevx.pipeline import save_checkpoint  # noqa: E402
from sevx.se import INTEGRATIONS  # noqa: E402
from sevx.tensor import Tensor  # noqa: E402

SEED = 2024
SPEAKERS = 20
EVAL_INPUTS = 3
VARIANTS = ([("off", {"se.stages": ""})]
            + [(w, {"se.stages": "1,2,3,4", "se.integration": w}) for w in INTEGRATIONS]
            + [(p, {"se.stages": "1,2,3,4", "se.pooling": p}) for p in ("max", "mean", "std")]
            + [("pool-mean_std", {"se.stages": "1,2,3,4", "model.temporal_pooling": "mean_std"})])


def trained_sha256(overrides: dict[str, str], path: str) -> tuple[str, str, bool]:
    """(checkpoint SHA-256, eval-embedding SHA-256, whether the batched eval
    forward gave the same bytes) of one variant."""
    cfg = RunConfig({"seed": str(SEED), "model.scale_factor": "0.125",
                     "model.segment_frames": "64", "data.num_speakers": str(SPEAKERS),
                     **overrides})
    model = build_model(cfg.model_spec(), cfg.se_config(), seed=SEED)
    head = AAMHead(SPEAKERS, 256, seed=SEED)
    # at the default lr 0.2 the identity wiring's eval forward overflows to NaN
    opt = SGDOptimizer(list(model.named_parameters()) + list(head.named_parameters()), lr=0.05)
    rng = np.random.default_rng(SEED)
    for _ in range(3):
        x = rng.normal(size=(8, 1, 60, 64)).astype(np.float32)
        y = rng.integers(0, SPEAKERS, 8)
        train_step(model, head, Tensor(x), y, opt)
    save_checkpoint(path, model, head, cfg)
    with open(path, "rb") as f:
        checkpoint = hashlib.sha256(f.read()).hexdigest()
    eval_rng = np.random.default_rng(SEED + 1)
    xs = [eval_rng.normal(size=(1, 1, 60, 64)).astype(np.float32) for _ in range(EVAL_INPUTS)]
    alone = b"".join(extract_embedding(model, Tensor(x)).astype("<f4").tobytes() for x in xs)
    batched = extract_embeddings(model, Tensor(np.concatenate(xs))).astype("<f4").tobytes()
    return checkpoint, hashlib.sha256(alone).hexdigest(), batched == alone


def main() -> int:
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, overrides in VARIANTS:
            checkpoint, embeddings, same = trained_sha256(
                overrides, os.path.join(tmp, f"{label}.sevx"))
            print(f"{label} {checkpoint}\neval-{label} {embeddings}", flush=True)
            if not same:
                differ.append(label)
    if differ:
        print(f"batched eval embeddings differ from one-at-a-time ones: {', '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
