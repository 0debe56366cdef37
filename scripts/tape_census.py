#!/usr/bin/env python3
"""MiB that the training tape holds, per backward rule, for one forward plus
loss of the TOY_CONFIG model (no backward is run).

The tape is every array that the loss reaches: each node's output and each
array its rule's closure holds. A buffer is counted once, by its base array,
under the rule of the first node in producer-first order that reaches it. The
leaves (parameters and the input batch) are not counted, nor is any rule that
holds one of their arrays charged for it. A rule is named by its
``__qualname__``.

Usage: python scripts/tape_census.py [--batch 20]
"""

import argparse
import sys

import numpy as np

from sevx.config import TOY_CONFIG, RunConfig
from sevx.model import AAMHead, aam_loss, build_model
from sevx.tensor import Tensor, _topo_order

SEED = 2024


def toy_loss(batch: int) -> Tensor:
    """The AAM loss of one random batch through the TOY_CONFIG model, in train mode."""
    cfg = RunConfig(dict(TOY_CONFIG))
    spec = cfg.model_spec()
    model = build_model(spec, cfg.se_config(), seed=SEED)
    head = AAMHead(spec.num_speakers, spec.embedding_dim, seed=SEED)
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(batch, 1, spec.input_mel_bins, spec.segment_frames)).astype(np.float32)
    labels = rng.integers(0, spec.num_speakers, batch)
    return aam_loss(model.forward_embedding(Tensor(x), train=True), labels, head)


def _closure_arrays(fn, seen: set[int]):
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            yield value
        elif callable(value) and getattr(value, "__closure__", None) and id(value) not in seen:
            seen.add(id(value))
            yield from _closure_arrays(value, seen)


def held_arrays(node: Tensor) -> list[np.ndarray]:
    """The output of an op node, then every array its rule's closure holds."""
    return [node.data, *_closure_arrays(node._backward, set())]


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def census(loss: Tensor) -> dict[str, int]:
    """Bytes per rule name, each base array counted once."""
    order = _topo_order(loss)
    counted = {id(_base(node.data)) for node in order if node._backward is None}
    totals: dict[str, int] = {}
    for node in order:
        if node._backward is None:
            continue
        name = node._backward.__qualname__
        for a in held_arrays(node):
            base = _base(a)
            if id(base) not in counted:
                counted.add(id(base))
                totals[name] = totals.get(name, 0) + base.nbytes
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=20)
    args = parser.parse_args()
    totals = census(toy_loss(args.batch))
    for name, size in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{size / 2**20:9.1f} MiB  {name}")
    print(f"{sum(totals.values()) / 2**20:9.1f} MiB  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
