#!/usr/bin/env python3
"""Reproduce the five ablation table row structures at desk scale: SE stage
placement, reduction factor, integration strategy, hidden-layer count, and
squeeze pooling variant. Every sweep shares the seed, corpus, minibatch
order, and backbone initialization, so rows differ only in the SE axis.

Each sweep writes <out>/<axis>/ablation/results.tsv.

Usage: python scripts/run_ablation_tables.py [--out runs/tables] [--seed 2024]
       [--axes stages,reduction,integration,hidden,pooling]
"""

import argparse
import os
import sys

from run_toy_experiment import write_config
from sevx.cli import main as sevx_main
from sevx.se import INTEGRATIONS, POOLINGS

SWEEPS = {
    "stages": "stages=|1|1,2|1,2,3|1,2,3,4",
    "reduction": "r=2|4|8",
    "integration": "integration=" + "|".join(INTEGRATIONS),
    "hidden": "h=1|2|3|4",
    "pooling": "pooling=" + "|".join(POOLINGS),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/tables")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--axes", default=",".join(SWEEPS),
                        help="comma list of sweeps to run")
    args = parser.parse_args()

    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    unknown = [a for a in axes if a not in SWEEPS]
    if unknown:
        print(f"unknown axes: {unknown}; available: {sorted(SWEEPS)}", file=sys.stderr)
        return 1

    for axis in axes:
        out = os.path.join(args.out, axis)
        os.makedirs(out, exist_ok=True)
        cfg_path = os.path.join(out, "base.cfg")
        # the toy experiment's config, with half its epochs per ablation cell
        write_config(cfg_path, {"seed": str(args.seed), "out": out, "optim.epochs": "8"})
        rc = sevx_main(["--sequential", "make-data", "--config", cfg_path])
        if rc != 0:
            return rc
        rc = sevx_main(["--sequential", "ablate", "--config", cfg_path,
                        "--grid", SWEEPS[axis]])
        if rc != 0:
            return rc
        print(f"== {axis} sweep -> {os.path.join(out, 'ablation', 'results.tsv')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
