#!/usr/bin/env python3
"""Desk-scale end-to-end experiment: synthesize a 20-speaker corpus, train the
scale-1/8 extractor with SE at stages 1-2 (r=4, h=2, mean+std squeeze), score
the synthetic trial list, and run the excitation analysis.

Usage: python scripts/run_toy_experiment.py [--out runs/toy] [--seed 2024]
"""

import argparse
import os
import sys

from sevx.cli import main as sevx_main
from sevx.config import TOY_CONFIG, RunConfig


def write_config(path: str, overrides: dict[str, str]) -> None:
    """Write the toy config with ``overrides`` as a resolved config file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(RunConfig({**TOY_CONFIG, **overrides}).render())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/toy")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--analyze-all-stages", action="store_true",
                        help="also train a short all-stages model for the "
                             "stage 1-4 excitation report")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "toy.cfg")
    write_config(cfg_path, {"seed": str(args.seed), "out": args.out})

    for step in (["make-data"], ["train"], ["score"], ["metrics"], ["analyze"]):
        rc = sevx_main(["--sequential"] + step + ["--config", cfg_path])
        if rc != 0:
            return rc

    if args.analyze_all_stages:
        all_out = os.path.join(args.out, "allstages")
        all_cfg = os.path.join(args.out, "toy_allstages.cfg")
        write_config(all_cfg, {"seed": str(args.seed), "out": all_out,
                               "se.stages": "1,2,3,4", "optim.epochs": "6"})
        for step in (["make-data"], ["train"], ["analyze"]):
            rc = sevx_main(["--sequential"] + step + ["--config", all_cfg])
            if rc != 0:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
