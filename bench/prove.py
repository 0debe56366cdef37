#!/usr/bin/env python3
"""Run the benchmark over several seeds and check that it is steady.

    python3 bench/prove.py --seeds 10                      # every workload
    python3 bench/prove.py --seeds 5 --workloads embed-full
    python3 bench/prove.py --seeds 10 --traced --out bench/baseline.json

For each workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A spread must stay
below the metric's bound; the aim is a third of it. ``--traced`` adds one
traced run per workload on the first seed, checks that its per-operation
output digests equal the untraced run's, and measures the tracing overhead
as the traced run's op_ms_p50 against the untraced one. ``--out`` writes all
of it, with the per-layer metrics of the traced runs, as the baseline.
Runs are sequential, one process at a time.
"""

import argparse
import json
import os
import statistics
import sys

from run import ROOT, spawn

# Which end-to-end figure each layer metric should move, the workload where
# it should move most, and where the prediction is no change.
LAYER_TABLE = {
    "nn.conv_fwd_ms.*, nn.conv_gflops_per_s": ["op_ms_p50, work_per_s", "embed-full", "-"],
    "nn.conv_bwd_ms.* (dW GEMM, dX GEMM + col2im)": ["op_ms_p50, work_per_s", "train-toy", "embed-full"],
    "nn.bn_fwd_ms, nn.bn_bwd_ms, nn.pool_ms, nn.embed_ms": ["op_ms_p50", "train-toy / embed-full", "-"],
    "se.*": ["op_ms_p50 on ablate-toy and train-toy", "ablate-toy", "embed-full (stages 1-2, forward only)"],
    "model.forward/loss/backward/optimizer_ms": ["op_ms_p50, work_per_s", "train-toy", "embed-full"],
    "model.build_ms": ["setup_s, ablate-toy op_ms_p50", "ablate-toy", "-"],
    "tensor.backward_other_ms": ["op_ms_p50", "train-toy", "embed-full"],
    "features.*": ["embed-full op_ms_p50, setup_s", "embed-full (<1 %)", "toy workloads"],
    "checkpoint.*": ["setup_s, ablate-toy op_ms_p50", "ablate-toy, embed-full set-up", "train-toy"],
    "metrics.*": ["embed-full post-run scoring (<1 % of a run)", "embed-full", "-"],
    "analysis.*": ["ablate-toy work_per_s", "ablate-toy", "others"],
    "pipeline.*": ["setup_s, ablate-toy op_ms_p50", "ablate-toy", "-"],
    "proc.*, trace.*": ["diagnostic: BLAS threading, tracing cost", "all", "-"],
}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    baseline = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {},
                "layer_table": {k: dict(zip(("should_move", "mostly_on", "nil_on"), v))
                                for k, v in LAYER_TABLE.items()}}
    steady = True
    for workload in names:
        runs = [spawn(workload, seed, seconds, 0) for seed in seeds]
        entry = {"end_to_end": {}, "correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "process_wall_s": [round(r["process_wall_s"], 2) for r in runs]}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            s.update(unit=m["unit"], bound=m["bound"])
            entry["end_to_end"][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- above a third of the bound"
            if m["name"] != "setup_s" and s["spread"] > m["bound"] / 3:
                steady = False
            print(f"{workload:11s} {m['name']:12s} median {s['median']:12.5g} {m['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){flag}", flush=True)
        print(f"{workload:11s} checks: {entry['attempted'] - entry['failed']} of "
              f"{entry['attempted']} passed; process wall s {entry['process_wall_s']}", flush=True)
        if args.traced:
            traced = spawn(workload, seeds[0], seconds, 1)
            plain = runs[0]
            d0, d1 = plain["report"]["digests"], traced["report"]["digests"]
            common = min(len(d0), len(d1))
            p0 = plain["metrics"]["op_ms_p50"]["value"]
            p1 = statistics.median(traced["report"]["op_ms"])
            entry["trace"] = {
                "outputs_identical": d0[:common] == d1[:common] and common > 0,
                "operations_compared": common,
                "op_ms_p50_untraced": p0, "op_ms_p50_traced": p1,
                "overhead_pct_measured": 100.0 * (p1 / p0 - 1.0),
                "overhead_pct_span_cost": traced["metrics"]["trace.overhead_pct"]["value"],
                "span_totals_s": traced["report"]["span_totals_s"],
                "traced_run_wall_s": round(traced["process_wall_s"], 2),
            }
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["correct"] &= traced["correct"]
            print(f"{workload:11s} traced: outputs identical on {common} operations: "
                  f"{entry['trace']['outputs_identical']}; op_ms_p50 {p1:.1f} vs {p0:.1f} ms",
                  flush=True)
        entry["manifest"] = runs[0]["report"]["manifest"]
        baseline["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
