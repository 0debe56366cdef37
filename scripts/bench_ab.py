#!/usr/bin/env python3
"""A/B benchmark of this tree against a parent revision: alternating untraced
``bench/run.py`` runs of one workload, summarised per end-to-end metric of
``BENCHMARK.json``.

The parent side is built once per call under ``.bench_build/<commit>/``:
``git archive <rev> src`` next to this tree's ``bench/`` and
``BENCHMARK.json``. The change side is this tree. Each run lasts the
declared ``run_seconds``; pair i runs the parent first when i is odd. Any
``MALLOC_*`` variable set in the environment reaches both sides and is
recorded, so a fixed-threshold pass is the same command run under, say,
``MALLOC_MMAP_THRESHOLD_=131072``.

The result is appended to the JSON list in ``--out``: per metric the medians
and quartiles of each side, in how many pairs the change was better (ties
count for neither side), whether its median is worse than the parent's by
more than the declared bound, and whether it meets the gain rule (better in
at least 90 % of the pairs, with a median gap wider than the parent's
interquartile range), and in how many pairs the two sides' per-operation
output digests are equal. Each run's checks, digests, BLAS thread count and
numpy version come from its ``.bench_out/`` report.

Usage: python scripts/bench_ab.py --parent <rev> --workload train-toy --seed 1
           --pairs 10 --out .benchmarks/BENCH_<n>.json
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9


def build_parent(rev: str) -> tuple[str, str]:
    """(commit, directory) of the parent side: its src/ with today's bench/."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    side = os.path.join(ROOT, ".bench_build", commit)
    shutil.rmtree(side, ignore_errors=True)
    os.makedirs(side)
    src = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(src)) as tar:
        tar.extractall(side, filter="data")
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(side, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), side)
    return commit, side


def run_once(side: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its checks and metric values, and its manifest."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=side, capture_output=True, text=True, check=False)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"bench_ab: {' '.join(cmd)} in {side} exited {res.returncode}\n{res.stderr}")
    result = json.loads(lines[-1])
    with open(os.path.join(side, ".bench_out", f"{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as f:
        report = json.load(f)
    manifest = report["manifest"]
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "process_threads": manifest["process_threads"], "numpy": manifest["numpy"],
            "src_sha256": manifest["src_sha256"], "digests": report["digests"]}


def digests_equal_in(parent: list[dict], change: list[dict]) -> str:
    """In how many pairs both sides' per-operation output digests are equal
    over the operations both ran."""
    same = 0
    for p, c in zip(parent, change):
        n = min(len(p["digests"]), len(c["digests"]))
        same += p["digests"][:n] == c["digests"][:n]
    return f"{same}/{len(parent)}"


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    """Per declared metric, the paired comparison of runs that share an index."""
    out = {}
    for m in declared:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        ps, cs = _quartiles(p), _quartiles(c)
        # positive gain means the change is better, in the metric's direction
        gain = sign * (ps["median"] - cs["median"])
        better = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        out[name] = {
            "unit": m["unit"], "better": m["better"], "parent": ps, "change": cs,
            "change_pct": 100.0 * (cs["median"] - ps["median"]) / ps["median"],
            "better_in": f"{better}/{len(p)}",
            "worse_than_bound": -gain > m["bound"] * abs(ps["median"]),
            "gain_rule": (better >= GAIN_SHARE * len(p) and gain > ps["q3"] - ps["q1"]),
        }
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="JSON list to append the result to")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commit, parent_side = build_parent(args.parent)
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(parent_side if side == "parent" else ROOT,
                                       args.workload, args.seed, spec["run_seconds"]))
        print(f"pair {i}: " + "  ".join(
            f"{s} {runs[s][-1]['metrics']}" for s in ("parent", "change")), flush=True)
    summary = summarize(runs["parent"], runs["change"], spec["end_to_end"])
    entry = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
             "run_seconds": spec["run_seconds"], "parent_commit": commit,
             "malloc_env": {k: v for k, v in sorted(os.environ.items())
                            if k.startswith("MALLOC_")},
             "failed_checks": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
             "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
             "digests_equal_in": digests_equal_in(runs["parent"], runs["change"]),
             "summary": summary, "runs": runs}
    results = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            results = json.load(f)
    results.append(entry)
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    os.replace(tmp, args.out)
    for name, s in summary.items():
        print(f"{name:12s} {s['parent']['median']:10.4g} -> {s['change']['median']:10.4g} "
              f"{s['unit']:4s} {s['change_pct']:+6.1f} %  better {s['better_in']:>5s}  "
              f"worse than bound: {s['worse_than_bound']}  gain rule: {s['gain_rule']}")
    return 0 if entry["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
