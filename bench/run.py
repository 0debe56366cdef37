#!/usr/bin/env python3
"""sevx benchmark: three seeded closed-loop workloads, one process each.

    python3 bench/run.py --workload train-toy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a run whose calls into the package are wrapped in
spans. ``--workload all`` runs every workload untraced and traced, each in
its own process, and prints every metric by name with its unit. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. The full report (environment manifest, workload-specific figures,
per-operation output digests, span totals) is written under .bench_out/.

Run it from the root of a checkout: it imports sevx from ./src. BLAS runs on
one thread, pinned through the environment before numpy is imported.
"""

import os
import sys
import time

T_START = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train-toy", "embed-full", "ablate-toy")


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def declared_metrics() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")
    return spec


def import_sevx():
    if not os.path.isfile(os.path.join(SRC, "sevx", "__init__.py")):
        fail(f"no sevx package under {SRC}; run from the root of a sevx checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import sevx

    if os.path.dirname(os.path.dirname(os.path.abspath(sevx.__file__))) != SRC:
        fail(f"imported sevx from {sevx.__file__}, not from {SRC}")


def proc_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout's own .git, or None when it is not a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS, "process_threads": threads,
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> dict:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    import numpy as np

    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n - int(np.ceil(n * p / 100.0)) >= 10:
            return {"value": float(np.percentile(values, p)), "percentile": p, "samples": n}
    return {"value": None, "percentile": None, "samples": n,
            "note": "fewer than 20 operations: no percentile has ten samples beyond it"}


def run_one(args) -> int:
    import_sevx()
    import numpy as np

    import workloads

    t_imported = time.perf_counter()
    spec = declared_metrics()
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    cpu0 = os.times()
    try:
        ctx = workloads.Context(args.seed, args.seconds, workdir, tracer)
        outcome = workloads.WORKLOADS[args.workload](ctx)
        run_wall_s = time.perf_counter() - T_START
        cpu1 = os.times()
        threads = proc_threads()
        ctx.checks.record("BLAS threads", [] if threads == BLAS_THREADS else
                          [f"{threads} process threads, expected {BLAS_THREADS}"])
        cpu_per_wall = ((cpu1.user - cpu0.user + cpu1.system - cpu0.system)
                        / (cpu1.elapsed - cpu0.elapsed))
        report = {
            "manifest": manifest(args, threads),
            "import_s": t_imported - T_START,
            "setup_reps_s": outcome.setup_reps_s,
            "setup_first_s": outcome.first_op_at - T_START,
            "operations": len(outcome.op_ms),
            "op_ms": outcome.op_ms,
            "op_ms_tail": tail(outcome.op_ms),
            "window_s": outcome.window_s,
            "cpu_per_wall": cpu_per_wall,
            "digests": outcome.digests,
            "details": outcome.details,
            "failures": ctx.checks.failures,
        }
        if tracer is not None:
            tracer.uninstall()
            import layers

            span_cost = tracer.calibrate_ns()
            values = layers.layer_metrics(tracer, outcome.op_ids, run_wall_s, span_cost)
            values["proc.cpu_per_wall"] = cpu_per_wall
            values["proc.threads"] = float(threads)
            report["span_totals_s"] = layers.span_totals(tracer, run_wall_s)
            report["span_cost_ns"] = span_cost
            declared = spec["per_layer"]
        else:
            values = {
                "setup_s": report["import_s"] + float(np.median(outcome.setup_reps_s)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_ms_p50": float(np.median(outcome.op_ms)),
                "work_per_s": outcome.work / outcome.window_s,
            }
            declared = spec["end_to_end"]
        metrics = {}
        for m in declared:
            if m["name"] not in values:
                fail(f"metric {m['name']} declared in BENCHMARK.json is not measured")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        report["metrics"] = metrics
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, default=str)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks = ctx.checks
    print(json.dumps({"workload": args.workload, "failures": checks.failures,
                      "op_ms_tail": report["op_ms_tail"], "details": {
                          k: v for k, v in outcome.details.items() if not isinstance(v, list)}}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own process: its result line, its report and its wall time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    wall = time.perf_counter() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr)
        fail(f"{workload} seed {seed} --trace {trace} exited {res.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as f:
        result["report"] = json.load(f)
    result["process_wall_s"] = wall
    return result


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = spawn(workload, args.seed, args.seconds, trace)
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                print(f"{workload:11s} {name:34s} {m['value']:>14.6g} {m['unit']}")
                total["metrics"][f"{workload}/{name}"] = m
            print(f"{workload:11s} {'(checks)':34s} {result['attempted'] - result['failed']:>8d} "
                  f"of {result['attempted']} passed", flush=True)
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
