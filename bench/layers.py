"""Per-layer metrics derived from a traced run's spans.

Layer kernels (``nn.*``, ``se.*``, ``model.*`` except ``model.build_ms``) are
milliseconds per timed operation: the operation's summed span time, median
over operations; ``nn.*`` and ``se.*`` use self time, ``model.*`` the whole
span. Pipeline, I/O and set-up functions are milliseconds per call, median
over every call in the run. Conv FLOPs and im2col/col2im bytes are computed
from the traced shapes, not measured.

Per-layer backward time is spent inside the tape's closures, which the
package does not expose. It is measured by running the layer's public
forward on each shape the workload produced, then Tensor.backward through a
fixed linear read-out, minus the same read-out on a leaf of the output
shape. Probe layers are built fresh, so the workload's state is untouched.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from sevx import nn, se
from sevx.tensor import Tensor

CONV_LAYERS = ("stem", "stage1", "stage2", "stage3", "stage4")
PER_CALL = {
    "model.build_ms": ("model.build",),
    "features.read_wav_ms": ("features.read_wav",),
    "features.logmel_ms": ("features.logmel",),
    "features.vad_ms": ("features.vad",),
    "features.synth_corpus_ms": ("features.synth_corpus",),
    "checkpoint.write_ms": ("checkpoint.write",),
    "checkpoint.read_ms": ("checkpoint.read",),
    "metrics.eer_dcf_ms": ("metrics.eer_dcf",),
    "analysis.capture_ms": ("analysis.capture",),
    "analysis.profile_ms": ("analysis.profile", "analysis.report"),
    "pipeline.load_corpus_ms": ("pipeline.load_corpus",),
    "pipeline.build_training_set_ms": ("pipeline.build_training_set",),
    "pipeline.train_accuracy_ms": ("pipeline.train_accuracy",),
    "pipeline.load_checkpoint_ms": ("pipeline.load_checkpoint",),
}
PER_OP_SELF = {
    "nn.bn_fwd_ms": "nn.bn_fwd", "nn.pool_ms": "nn.pool", "nn.embed_ms": "nn.embed",
    "se.squeeze_ms": "se.squeeze", "se.excite_ms": "se.excite", "se.rescale_ms": "se.rescale",
}
PER_OP_WHOLE = {
    "model.forward_ms": "model.forward", "model.loss_ms": "model.loss",
    "model.backward_ms": "model.backward", "model.optimizer_ms": "model.optimizer",
}
PROBED = {"nn.conv_fwd": "conv", "nn.bn_fwd": "bn", "se.rescale": "se"}


def _readout_backward_ms(make_out, out_shape, reps: int) -> float:
    g = Tensor(np.random.default_rng(7).standard_normal(out_shape).astype(np.float32))
    times = []
    for _ in range(reps):
        loss = (make_out() * g).sum()
        t0 = time.perf_counter_ns()
        loss.backward()
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return float(np.median(times))


def probe_backward_ms(kind: str, attrs: dict, reps: int = 3) -> float:
    rng = np.random.default_rng(11)
    xshape = attrs["x"]
    x = Tensor(rng.standard_normal(xshape).astype(np.float32), requires_grad=attrs["x_grad"])
    if kind == "conv":
        layer = nn.Conv2d(xshape[1], attrs["cout"], kernel=attrs["k"], stride=attrs["stride"],
                          padding=attrs["pad"], bias=attrs["bias"], rng=rng)
        layer.weight.requires_grad = attrs["w_grad"]
        if layer.bias is not None:
            layer.bias.requires_grad = attrs["w_grad"]

        def make_out():
            return layer.forward(x)
    elif kind == "bn":
        layer = nn.BatchNorm2d(xshape[1])

        def make_out():
            return layer.forward(x, True)
    else:
        unit = se.SEUnit(xshape[1], attrs["config"], seed=11)

        def make_out():
            return se.se_apply(x, unit)
    out_shape = make_out().shape
    leaf = Tensor(np.zeros(out_shape, dtype=np.float32), requires_grad=True)
    return (_readout_backward_ms(make_out, out_shape, reps)
            - _readout_backward_ms(lambda: leaf, out_shape, reps))


def _probe_key(kind: str, attrs: dict):
    return (kind,) + tuple(sorted((k, repr(v)) for k, v in attrs.items()))


def conv_counts(attrs: dict) -> tuple[float, float]:
    """(forward FLOPs, im2col buffer bytes) of one conv call, from its shapes."""
    b, cin, f, t = attrs["x"]
    k, (sf, st), (pf, pt) = attrs["k"], attrs["stride"], attrs["pad"]
    positions = b * ((f + 2 * pf - k) // sf + 1) * ((t + 2 * pt - k) // st + 1)
    rows = cin * k * k
    return 2.0 * attrs["cout"] * rows * positions, 4.0 * rows * positions


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer, op_ids: list[str], run_wall_s: float, span_cost_ns: float) -> dict:
    spans = tracer.spans
    self_ms = tracer.self_ms()
    ops = {op: defaultdict(float) for op in op_ids}
    calls: dict[str, list[float]] = defaultdict(list)
    probes: dict[tuple, float] = {}
    write_paths, trials, score_ms = [], [], 0.0
    fwd_flops = fwd_s = 0.0

    for span, own in zip(spans, self_ms):
        calls[span.name].append(span.dur_ms)
        if span.name == "checkpoint.write":
            write_paths.append(span.attrs["path"])
        if span.name == "metrics.score":
            trials.append(span.attrs["trials"])
            score_ms += span.dur_ms
        acc = ops.get(span.op)
        if acc is None:
            continue
        if span.name in PER_OP_WHOLE.values():
            acc[span.name] += span.dur_ms
        else:
            acc[span.name] += own
        if span.name == "se.rescale":
            acc["se.calls"] += 1
        if span.name == "nn.conv_fwd":
            layer = span.attrs["layer"]
            flops, cols = conv_counts(span.attrs)
            acc[f"nn.conv_fwd_ms.{layer}"] += own
            acc["nn.conv_fwd_gflop"] += flops / 1e9
            acc["nn.im2col_mb"] += cols / 1e6
            fwd_flops += flops
            fwd_s += own / 1e3
            if span.attrs["tape"]:
                acc["nn.conv_bwd_gflop"] += (span.attrs["w_grad"] + span.attrs["x_grad"]) * flops / 1e9
                if span.attrs["x_grad"]:
                    acc["nn.col2im_mb"] += cols / 1e6
        kind = PROBED.get(span.name)
        if kind and span.attrs["tape"]:
            key = _probe_key(kind, span.attrs)
            if key not in probes:
                probes[key] = probe_backward_ms(kind, span.attrs)
            target = {"conv": f"nn.conv_bwd_ms.{span.attrs.get('layer')}",
                      "bn": "nn.bn_bwd_ms", "se": "se.bwd_ms"}[kind]
            acc[target] += probes[key]
            acc["bwd_attributed"] += probes[key]

    def per_op(key: str) -> float:
        return _median([acc.get(key, 0.0) for acc in ops.values()])

    out = {}
    for layer in CONV_LAYERS:
        out[f"nn.conv_fwd_ms.{layer}"] = per_op(f"nn.conv_fwd_ms.{layer}")
        out[f"nn.conv_bwd_ms.{layer}"] = per_op(f"nn.conv_bwd_ms.{layer}")
    out["nn.conv_gflops_per_s"] = fwd_flops / 1e9 / fwd_s if fwd_s else 0.0
    for key in ("nn.conv_fwd_gflop", "nn.conv_bwd_gflop", "nn.im2col_mb", "nn.col2im_mb",
                "nn.bn_bwd_ms", "se.bwd_ms", "se.calls"):
        out[key] = per_op(key)
    for metric, name in {**PER_OP_SELF, **PER_OP_WHOLE}.items():
        out[metric] = per_op(name)
    out["tensor.backward_other_ms"] = _median(
        [acc["model.backward"] - acc["bwd_attributed"] for acc in ops.values()
         if acc.get("model.backward")])
    for metric, names in PER_CALL.items():
        per_name = [_median(calls[n]) for n in names]
        out[metric] = float(sum(per_name))
    sizes = [os.path.getsize(p) / 1e6 for p in write_paths if os.path.exists(p)]
    out["checkpoint.mb"] = _median(sizes)
    out["metrics.trials"] = _median(trials)
    out["metrics.score_us_per_trial"] = 1e3 * score_ms / sum(trials) if trials else 0.0
    top_level_ms = sum(s.dur_ms for s in spans if s.parent < 0)
    out["trace.overhead_pct"] = 100.0 * len(spans) * span_cost_ns / 1e9 / run_wall_s
    out["trace.unattributed_pct"] = 100.0 * (1.0 - top_level_ms / 1e3 / run_wall_s)
    out["trace.spans"] = float(len(spans))
    return out


def span_totals(tracer, run_wall_s: float) -> dict:
    """Self time per span name over the whole traced run, plus the remainder
    no span covers (the benchmark's own input generation and checks); the
    entries add up to the run's wall time."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_ms()):
        totals[span.name] += own / 1e3
    covered = sum(totals.values())
    out = {name: round(v, 6) for name, v in sorted(totals.items(), key=lambda kv: -kv[1])}
    out["(no span)"] = round(run_wall_s - covered, 6)
    return out
