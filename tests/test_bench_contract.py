"""The surface the benchmark (bench/) wraps from outside the package.

bench/tracer.py patches public functions and methods by name and reads
layer attributes; bench/layers.py rebuilds conv, BN and SE layers from the
traced attributes to time their backward. A traced train step, eval
forward and WAV featurization must record the spans below, and each probe
must rebuild its layer.
"""

import importlib
import math
import os

import numpy as np
import pytest

from sevx import features, model
from sevx.model import ModelSpec
from sevx.se import SEConfig
from sevx.tensor import Tensor

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SE_BLOCKS = 3 + 4 + 6 + 3  # SE on every block of stages 1-4


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("tracer"), importlib.import_module("layers")


def test_traced_step_extract_and_backward_probes(bench, tmp_path):
    tracer_mod, layers = bench
    spec = ModelSpec(scale_factor=0.0625, segment_frames=16)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1, 60, 16)).astype(np.float32)
    wav = str(tmp_path / "tone.wav")
    features.write_wav(wav, 0.4 * np.sin(2 * np.pi * 440.0 * np.arange(8000) / 16000))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        m = model.build_model(spec, SEConfig(stages=frozenset({1, 2, 3, 4})), seed=3)
        head = model.AAMHead(spec.num_speakers, spec.embedding_dim, seed=3)
        opt = model.SGDOptimizer(list(m.named_parameters()) + list(head.named_parameters()))
        tracer.op = "train"
        model.train_step(m, head, Tensor(x), np.array([0, 1]), opt)
        tracer.op = "extract"
        model.extract_embedding(m, Tensor(x[:1]))
        tracer.op = "features"
        features.featurize_wav(wav)

        spans = tracer.spans
        names = {op: [s.name for s in spans if s.op == op]
                 for op in ("setup", "train", "extract", "features")}
        assert names["setup"] == ["model.build"]
        assert set(names["train"]) == {
            "model.train_step", "model.forward", "nn.conv_fwd", "nn.bn_fwd", "se.rescale",
            "se.squeeze", "se.excite", "nn.pool", "nn.embed", "model.loss",
            "model.backward", "model.optimizer"}
        assert set(names["extract"]) == set(names["train"]) - {
            "model.train_step", "model.loss", "model.backward", "model.optimizer"} | {
            "model.extract"}
        assert names["features"] == ["features.featurize_wav", "features.read_wav",
                                     "features.logmel", "features.vad"]
        for op, batch, train in (("train", 2, True), ("extract", 1, False)):
            (fwd,) = [s for s in spans if s.op == op and s.name == "model.forward"]
            assert fwd.attrs == {"batch": batch, "frames": 16, "train": train}
            assert names[op].count("se.rescale") == SE_BLOCKS
            assert names[op].count("nn.embed") == 1
            convs = [s for s in spans if s.op == op and s.name == "nn.conv_fwd"]
            assert {s.attrs["layer"] for s in convs} == set(layers.CONV_LAYERS)
            assert {s.attrs["tape"] for s in convs} == {train}

        for kind, name in (("conv", "nn.conv_fwd"), ("bn", "nn.bn_fwd"), ("se", "se.rescale")):
            attrs = next(s.attrs for s in spans if s.op == "train" and s.name == name)
            assert layers.PROBED[name] == kind
            assert math.isfinite(layers.probe_backward_ms(kind, attrs, reps=1))
    finally:
        tracer.uninstall()
