"""In-memory span tracer that wraps the public functions and methods of the
sevx layers from outside the package.

``install`` replaces each traced callable with a wrapper that records a span
(name, start, end, parent, operation id, attributes) and calls through, so a
traced run computes exactly what an untraced run computes. Module-level
functions are patched in every sevx module that imported them by name.
``uninstall`` restores the originals. Nothing here is imported by an
untraced run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from sevx import analysis, checkpoint, features, metrics, model, nn, pipeline, se, tensor

# every module that may hold a traced function under its own name
MODULES = (analysis, checkpoint, features, metrics, model, nn, pipeline, se)


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index of the enclosing span, -1 at top level
    op: str             # operation id current when the span opened
    attrs: dict = field(default_factory=dict)

    @property
    def dur_ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = "setup"
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording --------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter_ns(), 0, parent, self.op, attrs or {})
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        if attrs is not None and "tape" in attrs:
            # the output is on the tape exactly when its backward will run
            attrs["tape"] = result.requires_grad
        return result

    def self_ms(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [(s.end - s.start - c) / 1e6 for s, c in zip(self.spans, child)]

    # ---- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrapper(self, name: str, fn, attrs_fn=None):
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = attrs_fn(*args, **kwargs) if attrs_fn else None
            if attrs is False:      # not a traced instance: call straight through
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, attrs)

        return wrapper

    def _wrap_function(self, name: str, fn, attrs_fn=None) -> None:
        wrapper = self._wrapper(name, fn, attrs_fn)
        for mod in MODULES:
            if getattr(mod, fn.__name__, None) is fn:
                self._patch(mod, fn.__name__, wrapper)

    def _wrap_method(self, name: str, cls, attr: str, attrs_fn=None) -> None:
        self._patch(cls, attr, self._wrapper(name, cls.__dict__[attr], attrs_fn))

    def install(self) -> None:
        names: dict[int, str] = {}      # id(parameter) -> name, refreshed on every forward

        def forward_attrs(m, x, train):
            names.clear()
            for pname, p in m.named_parameters():
                names[id(p)] = pname
            return {"batch": x.shape[0], "frames": x.shape[3], "train": bool(train)}

        def conv_attrs(conv, x):
            pname = names.get(id(conv.weight), "unknown.")
            return {"layer": pname.split(".")[0], "x": tuple(x.shape),
                    "cout": conv.out_channels, "k": conv.kernel, "stride": conv.stride,
                    "pad": conv.padding, "bias": conv.bias is not None,
                    "x_grad": x.requires_grad, "w_grad": conv.weight.requires_grad,
                    "tape": None}

        def bn_attrs(bn, x, train):
            return {"x": tuple(x.shape), "train": bool(train), "x_grad": x.requires_grad,
                    "tape": None}

        def linear_attrs(lin, x):
            if not names.get(id(lin.weight), "").startswith("embed."):
                return False
            return {"x": tuple(x.shape)}

        self._wrap_method("model.forward", model.SpeakerEmbedder, "forward_embedding", forward_attrs)
        self._wrap_method("nn.conv_fwd", nn.Conv2d, "forward", conv_attrs)
        self._wrap_method("nn.bn_fwd", nn.BatchNorm2d, "forward", bn_attrs)
        self._wrap_method("nn.embed", nn.Linear, "forward", linear_attrs)
        self._wrap_function("nn.pool", nn.temporal_stats_pool)

        def se_attrs(x, unit):
            return {"x": tuple(x.shape), "config": unit.config, "x_grad": x.requires_grad,
                    "tape": None}

        self._wrap_function("se.squeeze", se.squeeze)
        self._wrap_method("se.excite", se.SEUnit, "excite")
        # se_apply's own time, net of squeeze and excite, is the rescale
        self._wrap_function("se.rescale", se.se_apply, se_attrs)

        self._wrap_function("model.loss", model.aam_loss)
        self._wrap_function("model.train_step", model.train_step)
        self._wrap_function("model.extract", model.extract_embedding)
        self._wrap_function("model.build", model.build_model)
        self._wrap_method("model.backward", tensor.Tensor, "backward")
        self._wrap_method("model.optimizer", model.SGDOptimizer, "step")

        self._wrap_function("checkpoint.write", checkpoint.write_container,
                            lambda path, metadata, tensors: {"path": path})
        self._wrap_function("checkpoint.read", checkpoint.read_container)

        self._wrap_function("metrics.score", pipeline.score_trials,
                            lambda embeddings, trials: {"trials": len(trials)})
        for fn, name in ((features.read_wav, "features.read_wav"),
                         (features.logmel, "features.logmel"),
                         (features.energy_vad, "features.vad"),
                         (features.featurize_wav, "features.featurize_wav"),
                         (features.generate_synthetic_corpus, "features.synth_corpus"),
                         (metrics.metrics_report, "metrics.eer_dcf"),
                         (analysis.capture_excitations, "analysis.capture"),
                         (analysis.across_speaker_profile, "analysis.profile"),
                         (analysis.render_report, "analysis.report"),
                         (pipeline.write_corpus, "pipeline.write_corpus"),
                         (pipeline.load_corpus, "pipeline.load_corpus"),
                         (pipeline.build_training_set, "pipeline.build_training_set"),
                         (pipeline.train_accuracy, "pipeline.train_accuracy"),
                         (pipeline.load_checkpoint, "pipeline.load_checkpoint"),
                         (pipeline.save_checkpoint, "pipeline.save_checkpoint"),
                         (pipeline.run_training, "pipeline.run_training"),
                         (pipeline.evaluate_checkpoint, "pipeline.evaluate_checkpoint"),
                         (pipeline.run_ablation, "pipeline.run_ablation")):
            self._wrap_function(name, fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def calibrate_ns(self, n: int = 20000) -> float:
        """Bookkeeping cost of one span: a traced no-op minus a bare one. It leaves
        out the wrappers' attribute capture, so it is a lower estimate."""
        def noop():
            return None

        saved = (self.spans, self._stack)
        self.spans, self._stack = [], []
        t0 = time.perf_counter_ns()
        for _ in range(n):
            self.call("calibrate", noop, (), {})
        traced = time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        for _ in range(n):
            noop()
        bare = time.perf_counter_ns() - t0
        self.spans, self._stack = saved
        return max(traced - bare, 0) / n
