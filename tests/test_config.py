"""Config schema: defaults, parsing, unknown-key policy, typed views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevx.checkpoint import metadata_to_text
from sevx.config import SCHEMA, ConfigError, RunConfig, parse_config_text
from sevx.model import ModelSpec
from sevx.se import SEConfig

# at least one rejected value per validated key; nan for every bounded float
INVALID_VALUES = {
    "seed": ["x", "1.5"],
    "model.scale_factor": ["0", "-1", "nan", "inf", "x"],
    "model.embedding_dim": ["0", "-1", "0.5"],
    "model.segment_frames": ["0", "-1"],
    "model.temporal_pooling": ["max", ""],
    "se.pooling": ["avg", ""],
    "se.reduction": ["0", "-1", "x"],
    "se.hidden_layers": ["0", "-1"],
    "se.integration": ["diagonal", ""],
    "se.stages": ["1,9", "1,x", "0", "-1", "1,,2", "1,"],
    "optim.lr": ["0", "-1", "nan"],
    "optim.momentum": ["-0.1", "nan"],
    "optim.weight_decay": ["-1", "nan"],
    "optim.batch_size": ["0", "-1"],
    "optim.epochs": ["0"],
    "optim.lr_decay_milestones": ["0", "1.5", "nan", "x", "0.5,,0.75", "0.5,"],
    "optim.lr_decay_factor": ["0", "nan"],
    "data.num_speakers": ["1", "0"],
    "data.utts_per_speaker": ["0"],
    "data.frames_per_utt": ["0"],
    "data.signature_rank": ["0"],
    "data.noise_level": ["-0.1", "nan"],
    "data.chunk_frames": ["0", "7"],
    "eval.p_target": ["0", "1", "1.5", "nan"],
    "eval.c_miss": ["0", "-1", "nan", "inf"],
    "eval.c_fa": ["0", "-1", "nan", "inf"],
}


class TestParsing:
    def test_defaults_resolve(self):
        cfg = RunConfig()
        assert cfg.seed == 1234
        assert cfg["optim.lr"] == 0.2
        assert cfg["optim.momentum"] == 0.9
        assert cfg["optim.weight_decay"] == 2e-4
        assert cfg["se.pooling"] == "mean_std"
        assert cfg["se.reduction"] == 4
        assert cfg["se.stages"] == "1,2"
        assert cfg["eval.p_target"] == 0.01
        assert cfg["data.num_speakers"] == 20
        assert cfg["data.utts_per_speaker"] == 50
        assert cfg["data.frames_per_utt"] == 400
        assert cfg["data.chunk_frames"] == 400
        assert cfg["model.segment_frames"] == 400
        assert cfg["model.embedding_dim"] == 256

    def test_text_parsing(self):
        raw = parse_config_text("# comment\nseed = 7\n\nse.pooling = max\n")
        assert raw == {"seed": "7", "se.pooling": "max"}

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigError, match="unknown config keys: se.poolings"):
            RunConfig({"se.poolings": "mean"})

    def test_input_mel_bins_is_not_a_config_key(self):
        # the front end always emits features.N_MELS bins
        with pytest.raises(ConfigError, match="unknown config keys: model.input_mel_bins"):
            RunConfig({"model.input_mel_bins": "60"})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="optim.lr"):
            RunConfig({"optim.lr": "fast"})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig({"data.num_speakers": "1"})
        with pytest.raises(ConfigError):
            RunConfig({"se.integration": "diagonal"})
        with pytest.raises(ConfigError):
            RunConfig({"eval.p_target": "1.5"})

    @pytest.mark.parametrize("key, value", [
        (key, value) for key, values in INVALID_VALUES.items() for value in values])
    def test_invalid_value_rejected_per_key(self, key, value):
        with pytest.raises(ConfigError):
            RunConfig({key: value})

    def test_every_checked_key_has_invalid_values(self):
        assert set(INVALID_VALUES) == set(SCHEMA) - {"out"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            RunConfig(parse_config_text("seed = 3\nnot a pair\n"))

    def test_bad_stage_list(self):
        with pytest.raises(ConfigError):
            RunConfig({"se.stages": "1,9"})

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="lines 1 and 3: key 'seed' set twice"):
            parse_config_text("seed = 1\nse.stages = 1,2\nseed = 2\n")

    @pytest.mark.parametrize("key, value", [
        ("se.stages", "1,x"), ("se.stages", "1,,2"), ("se.stages", "1,9"), ("se.pooling", "median"),
        ("se.integration", "diagonal"), ("se.reduction", "0"), ("se.hidden_layers", "0"),
        ("model.scale_factor", "-1"), ("model.temporal_pooling", "max"), ("optim.lr", "fast"),
        ("data.num_speakers", "1"), ("data.utts_per_speaker", "0"), ("data.frames_per_utt", "0"),
        ("data.signature_rank", "0"), ("data.noise_level", "-0.1"), ("eval.p_target", "1.5"),
        ("eval.c_miss", "0"), ("eval.c_fa", "inf")])
    def test_error_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^(invalid config: )?{key}[: ]"):
            RunConfig({key: value})

    @pytest.mark.parametrize("name, value", [
        ("stage_blocks", (3, 0, 6, 3)), ("stage_channels", (8, 8, 16, 0)),
        ("stage_strides", (1, 0, 2, 2)), ("stage_strides", (1, -1, 2, 2)),
        ("stage_strides", (1, 2.0, 2, 2)), ("stem_channels", 0)])
    def test_model_spec_error_names_its_key(self, name, value):
        # header-only keys: a checkpoint, not a config, sets them
        with pytest.raises(ValueError, match=f"^model.{name} must hold positive integers"):
            ModelSpec(**{name: value})

    def test_speaker_count_error_is_the_corpus_spec_rule(self):
        # one check for the rule, SynthSpec's; the schema does not repeat it
        message = r"^invalid config: data\.num_speakers must be >= 2, got 1$"
        with pytest.raises(ConfigError, match=message):
            RunConfig({"data.num_speakers": "1"})

    def test_render_roundtrip(self):
        cfg = RunConfig({"seed": "42", "se.stages": "1,2,3"})
        again = RunConfig(parse_config_text(cfg.render()))
        assert again.values == cfg.values


class TestTypedViews:
    def test_se_config_view(self):
        cfg = RunConfig({"se.stages": "2,4", "se.pooling": "std", "se.reduction": "8"})
        se = cfg.se_config()
        assert se.stages == frozenset({2, 4})
        assert se.pooling == "std"
        assert se.reduction_factor == 8

    def test_empty_stages_disable_se(self):
        se = RunConfig({"se.stages": ""}).se_config()
        assert not se.enabled

    def test_model_spec_view(self):
        cfg = RunConfig({"model.scale_factor": "0.125"})
        spec = cfg.model_spec(num_speakers=11)
        assert spec.scaled_stage_channels == (16, 16, 32, 32)
        assert spec.num_speakers == 11

    def test_synth_spec_view(self):
        cfg = RunConfig({"data.num_speakers": "5", "data.noise_level": "0"})
        synth = cfg.synth_spec()
        assert synth.num_speakers == 5
        assert synth.noise_level == 0.0
        assert synth.seed == cfg.seed

    def test_with_overrides(self):
        base = RunConfig({"seed": "1"})
        derived = base.with_overrides(**{"se.pooling": "max"})
        assert derived["se.pooling"] == "max"
        assert derived.seed == 1
        assert base["se.pooling"] == "mean_std"

    def test_milestones(self):
        cfg = RunConfig({"optim.lr_decay_milestones": "0.25,0.5"})
        assert cfg.lr_milestones() == (0.25, 0.5)
        with pytest.raises(ConfigError):
            RunConfig({"optim.lr_decay_milestones": "1.5"})


class TestSpecMetadata:
    def test_model_spec_round_trip(self):
        spec = ModelSpec(stage_blocks=(1, 2, 1, 1), stage_channels=(8, 8, 16, 24),
                         stage_strides=(1, 1, 2, 2), stem_channels=12, input_mel_bins=40,
                         segment_frames=96, embedding_dim=32, num_speakers=5,
                         scale_factor=0.3, temporal_pooling="mean_std")
        assert ModelSpec.from_metadata(spec.to_metadata()) == spec

    def test_default_metadata_text(self):
        text = metadata_to_text({**ModelSpec().to_metadata(), **SEConfig().to_metadata()})
        assert text == (
            "model.stage_blocks = 3,4,6,3\n"
            "model.stage_channels = 128,128,256,256\n"
            "model.stage_strides = 1,2,2,2\n"
            "model.stem_channels = 128\n"
            "model.input_mel_bins = 60\n"
            "model.segment_frames = 400\n"
            "model.embedding_dim = 256\n"
            "model.num_speakers = 20\n"
            "model.scale_factor = 1.0\n"
            "model.temporal_pooling = mean\n"
            "se.pooling = mean_std\n"
            "se.reduction = 4\n"
            "se.hidden_layers = 2\n"
            "se.integration = standard\n"
            "se.stages = 1,2\n")

    def test_model_spec_missing_keys_take_defaults(self):
        assert ModelSpec.from_metadata({}) == ModelSpec()
        assert ModelSpec.from_metadata({"model.embedding_dim": "64"}) == ModelSpec(embedding_dim=64)

    @pytest.mark.parametrize("se", [
        SEConfig(),
        SEConfig(pooling="max", reduction_factor=8, hidden_layers=3, integration="pre",
                 stages=frozenset({2, 4})),
        SEConfig(stages=frozenset()),
    ])
    def test_se_config_round_trip(self, se):
        assert SEConfig.from_metadata(se.to_metadata()) == se

    @pytest.mark.parametrize("key, value", [
        ("model.scale_factor", "abc"), ("model.stage_blocks", "3,x"),
        ("model.stage_blocks", "3,4"), ("model.embedding_dim", "1.5"), ("model.num_speakers", "1")])
    def test_model_spec_error_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}[: ]"):
            ModelSpec.from_metadata({key: value})

    @pytest.mark.parametrize("key, value", [
        ("se.reduction", "x"), ("se.hidden_layers", "2.0"), ("se.stages", "1,x"),
        ("se.stages", "5"), ("se.pooling", "median")])
    def test_se_config_error_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}[: ]"):
            SEConfig.from_metadata({key: value})

    def test_se_metadata_without_stages_is_se_off(self):
        assert not SEConfig.from_metadata({}).enabled
        se = SEConfig.from_metadata({"se.pooling": "std"})
        assert not se.enabled
        assert se.pooling == "std"
        assert se.reduction_factor == SEConfig().reduction_factor


# values that parse, values each key rejects, and edge cases of the parsers
FUZZ_VALUES = sorted({v for vs in INVALID_VALUES.values() for v in vs}
                     | {str(f.default) for f in SCHEMA.values()}
                     | {"1", "2", "4", "64", "0.5", "1,2,3,4", "1e308", "-1e308", "9" * 40,
                        "-0", "1_000", " 3 ", "0x10", "½", "1,2,3,4,4", "mean_std", "std"})
fuzz_values = st.one_of(st.sampled_from(FUZZ_VALUES), st.text(max_size=12))
junk_lines = st.one_of(
    st.sampled_from(["", "# comment", "=", "key", " = 1", "seed = 1"]), st.text(max_size=20),
    st.tuples(st.text(max_size=12), fuzz_values).map(" = ".join))
# up to six schema keys set once each, shuffled in with up to two other lines
config_texts = st.tuples(
    st.dictionaries(st.sampled_from(sorted(SCHEMA)), fuzz_values, max_size=6),
    st.lists(junk_lines, max_size=2),
).flatmap(lambda kj: st.permutations([f"{k} = {v}" for k, v in kj[0].items()] + kj[1])
          ).map("\n".join)


class TestFuzz:
    # any text either builds every spec or raises ConfigError, never another error
    @given(config_texts)
    @settings(max_examples=600, deadline=None)
    def test_random_text_raises_only_config_error(self, text):
        try:
            cfg = RunConfig(parse_config_text(text))
            cfg.model_spec()
            cfg.se_config()
            cfg.synth_spec()
        except ConfigError:
            pass
