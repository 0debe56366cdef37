"""Front-end behavior: framing arithmetic, mel filters, VAD, chunking,
synthetic corpus determinism, WAV format policing."""

import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sevx.features import (AudioFormatError, SynthSpec, apply_vad, chunk,
                           energy_vad, frame_signal, generate_synthetic_corpus, hz_to_mel,
                           logmel, mel_to_hz, read_wav, write_wav, NoSpeechError,
                           LOG_FLOOR, MEL_FMAX, MEL_FMIN, N_MELS, SAMPLE_RATE)


def tone(freq, seconds, amp=0.5):
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float64)


class TestLogmel:
    def test_silence_hits_the_floor(self):
        feats = logmel(np.zeros(SAMPLE_RATE))
        np.testing.assert_allclose(feats, np.log(LOG_FLOOR), rtol=1e-6)

    def test_one_second_gives_98_frames(self):
        feats = logmel(np.zeros(SAMPLE_RATE))
        assert feats.shape == (60, (SAMPLE_RATE - 400) // 160 + 1)
        assert feats.shape == (60, 98)

    def test_sine_peaks_at_nearest_mel_bin(self):
        feats = logmel(tone(1000.0, 1.0))
        # filter centers: the inner N_MELS of N_MELS + 2 mel-spaced edges
        edges = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), N_MELS + 2))
        centers = edges[1:-1]
        expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
        observed = int(np.argmax(feats.mean(axis=1)))
        assert observed == expected_bin

    def test_low_tone_maps_to_lower_bin_than_high_tone(self):
        lo = int(np.argmax(logmel(tone(300.0, 0.5)).mean(axis=1)))
        hi = int(np.argmax(logmel(tone(4000.0, 0.5)).mean(axis=1)))
        assert lo < hi

    def test_too_short_audio_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            logmel(np.zeros(100))

    def test_always_60_rows(self):
        for n in (400, 1000, 12345):
            assert logmel(np.zeros(n)).shape[0] == 60


class TestFraming:
    @given(st.integers(min_value=400, max_value=20000))
    @settings(max_examples=30, deadline=None)
    def test_frame_count_formula(self, n):
        frames = frame_signal(np.zeros(n))
        assert frames.shape == ((n - 400) // 160 + 1, 400)


class TestVad:
    def test_constant_signal_keeps_everything(self):
        mask = energy_vad(np.full(SAMPLE_RATE, 0.3))
        assert mask.all()

    def test_half_silence_half_tone_drops_silence(self):
        audio = np.concatenate([np.zeros(SAMPLE_RATE), tone(440.0, 1.0)])
        mask = energy_vad(audio)
        t = len(mask)
        # frames fully inside the silent half must be dropped, tone half kept
        silent_frames = (np.arange(t) * 160 + 400) <= SAMPLE_RATE
        assert not mask[silent_frames].any()
        assert mask[~silent_frames].sum() > 0.8 * (~silent_frames).sum()

    def test_all_silence_gives_empty_mask_and_downstream_error(self):
        mask = energy_vad(np.zeros(SAMPLE_RATE))
        assert not mask.any()
        feats = logmel(np.zeros(SAMPLE_RATE))
        with pytest.raises(NoSpeechError):
            apply_vad(feats, mask)

    @pytest.mark.parametrize("gain", [1e-3, 0.5, 1.0, 7.0, 1e3])
    def test_gain_invariance(self, gain):
        rng = np.random.default_rng(0)
        audio = np.concatenate([0.001 * rng.normal(size=8000), tone(500.0, 1.0)])
        base = energy_vad(audio)
        scaled = energy_vad(gain * audio)
        assert np.array_equal(base, scaled)


class TestChunk:
    def _feats(self, t):
        return np.arange(60 * t, dtype=np.float32).reshape(60, t)

    def test_exact_multiple(self):
        assert len(chunk(self._feats(800), 400)) == 2

    def test_wrap_rule_550(self):
        chunks = chunk(self._feats(550), 400)
        assert len(chunks) == 2
        feats = self._feats(550)
        np.testing.assert_array_equal(chunks[0], feats[:, :400])
        np.testing.assert_array_equal(chunks[1][:, :150], feats[:, 400:550])
        np.testing.assert_array_equal(chunks[1][:, 150:], feats[:, :250])

    def test_short_utterance_discarded(self):
        assert chunk(self._feats(100), 400) == []

    def test_half_length_utterance_wraps(self):
        chunks = chunk(self._feats(200), 400)
        assert len(chunks) == 1
        feats = self._feats(200)
        np.testing.assert_array_equal(chunks[0][:, :200], feats)
        np.testing.assert_array_equal(chunks[0][:, 200:], feats)

    @given(st.integers(min_value=1, max_value=1300))
    @settings(max_examples=50, deadline=None)
    def test_coverage_properties(self, t):
        feats = np.tile(np.arange(t, dtype=np.float32), (60, 1))
        chunks = chunk(feats, 400)
        counts = np.zeros(t)
        for c in chunks:
            assert c.shape == (60, 400)
            for v in c[0]:
                counts[int(v)] += 1
        assert counts.max(initial=0) <= 2
        if t >= 200:
            assert counts.min() >= 1


class TestSyntheticCorpus:
    def test_same_seed_bit_identical(self):
        spec = SynthSpec(num_speakers=3, utts_per_speaker=2, frames_per_utt=50, seed=5)
        a = generate_synthetic_corpus(spec)
        b = generate_synthetic_corpus(spec)
        assert [u.utterance_id for u in a] == [u.utterance_id for u in b]
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))

    def test_noise_free_within_speaker_profiles_correlate(self):
        spec = SynthSpec(num_speakers=4, utts_per_speaker=4, frames_per_utt=200,
                         noise_level=0.0, seed=9)
        utts = generate_synthetic_corpus(spec)
        by_spk = {}
        for u in utts:
            by_spk.setdefault(u.speaker_id, []).append(u.features.mean(axis=1))
        for profiles in by_spk.values():
            for i in range(1, len(profiles)):
                r = np.corrcoef(profiles[0], profiles[i])[0, 1]
                assert r > 0.99

    def test_speakers_differ(self):
        spec = SynthSpec(num_speakers=3, utts_per_speaker=1, frames_per_utt=100,
                         noise_level=0.0, seed=2)
        utts = generate_synthetic_corpus(spec)
        r = np.corrcoef(utts[0].features.mean(axis=1), utts[1].features.mean(axis=1))[0, 1]
        assert abs(r) < 0.95

    def test_generation_speed(self):
        spec = SynthSpec(num_speakers=20, utts_per_speaker=50, frames_per_utt=400, seed=1)
        t0 = time.time()
        utts = generate_synthetic_corpus(spec)
        assert time.time() - t0 < 10.0
        assert len(utts) == 1000
        assert utts[0].features.shape == (60, 400)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(num_speakers=1)
        with pytest.raises(ValueError):
            SynthSpec(noise_level=-0.1)


class TestWav:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.wav")
        samples = tone(250.0, 0.25)
        write_wav(path, samples)
        read = read_wav(path)
        assert read.dtype == np.float32
        assert len(read) == len(samples)
        np.testing.assert_allclose(read, samples, atol=1e-4)

    def test_rejects_wrong_rate(self, tmp_path):
        import wave
        path = str(tmp_path / "b.wav")
        with wave.open(path, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00\x00" * 100)
        with pytest.raises(AudioFormatError, match="8000"):
            read_wav(path)

    def test_rejects_stereo(self, tmp_path):
        import wave
        path = str(tmp_path / "c.wav")
        with wave.open(path, "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(b"\x00\x00\x00\x00" * 100)
        with pytest.raises(AudioFormatError, match="mono"):
            read_wav(path)

    @pytest.mark.parametrize("cut", [2000, 2001], ids=["whole-frames", "mid-sample"])
    def test_rejects_truncated_data(self, tmp_path, cut):
        path = str(tmp_path / "cut.wav")
        write_wav(path, tone(250.0, 0.5))       # 8000 frames
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - cut)
        with pytest.raises(AudioFormatError,
                           match=rf"cut\.wav: truncated: .* 8000 frames .* {16000 - cut} bytes"):
            read_wav(path)

    def test_rejects_non_wav(self, tmp_path):
        path = str(tmp_path / "d.wav")
        with open(path, "wb") as f:
            f.write(b"definitely not audio")
        with pytest.raises(AudioFormatError):
            read_wav(path)

    # 1-3 bytes of the 44-byte header overwritten, and maybe the file cut short
    @given(edits=st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)),
                          min_size=1, max_size=3),
           cut=st.one_of(st.none(), st.integers(0, 363)))
    @example(edits=[(19, 0x54)], cut=None)      # fmt chunk size 0x54000010: wave's bare seek error
    @settings(max_examples=300, deadline=None)
    def test_damaged_header_reads_or_raises_audio_format_error(self, tmp_path_factory,
                                                              edits, cut):
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        write_wav(str(path), tone(250.0, 0.02))     # 320 frames, 684 bytes
        blob = bytearray(path.read_bytes())
        for at, value in edits:
            blob[at] = value
        path.write_bytes(bytes(blob[:cut]))
        try:
            samples = read_wav(str(path))
        except AudioFormatError as exc:
            assert str(path) in str(exc)
        else:
            assert samples.dtype == np.float32 and samples.ndim == 1
