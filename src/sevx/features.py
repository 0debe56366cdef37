"""Acoustic front end: log-mel filterbanks with energy VAD, fixed-length
chunking, a synthetic-speaker corpus generator, and raw WAV ingestion.

Audio is 16 kHz mono throughout. Frames are 25 ms Hamming windows with a
10 ms hop, so 400 feature frames correspond to 4 seconds of speech.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .checkpoint import replaced_atomically

SAMPLE_RATE = 16000
FRAME_LEN = 400          # 25 ms at 16 kHz
FRAME_HOP = 160          # 10 ms at 16 kHz
N_FFT = 512
N_MELS = 60
MEL_FMIN = 20.0
MEL_FMAX = 7600.0
LOG_FLOOR = 1e-10
VAD_THRESHOLD_DB = 35.0


class AudioFormatError(ValueError):
    """Raised for WAV files that are not PCM-16 mono 16 kHz."""


class NoSpeechError(ValueError):
    """Raised when the VAD keeps no frames of an utterance."""


@dataclass
class SynthSpec:
    """Shape of the synthetic corpus that stands in for a real training set."""

    num_speakers: int = 20
    utts_per_speaker: int = 50
    frames_per_utt: int = 400
    speaker_signature_rank: int = 3
    noise_level: float = 0.1
    seed: int = 1234

    def __post_init__(self):
        for key, value, low in (("num_speakers", self.num_speakers, 2),
                                ("utts_per_speaker", self.utts_per_speaker, 1),
                                ("frames_per_utt", self.frames_per_utt, 1),
                                ("signature_rank", self.speaker_signature_rank, 1),
                                ("noise_level", self.noise_level, 0)):
            if not value >= low:
                raise ValueError(f"data.{key} must be >= {low}, got {value!r}")


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def _mel_edges_hz() -> np.ndarray:
    """N_MELS + 2 points evenly spaced on the mel scale over [MEL_FMIN, MEL_FMAX]."""
    return mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), N_MELS + 2))


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters, (N_MELS, N_FFT//2 + 1)."""
    hz_pts = _mel_edges_hz()
    bin_freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    fb = np.zeros((N_MELS, len(bin_freqs)))
    for i in range(N_MELS):
        lo, ctr, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        up = (bin_freqs - lo) / (ctr - lo)
        down = (hi - bin_freqs) / (hi - ctr)
        fb[i] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def frame_signal(samples: np.ndarray) -> np.ndarray:
    """(T, FRAME_LEN) frame matrix; T = floor((n - FRAME_LEN)/FRAME_HOP) + 1."""
    n = len(samples)
    if n < FRAME_LEN:
        raise ValueError(f"audio too short: {n} samples < one {FRAME_LEN}-sample window")
    t = (n - FRAME_LEN) // FRAME_HOP + 1
    idx = np.arange(FRAME_LEN)[None, :] + FRAME_HOP * np.arange(t)[:, None]
    return samples[idx]


def logmel(samples: np.ndarray) -> np.ndarray:
    """60-band log-mel features of 16 kHz samples, shape (60, T), natural log
    with a power floor."""
    frames = frame_signal(np.asarray(samples, dtype=np.float64))
    window = np.hamming(FRAME_LEN)
    spec = np.fft.rfft(frames * window, n=N_FFT, axis=1)
    power = np.abs(spec) ** 2
    mel = power @ mel_filterbank().T
    feats = np.log(np.maximum(mel, LOG_FLOOR)).T
    return feats.astype(np.float32)


def energy_vad(samples: np.ndarray) -> np.ndarray:
    """Boolean keep-mask over frames, thresholded relative to the utterance max.

    Frame energy is the C0-style log of total frame power. Frames more than
    VAD_THRESHOLD_DB below the loudest frame are dropped, as are exact-zero
    frames; the relative threshold makes the mask invariant to global gain.
    """
    frames = frame_signal(np.asarray(samples, dtype=np.float64))
    energy = np.sum(frames * frames, axis=1)
    if energy.max() <= 0.0:
        return np.zeros(len(energy), dtype=bool)
    with np.errstate(divide="ignore"):
        log_e = np.log(energy)
    cut = np.log(energy.max()) - VAD_THRESHOLD_DB / 10.0 * np.log(10.0)
    return (energy > 0.0) & (log_e >= cut)


def apply_vad(feats: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if not mask.any():
        raise NoSpeechError("no speech frames survive the VAD")
    return feats[:, mask]


def chunk(feats: np.ndarray, length: int = 400) -> list[np.ndarray]:
    """Cut (60, T) features into non-overlapping fixed-length chunks.

    A trailing remainder is completed by wrapping around to the start of the
    utterance, provided the utterance has at least length/2 frames in total;
    shorter utterances yield nothing. Every frame lands in at most two chunks.
    """
    n_mels, t = feats.shape
    out = []
    full = t // length
    for k in range(full):
        out.append(np.ascontiguousarray(feats[:, k * length:(k + 1) * length]))
    rem = t - full * length
    if rem > 0 and t >= length // 2:
        tail = feats[:, full * length:]
        wrap = feats[:, :length - rem]
        out.append(np.ascontiguousarray(np.concatenate([tail, wrap], axis=1)))
    return out


# ---- synthetic corpus -------------------------------------------------------


@dataclass
class Utterance:
    utterance_id: str
    speaker_id: str
    features: np.ndarray  # (60, T) float32


def _smooth_noise(rng: np.random.Generator, rank: int, t: int) -> np.ndarray:
    # low-passed white noise: 33-tap Hann-weighted moving average
    raw = rng.normal(size=(rank, t + 32))
    kernel = np.hanning(33)
    kernel /= kernel.sum()
    sm = np.apply_along_axis(lambda v: np.convolve(v, kernel, mode="same"), 1, raw)
    return sm[:, 16:16 + t]


def generate_synthetic_corpus(spec: SynthSpec) -> list[Utterance]:
    """Deterministic labeled corpus of signature-modulated feature matrices.

    Each speaker owns a fixed low-rank spectral signature over the 60 mel
    bins; every utterance modulates that signature with smooth temporal
    coefficients around 1 and adds white noise at ``noise_level``.
    """
    utts: list[Utterance] = []
    root = np.random.SeedSequence(spec.seed)
    spk_seeds = root.spawn(spec.num_speakers)
    for s in range(spec.num_speakers):
        spk_rng = np.random.default_rng(spk_seeds[s])
        signature = spk_rng.normal(size=(N_MELS, spec.speaker_signature_rank))
        signature /= np.sqrt(spec.speaker_signature_rank)
        speaker_id = f"spk{s:04d}"
        for u in range(spec.utts_per_speaker):
            modulation = 1.0 + 0.5 * _smooth_noise(spk_rng, spec.speaker_signature_rank,
                                                   spec.frames_per_utt)
            feats = signature @ modulation
            if spec.noise_level > 0:
                feats = feats + spec.noise_level * spk_rng.normal(size=feats.shape)
            utts.append(Utterance(
                utterance_id=f"{speaker_id}_utt{u:04d}",
                speaker_id=speaker_id,
                features=feats.astype(np.float32),
            ))
    return utts


# ---- WAV ingestion ----------------------------------------------------------


def read_wav(path: str) -> np.ndarray:
    """Float32 samples in [-1, 1) of a PCM-16 mono 16 kHz little-endian WAV;
    anything else, a file shorter than its header says included, is rejected."""
    try:
        with wave.open(path, "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            n = w.getnframes()
            raw = w.readframes(n)
    except (wave.Error, EOFError, RuntimeError) as exc:
        # a chunk size past its chunk's end makes wave's seek raise a bare RuntimeError
        detail = str(exc) or "a chunk size does not fit the file"
        raise AudioFormatError(f"{path}: not a readable WAV file ({detail})") from exc
    if channels != 1:
        raise AudioFormatError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    if len(raw) != n * width:
        raise AudioFormatError(
            f"{path}: truncated: the header says {n} frames ({n * width} bytes), "
            f"the data holds {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0


def featurize_wav(path: str) -> np.ndarray:
    """Log-mel features for one WAV file, with non-speech frames dropped."""
    samples = read_wav(path)
    return apply_vad(logmel(samples), energy_vad(samples))


def write_wav(path: str, samples: np.ndarray) -> None:
    """Write float samples in [-1, 1] as PCM-16 mono 16 kHz (test fixture aid)."""
    pcm = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    with replaced_atomically(path, binary=True) as f, wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())
