"""Deterministic DSP front-end.

Framing/STFT, mel projection, autocorrelation pitch tracking, F0
quantization, synthetic tone generation and the WAV / pitch-track file
interfaces. Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import json
import math
import wave
from dataclasses import dataclass, field

import numpy as np

# log-spaced F0 quantization range, C2..C7 as printed in the config contract
F0_QUANT_MIN_HZ = 65.4
F0_QUANT_MAX_HZ = 2093.0
F0_BINS = 128  # voiced indices 1..F0_BINS; 0 is unvoiced

VOICING_THRESHOLD = 0.5
F0_SEARCH_MIN_HZ = 60.0  # estimate_f0's pitch search range
F0_SEARCH_MAX_HZ = 1200.0

# mel_peak_pitch reads the dominant filter at or below this frequency, in
# frames whose peak reaches this share of the track's maximum
PEAK_SEARCH_FMAX_HZ = 1500.0
PEAK_ENERGY_FLOOR_RATIO = 0.05


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 2048
    win_size: int = 2048
    hop_size: int = 256

    def __post_init__(self):
        if self.fft_size < 2 or self.win_size < 2:
            raise ValueError("fft_size and win_size must be >= 2")
        if self.win_size > self.fft_size:
            raise ValueError("win_size must not exceed fft_size")
        if not (0 < self.hop_size <= self.win_size):
            raise ValueError("hop_size must lie in (0, win_size]")

    @property
    def bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass
class AudioBuffer:
    samples: np.ndarray
    sample_rate: int = 24000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("audio contains non-finite samples")
        peak = np.max(np.abs(self.samples)) if self.samples.size else 0.0
        if peak > 1.0 + 1e-9:
            raise ValueError(f"audio exceeds [-1, 1] (peak {peak:.4f})")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class Spectrogram:
    data: np.ndarray
    kind: str  # "linear" | "mel"
    config: StftConfig
    sample_rate: int = 24000

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError("spectrogram must be frames x bins")
        if self.kind not in ("linear", "mel"):
            raise ValueError(f"unknown spectrogram kind '{self.kind}'")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("spectrogram contains non-finite entries")
        if self.data.size and self.data.min() < 0:
            raise ValueError("spectrogram entries must be non-negative")
        if self.kind == "linear" and self.data.shape[1] != self.config.bins:
            raise ValueError(
                f"linear spectrogram has {self.data.shape[1]} bins, config says {self.config.bins}"
            )

    @property
    def frames(self) -> int:
        return self.data.shape[0]


@dataclass
class PitchTrack:
    f0: np.ndarray
    periodicity: np.ndarray
    voiced: np.ndarray = field(default=None)

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=np.float64).reshape(-1)
        self.periodicity = np.asarray(self.periodicity, dtype=np.float64).reshape(-1)
        if self.voiced is None:
            self.voiced = self.f0 > 0
        self.voiced = np.asarray(self.voiced, dtype=bool).reshape(-1)
        if not (len(self.f0) == len(self.periodicity) == len(self.voiced)):
            raise ValueError("pitch track field lengths differ")
        if np.any((self.f0 > 0) != self.voiced):
            raise ValueError("voiced flags must match f0 > 0")

    def __len__(self):
        return self.f0.size


def hann_window(n: int) -> np.ndarray:
    # periodic Hann, the usual STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    pad = 2 * (cfg.win_size // 2)
    return (n_samples + pad - cfg.win_size) // cfg.hop_size + 1


def _frame_signal(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Center-padded (reflect) frame matrix, (frames, win_size)."""
    half = cfg.win_size // 2
    if x.size > 1:
        padded = np.pad(x, (half, half), mode="reflect")
    else:
        padded = np.pad(x, (half, half))
    n = frame_count(x.size, cfg)
    idx = np.arange(cfg.win_size)[None, :] + cfg.hop_size * np.arange(n)[:, None]
    return padded[idx]


def stft(audio: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    """Magnitude STFT with reflect-centered framing and a Hann window."""
    if len(audio) == 0:
        raise ValueError("cannot compute the STFT of empty audio")
    frames = _frame_signal(audio.samples, cfg) * hann_window(cfg.win_size)
    mag = np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=1))
    return Spectrogram(mag, "linear", cfg, audio.sample_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    cfg: StftConfig, mel_bins: int, fmin: float, fmax: float, sample_rate: int
) -> np.ndarray:
    """Unit-peak triangular filters, (mel_bins, fft_bins)."""
    if mel_bins < 1:
        raise ValueError("mel_bins must be >= 1")
    if not (0 <= fmin < fmax <= sample_rate / 2):
        raise ValueError(f"require 0 <= fmin < fmax <= {sample_rate / 2}")
    pts = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), mel_bins + 2))
    freqs = np.arange(cfg.bins) * sample_rate / cfg.fft_size
    fb = np.zeros((mel_bins, cfg.bins))
    for b in range(mel_bins):
        lo, ctr, hi = pts[b], pts[b + 1], pts[b + 2]
        rising = (freqs - lo) / max(ctr - lo, 1e-12)
        falling = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def mel_center_freqs(mel_bins: int, fmin: float, fmax: float) -> np.ndarray:
    return mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), mel_bins + 2))[1:-1]


def mel_project(spec: Spectrogram, mel_bins: int, fmin: float, fmax: float) -> Spectrogram:
    if spec.kind != "linear":
        raise ValueError("mel_project expects a linear spectrogram")
    fb = mel_filterbank(spec.config, mel_bins, fmin, fmax, spec.sample_rate)
    return Spectrogram(spec.data @ fb.T, "mel", spec.config, spec.sample_rate)


# -- pitch ------------------------------------------------------------------


def estimate_f0(audio: AudioBuffer, cfg: StftConfig) -> PitchTrack:
    """Autocorrelation pitch tracker, frame-aligned with stft().

    Per frame: normalized autocorrelation over the lag range of
    [F0_SEARCH_MIN_HZ, F0_SEARCH_MAX_HZ]; the smallest-lag local maximum
    within 90% of the global peak wins (a bare argmax can land on a period
    multiple), refined parabolically. periodicity is the clipped peak
    height; a frame is voiced iff it exceeds VOICING_THRESHOLD.
    """
    sr = audio.sample_rate
    frames = _frame_signal(audio.samples, cfg)
    frames = frames - frames.mean(axis=1, keepdims=True)
    win = cfg.win_size
    lag_lo = max(2, int(sr / F0_SEARCH_MAX_HZ))
    lag_hi = min(int(math.ceil(sr / F0_SEARCH_MIN_HZ)), win - 2)
    if lag_hi <= lag_lo:  # window too short for the requested range
        n = frames.shape[0]
        return PitchTrack(np.zeros(n), np.zeros(n))

    nfft = 1 << int(math.ceil(math.log2(2 * win)))
    taus = np.arange(lag_lo, lag_hi + 1)
    # keep only the searched lags, and free the (frames, nfft) spectra before
    # the energy terms below: they are the largest arrays evaluation holds
    spec = np.fft.rfft(frames, n=nfft, axis=1)
    power = spec * np.conj(spec)
    del spec
    raw = np.fft.irfft(power, n=nfft, axis=1)[:, taus]
    del power

    # normalized cross-correlation: r(tau) / sqrt(e0(tau) * e1(tau))
    sq = frames * frames
    csum = np.concatenate([np.zeros((frames.shape[0], 1)), np.cumsum(sq, axis=1)], axis=1)
    total = csum[:, -1:]
    n = frames.shape[0]
    f0 = np.zeros(n)
    periodicity = np.zeros(n)
    e_head = csum[:, win - taus] - csum[:, 0:1]  # energy of x[0 : win-tau]
    e_tail = total - csum[:, taus]  # energy of x[tau : win]
    with np.errstate(invalid="ignore", divide="ignore"):
        nac = raw / np.sqrt(e_head * e_tail)
    nac = np.where(np.isfinite(nac), nac, 0.0)

    for i in range(n):
        if total[i, 0] < 1e-10:
            continue
        r = nac[i]
        interior = np.zeros(r.size, dtype=bool)
        interior[1:-1] = (r[1:-1] > r[:-2]) & (r[1:-1] >= r[2:])
        if not interior.any():
            periodicity[i] = float(np.clip(r.max(initial=0.0), 0.0, 1.0))
            continue
        peaks = np.flatnonzero(interior)
        best = r[peaks].max()
        sel = peaks[r[peaks] >= 0.9 * best][0]
        # parabolic refinement around the selected lag
        y0, y1, y2 = r[sel - 1], r[sel], r[sel + 1]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.0 if abs(denom) < 1e-12 else 0.5 * (y0 - y2) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
        lag = taus[sel] + delta
        p = float(np.clip(y1, 0.0, 1.0))
        periodicity[i] = p
        if p > VOICING_THRESHOLD:
            f0[i] = float(np.clip(sr / lag, F0_SEARCH_MIN_HZ, F0_SEARCH_MAX_HZ))
    voiced = f0 > 0
    periodicity = np.where(voiced, periodicity, np.minimum(periodicity, VOICING_THRESHOLD))
    return PitchTrack(f0, periodicity, voiced)


def quantize_f0(track: PitchTrack) -> np.ndarray:
    """F0_BINS log-uniform F0 bins over [65.4, 2093] Hz; 0 is the unvoiced index."""
    span = math.log(F0_QUANT_MAX_HZ / F0_QUANT_MIN_HZ)
    out = np.zeros(len(track), dtype=np.int64)
    voiced = track.voiced
    if voiced.any():
        ratio = np.log(track.f0[voiced] / F0_QUANT_MIN_HZ) / span
        idx = 1 + np.floor(F0_BINS * ratio).astype(np.int64)
        out[voiced] = np.clip(idx, 1, F0_BINS)
    return out


# -- synthesis ---------------------------------------------------------------


def synth_tone(
    notes: list[tuple[float, float, float, float]],
    sample_rate: int = 24000,
    vibrato: tuple[float, float] | None = None,
) -> AudioBuffer:
    """Sum of sine notes (freq_hz, amplitude, start_s, end_s).

    Optional vibrato (rate_hz, depth_cents) modulates every note's
    instantaneous frequency as f * 2^(depth/1200 * sin(2 pi rate (t-start))).
    Phase is integrated per sample, so the instantaneous frequency follows
    that law exactly. If the mix peaks above 1 it is rescaled to peak 1.
    """
    if not notes:
        raise ValueError("synth_tone needs at least one note")
    n = int(round(max(end for _, _, _, end in notes) * sample_rate))
    out = np.zeros(n)
    nyquist = sample_rate / 2.0
    for freq, amp, start, end in notes:
        peak_f = freq
        if vibrato is not None:
            peak_f = freq * 2.0 ** (abs(vibrato[1]) / 1200.0)
        if not (0.0 < freq and peak_f < nyquist):
            raise ValueError(f"note frequency {freq} Hz would alias at {sample_rate} Hz")
        i0 = max(0, int(round(start * sample_rate)))
        i1 = min(n, int(round(end * sample_rate)))
        if i1 <= i0:
            continue
        t = (np.arange(i0, i1) - i0) / sample_rate
        if vibrato is None:
            phase = 2.0 * np.pi * freq * t
        else:
            rate, depth = vibrato
            inst = freq * 2.0 ** ((depth / 1200.0) * np.sin(2.0 * np.pi * rate * t))
            phase = 2.0 * np.pi * np.concatenate([[0.0], np.cumsum(inst[:-1])]) / sample_rate
        out[i0:i1] += amp * np.sin(phase)
    peak = np.max(np.abs(out)) if n else 0.0
    if peak > 1.0:
        out = out / peak
    return AudioBuffer(out, sample_rate)


def midi_to_hz(midi: int) -> float:
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


# -- mel-domain pitch reading -------------------------------------------------


def mel_peak_pitch(
    mel: Spectrogram,
    mel_bins: int,
    fmin: float,
    fmax: float,
) -> PitchTrack:
    """Pitch track from a mel spectrogram of quasi-pure tones.

    Dominant filter below PEAK_SEARCH_FMAX_HZ plus a 3-point centroid over
    the triangular filterbank centers, which inverts a pure tone's position
    exactly. Frames whose peak energy falls under PEAK_ENERGY_FLOOR_RATIO of
    the track maximum are unvoiced. Intended for codec/diffusion outputs,
    where only mel features exist.
    """
    if mel.kind != "mel":
        raise ValueError("mel_peak_pitch expects a mel spectrogram")
    if mel.data.shape[1] != mel_bins:
        raise ValueError(f"spectrogram has {mel.data.shape[1]} bins, caller says {mel_bins}")
    centers = mel_center_freqs(mel_bins, fmin, fmax)
    searchable = centers <= PEAK_SEARCH_FMAX_HZ
    if not searchable.any():
        raise ValueError(f"no mel filters below {PEAK_SEARCH_FMAX_HZ} Hz")
    hi = int(np.flatnonzero(searchable)[-1]) + 1
    data = mel.data[:, :hi]
    n = data.shape[0]
    f0 = np.zeros(n)
    periodicity = np.zeros(n)
    peak_all = data.max() if data.size else 0.0
    floor = PEAK_ENERGY_FLOOR_RATIO * max(peak_all, 1e-12)
    for i in range(n):
        row = data[i]
        p = int(np.argmax(row))
        if row[p] <= floor:
            continue
        lo_b = max(0, p - 1)
        hi_b = min(hi, p + 2)
        w = row[lo_b:hi_b]
        f0[i] = float((w * centers[lo_b:hi_b]).sum() / w.sum())
        periodicity[i] = float(min(1.0, row[p] / peak_all))
    return PitchTrack(f0, periodicity, f0 > 0)


# -- file interfaces ----------------------------------------------------------


def load_wav(path) -> AudioBuffer:
    """Read mono 16-bit PCM; anything else is rejected with ValueError."""
    try:
        wf = wave.open(str(path), "rb")  # parses the whole header
    except (wave.Error, EOFError) as exc:
        raise ValueError(f"{path}: not a readable WAV file ({exc or 'empty'})") from None
    with wf:
        if wf.getnchannels() != 1:
            raise ValueError(f"{path}: only mono WAV is supported")
        if wf.getsampwidth() != 2:
            raise ValueError(f"{path}: only 16-bit PCM WAV is supported")
        if wf.getcomptype() != "NONE":
            raise ValueError(f"{path}: compressed WAV is not supported")
        sr = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioBuffer(samples, sr)


def save_wav(path, audio: AudioBuffer) -> None:
    pcm = np.clip(np.round(audio.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate)
        wf.writeframes(pcm.tobytes())


def save_pitch_json(path, track: PitchTrack) -> None:
    payload = {"f0": track.f0.tolist(), "periodicity": track.periodicity.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_pitch_json(path) -> PitchTrack:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not (isinstance(payload, dict) and "f0" in payload and "periodicity" in payload):
        raise ValueError(f"{path}: pitch JSON must be an object with 'f0' and 'periodicity' arrays")
    try:
        return PitchTrack(np.asarray(payload["f0"], dtype=np.float64),
                          np.asarray(payload["periodicity"], dtype=np.float64))
    except TypeError:
        raise ValueError(f"{path}: pitch JSON 'f0' and 'periodicity' must hold numbers") from None
