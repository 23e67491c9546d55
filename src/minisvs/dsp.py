"""Deterministic DSP front-end.

Framing/STFT, mel projection, autocorrelation pitch tracking, F0
quantization, synthetic tone generation and the WAV / pitch-track file
interfaces. Everything here is a pure function of its inputs.
"""
from __future__ import annotations

import io
import json
import math
import wave
from dataclasses import dataclass

import numpy as np

from .fileio import write_files

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

# stft and estimate_f0 transform this many frames at a time, so no
# (frames, fft bins) temporary is ever built; every output is the same for
# any block size
ANALYSIS_BLOCK_FRAMES = 32


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


@dataclass
class PitchTrack:
    f0: np.ndarray  # Hz; 0 marks an unvoiced frame
    periodicity: np.ndarray

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=np.float64).reshape(-1)
        self.periodicity = np.asarray(self.periodicity, dtype=np.float64).reshape(-1)
        if len(self.f0) != len(self.periodicity):
            raise ValueError("pitch track field lengths differ")

    def __len__(self):
        return self.f0.size

    @property
    def voiced(self) -> np.ndarray:
        return self.f0 > 0


def hann_window(n: int) -> np.ndarray:
    # periodic Hann, the usual STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _frame_signal(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Center-padded (reflect) frames, a read-only (frames, win_size) view."""
    half = cfg.win_size // 2
    if x.size > 1:
        padded = np.pad(x, (half, half), mode="reflect")
    else:
        padded = np.pad(x, (half, half))
    if padded.size < cfg.win_size:  # no whole frame
        return np.zeros((0, cfg.win_size))
    return np.lib.stride_tricks.sliding_window_view(padded, cfg.win_size)[:: cfg.hop_size]


def _blocks(n: int):
    """Row slices of ANALYSIS_BLOCK_FRAMES frames that cover range(n)."""
    for start in range(0, n, ANALYSIS_BLOCK_FRAMES):
        yield slice(start, min(start + ANALYSIS_BLOCK_FRAMES, n))


def stft(audio: AudioBuffer, cfg: StftConfig) -> np.ndarray:
    """Magnitude STFT (frames, cfg.bins) with reflect-centered framing and a Hann window."""
    if len(audio) == 0:
        raise ValueError("cannot compute the STFT of empty audio")
    frames = _frame_signal(audio.samples, cfg)
    window = hann_window(cfg.win_size)
    mag = np.empty((frames.shape[0], cfg.bins))
    for rows in _blocks(frames.shape[0]):
        mag[rows] = np.abs(np.fft.rfft(frames[rows] * window, n=cfg.fft_size, axis=1))
    return mag


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
    pts = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), mel_bins + 2))[:, None]
    freqs = np.arange(cfg.bins) * sample_rate / cfg.fft_size
    lo, ctr, hi = pts[:-2], pts[1:-1], pts[2:]
    rising = (freqs - lo) / np.maximum(ctr - lo, 1e-12)
    falling = (hi - freqs) / np.maximum(hi - ctr, 1e-12)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def mel_center_freqs(mel_bins: int, fmin: float, fmax: float) -> np.ndarray:
    return mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), mel_bins + 2))[1:-1]


def mel_project(
    mag: np.ndarray, cfg: StftConfig, mel_bins: int, fmin: float, fmax: float, sample_rate: int
) -> np.ndarray:
    """Mel magnitudes (frames, mel_bins) of STFT magnitudes (frames, cfg.bins)."""
    return mag @ mel_filterbank(cfg, mel_bins, fmin, fmax, sample_rate).T


# -- pitch ------------------------------------------------------------------


def fast_fft_length(n: int) -> int:
    """The smallest of 2^k, 3 * 2^k and 5 * 2^k at or above n.

    numpy's pocketfft runs these on its radix-4 and radix-2 kernels with at
    most one radix-3 or radix-5 pass; they timed faster than the smallest
    5-smooth length at or above n (2560 against 2500, 1280 against 1215)."""
    return min(m << (-(-n // m) - 1).bit_length() for m in (1, 3, 5))


def estimate_f0(audio: AudioBuffer, cfg: StftConfig) -> PitchTrack:
    """Autocorrelation pitch tracker, frame-aligned with stft().

    Per frame: normalized autocorrelation over the lag range of
    [F0_SEARCH_MIN_HZ, F0_SEARCH_MAX_HZ]; the smallest-lag local maximum
    within 90% of the global peak wins (a bare argmax can land on a period
    multiple), refined parabolically. The correlation is read one lag past
    each end of the range, so a period on either end lag is a local maximum
    too; those two lags are never selected. periodicity is the clipped peak
    height; a frame is voiced iff it exceeds VOICING_THRESHOLD.
    """
    sr = audio.sample_rate
    frames = _frame_signal(audio.samples, cfg)
    n, win = frames.shape
    lag_lo = max(2, int(sr / F0_SEARCH_MAX_HZ))
    lag_hi = min(int(math.ceil(sr / F0_SEARCH_MIN_HZ)), win - 2)
    if lag_hi <= lag_lo:  # window too short for the requested range
        return PitchTrack(np.zeros(n), np.zeros(n))

    # the zero-padded circular correlation at lag tau equals the linear one
    # once nfft >= win + tau, so padding past the largest lag read buys nothing
    nfft = fast_fft_length(win + lag_hi + 1)
    taus = np.arange(lag_lo - 1, lag_hi + 2)
    nac = np.empty((n, taus.size))
    total = np.empty(n)
    for rows in _blocks(n):
        block = frames[rows] - frames[rows].mean(axis=1, keepdims=True)
        spec = np.fft.rfft(block, n=nfft, axis=1)
        # the power spectrum as conj(spec) * spec, in this operand order:
        # spec * conj(spec) and re**2 + im**2 round differently
        raw = np.fft.irfft(np.conj(spec) * spec, n=nfft, axis=1)[:, lag_lo - 1 : lag_hi + 2]
        # normalized cross-correlation: r(tau) / sqrt(e0(tau) * e1(tau))
        csum = np.cumsum(block * block, axis=1)  # csum[:, k] is the energy of x[0 : k+1]
        total[rows] = csum[:, -1]
        e_head = csum[:, win - taus - 1]  # energy of x[0 : win-tau]
        e_tail = csum[:, -1:] - csum[:, taus - 1]  # energy of x[tau : win]
        with np.errstate(invalid="ignore", divide="ignore"):
            q = raw / np.sqrt(e_head * e_tail)
        nac[rows] = np.where(np.isfinite(q), q, 0.0)

    # every frame at once; a frame without a local maximum in the searched
    # range gets that range's clipped maximum as periodicity and no pitch, a
    # silent one gets zeros
    searched = nac[:, 1:-1]
    interior = (searched > nac[:, :-2]) & (searched >= nac[:, 2:])
    has_peak = interior.any(axis=1)
    best = searched.max(axis=1, where=interior, initial=-np.inf, keepdims=True)
    sel = np.argmax(interior & (searched >= 0.9 * best), axis=1)
    # parabolic refinement around the selected lag, whose neighbours in nac
    # are sel and sel + 2
    y0, y1, y2 = np.take_along_axis(nac, sel[:, None] + np.arange(3), axis=1).T
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(invalid="ignore", divide="ignore"):
        delta = np.where(np.abs(denom) < 1e-12, 0.0, 0.5 * (y0 - y2) / denom)
    lag = lag_lo + sel + np.clip(delta, -0.5, 0.5)
    flat = np.clip(searched.max(axis=1, initial=0.0), 0.0, 1.0)
    periodicity = np.where(has_peak, np.clip(y1, 0.0, 1.0), flat)
    periodicity = np.where(total >= 1e-10, periodicity, 0.0)
    voiced = has_peak & (periodicity > VOICING_THRESHOLD)
    f0 = np.where(voiced, np.clip(sr / lag, F0_SEARCH_MIN_HZ, F0_SEARCH_MAX_HZ), 0.0)
    periodicity = np.where(voiced, periodicity, np.minimum(periodicity, VOICING_THRESHOLD))
    return PitchTrack(f0, periodicity)


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
    freq: float,
    amp: float,
    n_samples: int,
    sample_rate: int = 24000,
    vibrato: tuple[float, float] | None = None,
) -> AudioBuffer:
    """One sine note of n_samples, starting at phase 0.

    Optional vibrato (rate_hz, depth_cents) modulates the instantaneous
    frequency as freq * 2^(depth/1200 * sin(2 pi rate t)). Phase is
    integrated per sample, so the instantaneous frequency follows that law
    exactly.
    """
    peak_f = freq if vibrato is None else freq * 2.0 ** (abs(vibrato[1]) / 1200.0)
    if not (0.0 < freq and peak_f < sample_rate / 2.0):
        raise ValueError(f"note frequency {freq} Hz would alias at {sample_rate} Hz")
    t = np.arange(n_samples) / sample_rate
    if vibrato is None:
        phase = 2.0 * np.pi * freq * t
    else:
        rate, depth = vibrato
        inst = freq * 2.0 ** ((depth / 1200.0) * np.sin(2.0 * np.pi * rate * t))
        phase = 2.0 * np.pi * np.concatenate([[0.0], np.cumsum(inst[:-1])]) / sample_rate
    return AudioBuffer(amp * np.sin(phase), sample_rate)


def midi_to_hz(midi: int) -> float:
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


# -- mel-domain pitch reading -------------------------------------------------


def mel_peak_pitch(mel: np.ndarray, fmin: float, fmax: float) -> PitchTrack:
    """Pitch track from float64 mel magnitudes (frames, mel_bins) of quasi-pure tones.

    Dominant filter below PEAK_SEARCH_FMAX_HZ plus a 3-point centroid over
    the triangular filterbank centers, which inverts a pure tone's position
    exactly. Frames whose peak energy falls under PEAK_ENERGY_FLOOR_RATIO of
    the track maximum are unvoiced. Intended for codec/diffusion outputs,
    where only mel features exist.
    """
    centers = mel_center_freqs(mel.shape[1], fmin, fmax)
    searchable = centers <= PEAK_SEARCH_FMAX_HZ
    if not searchable.any():
        raise ValueError(f"no mel filters below {PEAK_SEARCH_FMAX_HZ} Hz")
    hi = int(np.flatnonzero(searchable)[-1]) + 1
    data = mel[:, :hi]
    peak_all = data.max() if data.size else 0.0
    floor = PEAK_ENERGY_FLOOR_RATIO * max(peak_all, 1e-12)
    p = np.argmax(data, axis=1)
    peak = data[np.arange(data.shape[0]), p]
    voiced = peak > floor
    # 3-point window p-1..p+1, summed left to right; its out-of-range points
    # weigh 0, which leaves a 2-point window's sums exact
    idx = p[:, None] + np.array([-1, 0, 1])
    inside = (idx >= 0) & (idx < hi)
    idx = np.clip(idx, 0, hi - 1)
    w = np.where(inside, np.take_along_axis(data, idx, axis=1), 0.0)
    wc = w * centers[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        f0 = np.where(voiced, (wc[:, 0] + wc[:, 1] + wc[:, 2]) / (w[:, 0] + w[:, 1] + w[:, 2]), 0.0)
        periodicity = np.where(voiced, np.minimum(1.0, peak / peak_all), 0.0)
    return PitchTrack(f0, periodicity)


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
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate)
        wf.writeframes(pcm.tobytes())
    write_files((path, [buf.getvalue()]))


def load_pitch_json(path) -> PitchTrack:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not (isinstance(payload, dict) and "f0" in payload and "periodicity" in payload):
        raise ValueError(f"{path}: pitch JSON must be an object with 'f0' and 'periodicity' arrays")
    try:
        track = PitchTrack(np.asarray(payload["f0"], dtype=np.float64),
                           np.asarray(payload["periodicity"], dtype=np.float64))
    except TypeError:
        raise ValueError(f"{path}: pitch JSON 'f0' and 'periodicity' must hold numbers") from None
    for name in ("f0", "periodicity"):
        if not np.all(np.isfinite(getattr(track, name))):
            raise ValueError(f"{path}: pitch JSON '{name}' holds a non-finite value")
    return track
