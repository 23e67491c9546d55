import json
import math
import tracemalloc

import numpy as np
import pytest

from minisvs import corpus, dsp
from minisvs.config import RunConfig

CFG = dsp.StftConfig()
SR = 24000


def _sine(freq, amp=0.5, seconds=1.0):
    return dsp.synth_tone(freq, amp, int(round(seconds * SR)), SR)


def _frame_count(n_samples, cfg):
    """Frames of reflect-centered framing: the signal padded by win // 2 each side."""
    pad = 2 * (cfg.win_size // 2)
    return (n_samples + pad - cfg.win_size) // cfg.hop_size + 1


# -- the per-frame loop implementations that the blocked front-end replaced ---


def _reference_frame_signal(x, cfg):
    half = cfg.win_size // 2
    if x.size > 1:
        padded = np.pad(x, (half, half), mode="reflect")
    else:
        padded = np.pad(x, (half, half))
    n = _frame_count(x.size, cfg)
    idx = np.arange(cfg.win_size)[None, :] + cfg.hop_size * np.arange(n)[:, None]
    return padded[idx]


def _reference_stft(audio, cfg):
    frames = _reference_frame_signal(audio.samples, cfg) * dsp.hann_window(cfg.win_size)
    return np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=1))


def _reference_mel_filterbank(cfg, mel_bins, fmin, fmax, sample_rate):
    pts = dsp.mel_to_hz(np.linspace(dsp.hz_to_mel(fmin), dsp.hz_to_mel(fmax), mel_bins + 2))
    freqs = np.arange(cfg.bins) * sample_rate / cfg.fft_size
    fb = np.zeros((mel_bins, cfg.bins))
    for b in range(mel_bins):
        lo, ctr, hi = pts[b], pts[b + 1], pts[b + 2]
        rising = (freqs - lo) / max(ctr - lo, 1e-12)
        falling = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def _reference_estimate_f0(audio, cfg):
    sr = audio.sample_rate
    frames = _reference_frame_signal(audio.samples, cfg)
    frames = frames - frames.mean(axis=1, keepdims=True)
    win = cfg.win_size
    lag_lo = max(2, int(sr / dsp.F0_SEARCH_MAX_HZ))
    lag_hi = min(int(math.ceil(sr / dsp.F0_SEARCH_MIN_HZ)), win - 2)
    if lag_hi <= lag_lo:
        n = frames.shape[0]
        return dsp.PitchTrack(np.zeros(n), np.zeros(n))
    nfft = dsp.fast_fft_length(win + lag_hi + 1)
    # the searched lags and one neighbour past each end
    taus = np.arange(lag_lo - 1, lag_hi + 2)
    spec = np.fft.rfft(frames, n=nfft, axis=1)
    # the loop wrote `spec * np.conj(spec)`; numpy's temporary elision ran it
    # as this product from 256 KiB of spectrum (8 frames) on, and below that
    # it rounded as spec * conj(spec)
    raw = np.fft.irfft(np.conj(spec) * spec, n=nfft, axis=1)[:, taus]
    sq = frames * frames
    csum = np.concatenate([np.zeros((frames.shape[0], 1)), np.cumsum(sq, axis=1)], axis=1)
    total = csum[:, -1:]
    n = frames.shape[0]
    f0 = np.zeros(n)
    periodicity = np.zeros(n)
    e_head = csum[:, win - taus] - csum[:, 0:1]
    e_tail = total - csum[:, taus]
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
            periodicity[i] = float(np.clip(r[1:-1].max(initial=0.0), 0.0, 1.0))
            continue
        peaks = np.flatnonzero(interior)
        best = r[peaks].max()
        sel = peaks[r[peaks] >= 0.9 * best][0]
        y0, y1, y2 = r[sel - 1], r[sel], r[sel + 1]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.0 if abs(denom) < 1e-12 else 0.5 * (y0 - y2) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
        lag = taus[sel] + delta
        p = float(np.clip(y1, 0.0, 1.0))
        periodicity[i] = p
        if p > dsp.VOICING_THRESHOLD:
            f0[i] = float(np.clip(sr / lag, dsp.F0_SEARCH_MIN_HZ, dsp.F0_SEARCH_MAX_HZ))
    voiced = f0 > 0
    periodicity = np.where(voiced, periodicity, np.minimum(periodicity, dsp.VOICING_THRESHOLD))
    return dsp.PitchTrack(f0, periodicity)


def _reference_mel_peak_pitch(mel, mel_bins, fmin, fmax):
    centers = dsp.mel_center_freqs(mel_bins, fmin, fmax)
    hi = int(np.flatnonzero(centers <= dsp.PEAK_SEARCH_FMAX_HZ)[-1]) + 1
    data = mel.data[:, :hi]
    n = data.shape[0]
    f0 = np.zeros(n)
    periodicity = np.zeros(n)
    peak_all = data.max() if data.size else 0.0
    floor = dsp.PEAK_ENERGY_FLOOR_RATIO * max(peak_all, 1e-12)
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
    return dsp.PitchTrack(f0, periodicity)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _same_track(got, want):
    return (_same_bits(got.f0, want.f0) and _same_bits(got.periodicity, want.periodicity)
            and _same_bits(got.voiced, want.voiced))


class TestStft:
    def test_silence_gives_zero_spectrogram(self):
        audio = dsp.AudioBuffer(np.zeros(SR), SR)
        spec = dsp.stft(audio, CFG)
        assert spec.data.max() == 0.0

    def test_frame_count_formula(self):
        spec = dsp.stft(_sine(440.0), CFG)
        assert spec.data.shape[0] == _frame_count(SR, CFG) == SR // CFG.hop_size + 1 == 94
        assert spec.data.shape[1] == CFG.bins == 1025

    def test_440hz_peak_bin_matches_direct_dft(self):
        spec = dsp.stft(_sine(440.0), CFG)
        # interior frames only; reflect padding distorts the outermost ones
        interior = spec.data[4:-4]
        assert np.all(np.argmax(interior, axis=1) == 38)
        # oracle: direct DFT of one frame
        frame = dsp._frame_signal(_sine(440.0).samples, CFG)[40] * dsp.hann_window(CFG.win_size)
        k = np.arange(CFG.fft_size)
        mags = [
            np.abs((frame * np.exp(-2j * np.pi * b * k / CFG.fft_size)).sum())
            for b in range(30, 50)
        ]
        assert 30 + int(np.argmax(mags)) == 38
        assert round(440 * CFG.fft_size / SR) == 38

    def test_parseval_per_frame(self):
        audio = _sine(440.0)
        frames = dsp._frame_signal(audio.samples, CFG) * dsp.hann_window(CFG.win_size)
        spec = dsp.stft(audio, CFG)
        for i in (5, 40, 80):
            e_time = float((frames[i] ** 2).sum())
            m2 = spec.data[i] ** 2
            e_freq = (m2[0] + m2[-1] + 2.0 * m2[1:-1].sum()) / CFG.fft_size
            assert abs(e_time - e_freq) / e_time < 1e-6

    def test_amplitude_scaling_scales_magnitudes_exactly(self):
        base = _sine(330.0, amp=0.25)
        scaled = dsp.AudioBuffer(base.samples * 3.0999999 / 3.1, SR)
        s1 = dsp.stft(base, CFG).data
        s2 = dsp.stft(dsp.AudioBuffer(base.samples * 0.5, SR), CFG).data
        assert np.allclose(s2, 0.5 * s1, rtol=0, atol=1e-12)
        assert scaled is not None  # constructed fine under the [-1, 1] invariant

    def test_empty_audio_rejected(self):
        with pytest.raises(ValueError):
            dsp.stft(dsp.AudioBuffer(np.zeros(0), SR), CFG)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            dsp.StftConfig(fft_size=1024, win_size=2048)
        with pytest.raises(ValueError):
            dsp.StftConfig(hop_size=0)
        with pytest.raises(ValueError):
            dsp.StftConfig(hop_size=4096)


class TestMel:
    def test_zero_in_zero_out(self):
        spec = dsp.Spectrogram(np.zeros((10, CFG.bins)), "linear", CFG, SR)
        mel = dsp.mel_project(spec, 128, 0.0, 12000.0)
        assert mel.data.shape == (10, 128)
        assert mel.data.max() == 0.0

    def test_filterbank_covers_inner_bins(self):
        fb = dsp.mel_filterbank(CFG, 128, 0.0, 12000.0, SR)
        freqs = np.arange(CFG.bins) * SR / CFG.fft_size
        pts = dsp.mel_to_hz(np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(12000.0), 130))
        inner = (freqs > pts[0] + 1e-9) & (freqs < pts[-1] - 1e-9)
        assert np.all(fb[:, inner].sum(axis=0) > 0)

    def test_unit_peak_triangles(self):
        fb = dsp.mel_filterbank(CFG, 64, 0.0, 12000.0, SR)
        # peaks approach 1 where a bin lands near each center; never exceed 1
        assert fb.max() <= 1.0 + 1e-12
        assert fb.max(axis=1).min() > 0.5

    def test_impulse_activates_at_most_two_filters(self):
        fb = dsp.mel_filterbank(CFG, 40, 0.0, 12000.0, SR)
        rng = np.random.default_rng(0)
        for b in rng.integers(5, CFG.bins - 5, size=20):
            impulse = np.zeros((1, CFG.bins))
            impulse[0, b] = 1.0
            out = impulse @ fb.T  # explicit matrix-vector oracle
            active = np.flatnonzero(out[0] > 0)
            assert active.size <= 2
            if active.size == 2:
                assert active[1] - active[0] == 1
            spec = dsp.Spectrogram(impulse, "linear", CFG, SR)
            mel = dsp.mel_project(spec, 40, 0.0, 12000.0)
            assert np.array_equal(mel.data, out)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(7, CFG.bins))
        b = rng.uniform(size=(7, CFG.bins))
        sa = dsp.Spectrogram(a, "linear", CFG, SR)
        sb = dsp.Spectrogram(b, "linear", CFG, SR)
        sab = dsp.Spectrogram(a + b, "linear", CFG, SR)
        out = dsp.mel_project(sab, 32, 100.0, 8000.0).data
        parts = dsp.mel_project(sa, 32, 100.0, 8000.0).data + dsp.mel_project(
            sb, 32, 100.0, 8000.0
        ).data
        assert np.allclose(out, parts, rtol=0, atol=1e-12)

    def test_bad_args_rejected(self):
        spec = dsp.Spectrogram(np.zeros((4, CFG.bins)), "linear", CFG, SR)
        with pytest.raises(ValueError):
            dsp.mel_project(spec, 0, 0.0, 12000.0)
        with pytest.raises(ValueError):
            dsp.mel_project(spec, 32, 5000.0, 800.0)
        mel = dsp.mel_project(spec, 32, 0.0, 12000.0)
        with pytest.raises(ValueError):
            dsp.mel_project(mel, 32, 0.0, 12000.0)


class TestEstimateF0:
    def test_220hz_sine(self):
        track = dsp.estimate_f0(_sine(220.0), CFG)
        assert track.voiced.all()
        assert abs(np.median(track.f0) - 220.0) < 3.0

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(0)
        audio = dsp.AudioBuffer(rng.uniform(-0.5, 0.5, SR), SR)
        track = dsp.estimate_f0(audio, CFG)
        assert (~track.voiced).mean() >= 0.9

    def test_silence_all_unvoiced(self):
        track = dsp.estimate_f0(dsp.AudioBuffer(np.zeros(SR), SR), CFG)
        assert not track.voiced.any()
        assert (track.f0 == 0).all()

    @pytest.mark.parametrize("freq", [60.0, 80.0, 123.47, 261.63, 440.0, 783.99, 1000.0, 1190.0])
    def test_pure_sine_within_2_percent(self, freq):
        track = dsp.estimate_f0(_sine(freq, seconds=0.7), CFG)
        assert track.voiced.mean() > 0.9
        med = np.median(track.f0[track.voiced])
        assert abs(med - freq) / freq < 0.02

    def test_frame_alignment_matches_stft(self):
        audio = _sine(300.0, seconds=0.83)
        assert len(dsp.estimate_f0(audio, CFG)) == dsp.stft(audio, CFG).data.shape[0]


class TestQuantizeF0:
    def test_unvoiced_reserved_zero(self):
        track = dsp.PitchTrack([0.0], [0.0])
        assert dsp.quantize_f0(track)[0] == 0

    def test_range_boundaries(self):
        track = dsp.PitchTrack([65.4, 2093.0], [1.0, 1.0])
        assert dsp.quantize_f0(track).tolist() == [1, 128]

    def test_direct_formula_oracle(self):
        # oracle: direct evaluation of 1 + floor(bins * log(f/65.4) / log(2093/65.4));
        # 370 Hz sits 0.04 Hz above the bin 64/65 boundary (65.4 * 2^2.5 = 369.958)
        for f in (370.0, 369.9, 123.47, 987.77):
            expect = 1 + math.floor(128 * math.log(f / 65.4) / math.log(2093.0 / 65.4))
            track = dsp.PitchTrack([f], [1.0])
            assert dsp.quantize_f0(track)[0] == expect
        assert dsp.quantize_f0(dsp.PitchTrack([370.0], [1.0]))[0] == 65
        assert dsp.quantize_f0(dsp.PitchTrack([369.9], [1.0]))[0] == 64

    def test_monotone_in_f0(self):
        f0 = np.linspace(66.0, 2000.0, 300)
        track = dsp.PitchTrack(f0, np.ones_like(f0))
        q = dsp.quantize_f0(track)
        assert np.all(np.diff(q) >= 0)

    def test_clamping_outside_range(self):
        track = dsp.PitchTrack([50.0, 2100.0], [1.0, 1.0])
        assert dsp.quantize_f0(track).tolist() == [1, 128]


class TestSynthTone:
    def test_length_and_start_phase(self):
        audio = dsp.synth_tone(440.0, 0.5, 1001, SR, vibrato=(5.0, 100.0))
        assert len(audio) == 1001
        assert audio.samples[0] == 0.0 and audio.samples[1] > 0.0

    def test_sine_rms_identity(self):
        audio = _sine(440.0, amp=0.5, seconds=1.0)
        rms = math.sqrt(float((audio.samples**2).mean()))
        expect = 0.5 / math.sqrt(2.0)
        assert abs(rms - expect) / expect < 1e-3

    def test_vibrato_instantaneous_frequency_range(self):
        audio = dsp.synth_tone(440.0, 0.5, 2 * SR, SR, vibrato=(5.0, 100.0))
        x = audio.samples
        sgn = np.sign(x)
        idx = np.flatnonzero((sgn[:-1] <= 0) & (sgn[1:] > 0))
        cross = idx + (-x[idx]) / (x[idx + 1] - x[idx])
        inst = SR / np.diff(cross)
        lo, hi = 440.0 * 2 ** (-100 / 1200), 440.0 * 2 ** (100 / 1200)
        assert abs(inst.min() - lo) / lo < 0.01
        assert abs(inst.max() - hi) / hi < 0.01

    def test_determinism_and_peak_bound(self):
        a = dsp.synth_tone(440.0, 0.9, SR, SR, vibrato=(5.0, 100.0))
        b = dsp.synth_tone(440.0, 0.9, SR, SR, vibrato=(5.0, 100.0))
        assert np.array_equal(a.samples, b.samples)
        assert np.abs(a.samples).max() <= 0.9

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError):
            dsp.synth_tone(12001.0, 0.5, SR, SR)
        with pytest.raises(ValueError):
            # vibrato peak crosses Nyquist even though the base does not
            dsp.synth_tone(11900.0, 0.5, SR, SR, vibrato=(5.0, 100.0))


class TestMelPeakPitch:
    def test_pure_tone_recovery(self):
        spec = dsp.stft(_sine(440.0), CFG)
        mel = dsp.mel_project(spec, 128, 0.0, 12000.0)
        track = dsp.mel_peak_pitch(mel, 128, 0.0, 12000.0)
        med = np.median(track.f0[track.voiced])
        assert abs(1200 * math.log2(med / 440.0)) < 30  # within 30 cents

    def test_silence_unvoiced(self):
        mel = dsp.Spectrogram(np.zeros((5, 128)), "mel", CFG, SR)
        track = dsp.mel_peak_pitch(mel, 128, 0.0, 12000.0)
        assert not track.voiced.any()


def _signals():
    """(id, AudioBuffer) pairs the blocked front-end must match bit for bit."""
    rng = np.random.default_rng(3)
    block = dsp.ANALYSIS_BLOCK_FRAMES
    odd_frames = 2 * block + 5  # the last block is short
    return [
        ("silence", dsp.AudioBuffer(np.zeros(SR), SR)),
        ("clipped-noise", dsp.AudioBuffer(np.clip(rng.normal(0.0, 0.7, SR), -1.0, 1.0), SR)),
        ("vibrato", dsp.synth_tone(330.0, 0.6, 31200, SR, vibrato=(5.5, 80.0))),
        ("shorter-than-a-window", _sine(500.0, seconds=1000 / SR)),
        ("one-sample", dsp.AudioBuffer([0.25], SR)),
        ("odd-block", dsp.AudioBuffer(rng.uniform(-0.5, 0.5, (odd_frames - 1) * CFG.hop_size), SR)),
    ]


@pytest.fixture(scope="module")
def seed_wavs(tmp_path_factory):
    """The WAVs of the 3-song seed-0 corpus under the default config."""
    out = tmp_path_factory.mktemp("corpus")
    corpus.gen_corpus(out, 3, seed=0, cfg=RunConfig())
    return [dsp.load_wav(out / f"song{i:03d}.wav") for i in range(3)]


class TestBlockedFrontEndKeepsBits:
    """stft, mel_project, estimate_f0 and mel_peak_pitch against the loops
    they replaced, compared byte for byte."""

    def _check_audio(self, audio, cfg=CFG):
        assert _same_bits(dsp._frame_signal(audio.samples, cfg),
                          _reference_frame_signal(audio.samples, cfg))
        assert _same_track(dsp.estimate_f0(audio, cfg), _reference_estimate_f0(audio, cfg))
        if len(audio) == 0:
            return
        spec = dsp.stft(audio, cfg)
        want = _reference_stft(audio, cfg)
        assert _same_bits(spec.data, want)
        mel = dsp.mel_project(spec, 128, 0.0, 12000.0)
        assert _same_bits(mel.data, want @ _reference_mel_filterbank(cfg, 128, 0.0, 12000.0, SR).T)
        assert _same_track(dsp.mel_peak_pitch(mel, 128, 0.0, 12000.0),
                           _reference_mel_peak_pitch(mel, 128, 0.0, 12000.0))

    def test_seed_corpus_wavs(self, seed_wavs):
        for audio in seed_wavs:
            assert _frame_count(len(audio), CFG) > dsp.ANALYSIS_BLOCK_FRAMES
            self._check_audio(audio)

    @pytest.mark.parametrize("name", [name for name, _ in _signals()])
    def test_signals(self, name):
        audio = dict(_signals())[name]
        if name == "odd-block":
            assert _frame_count(len(audio), CFG) % dsp.ANALYSIS_BLOCK_FRAMES == 5
        self._check_audio(audio)

    @pytest.mark.parametrize("n", [0, 1, 777])
    def test_odd_window_config(self, n):
        cfg = dsp.StftConfig(fft_size=1024, win_size=801, hop_size=160)
        samples = np.random.default_rng(n).uniform(-0.9, 0.9, n)
        self._check_audio(dsp.AudioBuffer(samples, SR), cfg)

    @pytest.mark.parametrize("args", [
        (CFG, 128, 0.0, 12000.0, SR), (CFG, 40, 100.0, 8000.0, SR),
        (dsp.StftConfig(1024, 801, 160), 1, 0.0, 8000.0, 16000),
        (dsp.StftConfig(64, 64, 16), 200, 0.0, 12000.0, SR),
    ], ids=["default", "40-bins", "one-bin", "more-filters-than-bins"])
    def test_mel_filterbank(self, args):
        assert _same_bits(dsp.mel_filterbank(*args), _reference_mel_filterbank(*args))

    def _mels(self):
        centers = dsp.mel_center_freqs(128, 0.0, 12000.0)
        last = int(np.flatnonzero(centers <= dsp.PEAK_SEARCH_FMAX_HZ)[-1])
        rng = np.random.default_rng(5)
        data = rng.uniform(0.0, 1.0, (2 * dsp.ANALYSIS_BLOCK_FRAMES + 3, 128)) ** 4
        data[::7] = 0.0  # all-zero rows
        data[1::7, 0] = 3.0  # peak at bin 0
        data[2::7, last] = 3.0  # peak at the last searchable bin
        data[3::7, last + 1] = 50.0  # peak just past it, which the search ignores
        data[4::7] *= 1e-3  # under the energy floor
        return {"mixed": data, "all-zero": np.zeros((9, 128)), "no-frames": np.zeros((0, 128)),
                "one-frame": data[1:2]}

    @pytest.mark.parametrize("name", ["mixed", "all-zero", "no-frames", "one-frame"])
    def test_mel_peak_pitch(self, name):
        mel = dsp.Spectrogram(self._mels()[name], "mel", CFG, SR)
        got = dsp.mel_peak_pitch(mel, 128, 0.0, 12000.0)
        assert _same_track(got, _reference_mel_peak_pitch(mel, 128, 0.0, 12000.0))
        if name == "mixed":
            assert got.voiced.any() and not got.voiced.all()


class TestAutocorrelationLength:
    """estimate_f0 pads each frame to fast_fft_length(win + lag_hi + 1), which
    keeps every lag it reads, one past each end of the search range included,
    free of circular wrap-around."""

    @pytest.mark.parametrize("cfg", [CFG, dsp.StftConfig(1024, 801, 160)], ids=["default", "801"])
    def test_length_covers_every_lag_read_and_is_5_smooth(self, monkeypatch, cfg):
        rule, asked = dsp.fast_fft_length, []
        monkeypatch.setattr(dsp, "fast_fft_length", lambda n: asked.append((n, rule(n))) or rule(n))
        dsp.estimate_f0(_sine(220.0, seconds=0.3), cfg)
        assert len(asked) == 1
        n, length = asked[0]
        lag_hi = min(int(math.ceil(SR / dsp.F0_SEARCH_MIN_HZ)), cfg.win_size - 2)
        assert n >= cfg.win_size + lag_hi + 1
        assert length >= n
        for p in (2, 3, 5):
            while length % p == 0:
                length //= p
        assert length == 1

    def test_rule_is_the_smallest_power_of_two_times_1_3_or_5(self):
        allowed = sorted(m << k for m in (1, 3, 5) for k in range(14))
        for n in range(1, 5000):
            assert dsp.fast_fft_length(n) == next(a for a in allowed if a >= n)

    def _tracks(self, seed_wavs):
        tones = [_sine(f, seconds=0.7) for f in (60.0, 1190.0)]
        return [dsp.estimate_f0(audio, CFG) for audio in [*seed_wavs, *tones]]

    def test_doubling_the_length_changes_only_rounding(self, monkeypatch, seed_wavs):
        want = self._tracks(seed_wavs)
        rule = dsp.fast_fft_length
        monkeypatch.setattr(dsp, "fast_fft_length", lambda n: 2 * rule(n))
        for got, ref in zip(self._tracks(seed_wavs), want):
            assert np.array_equal(got.voiced, ref.voiced)
            np.testing.assert_allclose(got.f0, ref.f0, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(got.periodicity, ref.periodicity, rtol=0.0, atol=1e-12)


class TestAnalysisMemory:
    """The front-end holds no (frames, win) or (frames, fft bins) temporary:
    its peak traced allocation on a 20 s signal stays under a fixed multiple
    of one (frames, win_size) float64 matrix. The blocked code peaks at 0.45
    (estimate_f0) and 0.69 (stft, whose output alone is 0.5); the loops it
    replaced peaked at 5.2 and 2.5."""

    BOUND = {"estimate_f0": 0.6, "stft": 0.9}

    @pytest.mark.parametrize("fn", ["estimate_f0", "stft"])
    def test_peak_allocation_on_20_s(self, fn):
        audio = dsp.synth_tone(220.0, 0.6, 20 * SR, SR, vibrato=(5.0, 50.0))
        matrix = _frame_count(len(audio), CFG) * CFG.win_size * 8
        tracemalloc.start()
        try:
            getattr(dsp, fn)(audio, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / matrix < self.BOUND[fn]


class TestWavIo:
    def test_roundtrip(self, tmp_path):
        audio = _sine(440.0, amp=0.4, seconds=0.25)
        path = tmp_path / "t.wav"
        dsp.save_wav(path, audio)
        back = dsp.load_wav(path)
        assert back.sample_rate == SR
        assert np.abs(back.samples - audio.samples).max() < 1.0 / 32000

    def test_stereo_rejected(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(SR)
            wf.writeframes(b"\x00\x00" * 64)
        with pytest.raises(ValueError):
            dsp.load_wav(path)

    def test_8bit_rejected(self, tmp_path):
        import wave

        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(SR)
            wf.writeframes(b"\x00" * 64)
        with pytest.raises(ValueError):
            dsp.load_wav(path)


class TestPitchJson:
    def test_roundtrip(self, tmp_path):
        track = dsp.PitchTrack([100.0, 0.0, 220.0], [0.9, 0.1, 0.8])
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"f0": track.f0.tolist(), "periodicity": track.periodicity.tolist()}))
        back = dsp.load_pitch_json(path)
        assert np.allclose(back.f0, track.f0)
        assert np.allclose(back.periodicity, track.periodicity)
        assert np.array_equal(back.voiced, track.voiced)

    def test_bad_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"f0": [1.0]}')
        with pytest.raises(ValueError):
            dsp.load_pitch_json(path)
