import math

import numpy as np
import pytest

from minisvs import dsp

CFG = dsp.StftConfig()
SR = 24000


def _sine(freq, amp=0.5, seconds=1.0):
    return dsp.synth_tone([(freq, amp, 0.0, seconds)], SR)


class TestStft:
    def test_silence_gives_zero_spectrogram(self):
        audio = dsp.AudioBuffer(np.zeros(SR), SR)
        spec = dsp.stft(audio, CFG)
        assert spec.data.max() == 0.0

    def test_frame_count_formula(self):
        spec = dsp.stft(_sine(440.0), CFG)
        assert spec.frames == SR // CFG.hop_size + 1 == 94
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

    @pytest.mark.parametrize("freq", [80.0, 123.47, 261.63, 440.0, 783.99, 1000.0])
    def test_pure_sine_within_2_percent(self, freq):
        track = dsp.estimate_f0(_sine(freq, seconds=0.7), CFG)
        med = np.median(track.f0[track.voiced])
        assert abs(med - freq) / freq < 0.02

    def test_frame_alignment_matches_stft(self):
        audio = _sine(300.0, seconds=0.83)
        assert len(dsp.estimate_f0(audio, CFG)) == dsp.stft(audio, CFG).frames


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
    def test_empty_note_list_is_refused(self):
        with pytest.raises(ValueError):
            dsp.synth_tone([], SR)

    def test_sine_rms_identity(self):
        audio = _sine(440.0, amp=0.5, seconds=1.0)
        rms = math.sqrt(float((audio.samples**2).mean()))
        expect = 0.5 / math.sqrt(2.0)
        assert abs(rms - expect) / expect < 1e-3

    def test_vibrato_instantaneous_frequency_range(self):
        audio = dsp.synth_tone([(440.0, 0.5, 0.0, 2.0)], SR, vibrato=(5.0, 100.0))
        x = audio.samples
        sgn = np.sign(x)
        idx = np.flatnonzero((sgn[:-1] <= 0) & (sgn[1:] > 0))
        cross = idx + (-x[idx]) / (x[idx + 1] - x[idx])
        inst = SR / np.diff(cross)
        lo, hi = 440.0 * 2 ** (-100 / 1200), 440.0 * 2 ** (100 / 1200)
        assert abs(inst.min() - lo) / lo < 0.01
        assert abs(inst.max() - hi) / hi < 0.01

    def test_determinism_and_peak_bound(self):
        spec = [(440.0, 0.9, 0.0, 1.0), (660.0, 0.9, 0.0, 1.0)]
        a = dsp.synth_tone(spec, SR)
        b = dsp.synth_tone(spec, SR)
        assert np.array_equal(a.samples, b.samples)
        assert np.abs(a.samples).max() <= 1.0

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError):
            dsp.synth_tone([(12001.0, 0.5, 0.0, 1.0)], SR)
        with pytest.raises(ValueError):
            # vibrato peak crosses Nyquist even though the base does not
            dsp.synth_tone([(11900.0, 0.5, 0.0, 1.0)], SR, vibrato=(5.0, 100.0))


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
        dsp.save_pitch_json(path, track)
        back = dsp.load_pitch_json(path)
        assert np.allclose(back.f0, track.f0)
        assert np.allclose(back.periodicity, track.periodicity)
        assert np.array_equal(back.voiced, track.voiced)

    def test_bad_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"f0": [1.0]}')
        with pytest.raises(ValueError):
            dsp.load_pitch_json(path)
