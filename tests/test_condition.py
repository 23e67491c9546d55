import json

import numpy as np
import pytest

from minisvs import condition as cond
from minisvs import dsp, fileio
from minisvs.autodiff import gradient_check

HOP, SR = 256, 24000


def _note(midi=69, dur=0.5, tempo=120.0):
    return cond.Note(midi, dur, tempo)


def _syl(onset=6, nucleus=1, coda=13, **kw):
    return cond.Syllable(nucleus, _note(**kw), onset, coda)


class TestAssignSyllableFrames:
    def test_full_note_caps_onset_and_coda_at_three(self):
        assert cond.assign_syllable_frames(_syl(), 10) == (3, 4, 3)

    def test_nucleus_only(self):
        syl = cond.Syllable(1, _note())
        assert cond.assign_syllable_frames(syl, 10) == (0, 10, 0)

    def test_shrink_rule_five_frames(self):
        # reserve 1 nucleus frame, split 4 evenly
        assert cond.assign_syllable_frames(_syl(), 5) == (2, 1, 2)

    def test_shrink_rule_odd_remainder_prefers_onset(self):
        assert cond.assign_syllable_frames(_syl(), 4) == (2, 1, 1)

    def test_single_frame(self):
        assert cond.assign_syllable_frames(_syl(), 1) == (0, 1, 0)

    def test_onset_only_short_note(self):
        syl = cond.Syllable(1, _note(), onset=6)
        assert cond.assign_syllable_frames(syl, 2) == (1, 1, 0)

    @pytest.mark.parametrize("frames", range(1, 30))
    @pytest.mark.parametrize("has_onset,has_coda", [(True, True), (True, False), (False, True), (False, False)])
    def test_invariants_hold_everywhere(self, frames, has_onset, has_coda):
        syl = cond.Syllable(1, _note(), 6 if has_onset else None, 13 if has_coda else None)
        onset, nucleus, coda = cond.assign_syllable_frames(syl, frames)
        assert onset + nucleus + coda == frames
        assert onset <= 3 and coda <= 3
        present = 1 + int(has_onset) + int(has_coda)
        if frames >= present:
            assert nucleus >= 1
        if not has_onset:
            assert onset == 0
        if not has_coda:
            assert coda == 0


class TestDurationAndTempoTokens:
    def test_half_second_at_120_is_16_sixtyfourths(self):
        token, _ = cond.duration_tokens(_note(dur=0.5), HOP, SR)
        assert token == 16

    def test_single_sixtyfourth(self):
        token, _ = cond.duration_tokens(_note(dur=0.03125), HOP, SR)
        assert token == 1

    def test_frame_count_oracle(self):
        _, frames = cond.duration_tokens(_note(dur=1.0), HOP, SR)
        assert frames == round(1.0 * SR / HOP) == 94

    def test_token_clamped_at_512(self):
        token, _ = cond.duration_tokens(_note(dur=60.0), HOP, SR)
        assert token == 512

    def test_tempo_token_values(self):
        assert cond.tempo_token(120.0) == 120
        assert cond.tempo_token(10.0) == 16
        assert cond.tempo_token(400.0) == 256
        assert cond.tempo_token(120.6) == 121

    def test_tempo_positive_required(self):
        with pytest.raises(ValueError):
            cond.tempo_token(0.0)


class TestExpandScore:
    def test_single_syllable_segmentation(self):
        # 10-frame note: rows 0-2 onset, 3-6 nucleus, 7-9 coda
        dur = 10 * HOP / SR
        score = cond.MusicalScore([_syl(dur=dur)], 14)
        grid = cond.expand_score(score, HOP, SR)
        assert grid.frames == 10
        assert grid.phoneme.tolist() == [6] * 3 + [1] * 4 + [13] * 3
        assert np.all(grid.midi == 69)

    def test_two_note_concatenation(self):
        s1 = cond.Syllable(1, cond.Note(60, 4 * HOP / SR, 120.0))
        s2 = cond.Syllable(2, cond.Note(67, 6 * HOP / SR, 120.0))
        grid = cond.expand_score(cond.MusicalScore([s1, s2], 14), HOP, SR)
        assert grid.frames == 10
        assert np.all(grid.midi[:4] == 60) and np.all(grid.midi[4:] == 67)
        assert grid.note_spans == [(0, 4), (4, 10)]

    def test_rest_note_markers(self):
        rest = cond.Syllable(cond.REST_PHONEME, cond.Note(cond.REST_MIDI, 0.125, 120.0))
        grid = cond.expand_score(cond.MusicalScore([rest], 14), HOP, SR)
        assert np.all(grid.phoneme == cond.REST_PHONEME)
        assert np.all(grid.midi == cond.REST_MIDI)

    def test_frame_total_is_sum_of_note_frames(self):
        rng = np.random.default_rng(0)
        syls = []
        expect = 0
        for _ in range(9):
            dur = float(rng.uniform(0.05, 0.6))
            syls.append(cond.Syllable(1, cond.Note(64, dur, 120.0)))
            expect += max(1, int(np.floor(dur * SR / HOP + 0.5)))
        grid = cond.expand_score(cond.MusicalScore(syls, 14), HOP, SR)
        assert grid.frames == expect

    def test_tempo_clamp_does_not_change_frames(self):
        fast = cond.MusicalScore([cond.Syllable(1, cond.Note(60, 0.5, 400.0))], 14)
        slow = cond.MusicalScore([cond.Syllable(1, cond.Note(60, 0.5, 120.0))], 14)
        assert (
            cond.expand_score(fast, HOP, SR).frames
            == cond.expand_score(slow, HOP, SR).frames
        )


def _toy_grid():
    score = cond.MusicalScore([_syl(dur=0.2), cond.Syllable(2, _note(midi=72, dur=0.2))], 14)
    return cond.expand_score(score, HOP, SR)


class TestConditionNet:
    def _net(self, dtype=np.float64):
        return cond.ConditionNet(14, 6, feature_dim=5, embed_dim=12,
                                 rng=np.random.default_rng(0), dtype=dtype)

    def test_zero_weights_zero_mu(self):
        net = self._net()
        for _, p in net.params():
            p.data[:] = 0.0
        fc = net.condition(_toy_grid())
        assert np.all(fc.mu_hat.data == 0.0)

    def test_identical_interior_frames_identical_rows(self):
        net = self._net()
        grid = _toy_grid()
        fc = net.condition(grid)
        h = fc.h_cond.data
        # rows 5..10 sit inside the first note's nucleus with identical
        # conv context, so they must agree exactly
        nucleus_rows = h[5:10]
        assert np.abs(nucleus_rows - nucleus_rows[0]).max() < 1e-12

    def test_mu_shape_matches_latent_dim(self):
        net = self._net()
        fc = net.condition(_toy_grid())
        assert fc.mu_hat.data.shape == (_toy_grid().frames, 6)

    def test_gradcheck_through_embeddings_and_stack(self):
        net = self._net()
        grid = _toy_grid()
        probe = np.random.default_rng(1).standard_normal((grid.frames, 6))

        def f():
            fc = net.condition(grid)
            return (fc.mu_hat * probe).sum()

        err = gradient_check(f, [p for _, p in net.params()], n_points=4,
                             rng=np.random.default_rng(2))
        assert err < 1e-4

    def test_unknown_token_rejected(self):
        net = self._net()
        grid = _toy_grid()
        grid.phoneme[0] = 99
        with pytest.raises(ValueError):
            net.condition(grid)

    def test_enhanced_bypass_changes_output(self):
        net = self._net()
        grid = _toy_grid()
        a = net.condition(grid, enhanced=True).h_cond.data
        b = net.condition(grid, enhanced=False).h_cond.data
        assert np.abs(a - b).max() > 1e-9

    def test_deterministic_given_weights(self):
        net = self._net()
        grid = _toy_grid()
        assert np.array_equal(net.condition(grid).h_cond.data, net.condition(grid).h_cond.data)

    def test_f0_table_covers_every_quantized_f0(self):
        assert self._net().f0.table.data.shape[0] == dsp.F0_BINS + 1
        f0 = np.geomspace(1.0, 20000.0, 400)
        q = dsp.quantize_f0(dsp.PitchTrack(f0, np.ones_like(f0)))
        assert q.min() >= 0 and q.max() == dsp.F0_BINS


class TestUnsupervisedPath:
    def _net(self):
        return cond.ConditionNet(14, 6, feature_dim=5, embed_dim=12,
                                 rng=np.random.default_rng(3), dtype=np.float64)

    def test_zero_features_unvoiced_f0_bias_only_forward(self):
        net = self._net()
        feats = np.zeros((8, 5))
        f0 = np.zeros(8, dtype=np.int64)
        fc = net.condition_unsupervised(feats, f0)
        # frame-constant input leads to frame-constant interior rows
        h = fc.h_cond.data
        assert np.abs(h[2:6] - h[2]).max() < 1e-12

    def test_length_mismatch_rejected(self):
        net = self._net()
        with pytest.raises(ValueError):
            net.condition_unsupervised(np.zeros((8, 5)), np.zeros(7, dtype=np.int64))

    def test_same_output_contract_as_supervised(self):
        net = self._net()
        fc = net.condition_unsupervised(np.random.default_rng(4).standard_normal((9, 5)),
                                        np.arange(9) % 3)
        assert fc.h_cond.data.shape == (9, 12)
        assert fc.mu_hat.data.shape == (9, 6)

    def test_frame_locality_under_permutation(self):
        # enhanced stack off: the paths are frame-local, so permuting
        # frames permutes rows identically
        net = self._net()
        feats = np.random.default_rng(5).standard_normal((10, 5))
        f0 = np.random.default_rng(6).integers(0, 9, size=10)
        perm = np.random.default_rng(7).permutation(10)
        a = net.condition_unsupervised(feats, f0, enhanced=False).h_cond.data
        b = net.condition_unsupervised(feats[perm], f0[perm], enhanced=False).h_cond.data
        assert np.abs(a[perm] - b).max() < 1e-12


class TestScoreJson:
    TABLE = dict(cond.TOY_PHONEMES)

    def test_roundtrip(self, tmp_path):
        score = cond.MusicalScore(
            [
                cond.Syllable(1, cond.Note(69, 0.5, 120.0), 6, 13),
                cond.Syllable(2, cond.Note(0, 0.125, 120.0)),
            ],
            14,
        )
        path = tmp_path / "s.json"
        cond.save_score(path, score, self.TABLE)
        back = cond.load_score(path, self.TABLE)
        assert len(back.syllables) == 2
        assert back.syllables[0].onset == 6
        assert back.syllables[0].note.midi_pitch == 69
        assert back.syllables[1].note.is_rest

    def test_schema_keys(self, tmp_path):
        score = cond.MusicalScore([cond.Syllable(1, cond.Note(69, 0.5, 120.0), 6, None)], 14)
        payload = cond.score_to_json(score, self.TABLE)
        assert set(payload) == {"tempo", "syllables"}
        assert set(payload["syllables"][0]) == {"onset", "nucleus", "coda", "midi", "dur_s"}
        assert payload["syllables"][0]["coda"] is None

    def test_unknown_phoneme_rejected(self):
        payload = {"tempo": 120, "syllables": [{"onset": None, "nucleus": "zz", "coda": None, "midi": 60, "dur_s": 0.5}]}
        with pytest.raises(ValueError):
            cond.score_from_json(payload, self.TABLE)

    def test_phoneme_table_file_roundtrip(self, tmp_path):
        path = tmp_path / "ph.json"
        fileio.write_json(path, self.TABLE)
        assert cond.load_phoneme_table(path) == self.TABLE
        path.write_text(json.dumps([]))
        with pytest.raises(ValueError):
            cond.load_phoneme_table(path)


def test_note_validation():
    with pytest.raises(ValueError):
        cond.Note(200, 0.5, 120.0)
    with pytest.raises(ValueError):
        cond.Note(60, 0.0, 120.0)
    with pytest.raises(ValueError):
        cond.Note(60, 0.5, -1.0)


def test_score_validation():
    with pytest.raises(ValueError):
        cond.MusicalScore([], 14)
    with pytest.raises(ValueError):
        cond.MusicalScore([cond.Syllable(99, cond.Note(60, 0.5, 120.0))], 14)
