import json
from dataclasses import asdict

import numpy as np
import pytest

from minisvs import fileio, metrics
from minisvs.dsp import PitchTrack


def _track(f0, periodicity=None):
    f0 = np.asarray(f0, dtype=float)
    if periodicity is None:
        periodicity = (f0 > 0).astype(float)
    return PitchTrack(f0, periodicity)


class TestSpecMae:
    def test_identical_zero(self):
        x = np.random.default_rng(0).uniform(size=(6, 4))
        assert metrics.spec_mae(x, x) == 0.0

    def test_single_bin_value(self):
        assert metrics.spec_mae(np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]])) == 1.5

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=(5, 3)), rng.uniform(size=(5, 3))
        assert abs(metrics.spec_mae(3 * a, 3 * b) - 3 * metrics.spec_mae(a, b)) < 1e-12

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.uniform(size=(4, 4)) for _ in range(3))
        assert metrics.spec_mae(a, b) == metrics.spec_mae(b, a)
        assert metrics.spec_mae(a, c) <= metrics.spec_mae(a, b) + metrics.spec_mae(b, c) + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alignment"):
            metrics.spec_mae(np.zeros((3, 2)), np.zeros((4, 2)))


class TestPitchError:
    def test_identical_tracks_zero(self):
        t = _track([220.0, 440.0, 0.0])
        assert metrics.pitch_error_cents(t, t) == 0.0

    def test_octave_is_exactly_1200(self):
        gt = _track([440.0, 440.0])
        pred = _track([220.0, 220.0])
        assert abs(metrics.pitch_error_cents(gt, pred) - 1200.0) < 1e-9

    def test_half_frames_off_by_100_cents(self):
        gt = _track([440.0] * 4)
        shifted = 440.0 * 2 ** (100 / 1200)
        pred = _track([shifted, shifted, 440.0, 440.0])
        expect = 100.0 / np.sqrt(2.0)
        assert abs(metrics.pitch_error_cents(gt, pred) - expect) < 1e-9

    def test_only_frames_voiced_in_both_count(self):
        gt = _track([440.0, 0.0, 440.0])
        pred = _track([880.0, 880.0, 0.0])  # only frame 0 shared
        assert abs(metrics.pitch_error_cents(gt, pred) - 1200.0) < 1e-9
        assert metrics.frames_voiced_in_both(gt, pred) == 1

    def test_no_common_voicing_returns_zero(self):
        gt = _track([440.0, 0.0])
        pred = _track([0.0, 220.0])
        assert metrics.pitch_error_cents(gt, pred) == 0.0
        assert metrics.frames_voiced_in_both(gt, pred) == 0

    def test_transposition_invariance(self):
        rng = np.random.default_rng(3)
        f = rng.uniform(100, 800, size=10)
        g = f * rng.uniform(0.8, 1.25, size=10)
        a = metrics.pitch_error_cents(_track(f), _track(g))
        b = metrics.pitch_error_cents(_track(2 * f), _track(2 * g))
        assert abs(a - b) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.pitch_error_cents(_track([440.0]), _track([440.0, 220.0]))


class TestPeriodicityError:
    def test_identical_zero(self):
        t = _track([220.0, 0.0], [0.9, 0.1])
        assert metrics.periodicity_error(t, t) == 0.0

    def test_constant_gap(self):
        a = _track([220.0, 220.0], [0.8, 0.8])
        b = _track([220.0, 220.0], [0.7, 0.7])
        assert abs(metrics.periodicity_error(a, b) - 0.1) < 1e-12

    def test_bounded_by_one_for_in_range_inputs(self):
        rng = np.random.default_rng(4)
        a = _track(np.full(20, 220.0), rng.uniform(0.5001, 1, 20))
        b = _track(np.full(20, 220.0), rng.uniform(0.5001, 1, 20))
        assert metrics.periodicity_error(a, b) <= 1.0


class TestVuvF1:
    def test_identical_is_one(self):
        t = _track([220.0, 0.0, 440.0])
        assert metrics.vuv_f1(t, t) == 1.0

    def test_all_unvoiced_prediction_is_zero(self):
        gt = _track([220.0, 440.0])
        pred = _track([0.0, 0.0])
        assert metrics.vuv_f1(gt, pred) == 0.0

    def test_confusion_matrix_oracle(self):
        gt = _track([220.0, 220.0, 0.0, 0.0])
        pred = _track([220.0, 0.0, 220.0, 0.0])
        # tp=1, fp=1, fn=1 -> P = R = 0.5 -> F1 = 0.5
        assert abs(metrics.vuv_f1(gt, pred) - 0.5) < 1e-12

    def test_no_positives_anywhere_is_zero(self):
        t = _track([0.0, 0.0])
        assert metrics.vuv_f1(t, t) == 0.0


class TestReport:
    def test_perfect_report(self, tmp_path):
        spec = np.random.default_rng(5).uniform(size=(6, 8))
        t = _track([220.0, 0.0, 440.0, 440.0, 0.0, 330.0])
        report = metrics.evaluate(spec, spec, t, t)
        assert report.mae == 0.0
        assert report.pitch_cents_rmse == 0.0
        assert report.periodicity_rmse == 0.0
        assert report.vuv_f1 == 1.0
        assert report.frames_compared == 4
        out = tmp_path / "r.json"
        fileio.write_json(out, asdict(report))
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "mae",
            "pitch_cents_rmse",
            "periodicity_rmse",
            "vuv_f1",
            "frames_compared",
        }
