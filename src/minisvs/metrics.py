"""Objective evaluation: spectral MAE, pitch error in cents, periodicity
RMSE and voiced/unvoiced F1. No time alignment is performed anywhere;
length mismatches are errors by policy."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import PitchTrack


@dataclass
class MetricReport:
    mae: float
    pitch_cents_rmse: float
    periodicity_rmse: float
    vuv_f1: float
    frames_compared: int


def spec_mae(gt, pred) -> float:
    """Mean over frames of the mean absolute per-bin difference."""
    a, b = np.asarray(gt, dtype=np.float64), np.asarray(pred, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(
            f"spectrogram shapes differ ({a.shape} vs {b.shape}); no alignment is performed"
        )
    return float(np.abs(a - b).mean())


def _check_tracks(gt: PitchTrack, pred: PitchTrack):
    if len(gt) != len(pred):
        raise ValueError(
            f"pitch tracks differ in length ({len(gt)} vs {len(pred)}); no alignment is performed"
        )


def pitch_error_cents(gt: PitchTrack, pred: PitchTrack) -> float:
    """RMSE of 1200 log2(p/p') over frames voiced in both tracks."""
    _check_tracks(gt, pred)
    mask = gt.voiced & pred.voiced
    if not mask.any():
        return 0.0
    cents = 1200.0 * (np.log2(gt.f0[mask]) - np.log2(pred.f0[mask]))
    return float(np.sqrt((cents * cents).mean()))


def frames_voiced_in_both(gt: PitchTrack, pred: PitchTrack) -> int:
    _check_tracks(gt, pred)
    return int((gt.voiced & pred.voiced).sum())


def periodicity_error(gt: PitchTrack, pred: PitchTrack) -> float:
    """RMSE of the periodicity curves over all frames."""
    _check_tracks(gt, pred)
    d = gt.periodicity - pred.periodicity
    return float(np.sqrt((d * d).mean()))


def vuv_f1(gt: PitchTrack, pred: PitchTrack) -> float:
    """F1 of per-frame voicing with voiced as the positive class."""
    _check_tracks(gt, pred)
    tp = int((gt.voiced & pred.voiced).sum())
    fp = int((~gt.voiced & pred.voiced).sum())
    fn = int((gt.voiced & ~pred.voiced).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def evaluate(gt_spec, pred_spec, gt_track: PitchTrack, pred_track: PitchTrack) -> MetricReport:
    return MetricReport(
        mae=spec_mae(gt_spec, pred_spec),
        pitch_cents_rmse=pitch_error_cents(gt_track, pred_track),
        periodicity_rmse=periodicity_error(gt_track, pred_track),
        vuv_f1=vuv_f1(gt_track, pred_track),
        frames_compared=frames_voiced_in_both(gt_track, pred_track),
    )
