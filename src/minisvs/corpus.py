"""Synthetic singing corpus.

Each song is a sequence of pure-tone notes over a 3-pitch set with toy
syllables, short rests between phrases, and occasional vibrato. Audio and
score agree exactly by construction: every note occupies round(dur * sr /
hop) frames and is synthesized with exactly that many hop blocks, so the
score's frame total equals the STFT frame count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import condition as cond
from . import dsp
from .config import RunConfig
from .fileio import load_matrix, write_json

FEATURE_PROJECTION_SEED = 12345  # fixed stand-in for an external feature extractor

SONG0_TRIAD = (69, 73, 76)  # A4, C#5, E5; keeps a 440 Hz calibration note around
VIBRATO_RATE_HZ = 5.5
VIBRATO_DEPTH_CENTS = 30.0


def _random_song(rng, triad, tempo: float, n_notes: int, alphabet: dict[str, int]):
    vowels = [alphabet[p] for p in ("a", "e", "i", "o", "u")]
    consonants = [alphabet[p] for p in ("k", "s", "t", "n", "m", "r")]
    durations = (0.25, 0.3125, 0.375, 0.5)
    syllables = []
    since_rest = 0
    for _ in range(n_notes):
        midi = int(triad[rng.integers(0, len(triad))])
        dur = float(durations[rng.integers(0, len(durations))])
        onset = int(consonants[rng.integers(0, len(consonants))]) if rng.random() < 0.7 else None
        coda = int(consonants[rng.integers(0, len(consonants))]) if rng.random() < 0.3 else None
        nucleus = int(vowels[rng.integers(0, len(vowels))])
        syllables.append(cond.Syllable(nucleus, cond.Note(midi, dur, tempo), onset, coda))
        since_rest += 1
        if since_rest >= 4:
            # phrase boundary: 16th rest
            rest = cond.Note(cond.REST_MIDI, (60.0 / tempo) / 4.0, tempo)
            syllables.append(cond.Syllable(cond.REST_PHONEME, rest))
            since_rest = 0
    return cond.MusicalScore(syllables, max(alphabet.values()) + 1)


def _render_song(score: cond.MusicalScore, cfg: RunConfig, rng) -> dsp.AudioBuffer:
    """Pure-tone rendering; each note gets exactly frames*hop samples."""
    sr, hop = cfg.sample_rate, cfg.hop_size
    pieces = []
    for syl in score.syllables:
        _, frames = cond.duration_tokens(syl.note, hop, sr)
        n = frames * hop
        if syl.note.is_rest:
            pieces.append(np.zeros(n))
            continue
        freq = dsp.midi_to_hz(syl.note.midi_pitch)
        amp = 0.35 + 0.15 * rng.random()
        vibrato = None
        if frames >= 24 and rng.random() < 0.25:
            vibrato = (VIBRATO_RATE_HZ, VIBRATO_DEPTH_CENTS)
        pieces.append(dsp.synth_tone(freq, amp, n, sr, vibrato).samples)
    samples = np.concatenate(pieces)
    # drop one hop so the centered STFT gives exactly the score's frame count
    samples = samples[: len(samples) - hop]
    return dsp.AudioBuffer(samples, sr)


def gen_corpus(out_dir, n_songs: int, seed: int, cfg: RunConfig | None = None):
    """Write songNNN.wav + songNNN.score.json pairs and the phoneme table.

    Song 0 always uses the fixed A4 triad, so MIDI 69 (440 Hz) is present;
    the remaining songs draw random triads. Deterministic per seed.
    """
    cfg = cfg or RunConfig()
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    table = dict(cond.TOY_PHONEMES)
    write_json(os.path.join(out_dir, "phonemes.json"), table)
    for i in range(n_songs):
        if i == 0:
            triad = SONG0_TRIAD
        else:
            root = int(rng.integers(55, 74))
            triad = (root, root + 4, root + 7)
        score = _random_song(rng, triad, tempo=120.0, n_notes=12, alphabet=table)
        if i == 0:
            # calibration note: a long plain 440 Hz tone the tests lean on
            score.syllables.insert(
                0, cond.Syllable(table["a"], cond.Note(69, 0.5, 120.0))
            )
        audio = _render_song(score, cfg, rng)
        dsp.save_wav(os.path.join(out_dir, f"song{i:03d}.wav"), audio)
        cond.save_score(os.path.join(out_dir, f"song{i:03d}.score.json"), score, table)


@dataclass
class LoadedSong:
    grid: cond.FrameGrid
    logmel: np.ndarray  # (frames, mel_bins) float32, ln(1 + mel)
    f0_quant: np.ndarray  # (frames,) int64, from the score by construction
    features: np.ndarray  # (frames, F) float32, stand-in self-supervised input

    @property
    def frames(self) -> int:
        return self.logmel.shape[0]


def log_mel(audio: dsp.AudioBuffer, cfg: RunConfig) -> np.ndarray:
    stft_cfg = dsp.StftConfig(cfg.fft_size, cfg.win_size, cfg.hop_size)
    spec = dsp.stft(audio, stft_cfg)
    mel = dsp.mel_project(spec, cfg.mel_bins, cfg.fmin, cfg.fmax)
    return np.log1p(mel.data).astype(np.float32)


def feature_projection(cfg: RunConfig):
    """Fixed random affine map emulating a pre-extracted frame feature.

    Affine, not linear: real self-supervised features of silence are not
    the zero vector, and downstream cosine similarities need nonzero rows.
    """
    rng = np.random.default_rng(FEATURE_PROJECTION_SEED)
    p = rng.standard_normal((cfg.mel_bins, cfg.feature_dim)) / np.sqrt(cfg.mel_bins)
    bias = rng.standard_normal(cfg.feature_dim) * 0.1
    return p.astype(np.float32), bias.astype(np.float32)


def score_f0_track(grid: cond.FrameGrid) -> dsp.PitchTrack:
    """Ground-truth frame F0 implied by the score (rests unvoiced)."""
    f0 = np.where(grid.midi > 0, dsp.midi_to_hz(grid.midi.astype(np.float64)), 0.0)
    periodicity = (grid.midi > 0).astype(np.float64)
    return dsp.PitchTrack(f0, periodicity)


def load_corpus(corpus_dir, cfg: RunConfig) -> tuple[list[LoadedSong], dict[str, int]]:
    table = cond.load_phoneme_table(os.path.join(corpus_dir, "phonemes.json"))
    proj, proj_bias = feature_projection(cfg)
    songs = []
    names = sorted(
        f[: -len(".score.json")]
        for f in os.listdir(corpus_dir)
        if f.endswith(".score.json")
    )
    if not names:
        raise ValueError(f"{corpus_dir}: no songNNN.score.json files found")
    for name in names:
        audio = dsp.load_wav(os.path.join(corpus_dir, name + ".wav"))
        score = cond.load_score(os.path.join(corpus_dir, name + ".score.json"), table)
        grid = cond.expand_score(score, cfg.hop_size, cfg.sample_rate)
        lm = log_mel(audio, cfg)
        if lm.shape[0] != grid.frames:
            raise ValueError(
                f"{name}: audio gives {lm.shape[0]} frames but the score expands to {grid.frames}"
            )
        f0q = dsp.quantize_f0(score_f0_track(grid))
        feats_path = os.path.join(corpus_dir, name + ".feats")
        if os.path.exists(feats_path):
            feats, _ = load_matrix(feats_path)
            if feats.shape[0] != grid.frames:
                raise ValueError(f"{name}: feature file frame count mismatch")
            if feats.shape[1] != cfg.feature_dim:
                raise ValueError(
                    f"{feats_path}: {feats.shape[1]} features per frame, feature_dim is "
                    f"{cfg.feature_dim}"
                )
            if not np.all(np.isfinite(feats)):
                raise ValueError(f"{feats_path}: feature file holds a non-finite value")
            feats = feats.astype(np.float32)
        else:
            feats = (lm @ proj + proj_bias).astype(np.float32)
        songs.append(LoadedSong(grid, lm, f0q, feats))
    return songs, table
