"""Musical-score conditioning.

Phoneme-level note division with the onset/coda 3-frame cap, duration and
tempo tokens, frame-level score expansion, and the condition network that
turns the expanded grid into the frame representation h_cond plus the
predicted prior mean mu_hat. The unsupervised path mirrors the same output
contract from externally supplied frame features and quantized F0.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import as_tensor
from .dsp import F0_BINS
from .fileio import write_json
from .nn import Embedding, GatedConvBlock, Linear, Module

ONSET_CODA_MAX_FRAMES = 3
DURATION_TOKEN_MAX = 512
TEMPO_MIN, TEMPO_MAX = 16, 256
# the longest note a duration token expresses: DURATION_TOKEN_MAX 64th notes
# at the slowest tempo, 120 s; a longer note is refused, not clamped
NOTE_MAX_SECONDS = DURATION_TOKEN_MAX * (60.0 / TEMPO_MIN) / 16.0

REST_PHONEME = 0  # reserved token for rests
REST_MIDI = 0  # rest pitch marker
MIDI_VOCAB = 128  # ids 0..127, 0 doubling as the rest marker
ENHANCED_BLOCKS = 2  # gated residual blocks in the enhanced condition stack

# toy phoneme alphabet; real lyric front-ends plug in via the table file
TOY_PHONEMES = {
    "<rest>": 0,
    "a": 1, "e": 2, "i": 3, "o": 4, "u": 5,
    "k": 6, "s": 7, "t": 8, "n": 9, "m": 10, "r": 11, "l": 12, "ng": 13,
}


@dataclass(frozen=True)
class Note:
    midi_pitch: int  # 0 = rest, otherwise 1..127
    duration: float  # seconds
    tempo: float  # bpm

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0 <= self.midi_pitch < MIDI_VOCAB):
            raise ValueError(f"'midi' {self.midi_pitch} outside 0..127")
        if not (0 < self.duration <= NOTE_MAX_SECONDS):
            raise ValueError(f"'dur_s' {self.duration!r} outside (0, {NOTE_MAX_SECONDS:g}] seconds")
        if not (0 < self.tempo < math.inf):
            raise ValueError(f"'tempo' {self.tempo!r} must be positive and finite")

    @property
    def is_rest(self) -> bool:
        return self.midi_pitch == REST_MIDI


@dataclass(frozen=True)
class Syllable:
    nucleus: int
    note: Note
    onset: int | None = None
    coda: int | None = None


@dataclass
class MusicalScore:
    syllables: list[Syllable]
    alphabet_size: int

    def __post_init__(self):
        if not self.syllables:
            raise ValueError("a score needs at least one syllable")
        for syl in self.syllables:
            for ph in (syl.onset, syl.nucleus, syl.coda):
                if ph is not None and not (0 <= ph < self.alphabet_size):
                    raise ValueError(f"phoneme id {ph} outside alphabet of {self.alphabet_size}")


@dataclass
class FrameGrid:
    """Frame-level token grid expanded from a score."""

    phoneme: np.ndarray
    midi: np.ndarray
    dur_token: np.ndarray
    tempo_token: np.ndarray
    note_spans: list[tuple[int, int]]  # per note: [start_frame, end_frame)
    note_midi: list[int]

    @property
    def frames(self) -> int:
        return self.phoneme.size


@dataclass
class FrameCondition:
    h_cond: object  # frames x H (Tensor or ndarray)
    mu_hat: object  # frames x D


def assign_syllable_frames(syl: Syllable, note_frames: int) -> tuple[int, int, int]:
    """Split a note's frames over onset/nucleus/coda.

    Onset and coda are capped at 3 frames, remainder to the nucleus. Notes
    too short for the caps reserve one nucleus frame and split the rest
    evenly over the present onset/coda, onset first on odd remainders.
    """
    if note_frames < 1:
        raise ValueError("a note must span at least one frame")
    has_onset = syl.onset is not None
    has_coda = syl.coda is not None
    onset = ONSET_CODA_MAX_FRAMES if has_onset else 0
    coda = ONSET_CODA_MAX_FRAMES if has_coda else 0
    nucleus = note_frames - onset - coda
    if nucleus >= 1:
        return onset, nucleus, coda
    rem = note_frames - 1
    if has_onset and has_coda:
        onset = (rem + 1) // 2
        coda = rem // 2
    elif has_onset:
        onset, coda = rem, 0
    elif has_coda:
        onset, coda = 0, rem
    else:
        onset = coda = 0
    return onset, note_frames - onset - coda, coda


def duration_tokens(note: Note, hop_size: int, sample_rate: int) -> tuple[int, int]:
    """(duration token in 64th notes, frame count) for one note."""
    sixty_fourth = (60.0 / _clamp_tempo(note.tempo)) / 16.0
    token = int(np.floor(note.duration / sixty_fourth + 0.5))
    token = min(max(token, 1), DURATION_TOKEN_MAX)
    frames = max(1, int(np.floor(note.duration * sample_rate / hop_size + 0.5)))
    return token, frames


def tempo_token(bpm: float) -> int:
    if bpm <= 0:
        raise ValueError("tempo must be positive")
    return int(np.clip(np.floor(bpm + 0.5), TEMPO_MIN, TEMPO_MAX))


def _clamp_tempo(bpm: float) -> float:
    return float(np.clip(bpm, TEMPO_MIN, TEMPO_MAX))


def expand_score(score: MusicalScore, hop_size: int, sample_rate: int) -> FrameGrid:
    """Frame-level tokens; note-constant pitch/duration/tempo, phonemes per
    the onset/nucleus/coda split."""
    phon, midi, dur, tempo = [], [], [], []
    spans, note_midis = [], []
    cursor = 0
    for syl in score.syllables:
        token, frames = duration_tokens(syl.note, hop_size, sample_rate)
        t_tok = tempo_token(syl.note.tempo)
        onset_f, nucleus_f, coda_f = assign_syllable_frames(syl, frames)
        ids = (
            [syl.onset] * onset_f + [syl.nucleus] * nucleus_f + [syl.coda] * coda_f
        )
        phon.extend(ids)
        midi.extend([syl.note.midi_pitch] * frames)
        dur.extend([token] * frames)
        tempo.extend([t_tok] * frames)
        spans.append((cursor, cursor + frames))
        note_midis.append(syl.note.midi_pitch)
        cursor += frames
    return FrameGrid(
        np.asarray(phon, dtype=np.int64),
        np.asarray(midi, dtype=np.int64),
        np.asarray(dur, dtype=np.int64),
        np.asarray(tempo, dtype=np.int64),
        spans,
        note_midis,
    )


class ConditionNet(Module):
    """Embeddings + enhanced residual stack + prior estimator.

    The supervised path sums a lyrics embedding with a melody embedding
    (pitch + duration + tempo); the unsupervised path projects external
    frame features (lyrics-U) and embeds quantized F0 (melody-U). Either
    pair feeds the shared enhanced stack, whose output is h_cond; mu_hat is
    a single linear layer on h_cond.
    """

    def __init__(self, alphabet_size: int, latent_dim: int, feature_dim: int, embed_dim: int,
                 rng, dtype=np.float32):
        self.dtype = dtype
        self.phoneme = Embedding(alphabet_size, embed_dim, rng, dtype)
        self.pitch = Embedding(MIDI_VOCAB, embed_dim, rng, dtype)
        self.dur = Embedding(DURATION_TOKEN_MAX + 1, embed_dim, rng, dtype)
        self.tempo = Embedding(TEMPO_MAX + 1, embed_dim, rng, dtype)
        self.feat_proj = Linear(feature_dim, embed_dim, rng, dtype)
        self.f0 = Embedding(F0_BINS + 1, embed_dim, rng, dtype)
        self.enhanced = [GatedConvBlock(embed_dim, rng, None, dtype)
                         for _ in range(ENHANCED_BLOCKS)]
        self.prior = Linear(embed_dim, latent_dim, rng, dtype)

    # supervised sub-representations, also the contrastive anchors
    def lyrics_repr(self, grid: FrameGrid):
        return self.phoneme(grid.phoneme)

    def melody_repr(self, grid: FrameGrid):
        return (
            self.pitch(grid.midi)
            + self.dur(grid.dur_token)
            + self.tempo(grid.tempo_token)
        )

    # unsupervised counterparts
    def lyrics_u_repr(self, frame_features):
        return self.feat_proj(as_tensor(frame_features, self.dtype))

    def melody_u_repr(self, quantized_f0):
        return self.f0(np.asarray(quantized_f0, dtype=np.int64))

    def head(self, lyrics, melody, enhanced: bool) -> FrameCondition:
        """h_cond and mu_hat from a lyrics and a melody representation."""
        h = lyrics + melody
        if enhanced:
            for blk in self.enhanced:
                h = blk(h)
        return FrameCondition(h_cond=h, mu_hat=self.prior(h))

    def condition(self, grid: FrameGrid, enhanced: bool = True) -> FrameCondition:
        return self.head(self.lyrics_repr(grid), self.melody_repr(grid), enhanced)

    def condition_unsupervised(
        self, frame_features, quantized_f0, enhanced: bool = True
    ) -> FrameCondition:
        feats = np.asarray(frame_features)
        f0 = np.asarray(quantized_f0)
        if feats.shape[0] != f0.shape[0]:
            raise ValueError(
                f"feature frames ({feats.shape[0]}) != f0 frames ({f0.shape[0]})"
            )
        return self.head(self.lyrics_u_repr(feats), self.melody_u_repr(f0), enhanced)


# -- score files ----------------------------------------------------------------


def score_to_json(score: MusicalScore, phoneme_table: dict[str, int]) -> dict:
    inv = {v: k for k, v in phoneme_table.items()}
    syllables = []
    for syl in score.syllables:
        syllables.append(
            {
                "onset": inv[syl.onset] if syl.onset is not None else None,
                "nucleus": inv[syl.nucleus],
                "coda": inv[syl.coda] if syl.coda is not None else None,
                "midi": None if syl.note.is_rest else syl.note.midi_pitch,
                "dur_s": syl.note.duration,
            }
        )
    tempo = score.syllables[0].note.tempo
    return {"tempo": tempo, "syllables": syllables}


def _number(value, where: str, name: str) -> float:
    """value as a float; JSON that is not a number, or an integer past float range, is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: '{name}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where}: '{name}' is out of range") from None


def score_from_json(payload: dict, phoneme_table: dict[str, int]) -> MusicalScore:
    if not isinstance(payload, dict) or "tempo" not in payload or "syllables" not in payload:
        raise ValueError("score JSON needs 'tempo' and 'syllables'")
    if not isinstance(payload["syllables"], list):
        raise ValueError("score JSON: 'syllables' must be a list")
    tempo = _number(payload["tempo"], "score JSON", "tempo")
    syllables = []
    for i, item in enumerate(payload["syllables"]):
        where = f"syllable {i}"
        if not isinstance(item, dict):
            raise ValueError(f"{where}: must be an object")
        if item.get("nucleus") is None:
            raise ValueError(f"{where}: 'nucleus' is missing")
        ids = {}
        for name in ("nucleus", "onset", "coda"):
            value = item.get(name)  # an absent or null onset or coda is none
            if not isinstance(value, (str, type(None))):
                raise ValueError(f"{where}: '{name}' must be a phoneme name, got {value!r}")
            if value is not None and value not in phoneme_table:
                raise ValueError(f"{where}: '{name}' is an unknown phoneme {value!r}")
            ids[name] = None if value is None else phoneme_table[value]
        midi = REST_MIDI if item.get("midi") is None else _number(item["midi"], where, "midi")
        if not float(midi).is_integer():
            raise ValueError(f"{where}: 'midi' must be a whole number, got {item['midi']!r}")
        dur_s = _number(item.get("dur_s"), where, "dur_s")
        try:
            note = Note(int(midi), dur_s, tempo)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        syllables.append(Syllable(ids["nucleus"], note, ids["onset"], ids["coda"]))
    return MusicalScore(syllables, max(phoneme_table.values()) + 1)


def save_score(path, score: MusicalScore, phoneme_table: dict[str, int]) -> None:
    write_json(path, score_to_json(score, phoneme_table))


def load_score(path, phoneme_table: dict[str, int]) -> MusicalScore:
    with open(path, "r", encoding="utf-8") as fh:
        return score_from_json(json.load(fh), phoneme_table)


def check_phoneme_table(table, where) -> dict[str, int]:
    if not isinstance(table, dict) or not table:
        raise ValueError(f"{where}: phoneme table must be a non-empty object")
    for key, value in table.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"{where}: phoneme '{key}' must map to a non-negative int id")
    return dict(table)


def load_phoneme_table(path) -> dict[str, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return check_phoneme_table(json.load(fh), path)
