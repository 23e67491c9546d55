"""Musical-score conditioning.

Phoneme-level note division with the onset/coda 3-frame cap, duration and
tempo tokens, frame-level score expansion, and the condition network that
turns the expanded grid into the frame representation h_cond plus the
predicted prior mean mu_hat. The unsupervised path mirrors the same output
contract from externally supplied frame features and quantized F0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import as_tensor
from .nn import Embedding, GatedConvBlock, Linear

ONSET_CODA_MAX_FRAMES = 3
DURATION_TOKEN_MAX = 512
TEMPO_MIN, TEMPO_MAX = 16, 256

REST_PHONEME = 0  # reserved token for rests
REST_MIDI = 0  # rest pitch marker
MIDI_VOCAB = 128  # ids 0..127, 0 doubling as the rest marker

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
        if not (0 <= self.midi_pitch < MIDI_VOCAB):
            raise ValueError(f"midi pitch {self.midi_pitch} outside 0..127")
        if self.duration <= 0:
            raise ValueError("note duration must be positive")
        if self.tempo <= 0:
            raise ValueError("tempo must be positive")

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


class ConditionNet:
    """Embeddings + enhanced residual stack + prior estimator.

    The supervised path sums a lyrics embedding with a melody embedding
    (pitch + duration + tempo); the unsupervised path projects external
    frame features (lyrics-U) and embeds quantized F0 (melody-U). Either
    pair feeds the shared enhanced stack, whose output is h_cond; mu_hat is
    a single linear layer on h_cond.
    """

    def __init__(
        self,
        alphabet_size: int,
        latent_dim: int,
        feature_dim: int = 32,
        embed_dim: int = 64,
        blocks: int = 2,
        f0_bins: int = 128,
        rng=None,
        dtype=np.float32,
    ):
        rng = np.random.default_rng(0) if rng is None else rng
        self.embed_dim = embed_dim
        self.latent_dim = latent_dim
        self.dtype = dtype
        self.phoneme_emb = Embedding(alphabet_size, embed_dim, rng, dtype)
        self.pitch_emb = Embedding(MIDI_VOCAB, embed_dim, rng, dtype)
        self.dur_emb = Embedding(DURATION_TOKEN_MAX + 1, embed_dim, rng, dtype)
        self.tempo_emb = Embedding(TEMPO_MAX + 1, embed_dim, rng, dtype)
        self.feat_proj = Linear(feature_dim, embed_dim, rng, dtype)
        self.f0_emb = Embedding(f0_bins + 1, embed_dim, rng, dtype)
        self.enhanced = [GatedConvBlock(embed_dim, rng, None, dtype) for _ in range(blocks)]
        self.prior = Linear(embed_dim, latent_dim, rng, dtype)

    # supervised sub-representations, also the contrastive anchors
    def lyrics_repr(self, grid: FrameGrid):
        return self.phoneme_emb(grid.phoneme)

    def melody_repr(self, grid: FrameGrid):
        return (
            self.pitch_emb(grid.midi)
            + self.dur_emb(grid.dur_token)
            + self.tempo_emb(grid.tempo_token)
        )

    # unsupervised counterparts
    def lyrics_u_repr(self, frame_features):
        return self.feat_proj(as_tensor(frame_features, self.dtype))

    def melody_u_repr(self, quantized_f0):
        return self.f0_emb(np.asarray(quantized_f0, dtype=np.int64))

    def _head(self, lyrics, melody, enhanced: bool) -> FrameCondition:
        h = lyrics + melody
        if enhanced:
            for blk in self.enhanced:
                h = blk(h)
        return FrameCondition(h_cond=h, mu_hat=self.prior(h))

    def condition(self, grid: FrameGrid, enhanced: bool = True) -> FrameCondition:
        return self._head(self.lyrics_repr(grid), self.melody_repr(grid), enhanced)

    def condition_unsupervised(
        self, frame_features, quantized_f0, enhanced: bool = True
    ) -> FrameCondition:
        feats = np.asarray(frame_features)
        f0 = np.asarray(quantized_f0)
        if feats.shape[0] != f0.shape[0]:
            raise ValueError(
                f"feature frames ({feats.shape[0]}) != f0 frames ({f0.shape[0]})"
            )
        return self._head(self.lyrics_u_repr(feats), self.melody_u_repr(f0), enhanced)

    def params(self, prefix: str = "cond"):
        out = (
            self.phoneme_emb.params(prefix + ".phoneme")
            + self.pitch_emb.params(prefix + ".pitch")
            + self.dur_emb.params(prefix + ".dur")
            + self.tempo_emb.params(prefix + ".tempo")
            + self.feat_proj.params(prefix + ".feat_proj")
            + self.f0_emb.params(prefix + ".f0")
        )
        for i, blk in enumerate(self.enhanced):
            out += blk.params(f"{prefix}.enhanced{i}")
        return out + self.prior.params(prefix + ".prior")

    def supervised_params(self, prefix: str = "cond"):
        return (
            self.phoneme_emb.params(prefix + ".phoneme")
            + self.pitch_emb.params(prefix + ".pitch")
            + self.dur_emb.params(prefix + ".dur")
            + self.tempo_emb.params(prefix + ".tempo")
        )

    def unsupervised_params(self, prefix: str = "cond"):
        return self.feat_proj.params(prefix + ".feat_proj") + self.f0_emb.params(prefix + ".f0")


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


def score_from_json(payload: dict, phoneme_table: dict[str, int]) -> MusicalScore:
    if "tempo" not in payload or "syllables" not in payload:
        raise ValueError("score JSON needs 'tempo' and 'syllables'")
    tempo = float(payload["tempo"])
    syllables = []
    for i, item in enumerate(payload["syllables"]):
        try:
            nucleus = phoneme_table[item["nucleus"]]
            onset = phoneme_table[item["onset"]] if item.get("onset") else None
            coda = phoneme_table[item["coda"]] if item.get("coda") else None
        except KeyError as exc:
            raise ValueError(f"syllable {i}: unknown phoneme {exc}") from None
        midi = item.get("midi")
        note = Note(REST_MIDI if midi is None else int(midi), float(item["dur_s"]), tempo)
        syllables.append(Syllable(nucleus, note, onset, coda))
    return MusicalScore(syllables, max(phoneme_table.values()) + 1)


def save_score(path, score: MusicalScore, phoneme_table: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(score_to_json(score, phoneme_table), fh, indent=1)


def load_score(path, phoneme_table: dict[str, int]) -> MusicalScore:
    with open(path, "r", encoding="utf-8") as fh:
        return score_from_json(json.load(fh), phoneme_table)


def save_phoneme_table(path, table: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)


def load_phoneme_table(path) -> dict[str, int]:
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    if not isinstance(table, dict) or not table:
        raise ValueError(f"{path}: phoneme table must be a non-empty object")
    return {str(k): int(v) for k, v in table.items()}
