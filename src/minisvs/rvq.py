"""Residual vector quantization.

A coder is an ordered cascade of codebooks; each stage quantizes the
previous stage's residual to its nearest entry (ties break to the lowest
index, so encoding is bit-deterministic). Codebooks learn by k-means++
initialization plus EMA updates. With `pin_zero` the first entry of every
codebook is held at the zero vector, which guarantees that quantization
error never increases with the number of stages.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .fileio import write_files
from .losses import _values_of

BITSTREAM_MAGIC = b"HSC1"

EMA_DECAY = 0.99
DEAD_CODE_THRESHOLD = 2.0
COUNT_EPS = 1e-5


@dataclass
class Codebook:
    entries: np.ndarray  # (K, D)
    # EMA state: one count per entry and the entries themselves to start
    ema_counts: np.ndarray = field(init=False)
    ema_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float32)
        if self.entries.ndim != 2 or self.entries.shape[0] < 1 or self.entries.shape[1] < 1:
            raise ValueError("codebook entries must be a (K >= 1, D >= 1) matrix")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("codebook entries must be finite")
        self.ema_counts = np.ones(self.entries.shape[0], dtype=np.float32)
        self.ema_sums = self.entries.copy()

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


class RvqCoder:
    def __init__(self, codebooks: list[Codebook], pin_zero: bool = False):
        if not codebooks:
            raise ValueError("a coder needs at least one codebook")
        dims = {cb.dim for cb in codebooks}
        if len(dims) != 1:
            raise ValueError(f"all codebooks must share one dimension, got {sorted(dims)}")
        # codes and the bitstream header carry one K for every stage
        sizes = [cb.size for cb in codebooks]
        if len(set(sizes)) != 1:
            raise ValueError(f"all codebooks must share one size, got sizes {sizes}")
        self.codebooks = codebooks
        self.pin_zero = pin_zero
        if pin_zero:
            for cb in codebooks:
                cb.entries[0] = 0.0
                cb.ema_sums[0] = 0.0

    @property
    def n_quantizers(self) -> int:
        return len(self.codebooks)

    @property
    def dim(self) -> int:
        return self.codebooks[0].dim

    @property
    def codebook_size(self) -> int:
        return self.codebooks[0].size


@dataclass
class CodecCodes:
    indices: np.ndarray  # (C, frames)
    codebook_size: int
    dim: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 2:
            raise ValueError("codes must be quantizers x frames")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.codebook_size
        ):
            raise ValueError("code index out of codebook range")

    @property
    def n_quantizers(self) -> int:
        return self.indices.shape[0]

    @property
    def frames(self) -> int:
        return self.indices.shape[1]


def _nearest(entries: np.ndarray, r: np.ndarray) -> np.ndarray:
    # squared distances via the expansion (r.r) - 2 (r @ e.T) + (e.e), as one
    # GEMM against -2 * entries and two in-place adds: scaling by -2 is
    # exact, so this equals the expansion bit for bit. argmin takes the
    # first minimum, which implements lowest-index tie breaking
    d = r @ (-2.0 * entries).T
    d += (r * r).sum(axis=1, keepdims=True)
    d += (entries * entries).sum(axis=1)
    return np.argmin(d, axis=1)


def encode_detailed(coder: RvqCoder, z: np.ndarray):
    """Full encode pass.

    Returns (codes, quantized, residuals, selected) where residuals[c] is the
    stage-c input residual and selected[c] the chosen entries, both
    (C, frames, D).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != coder.dim:
        raise ValueError(f"latents must be frames x {coder.dim}, got {z.shape}")
    c_total = coder.n_quantizers
    # one more row than there are stages: the last holds the final residual
    residuals = np.empty((c_total + 1, z.shape[0], z.shape[1]))
    residuals[0] = z
    selected = np.empty_like(residuals[1:])
    idx = np.empty((c_total, z.shape[0]), dtype=np.int64)
    for c, cb in enumerate(coder.codebooks):
        entries = cb.entries.astype(np.float64)
        idx[c] = _nearest(entries, residuals[c])
        np.take(entries, idx[c], axis=0, out=selected[c])
        np.subtract(residuals[c], selected[c], out=residuals[c + 1])
    codes = CodecCodes(idx, coder.codebook_size, coder.dim)
    return codes, z - residuals[-1], residuals[:-1], selected


def encode(coder: RvqCoder, z: np.ndarray) -> CodecCodes:
    return encode_detailed(coder, z)[0]


def decode(coder: RvqCoder, codes: CodecCodes, n_quantizers: int | None = None) -> np.ndarray:
    """Sum the selected entries; n_quantizers truncates the cascade."""
    c_use = codes.n_quantizers if n_quantizers is None else n_quantizers
    if not (1 <= c_use <= codes.n_quantizers):
        raise ValueError(f"n_quantizers must lie in [1, {codes.n_quantizers}]")
    if codes.n_quantizers > coder.n_quantizers:
        raise ValueError("codes carry more quantizer stages than the coder")
    if codes.codebook_size != coder.codebook_size or codes.dim != coder.dim:
        raise ValueError("codes are inconsistent with this coder (K or D differs)")
    out = np.zeros((codes.frames, coder.dim))
    for c in range(c_use):
        out += coder.codebooks[c].entries[codes.indices[c]]
    return out


def quantize(coder: RvqCoder, z: np.ndarray) -> np.ndarray:
    """encode then decode in one step: nearest cascade reconstruction."""
    codes, zq, _, _ = encode_detailed(coder, z)
    return zq


def stage_reconstructions(selected: np.ndarray) -> np.ndarray:
    """(C, frames, D): the running reconstruction after each stage.

    A stage-by-stage add of the selected entries. It gives the bits of
    np.cumsum(selected, axis=0), whose strided accumulate along the stage
    axis is several times slower on codec-batch shapes.
    """
    out = np.empty_like(selected)
    out[0] = selected[0]
    for c in range(1, selected.shape[0]):
        np.add(out[c - 1], selected[c], out=out[c])
    return out


def commitment_loss(z, quantized):
    """Sum over stages of the mean-per-frame squared quantization error.

    quantized is (C, frames, D): each stage's selected entries, or the
    running reconstruction after each stage. z is either the matching
    (C, frames, D) stage inputs or one (frames, D) latent, broadcast over
    the stages. Arrays give a numpy scalar; a Tensor z gives a graph in
    which quantized is a constant of z's dtype.
    """
    z_shape = _values_of(z).shape
    q_shape = np.shape(quantized)
    if z_shape not in (q_shape, q_shape[1:]):
        raise ValueError(f"shape mismatch {z_shape} vs {q_shape}")
    diff = z - quantized
    return (diff * diff).sum(axis=-1).mean(axis=-1).sum()


def _kmeans(samples: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations to stability."""
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(0, n)]
    d2 = ((samples - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = samples[rng.integers(0, n)]
        else:
            centers[j] = samples[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((samples - centers[j]) ** 2).sum(axis=1))
    assign = _nearest(centers, samples)
    for _ in range(50):
        for j in range(k):
            mask = assign == j
            if mask.any():
                centers[j] = samples[mask].mean(axis=0)
        new_assign = _nearest(centers, samples)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def init_codebooks(coder: RvqCoder, samples: np.ndarray, seed: int) -> RvqCoder:
    """Stage-wise k-means++ on the residual stream; deterministic per seed."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != coder.dim:
        raise ValueError(f"samples must be frames x {coder.dim}")
    k = coder.codebook_size
    if samples.shape[0] < k:
        raise ValueError(f"need at least {k} sample frames, got {samples.shape[0]}")
    rng = np.random.default_rng(seed)
    r = samples.copy()
    books = []
    for _ in range(coder.n_quantizers):
        centers = _kmeans(r, k, rng)
        cb = Codebook(centers.astype(np.float32))
        books.append(cb)
        if coder.pin_zero:
            cb.entries[0] = 0.0
            cb.ema_sums[0] = 0.0
        r = r - cb.entries[_nearest(cb.entries.astype(np.float64), r)]
    return RvqCoder(books, pin_zero=coder.pin_zero)


def ema_update(
    coder: RvqCoder,
    residuals: np.ndarray,
    ids: np.ndarray,
    decay: float = EMA_DECAY,
    rng=None,
) -> RvqCoder:
    """One EMA codebook update from an encoded batch (in place).

    residuals (C, frames, D) and ids (C, frames) are the stage inputs and the
    chosen entries from `encode_detailed` on the current, pre-update
    codebooks. Per stage: counts and sums decay toward the batch assignment
    statistics and entries become sums / max(counts, eps). Entries that
    received no assignment in this batch and whose EMA count sits under
    DEAD_CODE_THRESHOLD are reseeded from random frames of the stage's residual
    when an rng is supplied. An id outside its stage's codebook raises a
    ValueError that names the stage.
    """
    if not (0.0 <= decay < 1.0):
        raise ValueError("decay must lie in [0, 1)")
    residuals = np.asarray(residuals, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if residuals.ndim != 3 or residuals.shape[::2] != (coder.n_quantizers, coder.dim):
        raise ValueError(f"residuals must be {coder.n_quantizers} x frames x {coder.dim}")
    if ids.shape != residuals.shape[:2]:
        raise ValueError(f"ids must be {residuals.shape[:2]}, got {ids.shape}")
    k = coder.codebook_size
    bad = (ids < 0) | (ids >= k)
    if bad.any():
        c, f = np.argwhere(bad)[0]
        raise ValueError(f"stage {c}: id {ids[c, f]} at frame {f} is outside [0, {k})")
    # every (stage, entry) count and every (stage, entry, dim) sum in one
    # bincount each over stage-offset ids; a bincount adds each bin's frames
    # in frame order, as np.add.at would
    c_total, dim = coder.n_quantizers, coder.dim
    flat = (ids + np.arange(c_total)[:, None] * k).ravel()
    counts = np.bincount(flat, minlength=c_total * k).astype(np.float64).reshape(c_total, k)
    sums = np.bincount((flat[:, None] * dim + np.arange(dim)).ravel(), weights=residuals.ravel(),
                       minlength=c_total * k * dim).reshape(c_total, k, dim)
    books = coder.codebooks
    ema_counts = (decay * np.stack([cb.ema_counts for cb in books])
                  + (1.0 - decay) * counts).astype(np.float32)
    ema_sums = (decay * np.stack([cb.ema_sums for cb in books])
                + (1.0 - decay) * sums).astype(np.float32)
    entries = ema_sums / np.maximum(ema_counts, COUNT_EPS)[..., None]
    if rng is not None:
        dead = (counts == 0) & (ema_counts < DEAD_CODE_THRESHOLD)
        if coder.pin_zero:
            dead[:, 0] = False
        # stage by stage, so the rng draws come in stage order
        for c in np.flatnonzero(dead.any(axis=1)):
            picks = rng.integers(0, residuals.shape[1], size=int(dead[c].sum()))
            entries[c, dead[c]] = residuals[c, picks]
            ema_counts[c, dead[c]] = 1.0
            ema_sums[c, dead[c]] = entries[c, dead[c]]
    if coder.pin_zero:
        entries[:, 0] = 0.0
        ema_sums[:, 0] = 0.0
    for cb, cb_entries, cb_counts, cb_sums in zip(books, entries, ema_counts, ema_sums):
        cb.entries, cb.ema_counts, cb.ema_sums = cb_entries, cb_counts, cb_sums
    return coder


# -- file formats -------------------------------------------------------------


def write_bitstream(path, codes: CodecCodes, sample_rate: int, hop_size: int) -> None:
    """HSC1 container: u16 C, u16 K, u16 D, u32 frames, u32 sr, u32 hop,
    then frame-major u16 indices, all little-endian."""
    if codes.codebook_size > 0xFFFF:
        raise ValueError("codebook size exceeds the u16 index format")
    header = BITSTREAM_MAGIC + struct.pack(
        "<HHHIII",
        codes.n_quantizers,
        codes.codebook_size,
        codes.dim,
        codes.frames,
        sample_rate,
        hop_size,
    )
    body = codes.indices.T.astype("<u2").tobytes()  # frame-major
    write_files((path, [header, body]))


def read_bitstream(path):
    """Returns (CodecCodes, sample_rate, hop_size)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != BITSTREAM_MAGIC:
        raise ValueError(f"{path}: not a codec bitstream (bad magic)")
    if len(blob) < 22:
        raise ValueError(f"{path}: truncated header ({len(blob)} of 22 bytes)")
    c, k, d, frames, sr, hop = struct.unpack("<HHHIII", blob[4:22])
    expect = frames * c * 2
    body = blob[22:]
    if len(body) != expect:
        raise ValueError(f"{path}: truncated bitstream ({len(body)} of {expect} payload bytes)")
    idx = np.frombuffer(body, dtype="<u2").reshape(frames, c).T.astype(np.int64)
    return CodecCodes(idx, k, d), sr, hop
