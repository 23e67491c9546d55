"""Composite training losses.

Reconstruction L1, LSGAN pair, feature matching, CTC, frame-wise
contrastive InfoNCE over paired representation streams, and the two
weighted totals. Functions accept numpy arrays or autodiff Tensors
wherever a gradient path makes sense.

CTC runs one log-space alpha/beta lattice over a batch of windows: the
extended labels are padded to a common length, padding and illegal skips
are masked with an additive -inf, and alpha and beta advance in the same
frame loop. `ctc_loss_graph` takes a whole (B, W, C) head and scatters
the state posterior straight back into it; `ctc_loss` is the one-window
case on a numpy array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, custom
from .config import LossConfig


@dataclass(frozen=True)
class CtcTarget:
    labels: tuple
    alphabet: int  # labels live in [1, alphabet]; 0 is the blank

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        for lab in self.labels:
            if not (1 <= lab <= self.alphabet):
                raise ValueError(f"label {lab} outside [1, {self.alphabet}]")


def recon_l1(x, x_hat):
    """Mean absolute difference over all entries."""
    _check_shapes(x, x_hat)
    diff = x - x_hat
    return diff.abs().mean() if isinstance(diff, Tensor) else np.abs(diff).mean()


def lsgan_d(real_scores, fake_scores):
    """Least-squares discriminator loss: mean[(real-1)^2] + mean[fake^2]."""
    r = real_scores - 1.0
    return (r * r).mean() + (fake_scores * fake_scores).mean()


def lsgan_g(fake_scores):
    """Least-squares generator loss: mean[(fake-1)^2]."""
    f = fake_scores - 1.0
    return (f * f).mean()


def feature_matching(real_feats, fake_feats):
    """Sum over layers of the per-layer mean absolute feature difference."""
    if len(real_feats) != len(fake_feats):
        raise ValueError(f"layer count mismatch: {len(real_feats)} vs {len(fake_feats)}")
    total = None
    for rf, ff in zip(real_feats, fake_feats):
        _check_shapes(rf, ff)
        diff = rf - ff
        term = diff.abs().mean() if isinstance(diff, Tensor) else np.abs(diff).mean()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("feature lists are empty")
    return total


# -- CTC ----------------------------------------------------------------------


def _extend_labels(labels):
    ext = [0]
    for lab in labels:
        ext.extend((lab, 0))
    return np.asarray(ext, dtype=np.int64)


def _min_frames(ext) -> int:
    # one frame per label plus one per repeated-label boundary
    labels = ext[1::2]
    repeats = int(np.sum(labels[1:] == labels[:-1])) if labels.size > 1 else 0
    return int(labels.size + repeats)


def _pad_targets(targets, n_frames: int):
    """Extended labels padded with blanks to a common S, and the true lengths."""
    exts = [_extend_labels(t.labels) for t in targets]
    for i, ext in enumerate(exts):
        if n_frames < _min_frames(ext):
            raise ValueError(
                f"window {i}: target needs at least {_min_frames(ext)} frames, got {n_frames}"
            )
    lengths = np.array([ext.size for ext in exts], dtype=np.int64)
    padded = np.zeros((len(exts), int(lengths.max())), dtype=np.int64)
    for i, ext in enumerate(exts):
        padded[i, : ext.size] = ext
    return padded, lengths


def _ctc_lattice(logp: np.ndarray, ext: np.ndarray, lengths: np.ndarray):
    """Log-space forward/backward lattices of N windows at once.

    logp is (N, T, C); ext (N, S) holds blank-padded extended labels whose
    first lengths[n] states are real. Padding states and illegal skips are
    masked with an additive -inf, so they add exactly nothing to any
    logaddexp. Returns alpha and beta as (N, T, S), -inf on padding, and
    log Z as (N,).
    """
    n, t_len, _ = logp.shape
    s_len = ext.shape[1]
    neg = -np.inf
    real = np.arange(s_len) < lengths[:, None]
    emit = np.where(real[:, None, :], np.take_along_axis(logp, ext[:, None, :], axis=2), neg)
    skip = np.zeros((n, s_len), dtype=bool)
    skip[:, 2:] = real[:, 2:] & (ext[:, 2:] != 0) & (ext[:, 2:] != ext[:, :-2])

    # Columns [0, n) advance alpha; columns [n, 2n) advance beta with the
    # states reversed, so both recursions pull from lower states and one
    # update per frame moves both (S is odd, so a reversed label is still
    # at an odd state). Rows are an -inf guard standing for state -1, then
    # the L labels, then the L + 1 blanks, which keeps every operand below
    # a contiguous block. x[k] holds alpha_k and beta_{T-1-k}, each plus
    # its emission; m[k] holds the values before emission, so m[k, :, n:]
    # is beta_{T-1-k} itself.
    n_lab = s_len // 2
    row = np.empty(s_len, dtype=np.int64)
    row[np.r_[1:s_len:2, 0:s_len:2]] = np.arange(1, s_len + 1)
    emit_all = np.full((t_len, 1 + s_len, 2 * n), neg)
    emit_all[:, row, :n] = emit.transpose(1, 2, 0)
    emit_all[:, row, n:] = emit[:, ::-1, ::-1].transpose(1, 2, 0)
    # reversed state r pulls from r - 2 iff the forward skip into S + 1 - r is legal
    skip_to = np.zeros((2 * n, s_len), dtype=bool)
    skip_to[:n] = skip
    skip_to[n:, 2:] = skip[:, :1:-1]
    skip_add = np.where(skip_to[:, 1::2].T, 0.0, neg)  # (L, 2n), by label
    x = np.empty_like(emit_all)
    m = np.full_like(emit_all, neg)
    m[0, row[:2], :n] = 0.0  # alpha starts in the leading blank or the first label
    windows = np.arange(n)
    two = lengths > 1
    # beta ends in the trailing blank (reversed state S - L) or the last label
    m[0, row[s_len - lengths], n + windows] = 0.0
    m[0, row[s_len + 1 - lengths[two]], n + windows[two]] = 0.0
    np.add(m[0], emit_all[0], out=x[0])
    # per frame: a blank pulls from the label before it, a label from the
    # blank before it and then, by skip, from the label before that
    skip_src = np.empty_like(skip_add)
    for blank, lab_prev, lab, blank_prev, lab_skip, m_blank, m_lab, m_k, emit_k, x_k in zip(
        x[:-1, 1 + n_lab :], x[:-1, : 1 + n_lab], x[:-1, 1 : 1 + n_lab], x[:-1, 1 + n_lab : -1],
        x[:-1, :n_lab], m[1:, 1 + n_lab :], m[1:, 1 : 1 + n_lab], m[1:], emit_all[1:], x[1:],
    ):
        np.logaddexp(blank, lab_prev, out=m_blank)
        np.logaddexp(lab, blank_prev, out=m_lab)
        np.add(lab_skip, skip_add, out=skip_src)
        np.logaddexp(m_lab, skip_src, out=m_lab)
        np.add(m_k, emit_k, out=x_k)

    alpha = x[:, row, :n].transpose(2, 0, 1)
    beta = m[::-1, row[::-1], n:].transpose(2, 0, 1)
    last = alpha[windows, -1, lengths - 1]
    before = np.where(two, alpha[windows, -1, np.maximum(lengths - 2, 0)], neg)
    return alpha, beta, np.logaddexp(last, before)


def _check_log_probs(shape, targets) -> None:
    alphabets = {t.alphabet for t in targets}
    if len(alphabets) != 1 or shape[-1] != alphabets.pop() + 1:
        raise ValueError(
            f"log_probs must end in one axis of alphabet + 1 symbols shared by every "
            f"target; got {shape} for alphabets {sorted(t.alphabet for t in targets)}"
        )


def ctc_loss(log_probs: np.ndarray, target: CtcTarget) -> float:
    """Negative log marginal over all monotonic blank alignments of one window."""
    logp = np.asarray(log_probs, dtype=np.float64)
    if logp.ndim != 2:
        raise ValueError(f"log_probs must be frames x {target.alphabet + 1}, got {logp.shape}")
    _check_log_probs(logp.shape, [target])
    ext, lengths = _pad_targets([target], logp.shape[0])
    _, _, log_z = _ctc_lattice(logp[None], ext, lengths)
    return -float(log_z[0])


def ctc_loss_graph(log_probs: Tensor, targets) -> Tensor:
    """Differentiable CTC summed over a batch of windows.

    log_probs is a (B, W, C) log-softmax Tensor and targets holds one
    CtcTarget per window. One lattice runs over every window; the gradient
    is minus the state posterior, scattered straight into (B, W, C).
    """
    logp = log_probs.data.astype(np.float64)
    targets = list(targets)
    if logp.ndim != 3 or logp.shape[0] != len(targets):
        raise ValueError(
            f"log_probs must be windows x frames x symbols with one target per window; "
            f"got {logp.shape} for {len(targets)} targets"
        )
    _check_log_probs(logp.shape, targets)
    ext, lengths = _pad_targets(targets, logp.shape[1])
    alpha, beta, log_z = _ctc_lattice(logp, ext, lengths)
    # in window order, as a chain of per-window terms would add up
    nll = (-log_z).astype(log_probs.data.dtype)
    total = nll[0]
    for term in nll[1:]:
        total = total + term

    def grad_fn(g):
        with np.errstate(invalid="ignore"):
            posterior = np.exp(alpha + beta - log_z[:, None, None])  # (B, W, S)
        # states by frames, so each state's posterior is one contiguous row
        posterior = np.ascontiguousarray(posterior.transpose(0, 2, 1))
        acc = np.zeros((logp.shape[0], logp.shape[2], logp.shape[1]))  # (B, C, W)
        windows = np.arange(len(targets))
        # one state at a time, so repeated symbols accumulate in state order
        for s in range(ext.shape[1]):
            acc[windows, ext[:, s]] += posterior[:, s]
        grad = np.empty(logp.shape, dtype=log_probs.data.dtype)
        np.multiply(acc.transpose(0, 2, 1), -float(g), out=grad, casting="same_kind")
        return (grad,)

    return custom(np.asarray(total), (log_probs,), grad_fn, "ctc")


# -- contrastive ---------------------------------------------------------------


def contrastive_loss(h, h_tilde, tau_cont: float = 0.5, n_negatives: int = 10, rng=None):
    """Symmetric frame-wise InfoNCE over two paired representation streams.

    For each frame t and each direction, -log of exp(cos(anchor_t,
    positive_t)/tau) over the sum of exp(cos(anchor_t, neg_k)/tau) with
    n_negatives random unmatched frames drawn from the anchor's own stream;
    terms are summed over frames and the two directions added. The value can
    be negative. Invariant to positive per-row rescaling and to swapping the
    streams.
    """
    if tau_cont <= 0:
        raise ValueError("tau_cont must be positive")
    ha, hb = _values_of(h), _values_of(h_tilde)
    if ha.shape != hb.shape:
        raise ValueError(f"paired streams differ in shape: {ha.shape} vs {hb.shape}")
    n = ha.shape[0]
    if n < 2:
        raise ValueError("contrastive loss needs at least 2 frames")
    if np.any(np.linalg.norm(ha, axis=1) < 1e-12) or np.any(np.linalg.norm(hb, axis=1) < 1e-12):
        raise ValueError("zero rows make cosine similarity undefined")
    rng = np.random.default_rng(0) if rng is None else rng
    # unmatched frame indices per anchor, shared by both directions
    neg_idx = np.empty((n, n_negatives), dtype=np.int64)
    for t in range(n):
        pool = rng.integers(0, n - 1, size=n_negatives)
        pool = pool + (pool >= t)  # skip the anchor's own frame
        neg_idx[t] = pool

    def direction(anchor, positive):
        pos = _row_cos(anchor, positive) * (1.0 / tau_cont)
        flat = neg_idx.reshape(-1)
        anchor_rep = anchor[np.repeat(np.arange(n), n_negatives)]
        negs = _row_cos(anchor_rep, anchor[flat]) * (1.0 / tau_cont)
        neg_exp = negs.exp() if isinstance(negs, Tensor) else np.exp(negs)
        denom = neg_exp.reshape(n, n_negatives).sum(axis=1)
        log_denom = denom.log() if isinstance(denom, Tensor) else np.log(denom)
        return (log_denom - pos).sum()

    return direction(h, h_tilde) + direction(h_tilde, h)


def _row_cos(a, b):
    dot = (a * b).sum(axis=-1)
    na = (a * a).sum(axis=-1) ** 0.5
    nb = (b * b).sum(axis=-1) ** 0.5
    return dot / (na * nb)


# -- totals --------------------------------------------------------------------


def generator_total(parts: dict, weights: LossConfig):
    """Weighted audio-autoencoder objective.

    parts maps {adv, recon, emb, fm, lyrics, note} to loss values; missing
    parts count as zero.
    """
    total = parts.get("adv", 0.0)
    for name in ("recon", "emb", "fm", "lyrics", "note"):
        if name in parts:
            total = total + getattr(weights, name) * parts[name]
    return total


def latent_generator_total(l_diff, l_prior, lambda_prior: float, contrastive_terms=()):
    """Latent-generator objective: diff + lambda_prior * prior + contrastive."""
    total = l_diff + lambda_prior * l_prior
    for term in contrastive_terms:
        total = total + term
    return total


def _values_of(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _check_shapes(a, b):
    va, vb = _values_of(a), _values_of(b)
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch: {va.shape} vs {vb.shape}")
