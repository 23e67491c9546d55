"""Composite training losses.

Reconstruction L1, LSGAN pair, feature matching, CTC, frame-wise
contrastive InfoNCE over paired representation streams, and the two
weighted totals. Functions accept numpy arrays or autodiff Tensors
wherever a gradient path makes sense.

The contrastive loss is one op over a batch of windows: every cosine it
needs comes from one n x n similarity matrix per stream and window, and
its backward is written by hand.

CTC runs one log-space alpha/beta lattice over a batch of windows: the
extended labels are padded to a common length, padding states emit an
additive -inf, and alpha and beta advance in one frame loop of three numpy
calls per frame. `ctc_loss_graph` takes several whole (B, W, C) heads,
each with its own alphabet, runs one lattice over all their windows and
scatters each head's state posterior straight back into it with one
bincount; `ctc_loss` is the one-window case on a numpy array.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, custom
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
    return abs(x - x_hat).mean()


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
        term = abs(rf - ff).mean()
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


def _emissions(logp: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """(N, T, S): each window's log-probability of its extended-label states, per frame."""
    return np.take_along_axis(logp, ext[:, None, :], axis=2)


def _ctc_lattice(emit: np.ndarray, ext: np.ndarray, lengths: np.ndarray):
    """Log-space forward/backward lattices of N windows at once.

    emit is (N, T, S), the `_emissions` of ext (N, S), which holds
    blank-padded extended labels whose first lengths[n] states are real.
    The windows may come from heads with different alphabets. Padding
    states emit an additive -inf, so they add exactly nothing to any
    logaddexp; a `where` mask skips the logaddexp of every illegal skip,
    which leaves the value a logaddexp with -inf would give. Returns alpha
    and beta as (N, T, S), -inf on padding, and log Z as (N,).
    """
    n, t_len, s_len = emit.shape
    neg = -np.inf
    real = np.arange(s_len) < lengths[:, None]
    emit = np.where(real[:, None, :], emit, neg)
    skip = np.zeros((n, s_len), dtype=bool)
    skip[:, 2:] = real[:, 2:] & (ext[:, 2:] != 0) & (ext[:, 2:] != ext[:, :-2])

    # Columns [0, n) advance alpha; columns [n, 2n) advance beta with the
    # states reversed, so both recursions pull from lower states and one
    # update per frame moves both. Row 0 is an -inf guard standing for
    # state -1, then rows 1..S hold the states in order. x[k] holds alpha_k
    # and beta_{T-1-k}, each plus its emission; m[k] holds the values
    # before emission, so m[k, :, n:] is beta_{T-1-k} itself.
    emit_all = np.full((t_len, 1 + s_len, 2 * n), neg)
    emit_all[:, 1:, :n] = emit.transpose(1, 2, 0)
    emit_all[:, 1:, n:] = emit[:, ::-1, ::-1].transpose(1, 2, 0)
    # reversed state r pulls from r - 2 iff the forward skip into S + 1 - r is legal
    skip_to = np.zeros((2 * n, s_len), dtype=bool)
    skip_to[:n] = skip
    skip_to[n:, 2:] = skip[:, :1:-1]
    legal_skip = np.ascontiguousarray(skip_to[:, 2:].T)  # (S - 2, 2n), states 2..S-1
    x = np.empty_like(emit_all)
    m = np.full_like(emit_all, neg)
    m[0, 1:3, :n] = 0.0  # alpha starts in the leading blank or the first label
    windows = np.arange(n)
    two = lengths > 1
    # beta ends in the trailing blank (reversed state S - L) or the last label
    m[0, 1 + s_len - lengths, n + windows] = 0.0
    m[0, 2 + s_len - lengths[two], n + windows[two]] = 0.0
    np.add(m[0], emit_all[0], out=x[0])
    # per frame: every state pulls from itself and the state before it, then
    # a state with a legal skip from the one before that
    for x_self, x_prev, x_skip, m_pull, m_skip, m_k, emit_k, x_k in zip(
        x[:-1, 1:], x[:-1, :-1], x[:-1, 1:-2], m[1:, 1:], m[1:, 3:], m[1:], emit_all[1:], x[1:],
    ):
        np.logaddexp(x_self, x_prev, out=m_pull)
        np.logaddexp(m_skip, x_skip, out=m_skip, where=legal_skip)
        np.add(m_k, emit_k, out=x_k)

    alpha = x[:, 1:, :n].transpose(2, 0, 1)
    beta = m[::-1, :0:-1, n:].transpose(2, 0, 1)
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
    _, _, log_z = _ctc_lattice(_emissions(logp[None], ext), ext, lengths)
    return -float(log_z[0])


def ctc_loss_graph(heads) -> list[Tensor]:
    """Differentiable CTC of several heads over one batch of windows.

    heads holds (log_probs, targets) pairs: a (B, W, C) log-softmax Tensor,
    C set by the head's alphabet, and one CtcTarget per window. Every
    head's windows share one lattice: their extended labels are padded to
    one state count, which the lattice's -inf mask makes exact. Returns
    one Tensor per head, its loss summed over its windows; the gradient is
    minus the state posterior, scattered straight into (B, W, C).
    """
    heads = [(log_probs, list(targets)) for log_probs, targets in heads]
    for log_probs, targets in heads:
        shape = log_probs.data.shape
        if len(shape) != 3 or shape[0] != len(targets):
            raise ValueError(
                f"log_probs must be windows x frames x symbols with one target per window; "
                f"got {shape} for {len(targets)} targets"
            )
        _check_log_probs(shape, targets)
    frames = sorted({log_probs.data.shape[1] for log_probs, _ in heads})
    if len(frames) != 1:
        raise ValueError(f"every head must cover the same frames, got {frames}")
    padded = [_pad_targets(targets, frames[0]) for _, targets in heads]
    rows = np.cumsum([0] + [len(targets) for _, targets in heads])
    ext = np.zeros((rows[-1], max(head_ext.shape[1] for head_ext, _ in padded)), dtype=np.int64)
    for (head_ext, _), a in zip(padded, rows):
        ext[a : a + len(head_ext), : head_ext.shape[1]] = head_ext
    emit = np.concatenate([_emissions(log_probs.data, ext[a:b]).astype(np.float64)
                           for (log_probs, _), a, b in zip(heads, rows, rows[1:])])
    alpha, beta, log_z = _ctc_lattice(emit, ext, np.concatenate([n for _, n in padded]))
    out = []
    for (log_probs, _), (head_ext, _), a, b in zip(heads, padded, rows, rows[1:]):
        s_len = head_ext.shape[1]  # the head's own states; the rest is padding
        out.append(_ctc_head(log_probs, head_ext, alpha[a:b, :, :s_len], beta[a:b, :, :s_len],
                             log_z[a:b]))
    return out


def _ctc_head(log_probs: Tensor, ext, alpha, beta, log_z) -> Tensor:
    """One head's summed CTC from its windows' rows of the shared lattice."""
    # in window order, as a chain of per-window terms would add up
    nll = (-log_z).astype(log_probs.data.dtype)
    total = nll[0]
    for term in nll[1:]:
        total = total + term
    shape = log_probs.data.shape

    def grad_fn(g):
        with np.errstate(invalid="ignore"):
            posterior = np.exp(alpha + beta - log_z[:, None, None])  # (B, W, S)
        # one scatter into (B, W, C); each symbol's bin adds its states'
        # posteriors in state order, as a per-state loop would
        bins = (np.arange(shape[0] * shape[1]).reshape(shape[:2] + (1,)) * shape[2]
                + ext[:, None, :])
        acc = np.bincount(bins.ravel(), weights=posterior.ravel(), minlength=log_probs.data.size)
        grad = np.empty(shape, dtype=log_probs.data.dtype)
        np.multiply(acc.reshape(shape), -float(g), out=grad, casting="same_kind")
        return (grad,)

    return custom(np.asarray(total), (log_probs,), grad_fn, "ctc")


# -- contrastive ---------------------------------------------------------------


def draw_negatives(n: int, n_negatives: int, rng) -> np.ndarray:
    """(n, n_negatives) frame indices of one window, none equal to its row.

    One draw of n x n_negatives integers. It gives the same indices, and
    leaves rng in the same state, as n draws of n_negatives each.
    """
    idx = rng.integers(0, n - 1, size=(n, n_negatives))
    return idx + (idx >= np.arange(n)[:, None])  # skip the anchor's own frame


def contrastive_loss(h, h_tilde, negatives, tau_cont: float = 0.5):
    """Symmetric frame-wise InfoNCE over a batch of paired windows.

    h and h_tilde are (B, n, D) batches of windows, as arrays or Tensors;
    one window is a batch of one. negatives holds K frame indices per
    frame, (B, n, K), one draw_negatives result per window. For each frame
    t and each direction, -log of exp(cos(anchor_t, positive_t)/tau) over
    the sum of exp(cos(anchor_t, neg_k)/tau) over the anchor's negatives,
    taken from its own stream; terms are summed over frames, windows and
    the two directions. The value can be negative. Invariant to positive
    per-row rescaling and to swapping the streams.

    Every cosine comes from one (B, n, n) similarity matrix per stream;
    the backward scatters each stream's softmax weights into a dense
    (B, n, n) matrix with one bincount. The arithmetic runs in the
    streams' dtype, and so do the value and the gradients.
    """
    if tau_cont <= 0:
        raise ValueError("tau_cont must be positive")
    h, h_tilde = as_tensor(h), as_tensor(h_tilde)
    if h.shape != h_tilde.shape:
        raise ValueError(f"paired streams differ in shape: {h.shape} vs {h_tilde.shape}")
    if h.data.ndim != 3:
        raise ValueError(f"streams must be windows x frames x dim, got {h.shape}")
    a, b = h.data, h_tilde.data
    n_win, n = a.shape[:2]
    if n < 2:
        raise ValueError("contrastive loss needs at least 2 frames")
    unit_a, norm_a = _unit_rows(a)
    unit_b, norm_b = _unit_rows(b)
    neg = np.asarray(negatives, dtype=np.int64)
    if neg.ndim != 3 or neg.shape[:2] != (n_win, n) or neg.size == 0 or not (
        0 <= neg.min() and neg.max() < n
    ):
        raise ValueError(f"negatives must be {(n_win, n)} x K indices in [0, {n}), K >= 1")

    inv_tau = 1.0 / tau_cont
    pos = np.einsum("bnd,bnd->bn", unit_a, unit_b) * inv_tau
    # per direction: log-sum-exp over the anchor's negatives, and its softmax
    terms, weights = [], []
    for unit in (unit_a, unit_b):
        logits = np.take_along_axis(unit @ unit.transpose(0, 2, 1), neg, axis=2) * inv_tau
        top = logits.max(axis=2, keepdims=True)
        e = np.exp(logits - top)
        denom = e.sum(axis=2, keepdims=True)
        terms.append(np.log(denom[..., 0]) + top[..., 0])
        weights.append(e / denom)
    value = (terms[0] - pos).sum() + (terms[1] - pos).sum()

    def grad_fn(g):
        # dS[b, t, j] sums the softmax weight of every draw of j by anchor t
        flat = (np.arange(n_win * n) * n).reshape(n_win, n, 1) + neg
        grads = []
        for tensor, unit, norm, other, w in (
            (h, unit_a, norm_a, unit_b, weights[0]),
            (h_tilde, unit_b, norm_b, unit_a, weights[1]),
        ):
            if not tensor.requires_grad:
                grads.append(None)
                continue
            # bincount sums in float64; one cast brings it to the streams' dtype
            ds = np.bincount(flat.ravel(), weights=w.ravel(), minlength=n_win * n * n)
            ds = ds.astype(unit.dtype, copy=False).reshape(n_win, n, n)
            d_unit = ((ds + ds.transpose(0, 2, 1)) @ unit - 2.0 * other) * (float(g) * inv_tau)
            # through the row normalisation u = x / |x|
            d_x = (d_unit - unit * (unit * d_unit).sum(axis=2, keepdims=True)) / norm
            grads.append(d_x)
        return tuple(grads)

    return custom(np.asarray(value), (h, h_tilde), grad_fn, "contrastive")


def _unit_rows(x: np.ndarray):
    """Rows scaled to unit length, and the lengths, in x's dtype; a zero row,
    or one whose length overflows it, names its window."""
    with np.errstate(over="ignore"):  # an overflowing square is refused below
        norm = np.sqrt((x ** 2).sum(axis=2, keepdims=True))
    zero = np.flatnonzero((norm < 1e-12).any(axis=(1, 2)))
    if zero.size:
        raise ValueError(f"window {zero[0]}: zero rows make cosine similarity undefined")
    bad = np.flatnonzero((~np.isfinite(norm)).any(axis=(1, 2)))
    if bad.size:
        raise ValueError(f"window {bad[0]}: a row's length is not finite in {x.dtype}, "
                         f"so its cosine similarity is undefined")
    return x / norm, norm


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
