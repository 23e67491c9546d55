"""Correctness checks on the outputs of the benchmark's workloads.

Each check returns None when the output is right and a one-line reason when
it is wrong. A check either recomputes a value apart from the program (CTC
by path enumeration, the reverse sampler by its own Euler-Maruyama loop,
latent statistics, RVQ reconstruction from the codes) or tests a property
the method must have (losses fall, codebook entry 0 stays at zero, one
seed gives the same bytes).
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os

import numpy as np


def falls_by_half(values, head: int, tail: int, what: str):
    """Mean of the last `tail` values is at most half the mean of the first `head`."""
    values = np.asarray(values, dtype=np.float64)
    first, last = values[:head].mean(), values[-tail:].mean()
    if not last <= 0.5 * first:
        return f"{what} fell from {first:.4f} (first {head}) only to {last:.4f} (last {tail}); need at most half"
    return None


def losses_finite(log: dict, nonnegative=()):
    for name, column in log.items():
        if not np.all(np.isfinite(column)):
            return f"loss column '{name}' has non-finite values"
    for name in nonnegative:
        if np.any(log[name] < 0):
            return f"loss column '{name}' goes negative (min {log[name].min():.4g})"
    return None


def codebooks_pin_zero(coder):
    for c, book in enumerate(coder.codebooks):
        if np.any(book.entries[0] != 0):
            return f"codebook {c} entry 0 is {book.entries[0].tolist()}, not zero"
    return None


def distortion_non_increasing(coder, z, codes):
    """Reconstruct from the codes stage by stage; the error must never grow."""
    z = np.asarray(z, dtype=np.float64)
    recon = np.zeros_like(z)
    previous = math.inf
    for c, book in enumerate(coder.codebooks):
        recon = recon + book.entries[codes.indices[c]].astype(np.float64)
        err = float(((z - recon) ** 2).mean())
        if err > previous + 1e-12:
            return f"RVQ distortion rises at stage {c + 1}: {previous:.6g} -> {err:.6g}"
        previous = err
    return None


def codes_equal(written, read, written_clock, read_clock):
    if not np.array_equal(written.indices, read.indices):
        return "bitstream read back other code indices than were written"
    if (written.codebook_size, written.dim) != (read.codebook_size, read.dim):
        return "bitstream read back another codebook geometry"
    if tuple(written_clock) != tuple(read_clock):
        return f"bitstream read back sample rate/hop {read_clock}, wrote {written_clock}"
    return None


def enumerated_ctc(log_probs: np.ndarray, labels: tuple) -> float:
    """-log of the summed probability of every path that collapses to labels."""
    t_len, symbols = log_probs.shape
    total = -math.inf
    for path in itertools.product(range(symbols), repeat=t_len):
        collapsed, prev = [], None
        for s in path:
            if s != prev and s != 0:
                collapsed.append(s)
            prev = s
        if tuple(collapsed) == labels:
            total = np.logaddexp(total, sum(log_probs[i, s] for i, s in enumerate(path)))
    return -total


def ctc_matches_enumeration(ctc, rng, instances: int = 20, tol: float = 1e-9):
    """ctc(log_probs, labels, alphabet) against enumeration on small random cases.

    A target no alignment can reach must be refused with ValueError.
    """
    for _ in range(instances):
        t_len = int(rng.integers(2, 6))
        alphabet = int(rng.integers(1, 4))
        logits = rng.standard_normal((t_len, alphabet + 1))
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        labels = tuple(int(x) for x in rng.integers(1, alphabet + 1, size=int(rng.integers(1, 3))))
        expect = enumerated_ctc(log_probs, labels)
        try:
            got = ctc(log_probs, labels, alphabet)
        except ValueError:
            if math.isinf(expect):
                continue
            return f"CTC refused feasible labels {labels} over {t_len} frames"
        if math.isinf(expect) or abs(got - expect) > tol:
            return f"CTC gives {got!r}, enumeration {expect!r} for labels {labels} over {t_len} frames"
    return None


def contrastive_on_supervised_steps(log: dict):
    """Steps with supervised windows (grad_norm_sup > 0) carry both contrastive terms."""
    supervised = log["grad_norm_sup"] > 0
    if not supervised.any():
        return "no step had a supervised window"
    for name in ("cont_lyrics", "cont_melody"):
        column = log[name][supervised]
        if not np.all(np.isfinite(column)) or np.any(column == 0):
            return f"'{name}' is zero or non-finite on a step with supervised windows"
    return None


def unsupervised_grad_positive(log: dict):
    if not np.all(log["grad_norm_unsup"] > 0):
        return f"grad_norm_unsup is 0 on {int((log['grad_norm_unsup'] <= 0).sum())} steps"
    return None


def latent_stats_match(mean, std, latents, rtol: float = 1e-5):
    """Checkpoint stats against the per-dimension mean and std of all frames."""
    z = np.concatenate([np.asarray(x, dtype=np.float64) for x in latents])
    for name, stored, ours in (("mean", mean, z.mean(axis=0)), ("std", std, z.std(axis=0))):
        stored = np.asarray(stored, dtype=np.float64).reshape(-1)
        if stored.shape != ours.shape or not np.allclose(stored, ours, rtol=rtol, atol=1e-6):
            return f"checkpoint latent {name} differs from the latents' own {name}"
    return None


def euler_maruyama(score_fn, mu, h_cond, beta0, beta_t, steps, tau, seed, horizon=1.0):
    """The reverse sampler as its contract states it, written out again.

    One generator seeded with `seed` gives the initial draw N(mu, I/tau),
    then one standard normal draw per step except the last; for
    t = T, T - h, ..., h: z += h b(t) (0.5 (z - mu) + score) + sqrt(h b(t)) xi.
    """
    mu = np.asarray(mu, dtype=np.float64)
    rng = np.random.default_rng(seed)
    z = mu + rng.standard_normal(mu.shape) / math.sqrt(tau)
    h = horizon / steps
    for i in range(steps):
        t = horizon - i * h
        beta = beta0 + (beta_t - beta0) * t / horizon
        score = np.asarray(score_fn(z, mu, h_cond, t), dtype=np.float64)
        z = z + h * beta * (0.5 * (z - mu) + score)
        if i < steps - 1:
            z = z + math.sqrt(h * beta) * rng.standard_normal(mu.shape)
    return z


def arrays_close(reference, output, tol: float, what: str):
    reference, output = np.asarray(reference), np.asarray(output)
    if reference.shape != output.shape:
        return f"{what}: shape {output.shape}, expected {reference.shape}"
    err = float(np.max(np.abs(reference - output)))
    if not err <= tol:
        return f"{what}: max abs difference {err:.3g} over tolerance {tol:g}"
    return None


def gaussian_recovery(sample_fn, beta0: float, beta_t: float, seed: int = 9):
    """sample_fn(score_fn, mu, steps, tau, seed) with the exact score of N(m, s^2 I) data.

    The samples must come back with mean m and standard deviation s.
    """
    sigma = 0.5
    mu_row = np.array([1.0, -0.5, 0.3, 2.0])
    mu = np.repeat(mu_row[None, :], 10_000, 0)
    slope = beta_t - beta0

    def score_fn(z, m, h_cond, t):
        integral = beta0 * t + 0.5 * slope * t * t
        var = math.exp(-integral) * sigma**2 + 1.0 - math.exp(-integral)
        return -(z - m) / var

    out = sample_fn(score_fn, mu, 200, 1.0, seed)
    mean_err = float(np.max(np.abs(out.mean(0) - mu_row)))
    std_err = float(np.max(np.abs(out.std(0) - sigma) / sigma))
    if not (mean_err < 0.02 and std_err < 0.05):
        return f"Gaussian data not recovered: mean err {mean_err:.4f} (<0.02), std rel err {std_err:.4f} (<0.05)"
    return None


def self_evaluation(report):
    if report.mae != 0.0 or report.vuv_f1 != 1.0:
        return f"a song against itself gives mae {report.mae!r} and V/UV F1 {report.vuv_f1!r}"
    return None


def digests(paths, root) -> dict:
    """sha256 of each file, keyed by its path relative to root."""
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def all_identical(digest_maps: list, what: str):
    for i, other in enumerate(digest_maps[1:], 1):
        if other != digest_maps[0]:
            differ = sorted(k for k in set(other) | set(digest_maps[0])
                            if other.get(k) != digest_maps[0].get(k))
            return f"{what} {i} differs from {what} 0 in {differ[:3]}"
    return None
