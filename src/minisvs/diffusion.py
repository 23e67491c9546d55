"""Latent diffusion with data-driven priors.

Linear noise schedule beta(t) = beta0 + (betaT - beta0) t/T, a mean-shifted
forward SDE dz = 1/2 (mu - z) beta dt + sqrt(beta) dW whose transition
density is Gaussian in closed form, the lambda-weighted score-matching
loss, the prior NLL and a fixed-step Euler-Maruyama reverse sampler with a
temperature on the initial draw.

The loss/NLL functions are written against generic arithmetic: pass numpy
arrays to get plain floats (oracle/sampling paths) or autodiff Tensors to
get a differentiable graph (training path).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericalError
from .losses import _check_shapes, _values_of

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

HORIZON = 1.0  # T: the diffusion time runs over [0, 1]


@dataclass(frozen=True)
class NoiseSchedule:
    beta0: float = 0.05
    beta_t: float = 20.0

    def __post_init__(self):
        if not (0.0 < self.beta0 < self.beta_t):
            raise ValueError("require 0 < beta0 < betaT")


def beta_at(sched: NoiseSchedule, t: float) -> float:
    if not (0.0 <= t <= HORIZON):
        raise ValueError(f"t={t} outside [0, {HORIZON}]")
    return sched.beta0 + (sched.beta_t - sched.beta0) * t


def integral_beta(sched: NoiseSchedule, t0, t1):
    """Closed form of the schedule integral over [t0, t1], elementwise over arrays."""
    if not np.all((0.0 <= t0) & (t0 <= t1) & (t1 <= HORIZON)):
        raise ValueError(f"bad integration range [{t0}, {t1}]")
    slope = sched.beta_t - sched.beta0
    return sched.beta0 * (t1 - t0) + 0.5 * slope * (t1 * t1 - t0 * t0)


@dataclass
class TransitionParams:
    rho: object  # mean, shaped like z0' (ndarray or Tensor)
    lam: object  # float64 variance in [0, 1): a scalar, or (B, 1, 1) for a (B,) t


def transition(sched: NoiseSchedule, z0_prime, mu_hat, t) -> TransitionParams:
    """Gaussian transition of the forward SDE: mean rho_t, variance lam_t.

    rho_t = (1 - e^{-1/2 int beta}) mu + e^{-1/2 int beta} z0'
    lam_t = 1 - e^{-int beta}

    t is a scalar, or (B,) with one time per window of a (B, frames, D)
    batch; the float64 coefficients take z0's dtype where they scale it.
    """
    _check_shapes(z0_prime, mu_hat)
    t = np.asarray(t, dtype=np.float64)
    ib = integral_beta(sched, 0.0, t[:, None, None] if t.ndim else t)
    a = np.exp(-0.5 * ib)
    dtype = _values_of(z0_prime).dtype
    rho = (1.0 - a).astype(dtype) * mu_hat + a.astype(dtype) * z0_prime
    return TransitionParams(rho, 1.0 - np.exp(-ib))


def forward_sample(sched: NoiseSchedule, z0_prime, mu_hat, t, noise: np.ndarray):
    """Draw z_t = rho_t + sqrt(lam_t) * noise and its score target.

    The target is the gradient of the log transition density at z_t,
    -(z_t - rho_t) / lam_t. t = 0 is rejected (the density degenerates).
    """
    if np.any(t <= 0.0):
        raise ValueError("forward_sample requires t > 0 (lambda is singular at 0)")
    params = transition(sched, z0_prime, mu_hat, t)
    dtype = _values_of(z0_prime).dtype
    z_t = params.rho + np.sqrt(params.lam).astype(dtype) * noise
    target = -(z_t - params.rho) / params.lam.astype(dtype)
    return z_t, target


def prior_loss(z0_prime, mu_hat):
    """Gaussian NLL of the normalized latent under N(mu_hat, I), meaned."""
    diff = z0_prime - mu_hat
    return (diff * diff * 0.5).mean() + HALF_LOG_2PI


def diffusion_loss(score_fn, z0_prime, mu_hat, h_cond, sched: NoiseSchedule, t, noise):
    """Lambda-weighted score-matching loss, meaned over windows.

    z0_prime and mu_hat are (..., frames, D), one window or a stacked
    (B, W, D) batch, and noise has their shape. t is one diffusion time, or
    a (B,) array with one per window. z_t comes from the closed-form forward
    solution; the squared error of score_fn(z_t, mu_hat, h_cond, t) against
    -(z_t - rho_t)/lam_t is summed over the latent dimension, meaned over
    frames, multiplied by each window's lam_t, which keeps the objective
    finite as t -> 0 (divide by lam_t for the raw printed form), and meaned
    over windows. The caller draws t and noise.
    """
    noise = np.asarray(noise, dtype=_values_of(z0_prime).dtype)
    z_t, target = forward_sample(sched, z0_prime, mu_hat, t, noise)
    diff = score_fn(z_t, mu_hat, h_cond, t) - target
    lam = 1.0 - np.exp(-integral_beta(sched, 0.0, t))
    return ((diff * diff).sum(axis=-1).mean(axis=-1) * lam.astype(noise.dtype)).mean()


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    tau: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.tau >= 1.0:  # NaN fails this too
            raise ValueError("temperature tau must be >= 1")


def reverse_sample(score_fn, mu_hat, h_cond, sched: NoiseSchedule, cfg: SamplerConfig) -> np.ndarray:
    """Euler-Maruyama over the reverse SDE, noiseless final step.

    Starts from N(mu_hat, tau^-1 I); temperature touches only this initial
    draw. For t = T, T-h, ..., h:
        z <- z + h beta_t (1/2 (z - mu) + score(z, mu, h_cond, t)) + sqrt(h beta_t) xi
    Deterministic given cfg.seed.
    """
    mu_hat = np.asarray(mu_hat, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    if math.isinf(cfg.tau):
        z = mu_hat.copy()
    else:
        z = mu_hat + rng.standard_normal(mu_hat.shape) / math.sqrt(cfg.tau)
    n = cfg.steps
    h = HORIZON / n
    for i in range(n):
        t = HORIZON - i * h
        beta = beta_at(sched, t)
        s = np.asarray(score_fn(z, mu_hat, h_cond, t), dtype=np.float64)
        if not np.all(np.isfinite(s)):
            raise NumericalError(f"score produced non-finite values at sampler step {i} (t={t:.4f})")
        z = z + h * beta * (0.5 * (z - mu_hat) + s)
        if i < n - 1:
            z = z + math.sqrt(h * beta) * rng.standard_normal(mu_hat.shape)
    if not np.all(np.isfinite(z)):
        raise NumericalError("reverse sampler produced non-finite output")
    return z


def normalize_latent(z0: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    mean, std = _check_stats(mean, std)
    return (np.asarray(z0, dtype=np.float64) - mean) / std


def denormalize_latent(z0_prime: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    mean, std = _check_stats(mean, std)
    return np.asarray(z0_prime, dtype=np.float64) * std + mean


def latent_stats(z0: np.ndarray):
    """Per-dimension mean/std over all frames; degenerate dims are an error."""
    z0 = np.asarray(z0, dtype=np.float64)
    mean = z0.mean(axis=0)
    std = z0.std(axis=0)
    if np.any(std < 1e-8):
        raise ValueError("latent has a (near-)constant dimension; cannot normalize")
    return mean, std


def _check_stats(mean, std):
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if np.any(std <= 0):
        raise ValueError("std must be positive in every dimension")
    return mean, std
