"""Run configuration: one JSON file drives every command.

Unknown keys are rejected so typos fail loudly instead of silently using a
default."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass
class LossConfig:
    recon: float = 45.0
    emb: float = 0.02
    fm: float = 2.0
    lyrics: float = 1.0
    note: float = 1.0
    tau_cont: float = 0.5
    n_neg: int = 10

    def __post_init__(self):
        for name in ("recon", "emb", "fm", "lyrics", "note"):
            if getattr(self, name) < 0:
                raise ConfigError(f"loss weight '{name}' must be >= 0")


@dataclass
class RunConfig:
    seed: int = 0

    # signal front-end
    sample_rate: int = 24000
    fft_size: int = 2048
    win_size: int = 2048
    hop_size: int = 256
    mel_bins: int = 128
    fmin: float = 0.0
    fmax: float = 12000.0

    # networks
    latent_dim: int = 16
    width: int = 64
    blocks: int = 4
    embed_dim: int = 64
    time_dim: int = 64
    feature_dim: int = 32

    # residual vector quantizer
    quantizers: int = 8
    codebook_size: int = 64
    ema_decay: float = 0.99
    pin_zero_entry: bool = True

    # diffusion schedule / sampler
    beta0: float = 0.05
    betaT: float = 20.0
    steps: int = 50
    tau: float = 1.5
    lambda_prior: float = 1.0
    t_min: float = 1e-3

    # optimization (lr is the autoencoder rate, latent_lr the generator's)
    lr: float = 1e-3
    latent_lr: float = 1e-3
    beta1: float = 0.8
    beta2: float = 0.99
    weight_decay: float = 0.01

    # training loop
    window: int = 128
    batch: int = 4
    codec_steps: int = 2000
    latent_steps: int = 5000
    max_frames: int = 4000

    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.fft_size // 2 + 1 < 2:
            raise ConfigError("fft_size too small")
        for name in ("sample_rate", "hop_size", "mel_bins", "latent_dim", "quantizers",
                     "codebook_size", "steps", "window", "batch", "max_frames"):
            if getattr(self, name) < 1:
                raise ConfigError(f"'{name}' must be >= 1")
        if not (0 < self.beta0 < self.betaT):
            raise ConfigError("require 0 < beta0 < betaT")
        if self.tau < 1.0:
            raise ConfigError("tau must be >= 1")
        if not (0 < self.t_min < 1):
            raise ConfigError("t_min must lie in (0, 1)")
        if self.lr <= 0 or self.latent_lr <= 0:
            raise ConfigError("learning rates must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    payload = dict(payload)
    loss_payload = payload.pop("loss", {})
    known = {f.name for f in fields(RunConfig)} - {"loss"}
    unknown = set(payload) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    loss_known = {f.name for f in fields(LossConfig)}
    loss_unknown = set(loss_payload) - loss_known
    if loss_unknown:
        raise ConfigError(f"unknown loss config keys: {sorted(loss_unknown)}")
    try:
        return RunConfig(loss=LossConfig(**loss_payload), **payload)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(payload)


def save_config(path, cfg: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=1)
