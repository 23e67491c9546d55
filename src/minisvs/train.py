"""Training loops and the sampling/eval pipelines behind the CLI.

Codec training: toy mel autoencoder around the RVQ bottleneck with the
weighted generator objective (reconstruction, commitment, CTC heads,
optional LSGAN + feature matching). Latent training: condition network +
score network over frozen-codec latents with the lambda-weighted
score-matching loss, prior NLL and optional contrastive terms. Both run
one step function inside the same loop, which is bit-reproducible given
config + seed, logs CSV rows per step, and checkpoints enough state
(params, optimizer moments, rng) to resume exactly.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import condition as cond_mod
from . import corpus as corpus_mod
from . import diffusion, dsp, losses, metrics, rvq
from .autodiff import NumericalError, Tensor, log_softmax, straight_through
from .config import ConfigError, RunConfig, config_from_dict
from .fileio import load_checkpoint, load_matrix, save_checkpoint, save_matrix
from .nn import (
    AdamW,
    Linear,
    MelDecoder,
    MelEncoder,
    MelPatchDiscriminator,
    ScoreNet,
    grad_norm,
    set_params,
)

NOTE_ALPHABET = 127  # CTC note labels are MIDI ids 1..127; 0 doubles as blank


# -- model bundles ------------------------------------------------------------


@dataclass
class CodecModels:
    encoder: MelEncoder
    decoder: MelDecoder
    lyrics_head: Linear
    note_head: Linear
    disc: MelPatchDiscriminator
    coder: rvq.RvqCoder
    alphabet_size: int

    def gen_named_params(self):
        return (
            self.encoder.params("enc")
            + self.decoder.params("dec")
            + self.lyrics_head.params("lyrics_head")
            + self.note_head.params("note_head")
        )

    def disc_named_params(self):
        return self.disc.params("disc")


def build_codec_models(cfg: RunConfig, alphabet_size: int, rng) -> CodecModels:
    encoder = MelEncoder(cfg.mel_bins, cfg.latent_dim, cfg.width, rng)
    decoder = MelDecoder(cfg.mel_bins, cfg.latent_dim, cfg.width, rng)
    lyrics_head = Linear(cfg.latent_dim, alphabet_size + 1, rng)
    note_head = Linear(cfg.latent_dim, NOTE_ALPHABET + 1, rng)
    disc = MelPatchDiscriminator(cfg.mel_bins, max(8, cfg.width // 2), rng)
    books = [
        rvq.Codebook(np.zeros((cfg.codebook_size, cfg.latent_dim), dtype=np.float32))
        for _ in range(cfg.quantizers)
    ]
    coder = rvq.RvqCoder(books, pin_zero=cfg.pin_zero_entry)
    return CodecModels(encoder, decoder, lyrics_head, note_head, disc, coder, alphabet_size)


@dataclass
class LatentModels:
    cond: cond_mod.ConditionNet
    score: ScoreNet

    def named_params(self):
        return self.cond.params("cond") + self.score.params("score")


def build_latent_models(cfg: RunConfig, alphabet_size: int, rng) -> LatentModels:
    net = cond_mod.ConditionNet(
        alphabet_size,
        cfg.latent_dim,
        feature_dim=cfg.feature_dim,
        embed_dim=cfg.embed_dim,
        blocks=2,
        rng=rng,
    )
    score = ScoreNet(
        cfg.latent_dim, cfg.embed_dim, cfg.width, cfg.blocks, cfg.time_dim, rng
    )
    return LatentModels(net, score)


# -- checkpoint plumbing -------------------------------------------------------


def _rvq_arrays(coder: rvq.RvqCoder) -> dict[str, np.ndarray]:
    out = {}
    for i, cb in enumerate(coder.codebooks):
        out[f"rvq.{i}.entries"] = cb.entries
        out[f"rvq.{i}.ema_counts"] = cb.ema_counts
        out[f"rvq.{i}.ema_sums"] = cb.ema_sums
    return out


def _restore_rvq(coder: rvq.RvqCoder, arrays: dict[str, np.ndarray]) -> None:
    for i, cb in enumerate(coder.codebooks):
        cb.entries = arrays[f"rvq.{i}.entries"].astype(np.float32).reshape(cb.entries.shape)
        cb.ema_counts = arrays[f"rvq.{i}.ema_counts"].astype(np.float32).reshape(cb.ema_counts.shape)
        cb.ema_sums = arrays[f"rvq.{i}.ema_sums"].astype(np.float32).reshape(cb.ema_sums.shape)


def _load_kind(path, kind: str):
    """load_checkpoint, refusing a checkpoint of another kind."""
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise ConfigError(f"{path}: not a {kind} checkpoint")
    return arrays, meta


def load_codec_checkpoint(path) -> tuple[CodecModels, RunConfig, dict]:
    arrays, meta = _load_kind(path, "codec")
    cfg = config_from_dict(meta["config"])
    models = build_codec_models(cfg, int(meta["alphabet_size"]), np.random.default_rng(0))
    set_params(models.gen_named_params(), arrays)
    set_params(models.disc_named_params(), arrays)
    _restore_rvq(models.coder, arrays)
    return models, cfg, meta


def load_latent_checkpoint(path):
    arrays, meta = _load_kind(path, "latent")
    cfg = config_from_dict(meta["config"])
    models = build_latent_models(cfg, int(meta["alphabet_size"]), np.random.default_rng(0))
    set_params(models.named_params(), arrays)
    stats = (arrays["latent_stats.mean"].reshape(-1), arrays["latent_stats.std"].reshape(-1))
    return models, cfg, meta, stats


def _write_log(path, header: list[str], rows: list[list], start_step: int) -> None:
    """Write the loss CSV. A run resumed at start_step > 0 keeps the rows an
    earlier run logged in the same file for the steps before start_step."""
    kept = []
    if start_step > 0 and os.path.exists(path):
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) == header:
                kept = [row for row in reader if int(float(row[0])) < start_step]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(kept)
        writer.writerows(rows)


def _train_loop(kind, out_dir, steps, step_fn, resumed, groups, data_rng, extra_arrays,
                meta, header):
    """The loop both trainers share; returns (checkpoint_path, log_path).

    groups holds (named_params, optimizer, meta step key) per optimizer. A
    resumed (arrays, meta) pair restores their params and moments and the
    data rng, and training continues at its step. step_fn(step) runs one
    step and returns its log row. The loss CSV is written however the loop
    ends, so a diverging run leaves the rows of the steps before the
    failing one; the checkpoint (params, extra_arrays(), optimizer moments)
    is written only when every step ran.
    """
    start_step = 0
    if resumed is not None:
        arrays, saved = resumed
        for named, opt, key in groups:
            set_params(named, arrays)
            opt.load_state_arrays([n for n, _ in named], arrays, saved[key])
        data_rng.bit_generator.state = saved["rng_state"]
        start_step = int(saved["step"])
    rows = []
    log_path = os.path.join(out_dir, f"{kind}_losses.csv")
    try:
        for step in range(start_step, steps):
            try:
                rows.append(step_fn(step))
            except NumericalError as exc:
                raise NumericalError(f"{kind} training diverged at step {step}: {exc}") from None
    finally:
        _write_log(log_path, header, rows, start_step)

    arrays = {name: p.data for named, _, _ in groups for name, p in named}
    arrays.update(extra_arrays())
    for named, opt, _ in groups:
        arrays.update(opt.state_arrays([n for n, _ in named]))
    meta = {
        "kind": kind,
        **meta,
        **{key: opt.step_count for _, opt, key in groups},
        "rng_state": data_rng.bit_generator.state,
    }
    ckpt_path = os.path.join(out_dir, f"{kind}.ckpt")
    save_checkpoint(ckpt_path, arrays, meta)
    return ckpt_path, log_path


def read_loss_log(path) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.asarray(rows) if rows else np.zeros((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


# -- codec training ------------------------------------------------------------


def _collapse_labels(frame_labels: np.ndarray) -> tuple:
    """Consecutive-duplicate collapse, rests dropped: the CTC target."""
    out = []
    prev = None
    for lab in frame_labels.tolist():
        if lab != prev and lab != 0:
            out.append(lab)
        prev = lab
    return tuple(out)


def _commitment_graph(z_flat: Tensor, selected: np.ndarray) -> Tensor:
    """In-graph commitment loss; codebook entries are constants."""
    prefix = np.cumsum(selected, axis=0).astype(z_flat.data.dtype)  # (C, N, D)
    diff = z_flat - Tensor(prefix)
    return (diff * diff).sum(axis=-1).mean(axis=-1).sum()


CODEC_LOG_HEADER = ["step", "recon", "emb", "lyrics", "note", "adv", "fm", "total", "grad_norm"]


def train_codec(
    cfg: RunConfig,
    corpus_dir,
    out_dir,
    steps: int | None = None,
    seed: int | None = None,
    adversarial: bool = False,
    resume=None,
):
    """Train the toy codec; returns (checkpoint_path, log_path)."""
    os.makedirs(out_dir, exist_ok=True)
    steps = cfg.codec_steps if steps is None else steps
    seed = cfg.seed if seed is None else seed
    resumed = None if resume is None else _load_kind(resume, "codec")
    songs, table = corpus_mod.load_corpus(corpus_dir, cfg)
    alphabet_size = max(table.values()) + 1
    win = min(cfg.window, min(s.frames for s in songs))

    models = build_codec_models(cfg, alphabet_size, np.random.default_rng(seed))
    gen_named = models.gen_named_params()
    gen_params = [p for _, p in gen_named]
    opt = AdamW(gen_params, cfg.lr, cfg.beta1, cfg.beta2, cfg.weight_decay)
    disc_named = models.disc_named_params()
    disc_opt = AdamW([p for _, p in disc_named], cfg.lr, cfg.beta1, cfg.beta2, cfg.weight_decay)
    data_rng = np.random.default_rng(seed + 1)

    if resumed is not None:
        _restore_rvq(models.coder, resumed[0])
    else:
        # seed the codebooks from the untrained encoder's latents
        sample = np.concatenate([s.logmel for s in songs])[: max(4 * cfg.codebook_size, 512)]
        z0 = models.encoder(sample).data.astype(np.float64)
        models.coder = rvq.init_codebooks(
            rvq.RvqCoder(models.coder.codebooks, pin_zero=cfg.pin_zero_entry), z0, seed
        )

    return _train_loop(
        "codec", out_dir, steps,
        lambda step: _codec_step(cfg, models, songs, win, data_rng, step, opt, disc_opt,
                                 gen_params, adversarial),
        resumed,
        groups=[(gen_named, opt, "step"), (disc_named, disc_opt, "disc_step")],
        data_rng=data_rng,
        extra_arrays=lambda: _rvq_arrays(models.coder),
        meta={"config": cfg.to_dict(), "alphabet_size": alphabet_size, "phoneme_table": table},
        header=CODEC_LOG_HEADER,
    )


def _codec_step(cfg, models, songs, win, data_rng, step, opt, disc_opt, gen_params,
                adversarial):
    picks = []
    for _ in range(cfg.batch):
        s = int(data_rng.integers(0, len(songs)))
        picks.append((s, int(data_rng.integers(0, songs[s].frames - win + 1))))
    x = np.stack([songs[s].logmel[o : o + win] for s, o in picks])  # (B, W, M)
    z = models.encoder(x)  # (B, W, D)
    flat = z.data.reshape(-1, cfg.latent_dim)
    codes, zq, residuals, selected = rvq.encode_detailed(models.coder, flat)
    rvq.ema_update(models.coder, residuals, codes.indices, cfg.ema_decay, rng=data_rng)
    zq_t = straight_through(z, zq.reshape(z.data.shape))

    x_hat = models.decoder(zq_t)
    l_recon = losses.recon_l1(x.astype(np.float32), x_hat)
    l_emb = _commitment_graph(z.reshape(-1, cfg.latent_dim), selected)

    lyr_ls = log_softmax(models.lyrics_head(zq_t), axis=-1)
    note_ls = log_softmax(models.note_head(zq_t), axis=-1)
    lyr_targets, note_targets = [], []
    for s, o in picks:
        grid = songs[s].grid
        lyr_targets.append(
            losses.CtcTarget(_collapse_labels(grid.phoneme[o : o + win]), models.alphabet_size)
        )
        note_targets.append(
            losses.CtcTarget(_collapse_labels(grid.midi[o : o + win]), NOTE_ALPHABET)
        )
    l_lyrics = losses.ctc_loss_graph(lyr_ls, lyr_targets) / float(cfg.batch)
    l_note = losses.ctc_loss_graph(note_ls, note_targets) / float(cfg.batch)

    parts = {"recon": l_recon, "emb": l_emb, "lyrics": l_lyrics, "note": l_note}
    adv_val = fm_val = 0.0
    if adversarial:
        real_scores, real_feats = models.disc(x.astype(np.float32))
        fake_scores, fake_feats = models.disc(x_hat)
        parts["adv"] = losses.lsgan_g(fake_scores)
        parts["fm"] = losses.feature_matching([f.data for f in real_feats], fake_feats)
        adv_val = float(parts["adv"].data)
        fm_val = float(parts["fm"].data)

    total = losses.generator_total(parts, cfg.loss)
    opt.zero_grad()
    disc_opt.zero_grad()
    total.backward()
    gnorm = grad_norm(gen_params)
    opt.step()

    if adversarial:
        disc_opt.zero_grad()
        opt.zero_grad()
        real_scores, _ = models.disc(x.astype(np.float32))
        fake_scores, _ = models.disc(x_hat.data)
        d_loss = losses.lsgan_d(real_scores, fake_scores)
        d_loss.backward()
        disc_opt.step()

    return [
        step,
        float(l_recon.data),
        float(l_emb.data),
        float(l_lyrics.data),
        float(l_note.data),
        adv_val,
        fm_val,
        float(total.data),
        gnorm,
    ]


# -- latent training -----------------------------------------------------------


LATENT_LOG_HEADER = [
    "step",
    "diff",
    "prior",
    "cont_lyrics",
    "cont_melody",
    "total",
    "grad_norm",
    "grad_norm_sup",
    "grad_norm_unsup",
]


def _frozen_latents(models: CodecModels, songs, cfg: RunConfig, target_kind: str):
    outs = []
    for song in songs:
        z0 = models.encoder(song.logmel).data.astype(np.float64)
        if target_kind == "zq":
            z0 = rvq.quantize(models.coder, z0)
        outs.append(z0)
    return outs


def train_latent(
    cfg: RunConfig,
    corpus_dir,
    codec_ckpt,
    out_dir,
    steps: int | None = None,
    seed: int | None = None,
    unlabeled_ratio: float | None = None,
    prior_mode: str | None = None,
    target_kind: str | None = None,
    enhanced: bool | None = None,
    resume=None,
):
    """Train condition + score networks on frozen-codec latents.

    unlabeled_ratio, prior_mode ("data" or "standard"), target_kind ("z0"
    or "zq") and enhanced default to 0.0, "data", "z0" and True, or to the
    resumed checkpoint's; a value that contradicts the resumed checkpoint
    raises ConfigError.
    """
    if prior_mode not in (None, "data", "standard"):
        raise ConfigError(f"unknown prior mode '{prior_mode}'")
    if target_kind not in (None, "z0", "zq"):
        raise ConfigError(f"unknown latent target '{target_kind}'")
    if unlabeled_ratio is not None and not (0.0 <= unlabeled_ratio <= 1.0):
        raise ConfigError("unlabeled ratio must lie in [0, 1]")
    os.makedirs(out_dir, exist_ok=True)
    steps = cfg.latent_steps if steps is None else steps
    seed = cfg.seed if seed is None else seed

    modes = {"unlabeled_ratio": unlabeled_ratio, "prior_mode": prior_mode,
             "target_kind": target_kind, "enhanced": enhanced}
    resumed = None if resume is None else _load_kind(resume, "latent")
    if resumed is not None:
        saved = resumed[1]
        for name, given in modes.items():
            if name not in saved:
                raise ConfigError(f"{resume}: checkpoint does not record {name}")
            if given not in (None, saved[name]):
                raise ConfigError(
                    f"{resume}: checkpoint was trained with {name}={saved[name]!r}, "
                    f"cannot resume with {given!r}"
                )
            modes[name] = saved[name]
    defaults = {"unlabeled_ratio": 0.0, "prior_mode": "data", "target_kind": "z0", "enhanced": True}
    modes = {name: defaults[name] if v is None else v for name, v in modes.items()}

    codec_models, codec_cfg, _ = load_codec_checkpoint(codec_ckpt)
    _check_codec_compat(cfg, codec_cfg)
    songs, table = corpus_mod.load_corpus(corpus_dir, cfg)
    alphabet_size = max(table.values()) + 1
    win = min(cfg.window, min(s.frames for s in songs))

    z_all = _frozen_latents(codec_models, songs, cfg, modes["target_kind"])
    if resumed is None:
        mean, std = diffusion.latent_stats(np.concatenate(z_all))
        # canonical f32 stats: the checkpoint stores f32, and resume must see
        # bit-identical normalized latents
        mean = mean.astype(np.float32).astype(np.float64)
        std = std.astype(np.float32).astype(np.float64)
        split_rng = np.random.default_rng(seed + 17)
        n_unlabeled = int(round(modes["unlabeled_ratio"] * len(songs)))
        unlabeled = set(split_rng.permutation(len(songs))[:n_unlabeled].tolist())
    else:
        mean = resumed[0]["latent_stats.mean"].reshape(-1).astype(np.float64)
        std = resumed[0]["latent_stats.std"].reshape(-1).astype(np.float64)
        unlabeled = set(resumed[1]["unlabeled_songs"])
    z_norm = [diffusion.normalize_latent(z, mean, std).astype(np.float32) for z in z_all]

    models = build_latent_models(cfg, alphabet_size, np.random.default_rng(seed))
    named = models.named_params()
    params = [p for _, p in named]
    opt = AdamW(params, cfg.latent_lr, cfg.beta1, cfg.beta2, cfg.weight_decay)
    data_rng = np.random.default_rng(seed + 2)
    sched = diffusion.NoiseSchedule(cfg.beta0, cfg.betaT)

    return _train_loop(
        "latent", out_dir, steps,
        lambda step: _latent_step(cfg, models, songs, z_norm, win, unlabeled, modes, sched,
                                  data_rng, step, opt, params),
        resumed,
        groups=[(named, opt, "step")],
        data_rng=data_rng,
        extra_arrays=lambda: {"latent_stats.mean": mean.reshape(1, -1),
                              "latent_stats.std": std.reshape(1, -1)},
        meta={
            "config": cfg.to_dict(),
            "alphabet_size": alphabet_size,
            "phoneme_table": table,
            **modes,
            "unlabeled_songs": sorted(unlabeled),
            "codec_checkpoint": str(codec_ckpt),
        },
        header=LATENT_LOG_HEADER,
    )


def _latent_step(cfg, models, songs, z_norm, win, unlabeled, modes, sched, data_rng, step, opt,
                 params):
    # windows are grouped by supervision kind so each group runs the
    # nets once on a stacked (B, W, ...) batch; t is drawn per group
    sup_picks, unsup_picks = [], []
    for _ in range(cfg.batch):
        s = int(data_rng.integers(0, len(songs)))
        o = int(data_rng.integers(0, songs[s].frames - win + 1))
        (unsup_picks if s in unlabeled else sup_picks).append((s, o))

    data_prior = modes["prior_mode"] == "data"
    enhanced = modes["enhanced"]
    l_diff = None
    l_prior = None
    cont_lyr = cont_mel = None
    for picks, unsup in ((sup_picks, False), (unsup_picks, True)):
        if not picks:
            continue
        z0p = np.stack([z_norm[s][o : o + win] for s, o in picks])
        if unsup:
            feats = np.stack([songs[s].features[o : o + win] for s, o in picks])
            f0 = np.stack([songs[s].f0_quant[o : o + win] for s, o in picks])
            fc = models.cond.condition_unsupervised(feats, f0, enhanced)
        else:
            grid_b = _stack_grids([(songs[s].grid, o, win) for s, o in picks])
            fc = models.cond.condition(grid_b, enhanced)
            if modes["unlabeled_ratio"] > 0.0:
                h_lyr = models.cond.lyrics_repr(grid_b)
                h_mel = models.cond.melody_repr(grid_b)
                h_lyr_u = models.cond.lyrics_u_repr(
                    np.stack([songs[s].features[o : o + win] for s, o in picks])
                )
                h_mel_u = models.cond.melody_u_repr(
                    np.stack([songs[s].f0_quant[o : o + win] for s, o in picks])
                )
                for b in range(len(picks)):
                    cl = losses.contrastive_loss(
                        h_lyr[b], h_lyr_u[b], cfg.loss.tau_cont, cfg.loss.n_neg, data_rng
                    )
                    cm = losses.contrastive_loss(
                        h_mel[b], h_mel_u[b], cfg.loss.tau_cont, cfg.loss.n_neg, data_rng
                    )
                    cont_lyr = cl if cont_lyr is None else cont_lyr + cl
                    cont_mel = cm if cont_mel is None else cont_mel + cm
        mu = fc.mu_hat if data_prior else np.zeros_like(z0p)
        weight = len(picks) / float(cfg.batch)
        part = diffusion.diffusion_loss(
            models.score, [(z0p, mu, fc.h_cond)], sched, data_rng, t_min=cfg.t_min
        )
        l_diff = part * weight if l_diff is None else l_diff + part * weight
        if data_prior:
            p_part = diffusion.prior_loss(z0p, mu) * weight
            l_prior = p_part if l_prior is None else l_prior + p_part

    lam_prior = cfg.lambda_prior if data_prior else 0.0
    l_prior = 0.0 if l_prior is None else l_prior
    cont_terms = []
    if cont_lyr is not None:
        n_sup = float(len(sup_picks))
        cont_terms = [cont_lyr / n_sup, cont_mel / n_sup]
    total = losses.latent_generator_total(l_diff, l_prior, lam_prior, cont_terms)

    opt.zero_grad()
    total.backward()
    gnorm = grad_norm(params)
    g_sup = grad_norm([p for _, p in models.cond.supervised_params("cond")])
    g_unsup = grad_norm([p for _, p in models.cond.unsupervised_params("cond")])
    opt.step()
    return [
        step,
        float(l_diff.data),
        float(l_prior.data) if isinstance(l_prior, Tensor) else float(l_prior),
        float(cont_terms[0].data) if cont_terms else 0.0,
        float(cont_terms[1].data) if cont_terms else 0.0,
        float(total.data),
        gnorm,
        g_sup,
        g_unsup,
    ]


def _stack_grids(windows) -> cond_mod.FrameGrid:
    """Stack (grid, offset, length) windows into one (B, W) token grid."""
    phon, midi, dur, tempo = [], [], [], []
    for grid, o, length in windows:
        sl = slice(o, o + length)
        phon.append(grid.phoneme[sl])
        midi.append(grid.midi[sl])
        dur.append(grid.dur_token[sl])
        tempo.append(grid.tempo_token[sl])
    return cond_mod.FrameGrid(
        np.stack(phon), np.stack(midi), np.stack(dur), np.stack(tempo), [], []
    )


def _check_codec_compat(cfg: RunConfig, codec_cfg: RunConfig) -> None:
    keys = (
        "sample_rate",
        "fft_size",
        "win_size",
        "hop_size",
        "mel_bins",
        "fmin",
        "fmax",
        "latent_dim",
        "quantizers",
        "codebook_size",
    )
    for key in keys:
        if getattr(cfg, key) != getattr(codec_cfg, key):
            raise ConfigError(
                f"config '{key}'={getattr(cfg, key)} conflicts with the codec "
                f"checkpoint's {getattr(codec_cfg, key)}"
            )


# -- sampling ------------------------------------------------------------------


def sample_score(
    score_path,
    codec_ckpt,
    latent_ckpt,
    out_dir,
    steps: int | None = None,
    tau: float | None = None,
    seed: int = 0,
    target_kind: str | None = None,
):
    """Score JSON -> condition -> reverse diffusion -> decoded mel + report.

    target_kind defaults to the latent checkpoint's training target.
    """
    os.makedirs(out_dir, exist_ok=True)
    codec_models, codec_cfg, _ = load_codec_checkpoint(codec_ckpt)
    latent_models, cfg, meta, (mean, std) = load_latent_checkpoint(latent_ckpt)
    _check_codec_compat(cfg, codec_cfg)
    table = {str(k): int(v) for k, v in meta["phoneme_table"].items()}
    score = cond_mod.load_score(score_path, table)
    grid = cond_mod.expand_score(score, cfg.hop_size, cfg.sample_rate)
    if grid.frames > cfg.max_frames:
        raise ConfigError(
            f"score expands to {grid.frames} frames, over the configured max {cfg.max_frames}"
        )
    steps = cfg.steps if steps is None else steps
    tau = cfg.tau if tau is None else tau
    if target_kind is None:
        target_kind = meta["target_kind"]

    enhanced = bool(meta.get("enhanced", True))
    fc = latent_models.cond.condition(grid, enhanced)
    h_cond = fc.h_cond.data
    if meta.get("prior_mode", "data") == "standard":
        mu = np.zeros((grid.frames, cfg.latent_dim))
    else:
        mu = fc.mu_hat.data.astype(np.float64)

    sched = diffusion.NoiseSchedule(cfg.beta0, cfg.betaT)
    sampler_cfg = diffusion.SamplerConfig(steps=steps, tau=tau, seed=seed)

    def score_fn(z, m, h, t):
        return latent_models.score(z, m, h, t).data

    z_prime = diffusion.reverse_sample(score_fn, mu, h_cond, sched, sampler_cfg)
    z0 = diffusion.denormalize_latent(z_prime, mean.astype(np.float64), std.astype(np.float64))
    z_dec = rvq.quantize(codec_models.coder, z0) if target_kind == "zq" else z0
    logmel_hat = codec_models.decoder(z_dec.astype(np.float32)).data
    mel_hat = np.clip(np.expm1(logmel_hat.astype(np.float64)), 0.0, None)

    latent_path = os.path.join(out_dir, "latent.f32")
    mel_path = os.path.join(out_dir, "mel.f32")
    save_matrix(latent_path, z0, kind="latent")
    save_matrix(mel_path, mel_hat, kind="mel", sample_rate=cfg.sample_rate, hop=cfg.hop_size)

    stft_cfg = dsp.StftConfig(cfg.fft_size, cfg.win_size, cfg.hop_size)
    mel_spec = dsp.Spectrogram(mel_hat, "mel", stft_cfg, cfg.sample_rate)
    track = dsp.mel_peak_pitch(mel_spec, cfg.mel_bins, cfg.fmin, cfg.fmax)
    notes = []
    within = 0
    scored = 0
    for (a, b), midi in zip(grid.note_spans, grid.note_midi):
        if midi == cond_mod.REST_MIDI:
            continue
        seg = track.f0[a:b][track.voiced[a:b]]
        med = float(np.median(seg)) if seg.size else 0.0
        target_hz = dsp.midi_to_hz(midi)
        cents = 1200.0 * math.log2(med / target_hz) if med > 0 else float("inf")
        scored += 1
        if abs(cents) <= 100.0:
            within += 1
        notes.append(
            {"midi": int(midi), "frames": int(b - a), "median_f0_hz": med, "cents_error": cents}
        )
    report = {
        "seed": seed,
        "tau": tau,
        "steps": steps,
        "frames": int(grid.frames),
        "init_noise_variance": 0.0 if math.isinf(tau) else 1.0 / tau,
        "target": target_kind,
        "notes": notes,
        "notes_within_100_cents": within,
        "notes_scored": scored,
    }
    report_path = os.path.join(out_dir, "report.json")
    corpus_mod.write_score_json(report_path, report)
    return latent_path, mel_path, report_path


# -- codec file commands -------------------------------------------------------


def encode_wav(codec_ckpt, wav_path, out_path) -> None:
    models, cfg, _ = load_codec_checkpoint(codec_ckpt)
    audio = dsp.load_wav(wav_path)
    if audio.sample_rate != cfg.sample_rate:
        raise ConfigError(
            f"{wav_path}: sample rate {audio.sample_rate} != codec's {cfg.sample_rate}"
        )
    lm = corpus_mod.log_mel(audio, cfg)
    z = models.encoder(lm).data.astype(np.float64)
    codes = rvq.encode(models.coder, z)
    rvq.write_bitstream(out_path, codes, cfg.sample_rate, cfg.hop_size)


def decode_bitstream(codec_ckpt, bitstream_path, out_path, n_quantizers: int | None = None):
    models, cfg, _ = load_codec_checkpoint(codec_ckpt)
    codes, sr, hop = rvq.read_bitstream(bitstream_path)
    if sr != cfg.sample_rate or hop != cfg.hop_size:
        raise ConfigError(
            f"{bitstream_path}: stream (sr={sr}, hop={hop}) does not match the "
            f"codec (sr={cfg.sample_rate}, hop={cfg.hop_size})"
        )
    z = rvq.decode(models.coder, codes, n_quantizers)
    logmel_hat = models.decoder(z.astype(np.float32)).data
    mel_hat = np.clip(np.expm1(logmel_hat.astype(np.float64)), 0.0, None)
    save_matrix(out_path, mel_hat, kind="mel", sample_rate=sr, hop=hop)
    return mel_hat


# -- evaluation ----------------------------------------------------------------


def _load_eval_input(path, cfg: RunConfig):
    """Returns (mel magnitudes (T, mel_bins), PitchTrack)."""
    path = str(path)
    stft_cfg = dsp.StftConfig(cfg.fft_size, cfg.win_size, cfg.hop_size)
    if path.endswith(".wav"):
        audio = dsp.load_wav(path)
        spec = dsp.stft(audio, stft_cfg)
        mel = dsp.mel_project(spec, cfg.mel_bins, cfg.fmin, cfg.fmax)
        track = dsp.estimate_f0(audio, stft_cfg)
        return mel.data, track
    data, meta = load_matrix(path)
    if meta.get("kind") != "mel":
        raise ConfigError(f"{path}: expected a WAV file or a mel feature file")
    mel = dsp.Spectrogram(data.astype(np.float64), "mel", stft_cfg, cfg.sample_rate)
    track = dsp.mel_peak_pitch(mel, cfg.mel_bins, cfg.fmin, cfg.fmax)
    return mel.data, track


def evaluate_files(
    gt_path, pred_path, out_path, cfg: RunConfig, gt_pitch=None, pred_pitch=None
) -> metrics.MetricReport:
    gt_mel, gt_track = _load_eval_input(gt_path, cfg)
    pred_mel, pred_track = _load_eval_input(pred_path, cfg)
    if gt_pitch is not None:
        gt_track = dsp.load_pitch_json(gt_pitch)
    if pred_pitch is not None:
        pred_track = dsp.load_pitch_json(pred_pitch)
    report = metrics.evaluate(gt_mel, pred_mel, gt_track, pred_track)
    report.to_json(out_path)
    return report
