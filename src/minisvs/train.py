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
from dataclasses import asdict, dataclass

import numpy as np

from . import condition as cond_mod
from . import corpus as corpus_mod
from . import diffusion, dsp, losses, metrics, rvq
from .autodiff import NumericalError, concat, log_softmax, straight_through
from .config import ConfigError, RunConfig, config_from_dict
from .fileio import load_checkpoint, load_matrix, save_checkpoint, save_matrix, write_json
from .nn import (
    AdamW,
    Linear,
    MelDecoder,
    MelEncoder,
    MelPatchDiscriminator,
    Module,
    ScoreNet,
    set_params,
)

NOTE_ALPHABET = 127  # CTC note labels are MIDI ids 1..127; 0 doubles as blank
RVQ_STATE = ("entries", "ema_counts", "ema_sums")  # a codebook's arrays in a checkpoint


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

    def params(self):
        return self.gen_named_params() + self.disc.params("disc")

    def arrays(self) -> dict[str, np.ndarray]:
        """The checkpoint state: generator and discriminator params, then each codebook."""
        out = {name: p.data for name, p in self.params()}
        for i, cb in enumerate(self.coder.codebooks):
            for field in RVQ_STATE:
                out[f"rvq.{i}.{field}"] = getattr(cb, field)
        return out

    def load(self, arrays: dict[str, np.ndarray]) -> None:
        set_params(self.params(), arrays)
        for i, cb in enumerate(self.coder.codebooks):
            for field in RVQ_STATE:
                setattr(cb, field, arrays[f"rvq.{i}.{field}"].astype(np.float32))

    def encode(self, logmel) -> np.ndarray:
        """The float64 latent (..., T, latent_dim) of log-mel frames."""
        return self.encoder(logmel).data.astype(np.float64)

    def decode(self, z) -> np.ndarray:
        """The mel magnitudes that latent frames decode to."""
        logmel = self.decoder(z.astype(np.float32)).data
        return np.clip(np.expm1(logmel.astype(np.float64)), 0.0, None)


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
class LatentModels(Module):
    cond: cond_mod.ConditionNet
    score: ScoreNet
    # per-dimension stats of the codec latents, which the score net sees
    # normalized; 0 and 1 until training or a checkpoint sets them
    mean: np.ndarray
    std: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        """The checkpoint state: the params, then the latent stats."""
        return {**{name: p.data for name, p in self.params()},
                "latent_stats.mean": self.mean.reshape(1, -1),
                "latent_stats.std": self.std.reshape(1, -1)}

    def load(self, arrays: dict[str, np.ndarray]) -> None:
        set_params(self.params(), arrays)
        self.mean = arrays["latent_stats.mean"].reshape(-1).astype(np.float64)
        self.std = arrays["latent_stats.std"].reshape(-1).astype(np.float64)


def build_latent_models(cfg: RunConfig, alphabet_size: int, rng) -> LatentModels:
    net = cond_mod.ConditionNet(alphabet_size, cfg.latent_dim, cfg.feature_dim, cfg.embed_dim, rng)
    score = ScoreNet(cfg.latent_dim, cfg.embed_dim, cfg.width, cfg.blocks, cfg.time_dim, rng)
    return LatentModels(net, score, np.zeros(cfg.latent_dim), np.ones(cfg.latent_dim))


# -- checkpoint plumbing -------------------------------------------------------


def _is_rng_state(value) -> bool:
    try:  # the data rng's bit generator refuses a malformed state
        np.random.PCG64(0).state = value
    except (TypeError, KeyError, ValueError, OverflowError):
        return False
    return True


# the meta fields a checkpoint records that the program checks, each with its
# test and what the test asks for
META_FIELDS = {
    "alphabet_size": (lambda v: type(v) is int and v >= 1, "a positive int"),
    "rng_state": (_is_rng_state, "a PCG64 bit-generator state"),
    "config": (lambda v: isinstance(v, dict), "an object"),
    "step": (lambda v: type(v) is int and v >= 0, "a non-negative int"),
    "disc_step": (lambda v: type(v) is int and v >= 0, "a non-negative int"),
    "adversarial": (lambda v: isinstance(v, bool), "true or false"),
    "prior_mode": (lambda v: v in ("data", "standard"), "'data' or 'standard'"),
    "target_kind": (lambda v: v in ("z0", "zq"), "'z0' or 'zq'"),
    "enhanced": (lambda v: isinstance(v, bool), "true or false"),
    "unlabeled_ratio": (
        lambda v: type(v) is not bool and isinstance(v, (int, float)) and 0 <= v <= 1,
        "a number in [0, 1]"),
}


def _checked(name: str, value, where: str = ""):
    ok, want = META_FIELDS[name]
    if not ok(value):
        raise ConfigError(f"{where}{name!r} must be {want}, not {value!r}")
    return value


def _recorded(path, meta: dict, name: str, given=None):
    """A meta field of the checkpoint at path, checked; a given value must agree."""
    if name not in meta:
        raise ConfigError(f"{path}: checkpoint does not record {name}")
    saved = _checked(name, meta[name], f"{path}: meta ")
    if given not in (None, saved):
        raise ConfigError(
            f"{path}: checkpoint was trained with {name}={saved!r}, cannot resume with {given!r}"
        )
    return saved


def _load_kind(path, kind: str, step_keys=()):
    """load_checkpoint, refusing another kind; a resume adds the step keys it reads."""
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise ConfigError(f"{path}: not a {kind} checkpoint")
    for name in ("alphabet_size", "rng_state", "config", *step_keys):
        _recorded(path, meta, name)
    return arrays, meta


def _run_length(steps: int, path, resumed) -> int:
    """The step a run trains to: refused below 0 or, on resume, below the
    step of the checkpoint at path, which the run would contradict."""
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if resumed is not None and steps < resumed[1]["step"]:
        raise ConfigError(f"{path}: checkpoint is at step {resumed[1]['step']}, "
                          f"cannot resume to steps={steps}")
    return steps


def _recorded_songs(path, meta: dict, n_songs: int) -> set[int]:
    """The unlabeled songs a latent checkpoint records, checked against the corpus size."""
    songs = meta.get("unlabeled_songs")
    if not (isinstance(songs, list) and all(type(s) is int and 0 <= s < n_songs for s in songs)
            and len(set(songs)) == len(songs)):
        raise ConfigError(f"{path}: meta 'unlabeled_songs' must be distinct song indices "
                          f"below {n_songs}, not {songs!r}")
    return set(songs)


def _flat_config(payload: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            out.update(_flat_config(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _check_config(path, saved_config: dict, cfg: RunConfig, keys) -> None:
    """cfg must agree on keys with the config the checkpoint at path was trained with."""
    given, saved = _flat_config(cfg.to_dict()), _flat_config(saved_config)
    for key in sorted(keys):
        if given[key] != saved.get(key):
            raise ConfigError(
                f"{path}: checkpoint was trained with config {key}={saved.get(key)!r}, "
                f"cannot run with {given[key]!r}"
            )


CONFIG_KEYS = frozenset(_flat_config(RunConfig().to_dict()))

# config keys a codec resume does not read: the run length, the seed (the
# params and the data rng are restored), and the latent and sampler settings
CODEC_RESUME_FREE = frozenset({
    "seed", "codec_steps",
    "latent_lr", "latent_steps", "embed_dim", "time_dim", "blocks", "loss.tau_cont", "loss.n_neg",
    "beta0", "betaT", "steps", "tau", "lambda_prior", "t_min", "max_frames",
})

# config keys a latent resume does not read: the run lengths, the seed, the
# codec's training settings (the frozen codec brings its own config) and the
# sampler settings
LATENT_RESUME_FREE = frozenset({
    "seed", "codec_steps", "latent_steps",
    "lr", "ema_decay", "pin_zero_entry",
    "loss.recon", "loss.emb", "loss.fm", "loss.lyrics", "loss.note",
    "steps", "tau", "max_frames",
})

# the signal and codec geometry a latent model shares with its frozen codec
CODEC_GEOMETRY = frozenset({
    "sample_rate", "fft_size", "win_size", "hop_size", "mel_bins", "fmin", "fmax",
    "latent_dim", "quantizers", "codebook_size",
})


def _restore(path, checkpoint, models, opts: dict) -> None:
    """Load the (arrays, meta) of the checkpoint at path into models and into
    opts, the optimizers keyed by their meta step keys. An array that the
    models or the moments read is checked here, once: a missing or
    mis-shaped one is refused by file and name before anything is loaded."""
    arrays, meta = checkpoint
    expected = models.arrays()
    for opt in opts.values():
        expected.update(opt.state_arrays())
    for name, live in expected.items():
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint has no array '{name}'")
        if arrays[name].shape != np.shape(live):
            raise ValueError(f"{path}: checkpoint array '{name}' has shape "
                             f"{arrays[name].shape}, the model's is {np.shape(live)}")
    models.load(arrays)
    for key, opt in opts.items():
        opt.load_state_arrays(arrays, meta[key])


def _load_models(path, kind: str, build):
    """A checkpoint's models for inference: their params are frozen, so every
    op through them drops its backward closure and builds no autograd tape."""
    arrays, meta = _load_kind(path, kind)
    cfg = config_from_dict(meta["config"])
    models = build(cfg, meta["alphabet_size"], np.random.default_rng(0))
    _restore(path, (arrays, meta), models, {})
    for _, p in models.params():
        p.requires_grad = False
    return models, cfg, meta


def load_codec_checkpoint(path) -> tuple[CodecModels, RunConfig, dict]:
    return _load_models(path, "codec", build_codec_models)


def load_latent_checkpoint(path):
    """(models, config, meta, (latent mean, latent std)) of an inference latent checkpoint."""
    models, cfg, meta = _load_models(path, "latent", build_latent_models)
    return models, cfg, meta, (models.mean, models.std)


def _kept_log_rows(path, header: list[str], start_step: int) -> list[list[str]]:
    """The rows an earlier run logged in path for the steps before start_step,
    which a run resumed at start_step > 0 keeps; a partial row is dropped."""
    if start_step == 0 or not os.path.exists(path):
        return []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            return []
        return [row for row in reader if _is_log_row(row, len(header), start_step)]


def _is_log_row(row: list[str], n_fields: int, start_step: int) -> bool:
    """Whether row is a whole loss-log row, all numbers, of a step before start_step."""
    try:
        values = [float(x) for x in row]
    except ValueError:
        return False
    return len(values) == n_fields and values[0] < start_step


def _train_loop(kind, out_dir, steps, step_fn, resumed, models, opts, data_rng, meta, header):
    """The loop both trainers share; returns (checkpoint_path, log_path).

    opts maps each optimizer's meta step key to it. A resumed (arrays, meta)
    pair restores the data rng, and training continues at its step; the
    caller has restored the models and opts from it. step_fn(step) runs
    one step and returns its log row. Each row reaches the loss CSV as its
    step ends, so a diverging or killed run leaves the rows of the steps
    before the failing one; the checkpoint (models.arrays(), optimizer
    moments) is written only when every step ran.
    """
    start_step = 0
    if resumed is not None:
        saved = resumed[1]
        data_rng.bit_generator.state = saved["rng_state"]
        start_step = saved["step"]
    log_path = os.path.join(out_dir, f"{kind}_losses.csv")
    kept = _kept_log_rows(log_path, header, start_step)
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(kept)
        fh.flush()
        for step in range(start_step, steps):
            try:
                row = step_fn(step)
            except NumericalError as exc:
                raise NumericalError(f"{kind} training diverged at step {step}: {exc}") from None
            writer.writerow(row)
            fh.flush()

    arrays = models.arrays()
    for opt in opts.values():
        arrays.update(opt.state_arrays())
    meta = {
        "kind": kind,
        **meta,
        **{key: opt.step_count for key, opt in opts.items()},
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


def _collapse_labels(frame_labels: np.ndarray) -> list[list[tuple]]:
    """The CTC targets of (heads, B, W) frame labels, per head and window:
    consecutive duplicates collapsed, rests dropped."""
    keep = frame_labels != 0
    keep[..., 1:] &= frame_labels[..., 1:] != frame_labels[..., :-1]
    return [[tuple(row[k].tolist()) for row, k in zip(rows, keeps)]
            for rows, keeps in zip(frame_labels, keep)]


def _draw_windows(cfg, songs, win, data_rng) -> list[tuple[int, int]]:
    """cfg.batch (song, offset) windows; each draws its song, then its offset."""
    picks = []
    for _ in range(cfg.batch):
        s = int(data_rng.integers(0, len(songs)))
        picks.append((s, int(data_rng.integers(0, songs[s].frames - win + 1))))
    return picks


def _gather(per_song, picks, win) -> np.ndarray:
    """The (B, win, ...) stack of the picked (song, offset) windows of per-song arrays."""
    return np.stack([per_song[s][o : o + win] for s, o in picks])


CODEC_LOG_HEADER = ["step", "recon", "emb", "lyrics", "note", "adv", "fm", "total", "grad_norm"]


def train_codec(
    cfg: RunConfig,
    corpus_dir,
    out_dir,
    steps: int | None = None,
    seed: int | None = None,
    adversarial: bool | None = None,
    resume=None,
):
    """Train the toy codec; returns (checkpoint_path, log_path).

    adversarial defaults to False, or to the resumed checkpoint's. A value
    or a config that contradicts the resumed checkpoint raises ConfigError;
    only the keys in CODEC_RESUME_FREE, which codec training does not read
    on resume, may differ.
    """
    seed = cfg.seed if seed is None else seed
    resumed = None if resume is None else _load_kind(resume, "codec", ("step", "disc_step"))
    steps = _run_length(cfg.codec_steps if steps is None else steps, resume, resumed)
    if resumed is not None:
        adversarial = _recorded(resume, resumed[1], "adversarial", adversarial)
        _check_config(resume, resumed[1]["config"], cfg, CONFIG_KEYS - CODEC_RESUME_FREE)
    adversarial = bool(adversarial)
    os.makedirs(out_dir, exist_ok=True)
    songs, table = corpus_mod.load_corpus(corpus_dir, cfg)
    alphabet_size = max(table.values()) + 1
    win = min(cfg.window, min(s.frames for s in songs))

    models = build_codec_models(cfg, alphabet_size, np.random.default_rng(seed))
    opt = AdamW(models.gen_named_params(), cfg.lr, cfg.beta1, cfg.beta2, cfg.weight_decay)
    disc_opt = AdamW(models.disc.params("disc"), cfg.lr, cfg.beta1, cfg.beta2, cfg.weight_decay)
    data_rng = np.random.default_rng(seed + 1)

    if resumed is not None:
        _restore(resume, resumed, models, {"step": opt, "disc_step": disc_opt})
    else:
        # seed the codebooks from the untrained encoder's latents; the batch is
        # built inside the call, so the joined log-mel is freed before training
        models.coder = rvq.init_codebooks(models.coder, models.encode(
            np.concatenate([s.logmel for s in songs])[: max(4 * cfg.codebook_size, 512)]), seed)

    return _train_loop(
        "codec", out_dir, steps,
        lambda step: _codec_step(cfg, models, songs, win, data_rng, step, opt, disc_opt,
                                 adversarial),
        resumed, models, {"step": opt, "disc_step": disc_opt}, data_rng,
        meta={"config": cfg.to_dict(), "alphabet_size": alphabet_size, "phoneme_table": table,
              "adversarial": adversarial},
        header=CODEC_LOG_HEADER,
    )


def _codec_step(cfg, models, songs, win, data_rng, step, opt, disc_opt, adversarial):
    picks = _draw_windows(cfg, songs, win, data_rng)
    x = _gather([song.logmel for song in songs], picks, win)  # (B, W, M) float32
    z = models.encoder(x)  # (B, W, D)
    flat = z.data.reshape(-1, cfg.latent_dim)
    codes, zq, residuals, selected = rvq.encode_detailed(models.coder, flat)
    rvq.ema_update(models.coder, residuals, codes.indices, cfg.ema_decay, rng=data_rng)
    zq_t = straight_through(z, zq.reshape(z.data.shape))

    x_hat = models.decoder(zq_t)
    l_recon = losses.recon_l1(x, x_hat)
    # the running reconstruction after each stage; entries are constants
    l_emb = rvq.commitment_loss(z.reshape(-1, cfg.latent_dim), rvq.stage_reconstructions(selected))

    heads = ((models.lyrics_head, models.alphabet_size), (models.note_head, NOTE_ALPHABET))
    labels = _collapse_labels(np.stack([_gather([song.grid.phoneme for song in songs], picks, win),
                                        _gather([song.grid.midi for song in songs], picks, win)]))
    l_lyrics, l_note = (loss / float(cfg.batch) for loss in losses.ctc_loss_graph([
        (log_softmax(head(zq_t), axis=-1), [losses.CtcTarget(t, size) for t in targets])
        for (head, size), targets in zip(heads, labels)]))

    parts = {"recon": l_recon, "emb": l_emb, "lyrics": l_lyrics, "note": l_note}
    adv_val = fm_val = 0.0
    if adversarial:
        real_scores, real_feats = models.disc(x)
        # the generator loss reaches the disc only through a frozen copy, so
        # its backward computes no disc weight gradient
        fake_scores, fake_feats = models.disc.frozen()(x_hat)
        parts["adv"] = losses.lsgan_g(fake_scores)
        parts["fm"] = losses.feature_matching([f.data for f in real_feats], fake_feats)
        adv_val = float(parts["adv"].data)
        fm_val = float(parts["fm"].data)

    total = losses.generator_total(parts, cfg.loss)
    opt.zero_grad()
    disc_opt.zero_grad()
    total.backward()
    gnorm = opt.step()[0]

    if adversarial:
        # the generator step left the disc params alone, so the real batch's
        # scores from above still hold; the generator loss did not use them
        fake_scores, _ = models.disc(x_hat.data)
        d_loss = losses.lsgan_d(real_scores, fake_scores)
        d_loss.backward()
        disc_opt.step()

    return [step, *(float(loss.data) for loss in (l_recon, l_emb, l_lyrics, l_note)),
            adv_val, fm_val, float(total.data), gnorm]


# -- latent training -----------------------------------------------------------


LATENT_LOG_HEADER = ["step", "diff", "prior", "cont_lyrics", "cont_melody", "total", "grad_norm",
                     "grad_norm_sup", "grad_norm_unsup"]


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
    resumed checkpoint's. A value or a config that contradicts the resumed
    checkpoint raises ConfigError; only the keys in LATENT_RESUME_FREE, which
    latent training does not read on resume, may differ.
    """
    seed = cfg.seed if seed is None else seed

    modes = {"unlabeled_ratio": unlabeled_ratio, "prior_mode": prior_mode,
             "target_kind": target_kind, "enhanced": enhanced}
    resumed = None if resume is None else _load_kind(resume, "latent", ("step",))
    steps = _run_length(cfg.latent_steps if steps is None else steps, resume, resumed)
    if resumed is not None:
        modes = {name: _recorded(resume, resumed[1], name, given)
                 for name, given in modes.items()}
        _check_config(resume, resumed[1]["config"], cfg, CONFIG_KEYS - LATENT_RESUME_FREE)
    defaults = {"unlabeled_ratio": 0.0, "prior_mode": "data", "target_kind": "z0", "enhanced": True}
    modes = {name: _checked(name, defaults[name] if v is None else v)
             for name, v in modes.items()}
    os.makedirs(out_dir, exist_ok=True)

    codec_models, codec_cfg, _ = load_codec_checkpoint(codec_ckpt)
    _check_config(codec_ckpt, codec_cfg.to_dict(), cfg, CODEC_GEOMETRY)
    songs, table = corpus_mod.load_corpus(corpus_dir, cfg)
    alphabet_size = max(table.values()) + 1
    win = min(cfg.window, min(s.frames for s in songs))

    models = build_latent_models(cfg, alphabet_size, np.random.default_rng(seed))
    opt = AdamW(models.params(), cfg.latent_lr, cfg.beta1, cfg.beta2, cfg.weight_decay)
    z_all = [codec_models.encode(s.logmel) for s in songs]
    if modes["target_kind"] == "zq":
        z_all = [rvq.quantize(codec_models.coder, z) for z in z_all]
    if resumed is None:
        mean, std = diffusion.latent_stats(np.concatenate(z_all))
        # canonical f32 stats: the checkpoint stores f32, and resume must see
        # bit-identical normalized latents
        models.mean = mean.astype(np.float32).astype(np.float64)
        models.std = std.astype(np.float32).astype(np.float64)
        split_rng = np.random.default_rng(seed + 17)
        n_unlabeled = int(round(modes["unlabeled_ratio"] * len(songs)))
        unlabeled = set(split_rng.permutation(len(songs))[:n_unlabeled].tolist())
    else:
        _restore(resume, resumed, models, {"step": opt})
        unlabeled = _recorded_songs(resume, resumed[1], len(songs))
    z_norm = [diffusion.normalize_latent(z, models.mean, models.std).astype(np.float32)
              for z in z_all]

    # the grad_norm_sup and grad_norm_unsup columns: the layers that only the
    # supervised, or only the unsupervised, condition path reads
    cond = models.cond
    norm_groups = [[p for layer in group for _, p in layer.params()]
                   for group in ((cond.phoneme, cond.pitch, cond.dur, cond.tempo),
                                 (cond.feat_proj, cond.f0))]
    data_rng = np.random.default_rng(seed + 2)
    sched = diffusion.NoiseSchedule(cfg.beta0, cfg.betaT)

    return _train_loop(
        "latent", out_dir, steps,
        lambda step: _latent_step(cfg, models, songs, z_norm, win, unlabeled, modes, sched,
                                  data_rng, step, opt, norm_groups),
        resumed, models, {"step": opt}, data_rng,
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
                 norm_groups):
    # the two supervision kinds embed their windows differently; the joined
    # embeddings, labelled windows first, then run the condition head, the
    # score net and L_diff once over the (B, W, ...) batch, one t per window
    picks = sorted(_draw_windows(cfg, songs, win, data_rng), key=lambda p: p[0] in unlabeled)
    n_sup = sum(s not in unlabeled for s, _ in picks)
    sup, unsup = picks[:n_sup], picks[n_sup:]
    features, f0_quant = [song.features for song in songs], [song.f0_quant for song in songs]

    cond = models.cond
    lyrics, melody, cont_terms = [], [], []
    if sup:
        grid_b = cond_mod.FrameGrid(*(_gather([getattr(song.grid, f) for song in songs], sup, win)
                                      for f in ("phoneme", "midi", "dur_token", "tempo_token")),
                                    [], [])
        # the supervised embeddings feed the condition head and, with
        # contrastive terms on, the contrastive anchors too
        lyrics.append(cond.lyrics_repr(grid_b))
        melody.append(cond.melody_repr(grid_b))
        if modes["unlabeled_ratio"] > 0.0:
            h_lyr_u = cond.lyrics_u_repr(_gather(features, sup, win))
            h_mel_u = cond.melody_u_repr(_gather(f0_quant, sup, win))
            # window by window: its lyrics negatives, then its melody negatives
            negs = [losses.draw_negatives(win, cfg.loss.n_neg, data_rng)
                    for _ in range(2 * n_sup)]
            cont_terms = [
                losses.contrastive_loss(h, h_u, np.stack(neg), cfg.loss.tau_cont) / float(n_sup)
                for h, h_u, neg in ((lyrics[0], h_lyr_u, negs[0::2]),
                                    (melody[0], h_mel_u, negs[1::2]))
            ]
    if unsup:
        lyrics.append(cond.lyrics_u_repr(_gather(features, unsup, win)))
        melody.append(cond.melody_u_repr(_gather(f0_quant, unsup, win)))
    fc = cond.head(concat(lyrics), concat(melody), modes["enhanced"])

    z0p = _gather(z_norm, picks, win)
    data_prior = modes["prior_mode"] == "data"
    mu = fc.mu_hat if data_prior else np.zeros_like(z0p)
    t = data_rng.uniform(cfg.t_min, diffusion.HORIZON, size=cfg.batch)
    noise = data_rng.standard_normal(z0p.shape)
    l_diff = diffusion.diffusion_loss(models.score, z0p, mu, fc.h_cond, sched, t, noise)
    l_prior = diffusion.prior_loss(z0p, mu) if data_prior else 0.0
    total = losses.latent_generator_total(l_diff, l_prior, cfg.lambda_prior, cont_terms)

    opt.zero_grad()
    total.backward()
    gnorm, g_sup, g_unsup = opt.step(norm_groups)
    prior = float(l_prior.data) if data_prior else 0.0
    cont = [float(c.data) for c in cont_terms] or [0.0, 0.0]
    return [step, float(l_diff.data), prior, *cont, float(total.data), gnorm, g_sup, g_unsup]


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

    target_kind defaults to the latent checkpoint's training target. out_dir
    is made only once every input has been read and checked, so a refused
    run leaves no directory behind.
    """
    codec_models, codec_cfg, _ = load_codec_checkpoint(codec_ckpt)
    latent_models, cfg, meta, (mean, std) = load_latent_checkpoint(latent_ckpt)
    _check_config(codec_ckpt, codec_cfg.to_dict(), cfg, CODEC_GEOMETRY)
    table = cond_mod.check_phoneme_table(meta.get("phoneme_table"),
                                         f"{latent_ckpt}: meta 'phoneme_table'")
    score = cond_mod.load_score(score_path, table)
    grid = cond_mod.expand_score(score, cfg.hop_size, cfg.sample_rate)
    if grid.frames > cfg.max_frames:
        raise ConfigError(
            f"score expands to {grid.frames} frames, over the configured max {cfg.max_frames}"
        )
    steps = cfg.steps if steps is None else steps
    tau = cfg.tau if tau is None else tau
    if target_kind is None:
        target_kind = _recorded(latent_ckpt, meta, "target_kind")
    sched = diffusion.NoiseSchedule(cfg.beta0, cfg.betaT)
    sampler_cfg = diffusion.SamplerConfig(steps=steps, tau=tau, seed=seed)

    fc = latent_models.cond.condition(grid, _recorded(latent_ckpt, meta, "enhanced"))
    h_cond = fc.h_cond.data
    if _recorded(latent_ckpt, meta, "prior_mode") == "standard":
        mu = np.zeros((grid.frames, cfg.latent_dim))
    else:
        mu = fc.mu_hat.data.astype(np.float64)

    def score_fn(z, m, h, t):
        return latent_models.score(z, m, h, t).data

    z_prime = diffusion.reverse_sample(score_fn, mu, h_cond, sched, sampler_cfg)
    z0 = diffusion.denormalize_latent(z_prime, mean, std)
    z_dec = rvq.quantize(codec_models.coder, z0) if target_kind == "zq" else z0
    mel_hat = codec_models.decode(z_dec)

    os.makedirs(out_dir, exist_ok=True)
    latent_path = os.path.join(out_dir, "latent.f32")
    mel_path = os.path.join(out_dir, "mel.f32")
    save_matrix(latent_path, z0, kind="latent")
    save_matrix(mel_path, mel_hat, kind="mel", sample_rate=cfg.sample_rate, hop=cfg.hop_size)

    track = _mel_pitch(mel_hat, cfg)
    notes = []
    within = 0
    scored = 0
    for (a, b), midi in zip(grid.note_spans, grid.note_midi):
        if midi == cond_mod.REST_MIDI:
            continue
        seg = track.f0[a:b][track.voiced[a:b]]
        med = float(np.median(seg)) if seg.size else 0.0
        target_hz = dsp.midi_to_hz(midi)
        cents = 1200.0 * math.log2(med / target_hz) if med > 0 else None
        scored += 1
        if cents is not None and abs(cents) <= 100.0:
            within += 1
        notes.append(
            {"midi": int(midi), "frames": int(b - a), "median_f0_hz": med, "cents_error": cents}
        )
    report = {
        "seed": seed,
        "tau": None if math.isinf(tau) else tau,
        "steps": steps,
        "frames": int(grid.frames),
        "init_noise_variance": 0.0 if math.isinf(tau) else 1.0 / tau,
        "target": target_kind,
        "notes": notes,
        "notes_within_100_cents": within,
        "notes_scored": scored,
    }
    report_path = os.path.join(out_dir, "report.json")
    write_json(report_path, report)
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
    codes = rvq.encode(models.coder, models.encode(lm))
    rvq.write_bitstream(out_path, codes, cfg.sample_rate, cfg.hop_size)


def decode_bitstream(codec_ckpt, bitstream_path, out_path, n_quantizers: int | None = None):
    models, cfg, _ = load_codec_checkpoint(codec_ckpt)
    codes, sr, hop = rvq.read_bitstream(bitstream_path)
    if sr != cfg.sample_rate or hop != cfg.hop_size:
        raise ConfigError(
            f"{bitstream_path}: stream (sr={sr}, hop={hop}) does not match the "
            f"codec (sr={cfg.sample_rate}, hop={cfg.hop_size})"
        )
    mel_hat = models.decode(rvq.decode(models.coder, codes, n_quantizers))
    save_matrix(out_path, mel_hat, kind="mel", sample_rate=sr, hop=hop)
    return mel_hat


# -- evaluation ----------------------------------------------------------------


def _mel_pitch(mel: np.ndarray, cfg: RunConfig) -> dsp.PitchTrack:
    """The pitch track of mel magnitudes (T, mel_bins), from their peak bins."""
    stft_cfg = dsp.StftConfig(cfg.fft_size, cfg.win_size, cfg.hop_size)
    spec = dsp.Spectrogram(mel, "mel", stft_cfg, cfg.sample_rate)
    return dsp.mel_peak_pitch(spec, cfg.mel_bins, cfg.fmin, cfg.fmax)


def _load_eval_input(path, cfg: RunConfig):
    """Returns (mel magnitudes (T, mel_bins), PitchTrack)."""
    path = str(path)
    if path.endswith(".wav"):
        audio = dsp.load_wav(path)
        if audio.samples.size == 0:
            raise ConfigError(f"{path}: WAV file has no samples to evaluate")
        if audio.sample_rate != cfg.sample_rate:
            raise ConfigError(
                f"{path}: sample rate {audio.sample_rate} != config's {cfg.sample_rate}"
            )
        stft_cfg = dsp.StftConfig(cfg.fft_size, cfg.win_size, cfg.hop_size)
        spec = dsp.stft(audio, stft_cfg)
        mel = dsp.mel_project(spec, cfg.mel_bins, cfg.fmin, cfg.fmax)
        track = dsp.estimate_f0(audio, stft_cfg)
        return mel.data, track
    data, meta = load_matrix(path)
    if meta.get("kind") != "mel":
        raise ConfigError(f"{path}: expected a WAV file or a mel feature file")
    if len(data) == 0:
        raise ConfigError(f"{path}: mel feature file has no frames to evaluate")
    for key, want in (("sample_rate", cfg.sample_rate), ("hop", cfg.hop_size)):
        if meta.get(key, want) != want:
            raise ConfigError(f"{path}: mel feature file's {key} {meta[key]} != config's {want}")
    mel = data.astype(np.float64)
    return mel, _mel_pitch(mel, cfg)


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
    write_json(out_path, asdict(report))
    return report
