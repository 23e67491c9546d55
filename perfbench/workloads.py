"""The benchmark's workloads: set-up, one round of operations, and checks.

Every workload runs on the 3-song seed-0 corpus with the default config.
The benchmark seed picks the seed of the training run that `codec_adv` or
`latent_u` times and the sampler seeds of `sample`. It never changes the
corpus or the set-up checkpoints, so every seed gives the same frame
counts, step shapes and set-up work.
"""
from __future__ import annotations

import math
import os

import numpy as np

import checks
from minisvs import condition as cond_mod
from minisvs import corpus, diffusion, losses, rvq, train
from minisvs.config import RunConfig
from minisvs.fileio import load_matrix

SONGS = 3
CORPUS_SEED = 0
# recon L1 reaches half its first-step value after about 250-350 steps,
# depending on the seed; 400 leaves room on every seed tried
CODEC_STEPS = 400
# L_diff halves within about 40 steps
LATENT_STEPS = 80
UNLABELED_RATIO = 0.34
# the set-up checkpoints only have to be valid inputs, not good models
SETUP_CODEC_STEPS = 20
SETUP_LATENT_STEPS = 30
SETUP_SEED = 0
SAMPLER_SEEDS = 2
# recon L1 over the last 50 logged steps: its spread over seeds is about
# 8%, against 12% over the last 20 and 13% for the whole corpus
LOG_TAIL = 50
EVAL_TIMES = np.linspace(0.05, 1.0, 20)
EVAL_NOISE_SEED = 0


def _paths(d):
    return {
        "corpus": os.path.join(d, "corpus"),
        "codec": os.path.join(d, "codec", "codec.ckpt"),
        "latent": os.path.join(d, "latent", "latent.ckpt"),
    }


def _song_files(corpus_dir, i):
    return (os.path.join(corpus_dir, f"song{i:03d}.score.json"),
            os.path.join(corpus_dir, f"song{i:03d}.wav"))


def eval_diffusion_loss(latent_ckpt: str, codec_ckpt: str, corpus_dir: str) -> float:
    """L_diff of a latent checkpoint at fixed draws: every song, a fixed t grid and noise.

    The training log draws one random t per step, so its L_diff swings by a
    factor of two from step to step. This is the same lambda-weighted
    score-matching error, lam_t * mean over frames of |s - target|^2, with
    the transition written out from the schedule and the networks used as
    black boxes.
    """
    models, cfg, meta, (mean, std) = train.load_latent_checkpoint(latent_ckpt)
    codec, _, _ = train.load_codec_checkpoint(codec_ckpt)
    songs, _ = corpus.load_corpus(corpus_dir, cfg)
    rng = np.random.default_rng(EVAL_NOISE_SEED)
    errors = []
    for song in songs:
        z0 = (codec.encoder(song.logmel).data.astype(np.float64) - mean) / std
        fc = models.cond.condition(song.grid, bool(meta["enhanced"]))
        mu = fc.mu_hat.data.astype(np.float64)
        for t in EVAL_TIMES:
            integral = cfg.beta0 * t + 0.5 * (cfg.betaT - cfg.beta0) * t * t
            lam = 1.0 - math.exp(-integral)
            rho = mu + math.exp(-0.5 * integral) * (z0 - mu)
            eps = rng.standard_normal(z0.shape)
            score = models.score(rho + math.sqrt(lam) * eps, mu, fc.h_cond.data, t).data
            errors.append(lam * ((score + eps / math.sqrt(lam)) ** 2).sum(axis=-1).mean())
    return float(np.mean(errors))


class Workload:
    name = ""
    min_rounds = 1
    step_span = "nn.adamw"

    def __init__(self, seed: int, setup_dir: str, out_dir: str):
        self.cfg = RunConfig()
        self.seed = seed
        self.p = _paths(setup_dir)
        self.out = out_dir

    @classmethod
    def prepare(cls, d: str) -> list[str]:
        """The set-up; runs in its own process. Returns the files it made."""
        cfg = RunConfig()
        p = _paths(d)
        corpus.gen_corpus(p["corpus"], SONGS, CORPUS_SEED, cfg)
        # loading is part of the set-up time, and it checks audio against scores
        corpus.load_corpus(p["corpus"], cfg)
        made = sorted(os.path.join(p["corpus"], f) for f in os.listdir(p["corpus"]))
        if cls.name in ("latent_u", "sample"):
            made += train.train_codec(cfg, p["corpus"], os.path.dirname(p["codec"]),
                                      steps=SETUP_CODEC_STEPS, seed=SETUP_SEED)
        if cls.name == "sample":
            made += train.train_latent(cfg, p["corpus"], p["codec"], os.path.dirname(p["latent"]),
                                       steps=SETUP_LATENT_STEPS, seed=SETUP_SEED)
        return made

    def sample_and_score(self, song: int, sampler_seed: int, latent_ckpt: str, out: str):
        """sample_score then evaluate_files against the song's WAV."""
        score, wav = _song_files(self.p["corpus"], song)
        paths = train.sample_score(score, self.p["codec"], latent_ckpt, out, seed=sampler_seed)
        report = train.evaluate_files(wav, paths[1], os.path.join(out, "eval.json"), self.cfg)
        return paths, report


class CodecAdv(Workload):
    name = "codec_adv"
    steps_per_op = CODEC_STEPS

    def round_ops(self):
        def op():
            paths = train.train_codec(self.cfg, self.p["corpus"], os.path.join(self.out, "codec"),
                                      steps=CODEC_STEPS, seed=self.seed, adversarial=True)
            return paths, None
        return [("train_codec", op)]

    def check(self, results):
        (ckpt, log_path), _ = results["train_codec"]
        log = train.read_loss_log(log_path)
        models, cfg, _ = train.load_codec_checkpoint(ckpt)
        songs, _ = corpus.load_corpus(self.p["corpus"], cfg)
        z = models.encoder(songs[0].logmel).data.astype(np.float64)
        codes = rvq.encode(models.coder, z)
        bits = os.path.join(self.out, "song000.hsc")
        rvq.write_bitstream(bits, codes, cfg.sample_rate, cfg.hop_size)
        read, sr, hop = rvq.read_bitstream(bits)
        rng = np.random.default_rng(self.seed)
        problems = [
            checks.falls_by_half(log["recon"], 1, LOG_TAIL, "recon L1"),
            checks.losses_finite(log, nonnegative=("lyrics", "note")),
            checks.codebooks_pin_zero(models.coder),
            checks.distortion_non_increasing(models.coder, z, codes),
            checks.codes_equal(codes, read, (cfg.sample_rate, cfg.hop_size), (sr, hop)),
            checks.ctc_matches_enumeration(
                lambda lp, labels, a: losses.ctc_loss(lp, losses.CtcTarget(labels, a)), rng),
        ]
        # what a user hears from this codec: WAV -> HSC1 -> mel, against the WAV
        maes = []
        for i in range(SONGS):
            _, wav = _song_files(self.p["corpus"], i)
            mel = os.path.join(self.out, f"song{i:03d}.mel")
            train.encode_wav(ckpt, wav, bits)
            train.decode_bitstream(ckpt, bits, mel)
            maes.append(train.evaluate_files(wav, mel, mel + ".eval.json", cfg).mae)
        return problems, float(log["recon"][-LOG_TAIL:].mean()), float(np.mean(maes))


class LatentU(Workload):
    name = "latent_u"
    steps_per_op = LATENT_STEPS

    def round_ops(self):
        def op():
            paths = train.train_latent(self.cfg, self.p["corpus"], self.p["codec"],
                                       os.path.join(self.out, "latent"), steps=LATENT_STEPS,
                                       seed=self.seed, unlabeled_ratio=UNLABELED_RATIO)
            return paths, None
        return [("train_latent", op)]

    def check(self, results):
        (ckpt, log_path), _ = results["train_latent"]
        log = train.read_loss_log(log_path)
        codec, cfg, _ = train.load_codec_checkpoint(self.p["codec"])
        songs, _ = corpus.load_corpus(self.p["corpus"], cfg)
        latents = [codec.encoder(s.logmel).data.astype(np.float64) for s in songs]
        _, _, _, (mean, std) = train.load_latent_checkpoint(ckpt)
        problems = [
            checks.falls_by_half(log["diff"], 10, 10, "L_diff"),
            checks.losses_finite(log),
            checks.contrastive_on_supervised_steps(log),
            checks.unsupervised_grad_positive(log),
            checks.latent_stats_match(mean, std, latents),
        ]
        # what a user hears from this model: one sample per song, against its WAV
        maes = [self.sample_and_score(i, self.seed, ckpt, os.path.join(self.out, f"s{i}"))[1].mae
                for i in range(SONGS)]
        return problems, eval_diffusion_loss(ckpt, self.p["codec"], self.p["corpus"]), float(np.mean(maes))


class Sample(Workload):
    name = "sample"
    min_rounds = 2  # the second round must repeat the first byte for byte
    step_span = "nn.scorenet"

    @property
    def steps_per_op(self):
        return self.cfg.steps

    def pairs(self):
        return [(i, self.seed * SAMPLER_SEEDS + k) for i in range(SONGS) for k in range(SAMPLER_SEEDS)]

    def round_ops(self):
        def op(i, s):
            return lambda: self.sample_and_score(i, s, self.p["latent"],
                                                 os.path.join(self.out, f"song{i}-seed{s}"))
        return [(f"song{i}-seed{s}", op(i, s)) for i, s in self.pairs()]

    def check(self, results):
        models, cfg, meta, (mean, std) = train.load_latent_checkpoint(self.p["latent"])
        table = {str(k): int(v) for k, v in meta["phoneme_table"].items()}

        def score_fn(z, m, h, t):
            return models.score(z, m, h, t).data

        problems = []
        for i, s in self.pairs():
            (latent_path, _, _), _ = results[f"song{i}-seed{s}"]
            score, _ = _song_files(self.p["corpus"], i)
            grid = cond_mod.expand_score(cond_mod.load_score(score, table), cfg.hop_size, cfg.sample_rate)
            fc = models.cond.condition(grid, bool(meta["enhanced"]))
            z = checks.euler_maruyama(score_fn, fc.mu_hat.data, fc.h_cond.data, cfg.beta0, cfg.betaT,
                                      cfg.steps, cfg.tau, s)
            z0 = z * std.astype(np.float64) + mean.astype(np.float64)
            # the program stores the latent as f32; 1e-4 covers that rounding
            problems.append(checks.arrays_close(z0, load_matrix(latent_path)[0], 1e-4,
                                                f"sampled latent of song {i}, seed {s}"))
        sched = diffusion.NoiseSchedule(cfg.beta0, cfg.betaT)
        problems.append(checks.gaussian_recovery(
            lambda fn, mu, steps, tau, seed: diffusion.reverse_sample(
                fn, mu, None, sched, diffusion.SamplerConfig(steps=steps, tau=tau, seed=seed)),
            cfg.beta0, cfg.betaT))
        _, wav = _song_files(self.p["corpus"], 0)
        problems.append(checks.self_evaluation(
            train.evaluate_files(wav, wav, os.path.join(self.out, "self.json"), cfg)))
        maes = [report.mae for _, report in results.values()]
        final_diff = eval_diffusion_loss(self.p["latent"], self.p["codec"], self.p["corpus"])
        return problems, final_diff, float(np.mean(maes))


WORKLOADS = {w.name: w for w in (CodecAdv, LatentU, Sample)}
