"""Command-line surface.

    minisvs gen-corpus    synthetic WAV + score pairs
    minisvs train-codec   mel autoencoder + RVQ training
    minisvs codec         encode WAV -> bitstream / decode bitstream -> mel
    minisvs train-latent  condition + score network training
    minisvs sample        score JSON -> latent -> decoded mel + report
    minisvs evaluate      objective metrics between two inputs
    minisvs selfcheck     numerical self-verification suites

Exit codes: 0 success, 1 usage, 2 validation/format, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import corpus, diffusion, losses, rvq, train
from .autodiff import NumericalError, Tensor, gradient_check
from .condition import ConditionNet, FrameGrid
from .config import ConfigError, RunConfig, load_config
from .nn import ScoreNet


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_config(p):
    p.add_argument("--config", help="JSON config file (defaults apply when omitted)")


def _cfg_from(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return RunConfig()


def build_parser() -> _Parser:
    parser = _Parser(prog="minisvs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--songs", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_config(p)

    p = sub.add_parser("train-codec", help="train the mel codec")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--adversarial", action="store_true",
                   help="default: off, or the resumed checkpoint's")
    p.add_argument("--resume")
    _add_config(p)

    p = sub.add_parser("codec", help="bitstream encode/decode")
    codec_sub = p.add_subparsers(dest="codec_command", required=True)
    enc = codec_sub.add_parser("encode")
    enc.add_argument("--checkpoint", required=True)
    enc.add_argument("--wav", required=True)
    enc.add_argument("--out", required=True)
    dec = codec_sub.add_parser("decode")
    dec.add_argument("--checkpoint", required=True)
    dec.add_argument("--bitstream", required=True)
    dec.add_argument("--out", required=True)
    dec.add_argument("--quantizers", type=int)

    p = sub.add_parser("train-latent", help="train the latent generator")
    p.add_argument("--corpus", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--unlabeled-ratio", type=float,
                   help="default: 0, or the resumed checkpoint's")
    p.add_argument("--prior", choices=("data", "standard"),
                   help="default: data, or the resumed checkpoint's")
    p.add_argument("--target", choices=("z0", "zq"),
                   help="default: z0, or the resumed checkpoint's")
    p.add_argument("--no-enhanced-ce", action="store_true",
                   help="default: enhanced, or the resumed checkpoint's")
    p.add_argument("--resume")
    _add_config(p)

    p = sub.add_parser("sample", help="sample a latent from a score and decode")
    p.add_argument("--score", required=True)
    p.add_argument("--codec", required=True)
    p.add_argument("--latent", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", choices=("z0", "zq"),
                   help="default: the latent checkpoint's training target")
    _add_config(p)  # sampler knobs only; the architecture follows the checkpoints

    p = sub.add_parser("evaluate", help="objective metrics between two inputs")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gt-pitch")
    p.add_argument("--pred-pitch")
    _add_config(p)

    sub.add_parser("selfcheck", help="run the numerical verification suites")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "gen-corpus":
        corpus.gen_corpus(args.out, args.songs, args.seed, _cfg_from(args))
        print(f"wrote {args.songs} songs to {args.out}")
        return 0
    if args.command == "train-codec":
        ckpt, log = train.train_codec(
            _cfg_from(args),
            args.corpus,
            args.out,
            steps=args.steps,
            seed=args.seed,
            adversarial=True if args.adversarial else None,
            resume=args.resume,
        )
        print(f"checkpoint: {ckpt}\nloss log: {log}")
        return 0
    if args.command == "codec":
        if args.codec_command == "encode":
            train.encode_wav(args.checkpoint, args.wav, args.out)
            print(f"bitstream: {args.out}")
        else:
            train.decode_bitstream(args.checkpoint, args.bitstream, args.out, args.quantizers)
            print(f"mel features: {args.out}")
        return 0
    if args.command == "train-latent":
        ckpt, log = train.train_latent(
            _cfg_from(args),
            args.corpus,
            args.codec,
            args.out,
            steps=args.steps,
            seed=args.seed,
            unlabeled_ratio=args.unlabeled_ratio,
            prior_mode=args.prior,
            target_kind=args.target,
            enhanced=False if args.no_enhanced_ce else None,
            resume=args.resume,
        )
        print(f"checkpoint: {ckpt}\nloss log: {log}")
        return 0
    if args.command == "sample":
        steps, tau = args.steps, args.tau
        if args.config:
            cfg = load_config(args.config)
            steps = cfg.steps if steps is None else steps
            tau = cfg.tau if tau is None else tau
        latent, mel, report = train.sample_score(
            args.score,
            args.codec,
            args.latent,
            args.out,
            steps=steps,
            tau=tau,
            seed=args.seed,
            target_kind=args.target,
        )
        print(f"latent: {latent}\nmel: {mel}\nreport: {report}")
        return 0
    if args.command == "evaluate":
        report = train.evaluate_files(
            args.gt, args.pred, args.out, _cfg_from(args), args.gt_pitch, args.pred_pitch
        )
        print(
            f"mae={report.mae:.6f} pitch={report.pitch_cents_rmse:.3f} "
            f"periodicity={report.periodicity_rmse:.6f} vuv_f1={report.vuv_f1:.4f}"
        )
        return 0
    if args.command == "selfcheck":
        results = run_selfcheck()
        failed = [name for name, ok, _ in results if not ok]
        return 0 if not failed else 3
    raise ConfigError(f"unknown command {args.command}")


# -- selfcheck -----------------------------------------------------------------


def run_selfcheck(verbose: bool = True):
    """Runs SELFCHECK_SUITES; returns [(name, passed, detail)]."""
    results = []
    for name, fn in SELFCHECK_SUITES:
        start = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed suite is a failed suite
            ok, detail = False, f"exception: {exc}"
        elapsed = time.time() - start
        results.append((name, ok, detail))
        if verbose:
            state = "PASS" if ok else "FAIL"
            print(f"[{state}] {name} ({elapsed:.1f}s): {detail}")
    return results


def _suite_gradient_checks():
    rng = np.random.default_rng(0)
    worst = 0.0
    score = ScoreNet(6, 8, width=16, blocks=2, time_dim=8, rng=rng, dtype=np.float64)
    z = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    mu = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    h = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    probe = np.random.default_rng(1).standard_normal((5, 6))
    tensors = [z, mu, h] + [p for _, p in score.params()]
    worst = max(
        worst,
        gradient_check(
            lambda: (score(z, mu, h, 0.37) * probe).sum(),
            tensors,
            n_points=4,
            rng=np.random.default_rng(2),
        ),
    )
    net = ConditionNet(9, 6, feature_dim=5, embed_dim=12, rng=rng, dtype=np.float64)
    grid = FrameGrid(
        phoneme=np.array([1, 1, 2, 3, 0]),
        midi=np.array([60, 60, 64, 67, 0]),
        dur_token=np.array([8, 8, 8, 16, 2]),
        tempo_token=np.array([120] * 5),
        note_spans=[(0, 5)],
        note_midi=[60],
    )
    probe2 = np.random.default_rng(3).standard_normal((5, 6))

    def cond_loss():
        fc = net.condition(grid)
        return (fc.mu_hat * probe2).sum() + (fc.h_cond * fc.h_cond).mean()

    worst = max(
        worst,
        gradient_check(
            cond_loss, [p for _, p in net.params()], n_points=4, rng=np.random.default_rng(4)
        ),
    )
    # the contrastive loss has a hand-written backward; two windows, float64
    h = Tensor(rng.standard_normal((2, 6, 5)), requires_grad=True)
    h_tilde = Tensor(rng.standard_normal((2, 6, 5)), requires_grad=True)
    negatives = np.stack([losses.draw_negatives(6, 3, rng) for _ in range(2)])
    worst = max(
        worst,
        gradient_check(
            lambda: losses.contrastive_loss(h, h_tilde, negatives, 0.5),
            [h, h_tilde],
            n_points=8,
            rng=np.random.default_rng(6),
        ),
    )
    ok = worst < 1e-4
    return ok, f"max rel err {worst:.2e} (tolerance 1e-4)"


def _suite_ctc():
    import itertools

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(30):
        t_len = int(rng.integers(2, 6))
        a_len = int(rng.integers(1, 4))
        logits = rng.standard_normal((t_len, a_len + 1))
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        labels = tuple(int(x) for x in rng.integers(1, a_len + 1, size=rng.integers(1, 3)))
        try:
            dp = losses.ctc_loss(logp, losses.CtcTarget(labels, a_len))
        except ValueError:
            continue  # target infeasible for this frame count
        total = -np.inf
        for path in itertools.product(range(a_len + 1), repeat=t_len):
            out, prev = [], None
            for s in path:
                if s != prev and s != 0:
                    out.append(s)
                prev = s
            if tuple(out) == labels:
                total = np.logaddexp(total, sum(logp[i, s] for i, s in enumerate(path)))
        worst = max(worst, abs(dp - (-total)))
    ok = worst < 1e-10
    return ok, f"max |DP - enumeration| = {worst:.2e} (tolerance 1e-10)"


def _suite_rvq():
    rng = np.random.default_rng(6)
    books = []
    for c in range(8):
        entries = rng.standard_normal((16, 6)).astype(np.float32) * (0.8**c)
        entries[0] = 0.0
        books.append(rvq.Codebook(entries))
    coder = rvq.RvqCoder(books, pin_zero=True)
    z = rng.standard_normal((200, 6))
    codes = rvq.encode(coder, z)
    prev = None
    monotone = True
    for c_use in range(1, 9):
        err = float(((z - rvq.decode(coder, codes, c_use)) ** 2).mean())
        if prev is not None and err > prev + 1e-12:
            monotone = False
        prev = err
    codes2 = rvq.encode(coder, z)
    deterministic = np.array_equal(codes.indices, codes2.indices)
    ok = monotone and deterministic
    return ok, f"distortion monotone={monotone}, encode deterministic={deterministic}"


def _suite_forward_moments():
    sched = diffusion.NoiseSchedule()
    rng = np.random.default_rng(7)
    z0 = np.array([[0.5, -1.0, 2.0, 1.6]])
    mu = np.array([[1.5, -2.0, 1.0, 0.8]])
    n = 100_000
    worst = 0.0
    for t_end in (0.25, 0.5, 1.0):
        eps = rng.standard_normal((n, 4))
        z_t, _ = diffusion.forward_sample(
            sched, np.repeat(z0, n, 0), np.repeat(mu, n, 0), t_end, eps
        )
        sim = np.repeat(z0, n, 0)
        n_steps = 1000
        h = t_end / n_steps
        sim_rng = np.random.default_rng(8)
        for i in range(n_steps):
            beta = diffusion.beta_at(sched, i * h)
            sim = sim + 0.5 * (mu - sim) * beta * h + math.sqrt(beta * h) * sim_rng.standard_normal(sim.shape)
        mean_err = float(np.max(np.abs(z_t.mean(0) - sim.mean(0)) / np.abs(sim.mean(0))))
        var_err = abs(z_t.var(0).mean() - sim.var(0).mean()) / sim.var(0).mean()
        worst = max(worst, mean_err, float(var_err))
    ok = worst < 0.02
    return ok, f"max closed-form vs Euler-Maruyama moment error {worst:.4f} (tolerance 0.02)"


def _suite_gaussian_sampler():
    sched = diffusion.NoiseSchedule()
    sigma = 0.5
    mu_row = np.array([1.0, -0.5, 0.3, 2.0])
    n = 10_000
    mu = np.repeat(mu_row[None, :], n, 0)

    def analytic(z, m, h, t):
        ib = diffusion.integral_beta(sched, 0.0, t)
        lam = 1.0 - math.exp(-ib)
        var = math.exp(-ib) * sigma**2 + lam
        return -(z - m) / var

    out = diffusion.reverse_sample(
        analytic, mu, None, sched, diffusion.SamplerConfig(steps=200, tau=1.0, seed=9)
    )
    mean_err = float(np.max(np.abs(out.mean(0) - mu_row)))
    std_err = float(np.max(np.abs(out.std(0) - sigma) / sigma))
    ok = mean_err < 0.02 and std_err < 0.05
    return ok, f"|mean err| {mean_err:.4f} (<0.02), std rel err {std_err:.4f} (<0.05)"


SELFCHECK_SUITES = (
    ("gradient-checks", _suite_gradient_checks),
    ("ctc-brute-force", _suite_ctc),
    ("rvq-monotonicity", _suite_rvq),
    ("forward-moments", _suite_forward_moments),
    ("gaussian-reverse-sampler", _suite_gaussian_sampler),
)


if __name__ == "__main__":
    sys.exit(main())
