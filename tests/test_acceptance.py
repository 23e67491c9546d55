"""Acceptance criteria, one test per criterion, tolerances pinned inline.

Training-heavy criteria share session fixtures (corpus, trained codec,
trained latent generator), so run order inside this module matters for
wall-clock but not correctness. Each criterion prints one PASS/FAIL line;
run with `pytest -s tests/test_acceptance.py` to watch them live.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from minisvs import cli, corpus, diffusion, dsp, fileio, losses, metrics, rvq, train
from minisvs.autodiff import Tensor, conv1d3, embedding, gradient_check, log_softmax
from minisvs.condition import ConditionNet, FrameGrid
from minisvs.config import RunConfig, config_from_dict
from minisvs.nn import Conv3, Embedding, GatedConvBlock, Linear, ScoreNet

SCHED = diffusion.NoiseSchedule()


def _report(criterion: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {state}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def acc_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory, acc_cfg):
    out = tmp_path_factory.mktemp("acc_corpus")
    corpus.gen_corpus(out, 3, seed=0, cfg=acc_cfg)
    return out


@pytest.fixture(scope="session")
def codec_run(tmp_path_factory, acc_cfg, corpus_dir):
    out = tmp_path_factory.mktemp("acc_codec")
    ckpt, log = train.train_codec(acc_cfg, corpus_dir, out, steps=2000, seed=0)
    return ckpt, log


@pytest.fixture(scope="session")
def latent_run(tmp_path_factory, acc_cfg, corpus_dir, codec_run):
    out = tmp_path_factory.mktemp("acc_latent")
    ckpt, log = train.train_latent(acc_cfg, corpus_dir, codec_run[0], out, steps=5000, seed=0)
    return ckpt, log


def test_c01_schedule_closed_form():
    closed = diffusion.integral_beta(SCHED, 0.0, 1.0)
    ts = np.linspace(0.0, 1.0, 2_000_001)
    quad = float(np.trapezoid(0.05 + (20.0 - 0.05) * ts, ts))
    rel = abs(closed - quad) / quad
    _report(
        "C1",
        abs(closed - 10.025) < 1e-12 and rel < 1e-10,
        f"integral 0..1 of beta = {closed} (want 10.025), quadrature rel err {rel:.2e} < 1e-10",
    )


def test_c02_forward_process_moments_vs_euler_maruyama():
    z0 = np.array([[0.5, -1.0, 2.0, 1.6]])
    mu = np.array([[1.5, -2.0, 1.0, 0.8]])
    n = 100_000
    worst = 0.0
    for t_end in (0.25, 0.5, 1.0):
        eps = np.random.default_rng(2).standard_normal((n, 4))
        z_t, _ = diffusion.forward_sample(
            SCHED, np.repeat(z0, n, 0), np.repeat(mu, n, 0), t_end, eps
        )
        sim = np.repeat(z0, n, 0)
        steps = 1000
        h = t_end / steps
        rng = np.random.default_rng(3)
        for i in range(steps):
            beta = diffusion.beta_at(SCHED, i * h)
            sim = sim + 0.5 * (mu - sim) * beta * h + math.sqrt(beta * h) * rng.standard_normal(sim.shape)
        mean_err = float(np.max(np.abs(z_t.mean(0) - sim.mean(0)) / np.abs(sim.mean(0))))
        var_err = float(abs(z_t.var(0).mean() - sim.var(0).mean()) / sim.var(0).mean())
        worst = max(worst, mean_err, var_err)
    _report("C2", worst < 0.02, f"max moment error vs 1000-step simulation {worst:.4f} < 0.02")


def test_c03_reverse_sampler_gaussian_oracle():
    sigma = 0.5
    mu_row = np.array([1.0, -0.5, 0.3, 2.0])
    n = 10_000
    mu = np.repeat(mu_row[None, :], n, 0)

    def analytic(z, m, h, t):
        ib = diffusion.integral_beta(SCHED, 0.0, t)
        lam = 1.0 - math.exp(-ib)
        return -(z - m) / (math.exp(-ib) * sigma**2 + lam)

    def run(steps):
        out = diffusion.reverse_sample(
            analytic, mu, None, SCHED, diffusion.SamplerConfig(steps=steps, tau=1.0, seed=9)
        )
        mean_err = float(np.max(np.abs(out.mean(0) - mu_row)))
        std_err = float(np.max(np.abs(out.std(0) - sigma) / sigma))
        return mean_err, std_err

    m200, s200 = run(200)
    m20, s20 = run(20)
    ok = m200 < 0.02 and s200 < 0.05 and (m200 + s200) < (m20 + s20)
    _report(
        "C3",
        ok,
        f"N=200: |mean err| {m200:.4f} < 0.02, std rel err {s200:.4f} < 0.05; "
        f"N=20 combined err {m20 + s20:.4f} > N=200 {m200 + s200:.4f}",
    )


def test_c04_gradient_checks_layers_and_networks():
    rng = np.random.default_rng(0)
    worst = {}

    lin = Linear(6, 5, rng, np.float64)
    x = Tensor(rng.standard_normal((7, 6)), requires_grad=True)
    probe = rng.standard_normal((7, 5))
    worst["linear"] = gradient_check(
        lambda: ((lin(x)) * probe).sum(), [x, lin.w, lin.b], 10, rng=np.random.default_rng(1)
    )

    conv = Conv3(5, 5, rng, np.float64)
    xc = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
    worst["conv3"] = gradient_check(
        lambda: (conv1d3(xc, conv.w, conv.b) * probe).sum(),
        [xc, conv.w, conv.b], 10, rng=np.random.default_rng(2),
    )

    emb = Embedding(9, 6, rng, np.float64)
    ids = rng.integers(0, 9, size=7)
    probe6 = rng.standard_normal((7, 6))
    worst["embedding"] = gradient_check(
        lambda: (embedding(emb.table, ids) * probe6).sum(),
        [emb.table], 10, rng=np.random.default_rng(3),
    )

    blk = GatedConvBlock(5, rng, time_dim=6, dtype=np.float64)
    temb = Tensor(rng.standard_normal(6), requires_grad=True)
    worst["gated_block"] = gradient_check(
        lambda: (blk(xc, temb) * probe).sum(),
        [xc, temb] + [p for _, p in blk.params("b")], 10, rng=np.random.default_rng(4),
    )

    worst["log_softmax"] = gradient_check(
        lambda: (log_softmax(lin(x), axis=-1) * probe).sum(),
        [x, lin.w, lin.b], 10, rng=np.random.default_rng(5),
    )

    score = ScoreNet(5, 7, width=12, blocks=2, time_dim=8, rng=rng, dtype=np.float64)
    z = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    m = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    h = Tensor(rng.standard_normal((6, 7)), requires_grad=True)
    probe_s = rng.standard_normal((6, 5))
    worst["score_net"] = gradient_check(
        lambda: (score(z, m, h, 0.41) * probe_s).sum(),
        [z, m, h] + [p for _, p in score.params()], 10, rng=np.random.default_rng(6),
    )

    cnet = ConditionNet(9, 5, feature_dim=4, embed_dim=10, rng=rng, dtype=np.float64)
    grid = FrameGrid(
        phoneme=np.array([1, 2, 2, 0, 3, 1]),
        midi=np.array([60, 60, 64, 0, 67, 60]),
        dur_token=np.array([8, 8, 8, 2, 16, 8]),
        tempo_token=np.array([120] * 6),
        note_spans=[(0, 6)],
        note_midi=[60],
    )
    probe_c = rng.standard_normal((6, 5))
    worst["condition_net"] = gradient_check(
        lambda: (cnet.condition(grid).mu_hat * probe_c).sum()
        + (cnet.condition(grid).h_cond ** 2.0).mean(),
        [p for _, p in cnet.params()], 10, rng=np.random.default_rng(7),
    )

    overall = max(worst.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report("C4", overall < 1e-4, f"max rel err {overall:.2e} < 1e-4 ({detail})")


def test_c05_ctc_dp_vs_enumeration():
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    while checked < 50:
        t_len = int(rng.integers(2, 6))
        a_len = int(rng.integers(1, 4))
        logits = rng.standard_normal((t_len, a_len + 1))
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        labels = tuple(int(v) for v in rng.integers(1, a_len + 1, size=rng.integers(1, 4)))
        try:
            dp = losses.ctc_loss(logp, losses.CtcTarget(labels, a_len))
        except ValueError:
            continue
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
        checked += 1
    _report("C5", worst < 1e-10, f"50 instances, max |DP - enumeration| {worst:.2e} < 1e-10")


@pytest.mark.slow
def test_c06_rvq_properties_on_trained_codec(acc_cfg, corpus_dir, codec_run):
    models, cfg, _ = train.load_codec_checkpoint(codec_run[0])
    songs, _ = corpus.load_corpus(corpus_dir, cfg)
    z = models.encoder(songs[0].logmel).data.astype(np.float64)

    for cb in models.coder.codebooks:
        assert np.all(cb.entries[0] == 0.0), "trained codebooks must contain the zero vector"
    codes = rvq.encode(models.coder, z)
    errs = [
        float(((z - rvq.decode(models.coder, codes, c)) ** 2).mean()) for c in range(1, 9)
    ]
    monotone = all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    codes2 = rvq.encode(models.coder, z)
    deterministic = np.array_equal(codes.indices, codes2.indices) and np.array_equal(
        rvq.decode(models.coder, codes), rvq.decode(models.coder, codes2)
    )

    _, _, residuals, selected = rvq.encode_detailed(models.coder, z)
    direct = sum(
        float(((residuals[c] - selected[c]) ** 2).sum(axis=1).mean())
        for c in range(models.coder.n_quantizers)
    )
    commit_gap = abs(rvq.commitment_loss(residuals, selected) - direct)

    ok = monotone and deterministic and commit_gap < 1e-10
    _report(
        "C6",
        ok,
        f"distortion C=1..8 {['%.4f' % e for e in errs]} non-increasing={monotone}, "
        f"roundtrip deterministic={deterministic}, commitment gap {commit_gap:.2e} < 1e-10",
    )


def _pitch_track_via_estimate_f0(mel_path, cfg):
    """Resynthesize the mel's dominant-pitch contour and re-track it with
    the autocorrelation estimator, the stated oracle."""
    mel, _ = fileio.load_matrix(mel_path)
    stft_cfg = dsp.StftConfig(cfg.fft_size, cfg.win_size, cfg.hop_size)
    peak = dsp.mel_peak_pitch(mel.astype(np.float64), cfg.fmin, cfg.fmax)
    f0 = np.repeat(peak.f0, cfg.hop_size)
    voiced = np.repeat(peak.voiced, cfg.hop_size)
    phase = np.cumsum(2.0 * np.pi * f0 / cfg.sample_rate)
    audio = dsp.AudioBuffer(0.4 * np.sin(phase) * voiced, cfg.sample_rate)
    track = dsp.estimate_f0(audio, stft_cfg)
    # center-padded framing yields one extra frame on exact-multiple lengths
    return dsp.PitchTrack(
        track.f0[: peak.f0.size], track.periodicity[: peak.f0.size]
    )


@pytest.mark.slow
def test_c07_toy_end_to_end(acc_cfg, corpus_dir, codec_run, latent_run, tmp_path_factory):
    codec_log = train.read_loss_log(codec_run[1])
    recon = codec_log["recon"]
    drop = 1.0 - recon[-100:].mean() / recon[0]

    latent_log = train.read_loss_log(latent_run[1])
    diff = latent_log["diff"]
    ratio = diff[-100:].mean() / diff[:100].mean()

    out_root = tmp_path_factory.mktemp("acc_samples")
    models, lcfg, meta, _ = train.load_latent_checkpoint(latent_run[0])
    score_path = str(corpus_dir / "song000.score.json")
    fracs = []
    tracks = []
    for seed in range(5):
        _, mel_path, rep_path = train.sample_score(
            score_path, codec_run[0], latent_run[0], out_root / f"s{seed}",
            steps=50, tau=1.5, seed=seed,
        )
        report = json.loads(open(rep_path).read())
        track = _pitch_track_via_estimate_f0(mel_path, lcfg)
        tracks.append(track)
        from minisvs import condition as cond_mod

        table = {k: int(v) for k, v in meta["phoneme_table"].items()}
        grid = cond_mod.expand_score(
            cond_mod.load_score(score_path, table), lcfg.hop_size, lcfg.sample_rate
        )
        within = scored = 0
        for (a, b), midi in zip(grid.note_spans, grid.note_midi):
            if midi == 0:
                continue
            seg = track.f0[a:b][track.voiced[a:b]]
            scored += 1
            if seg.size:
                med = float(np.median(seg))
                cents = abs(1200.0 * math.log2(med / dsp.midi_to_hz(midi)))
                within += cents <= 100.0
        fracs.append(within / scored)

    pair_diffs = []
    for a, b in itertools.combinations(range(5), 2):
        both = tracks[a].voiced & tracks[b].voiced
        pair_diffs.append(float(np.abs(tracks[a].f0[both] - tracks[b].f0[both]).mean()))

    ok = (
        drop >= 0.60
        and ratio < 0.5
        and all(f >= 0.8 for f in fracs)
        and all(d > 0 for d in pair_diffs)
    )
    _report(
        "C7",
        ok,
        f"codec recon drop {drop:.1%} >= 60%; L_diff final/initial {ratio:.3f} < 0.5; "
        f"notes within 100 cents per seed {['%.0f%%' % (f * 100) for f in fracs]} >= 80%; "
        f"contours vary across seeds (mean |df0| {min(pair_diffs):.2f}..{max(pair_diffs):.2f} Hz > 0)",
    )


@pytest.mark.slow
def test_c08_ablation_prior_direction(acc_cfg, corpus_dir, codec_run, tmp_path_factory):
    # Table-VI-style desk ablation exactly as specified: same seed/corpus,
    # 5000 steps per run, ordering by logged L_diff, majority over 3 seeds.
    out_root = tmp_path_factory.mktemp("acc_ablation")
    cfg = config_from_dict({"batch": 1})
    wins = 0
    lines = []
    for seed in (0, 1, 2):
        tails = {}
        for mode in ("data", "standard"):
            _, log = train.train_latent(
                cfg, corpus_dir, codec_run[0], out_root / f"{mode}{seed}",
                steps=5000, seed=seed, prior_mode=mode,
            )
            tails[mode] = float(train.read_loss_log(log)["diff"][-200:].mean())
        wins += tails["standard"] >= tails["data"]
        lines.append(
            f"seed {seed}: L_diff data={tails['data']:.4f} standard={tails['standard']:.4f}"
        )
    detail = "; ".join(lines) + f"; standard >= data on {wins}/3 seeds (need majority)"
    _report("C8", wins >= 2, detail)


def test_c09_metric_unit_values():
    gt = dsp.PitchTrack([440.0, 440.0], [1.0, 1.0])
    octave = dsp.PitchTrack([220.0, 220.0], [1.0, 1.0])
    cents = metrics.pitch_error_cents(gt, octave)
    spec = np.random.default_rng(12).uniform(size=(5, 4))
    track = dsp.PitchTrack([220.0, 0.0, 330.0, 440.0, 0.0], [1, 0, 1, 1, 0])
    report = metrics.evaluate(spec, spec, track, track)
    ok = (
        abs(cents - 1200.0) < 1e-9
        and report.mae == 0.0
        and report.pitch_cents_rmse == 0.0
        and report.periodicity_rmse == 0.0
        and report.vuv_f1 == 1.0
    )
    _report(
        "C9",
        ok,
        f"octave error {cents:.6f} cents (want exactly 1200); identical inputs give "
        f"mae={report.mae}, pitch={report.pitch_cents_rmse}, periodicity={report.periodicity_rmse}, "
        f"f1={report.vuv_f1}",
    )


@pytest.mark.slow
def test_c10_determinism_and_selfcheck_budget(
    acc_cfg, corpus_dir, codec_run, latent_run, tmp_path_factory
):
    root = tmp_path_factory.mktemp("acc_determinism")

    # corpora regenerate bit-identically
    corpus.gen_corpus(root / "ca", 2, seed=5, cfg=acc_cfg)
    corpus.gen_corpus(root / "cb", 2, seed=5, cfg=acc_cfg)
    corpus_ok = all(
        (root / "ca" / n).read_bytes() == (root / "cb" / n).read_bytes()
        for n in ("song000.wav", "song001.wav", "song000.score.json", "phonemes.json")
    )

    # short training runs are bit-reproducible
    cfg_fast = config_from_dict({"batch": 2, "window": 64})
    ck1, _ = train.train_codec(cfg_fast, corpus_dir, root / "t1", steps=5, seed=6)
    ck2, _ = train.train_codec(cfg_fast, corpus_dir, root / "t2", steps=5, seed=6)
    codec_ok = open(ck1, "rb").read() == open(ck2, "rb").read()
    lk1, _ = train.train_latent(cfg_fast, corpus_dir, ck1, root / "l1", steps=5, seed=6)
    lk2, _ = train.train_latent(cfg_fast, corpus_dir, ck1, root / "l2", steps=5, seed=6)
    latent_ok = open(lk1, "rb").read() == open(lk2, "rb").read()

    # sampling is bit-reproducible
    score_path = str(corpus_dir / "song001.score.json")
    a = train.sample_score(score_path, codec_run[0], latent_run[0], root / "sa", steps=20, seed=3)
    b = train.sample_score(score_path, codec_run[0], latent_run[0], root / "sb", steps=20, seed=3)
    sample_ok = open(a[0], "rb").read() == open(b[0], "rb").read() and (
        open(a[1], "rb").read() == open(b[1], "rb").read()
    )

    start = time.time()
    results = cli.run_selfcheck(verbose=False)
    elapsed = time.time() - start
    selfcheck_ok = all(ok for _, ok, _ in results) and elapsed < 300.0

    ok = corpus_ok and codec_ok and latent_ok and sample_ok and selfcheck_ok
    _report(
        "C10",
        ok,
        f"corpus bit-identical={corpus_ok}, codec train={codec_ok}, latent train={latent_ok}, "
        f"sample={sample_ok}; selfcheck all-pass={all(r[1] for r in results)} in {elapsed:.0f}s < 300s",
    )
