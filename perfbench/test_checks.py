"""Every check passes a right output and refuses a deliberately wrong one.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import spans
import speed
from minisvs import diffusion, losses, rvq
from minisvs.metrics import MetricReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_falls_by_half():
    assert checks.falls_by_half([1.0, 0.8, 0.4, 0.3], 1, 2, "recon") is None
    assert "recon" in checks.falls_by_half([1.0, 0.9, 0.8, 0.7], 1, 2, "recon")


def test_losses_finite_and_ctc_nonnegative():
    log = {"recon": np.array([0.3, 0.2]), "lyrics": np.array([5.0, 4.0])}
    assert checks.losses_finite(log, nonnegative=("lyrics",)) is None
    assert "non-finite" in checks.losses_finite({**log, "recon": np.array([0.3, np.nan])})
    assert "negative" in checks.losses_finite({**log, "lyrics": np.array([5.0, -0.1])},
                                              nonnegative=("lyrics",))


def _coder(pin_zero, rng, stages=3):
    books = [rvq.Codebook(rng.standard_normal((8, 4)).astype(np.float32) * 0.5**c) for c in range(stages)]
    return rvq.RvqCoder(books, pin_zero=pin_zero)


def test_codebooks_pin_zero():
    rng = np.random.default_rng(0)
    assert checks.codebooks_pin_zero(_coder(True, rng)) is None
    assert "entry 0" in checks.codebooks_pin_zero(_coder(False, rng))


def test_distortion_non_increasing():
    rng = np.random.default_rng(1)
    coder = _coder(True, rng)
    z = rng.standard_normal((50, 4))
    assert checks.distortion_non_increasing(coder, z, rvq.encode(coder, z)) is None
    # a last stage whose only entry is far away must raise the error
    coder.codebooks.append(rvq.Codebook(np.full((1, 4), 10.0, dtype=np.float32)))
    assert "rises at stage 4" in checks.distortion_non_increasing(coder, z, rvq.encode(coder, z))


def test_codes_equal():
    codes = rvq.CodecCodes(np.array([[1, 2, 3], [0, 1, 0]]), 8, 4)
    same = rvq.CodecCodes(codes.indices.copy(), 8, 4)
    flipped = rvq.CodecCodes(np.array([[1, 2, 3], [0, 1, 1]]), 8, 4)
    assert checks.codes_equal(codes, same, (24000, 256), (24000, 256)) is None
    assert "indices" in checks.codes_equal(codes, flipped, (24000, 256), (24000, 256))
    assert "hop" in checks.codes_equal(codes, same, (24000, 256), (24000, 128))


def _ctc(lp, labels, alphabet):
    return losses.ctc_loss(lp, losses.CtcTarget(labels, alphabet))


def test_ctc_matches_enumeration():
    assert checks.ctc_matches_enumeration(_ctc, np.random.default_rng(2)) is None
    off = checks.ctc_matches_enumeration(lambda *a: _ctc(*a) + 1e-6, np.random.default_rng(2))
    assert "enumeration" in off
    refuses = checks.ctc_matches_enumeration(lambda *a: _ctc([[0.0]], (1,), 0), np.random.default_rng(2))
    assert "refused" in refuses


def test_contrastive_and_unsupervised_columns():
    log = {
        "grad_norm_sup": np.array([1.0, 0.0, 2.0]),
        "grad_norm_unsup": np.array([0.5, 0.4, 0.3]),
        "cont_lyrics": np.array([800.0, 0.0, 790.0]),
        "cont_melody": np.array([810.0, 0.0, 805.0]),
    }
    assert checks.contrastive_on_supervised_steps(log) is None
    assert checks.unsupervised_grad_positive(log) is None
    zero = {**log, "cont_melody": np.array([810.0, 0.0, 0.0])}
    assert "cont_melody" in checks.contrastive_on_supervised_steps(zero)
    nan = {**log, "cont_lyrics": np.array([np.nan, 0.0, 790.0])}
    assert "cont_lyrics" in checks.contrastive_on_supervised_steps(nan)
    assert "no step" in checks.contrastive_on_supervised_steps({**log, "grad_norm_sup": np.zeros(3)})
    assert "0 on 1" in checks.unsupervised_grad_positive({**log, "grad_norm_unsup": np.array([0.5, 0.0, 0.3])})


def test_latent_stats_match():
    rng = np.random.default_rng(3)
    latents = [rng.standard_normal((40, 4)) * 2 + 1, rng.standard_normal((30, 4))]
    z = np.concatenate(latents)
    mean, std = z.mean(0).astype(np.float32), z.std(0).astype(np.float32)
    assert checks.latent_stats_match(mean, std, latents) is None
    assert "mean" in checks.latent_stats_match(mean + 1e-3, std, latents)
    assert "std" in checks.latent_stats_match(mean, z.std(0, ddof=1), latents)


def _score(z, m, h, t):
    return -(z - m)


def _flipped(z, m, h, t):
    # drift 1/2 (z - mu) + s with this score is the negated drift
    return -_score(z, m, h, t) - (z - m)


def _program_sample(score_fn, mu, steps, tau, seed):
    return diffusion.reverse_sample(
        score_fn, mu, None, diffusion.NoiseSchedule(), diffusion.SamplerConfig(steps, tau, seed))


def test_euler_maruyama_reproduces_the_sampler_and_rejects_a_flipped_drift():
    mu = np.random.default_rng(4).standard_normal((20, 3))
    ref = checks.euler_maruyama(_score, mu, None, 0.05, 20.0, 25, 1.5, 7)
    assert checks.arrays_close(ref, _program_sample(_score, mu, 25, 1.5, 7), 1e-12, "z") is None
    assert "z:" in checks.arrays_close(ref, _program_sample(_flipped, mu, 25, 1.5, 7), 1e-4, "z")
    assert "shape" in checks.arrays_close(ref, ref[:-1], 1e-4, "z")
    other_seed = _program_sample(_score, mu, 25, 1.5, 8)
    assert checks.arrays_close(ref, other_seed, 1e-4, "z") is not None


def test_gaussian_recovery():
    assert checks.gaussian_recovery(_program_sample, 0.05, 20.0) is None
    flipped = checks.gaussian_recovery(
        lambda fn, mu, steps, tau, seed: _program_sample(
            lambda z, m, h, t: -fn(z, m, h, t) - (z - m), mu, steps, tau, seed),
        0.05, 20.0)
    assert "not recovered" in flipped


def test_self_evaluation():
    assert checks.self_evaluation(MetricReport(0.0, 0.0, 0.0, 1.0, 10)) is None
    assert "mae" in checks.self_evaluation(MetricReport(0.1, 0.0, 0.0, 1.0, 10))
    assert "F1" in checks.self_evaluation(MetricReport(0.0, 0.0, 0.0, 0.9, 10))


def test_identical_outputs(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(b"one")
    b.write_bytes(b"one")
    first = checks.digests([a], tmp_path)
    assert list(first) == ["a.bin"]
    assert checks.all_identical([first, checks.digests([a], tmp_path)], "round") is None
    b.write_bytes(b"two")
    renamed = {"a.bin": checks.digests([b], tmp_path)["b.bin"]}
    assert "round 1 differs" in checks.all_identical([first, renamed], "round")


def test_self_time_excludes_wrapped_children():
    def child():
        time.sleep(0.03)

    def parent():
        time.sleep(0.02)
        holder.child()

    holder = SimpleNamespace(child=child, parent=parent)
    rec = spans.Recorder()
    with rec.installed([("p", holder, "parent"), ("c", holder, "child")]):
        holder.parent()
    assert holder.__dict__["child"] is child and holder.__dict__["parent"] is parent
    own = dict(zip([s[spans.NAME] for s in rec.spans], rec.self_times()))
    assert 0.02 <= own["p"] < 0.03 <= own["c"]
    assert rec.spans[1][spans.PARENT] == 0


def test_recorder_calls_the_after_hook_once_per_wrapped_call():
    calls = []
    holder = SimpleNamespace(f=lambda: 1)
    rec = spans.Recorder(after=lambda: calls.append(len(rec.spans)))
    with rec.installed([("f", holder, "f")]):
        holder.f()
        holder.f()
    assert calls == [1, 2]


def test_speed_scales_by_the_kernel_calls_nearest_in_time():
    sp = speed.Speed()
    ref = speed.REF_MS / 1e3
    # one kernel call per second: at the reference speed before t = 10, half as fast after
    sp.starts = [float(t) for t in range(20)]
    sp.seconds = [ref if t < 10 else 2 * ref for t in range(20)]
    # calls at 1, 2, 3 run inside and are taken out; the 7 nearest calls are all fast
    assert sp.scaled(0.5, 3.5) == pytest.approx(3.0 - 3 * ref)
    assert sp.scaled(12.5, 16.5) == pytest.approx((4.0 - 4 * 2 * ref) * 0.5)
    assert sp.scale(9.5, 19.0) == pytest.approx(0.5)


def test_step_times_follow_the_step_clock():
    # two optimizer steps per training step, ends at 1, 2 | 3, 4 | 6, 7 ...
    ends = [1, 2, 3, 4, 6, 7, 10, 11]
    recorded = [["bench.op", 0.0, 20.0, -1, False]]
    recorded += [["nn.adamw", e - 0.5, float(e), 0, False] for e in ends]
    train_like = SimpleNamespace(step_span="nn.adamw", steps_per_op=4)
    old = run.WARMUP_STEPS
    run.WARMUP_STEPS = 0
    try:
        assert run.step_times(recorded, train_like) == [(2.0, 4.0), (4.0, 7.0), (7.0, 11.0)]
    finally:
        run.WARMUP_STEPS = old
    # sampler calls: the first one is warm-up
    recorded = [["diffusion.sampler", 0.0, 3.0, -1, False], ["nn.scorenet", 0.5, 0.6, 0, False],
                ["diffusion.sampler", 4.0, 9.0, -1, False], ["nn.scorenet", 5.0, 5.1, 2, False],
                ["nn.scorenet", 7.0, 7.1, 2, False]]
    sample_like = SimpleNamespace(step_span="nn.scorenet", steps_per_op=2)
    assert run.step_times(recorded, sample_like) == [(5.0, 7.0), (7.0, 9.0)]


def test_benchmark_json_names_every_metric_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END.items())
    printed = {(m, unit) for m, _, unit in run.PER_LAYER} | set(run.TRACE_EXTRAS.items())
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == printed
    assert {w["name"] for w in spec["workloads"]} == {"codec_adv", "latent_u", "sample"}
    assert all(0 < m["bound"] <= 0.25 and not math.isnan(m["bound"]) for m in spec["end_to_end"])
