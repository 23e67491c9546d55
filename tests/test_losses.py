import itertools
import math

import numpy as np
import pytest

from minisvs import losses
from minisvs.autodiff import Tensor, gradient_check, log_softmax
from minisvs.config import ConfigError, LossConfig


class TestReconL1:
    def test_identical_zero(self):
        x = np.random.default_rng(0).uniform(size=(4, 6))
        assert losses.recon_l1(x, x) == 0.0

    def test_direct_value(self):
        assert losses.recon_l1(np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]])) == 1.5

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (rng.standard_normal((3, 5)) for _ in range(3))
            ab = losses.recon_l1(a, b)
            bc = losses.recon_l1(b, c)
            ac = losses.recon_l1(a, c)
            assert ac <= ab + bc + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            losses.recon_l1(np.zeros((2, 3)), np.zeros((3, 2)))


class TestLsgan:
    def test_perfect_discriminator(self):
        assert losses.lsgan_d(np.array([1.0]), np.array([0.0])) == 0.0

    def test_perfect_generator(self):
        assert losses.lsgan_g(np.array([1.0])) == 0.0

    def test_half_scores(self):
        assert losses.lsgan_d(np.array([0.5]), np.array([0.5])) == 0.5
        assert losses.lsgan_g(np.array([0.5])) == 0.25


class TestFeatureMatching:
    def test_identical_zero(self):
        feats = [np.ones((3, 4)), np.zeros((2, 2))]
        assert losses.feature_matching(feats, [f.copy() for f in feats]) == 0.0

    def test_single_layer_value(self):
        assert losses.feature_matching([np.array([1.0, 3.0])], [np.array([2.0, 5.0])]) == 1.5

    def test_additive_over_layers(self):
        a = [np.array([1.0, 3.0]), np.array([0.0])]
        b = [np.array([2.0, 5.0]), np.array([2.0])]
        one = losses.feature_matching(a[:1], b[:1])
        two = losses.feature_matching(a[1:], b[1:])
        assert losses.feature_matching(a, b) == one + two

    def test_layer_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            losses.feature_matching([np.zeros(2)], [np.zeros(2), np.zeros(2)])


def _brute_force_ctc(logp, labels):
    t_len, vocab = logp.shape
    total = -np.inf
    for path in itertools.product(range(vocab), repeat=t_len):
        out, prev = [], None
        for s in path:
            if s != prev and s != 0:
                out.append(s)
            prev = s
        if tuple(out) == tuple(labels):
            total = np.logaddexp(total, sum(logp[i, s] for i, s in enumerate(path)))
    return -total


class TestCtc:
    def test_two_frame_uniform_example(self):
        logp = np.log(np.full((2, 2), 0.5))
        loss = losses.ctc_loss(logp, losses.CtcTarget((1,), 1))
        assert abs(loss - (-math.log(0.75))) < 1e-12

    def test_certain_canonical_alignment_gives_zero(self):
        logp = np.full((3, 3), -1e9)
        logp[0, 1] = logp[1, 0] = logp[2, 2] = 0.0
        assert abs(losses.ctc_loss(logp, losses.CtcTarget((1, 2), 2))) < 1e-12

    def test_dp_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 50:
            t_len = int(rng.integers(2, 6))
            a_len = int(rng.integers(1, 4))
            logits = rng.standard_normal((t_len, a_len + 1))
            logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
            labels = tuple(int(x) for x in rng.integers(1, a_len + 1, size=rng.integers(1, 4)))
            target = losses.CtcTarget(labels, a_len)
            try:
                dp = losses.ctc_loss(logp, target)
            except ValueError:
                continue  # infeasible target for this T
            assert abs(dp - _brute_force_ctc(logp, labels)) < 1e-10
            checked += 1

    def test_infeasible_target_rejected(self):
        logp = np.log(np.full((2, 3), 1.0 / 3))
        with pytest.raises(ValueError):
            losses.ctc_loss(logp, losses.CtcTarget((1, 1), 2))  # needs >= 3 frames

    def test_graph_value_matches_plain(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 7, 4)), requires_grad=True)
        target = losses.CtcTarget((1, 3, 2), 3)
        ls = log_softmax(x, axis=-1)
        a = float(losses.ctc_loss_graph(ls, [target]).data)
        b = losses.ctc_loss(ls.data[0], target)
        assert abs(a - b) < 1e-12

    def test_graph_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 6, 4)), requires_grad=True)
        target = losses.CtcTarget((2, 2), 3)
        err = gradient_check(
            lambda: losses.ctc_loss_graph(log_softmax(x, axis=-1), [target]),
            [x],
            n_points=12,
            rng=np.random.default_rng(5),
        )
        assert err < 1e-4

    def test_label_validation(self):
        with pytest.raises(ValueError):
            losses.CtcTarget((0,), 3)
        with pytest.raises(ValueError):
            losses.CtcTarget((4,), 3)


def _reference_alpha_beta(logp, labels):
    """Per-window log-space lattices, one window at a time: the reference."""
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    t_len, s_len = logp.shape[0], ext.size
    logp_ext = logp[:, ext]
    skip_ok = np.zeros(s_len, dtype=bool)
    skip_ok[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    skip_idx = np.flatnonzero(skip_ok)
    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, : min(2, s_len)] = logp_ext[0, : min(2, s_len)]
    for t in range(1, t_len):
        prev = alpha[t - 1]
        merged = prev.copy()
        merged[1:] = np.logaddexp(merged[1:], prev[:-1])
        merged[skip_idx] = np.logaddexp(merged[skip_idx], prev[skip_idx - 2])
        alpha[t] = merged + logp_ext[t]
    log_z = np.logaddexp(alpha[-1, -1], alpha[-1, -2] if s_len > 1 else -np.inf)
    beta = np.full((t_len, s_len), -np.inf)
    beta[-1, max(0, s_len - 2) :] = 0.0
    for t in range(t_len - 2, -1, -1):
        emit = beta[t + 1] + logp_ext[t + 1]
        merged = emit.copy()
        merged[:-1] = np.logaddexp(merged[:-1], emit[1:])
        merged[skip_idx - 2] = np.logaddexp(merged[skip_idx - 2], emit[skip_idx])
        beta[t] = merged
    return ext, alpha, beta, float(log_z)


def _reference_loss_and_grad(logp, targets):
    """Summed per-window CTC and its gradient, minus the state posterior."""
    total = 0.0
    grad = np.zeros_like(logp)
    for b, target in enumerate(targets):
        ext, alpha, beta, log_z = _reference_alpha_beta(logp[b], target.labels)
        total += -log_z
        with np.errstate(invalid="ignore"):
            posterior = np.exp(alpha + beta - log_z)
        np.add.at(grad[b].T, ext, -posterior.T)
    return total, grad


def _log_softmax_np(logits):
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))


# windows of a codec batch: lengths 3-8, a repeated label, one label, all rest
BATCH_LABELS = {
    14: [(3, 7, 7, 2, 9, 1, 4, 4), (5,), (), (1, 2, 3), (6, 11, 6, 13, 2)],
    127: [(60, 62, 64), (69,), (), (67, 67, 65, 64, 64, 62, 60), (57, 59, 60, 62)],
}


class TestBatchedCtc:
    @pytest.mark.parametrize("alphabet", sorted(BATCH_LABELS))
    def test_lattice_bit_identical_to_per_window_reference(self, alphabet):
        rng = np.random.default_rng(alphabet)
        targets = [losses.CtcTarget(labels, alphabet) for labels in BATCH_LABELS[alphabet]]
        logp = _log_softmax_np(rng.standard_normal((len(targets), 128, alphabet + 1)) * 2.0)
        ext, lengths = losses._pad_targets(targets, 128)
        alpha, beta, log_z = losses._ctc_lattice(logp, ext, lengths)
        for b, target in enumerate(targets):
            _, ref_alpha, ref_beta, ref_log_z = _reference_alpha_beta(logp[b], target.labels)
            s_len = ref_alpha.shape[1]
            assert np.array_equal(alpha[b, :, :s_len], ref_alpha)
            assert np.array_equal(beta[b, :, :s_len], ref_beta)
            assert np.all(np.isneginf(alpha[b, :, s_len:]))
            assert np.all(np.isneginf(beta[b, :, s_len:]))
            assert log_z[b] == ref_log_z

    @pytest.mark.parametrize("alphabet", sorted(BATCH_LABELS))
    def test_loss_and_gradient_match_reference(self, alphabet):
        rng = np.random.default_rng(alphabet + 1)
        targets = [losses.CtcTarget(labels, alphabet) for labels in BATCH_LABELS[alphabet]]
        logp = _log_softmax_np(rng.standard_normal((len(targets), 128, alphabet + 1)) * 2.0)
        lp = Tensor(logp.copy(), requires_grad=True)
        loss = losses.ctc_loss_graph(lp, targets)
        loss.backward()
        ref_loss, ref_grad = _reference_loss_and_grad(logp, targets)
        assert abs(float(loss.data) - ref_loss) < 1e-12
        assert lp.grad.shape == logp.shape
        assert np.abs(lp.grad - ref_grad).max() < 1e-12

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 7, 4)), requires_grad=True)
        targets = [losses.CtcTarget(labels, 3) for labels in ((1, 3, 2), (2, 2), (), (3,))]
        err = gradient_check(
            lambda: losses.ctc_loss_graph(log_softmax(x, axis=-1), targets),
            [x],
            n_points=24,
            rng=np.random.default_rng(7),
        )
        assert err < 1e-4

    def test_plain_loss_is_the_one_window_case(self):
        rng = np.random.default_rng(8)
        logp = _log_softmax_np(rng.standard_normal((3, 9, 5)))
        targets = [losses.CtcTarget(labels, 4) for labels in ((1, 1, 2), (4,), ())]
        per_window = [losses.ctc_loss(logp[b], t) for b, t in enumerate(targets)]
        for b, target in enumerate(targets):
            one = losses.ctc_loss_graph(Tensor(logp[b : b + 1]), [target])
            assert float(one.data) == per_window[b]
        total = float(losses.ctc_loss_graph(Tensor(logp), targets).data)
        assert total == (per_window[0] + per_window[1]) + per_window[2]

    def test_infeasible_window_named(self):
        logp = _log_softmax_np(np.zeros((3, 3, 3)))
        targets = [losses.CtcTarget(labels, 2) for labels in ((1,), (2, 1), (1, 1, 2))]
        with pytest.raises(ValueError, match="window 2"):
            losses.ctc_loss_graph(Tensor(logp), targets)

    def test_shape_and_alphabet_mismatches_rejected(self):
        logp = Tensor(_log_softmax_np(np.zeros((2, 4, 3))))
        with pytest.raises(ValueError):
            losses.ctc_loss_graph(logp, [losses.CtcTarget((1,), 2)])  # 2 windows, 1 target
        with pytest.raises(ValueError):
            losses.ctc_loss_graph(logp, [losses.CtcTarget((1,), 2), losses.CtcTarget((1,), 3)])
        with pytest.raises(ValueError):
            losses.ctc_loss_graph(Tensor(logp.data[0]), [losses.CtcTarget((1,), 2)])


class TestContrastive:
    def test_orthogonal_negatives_worked_example(self):
        n = 6
        h = np.eye(n, 16)  # every frame orthogonal to every other
        val = losses.contrastive_loss(
            h, h.copy(), tau_cont=1.0, n_negatives=2, rng=np.random.default_rng(6)
        )
        expect = 2 * n * (math.log(2.0) - 1.0)
        assert abs(val - expect) < 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((8, 5))
        ht = rng.standard_normal((8, 5))
        a = losses.contrastive_loss(h, ht, 0.3, 4, np.random.default_rng(8))
        b = losses.contrastive_loss(ht, h, 0.3, 4, np.random.default_rng(8))
        assert abs(a - b) < 1e-12

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((8, 5))
        ht = rng.standard_normal((8, 5))
        scales = rng.uniform(0.1, 5.0, size=(8, 1))
        a = losses.contrastive_loss(h, ht, 0.5, 3, np.random.default_rng(10))
        b = losses.contrastive_loss(h * scales, ht * 2.0, 0.5, 3, np.random.default_rng(10))
        assert abs(a - b) < 1e-9

    def test_zero_rows_rejected(self):
        h = np.zeros((4, 3))
        with pytest.raises(ValueError):
            losses.contrastive_loss(h, h, 0.5, 2, np.random.default_rng(0))

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            losses.contrastive_loss(np.ones((1, 3)), np.ones((1, 3)), 0.5, 2)

    def test_gradients_flow_to_both_streams(self):
        rng = np.random.default_rng(11)
        h = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        ht = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        err = gradient_check(
            lambda: losses.contrastive_loss(h, ht, 0.5, 3, np.random.default_rng(12)),
            [h, ht],
            n_points=8,
            rng=np.random.default_rng(13),
        )
        assert err < 1e-4


def test_losses_nonnegative_and_finite_on_valid_inputs():
    # every loss except the contrastive one is >= 0; all stay finite
    rng = np.random.default_rng(20)
    for _ in range(20):
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((5, 4))
        scores_r = rng.standard_normal(6)
        scores_f = rng.standard_normal(6)
        logits = rng.standard_normal((6, 4))
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        vals = [
            losses.recon_l1(a, b),
            losses.lsgan_d(scores_r, scores_f),
            losses.lsgan_g(scores_f),
            losses.feature_matching([a], [b]),
            losses.ctc_loss(logp, losses.CtcTarget((1, 2), 3)),
        ]
        assert all(np.isfinite(v) and v >= 0 for v in vals)
    # the contrastive loss may legitimately go negative
    h = np.eye(4, 8)
    assert losses.contrastive_loss(h, h.copy(), 1.0, 2, np.random.default_rng(0)) < 0


class TestTotals:
    def test_generator_total_worked_example(self):
        parts = dict(adv=1.0, recon=1.0, emb=1.0, fm=1.0, lyrics=1.0, note=1.0)
        total = losses.generator_total(parts, LossConfig())
        assert abs(total - 50.02) < 1e-12

    def test_all_zero_parts(self):
        parts = dict(adv=0.0, recon=0.0, emb=0.0, fm=0.0, lyrics=0.0, note=0.0)
        assert losses.generator_total(parts, LossConfig()) == 0.0

    def test_doubling_one_part_adds_its_weight(self):
        w = LossConfig()
        base = dict(adv=1.0, recon=1.0, emb=1.0, fm=1.0, lyrics=1.0, note=1.0)
        for name in ("recon", "emb", "fm", "lyrics", "note"):
            bumped = dict(base)
            bumped[name] = 2.0
            delta = losses.generator_total(bumped, w) - losses.generator_total(base, w)
            assert abs(delta - getattr(w, name)) < 1e-12

    def test_latent_total_matches_weighted_sum(self):
        assert losses.latent_generator_total(1.0, 2.0, 0.5) == 2.0
        assert losses.latent_generator_total(1.0, 2.0, 0.5, [0.25, 0.5]) == 2.75

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(recon=-1.0)
