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
        a = float(losses.ctc_loss_graph([(ls, [target])])[0].data)
        b = losses.ctc_loss(ls.data[0], target)
        assert abs(a - b) < 1e-12

    def test_graph_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 6, 4)), requires_grad=True)
        target = losses.CtcTarget((2, 2), 3)
        err = gradient_check(
            lambda: losses.ctc_loss_graph([(log_softmax(x, axis=-1), [target])])[0],
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
    """Summed per-window CTC and its gradient, minus the state posterior.

    Each window runs in float64; its loss is cast to logp's dtype and the
    windows add up in order in that dtype, and the gradient is cast once.
    """
    total = logp.dtype.type(0.0)
    grad = np.zeros(logp.shape)
    for b, target in enumerate(targets):
        ext, alpha, beta, log_z = _reference_alpha_beta(logp[b].astype(np.float64), target.labels)
        total += logp.dtype.type(-log_z)
        with np.errstate(invalid="ignore"):
            posterior = np.exp(alpha + beta - log_z)
        np.add.at(grad[b].T, ext, -posterior.T)
    return total, grad.astype(logp.dtype)


def _log_softmax_np(logits):
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))


# windows of a codec batch: lengths 3-8, a repeated label, one label, all rest
BATCH_LABELS = {
    14: [(3, 7, 7, 2, 9, 1, 4, 4), (5,), (), (1, 2, 3), (6, 11, 6, 13, 2)],
    127: [(60, 62, 64), (69,), (), (67, 67, 65, 64, 64, 62, 60), (57, 59, 60, 62)],
}


# batches whose shapes stress the lattice's row slicing: every target empty
# (one state, so no state has a skip), and a single window
EDGE_BATCHES = {"all_empty": (14, [(), (), ()]), "one_window": (127, [(60, 62, 62, 64)])}


class TestBatchedCtc:
    @pytest.mark.parametrize("batch", sorted(BATCH_LABELS) + sorted(EDGE_BATCHES))
    def test_lattice_bit_identical_to_per_window_reference(self, batch):
        alphabet, labels = EDGE_BATCHES.get(batch) or (batch, BATCH_LABELS[batch])
        rng = np.random.default_rng(alphabet)
        targets = [losses.CtcTarget(window, alphabet) for window in labels]
        logp = _log_softmax_np(rng.standard_normal((len(targets), 128, alphabet + 1)) * 2.0)
        ext, lengths = losses._pad_targets(targets, 128)
        alpha, beta, log_z = losses._ctc_lattice(losses._emissions(logp, ext), ext, lengths)
        for b, target in enumerate(targets):
            _, ref_alpha, ref_beta, ref_log_z = _reference_alpha_beta(logp[b], target.labels)
            s_len = ref_alpha.shape[1]
            assert np.array_equal(alpha[b, :, :s_len], ref_alpha)
            assert np.array_equal(beta[b, :, :s_len], ref_beta)
            assert np.all(np.isneginf(alpha[b, :, s_len:]))
            assert np.all(np.isneginf(beta[b, :, s_len:]))
            assert log_z[b] == ref_log_z

    # the codec feeds float32 log-probabilities; float64 cases keep alphabet-only ids
    @pytest.mark.parametrize("alphabet, dtype", [
        pytest.param(alphabet, dtype, id=f"{alphabet}{suffix}")
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
        for alphabet in sorted(BATCH_LABELS)
    ])
    def test_loss_and_gradient_match_reference(self, alphabet, dtype):
        rng = np.random.default_rng(alphabet + 1)
        targets = [losses.CtcTarget(labels, alphabet) for labels in BATCH_LABELS[alphabet]]
        logits = rng.standard_normal((len(targets), 128, alphabet + 1)) * 2.0
        logp = _log_softmax_np(logits).astype(dtype)
        lp = Tensor(logp.copy(), requires_grad=True)
        loss = losses.ctc_loss_graph([(lp, targets)])[0]
        loss.backward()
        ref_loss, ref_grad = _reference_loss_and_grad(logp, targets)
        assert loss.data.dtype == dtype and loss.data == ref_loss
        assert lp.grad.dtype == dtype and lp.grad.shape == logp.shape
        assert np.array_equal(lp.grad, ref_grad)

    @pytest.mark.parametrize("order", [(14, 127), (127, 14)])
    def test_one_lattice_for_two_heads_gives_the_bits_of_one_call_per_head(
        self, order, monkeypatch
    ):
        # phonemes and notes, as in a codec step; the phoneme batch holds the
        # window with the most states, so the note windows are padded to it
        rng = np.random.default_rng(9)
        heads = []
        for alphabet in order:
            targets = [losses.CtcTarget(labels, alphabet) for labels in BATCH_LABELS[alphabet]]
            logits = rng.standard_normal((len(targets), 128, alphabet + 1)) * 2.0
            heads.append((_log_softmax_np(logits).astype(np.float32), targets))
        states = {alphabet: losses._pad_targets(targets, 128)[0].shape[1]
                  for alphabet, (_, targets) in zip(order, heads)}
        assert states[14] > states[127]

        def run(pairs):
            tensors = [Tensor(logp.copy(), requires_grad=True) for logp, _ in pairs]
            out = losses.ctc_loss_graph([(t, targets) for t, (_, targets) in zip(tensors, pairs)])
            sum(out[1:], out[0]).backward()
            return [(o.data, t.grad) for o, t in zip(out, tensors)]

        lattices = []
        real_lattice = losses._ctc_lattice
        monkeypatch.setattr(losses, "_ctc_lattice",
                            lambda *a: lattices.append(a[0].shape) or real_lattice(*a))
        shared = run(heads)
        assert lattices == [(10, 128, states[14])]
        for (value, grad), head in zip(shared, heads):
            (one_value, one_grad), = run([head])
            assert value.dtype == one_value.dtype == np.float32
            assert value.tobytes() == one_value.tobytes()
            assert grad.dtype == np.float32 and grad.tobytes() == one_grad.tobytes()

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 7, 4)), requires_grad=True)
        targets = [losses.CtcTarget(labels, 3) for labels in ((1, 3, 2), (2, 2), (), (3,))]
        err = gradient_check(
            lambda: losses.ctc_loss_graph([(log_softmax(x, axis=-1), targets)])[0],
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
            one = losses.ctc_loss_graph([(Tensor(logp[b : b + 1]), [target])])[0]
            assert float(one.data) == per_window[b]
        total = float(losses.ctc_loss_graph([(Tensor(logp), targets)])[0].data)
        assert total == (per_window[0] + per_window[1]) + per_window[2]

    def test_infeasible_window_named(self):
        logp = _log_softmax_np(np.zeros((3, 3, 3)))
        targets = [losses.CtcTarget(labels, 2) for labels in ((1,), (2, 1), (1, 1, 2))]
        with pytest.raises(ValueError, match="window 2"):
            losses.ctc_loss_graph([(Tensor(logp), targets)])

    def test_shape_and_alphabet_mismatches_rejected(self):
        logp = Tensor(_log_softmax_np(np.zeros((2, 4, 3))))
        with pytest.raises(ValueError):
            losses.ctc_loss_graph([(logp, [losses.CtcTarget((1,), 2)])])  # 2 windows, 1 target
        with pytest.raises(ValueError):
            losses.ctc_loss_graph([(logp, [losses.CtcTarget((1,), 2), losses.CtcTarget((1,), 3)])])
        with pytest.raises(ValueError):
            losses.ctc_loss_graph([(Tensor(logp.data[0]), [losses.CtcTarget((1,), 2)])])
        two = [losses.CtcTarget((1,), 2), losses.CtcTarget((2,), 2)]
        with pytest.raises(ValueError, match="same frames"):  # heads over 4 and 3 frames
            losses.ctc_loss_graph([(logp, two), (Tensor(logp.data[:, :3]), two)])


def _reference_negatives(n, n_negatives, rng):
    """One draw per frame, as the per-frame loop drew them: the reference."""
    neg_idx = np.empty((n, n_negatives), dtype=np.int64)
    for t in range(n):
        pool = rng.integers(0, n - 1, size=n_negatives)
        neg_idx[t] = pool + (pool >= t)  # skip the anchor's own frame
    return neg_idx


def _row_cos(a, b):
    dot = (a * b).sum(axis=-1)
    na = (a * a).sum(axis=-1) ** 0.5
    nb = (b * b).sum(axis=-1) ** 0.5
    return dot / (na * nb)


def _reference_contrastive(h, h_tilde, tau_cont, neg_idx):
    """One (n, D) window as a graph of Tensor ops, gathering every negative row."""
    n, n_negatives = neg_idx.shape

    def direction(anchor, positive):
        pos = _row_cos(anchor, positive) * (1.0 / tau_cont)
        anchor_rep = anchor[np.repeat(np.arange(n), n_negatives)]
        negs = _row_cos(anchor_rep, anchor[neg_idx.reshape(-1)]) * (1.0 / tau_cont)
        denom = negs.exp().reshape(n, n_negatives).sum(axis=1)
        return (denom.log() - pos).sum()

    return direction(h, h_tilde) + direction(h_tilde, h)


def _negatives(shape, n_negatives, rng):
    """draw_negatives for every window of streams of this shape, in window order."""
    *windows, n, _ = shape
    draws = [losses.draw_negatives(n, n_negatives, rng) for _ in range(int(np.prod(windows)))]
    return np.stack(draws).reshape(*windows, n, n_negatives)


def _contrastive(h, h_tilde, tau_cont, n_negatives, rng) -> float:
    """The loss of one (n, D) window, as a batch of one."""
    neg = _negatives(np.shape(h), n_negatives, rng)
    return float(losses.contrastive_loss(h[None], h_tilde[None], neg[None], tau_cont).data)


class TestContrastive:
    def test_orthogonal_negatives_worked_example(self):
        n = 6
        h = np.eye(n, 16)  # every frame orthogonal to every other
        val = _contrastive(
            h, h.copy(), tau_cont=1.0, n_negatives=2, rng=np.random.default_rng(6)
        )
        expect = 2 * n * (math.log(2.0) - 1.0)
        assert abs(val - expect) < 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((8, 5))
        ht = rng.standard_normal((8, 5))
        a = _contrastive(h, ht, 0.3, 4, np.random.default_rng(8))
        b = _contrastive(ht, h, 0.3, 4, np.random.default_rng(8))
        assert abs(a - b) < 1e-12

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((8, 5))
        ht = rng.standard_normal((8, 5))
        scales = rng.uniform(0.1, 5.0, size=(8, 1))
        a = _contrastive(h, ht, 0.5, 3, np.random.default_rng(10))
        b = _contrastive(h * scales, ht * 2.0, 0.5, 3, np.random.default_rng(10))
        assert abs(a - b) < 1e-9

    def test_zero_rows_rejected(self):
        h = np.zeros((4, 3))
        with pytest.raises(ValueError):
            _contrastive(h, h, 0.5, 2, np.random.default_rng(0))

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="2 frames"):
            losses.contrastive_loss(np.ones((1, 1, 3)), np.ones((1, 1, 3)), np.zeros((1, 1, 2)), 0.5)

    def test_gradients_flow_to_both_streams(self):
        rng = np.random.default_rng(11)
        h = Tensor(rng.standard_normal((1, 6, 5)), requires_grad=True)
        ht = Tensor(rng.standard_normal((1, 6, 5)), requires_grad=True)
        neg = _negatives(h.shape, 3, np.random.default_rng(12))
        err = gradient_check(
            lambda: losses.contrastive_loss(h, ht, neg, 0.5),
            [h, ht],
            n_points=8,
            rng=np.random.default_rng(13),
        )
        assert err < 1e-4


class TestBatchedContrastive:
    @pytest.mark.parametrize("n_negatives", [3, 10])
    def test_batch_is_the_sum_of_per_window_references(self, n_negatives):
        rng = np.random.default_rng(30 + n_negatives)
        h = rng.standard_normal((4, 32, 6))
        ht = rng.standard_normal((4, 32, 6))
        neg = _negatives(h.shape, n_negatives, rng)
        neg[0, :, 0] = neg[0, :, 1]  # repeated negatives accumulate in the backward
        a = Tensor(h.copy(), requires_grad=True)
        b = Tensor(ht.copy(), requires_grad=True)
        loss = losses.contrastive_loss(a, b, neg, 0.3)
        loss.backward()
        ref_total, ref_ga, ref_gb = 0.0, [], []
        for w in range(4):
            ra = Tensor(h[w].copy(), requires_grad=True)
            rb = Tensor(ht[w].copy(), requires_grad=True)
            ref = _reference_contrastive(ra, rb, 0.3, neg[w])
            ref.backward()
            ref_total += float(ref.data)
            ref_ga.append(ra.grad)
            ref_gb.append(rb.grad)
        assert abs(float(loss.data) - ref_total) <= 1e-12 * abs(ref_total)
        for got, ref in ((a.grad, np.stack(ref_ga)), (b.grad, np.stack(ref_gb))):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("n, n_negatives", [(128, 10), (16, 3)])
    def test_draws_and_rng_state_match_the_per_frame_loop(self, n, n_negatives):
        for seed in range(200):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = losses.draw_negatives(n, n_negatives, ours)
            assert np.array_equal(got, _reference_negatives(n, n_negatives, ref))
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        h = Tensor(rng.standard_normal((3, 7, 5)), requires_grad=True)
        ht = Tensor(rng.standard_normal((3, 7, 5)), requires_grad=True)
        neg = _negatives(h.shape, 4, np.random.default_rng(15))
        err = gradient_check(
            lambda: losses.contrastive_loss(h, ht, neg, 0.4),
            [h, ht],
            n_points=16,
            rng=np.random.default_rng(16),
        )
        assert err < 1e-4

    def test_float32_batch_gives_a_float32_value(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((2, 9, 4)).astype(np.float32)
        ht = rng.standard_normal((2, 9, 4)).astype(np.float32)
        neg = _negatives(h.shape, 3, rng)
        assert losses.contrastive_loss(h, ht, neg, 0.5).dtype == np.float32

    @pytest.mark.parametrize("n_win", [1, 3])
    def test_float32_batch_matches_its_float64_cast(self, n_win):
        # the training shape: the op runs in float32 and stays close to float64
        rng = np.random.default_rng(40 + n_win)
        h = rng.standard_normal((n_win, 128, 64)).astype(np.float32)
        ht = rng.standard_normal((n_win, 128, 64)).astype(np.float32)
        neg = _negatives(h.shape, 10, rng)
        neg[0, :, 0] = neg[0, :, 1]  # repeated negatives accumulate in the backward
        runs = []
        for dtype in (np.float32, np.float64):
            a = Tensor(h.astype(dtype), requires_grad=True)
            b = Tensor(ht.astype(dtype), requires_grad=True)
            loss = losses.contrastive_loss(a, b, neg, 0.5)
            loss.backward()
            assert loss.dtype == a.grad.dtype == b.grad.dtype == dtype
            runs.append((loss.data, a.grad, b.grad))
        (v32, ga32, gb32), (v64, ga64, gb64) = runs
        assert abs(float(v32) - float(v64)) <= 1e-5 * abs(float(v64))
        for got, ref in ((ga32, ga64), (gb32, gb64)):
            assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_overflowing_row_names_its_window(self):
        # in float32 the row's squared length is inf: no zero unit row
        h = np.random.default_rng(21).standard_normal((3, 5, 4)).astype(np.float32)
        h[1, 2, 0] = 1e20
        ones = np.ones((3, 5, 4), dtype=np.float32)
        neg = np.zeros((3, 5, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="window 1: .* not finite"):
            losses.contrastive_loss(h, ones, neg, 0.5)
        with pytest.raises(ValueError, match="window 1: .* not finite"):
            losses.contrastive_loss(ones, h, neg, 0.5)

    def test_zero_row_names_its_window(self):
        h = np.random.default_rng(19).standard_normal((3, 5, 4))
        h[2, 3] = 0.0
        neg = np.zeros((3, 5, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="window 2"):
            losses.contrastive_loss(h, np.ones((3, 5, 4)), neg, 0.5)
        with pytest.raises(ValueError, match="window 2"):
            losses.contrastive_loss(np.ones((3, 5, 4)), h, neg, 0.5)

    def test_shape_frames_and_negatives_rejected(self):
        ones = np.ones((2, 4, 3))
        neg = np.ones((2, 4, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="shape"):
            losses.contrastive_loss(ones, np.ones((2, 4, 2)), neg, 0.5)
        with pytest.raises(ValueError, match="shape"):
            losses.contrastive_loss(ones, np.ones((3, 4, 3)), neg, 0.5)
        with pytest.raises(ValueError, match="frames"):
            losses.contrastive_loss(np.ones((2, 1, 3)), np.ones((2, 1, 3)), neg[:, :1], 0.5)
        with pytest.raises(ValueError, match="frames x dim"):
            losses.contrastive_loss(np.ones(4), np.ones(4), neg, 0.5)
        with pytest.raises(ValueError, match="tau"):
            losses.contrastive_loss(ones, ones, neg, 0.0)
        for bad in (np.zeros((2, 3, 2)), np.full((2, 4, 2), 4), np.zeros((2, 4, 0))):
            with pytest.raises(ValueError, match="negatives"):
                losses.contrastive_loss(ones, ones, bad, 0.5)


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
    assert _contrastive(h, h.copy(), 1.0, 2, np.random.default_rng(0)) < 0


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
