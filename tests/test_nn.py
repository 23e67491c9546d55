import numpy as np
import pytest

from minisvs import nn
from minisvs.autodiff import NumericalError, Tensor, gradient_check


def _zero_params(named):
    for _, p in named:
        p.data[:] = 0.0


class TestLayers:
    def test_every_layer_gradcheck_float64(self):
        rng = np.random.default_rng(0)
        lin = nn.Linear(5, 4, rng, np.float64)
        conv = nn.Conv3(4, 4, rng, np.float64)
        emb = nn.Embedding(7, 5, rng, np.float64)
        blk = nn.GatedConvBlock(4, rng, time_dim=6, dtype=np.float64)
        ids = np.array([0, 3, 6, 2])
        t_emb = Tensor(rng.standard_normal(6))
        probe = rng.standard_normal((4, 4))

        def f():
            h = lin(emb(ids))
            h = conv(h).tanh()
            h = blk(h, t_emb)
            return (h * probe).sum()

        tensors = [p for layer in (lin, conv, emb, blk) for _, p in layer.params("x")]
        err = gradient_check(f, tensors, n_points=8, rng=np.random.default_rng(1))
        assert err < 1e-4

    def test_block_without_time_rejects_time(self):
        blk = nn.GatedConvBlock(4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            blk(Tensor(np.zeros((3, 4))), Tensor(np.zeros(6)))


class TestModuleParams:
    def test_walks_attributes_in_assignment_order(self):
        rng = np.random.default_rng(0)

        class Toy(nn.Module):
            def __init__(self):
                self.size = 3
                self.scale = Tensor(np.ones(2))
                self.head = nn.Linear(2, 2, rng)
                self.stack = [nn.Embedding(4, 2, rng), nn.Embedding(5, 2, rng)]
                self.absent = None

        toy = Toy()
        assert [n for n, _ in toy.params("toy")] == [
            "toy.scale", "toy.head.w", "toy.head.b", "toy.stack0.table", "toy.stack1.table",
        ]
        assert [n for n, _ in toy.params()][:2] == ["scale", "head.w"]
        assert toy.params()[1][1] is toy.head.w


def _reference_block(blk, x, t_emb=None):
    """The gated block as the taped layer composition that the fused op replaced."""
    a = blk.conv_f(x)
    g = blk.conv_g(x)
    if t_emb is not None:
        a = a + blk.time_f(t_emb)
        g = g + blk.time_g(t_emb)
    return x + blk.proj(a.tanh() * g.sigmoid())


def _same_bits(got, want):
    if got is None or want is None:
        return got is None and want is None
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFusedGatedBlock:
    @staticmethod
    def _setup(dtype, shape, timed, x_grad=True, t_grad=False, t_shape=(32,)):
        rng = np.random.default_rng(11)
        blk = nn.GatedConvBlock(shape[-1], rng, time_dim=32 if timed else None, dtype=dtype)
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=x_grad)
        t_emb = (Tensor(rng.standard_normal(t_shape).astype(dtype), requires_grad=t_grad)
                 if timed else None)
        return blk, x, t_emb

    @staticmethod
    def _run(fn, blk, x, t_emb, probe):
        leaves = [x] + ([t_emb] if t_emb is not None else []) + [p for _, p in blk.params("b")]
        for leaf in leaves:
            leaf.grad = None
        out = fn(blk, x, t_emb)
        (out * probe).sum().backward()
        return [out.data] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("timed,x_grad,t_grad", [
        (False, True, False), (False, False, False),
        (True, True, True), (True, True, False), (True, False, True), (True, False, False),
    ], ids=["untimed-x", "untimed-const-x", "timed-x-t", "timed-x", "timed-t", "timed-const"])
    @pytest.mark.parametrize("shape,t_shape", [
        ((461, 64), (32,)), ((2, 128, 64), (32,)), ((4, 128, 64), (32,)),
        ((4, 128, 64), (4, 1, 32)),
    ], ids=["461x64", "2x128x64", "4x128x64", "4x128x64-t-per-window"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_and_every_gradient_match_the_composition_bit_for_bit(
        self, dtype, shape, t_shape, timed, x_grad, t_grad
    ):
        blk, x, t_emb = self._setup(dtype, shape, timed, x_grad, t_grad, t_shape)
        probe = np.random.default_rng(12).standard_normal(shape).astype(dtype)
        got = self._run(lambda b, x, t: b(x, t), blk, x, t_emb, probe)
        want = self._run(_reference_block, blk, x, t_emb, probe)
        assert got[0].dtype == dtype
        assert (got[1] is not None) == x_grad
        if timed:
            assert (got[2] is not None) == t_grad
        for g, w in zip(got, want):
            assert _same_bits(g, w)

    def test_frozen_block_builds_no_tape(self):
        blk, x, t_emb = self._setup(np.float32, (5, 8), timed=True, x_grad=False)
        for _, p in blk.params("b"):
            p.requires_grad = False
        out = blk(x, t_emb)
        assert not out.requires_grad and out._parents == () and out._grad_fn is None
        assert _same_bits(out.data, _reference_block(blk, x, t_emb).data)
        x.requires_grad = True
        taped = blk(x, t_emb)
        assert taped.requires_grad and taped._grad_fn is not None

    @pytest.mark.parametrize("case,op", [
        ("inf-conv_f.w", "conv1d3"), ("overflow-time_g.w", "matmul"),
        ("overflow-proj.w", "matmul"), ("overflowing-input", "conv1d3"),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nonfinite_values_name_the_same_op_as_the_composition(self, dtype, case, op):
        blk, x, t_emb = self._setup(dtype, (6, 8), timed=True)
        big = np.finfo(dtype).max
        if case == "inf-conv_f.w":
            blk.conv_f.w.data[1, 2, 3] = np.inf
        elif case == "overflow-time_g.w":
            t_emb.data[:] = np.abs(t_emb.data) + 0.5
            blk.time_g.w.data[:] = big
        elif case == "overflow-proj.w":
            # gate products all equal tanh(1) * sigmoid(1) > 0, so the sums overflow
            for conv in (blk.conv_f, blk.conv_g):
                conv.w.data[:] = 0.0
                conv.b.data[:] = 1.0
            for lin in (blk.time_f, blk.time_g):
                lin.w.data[:] = 0.0
            blk.proj.w.data[:] = big
        else:
            x.data[:] = big / 4
            blk.conv_f.w.data[:] = np.abs(blk.conv_f.w.data)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError) as fused:
                blk(x, t_emb)
            with pytest.raises(NumericalError) as reference:
                _reference_block(blk, x, t_emb)
        assert str(fused.value) == str(reference.value) == f"non-finite values in op '{op}'"


class TestScoreNet:
    def _net(self, dtype=np.float64):
        return nn.ScoreNet(4, 6, width=8, blocks=2, time_dim=8,
                           rng=np.random.default_rng(3), dtype=dtype)

    def test_zero_weights_zero_output(self):
        net = self._net()
        _zero_params(net.params())
        out = net(np.ones((5, 4)), np.ones((5, 4)), np.ones((5, 6)), 0.5)
        assert np.all(out.data == 0)

    def test_time_conditioning_changes_output(self):
        net = self._net()
        z = np.random.default_rng(4).standard_normal((5, 4))
        mu = np.zeros((5, 4))
        h = np.zeros((5, 6))
        a = net(z, mu, h, 0.1).data
        b = net(z, mu, h, 0.9).data
        assert np.abs(a - b).max() > 1e-6

    def test_full_network_gradcheck(self):
        net = self._net()
        rng = np.random.default_rng(5)
        z = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        mu = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        h = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        probe = rng.standard_normal((4, 4))
        tensors = [z, mu, h] + [p for _, p in net.params()]
        err = gradient_check(
            lambda: (net(z, mu, h, 0.37) * probe).sum(),
            tensors, n_points=5, rng=np.random.default_rng(6),
        )
        assert err < 1e-4

    def test_frame_mismatch_rejected(self):
        net = self._net()
        with pytest.raises(ValueError):
            net(np.zeros((5, 4)), np.zeros((4, 4)), np.zeros((5, 6)), 0.5)


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = nn.AdamW([("p", p)], lr=1e-2, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_matches_hand_formula(self):
        # m_hat = g, v_hat = g^2, update = -lr g / (|g| + eps) ~ -lr sign(g)
        g = 0.37
        lr = 1e-3
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = nn.AdamW([("p", p)], lr=lr, beta1=0.8, beta2=0.99, weight_decay=0.0)
        p.grad = np.array([g])
        opt.step()
        expect = 5.0 - lr * g / (abs(g) + 1e-8)
        assert abs(p.data[0] - expect) < 1e-12

    def test_decoupled_weight_decay_applies_before_update(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = nn.AdamW([("p", p)], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert abs(p.data[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-12

    def test_quadratic_bowl_descends(self):
        p = Tensor(np.array([0.5]), requires_grad=True)
        opt = nn.AdamW([("p", p)], lr=2e-4, weight_decay=0.0)
        trail = []
        for _ in range(200):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
            trail.append(abs(float(p.data[0])))
        assert all(b < a for a, b in zip(trail[5:], trail[6:]))

    def test_nonfinite_grad_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = nn.AdamW([("p", p)], lr=1e-3)
        p.grad = np.array([np.inf])
        with pytest.raises(NumericalError):
            opt.step()

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            p = Tensor(rng.standard_normal(4), requires_grad=True)
            opt = nn.AdamW([("p", p)], lr=1e-3)
            for _ in range(50):
                opt.zero_grad()
                ((p - 1.0) * (p - 1.0)).sum().backward()
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_moments_are_keyed_by_param_name(self):
        p, q = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        opt = nn.AdamW([("a.w", p), ("b", q)], lr=1e-3)
        p.grad, q.grad = np.full(2, 0.5), np.full(3, -2.0)
        opt.step()
        state = opt.state_arrays()
        assert list(state) == ["adam.m.a.w", "adam.v.a.w", "adam.m.b", "adam.v.b"]
        restored = nn.AdamW([("a.w", p), ("b", q)], lr=1e-3)
        restored.load_state_arrays(state, opt.step_count)
        for ours, theirs in ((restored.m, opt.m), (restored.v, opt.v)):
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
        assert restored.step_count == 1

    def test_bare_params_are_refused(self):
        with pytest.raises(TypeError):
            nn.AdamW([Tensor(np.zeros(2), requires_grad=True)], lr=1e-3)

    def test_validation(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            nn.AdamW([("p", p)], lr=0.0)
        with pytest.raises(ValueError):
            nn.AdamW([("p", p)], lr=1e-3, beta1=1.0)


class TestToyAutoencoder:
    def test_untrained_loss_finite_positive(self):
        rng = np.random.default_rng(8)
        enc = nn.MelEncoder(16, 4, 8, rng)
        dec = nn.MelDecoder(16, 4, 8, rng)
        x = rng.standard_normal((10, 16)).astype(np.float32)
        out = dec(enc(x))
        loss = float(np.abs(out.data - x).mean())
        assert np.isfinite(loss) and loss > 0

    def test_inference_deterministic(self):
        rng = np.random.default_rng(9)
        enc = nn.MelEncoder(16, 4, 8, rng)
        x = np.random.default_rng(1).standard_normal((10, 16)).astype(np.float32)
        assert np.array_equal(enc(x).data, enc(x).data)


def test_time_embedding_shape_and_variation():
    a = nn.time_embedding(0.1, 16)
    b = nn.time_embedding(0.9, 16)
    assert a.shape == (16,)
    assert np.abs(a - b).max() > 0.1
    # one row per window for a (B,) t, each the scalar embedding bit for bit
    rows = nn.time_embedding(np.array([0.1, 0.9, 0.1]), 16)
    assert rows.shape == (3, 1, 16) and rows.dtype == a.dtype
    for row, want in zip(rows[:, 0], (a, b, a)):
        assert row.tobytes() == want.tobytes()


def test_set_params_shape_check():
    rng = np.random.default_rng(0)
    lin = nn.Linear(3, 2, rng)
    with pytest.raises(ValueError):
        nn.set_params(lin.params("l"), {"l.w": np.zeros((2, 3)), "l.b": np.zeros(2)})
    with pytest.raises(KeyError):
        nn.set_params(lin.params("l"), {"l.w": np.zeros((3, 2))})
