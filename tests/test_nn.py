import math

import numpy as np
import pytest

from minisvs import diffusion, nn
from minisvs.autodiff import NumericalError, Tensor, as_tensor, conv1d3, gradient_check


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


class TestFrozen:
    def test_constant_params_over_the_live_arrays(self):
        net = nn.ScoreNet(4, 6, 8, 2, 8, np.random.default_rng(0))
        frozen = net.frozen()
        assert type(frozen) is nn.ScoreNet and frozen.time_dim == net.time_dim
        live, cold = net.params("s"), frozen.params("s")
        assert [n for n, _ in cold] == [n for n, _ in live]
        for (_, p), (_, f) in zip(live, cold):
            assert f is not p and f.data is p.data
            assert p.requires_grad and not f.requires_grad
        # an in-place update of the live layer shows in the copy
        net.out.b.data += 1.0
        assert np.array_equal(frozen.out.b.data, net.out.b.data)

    def test_same_output_and_input_gradient_and_no_weight_gradient(self):
        rng = np.random.default_rng(1)
        disc = nn.MelPatchDiscriminator(6, 8, rng)
        x = rng.standard_normal((2, 7, 6)).astype(np.float32)
        runs = []
        for net in (disc.frozen(), disc):
            xt = Tensor(x.copy(), requires_grad=True)
            scores, feats = net(xt)
            loss = (scores * scores).mean() + abs(feats[1]).mean()
            loss.backward()
            runs.append((scores.data, feats[0].data, loss.data, xt.grad))
            # the frozen pass leaves every weight gradient, its own and the live one's, unset
            assert all((p.grad is None) == (net is not disc) for _, p in disc.params())
            assert all(p.grad is None for _, p in net.params()) == (net is not disc)
        for cold, live in zip(*runs):
            assert live.tobytes() == cold.tobytes()


class TestGradNorms:
    def test_groups_read_as_their_own_norms(self):
        rng = np.random.default_rng(2)
        params = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                  for s in ((3, 4), (5,), (2, 2), (6,))]
        for p, scale in zip(params[:3], (1.0, 1e-3, 1e3)):
            p.grad = (rng.standard_normal(p.shape) * scale).astype(np.float32)
        groups = [[params[2], params[0]], [params[3]], [params[1]]]

        def reference(members):
            total = 0.0
            for p in members:
                if p.grad is not None:
                    total += float((p.grad.astype(np.float64) ** 2).sum())
            return math.sqrt(total)

        opt = nn.AdamW([(f"p{i}", p) for i, p in enumerate(params)], lr=1e-3)
        got = opt.step(groups)
        assert got == [reference(params)] + [reference(g) for g in groups]
        assert got[2] == 0.0
        assert opt.step() == got[:1]


def _reference_block(blk, x, t_emb=None):
    """The gated block as the taped layer composition that the fused op
    replaced: a Conv3 and a Linear per gate, each over leaves holding its half
    of the fused arrays. Returns the output and a function that gives, after
    a backward, the gradients of blk.params() in order, each gate pair's
    joined along the last axis as the fused array is."""
    c = x.shape[-1]

    def halves(p):
        # data is set after construction, which checks it, since a live
        # parameter may hold non-finite values
        out = []
        for half in (slice(None, c), slice(c, None)):
            leaf = Tensor(np.zeros(0, p.dtype), requires_grad=p.requires_grad)
            leaf.data = p.data[..., half].copy()
            out.append(leaf)
        return out

    (wf, wg), (bf, bg) = halves(blk.gate_w), halves(blk.gate_b)
    a = conv1d3(x, wf, bf)
    g = conv1d3(x, wg, bg)
    pairs = [(wf, wg), (bf, bg)]
    if t_emb is not None:
        (wtf, wtg), (btf, btg) = halves(blk.time_w), halves(blk.time_b)
        a = a + (t_emb @ wtf + btf)
        g = g + (t_emb @ wtg + btg)
        pairs += [(wtf, wtg), (btf, btg)]
    out = x + blk.proj(a.tanh() * g.sigmoid())

    def grads():
        joined = [None if f.grad is None else np.concatenate([f.grad, g.grad], axis=-1)
                  for f, g in pairs]
        return joined[:2] + [blk.proj.w.grad, blk.proj.b.grad] + joined[2:]
    return out, grads


def _numpy_block(blk, x, te, gout):
    """The block's formulation in plain numpy, out of place: the output, then
    the gradients of x, te (None when untimed) and every parameter in
    params() order, for the output gradient gout."""
    w, b, wp, bp = (p.data for _, p in blk.params()[:4])
    c, lead = x.shape[-1], x.shape[:-1]
    t = x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(1, 1), (0, 0)])
    col = np.concatenate([xp[..., 0:t, :], xp[..., 1 : t + 1, :], xp[..., 2 : t + 2, :]], axis=-1)
    col = col.reshape(-1, 3 * c)
    w = w.reshape(3 * c, 2 * c)
    h = col @ w + b
    if te is not None:
        wt, bt = (p.data for _, p in blk.params()[4:])
        tt = te @ wt + bt
        h = (h.reshape(lead + (2 * c,)) + tt).reshape(-1, 2 * c)
    th = np.tanh(h[:, :c])
    sg = 0.5 * np.tanh(0.5 * h[:, c:]) + 0.5
    prod = th * sg
    out = (prod @ wp).reshape(lead + (c,)) + bp + x

    g2 = gout.reshape(-1, c)
    gs = (g2 @ wp.T) * sg
    gh = np.concatenate([(1.0 - th * th) * gs, gs * th * (1.0 - sg)], axis=1)
    gcol = (gh @ w.T).reshape(lead + (3 * c,))
    gx = gcol[..., c : 2 * c] + gout
    gx[..., :-1, :] += gcol[..., 1:, :c]
    gx[..., 1:, :] += gcol[..., :-1, 2 * c :]
    grads = [(col.T @ gh).reshape(3, c, 2 * c), gh.sum(axis=0),
             prod.T @ g2, gout.sum(axis=tuple(range(gout.ndim - 1)))]
    if te is None:
        return [out, gx, None] + grads
    gh = gh.reshape(lead + (2 * c,))
    gt = (gh.sum(axis=tuple(range(gh.ndim - 1))) if te.ndim == 1
          else gh.sum(axis=-2, keepdims=True))
    gwt = te.reshape(-1, te.shape[-1]).T @ gt.reshape(-1, 2 * c)
    gbt = gt.sum(axis=tuple(range(gt.ndim - 1)))
    return [out, gx, gt @ wt.T] + grads + [gwt, gbt]


def _same_bits(got, want):
    if got is None or want is None:
        return got is None and want is None
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


_GRAD_CASES = pytest.mark.parametrize("timed,x_grad,t_grad", [
    (False, True, False), (False, False, False),
    (True, True, True), (True, True, False), (True, False, True), (True, False, False),
], ids=["untimed-x", "untimed-const-x", "timed-x-t", "timed-x", "timed-t", "timed-const"])
_BLOCK_SHAPES = pytest.mark.parametrize("shape,t_shape", [
    ((461, 64), (32,)), ((2, 128, 64), (32,)), ((4, 128, 64), (32,)),
    ((4, 128, 64), (4, 1, 32)),
], ids=["461x64", "2x128x64", "4x128x64", "4x128x64-t-per-window"])


class TestFusedGatedBlock:
    @pytest.mark.parametrize("time_dim", [None, 6])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_init_holds_the_per_gate_layers_draws(self, seed, dtype, time_dim):
        # the layers the fused parameters replaced, drawn from the same seed
        # in their order; a single (3, C, 2C) kernel draw fails this
        rng = np.random.default_rng(seed)
        blk = nn.GatedConvBlock(4, rng, time_dim=time_dim, dtype=dtype)
        ref = np.random.default_rng(seed)
        conv_f, conv_g = nn.Conv3(4, 4, ref, dtype), nn.Conv3(4, 4, ref, dtype)
        proj = nn.Linear(4, 4, ref, dtype)
        want = [np.concatenate([conv_f.w.data, conv_g.w.data], axis=-1),
                np.concatenate([conv_f.b.data, conv_g.b.data]), proj.w.data, proj.b.data]
        if time_dim:
            time_f, time_g = nn.Linear(6, 4, ref, dtype), nn.Linear(6, 4, ref, dtype)
            want += [np.concatenate([time_f.w.data, time_g.w.data], axis=-1),
                     np.concatenate([time_f.b.data, time_g.b.data])]
        got = [p.data for _, p in blk.params()]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _same_bits(g, w)
        assert rng.bit_generator.state == ref.bit_generator.state

    @staticmethod
    def _setup(dtype, shape, timed, x_grad=True, t_grad=False, t_shape=(32,)):
        rng = np.random.default_rng(11)
        blk = nn.GatedConvBlock(shape[-1], rng, time_dim=32 if timed else None, dtype=dtype)
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=x_grad)
        t_emb = (Tensor(rng.standard_normal(t_shape).astype(dtype), requires_grad=t_grad)
                 if timed else None)
        return blk, x, t_emb

    @staticmethod
    def _fused(blk, x, t_emb):
        return blk(x, t_emb), lambda: [p.grad for _, p in blk.params()]

    @staticmethod
    def _run(fn, blk, x, t_emb, probe):
        inputs = [x] + ([t_emb] if t_emb is not None else [])
        for leaf in inputs + [p for _, p in blk.params("b")]:
            leaf.grad = None
        out, param_grads = fn(blk, x, t_emb)
        (out * probe).sum().backward()
        return [out.data] + [leaf.grad for leaf in inputs] + param_grads()

    @_GRAD_CASES
    @_BLOCK_SHAPES
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_and_every_gradient_match_the_numpy_reference_bit_for_bit(
        self, dtype, shape, t_shape, timed, x_grad, t_grad
    ):
        blk, x, t_emb = self._setup(dtype, shape, timed, x_grad, t_grad, t_shape)
        probe = np.random.default_rng(12).standard_normal(shape).astype(dtype)
        got = self._run(self._fused, blk, x, t_emb, probe)
        want = _numpy_block(blk, x.data, t_emb.data if timed else None, probe)
        if not x_grad:
            want[1] = None
        if not timed:
            del want[2]
        elif not t_grad:
            want[2] = None
        assert got[0].dtype == dtype
        assert (got[1] is not None) == x_grad
        if timed:
            assert (got[2] is not None) == t_grad
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _same_bits(g, w)

    @_GRAD_CASES
    @_BLOCK_SHAPES
    def test_float64_output_and_every_gradient_agree_with_the_composition(
        self, shape, t_shape, timed, x_grad, t_grad
    ):
        blk, x, t_emb = self._setup(np.float64, shape, timed, x_grad, t_grad, t_shape)
        probe = np.random.default_rng(12).standard_normal(shape)
        got = self._run(self._fused, blk, x, t_emb, probe)
        want = self._run(_reference_block, blk, x, t_emb, probe)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.shape == w.shape
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("shape,t_shape", [((461, 64), (32,)), ((4, 128, 64), (4, 1, 32)),
                                               ((4, 128, 64), None)])
    def test_backward_closure_keeps_only_x_and_the_gate_outputs(self, shape, t_shape):
        # x, tanh, sigmoid and their product, each one output wide; neither
        # the im2col copy of x nor the (..., 2C) gate pre-activation
        timed = t_shape is not None
        blk, x, t_emb = self._setup(np.float32, shape, timed, t_shape=t_shape or (32,))
        out = blk(x, t_emb)
        params = {id(p.data) for _, p in blk.params()}
        held, stack = {}, [cell.cell_contents for cell in out._grad_fn.__closure__]
        while stack:
            obj = stack.pop()
            if isinstance(obj, Tensor):
                stack.append(obj.data)
            elif isinstance(obj, np.ndarray) and id(obj) not in params:
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                held[id(obj)] = obj
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
        te_bytes = t_emb.data.nbytes if timed else 0
        assert sum(a.nbytes for a in held.values()) <= 4 * out.data.nbytes + te_bytes
        assert all(a.shape[-1] <= out.shape[-1] for a in held.values())

    def test_frozen_block_builds_no_tape(self):
        blk, x, t_emb = self._setup(np.float32, (5, 8), timed=True, x_grad=False)
        for _, p in blk.params("b"):
            p.requires_grad = False
        out = blk(x, t_emb)
        assert not out.requires_grad and out._parents == () and out._grad_fn is None
        want = _numpy_block(blk, x.data, t_emb.data, np.zeros(x.shape, np.float32))[0]
        assert _same_bits(out.data, want)
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
        # the same entries as in the per-gate layers: conv_f and time_f are
        # the first c columns of the fused arrays, conv_g and time_g the rest
        c = x.shape[-1]
        if case == "inf-conv_f.w":
            blk.gate_w.data[1, 2, 3] = np.inf
        elif case == "overflow-time_g.w":
            t_emb.data[:] = np.abs(t_emb.data) + 0.5
            blk.time_w.data[:, c:] = big
        elif case == "overflow-proj.w":
            # gate products all equal tanh(1) * sigmoid(1) > 0, so the sums overflow
            blk.gate_w.data[:] = 0.0
            blk.gate_b.data[:] = 1.0
            blk.time_w.data[:] = 0.0
            blk.proj.w.data[:] = big
        else:
            # every tanh-gate value sums 16 or 24 terms of at least |w| * big
            x.data[:] = big
            blk.gate_w.data[..., :c] = np.abs(blk.gate_w.data[..., :c])
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

    def _f32_net(self):
        # random biases too, so a reordered bias add would show as well
        net = self._net(np.float32)
        rng = np.random.default_rng(8)
        for _, p in net.params():
            p.data[...] = 0.3 * rng.standard_normal(p.shape)
        return net

    @staticmethod
    def _taped_call(net, z, mu, h, t):
        """The score with its input sum as the taped composition
        z_in(z) + mu_in(mu) + cond_in(h), each x @ w + b, added in that order."""
        z, mu, h = (as_tensor(a, np.float32) for a in (z, mu, h))
        x = (z @ net.z_in.w + net.z_in.b + (mu @ net.mu_in.w + net.mu_in.b)
             + (h @ net.cond_in.w + net.cond_in.b))
        t_emb = Tensor(nn.time_embedding(t, net.time_dim, np.float32))
        for blk in net.block:
            x = blk(x, t_emb)
        return net.out(x)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["window", "stacked"])
    def test_input_terms_give_the_bits_of_the_taped_input_sum(self, lead):
        net = self._f32_net()
        rng = np.random.default_rng(9)
        z, mu = (rng.standard_normal(lead + (37, 4)) for _ in range(2))
        h = rng.standard_normal(lead + (37, 6)).astype(np.float32)
        terms = net.input_terms(mu, h)
        for t in (1.0, 0.37):
            want = self._taped_call(net, z, mu, h, t).data
            assert np.array_equal(net(z, mu, h, t).data, want)
            assert np.array_equal(net(z, None, None, t, terms=terms).data, want)

    def test_four_argument_call_keeps_the_taped_input_sum_gradients(self):
        net = self._f32_net()
        rng = np.random.default_rng(11)
        inputs = [Tensor(rng.standard_normal((3, 37, n)).astype(np.float32), requires_grad=True)
                  for n in (4, 4, 6)]
        leaves = inputs + [p for _, p in net.params()]
        probe = rng.standard_normal((3, 37, 4)).astype(np.float32)
        runs = []
        for call in (net, lambda *a: self._taped_call(net, *a)):
            for leaf in leaves:
                leaf.grad = None
            (call(*inputs, np.array([0.2, 0.5, 0.9])) * probe).sum().backward()
            runs.append([leaf.grad for leaf in leaves])
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("prior", ["data", "standard"])
    def test_sampler_with_terms_formed_once_keeps_the_per_step_bits(self, prior):
        net = self._f32_net()
        rng = np.random.default_rng(4)
        mu = rng.standard_normal((37, 4)) if prior == "data" else np.zeros((37, 4))
        h = rng.standard_normal((37, 6)).astype(np.float32)
        terms = net.input_terms(mu, h)
        score_fns = {
            "taped": lambda z, m, h, t: self._taped_call(net, z, m, h, t).data,
            "four-argument": lambda z, m, h, t: net(z, m, h, t).data,
            "hoisted": lambda z, m, h, t: net(z, None, None, t, terms=terms).data,
        }
        sched = diffusion.NoiseSchedule()
        cfg = diffusion.SamplerConfig(steps=6, tau=1.5, seed=2)
        want, *got = (diffusion.reverse_sample(fn, mu, h, sched, cfg) for fn in score_fns.values())
        for out in got:
            assert np.array_equal(out, want)

    def test_input_terms_are_formed_as_linear_forms_a_term(self):
        net = self._f32_net()
        rng = np.random.default_rng(10)
        mu = rng.standard_normal((37, 4))
        h = rng.standard_normal((37, 6)).astype(np.float32)
        mu_term, cond_term = net.input_terms(mu, h)
        want = mu.astype(np.float32) @ net.mu_in.w.data
        want += net.mu_in.b.data
        assert np.array_equal(mu_term.data, want)
        want = h @ net.cond_in.w.data
        want += net.cond_in.b.data
        assert np.array_equal(cond_term.data, want)

    def test_z_frames_other_than_the_terms_frames_rejected(self):
        net = self._net()
        terms = net.input_terms(np.zeros((5, 4)), np.zeros((5, 6)))
        with pytest.raises(ValueError, match=r"frame counts differ: z_t \(4, 4\), input terms \(5, 8\)"):
            net(np.zeros((4, 4)), None, None, 0.5, terms=terms)

    def test_terms_of_mu_and_cond_with_other_frame_counts_rejected(self):
        with pytest.raises(ValueError, match=r"frame counts differ: mu \(4, 4\), cond \(5, 6\)"):
            self._net().input_terms(np.zeros((4, 4)), np.zeros((5, 6)))

    def test_terms_and_their_inputs_together_rejected(self):
        net = self._net()
        terms = net.input_terms(np.zeros((5, 4)), np.zeros((5, 6)))
        with pytest.raises(ValueError, match="not both"):
            net(np.zeros((5, 4)), np.zeros((5, 4)), None, 0.5, terms=terms)

    @pytest.mark.parametrize("layer", ["mu_in", "cond_in"])
    @pytest.mark.parametrize("op", ["matmul", "add"])
    def test_overflowing_input_projection_names_the_op_of_the_taped_sum(self, layer, op):
        # the op the taped input sum z_in + mu_in + cond_in names for the
        # same inputs; the terms raise it before any score is computed
        net = self._net(np.float32)
        big = np.finfo(np.float32).max
        x = {"mu_in": np.zeros((5, 4), np.float32), "cond_in": np.zeros((5, 6), np.float32)}
        lin = getattr(net, layer)
        if op == "matmul":
            x[layer][:] = 1.0
            lin.w.data[:] = big
        else:
            x[layer][0, 0] = big / 2
            lin.w.data[:] = 0.0
            lin.w.data[0, 0] = 1.0
            lin.b.data[0] = big
        mu, h = as_tensor(x["mu_in"]), as_tensor(x["cond_in"])
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError) as hoisted:
                net.input_terms(mu, h)
            with pytest.raises(NumericalError) as per_step:
                self._taped_call(net, np.zeros((5, 4), np.float32), mu, h, 0.5)
        assert str(hoisted.value) == str(per_step.value) == f"non-finite values in op '{op}'"


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

    def test_set_params_keeps_the_views_that_step_moves(self):
        # as a resumed run does: optimizer first, then the checkpoint's params
        named = nn.Linear(3, 4, np.random.default_rng(3)).params()
        opt = nn.AdamW(named, lr=1e-2)
        views = [p.data for _, p in named]
        saved = {name: np.full(p.shape, 0.5) for name, p in named}
        nn.set_params(named, saved)
        for (_, p), view in zip(named, views):
            assert p.data is view and p.dtype == np.float32 and np.all(p.data == 0.5)
            p.grad = np.ones(p.shape, np.float32)
        opt.step()
        assert all(p.data is view and np.all(p.data < 0.5) for (_, p), view in zip(named, views))

    def test_replaced_param_array_is_refused_by_name(self):
        p, q = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        opt = nn.AdamW([("a.w", p), ("b", q)], lr=1e-3)
        q.data = q.data.copy()
        with pytest.raises(RuntimeError, match="'b'"):
            opt.step()
        assert opt.step_count == 0

    def test_mixed_dtypes_and_repeated_params_are_refused(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2, np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="dtypes"):
            nn.AdamW([("p", p), ("q", q)], lr=1e-3)
        with pytest.raises(ValueError, match="twice"):
            nn.AdamW([("p", p), ("again", p)], lr=1e-3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_grad_leaves_its_run_unchanged(self, bad):
        params = [Tensor(np.full(n, 1.0, np.float32), requires_grad=True) for n in (3, 4, 5)]
        opt = nn.AdamW([(f"p{i}", p) for i, p in enumerate(params)], lr=1e-3)
        for p in params:
            p.grad = np.ones(p.shape, np.float32)
        params[1].grad[2] = bad
        with pytest.raises(NumericalError, match="optimizer step 1"):
            opt.step()
        assert all(np.all(p.data == 1.0) for p in params)

    def test_finite_grads_whose_squares_overflow_are_stepped(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = nn.AdamW([("p", p)], lr=1e-3)
        p.grad = np.full(2, np.finfo(np.float64).max)
        with np.errstate(over="ignore"):
            assert opt.step() == [math.inf]
        assert opt.step_count == 1

    def test_bare_params_are_refused(self):
        with pytest.raises(TypeError):
            nn.AdamW([Tensor(np.zeros(2), requires_grad=True)], lr=1e-3)

    def test_validation(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            nn.AdamW([("p", p)], lr=0.0)
        with pytest.raises(ValueError):
            nn.AdamW([("p", p)], lr=1e-3, beta1=1.0)


class _ReferenceAdamW:
    """AdamW param by param, each expression over one param's arrays, and
    each norm from the per-param float64 squared sums."""

    def __init__(self, params, lr, beta1, beta2, weight_decay):
        self.params = [p.copy() for p in params]
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.lr, self.beta1, self.beta2, self.wd = lr, beta1, beta2, weight_decay
        self.t = 0

    def step(self, grads, groups):
        self.t += 1
        bc1, bc2 = 1.0 - self.beta1**self.t, 1.0 - self.beta2**self.t
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            g = np.zeros_like(p) if g is None else g
            p *= 1.0 - self.lr * self.wd
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            denom = np.sqrt(v / bc2)
            denom += nn.ADAM_EPS
            p -= (self.lr / bc1) * m / denom
        squares = [0.0 if g is None else float((g.astype(np.float64) ** 2).sum()) for g in grads]
        norms = []
        for members in (range(len(grads)), *groups):
            total = 0.0
            for i in members:
                total += squares[i]
            norms.append(math.sqrt(total))
        return norms


class TestAdamWRuns:
    # runs: [0-4] share one, [5] is larger than a run, [6-7] share one, and
    # [8] fills one alone because adding [9] would pass ADAM_BLOCK
    SHAPES = [(3, 4), (5,), (7, 2, 3), (1,), (64, 65), (nn.ADAM_BLOCK + 17,), (9,), (2, 11),
              (nn.ADAM_BLOCK - 10,), (40,), (6, 3)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_params_moments_and_norms_have_the_per_param_bits(self, dtype):
        rng = np.random.default_rng(11)
        params = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                  for s in self.SHAPES]
        ref = _ReferenceAdamW([p.data for p in params], 3e-3, 0.8, 0.99, 0.01)
        opt = nn.AdamW([(f"p{i}", p) for i, p in enumerate(params)], lr=3e-3)
        groups = [[7, 0, 5], [3], [8, 9, 1]]
        for _ in range(6):
            grads = [(rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 4)).astype(dtype)
                     for p in params]
            grads[6] = None
            for p, g in zip(params, grads):
                p.grad = g
            want = ref.step(grads, groups)
            assert opt.step([[params[i] for i in g] for g in groups]) == want
        for ours, theirs in (([p.data for p in params], ref.params), (opt.m, ref.m),
                             (opt.v, ref.v)):
            for a, b in zip(ours, theirs):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
