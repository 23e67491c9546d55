"""Layers, desk-scale networks and the AdamW optimizer.

All parameters are autodiff Tensors; parameter names are stable so that
checkpoints round-trip. Training nets run in float32 (matching the f32
checkpoint format, which makes resume bit-exact); gradient-check builds
pass dtype=float64.
"""
from __future__ import annotations

import math

import numpy as np

from .autodiff import (
    NumericalError,
    Tensor,
    _check_finite,
    _sigmoid,
    _unbroadcast,
    as_tensor,
    conv1d3,
    conv3_backward,
    conv3_forward,
    conv3_pad,
    custom,
    embedding,
    matmul_weight_grad,
)


def _uniform(rng, fan_in: int, shape, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Module:
    """A layer whose parameters are its own attributes.

    params(prefix) walks the attributes in the order __init__ assigns them:
    a Tensor is a parameter named prefix.attr, a sub-layer is walked with
    prefix prefix.attr, and item i of a list of sub-layers with prefix.attr{i}.
    That order is the checkpoint layout and the optimizer's order.
    """

    def params(self, prefix: str = ""):
        out = []
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Tensor):
                out.append((name, value))
            elif isinstance(value, Module):
                out += value.params(name)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out += item.params(f"{name}{i}")
        return out


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng, dtype=np.float32):
        self.w = Tensor(_uniform(rng, n_in, (n_in, n_out), dtype), requires_grad=True)
        self.b = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return as_tensor(x, self.w.dtype) @ self.w + self.b


class Conv3(Module):
    """Width-3 frame convolution, zero padded, length preserving."""

    def __init__(self, n_in: int, n_out: int, rng, dtype=np.float32):
        self.w = Tensor(_uniform(rng, 3 * n_in, (3, n_in, n_out), dtype), requires_grad=True)
        self.b = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return conv1d3(as_tensor(x, self.w.dtype), self.w, self.b)


class Embedding(Module):
    def __init__(self, n_ids: int, dim: int, rng, dtype=np.float32):
        self.table = Tensor(_uniform(rng, dim, (n_ids, dim), dtype), requires_grad=True)

    def __call__(self, ids):
        return embedding(self.table, ids)


class GatedConvBlock(Module):
    """Residual block: x + proj(tanh(conv_f(x) + tf) * sigmoid(conv_g(x) + tg)).

    The optional time vector, (time_dim,) or one (B, 1, time_dim) row per
    window, is injected additively into both gates, one linear per gate,
    broadcast over frames.

    The block is one op, "gated_block". Its forward runs the numpy of the
    layer-by-layer composition above, op for op, with both convolutions
    reading one padded input. Its backward is written by hand with the
    formulas and the summation order the tape gives that composition, so
    values and gradients have the same bits as the composition's.
    """

    def __init__(self, width: int, rng, time_dim: int | None = None, dtype=np.float32):
        self.conv_f = Conv3(width, width, rng, dtype)
        self.conv_g = Conv3(width, width, rng, dtype)
        self.proj = Linear(width, width, rng, dtype)
        self.time_f = Linear(time_dim, width, rng, dtype) if time_dim else None
        self.time_g = Linear(time_dim, width, rng, dtype) if time_dim else None

    def __call__(self, x, t_emb=None):
        if t_emb is not None and self.time_f is None:
            raise ValueError("block was built without time conditioning")
        wf, bf, wg, bg = self.conv_f.w, self.conv_f.b, self.conv_g.w, self.conv_g.b
        wp, bp = self.proj.w, self.proj.b
        x = as_tensor(x, wf.dtype)
        xp = conv3_pad(x.data, wf.data)
        a = cf = conv3_forward(xp, wf.data, bf.data)
        g = cg = conv3_forward(xp, wg.data, bg.data)
        # the composition's op outputs, in op order, for naming a non-finite one
        steps = [("conv1d3", cf), ("conv1d3", cg)]
        parents = (x, wf, bf, wg, bg, wp, bp)
        if t_emb is not None:
            te = as_tensor(t_emb, wf.dtype)
            wtf, btf, wtg, btg = self.time_f.w, self.time_f.b, self.time_g.w, self.time_g.b
            mf = te.data @ wtf.data
            tf = mf + btf.data
            a = cf + tf
            mg = te.data @ wtg.data
            tg = mg + btg.data
            g = cg + tg
            steps += [("matmul", mf), ("add", tf), ("add", a),
                      ("matmul", mg), ("add", tg), ("add", g)]
            parents += (te, wtf, btf, wtg, btg)
        th = np.tanh(a)
        sg = _sigmoid(g)
        prod = th * sg
        pm = prod @ wp.data
        p = pm + bp.data
        out = x.data + p
        # tanh and sigmoid bound their outputs, so a non-finite value in any
        # op output shows in a gate pre-activation or in the block output
        if not (np.isfinite(a.sum()) and np.isfinite(g.sum()) and np.isfinite(out.sum())):
            steps += [("tanh", th), ("sigmoid", sg), ("mul", prod),
                      ("matmul", pm), ("add", p), ("add", out)]
            for op, arr in steps:
                _check_finite(op, arr)

        def grad_fn(gout):
            # reverse op order: residual, proj, product, tanh and sigmoid,
            # then each gate's conv and time linear; x sums its three terms
            # as the tape would, residual first, then conv_f, then conv_g
            gm = gout @ wp.data.T
            ga = gm * sg * (1.0 - th * th)
            gg = gm * th * sg * (1.0 - sg)
            gx_f, gwf, gbf = conv3_backward(ga, xp, wf.data, x.requires_grad,
                                            wf.requires_grad, bf.requires_grad)
            gx_g, gwg, gbg = conv3_backward(gg, xp, wg.data, x.requires_grad,
                                            wg.requires_grad, bg.requires_grad)
            gx = (gout + gx_f) + gx_g if x.requires_grad else None
            gwp = matmul_weight_grad(prod, gout) if wp.requires_grad else None
            gbp = _unbroadcast(gout, bp.data.shape) if bp.requires_grad else None
            grads = (gx, gwf, gbf, gwg, gbg, gwp, gbp)
            if t_emb is None:
                return grads
            gtf = _unbroadcast(ga, tf.shape)
            gtg = _unbroadcast(gg, tg.shape)
            gte = gtf @ wtf.data.T + gtg @ wtg.data.T if te.requires_grad else None
            return grads + (
                gte,
                matmul_weight_grad(te.data, gtf) if wtf.requires_grad else None,
                _unbroadcast(gtf, btf.shape) if btf.requires_grad else None,
                matmul_weight_grad(te.data, gtg) if wtg.requires_grad else None,
                _unbroadcast(gtg, btg.shape) if btg.requires_grad else None,
            )
        return custom(out, parents, grad_fn, "gated_block")


def time_embedding(t, dim: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal embedding of a diffusion time t in [0, 1]: (dim,) for a
    scalar t, (B, 1, dim) for a (B,) t, one row per window."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    t = np.asarray(t, dtype=np.float64)
    ang = 1000.0 * t[..., None, None] * freqs
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=-1).astype(dtype)
    return emb if t.ndim else emb[0]


class ScoreNet(Module):
    """Conditional score estimator s(z_t, mu_hat, h_cond, t) -> frames x D.

    Additive input projections feed a stack of gated residual blocks; the
    diffusion time, a scalar or one per window of a (B, frames, D) batch,
    enters every block through a sinusoidal embedding.
    """

    def __init__(self, latent_dim: int, cond_dim: int, width: int, blocks: int, time_dim: int,
                 rng, dtype=np.float32):
        self.time_dim = time_dim
        self.dtype = dtype
        self.z_in = Linear(latent_dim, width, rng, dtype)
        self.mu_in = Linear(latent_dim, width, rng, dtype)
        self.cond_in = Linear(cond_dim, width, rng, dtype)
        self.block = [GatedConvBlock(width, rng, time_dim, dtype) for _ in range(blocks)]
        self.out = Linear(width, latent_dim, rng, dtype)

    def __call__(self, z_t, mu_hat, h_cond, t):
        z_t = as_tensor(z_t, self.dtype)
        mu_hat = as_tensor(mu_hat, self.dtype)
        h_cond = as_tensor(h_cond, self.dtype)
        if not (z_t.shape[-2] == mu_hat.shape[-2] == h_cond.shape[-2]):
            raise ValueError(
                f"frame counts differ: z_t {z_t.shape}, mu {mu_hat.shape}, cond {h_cond.shape}"
            )
        t_emb = Tensor(time_embedding(t, self.time_dim, self.dtype))
        h = self.z_in(z_t) + self.mu_in(mu_hat) + self.cond_in(h_cond)
        for blk in self.block:
            h = blk(h, t_emb)
        return self.out(h)


class MelEncoder(Module):
    """Log-mel frames -> continuous latent, frames x D."""

    def __init__(self, mel_bins: int, latent_dim: int, width: int, rng):
        self.lin_in = Linear(mel_bins, width, rng)
        self.block = GatedConvBlock(width, rng)
        self.lin_out = Linear(width, latent_dim, rng)

    def __call__(self, x):
        h = self.lin_in(x).tanh()
        h = self.block(h)
        return self.lin_out(h)


class MelDecoder(Module):
    """Quantized latent -> log-mel frames."""

    def __init__(self, mel_bins: int, latent_dim: int, width: int, rng):
        self.lin_in = Linear(latent_dim, width, rng)
        self.block = GatedConvBlock(width, rng)
        self.lin_out = Linear(width, mel_bins, rng)

    def __call__(self, z):
        h = self.lin_in(z).tanh()
        h = self.block(h)
        return self.lin_out(h)


class MelPatchDiscriminator(Module):
    """Small conv net scoring log-mel patches; exposes per-layer features."""

    def __init__(self, mel_bins: int, width: int, rng):
        self.conv1 = Conv3(mel_bins, width, rng)
        self.conv2 = Conv3(width, width, rng)
        self.head = Linear(width, 1, rng)

    def __call__(self, x):
        """Returns (per-frame scores, [layer features])."""
        f1 = self.conv1(x).relu()
        f2 = self.conv2(f1).relu()
        return self.head(f2), [f1, f2]


ADAM_EPS = 1e-8  # added to the bias-corrected sqrt(v) before dividing


class AdamW:
    """AdamW over (name, param) pairs, with decoupled weight decay applied
    before the moment update; the names key the moments in a checkpoint."""

    def __init__(
        self,
        named_params,
        lr: float,
        beta1: float = 0.8,
        beta2: float = 0.99,
        weight_decay: float = 0.01,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.names = [name for name, _ in named_params]
        self.params = [p for _, p in named_params]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(np.sum(g)):
                raise NumericalError(f"non-finite gradient at optimizer step {t}")
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            m, v = self.m[i], self.v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            denom = np.sqrt(v / bc2)
            denom += ADAM_EPS
            p.data -= (self.lr / bc1) * m / denom

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment arrays keyed for checkpointing."""
        out = {}
        for name, m, v in zip(self.names, self.m, self.v):
            out["adam.m." + name] = m
            out["adam.v." + name] = v
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step: int):
        for i, name in enumerate(self.names):
            self.m[i] = arrays["adam.m." + name].astype(self.m[i].dtype).reshape(self.m[i].shape)
            self.v[i] = arrays["adam.v." + name].astype(self.v[i].dtype).reshape(self.v[i].shape)
        self.step_count = int(step)


def set_params(named_params, arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into live parameter tensors, shape checked."""
    for name, tensor in named_params:
        if name not in arrays:
            raise KeyError(f"checkpoint missing parameter '{name}'")
        arr = arrays[name]
        if tuple(arr.shape) != tuple(tensor.data.shape):
            raise ValueError(
                f"shape mismatch for '{name}': checkpoint {arr.shape} vs model {tensor.data.shape}"
            )
        tensor.data = arr.astype(tensor.data.dtype).copy()


def grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return math.sqrt(total)
