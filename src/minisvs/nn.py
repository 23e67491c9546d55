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
    custom,
    embedding,
    linear,
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

    def frozen(self):
        """A copy whose parameters are constant Tensors over the same arrays.

        Ops through it pass gradients only to their inputs, so a backward
        pass computes no weight gradient for it; an in-place update of the
        live layer's parameters shows in the copy too.
        """
        out = object.__new__(type(self))
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                value = Tensor(value.data)
            elif isinstance(value, Module):
                value = value.frozen()
            elif isinstance(value, list):
                value = [item.frozen() if isinstance(item, Module) else item for item in value]
            setattr(out, attr, value)
        return out


class Linear(Module):
    def __init__(self, n_in: int, n_out: int, rng, dtype=np.float32):
        self.w = Tensor(_uniform(rng, n_in, (n_in, n_out), dtype), requires_grad=True)
        self.b = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return linear(as_tensor(x, self.w.dtype), self.w, self.b)


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


def _im2col3(x: np.ndarray) -> np.ndarray:
    """(..., T, 3C) from x (..., T, C): frame t holds x[t-1], x[t] and x[t+1],
    zero past either end of each window, so (im2col3(x) @ w.reshape(3C, -1))
    is the zero-padded width-3 convolution of x with kernel w (3, C, C_out)."""
    c = x.shape[-1]
    col = np.empty(x.shape[:-1] + (3 * c,), dtype=x.dtype)
    col[..., :1, :c] = 0.0
    col[..., 1:, :c] = x[..., :-1, :]
    col[..., c : 2 * c] = x
    col[..., :-1, 2 * c :] = x[..., 1:, :]
    col[..., -1:, 2 * c :] = 0.0
    return col


class GatedConvBlock(Module):
    """Residual block: x + proj(tanh(a) * sigmoid(g)), where [a | g] is the
    width-3 convolution of x with gate_w (3, C, 2C), tanh channels first,
    plus gate_b (2C,).

    The optional time vector, (time_dim,) or one (B, 1, time_dim) row per
    window, is injected additively into both gates, te @ time_w + time_b
    with time_w (time_dim, 2C), broadcast over frames.

    The block is one op, "gated_block". Both gates are one GEMM: the (N, 3C)
    im2col array of x against gate_w as (3C, 2C). Biases, time terms, the
    projection bias and the residual are added in place. The backward is
    one GEMM for the input gradient, followed by the two shifted adds, and
    one for the kernel's gradient, over an im2col array rebuilt from x; the
    closure keeps only x, tanh, sigmoid and their product. Summation order
    differs from the layer composition (a Conv3 and a Linear per gate), so
    values agree with it to rounding, not bit for bit.
    """

    def __init__(self, width: int, rng, time_dim: int | None = None, dtype=np.float32):
        # each fused weight is drawn half by half, in the order tanh kernel,
        # sigmoid kernel, proj, tanh time, sigmoid time, so a seed gives the
        # weights of one Conv3 and one Linear per gate
        halves = [_uniform(rng, 3 * width, (3, width, width), dtype) for _ in range(2)]
        self.gate_w = Tensor(np.concatenate(halves, axis=-1), requires_grad=True)
        self.gate_b = Tensor(np.zeros(2 * width, dtype=dtype), requires_grad=True)
        self.proj = Linear(width, width, rng, dtype)
        self.time_w = self.time_b = None
        if time_dim:
            halves = [_uniform(rng, time_dim, (time_dim, width), dtype) for _ in range(2)]
            self.time_w = Tensor(np.concatenate(halves, axis=-1), requires_grad=True)
            self.time_b = Tensor(np.zeros(2 * width, dtype=dtype), requires_grad=True)

    def __call__(self, x, t_emb=None):
        if t_emb is not None and self.time_w is None:
            raise ValueError("block was built without time conditioning")
        w, b, wp, bp = self.gate_w, self.gate_b, self.proj.w, self.proj.b
        x = as_tensor(x, w.dtype)
        c = wp.shape[-1]
        if x.shape[-1] != c:
            raise ValueError(f"gated block: {x.shape[-1]} input channels, width {c}")
        # every GEMM runs on 2-D (frames, channels) arrays: with a stacked
        # (B, T, .) operand numpy loops over the windows, which measured slower
        lead = x.shape[:-1]
        h = _im2col3(x.data).reshape(-1, 3 * c) @ w.data.reshape(3 * c, 2 * c)
        h += b.data
        parents = (x, w, b, wp, bp)
        te = wt = bt = t_shape = None
        if t_emb is not None:
            te = as_tensor(t_emb, w.dtype)
            wt, bt = self.time_w, self.time_b
            tt = te.data @ wt.data
            tt += bt.data
            gates = h.reshape(lead + (2 * c,))
            gates += tt
            t_shape = tt.shape
            parents += (te, wt, bt)
        th = np.tanh(h[:, :c])
        sg = _sigmoid(h[:, c:])
        prod = th * sg
        out = (prod @ wp.data).reshape(lead + (c,))
        out += bp.data
        out += x.data
        # tanh and sigmoid bound their outputs, so every intermediate is
        # finite when h and out are; otherwise name the first non-finite one
        # by the op of the layer composition above that made it, in its order.
        # out is checked once, as the op's output, in custom
        def diagnose():
            hc = _im2col3(x.data).reshape(-1, 3 * c) @ w.data.reshape(3 * c, 2 * c) + b.data
            steps = [("conv1d3", hc[:, :c]), ("conv1d3", hc[:, c:])]
            if te is not None:
                m = te.data @ wt.data
                for half in (slice(None, c), slice(c, None)):
                    steps += [("matmul", m[..., half]), ("add", tt[..., half]),
                              ("add", gates[..., half])]
            pm = prod @ wp.data
            steps += [("tanh", th), ("sigmoid", sg), ("mul", prod),
                      ("matmul", pm), ("add", pm + bp.data), ("add", out)]
            for op, arr in steps:
                _check_finite(op, arr)
        if not np.isfinite(h.sum()):
            diagnose()

        def grad_fn(gout):
            gs = gout.reshape(-1, c) @ wp.data.T
            gs *= sg
            # gh = [ga | gg], the gradients of the two gate pre-activations:
            # ga = (1 - th^2) gs and gg = gs th (1 - sg); each half is written
            # once, from operands outside gh, so numpy copies no input
            gh = np.empty((gs.shape[0], 2 * c), dtype=gs.dtype)
            tmp = th * th
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(tmp, gs, out=gh[:, :c])
            gs *= th
            np.subtract(1.0, sg, out=tmp)
            np.multiply(gs, tmp, out=gh[:, c:])
            gx = None
            if x.requires_grad:
                gcol = (gh @ w.data.reshape(3 * c, 2 * c).T).reshape(lead + (3 * c,))
                gx = gcol[..., c : 2 * c] + gout
                gx[..., :-1, :] += gcol[..., 1:, :c]
                gx[..., 1:, :] += gcol[..., :-1, 2 * c :]
            grads = (
                gx,
                matmul_weight_grad(_im2col3(x.data), gh).reshape(w.shape)
                if w.requires_grad else None,
                gh.sum(axis=0) if b.requires_grad else None,
                matmul_weight_grad(prod, gout) if wp.requires_grad else None,
                _unbroadcast(gout, bp.data.shape) if bp.requires_grad else None,
            )
            if te is None:
                return grads
            gt = _unbroadcast(gh.reshape(lead + (2 * c,)), t_shape)
            return grads + (
                gt @ wt.data.T if te.requires_grad else None,
                matmul_weight_grad(te.data, gt) if wt.requires_grad else None,
                _unbroadcast(gt, bt.data.shape) if bt.requires_grad else None,
            )
        return custom(out, parents, grad_fn, "gated_block", diagnose)


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

    def input_terms(self, mu_hat, h_cond) -> tuple[Tensor, Tensor]:
        """mu_in(mu_hat) and cond_in(h_cond), the input terms that do not vary with z_t or t.

        Each is formed as `linear` forms a term, x @ w then += b, and checked
        for finiteness here. A sampler forms them once and passes them to
        every step's call; the output has the bits of the four-argument call.
        """
        mu_hat = as_tensor(mu_hat, self.dtype)
        h_cond = as_tensor(h_cond, self.dtype)
        if mu_hat.shape[-2] != h_cond.shape[-2]:
            raise ValueError(f"frame counts differ: mu {mu_hat.shape}, cond {h_cond.shape}")
        return self.mu_in(mu_hat), self.cond_in(h_cond)

    def __call__(self, z_t, mu_hat, h_cond, t, terms=None):
        """The score at z_t; terms = input_terms(mu_hat, h_cond) replaces mu_hat and
        h_cond, which are then passed as None."""
        z_t = as_tensor(z_t, self.dtype)
        if terms is None:
            terms = self.input_terms(mu_hat, h_cond)
        elif mu_hat is not None or h_cond is not None:
            raise ValueError("pass mu_hat and h_cond, or their input terms, not both")
        if z_t.shape[-2] != terms[0].shape[-2]:
            raise ValueError(
                f"frame counts differ: z_t {z_t.shape}, input terms {terms[0].shape}"
            )
        t_emb = Tensor(time_embedding(t, self.time_dim, self.dtype))
        # z_in(z_t) + mu_in(mu_hat) + cond_in(h_cond) as one op, in that order
        h = linear(z_t, self.z_in.w, self.z_in.b, terms)
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
# most elements in a run of params that a step updates with one call per
# expression: small params share a run, and a run's operands stay in cache
ADAM_BLOCK = 32768


class AdamW:
    """AdamW over (name, param) pairs, with decoupled weight decay applied
    before the moment update; the names key the moments in a checkpoint.

    The params, m and v live in three flat buffers, in params order; each
    param's .data and each entry of m and v is a view of its buffer. A step
    walks runs of consecutive whole params of at most ADAM_BLOCK elements (a
    larger param alone); the update is elementwise, so runs change no bits.
    """

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
        self._index = {id(p): i for i, p in enumerate(self.params)}
        if len(self._index) < len(self.params):
            raise ValueError("a param is listed twice")
        dtypes = {p.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"params of mixed dtypes: {sorted(map(str, dtypes))}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.step_count = 0
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        starts = [0] + ends[:-1]
        flat = np.empty(ends[-1] if ends else 0, dtypes.pop() if dtypes else np.float32)
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        self.m, self.v = [], []
        for p, a, b in zip(self.params, starts, ends):
            flat[a:b] = p.data.reshape(-1)
            p.data = flat[a:b].reshape(p.shape)
            self.m.append(m[a:b].reshape(p.shape))
            self.v.append(v[a:b].reshape(p.shape))
        self._views = [p.data for p in self.params]
        # per run: its params' index range, each one's (start, end) in the
        # run, and the run's slices of the buffers
        self._runs, i = [], 0
        for j in range(1, len(ends) + 1):
            if j == len(ends) or ends[j] - starts[i] > ADAM_BLOCK:
                segs = [(a - starts[i], b - starts[i]) for a, b in zip(starts[i:j], ends[i:j])]
                run = slice(starts[i], ends[j - 1])
                self._runs.append((i, j, segs, flat[run], m[run], v[run]))
                i = j
        # scratch for a run's gathered grads and for its float64 squares
        self._grads = np.empty(min(flat.size, ADAM_BLOCK), flat.dtype)
        self._squares = np.empty(max((r[3].size for r in self._runs), default=0))

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, groups=()) -> list[float]:
        """Update every param from its grad (None counts as zeros); return
        the grad norm of all params, then of each group, a list of params.

        A norm adds its params' float64 squared sums in its list's order, so
        a group's norm has the bits it would have on its own. A non-finite
        grad raises NumericalError before any param of its run moves.
        """
        for name, p, view in zip(self.names, self.params, self._views):
            if p.data is not view:
                raise RuntimeError(f"param '{name}' is no longer the optimizer's array")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        sums = []
        for i, j, segs, data, m, v in self._runs:
            if j - i == 1:
                g = self.params[i].grad
                g = np.zeros(data.size, data.dtype) if g is None else g.reshape(-1)
            else:
                g = self._grads[: data.size]
                for p, (a, b) in zip(self.params[i:j], segs):
                    g[a:b] = 0.0 if p.grad is None else p.grad.reshape(-1)
            sq = np.square(g, out=self._squares[: data.size], dtype=np.float64)
            run_sums = [float(sq[a:b].sum()) for a, b in segs]
            # float64 squares of finite float64 grads can overflow
            if not math.isfinite(sum(run_sums)) and not np.isfinite(g).all():
                raise NumericalError(f"non-finite gradient at optimizer step {t}")
            sums += run_sums
            if self.weight_decay:
                data *= 1.0 - self.lr * self.weight_decay
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            denom = np.sqrt(v / bc2)
            denom += ADAM_EPS
            data -= (self.lr / bc1) * m / denom
        norms = []
        for members in (self.params, *groups):
            total = 0.0
            for p in members:
                total += sums[self._index[id(p)]]
            norms.append(math.sqrt(total))
        return norms

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment arrays keyed for checkpointing."""
        out = {}
        for name, m, v in zip(self.names, self.m, self.v):
            out["adam.m." + name] = m
            out["adam.v." + name] = v
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step: int):
        """Copy the moments of state_arrays() back, in place; the checkpoint
        reader has checked that each is present with its moment's shape."""
        for i, name in enumerate(self.names):
            self.m[i][...] = arrays["adam.m." + name]
            self.v[i][...] = arrays["adam.v." + name]
        self.step_count = int(step)


def set_params(named_params, arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into the live parameter arrays, in place, so a
    param stays a view of its optimizer's buffer; the checkpoint reader has
    checked that each is present with its tensor's shape."""
    for name, tensor in named_params:
        tensor.data[...] = arrays[name]
