"""Reverse-mode automatic differentiation over numpy arrays.

Tape-based engine: each operation returns a new Tensor that remembers its
parents and a closure mapping the output gradient to parent gradients.
An op none of whose inputs requires grad builds neither. Every op output
is checked for NaN/Inf, so a forward blowup fails loudly at the op that
produced it instead of poisoning a training run. Gradients are checked
once, at `nn.AdamW.step`, not per edge in `Tensor.backward`.
"""
from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """An operation produced or received non-finite values."""


def _check_finite(op: str, arr: np.ndarray) -> None:
    # a sum propagates NaN, and +inf/-inf either survive or cancel to NaN,
    # so one reduction flags every non-finite case our ops can produce; the
    # method skips np.sum's dispatch, which is a sizeable part of small ops
    if not np.isfinite(arr.sum()):
        raise NumericalError(f"non-finite values in op '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without boolean masks.

    Both branches share e = exp(-|x|), so neither overflows, and every
    element, signed zeros, infinities and NaNs included, gets the bits the
    masked two-branch form gives it. min(x, -x) is -|x| that keeps a NaN's
    sign bit; exp underflowing to 0 for large |x| is exact, not an error.
    """
    flat = x.reshape(-1)  # a 0-d input would make the ufuncs return scalars
    e = np.negative(flat)
    np.minimum(flat, e, out=e)
    with np.errstate(under="ignore"):
        np.exp(e, out=e)
    d = e + 1.0
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    return np.where(flat >= 0, d, e).reshape(x.shape)


class Tensor:
    """Array with an optional gradient and a backward edge into the tape."""

    # keep numpy from consuming Tensor operands elementwise; reflected ops
    # (__radd__ etc.) then run instead
    __array_ufunc__ = None

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        _check_finite(op, arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grad_fn = None
        self._op = op

    # -- plumbing ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def backward(self) -> None:
        """Populate .grad on every requires_grad ancestor of this scalar."""
        if self.data.size != 1:
            raise ValueError("backward() is only defined for scalar outputs")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if not callable(node._grad_fn) or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._grad_fn(node.grad)):
                if g is None:
                    continue
                # finiteness of accumulated grads is enforced at the
                # optimizer step; per-edge checks here double the cost
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = _node(self.data + other.data, (self, other), "add")
        if out._grad_fn is not _NOGRAD:
            a_shape, b_shape = self.data.shape, other.data.shape
            a_rg, b_rg = self.requires_grad, other.requires_grad

            def grad_fn(g):
                return (
                    _unbroadcast(g, a_shape) if a_rg else None,
                    _unbroadcast(g, b_shape) if b_rg else None,
                )

            out._grad_fn = grad_fn
        return out

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        out = _node(self.data - other.data, (self, other), "sub")
        if out._grad_fn is not _NOGRAD:
            a_shape, b_shape = self.data.shape, other.data.shape
            a_rg, b_rg = self.requires_grad, other.requires_grad

            def grad_fn(g):
                return (
                    _unbroadcast(g, a_shape) if a_rg else None,
                    _unbroadcast(-g, b_shape) if b_rg else None,
                )

            out._grad_fn = grad_fn
        return out

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = _node(self.data * other.data, (self, other), "mul")
        if out._grad_fn is not _NOGRAD:
            a, b = self, other

            def grad_fn(g):
                return (
                    _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
                )

            out._grad_fn = grad_fn
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        out = _node(self.data / other.data, (self, other), "div")
        if out._grad_fn is not _NOGRAD:
            a, b = self, other

            def grad_fn(g):
                ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
                gb = (
                    _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
                    if b.requires_grad
                    else None
                )
                return ga, gb

            out._grad_fn = grad_fn
        return out

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return self * -1.0

    def __pow__(self, p):
        p = float(p)
        with np.errstate(all="ignore"):
            out = _node(self.data**p, (self,), "pow")
        if out._grad_fn is not _NOGRAD:
            a = self

            def grad_fn(g):
                return (g * p * a.data ** (p - 1.0),)

            out._grad_fn = grad_fn
        return out

    def __matmul__(self, other):
        other = self._coerce(other)
        if other.data.ndim != 2:
            raise ValueError("matmul: right operand must be 2-D")
        out = _node(self.data @ other.data, (self, other), "matmul")
        if out._grad_fn is not _NOGRAD:
            a, b = self, other

            def grad_fn(g):
                ga = g @ b.data.T if a.requires_grad else None
                gb = None
                if b.requires_grad:
                    k = a.data.shape[-1]
                    gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
                return ga, gb

            out._grad_fn = grad_fn
        return out

    def __getitem__(self, idx):
        out = _node(self.data[idx], (self,), "getitem")
        if out._grad_fn is not _NOGRAD:
            a = self

            def grad_fn(g):
                acc = np.zeros_like(a.data)
                np.add.at(acc, idx, g)
                return (acc,)

            out._grad_fn = grad_fn
        return out

    # -- elementwise ------------------------------------------------------

    def exp(self):
        out = _node(np.exp(self.data), (self,), "exp")
        if out._grad_fn is not _NOGRAD:
            y = out.data

            def grad_fn(g):
                return (g * y,)

            out._grad_fn = grad_fn
        return out

    def log(self):
        with np.errstate(all="ignore"):
            out = _node(np.log(self.data), (self,), "log")
        if out._grad_fn is not _NOGRAD:
            a = self

            def grad_fn(g):
                return (g / a.data,)

            out._grad_fn = grad_fn
        return out

    def tanh(self):
        out = _node(np.tanh(self.data), (self,), "tanh")
        if out._grad_fn is not _NOGRAD:
            y = out.data

            def grad_fn(g):
                return (g * (1.0 - y * y),)

            out._grad_fn = grad_fn
        return out

    def sigmoid(self):
        out = _node(_sigmoid(self.data), (self,), "sigmoid")
        if out._grad_fn is not _NOGRAD:
            y = out.data

            def grad_fn(g):
                return (g * y * (1.0 - y),)

            out._grad_fn = grad_fn
        return out

    def relu(self):
        out = _node(np.maximum(self.data, 0.0), (self,), "relu")
        if out._grad_fn is not _NOGRAD:
            mask = (self.data > 0).astype(self.data.dtype)

            def grad_fn(g):
                return (g * mask,)

            out._grad_fn = grad_fn
        return out

    def abs(self):
        out = _node(np.abs(self.data), (self,), "abs")
        if out._grad_fn is not _NOGRAD:
            s = np.sign(self.data)

            def grad_fn(g):
                return (g * s,)

            out._grad_fn = grad_fn
        return out

    # -- reductions / shape -----------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out._grad_fn is not _NOGRAD:
            shape = self.data.shape

            def grad_fn(g):
                gg = g
                if axis is not None and not keepdims:
                    gg = np.expand_dims(gg, axis)
                return (np.broadcast_to(gg, shape).astype(g.dtype, copy=False) + 0.0,)

            out._grad_fn = grad_fn
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def reshape(self, *shape):
        out = _node(self.data.reshape(*shape), (self,), "reshape")
        if out._grad_fn is not _NOGRAD:
            orig = self.data.shape

            def grad_fn(g):
                return (g.reshape(orig),)

            out._grad_fn = grad_fn
        return out


_NOGRAD = object()


def _node(data: np.ndarray, parents: tuple, op: str) -> Tensor:
    """Build an op-output Tensor; tapes it only if some parent needs grad."""
    rg = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=rg, op=op)
    if rg:
        out._parents = parents
        out._grad_fn = None  # caller installs the closure
    else:
        out._grad_fn = _NOGRAD  # sentinel: caller skips closure construction
    return out


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr)


def custom(data: np.ndarray, parents: tuple, grad_fn, op: str) -> Tensor:
    """Register an op with an externally supplied backward closure.

    grad_fn(out_grad) must return one gradient (or None) per parent.
    """
    out = _node(data, parents, op)
    if out._grad_fn is not _NOGRAD:
        out._grad_fn = grad_fn
    return out


# -- primitives with non-trivial backward rules ----------------------------


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup table[ids]; gradients sum back into the table's rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding: id out of range [0, {table.data.shape[0]}): "
            f"[{ids.min()}, {ids.max()}]"
        )
    out = _node(table.data[ids], (table,), "embedding")
    if out._grad_fn is not _NOGRAD:

        def grad_fn(g):
            # a scatter-add into the flattened table takes numpy's fast 1-D
            # path, several times faster than one by rows; each entry still
            # adds its terms in id order, so the sums are the same bits
            width = table.data[0].size
            flat = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            acc = np.zeros(table.data.size, dtype=table.data.dtype)
            np.add.at(acc, flat, g.reshape(-1))
            return (acc.reshape(table.data.shape),)

        out._grad_fn = grad_fn
    return out


def conv1d3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Width-3 convolution over the frame axis (second-to-last), zero padded.

    x: (..., T, C_in), w: (3, C_in, C_out), b: (C_out,). Output keeps T.
    """
    if w.data.shape[0] != 3:
        raise ValueError("conv1d3 expects a kernel of width 3")
    if x.data.shape[-1] != w.data.shape[1]:
        raise ValueError(
            f"conv1d3: channel mismatch {x.data.shape[-1]} vs {w.data.shape[1]}"
        )
    t = x.data.shape[-2]
    # zero padding by slice assignment; np.pad's generic path would cost
    # about a tenth of a ScoreNet call
    xp = np.zeros(x.data.shape[:-2] + (t + 2, x.data.shape[-1]), dtype=x.data.dtype)
    xp[..., 1 : t + 1, :] = x.data
    y = xp[..., 0:t, :] @ w.data[0] + xp[..., 1 : t + 1, :] @ w.data[1] + xp[..., 2 : t + 2, :] @ w.data[2]
    y = y + b.data
    out = _node(y, (x, w, b), "conv1d3")
    if out._grad_fn is not _NOGRAD:

        def grad_fn(g):
            gx = None
            if x.requires_grad:
                gxp = np.zeros_like(xp)
                for k in range(3):
                    gxp[..., k : k + t, :] += g @ w.data[k].T
                gx = gxp[..., 1 : t + 1, :]
            gw = None
            if w.requires_grad:
                gw = np.empty_like(w.data)
                c_out = g.shape[-1]
                gflat = g.reshape(-1, c_out)
                for k in range(3):
                    xs = xp[..., k : k + t, :].reshape(-1, w.data.shape[1])
                    gw[k] = xs.T @ gflat
            gb = None
            if b.requires_grad:
                gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
            return gx, gw, gb

        out._grad_fn = grad_fn
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True)) + m
    y = x.data - lse
    out = _node(y, (x,), "log_softmax")
    if out._grad_fn is not _NOGRAD:
        sm = np.exp(y)

        def grad_fn(g):
            return (g - sm * g.sum(axis=axis, keepdims=True),)

        out._grad_fn = grad_fn
    return out


def straight_through(x: Tensor, values: np.ndarray) -> Tensor:
    """Forward emits `values`; backward passes the gradient through to x."""
    values = np.asarray(values, dtype=x.data.dtype)
    if values.shape != x.data.shape:
        raise ValueError(
            f"straight_through: shape mismatch {values.shape} vs {x.data.shape}"
        )
    out = _node(values, (x,), "straight_through")
    if out._grad_fn is not _NOGRAD:

        def grad_fn(g):
            return (g,)

        out._grad_fn = grad_fn
    return out


# -- finite-difference verification ----------------------------------------


def gradient_check(f, tensors, n_points: int = 10, h: float = 1e-4, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    f is a zero-argument callable rebuilding the scalar loss from the live
    `tensors` on every call. Checks n_points random coordinates per tensor.
    Meant for float64 tensors; float32 cannot reach the usual tolerances.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    out = f()
    for t in tensors:
        t.grad = None
    out.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]
    worst = 0.0
    for t, ga in zip(tensors, analytic):
        for _ in range(n_points):
            idx = tuple(int(rng.integers(0, s)) for s in t.data.shape)
            orig = t.data[idx]
            t.data[idx] = orig + h
            f_plus = float(f().data)
            t.data[idx] = orig - h
            f_minus = float(f().data)
            t.data[idx] = orig
            num = (f_plus - f_minus) / (2.0 * h)
            ana = float(ga[idx])
            denom = max(abs(ana), abs(num))
            if denom < 1e-8:
                continue
            worst = max(worst, abs(ana - num) / denom)
    return worst
