"""Reverse-mode automatic differentiation over numpy arrays.

Tape-based engine: every op, built-in or not, computes its output and a
closure mapping the output gradient to parent gradients, and hands both to
`custom`, the one place an output joins the tape. The output remembers its
parents and the closure only if some parent requires grad; otherwise the
closure is dropped and the output is a constant. Every op output is
checked for NaN/Inf, so a forward blowup fails loudly at the op that
produced it instead of poisoning a training run. Gradients are checked
once, at `nn.AdamW.step`, not per edge in `Tensor.backward`.
"""
from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """An operation produced or received non-finite values."""


def _check_finite(op: str, arr: np.ndarray) -> None:
    # a sum propagates NaN, and +inf/-inf either survive or cancel to NaN,
    # so a finite sum means finite values; large finite values can also
    # overflow it, so only a non-finite sum tests each value. The method
    # skips np.sum's dispatch, which is a sizeable part of small ops
    if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
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


def matmul_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the 2-D w in a @ w for output gradient g, summed over a's leading axes."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + e^-x) as 0.5 tanh(x / 2) + 0.5, in one new array.

    tanh saturates instead of overflowing, so ±inf gives 1 and 0, ±0 gives
    0.5 and NaN stays NaN, with no floating-point warning; only a subnormal
    input underflows when halved, which numpy's default error state ignores.
    Against the float64 logistic it is within 6e-8 in float32 and 2.3e-16
    in float64. x may be a strided view; the result is contiguous.
    """
    y = np.multiply(x, 0.5, out=np.empty(x.shape, x.dtype))
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


class Tensor:
    """Array with an optional gradient and a backward edge into the tape."""

    # keep numpy from consuming Tensor operands elementwise (reflected ops,
    # __radd__ etc., then run instead), and iteration from walking __getitem__
    __array_ufunc__ = None
    __iter__ = None

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
            if node._grad_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._grad_fn(node.grad)):
                if g is None:
                    continue
                # finiteness of accumulated grads is enforced at the
                # optimizer step; per-edge checks here double the cost
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- arithmetic -------------------------------------------------------

    def _elementwise(self, out, op: str, grad_a, other=None, grad_b=None) -> "Tensor":
        """Join the elementwise op `op` with output `out` to the tape.

        The one gradient rule of the elementwise ops: grad_a(g), and grad_b(g)
        for a second operand `other`, map the output gradient to the
        operand's gradient. A binary op's is broadcast-shaped and is summed
        back to the operand's shape; an operand that does not require grad
        gets None. A unary op's has the operand's shape already.
        """
        if other is None:
            return custom(out, (self,), lambda g: (grad_a(g),), op)
        a_shape, b_shape = self.data.shape, other.data.shape
        a_rg, b_rg = self.requires_grad, other.requires_grad

        def grad_fn(g):
            return (
                _unbroadcast(grad_a(g), a_shape) if a_rg else None,
                _unbroadcast(grad_b(g), b_shape) if b_rg else None,
            )
        return custom(out, (self, other), grad_fn, op)

    def __add__(self, other):
        other = self._coerce(other)
        return self._elementwise(self.data + other.data, "add", lambda g: g, other, lambda g: g)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._coerce(other)
        return self._elementwise(self.data - other.data, "sub", lambda g: g, other, lambda g: -g)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data
        return self._elementwise(a * b, "mul", lambda g: g * b, other, lambda g: g * a)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data
        return self._elementwise(a / b, "div", lambda g: g / b, other, lambda g: -g * a / (b * b))

    def __neg__(self):
        return self * -1.0

    def __pow__(self, p):
        p = float(p)
        with np.errstate(all="ignore"):
            return self._elementwise(self.data**p, "pow", lambda g: g * p * self.data ** (p - 1.0))

    def __matmul__(self, other):
        a, b = self, self._coerce(other)
        if b.data.ndim != 2:
            raise ValueError("matmul: right operand must be 2-D")

        def grad_fn(g):
            ga = g @ b.data.T if a.requires_grad else None
            gb = matmul_weight_grad(a.data, g) if b.requires_grad else None
            return ga, gb
        return custom(a.data @ b.data, (a, b), grad_fn, "matmul")

    def __getitem__(self, idx):
        def grad_fn(g):
            acc = np.zeros_like(self.data)
            np.add.at(acc, idx, g)
            return (acc,)
        return custom(self.data[idx], (self,), grad_fn, "getitem")

    # -- elementwise ------------------------------------------------------

    def exp(self):
        y = np.exp(self.data)
        return self._elementwise(y, "exp", lambda g: g * y)

    def log(self):
        with np.errstate(all="ignore"):
            return self._elementwise(np.log(self.data), "log", lambda g: g / self.data)

    def tanh(self):
        y = np.tanh(self.data)
        return self._elementwise(y, "tanh", lambda g: g * (1.0 - y * y))

    def sigmoid(self):
        y = _sigmoid(self.data)
        return self._elementwise(y, "sigmoid", lambda g: g * y * (1.0 - y))

    def relu(self):
        y = np.maximum(self.data, 0.0)
        return self._elementwise(y, "relu", lambda g: g * (self.data > 0).astype(self.data.dtype))

    def __abs__(self):
        return self._elementwise(np.abs(self.data), "abs", lambda g: g * np.sign(self.data))

    # -- reductions / shape -----------------------------------------------

    def sum(self, axis=None):
        shape = self.data.shape

        def grad_fn(g):
            gg = g if axis is None else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, shape).astype(g.dtype, copy=False) + 0.0,)
        return custom(self.data.sum(axis=axis), (self,), grad_fn, "sum")

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) / float(n)

    def reshape(self, *shape):
        orig = self.data.shape

        def grad_fn(g):
            return (g.reshape(orig),)
        return custom(self.data.reshape(*shape), (self,), grad_fn, "reshape")


def custom(data: np.ndarray, parents: tuple, grad_fn, op: str, diagnose=None) -> Tensor:
    """Build the output Tensor of op `op`; the one way an op joins the tape.

    grad_fn(out_grad) must return one gradient (or None) per parent. If some
    parent requires grad, the output keeps `parents` and `grad_fn`; if none
    does, the closure is dropped and the output is a constant.

    A fused op passes diagnose, called only when `data` is not finite: it
    recomputes the op's layer composition and raises NumericalError naming
    the first of its ops that made a non-finite value, so a fused output is
    reduced for finiteness once and still names what the composition named.
    """
    try:
        out = Tensor(data, op=op)
    except NumericalError:
        if diagnose is not None:
            diagnose()
        raise
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return Tensor(arr)


# -- primitives with non-trivial backward rules ----------------------------


def _add_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, written into the fresh array a when the sum has a's shape and
    dtype; an in-place add rounds as the out-of-place one does."""
    if np.promote_types(a.dtype, b.dtype) == a.dtype and np.broadcast(a, b).shape == a.shape:
        a += b
        return a
    return a + b


def linear(*triples) -> Tensor:
    """The sum of x @ w + b over one or more (x, w, b) Tensor triples, w 2-D, as one op.

    It adds in the order of the taped composition x0 @ w0 + b0 + (x1 @ w1 +
    b1) + ...: y = x0 @ w0, y += b0, then t = xi @ wi, t += bi, y += t for
    each later triple. The backward makes the calls of that composition's
    matmul and add closures, so the output and every gradient have its bits.
    A non-finite output names the composition's first non-finite op,
    "matmul" or "add".
    """
    y = None
    shapes = []  # per triple: its product's, its term's and the running sum's before it
    for x, w, b in triples:
        m = x.data @ w.data
        t = _add_into(m, b.data)
        shapes.append((m.shape, t.shape, None if y is None else y.shape))
        y = t if y is None else _add_into(y, t)

    def diagnose():
        y = None
        for x, w, b in triples:
            t = x.data @ w.data
            _check_finite("matmul", t)
            t = t + b.data
            _check_finite("add", t)
            if y is None:
                y = t
            else:
                y = y + t
                _check_finite("add", y)

    def grad_fn(g):
        grads = []
        for (x, w, b), (m_shape, t_shape, y_shape) in zip(reversed(triples), reversed(shapes)):
            gt = g
            if y_shape is not None:
                gt, g = _unbroadcast(g, t_shape), _unbroadcast(g, y_shape)
            gm = _unbroadcast(gt, m_shape)
            grads += [
                _unbroadcast(gt, b.data.shape) if b.requires_grad else None,
                matmul_weight_grad(x.data, gm) if w.requires_grad else None,
                gm @ w.data.T if x.requires_grad else None,
            ]
        return grads[::-1]
    return custom(y, tuple(p for triple in triples for p in triple), grad_fn, "linear", diagnose)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup table[ids]; gradients sum back into the table's rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding: id out of range [0, {table.data.shape[0]}): "
            f"[{ids.min()}, {ids.max()}]"
        )

    def grad_fn(g):
        # a scatter-add into the flattened table takes numpy's fast 1-D
        # path, several times faster than one by rows; each entry still
        # adds its terms in id order, so the sums are the same bits
        width = table.data[0].size
        flat = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        acc = np.zeros(table.data.size, dtype=table.data.dtype)
        np.add.at(acc, flat, g.reshape(-1))
        return (acc.reshape(table.data.shape),)
    return custom(table.data[ids], (table,), grad_fn, "embedding")


def conv1d3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Width-3 convolution over the frame axis (second-to-last), zero padded.

    x: (..., T, C_in), w: (3, C_in, C_out), b: (C_out,). Output keeps T.
    """
    if w.data.shape[0] != 3:
        raise ValueError("conv1d3 expects a kernel of width 3")
    if x.data.shape[-1] != w.data.shape[1]:
        raise ValueError(f"conv1d3: channel mismatch {x.data.shape[-1]} vs {w.data.shape[1]}")
    t = x.data.shape[-2]
    # zero padding by slice assignment: the discriminator's two Conv3 layers pad six
    # times per adversarial step, and np.pad's generic path takes about twice as long
    xp = np.zeros(x.data.shape[:-2] + (t + 2, x.data.shape[-1]), dtype=x.data.dtype)
    xp[..., 1 : t + 1, :] = x.data
    k = w.data
    y = xp[..., 0:t, :] @ k[0] + xp[..., 1 : t + 1, :] @ k[1] + xp[..., 2 : t + 2, :] @ k[2]
    y += b.data

    def grad_fn(g):
        gx = gw = gb = None
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for i in range(3):
                gxp[..., i : i + t, :] += g @ w.data[i].T
            gx = gxp[..., 1 : t + 1, :]
        if w.requires_grad:
            gw = np.empty_like(w.data)
            for i in range(3):
                gw[i] = matmul_weight_grad(xp[..., i : i + t, :], g)
        if b.requires_grad:
            gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
        return gx, gw, gb
    return custom(y, (x, w, b), grad_fn, "conv1d3")


def concat(tensors) -> Tensor:
    """Join tensors along axis 0; the gradient splits back at the same rows."""
    cuts = np.cumsum([t.data.shape[0] for t in tensors])[:-1]

    def grad_fn(g):
        return tuple(part if t.requires_grad else None for t, part in zip(tensors, np.split(g, cuts)))
    return custom(np.concatenate([t.data for t in tensors]), tuple(tensors), grad_fn, "concat")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True)) + m
    y = x.data - lse

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)
    return custom(y, (x,), grad_fn, "log_softmax")


def straight_through(x: Tensor, values: np.ndarray) -> Tensor:
    """Forward emits `values`; backward passes the gradient through to x."""
    values = np.asarray(values, dtype=x.data.dtype)
    if values.shape != x.data.shape:
        raise ValueError(
            f"straight_through: shape mismatch {values.shape} vs {x.data.shape}"
        )
    return custom(values, (x,), lambda g: (g,), "straight_through")


# -- finite-difference verification ----------------------------------------


def gradient_check(f, tensors, n_points: int = 10, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    f is a zero-argument callable rebuilding the scalar loss from the live
    `tensors` on every call. Checks n_points random coordinates per tensor,
    with a difference step of 1e-4. Meant for float64 tensors; float32
    cannot reach the usual tolerances.
    """
    h = 1e-4
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
