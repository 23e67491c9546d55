import numpy as np
import pytest

from minisvs import autodiff as ad


def test_relu_subgradient_convention():
    x = ad.Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    y = x.relu().sum()
    y.backward()
    assert x.grad.tolist() == [0.0, 1.0]


def test_linear_identity_passthrough():
    x = ad.Tensor(np.eye(3)[0:2], requires_grad=True)
    w = ad.Tensor(np.eye(3))
    out = x @ w + ad.Tensor(np.zeros(3))
    assert np.array_equal(out.data, x.data)


def test_broadcast_add_backward():
    x = ad.Tensor(np.ones((4, 3)), requires_grad=True)
    b = ad.Tensor(np.ones(3), requires_grad=True)
    (x + b).sum().backward()
    assert np.array_equal(x.grad, np.ones((4, 3)))
    assert np.array_equal(b.grad, np.full(3, 4.0))


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_nan_raises_at_the_op():
    with pytest.raises(ad.NumericalError, match="log"):
        ad.Tensor(np.array([-1.0])).log()
    with np.errstate(all="ignore"), pytest.raises(ad.NumericalError, match="div"):
        ad.Tensor(np.array([1.0])) / ad.Tensor(np.array([0.0]))


def test_numpy_left_operands_defer_to_tensor():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    out = np.full((2, 2), 3.0) - x
    assert isinstance(out, ad.Tensor)
    out.sum().backward()
    assert np.array_equal(x.grad, -np.ones((2, 2)))


def test_straight_through_passes_gradient():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    st = ad.straight_through(x, np.array([5.0, 7.0]))
    assert np.array_equal(st.data, [5.0, 7.0])
    (st * st).sum().backward()
    assert np.allclose(x.grad, [10.0, 14.0])


def test_embedding_rejects_out_of_range():
    table = ad.Tensor(np.zeros((4, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.embedding(table, np.array([4]))


def test_log_softmax_normalizes():
    x = ad.Tensor(np.random.default_rng(0).standard_normal((5, 7)))
    out = ad.log_softmax(x, axis=-1)
    assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_per_op_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(3), requires_grad=True)
    cw = ad.Tensor(rng.standard_normal((3, 3, 3)) * 0.3, requires_grad=True)
    cb = ad.Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    table = ad.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    ids = rng.integers(0, 6, size=4)
    probe = rng.standard_normal((4, 3))
    probe_wide = rng.standard_normal((4, 5))

    cases = {
        "add_mul": lambda: ((x * 2.0 + 1.5) * x).mean(),
        "div_pow": lambda: ((x * x + 1.0) ** 0.5 / (abs(x) + 2.0)).sum(),
        "matmul": lambda: ((x @ w + b) * probe).sum(),
        "exp_log": lambda: ((x * 0.3).exp() + 1.0).log().mean(),
        "tanh_sigmoid": lambda: (x.tanh() * x.sigmoid()).sum(),
        "relu_abs": lambda: (x.relu() + abs(x)).mean(),
        "conv1d3": lambda: (ad.conv1d3(x @ w, cw, cb) * probe).sum(),
        "embedding": lambda: (ad.embedding(table, ids) * probe_wide).sum(),
        "log_softmax": lambda: (ad.log_softmax(x @ w, axis=-1) * probe).mean(),
        "sum_axis": lambda: ((x * x).sum(axis=-1) ** 2.0).mean(),
        "getitem": lambda: (x[np.array([0, 2, 2])] * 1.7).sum(),
        "getitem_basic": lambda: (x[1:3, None, ::2] * 1.7).sum() + x[-1, 2] * x[0, ...].sum(),
        "reshape": lambda: (x.reshape(2, 10) ** 2.0).mean(axis=-1).sum(),
        "concat": lambda: (ad.concat([x, table * 0.5]) * ad.concat([table, x]).tanh()).sum(),
    }
    tensors = [x, w, b, cw, cb, table]
    for name, f in cases.items():
        err = ad.gradient_check(f, tensors, n_points=6, rng=np.random.default_rng(seed + 10))
        assert err < 1e-4, f"{name}: rel err {err:.2e}"


_TAPE_OPS = {
    "add": lambda x, y, w, c: x + y,
    "sub": lambda x, y, w, c: x - y,
    "mul": lambda x, y, w, c: x * y,
    "div": lambda x, y, w, c: x / y,
    "pow": lambda x, y, w, c: x**2.0,
    "matmul": lambda x, y, w, c: x @ y,
    "getitem": lambda x, y, w, c: x[np.array([0, 2])],
    "exp": lambda x, y, w, c: x.exp(),
    "log": lambda x, y, w, c: x.log(),
    "tanh": lambda x, y, w, c: x.tanh(),
    "sigmoid": lambda x, y, w, c: x.sigmoid(),
    "relu": lambda x, y, w, c: x.relu(),
    "abs": lambda x, y, w, c: abs(x),
    "sum": lambda x, y, w, c: x.sum(axis=0),
    "reshape": lambda x, y, w, c: x.reshape(9),
    "embedding": lambda x, y, w, c: ad.embedding(x, np.array([0, 2, 2])),
    "conv1d3": lambda x, y, w, c: ad.conv1d3(x, w, c),
    "log_softmax": lambda x, y, w, c: ad.log_softmax(x),
    "concat": lambda x, y, w, c: ad.concat([y, x]),
    "straight_through": lambda x, y, w, c: ad.straight_through(x, y.data),
    "custom": lambda x, y, w, c: ad.custom(2.0 * x.data, (x, y), lambda g: (2.0 * g, None), "double"),
}


@pytest.mark.parametrize("op", sorted(_TAPE_OPS))
@pytest.mark.parametrize("requires_grad", [False, True], ids=["constant", "taped"])
def test_op_output_joins_the_tape_only_when_a_parent_requires_grad(op, requires_grad):
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=requires_grad)
    y = ad.Tensor(rng.uniform(0.5, 2.0, (3, 3)))
    w = ad.Tensor(rng.standard_normal((3, 3, 3)))
    c = ad.Tensor(rng.standard_normal(3))
    out = _TAPE_OPS[op](x, y, w, c)
    assert out.requires_grad is requires_grad
    if requires_grad:
        assert any(p is x for p in out._parents)
        assert callable(out._grad_fn)
    else:
        assert out._parents == ()
        assert out._grad_fn is None


def _scatter_reference(shape, idx, g):
    acc = np.zeros(shape, dtype=g.dtype)
    np.add.at(acc, idx, g)
    return acc


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_embedding_backward_matches_scatter_add(dtype):
    rng = np.random.default_rng(4)
    table = ad.Tensor(rng.standard_normal((7, 5)).astype(dtype), requires_grad=True)
    ids = rng.integers(0, 4, size=(3, 40))  # every used row repeats, rows 4-6 unused
    g = rng.standard_normal((3, 40, 5)).astype(dtype)
    (ad.embedding(table, ids) * g).sum().backward()
    assert table.grad.dtype == dtype
    # the same bits as a row-wise scatter-add, in float32 too
    assert np.array_equal(table.grad, _scatter_reference(table.shape, ids, g))
    assert np.all(table.grad[4:] == 0.0)


@pytest.mark.parametrize(
    "idx",
    [1, -1, slice(1, 3), (slice(None), 2), (Ellipsis, slice(0, 4, 2)), (None, 0),
     (np.int64(2), slice(None, None, -1)), np.array([0, 2, 2]), ([1, 1], [0, 3]),
     np.array([True, False, True])],
)
def test_getitem_backward_matches_scatter_add(idx):
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    picked = x[idx]
    g = rng.standard_normal(picked.shape)
    (picked * g).sum().backward()
    assert np.array_equal(x.grad, _scatter_reference(x.shape, idx, g))


def test_gradient_accumulates_over_shared_subexpression():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0
    (y + y * x).sum().backward()  # d/dx (3x + 3x^2) = 3 + 6x = 15
    assert np.allclose(x.grad, [15.0])


def _masked_sigmoid(x):
    """The two-branch logistic with boolean masks, the form the kernel replaced."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def _tanh_sigmoid(x):
    return 0.5 * np.tanh(0.5 * x) + 0.5


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1.2e-7), (np.float64, 1e-15)])
def test_sigmoid_is_bit_identical_to_the_tanh_form(dtype, tol):
    rng = np.random.default_rng(6)
    special = [0.0, -0.0, 1e4, -1e4, np.inf, -np.inf, np.nan, 30.0, -30.0, 1e-30, -1e-30]
    x = np.concatenate([rng.standard_normal(5000) * 10.0, special]).astype(dtype)
    with np.errstate(all="raise"):  # no warning from any input, NaN and ±inf included
        got = ad._sigmoid(x)
        ref = _tanh_sigmoid(x)
    assert got.dtype == dtype and got.shape == x.shape
    assert np.array_equal(got.view(np.uint8), ref.view(np.uint8))
    with np.errstate(all="ignore"):
        masked = _masked_sigmoid(x)
    assert np.nanmax(np.abs(got - masked)) <= tol
    # ±0, ±1e4, ±inf, then NaN, the only NaN out
    assert got[5000:5006].tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]
    assert np.isnan(got[5006]) and np.isnan(got).sum() == 1
    # through the op, on a strided finite 2-D batch and on a 0-d tensor
    batch = x[:4000].reshape(40, 100)[:, ::2]
    assert np.array_equal(ad.Tensor(batch).sigmoid().data.view(np.uint8),
                          _tanh_sigmoid(batch).view(np.uint8))
    scalar = np.asarray(x[0])
    assert np.array_equal(ad.Tensor(scalar).sigmoid().data, _tanh_sigmoid(scalar))


def _padded_conv_reference(x, w, b, g):
    """conv1d3 forward and backward with np.pad, the padding the op replaced."""
    t = x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(1, 1), (0, 0)])
    y = xp[..., 0:t, :] @ w[0] + xp[..., 1 : t + 1, :] @ w[1] + xp[..., 2 : t + 2, :] @ w[2]
    y = y + b
    gxp = np.zeros_like(xp)
    for k in range(3):
        gxp[..., k : k + t, :] += g @ w[k].T
    gw = np.empty_like(w)
    for k in range(3):
        gw[k] = xp[..., k : k + t, :].reshape(-1, w.shape[1]).T @ g.reshape(-1, w.shape[2])
    return y, gxp[..., 1 : t + 1, :], gw, g.reshape(-1, w.shape[2]).sum(axis=0)


@pytest.mark.parametrize("shape", [(37, 6), (3, 29, 6)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1d3_matches_the_np_pad_reference_bit_for_bit(shape, dtype):
    rng = np.random.default_rng(7)
    x = ad.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((3, 6, 5)).astype(dtype), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(5).astype(dtype), requires_grad=True)
    g = rng.standard_normal(shape[:-1] + (5,)).astype(dtype)
    out = ad.conv1d3(x, w, b)
    (out * g).sum().backward()
    ref = _padded_conv_reference(x.data, w.data, b.data, g)
    for got, want in zip((out.data, x.grad, w.grad, b.grad), ref):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


_LINEAR_LEADS = {
    "one-2d": [(37,)], "one-stacked": [(3, 29)],
    "three-2d": [(37,)] * 3, "three-stacked": [(3, 29)] * 3,
    "three-broadcast": [(29,), (3, 29), (29,)],
}


def _linear_triples(rng, dtype, leads, needs_grad):
    """(x, w, b) triples of 7 outputs; needs_grad names the leaves that require grad."""
    return [
        (ad.Tensor(rng.standard_normal(lead + (n,)).astype(dtype), requires_grad="x" in needs_grad),
         ad.Tensor(rng.standard_normal((n, 7)).astype(dtype), requires_grad="w" in needs_grad),
         ad.Tensor(rng.standard_normal(7).astype(dtype), requires_grad="w" in needs_grad))
        for lead, n in zip(leads, (5, 4, 6))
    ]


def _linear_of_triples(triples):
    """The first triple's linear, with each later triple's linear as a term."""
    (x, w, b), *rest = triples
    return ad.linear(x, w, b, [ad.linear(*triple) for triple in rest])


def _leaves(out):
    return [leaf for p in out._parents for leaf in (p._parents if p._op == "linear" else (p,))]


def _taped_sum_of_linears(triples):
    out = None
    for x, w, b in triples:
        term = x @ w + b
        out = term if out is None else out + term
    return out


@pytest.mark.parametrize("needs_grad", ["xw", "w", "x", ""], ids=["all", "const-x", "const-params",
                                                                 "none"])
@pytest.mark.parametrize("leads", list(_LINEAR_LEADS.values()), ids=list(_LINEAR_LEADS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_has_the_bits_of_the_taped_composition(dtype, leads, needs_grad):
    rng = np.random.default_rng(len(leads) + len(leads[-1]))
    triples = _linear_triples(rng, dtype, leads, needs_grad)
    leaves = [leaf for triple in triples for leaf in triple]
    runs = []
    for build in (lambda: _linear_of_triples(triples), lambda: _taped_sum_of_linears(triples)):
        for leaf in leaves:
            leaf.grad = None
        out = build()
        if out.requires_grad:
            probe = np.random.default_rng(1).standard_normal(out.shape).astype(dtype)
            (out * probe).sum().backward()
        runs.append((out, [out.data] + [leaf.grad for leaf in leaves]))
    (fused, got), (_, want) = runs
    assert fused.requires_grad == bool(needs_grad)
    assert _leaves(fused) == (leaves if needs_grad else [])
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.dtype == w.dtype == dtype and np.array_equal(g, w)


@pytest.mark.parametrize("case,op", [
    ("product", "matmul"), ("bias", "add"), ("second-product", "matmul"),
    ("second-bias", "add"), ("running-sum", "add"),
])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_names_the_op_of_the_composition_on_overflow(dtype, case, op):
    # only the part the case names overflows: one triple's product, its bias
    # add, or the sum of two finite terms; each term is one row, so no finite
    # array sums past the float range
    big = np.finfo(dtype).max
    n_terms = 1 if case in ("product", "bias") else 2
    triples = _linear_triples(np.random.default_rng(2), dtype, [(1,)] * n_terms, "xw")
    x, w, b = triples[-1]
    if case.endswith("product"):
        x.data[:] = 1.0
        w.data[:] = big
    elif case.endswith("bias"):
        x.data[:] = 0.0
        x.data[0, 0] = big / 2
        w.data[:] = 0.0
        w.data[0, 0] = 1.0
        b.data[0] = big
    else:
        for x, w, b in triples:
            x.data[:] = 0.0
            b.data[0] = big * 0.75
    with np.errstate(all="ignore"):
        with pytest.raises(ad.NumericalError) as fused:
            _linear_of_triples(triples)
        with pytest.raises(ad.NumericalError) as reference:
            _taped_sum_of_linears(triples)
    assert str(fused.value) == str(reference.value) == f"non-finite values in op '{op}'"


_TERM_LEADS = {"same": ((3, 29), [(3, 29), (3, 29)]), "broadcast-term": ((3, 29), [(29,), (3, 29)]),
               "broadcast-sum": ((29,), [(3, 29), (29,)])}


@pytest.mark.parametrize("needs_grad", ["xwt", "xw", "t", ""], ids=["all", "const-terms",
                                                                  "const-product", "none"])
@pytest.mark.parametrize("leads", list(_TERM_LEADS.values()), ids=list(_TERM_LEADS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_adds_its_terms_after_its_product_in_order(dtype, leads, needs_grad):
    x_lead, term_leads = leads
    rng = np.random.default_rng(len(term_leads[0]) + len(x_lead))
    (x, w, b), = _linear_triples(rng, dtype, [x_lead], needs_grad)
    terms = [ad.Tensor(rng.standard_normal(lead + (7,)).astype(dtype), requires_grad="t" in needs_grad)
             for lead in term_leads]
    leaves = [x, w, b] + terms
    # the forward is y = x @ w; y += b; y += t1; y += t2, with no other association
    want = x.data @ w.data
    want = want + b.data
    for t in terms:
        want = want + t.data
    runs = []
    for build in (lambda: ad.linear(x, w, b, terms),
                  lambda: x @ w + b + terms[0] + terms[1]):
        for leaf in leaves:
            leaf.grad = None
        out = build()
        if out.requires_grad:
            probe = np.random.default_rng(1).standard_normal(out.shape).astype(dtype)
            (out * probe).sum().backward()
        runs.append((out, [out.data] + [leaf.grad for leaf in leaves]))
    (fused, got), (_, composed) = runs
    assert fused.data.dtype == dtype and np.array_equal(fused.data, want)
    assert fused.requires_grad == bool(needs_grad)
    assert _leaves(fused) == (leaves if needs_grad else [])
    for g, c in zip(got, composed):
        assert (g is None) == (c is None)
        if c is not None:
            assert g.dtype == c.dtype == dtype and np.array_equal(g, c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_names_add_when_a_term_overflows_the_sum(dtype):
    big = np.finfo(dtype).max
    (x, w, b), = _linear_triples(np.random.default_rng(2), dtype, [(1,)], "xw")
    x.data[:] = 0.0
    b.data[0] = big * 0.75
    with np.errstate(all="ignore"):
        terms = [ad.Tensor(np.zeros((1, 7), dtype)), ad.Tensor(np.full((1, 7), big * 0.75, dtype))]
        with pytest.raises(ad.NumericalError, match="'add'"):
            ad.linear(x, w, b, terms)


def test_a_leaf_of_finite_values_whose_sum_overflows_is_accepted():
    big = np.finfo(np.float32).max
    with np.errstate(over="ignore"):
        leaf = ad.Tensor(np.array([big, big], dtype=np.float32))
    assert np.all(leaf.data == big)


def test_a_linear_whose_finite_product_sums_past_the_range_is_accepted():
    big = np.finfo(np.float32).max
    x = ad.Tensor(np.ones((2, 1), np.float32))
    w = ad.Tensor(np.array([[big]], np.float32), requires_grad=True)
    with np.errstate(over="ignore"):
        y = ad.linear(x, w, ad.Tensor(np.zeros(1, np.float32)))
    # the product's one column holds float32's max in both rows
    assert y.data.dtype == np.float32 and np.all(y.data == big)
