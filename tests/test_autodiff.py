"""Reverse-mode engine: finite-difference checks on every primitive, the
optimizer, and parameter persistence."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leocsi import autodiff as ad
from leocsi.autodiff import AdamW, ParamStore, Tensor


def fd_grad(f, xs, eps=1e-6):
    """Central-difference gradients of scalar f with respect to each array."""
    grads = []
    for i, x in enumerate(xs):
        g = np.zeros_like(x, dtype=float)
        flat = x.reshape(-1)
        gf = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = f(*xs)
            flat[j] = orig - eps
            lo = f(*xs)
            flat[j] = orig
            gf[j] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def check(build, *shapes, seed=0, tol=1e-6, eps=1e-6):
    """Compare analytic and numeric gradients of a scalar-valued graph."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(x.copy(), requires_grad=True) for x in xs]
    out = build(*tensors)
    out.backward()

    def f(*arrays):
        consts = [Tensor(a.copy(), requires_grad=False) for a in arrays]
        return float(build(*consts).data)

    for t, num in zip(tensors, fd_grad(f, xs, eps)):
        denom = np.maximum(np.abs(t.grad) + np.abs(num), 1e-8)
        assert np.max(np.abs(t.grad - num) / denom) < tol


def test_add_mul_broadcast():
    check(lambda a, b: ad.tsum(a + b * 2.0 + a * b), (3, 4), (4,))


def test_div_power():
    check(lambda a, b: ad.tsum(a / (b * b + 2.0) + a**3), (5,), (5,))


def test_exp_log_sqrt():
    check(lambda a: ad.tsum(ad.exp(a) + ad.log(a * a + 1.0) + ad.sqrt(a * a + 0.5)), (6,))


def test_tanh_relu_gelu():
    check(lambda a: ad.tsum(ad.tanh(a) + ad.gelu(a)), (7,))


def test_matmul_2d():
    check(lambda a, b: ad.tsum(ad.matmul(a, b)), (3, 4), (4, 2))


def test_matmul_batched_broadcast():
    check(lambda a, b: ad.tsum(ad.matmul(a, b)), (2, 3, 4), (4, 5))
    check(lambda a, b: ad.tsum(ad.matmul(a, b)), (2, 1, 3, 4), (2, 4, 2))


def test_reshape_transpose_concat():
    check(
        lambda a, b: ad.tsum(
            ad.concat([ad.reshape(a, (2, 6)), ad.transpose(b, (1, 0))], axis=0) ** 2
        ),
        (3, 4),
        (6, 2),
    )


def test_getitem_accumulates():
    # The same index twice must accumulate gradient, not overwrite it.
    check(lambda a: ad.tsum(a[0] * a[0] + a[0] + a[1]), (3, 4))


def test_getitem_basic_slices_accumulate():
    # Overlapping basic slices (assigned in backward) and an advanced index
    # that repeats a row (scattered with np.add.at) all add up.
    weights = np.arange(12.0).reshape(4, 1, 3)
    check(
        lambda a: ad.tsum(a[1:3, ::2] * a[1:3, ::2])
        + ad.tsum(a[:, None, 1, ...] * weights)
        + ad.tsum(a[..., -1] ** 3)
        + ad.tsum(a[[0, 0, 2]] ** 2),
        (4, 6, 3),
    )


def test_sum_mean_axes_keepdims():
    check(lambda a: ad.tsum(ad.tsum(a, axis=1, keepdims=True) * a), (3, 4))
    check(lambda a: ad.tsum(ad.tmean(a, axis=(0, 2)) ** 2), (2, 3, 4))


def test_broadcast_to():
    check(lambda a: ad.tsum(ad.broadcast_to(a, (5, 3)) ** 2), (1, 3))


def test_attention():
    weights = np.random.default_rng(3).standard_normal((2, 3, 4))
    check(lambda q, k, v: ad.tsum(ad.attention(q, k, v, 2) * weights), (2, 3, 4), (2, 5, 4), (2, 5, 4))


def test_attention_of_constant_values_returns_them():
    # The weights of each query row sum to one, so equal value rows come back.
    rng = np.random.default_rng(0)
    q, k = (Tensor(rng.standard_normal((2, 4, 6)) * 10) for _ in range(2))
    v = np.broadcast_to(rng.standard_normal(6), (2, 4, 6))
    out = ad.attention(q, k, Tensor(v.copy()), 3).data
    np.testing.assert_allclose(out, v, rtol=0, atol=1e-12)


def test_attention_ignores_a_key_bias():
    # A bias on K adds q·b to a whole score row, which softmax cancels.
    rng = np.random.default_rng(1)
    q, k, v = (Tensor(rng.standard_normal((2, 5, 6))) for _ in range(3))
    shifted = Tensor(k.data + rng.standard_normal(6))
    np.testing.assert_allclose(ad.attention(q, shifted, v, 3).data,
                               ad.attention(q, k, v, 3).data, rtol=1e-12, atol=1e-12)


def test_layer_norm():
    check(
        lambda a, g, b: ad.tsum(ad.layer_norm(a, g, b) * np.arange(4.0)),
        (2, 4),
        (4,),
        (4,),
        tol=1e-5,
    )
    weights = np.random.default_rng(2).standard_normal((2, 3, 5))
    check(
        lambda a, g, b: ad.tsum(ad.layer_norm(a, g, b) * weights),
        (2, 3, 5), (5,), (5,), tol=1e-5,
    )


def test_log2():
    check(lambda a: ad.tsum(ad.log2(a * a + 1.5)), (5,))


def test_value_reuse_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
    ad.tsum(y).backward()
    assert abs(x.grad[0] - 8.0) < 1e-12


def test_scalars_take_the_tensor_dtype():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    # np.float64 scalars too: NumPy 2 would promote a float32 array against
    # a 0-d float64 array.
    for y in (x * 0.5, 0.5 * x, x + np.float64(2.0), 1.0 - x, x / 3, 2.0 / x):
        assert y.data.dtype == np.float32
    ad.tsum(x * 0.5).backward()
    assert x.grad.dtype == np.float32


def test_cast_gradient_and_dtypes():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal(4), requires_grad=True)
    low = ad.cast(w * w, np.float32)
    assert low.data.dtype == np.float32
    ad.tsum(low * 3.0).backward()
    assert w.grad.dtype == np.float64
    assert np.allclose(w.grad, 6.0 * w.data, rtol=1e-6)

    x = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
    # Two float64 branches reach x: the second add keeps x's float32 gradient.
    y = ad.tsum(ad.cast(x, np.float64) * 3.0) + ad.tsum(ad.cast(x, np.float64) ** 2)
    assert y.data.dtype == np.float64
    y.backward()
    assert x.grad.dtype == np.float32
    assert np.allclose(x.grad, 3.0 + 2.0 * x.data, rtol=1e-6)
    assert ad.cast(x, np.float32) is x


def test_leaves_in_a_dtype_copy_the_float64_masters():
    store = ParamStore()
    store.add("w", np.array([1.0, 2.0]))
    store.add("frozen", np.array([3.0]), trainable=False)
    default, low = store.leaves(), store.leaves(np.float32)
    assert default["w"].data is store["w"].data
    assert low["w"].data.dtype == np.float32 and low["w"].requires_grad
    assert not low["frozen"].requires_grad
    assert store["w"].data.dtype == np.float64


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mul_grad_property(seed):
    # sum(a * b) is linear in each entry, so a central difference is exact at
    # any step; a wide step keeps the roundoff of the sum (~1e-16 / eps) below
    # the relative bound even where an entry of the gradient is ~1e-4.
    check(lambda a, b: ad.tsum(a * b), (2, 3), (2, 3), seed=seed, eps=1e-3)


def test_adamw_decoupled_decay():
    store = ParamStore()
    store.add("w", np.array([1.0]), trainable=True, decay=True)
    store.add("b", np.array([1.0]), trainable=True, decay=False)
    store.add("frozen", np.array([1.0]), trainable=False)
    opt = AdamW(lr=0.1, weight_decay=0.5)
    g = np.array([0.0])
    opt.step(store, {"w": g, "b": g, "frozen": g})
    # Zero gradient: only the decoupled decay moves the decay-flagged weight.
    assert store["w"].data[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)
    assert store["b"].data[0] == 1.0
    assert store["frozen"].data[0] == 1.0


def test_adamw_first_step_matches_manual():
    store = ParamStore()
    store.add("w", np.array([2.0]), decay=False)
    opt = AdamW(lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
    opt.step(store, {"w": np.array([0.5])})
    # Bias-corrected first Adam step moves by ~lr in the gradient direction.
    assert store["w"].data[0] == pytest.approx(2.0 - 0.01 * 0.5 / (0.5 + 1e-8), rel=1e-9)


def test_grad_check_simple_quadratic():
    store = ParamStore()
    store.add("x", np.array([1.0, -2.0, 0.5]))

    def f(leaves):
        return ad.tsum(leaves["x"] * leaves["x"])

    assert ad.grad_check(f, store) < 1e-6


def test_grad_check_skips_structurally_zero_grads():
    store = ParamStore()
    store.add("x", np.array([1.0, 2.0]))
    store.add("unused", np.array([3.0]))

    def f(leaves):
        _ = leaves["unused"]
        return ad.tsum(leaves["x"] ** 2)

    # The unused leaf has an exactly-zero gradient; the relative-error
    # formula would report ~1 from finite-difference noise if not skipped.
    assert ad.grad_check(f, store) < 1e-6


def test_param_store_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("a.w", rng.standard_normal((3, 4)).astype(np.float64))
    store.add("a.b", rng.standard_normal(4), decay=False)
    store.add("frozen.w", rng.standard_normal(2), trainable=False)
    ad.quantize_store(store)
    ad.save_params(str(tmp_path), store)
    loaded = ad.load_params(str(tmp_path))
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded[name].data, store[name].data)
        assert loaded[name].trainable == store[name].trainable


def test_freeze_and_counts():
    store = ParamStore()
    store.add("backbone.w", np.zeros((2, 2)))
    store.add("head.w", np.zeros(3))
    store.freeze("backbone.")
    assert store.trainable_names() == ["head.w"]
    assert store.num_params() == 7
    assert store.num_params(trainable_only=True) == 3


# -- fused ops: finite differences and composite oracles ------------------

def test_linear_4d_with_and_without_bias():
    weights = np.random.default_rng(1).standard_normal((2, 3, 4, 5))
    check(lambda x, w, b: ad.tsum(ad.linear(x, w, b) * weights), (2, 3, 4, 6), (5, 6), (5,))
    check(lambda x, w: ad.tsum(ad.linear(x, w) * weights), (2, 3, 4, 6), (5, 6))


def _linear_oracle(x, w, b=None):
    y = x @ ad.transpose(w, (1, 0))
    return y if b is None else y + b


def _layer_norm_oracle(a, gain, bias, eps=1e-5):
    centered = a - ad.tmean(a, axis=-1, keepdims=True)
    var = ad.tmean(centered * centered, axis=-1, keepdims=True)
    return centered / ad.sqrt(var + eps) * gain + bias


def _softmax_oracle(a):
    e = ad.exp(a - ad.constant(a.data.max(axis=-1, keepdims=True)))
    return e / ad.tsum(e, axis=-1, keepdims=True)


def _attention_oracle(q, k, v, heads, mask=None):
    """Multi-head attention as a composite graph: head reshapes and
    transposes, two batched matmuls, a scale, a mask add and a softmax."""

    def split(t):
        *lead, s, d = t.shape
        n = len(lead)
        t = ad.reshape(t, tuple(lead) + (s, heads, d // heads))
        return ad.transpose(t, tuple(range(n)) + (n + 1, n, n + 2))

    qh, kh, vh = split(q), split(k), split(v)
    n = kh.ndim
    scores = (qh @ ad.transpose(kh, tuple(range(n - 2)) + (n - 1, n - 2))) * (
        1.0 / np.sqrt(qh.shape[-1])
    )
    if mask is not None:
        scores = scores + ad.constant(mask)
    ctx = _softmax_oracle(scores) @ vh
    ctx = ad.transpose(ctx, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))
    return ad.reshape(ctx, q.shape)


def _attention_case(sq, sk, causal, lead=(2,), heads=2, d=8):
    mask = np.triu(np.full((sk, sk), -1e30), k=1)[:sq] if causal else None
    return (
        lambda q, k, v: ad.attention(q, k, v, heads, mask),
        lambda q, k, v: _attention_oracle(q, k, v, heads, mask),
        [lead + (sq, d), lead + (sk, d), lead + (sk, d)],
    )


def _gelu_oracle(a):
    inner = np.sqrt(2.0 / np.pi) * (a + 0.044715 * a * a * a)
    return 0.5 * a * (1.0 + ad.tanh(inner))


@pytest.mark.parametrize(
    "fused, oracle, shapes",
    [
        (ad.linear, _linear_oracle, [(3, 2, 4, 6), (5, 6), (5,)]),
        (ad.linear, _linear_oracle, [(7, 6), (5, 6)]),
        (ad.layer_norm, _layer_norm_oracle, [(3, 4, 8), (8,), (8,)]),
        (ad.gelu, _gelu_oracle, [(3, 4, 8)]),
        _attention_case(3, 3, False),
        _attention_case(3, 3, True),
        _attention_case(8, 8, False, lead=(2, 3)),
        _attention_case(8, 8, True, lead=(2, 3)),
        _attention_case(41, 41, False),
        _attention_case(41, 41, True),
        _attention_case(1, 41, False, lead=(2, 3)),
        _attention_case(3, 8, True),
    ],
    ids=["linear-4d-bias", "linear-2d", "layer_norm", "gelu",
         "attention-S3", "attention-S3-causal", "attention-S8", "attention-S8-causal",
         "attention-S41", "attention-S41-causal", "attention-Sq1-Sk41", "attention-Sq3-Sk8-causal"],
)
def test_fused_op_matches_composite_oracle(fused, oracle, shapes):
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal(s) * 3.0 for s in shapes]
    results = []
    for op in (fused, oracle):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*leaves)
        weights = np.random.default_rng(5).standard_normal(out.shape)
        ad.tsum(out * weights).backward()
        results.append((out.data, [t.grad for t in leaves]))
    (value, grads), (ref_value, ref_grads) = results
    np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=1e-12)
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)


def _layer_norm_with_mean(x, gain, bias, g, eps=1e-5):
    """Value and input/gain/bias gradients of layer norm, written with ``mean``."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv_std
    gx = g * gain
    dx = inv_std * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    lead = tuple(range(x.ndim - 1))
    return xhat * gain + bias, [dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 3, 32, 64])
def test_layer_norm_equals_its_mean_form_bit_for_bit(d, dtype):
    rng = np.random.default_rng(d)
    x, gain, bias, g = (
        (rng.standard_normal(s) * 3.0 + 0.5).astype(dtype)
        for s in ((3, 5, d), (d,), (d,), (3, 5, d))
    )
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gain, bias)]
    out = ad.layer_norm(*leaves)
    ad.tsum(out * ad.constant(g)).backward()
    value, grads = _layer_norm_with_mean(x, gain, bias, g)
    assert out.data.dtype == dtype and np.array_equal(out.data, value)
    for t, ref in zip(leaves, grads):
        assert t.grad.dtype == dtype and np.array_equal(t.grad, ref)


_A, _B = np.arange(1.0, 7.0).reshape(2, 3), np.linspace(0.5, 2.0, 6).reshape(2, 3)
_CONSTANT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "power": lambda a, b: a ** 2,
    "exp": lambda a, b: ad.exp(a),
    "log": lambda a, b: ad.log(a),
    "log2": lambda a, b: ad.log2(a),
    "sqrt": lambda a, b: ad.sqrt(a),
    "tanh": lambda a, b: ad.tanh(a),
    "matmul": lambda a, b: a @ ad.transpose(b, (1, 0)),
    "reshape": lambda a, b: ad.reshape(a, (3, 2)),
    "getitem": lambda a, b: a[:, 1:],
    "getitem-advanced": lambda a, b: a[np.array([1, 1, 0])],
    "concat": lambda a, b: ad.concat([a, b], axis=1),
    "tsum-axis": lambda a, b: ad.tsum(a, axis=1),
    "tsum-full": lambda a, b: ad.tsum(a),
    "tmean-full": lambda a, b: ad.tmean(a),
    "broadcast_to": lambda a, b: ad.broadcast_to(a, (4, 2, 3)),
    "cast": lambda a, b: ad.cast(a, np.float32),
    "linear": lambda a, b: ad.linear(a, b, ad.tsum(b, axis=1)),
    "layer_norm": lambda a, b: ad.layer_norm(a, b[0], b[1]),
    "gelu": lambda a, b: ad.gelu(a),
    "attention": lambda a, b: ad.attention(a, b, a, 1, np.zeros((2, 2))),
}


@pytest.mark.parametrize("op", list(_CONSTANT_OPS), ids=list(_CONSTANT_OPS))
def test_op_of_constants_is_a_constant(op):
    # A result no gradient can reach records no graph, and still holds a
    # float ndarray (a full reduction gives a numpy scalar, converted).
    a, b = ad.constant(_A.copy()), ad.constant(_B.copy())
    out = _CONSTANT_OPS[op](a, b)
    assert out._parents == () and out._backward is None and not out.requires_grad
    assert type(out.data) is np.ndarray and out.data.dtype.kind == "f"
    # With a parent that requires grad, the same op records a node.
    node = _CONSTANT_OPS[op](Tensor(_A.copy(), requires_grad=True), b)
    assert node._parents and node._backward is not None and node.requires_grad


def test_constant_of_a_non_float_value_converts_it():
    assert ad.constant(3).data.dtype == np.float64
    assert ad.constant(np.arange(3)).data.dtype == np.float64
    x = np.ones(2, dtype=np.float32)
    assert ad.constant(x).data is x
