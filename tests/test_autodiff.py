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


def check(build, *shapes, seed=0, tol=1e-6):
    """Compare analytic and numeric gradients of a scalar-valued graph."""
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(x.copy(), requires_grad=True) for x in xs]
    out = build(*tensors)
    out.backward()

    def f(*arrays):
        consts = [Tensor(a.copy(), requires_grad=False) for a in arrays]
        return float(build(*consts).data)

    for t, num in zip(tensors, fd_grad(f, xs)):
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


def test_sum_mean_axes_keepdims():
    check(lambda a: ad.tsum(ad.tsum(a, axis=1, keepdims=True) * a), (3, 4))
    check(lambda a: ad.tsum(ad.tmean(a, axis=(0, 2)) ** 2), (2, 3, 4))


def test_broadcast_to():
    check(lambda a: ad.tsum(ad.broadcast_to(a, (5, 3)) ** 2), (1, 3))


def test_softmax():
    check(lambda a: ad.tsum(ad.softmax(a, axis=-1) * np.arange(4.0)), (3, 4))


def test_softmax_rows_sum_to_one():
    x = Tensor(np.random.default_rng(0).standard_normal((4, 6)) * 10)
    s = ad.softmax(x, axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm():
    check(
        lambda a, g, b: ad.tsum(ad.layer_norm(a, g, b) * np.arange(4.0)),
        (2, 4),
        (4,),
        (4,),
        tol=1e-5,
    )


def test_log2():
    check(lambda a: ad.tsum(ad.log2(a * a + 1.5)), (5,))


def test_value_reuse_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
    ad.tsum(y).backward()
    assert abs(x.grad[0] - 8.0) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mul_grad_property(seed):
    check(lambda a, b: ad.tsum(a * b), (2, 3), (2, 3), seed=seed)


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
