"""Neural building blocks: patchify, attention masking, LoRA, encodings."""
import numpy as np
import pytest

from leocsi import autodiff as ad
from leocsi import nn
from leocsi.autodiff import ParamStore, Tensor


def _store_with(fn, *args, seed=0):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    fn(store, rng, *args)
    return store


def test_linear_matches_numpy():
    store = _store_with(nn._init_linear, "fc", 3, 5)
    leaves = store.leaves()
    x = np.random.default_rng(1).standard_normal((4, 5))
    out = nn.linear(leaves, "fc", Tensor(x)).data
    expect = x @ leaves["fc.w"].data.T + leaves["fc.b"].data
    assert np.allclose(out, expect, atol=1e-12)


def test_lora_identity_at_init():
    d, r = 8, 3
    store = _store_with(nn._init_linear, "fc", d, d)
    rng = np.random.default_rng(2)
    nn.init_lora(store, rng, "ada", d, r)
    leaves = store.leaves()
    assert np.array_equal(leaves["ada.b"].data, np.zeros((d, r)))
    x = Tensor(rng.standard_normal((5, d)))
    base = nn.linear(leaves, "fc", x).data
    adapted = nn.lora_linear(leaves, "fc", "ada", x, rank=r, alpha=16.0).data
    assert np.array_equal(base, adapted)  # exact, not approximate


def test_lora_nonzero_after_b_update():
    d, r = 6, 2
    store = _store_with(nn._init_linear, "fc", d, d)
    rng = np.random.default_rng(3)
    nn.init_lora(store, rng, "ada", d, r)
    store["ada.b"].data[...] = rng.standard_normal((d, r))
    leaves = store.leaves()
    x = Tensor(rng.standard_normal((5, d)))
    base = nn.linear(leaves, "fc", x).data
    adapted = nn.lora_linear(leaves, "fc", "ada", x, rank=r, alpha=16.0).data
    delta = adapted - base
    assert np.max(np.abs(delta)) > 1e-6
    # Low-rank structure: the update lives in an r-dimensional subspace.
    assert np.linalg.matrix_rank(delta, tol=1e-9) <= r


def test_patchify_blocks():
    b, t, c, k, n, p = 1, 1, 2, 4, 4, 2
    store = _store_with(nn._init_linear, "patch", 6, c * p * p)
    leaves = store.leaves()
    x = np.random.default_rng(4).standard_normal((b, t, c, k, n))
    tokens = nn.patchify(Tensor(x), p, leaves, "patch").data
    assert tokens.shape == (b, t, (k // p) * (n // p), 6)
    # First patch corresponds to the top-left 2x2 block of both channels.
    flat = x[0, 0, :, :p, :p].reshape(-1)
    expect = flat @ leaves["patch.w"].data.T + leaves["patch.b"].data
    assert np.allclose(tokens[0, 0, 0], expect, atol=1e-12)


def test_attention_causal_mask():
    d, heads, t = 8, 2, 5
    store = _store_with(nn.init_encoder_layer, "l", d)
    leaves = store.leaves()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, t, d))
    y1 = nn.decoder_layer(leaves, "l", Tensor(x), heads).data
    x2 = x.copy()
    # Non-constant perturbation of only the last position (a constant shift
    # would be cancelled by the pre-attention layer norm).
    x2[0, -1] += rng.standard_normal(d)
    y2 = nn.decoder_layer(leaves, "l", Tensor(x2), heads).data
    assert np.allclose(y1[0, :-1], y2[0, :-1], atol=1e-12)
    assert not np.allclose(y1[0, -1], y2[0, -1])


def test_encoder_layer_is_bidirectional():
    d, heads, t = 8, 2, 5
    store = _store_with(nn.init_encoder_layer, "l", d)
    leaves = store.leaves()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, t, d))
    y1 = nn.encoder_layer(leaves, "l", Tensor(x), heads).data
    x2 = x.copy()
    x2[0, -1] += rng.standard_normal(d)
    y2 = nn.encoder_layer(leaves, "l", Tensor(x2), heads).data
    # Without a causal mask the earlier positions change too.
    assert not np.allclose(y1[0, 0], y2[0, 0], atol=1e-9)


def test_readout_layer_is_the_full_layers_token_zero():
    # Forward value and every gradient, input included, in float64.
    d, heads = 8, 2
    store = _store_with(nn.init_encoder_layer, "l", d)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 5, d))
    weights = rng.standard_normal((2, 3, d))
    results = []
    for readout in (False, True):
        leaves = store.leaves()
        xt = Tensor(x.copy(), requires_grad=True)
        out = nn.encoder_layer(leaves, "l", xt, heads, readout=readout)[:, :, 0, :]
        ad.tsum(out * weights).backward()
        results.append((out.data, xt.grad, [leaves[n].grad for n in store.names()]))
    (full, full_dx, full_grads), (token, dx, grads) = results
    np.testing.assert_allclose(token, full, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dx, full_dx, rtol=1e-12, atol=1e-12)
    for name, g, ref in zip(store.names(), grads, full_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12, err_msg=name)


def test_layer_shapes_preserved():
    d, heads = 8, 4
    store = _store_with(nn.init_encoder_layer, "l", d)
    leaves = store.leaves()
    x = Tensor(np.random.default_rng(7).standard_normal((2, 3, d)))
    assert nn.encoder_layer(leaves, "l", x, heads).shape == (2, 3, d)
    assert nn.encoder_layer(leaves, "l", x, heads, readout=True).shape == (2, 1, d)
    assert nn.decoder_layer(leaves, "l", x, heads).shape == (2, 3, d)


def test_sinusoidal_pe_known_values():
    pe = nn.sinusoidal_pe(0, 8)
    assert np.array_equal(pe, np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))
    # cos at even components (1-based odd), sin at odd components.
    pe1 = nn.sinusoidal_pe(1, 4)
    assert pe1[0] == pytest.approx(np.cos(1.0))           # slowest cos channel
    assert pe1[1] == pytest.approx(np.sin(1.0 / 10000.0**0.5))
    assert pe1[2] == pytest.approx(np.cos(1.0 / 10000.0**0.5))
    assert pe1[3] == pytest.approx(np.sin(1.0 / 10000.0))


def test_sinusoidal_pe_bounded():
    for t in (0, 1, 7, 100, 9999):
        pe = nn.sinusoidal_pe(t, 16)
        assert np.all(np.abs(pe) <= 1.0 + 1e-12)
