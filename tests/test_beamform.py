"""Classical beamformers and link metrics."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leocsi.beamform import (
    _wmmse_w_update,
    mrt,
    sinr,
    sum_rate,
    wmmse,
    zero_forcing,
)


def _random_channel(k, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)


def test_sinr_hand_computed():
    # Two orthogonal single-antenna-per-user channels with gain 2.
    H = np.array([[2.0, 0.0], [0.0, 2.0]], dtype=complex)
    W = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    g = sinr(H, W, noise_power=1.0)
    assert np.allclose(g, [4.0, 4.0], atol=1e-12)
    assert sum_rate(H, W, 1.0) == pytest.approx(2 * np.log2(5.0), abs=1e-12)


def test_sinr_counts_interference():
    H = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)  # identical channels
    W = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    g = sinr(H, W, noise_power=1.0)
    assert np.allclose(g, [1.0 / 2.0, 1.0 / 2.0], atol=1e-12)


def test_sinr_shape_mismatch():
    with pytest.raises(ValueError):
        sinr(np.zeros((2, 3), complex), np.zeros((2, 4), complex), 0.1)


def test_mrt_alignment_and_power():
    H = _random_channel(3, 8, seed=0)
    W = mrt(H, total_power=2.0)
    assert np.sum(np.abs(W) ** 2) == pytest.approx(2.0, rel=1e-12)
    for k in range(3):
        inner = np.vdot(H[k], W[k])  # h_k^H w_k
        assert abs(inner.imag) < 1e-12
        assert inner.real > 0


def test_mrt_rejects_zero_row():
    H = np.zeros((2, 4), complex)
    with pytest.raises(ValueError):
        mrt(H, 1.0)


def test_zero_forcing_nulls_interference():
    H = _random_channel(4, 8, seed=1)
    W = zero_forcing(H, total_power=1.0)
    cross = np.abs(H.conj() @ W.T)
    off = cross - np.diag(np.diag(cross))
    assert np.max(off) < 1e-10
    assert np.sum(np.abs(W) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_zero_forcing_requires_enough_antennas():
    with pytest.raises(ValueError):
        zero_forcing(_random_channel(5, 4, seed=2), 1.0)


def test_zero_forcing_rank_deficient_raises():
    H = _random_channel(3, 8, seed=3)
    H[2] = H[0]  # duplicate row
    with pytest.raises(np.linalg.LinAlgError):
        zero_forcing(H, 1.0)


def test_wmmse_single_user_closed_form():
    h = _random_channel(1, 8, seed=4)
    W, trace = wmmse(h, total_power=1.0, noise_power=0.1, tol=1e-12, max_iter=300)
    closed = np.log2(1.0 + np.linalg.norm(h) ** 2 / 0.1)
    assert abs(trace[-1] - closed) < 1e-6


def test_wmmse_orthogonal_two_user():
    H = 2.0 * np.eye(2, 4, dtype=complex)
    _, trace = wmmse(H, total_power=2.0, noise_power=1.0, tol=1e-12)
    # Equal split over orthogonal gain-2 channels: 2*log2(1+4) at full power
    # splits to 2*log2(1+2*... ) -- with P=2 split equally each SINR=4.
    assert trace[-1] == pytest.approx(2 * np.log2(5.0), abs=1e-4)


def test_wmmse_monotone_and_power():
    worst = 0.0
    for seed in range(20):
        H = _random_channel(4, 8, seed=100 + seed)
        W, trace = wmmse(H, total_power=1.0, noise_power=0.1)
        if len(trace) > 1:
            worst = min(worst, float(np.min(np.diff(trace))))
        assert np.sum(np.abs(W) ** 2) == pytest.approx(1.0, rel=1e-6)
    assert worst >= -1e-9


def test_wmmse_beats_mrt_and_zf():
    H = _random_channel(4, 8, seed=7)
    base_mrt = sum_rate(H, mrt(H, 1.0), 0.1)
    base_zf = sum_rate(H, zero_forcing(H, 1.0), 0.1)
    _, trace = wmmse(H, 1.0, 0.1)
    assert trace[-1] >= base_mrt - 1e-9
    assert trace[-1] >= base_zf - 1e-9


def test_wmmse_input_validation():
    with pytest.raises(ValueError):
        wmmse(_random_channel(2, 4, seed=8), 1.0, 0.1, tol=0.0)


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_emitted_beamformers_meet_power_budget(seed, k):
    H = _random_channel(k, 6, seed=seed)
    for W in (mrt(H, 1.5), zero_forcing(H, 1.5), wmmse(H, 1.5, 0.1)[0]):
        assert np.sum(np.abs(W) ** 2) == pytest.approx(1.5, rel=1e-6)


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 4),
    n=st.integers(1, 8),
    total_power=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_wmmse_w_update_stays_within_budget(seed, k, n, total_power):
    rng = np.random.default_rng(seed)
    H = _random_channel(k, n, seed) * 10.0 ** rng.uniform(-2, 1)
    lam = 10.0 ** rng.uniform(0, 2, k)
    u = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 10.0 ** rng.uniform(-2, 1)
    W = _wmmse_w_update(H, lam, u, total_power)
    power = float(np.sum(np.abs(W) ** 2))
    assert power <= total_power * (1.0 + 1e-12)
    # Either W is the unconstrained (mu = 0) solution A w_k = b_k, or the
    # multiplier search ended within its tolerance of the budget.
    A = sum(lam[j] * abs(u[j]) ** 2 * np.outer(H[j], H[j].conj()) for j in range(k))
    B = (lam * np.conj(u))[:, None] * H
    residual = np.linalg.norm(A @ W.T - B.T)
    scale = np.linalg.norm(A) * np.linalg.norm(W) + np.linalg.norm(B)
    assert residual <= 1e-12 * scale or power >= total_power * (1.0 - 1e-8)


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    extra=st.integers(1, 5),
    log_scale=st.floats(0.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_wmmse_w_update_stays_in_row_span(seed, k, extra, log_scale):
    # With K < N, A = sum_j weights_j h_j h_j^H has N - K eigenvalues that are
    # rounding noise scaled by ||A||; W must not gain a part along them.
    rng = np.random.default_rng(seed)
    H = _random_channel(k, k + extra, seed) * 10.0**log_scale
    lam = 10.0 ** rng.uniform(0, 2, k)
    u = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 10.0 ** rng.uniform(-2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W = _wmmse_w_update(H, lam, u, 1.0)
    outside = W - W @ np.linalg.pinv(H) @ H
    assert np.linalg.norm(outside) <= 1e-9 * np.linalg.norm(W)
