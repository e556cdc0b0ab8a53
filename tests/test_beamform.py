"""Classical beamformers and link metrics."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leocsi.beamform import (
    _wmmse_w_update,
    mrt,
    sinr,
    sum_rate,
    wmmse,
    zero_forcing,
)
from leocsi.config import ScenarioConfig
from leocsi.dataset import build_dataset


def _random_channel(k, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)


def _eigen_w_update(H, lam, u, total_power, inner_tol=1e-13):
    """Oracle for the WMMSE transmit update: the N x N eigen-solve.

    ``W = B (conj(A) + mu I)^-1`` with ``A = sum_k lam_k |u_k|^2 h_k h_k^H``
    and ``B = diag(lam conj(u)) H``, solved on the range of ``A`` (same
    rank tolerance), with the multiplier found by doubling and bisection.
    """
    weights = lam * np.abs(u) ** 2
    A = (H.T * weights) @ H.conj()
    B = (lam * np.conj(u))[:, None] * H
    evals, Q = np.linalg.eigh(A)
    keep = evals > evals.max() * A.shape[0] * np.finfo(float).eps
    evals, Q = evals[keep], Q[:, keep]
    Bq = B @ Q.conj()
    c = np.sum(np.abs(Bq) ** 2, axis=0)

    def power(mu):
        return float(c @ (evals + mu) ** -2)

    lo, hi = 0.0, 0.0
    if power(0.0) > total_power:
        hi = 1.0
        while power(hi) > total_power:
            lo, hi = hi, 2.0 * hi
        while hi - lo >= inner_tol * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if power(mid) > total_power else (lo, mid)
    return (Bq / (evals + hi)) @ Q.T


def _w_update_instance(seed, k, n, log_scale=None):
    """A random channel, MMSE weights and receive gains, as the hypothesis tests draw them."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** (rng.uniform(-2, 1) if log_scale is None else log_scale)
    H = _random_channel(k, n, seed) * scale
    lam = 10.0 ** rng.uniform(0, 2, k)
    u = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * 10.0 ** rng.uniform(-2, 1)
    return H, lam, u


def _assert_matches_oracle(W, H, lam, u, total_power):
    expected = _eigen_w_update(H, lam, u, total_power)
    assert np.linalg.norm(W - expected) <= 1e-8 * np.linalg.norm(expected)


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


def test_zero_forcing_ill_conditioned_raises():
    # Two nearly parallel rows: the Gram matrix has full numerical rank but a
    # condition number near 1e14, so only the condition test rejects it.
    H = _random_channel(2, 8, seed=9)
    H[1] = H[0] + 3e-7 * _random_channel(1, 8, seed=10)[0]
    sv = np.linalg.svd(H.conj() @ H.T, compute_uv=False)
    assert np.linalg.matrix_rank(H.conj() @ H.T) == 2 and sv[0] / sv[-1] > 1e12
    with pytest.raises(np.linalg.LinAlgError):
        zero_forcing(H, 1.0)


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
    # Orthogonal channels with gain |h_k|^2 = 4 and noise 1: P = 2 split
    # equally gives each device power 1 and SINR 4, so 2*log2(1+4) in all.
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
    with pytest.raises(ValueError):
        wmmse(_random_channel(2, 4, seed=8), 1.0, 0.1, tol=float("nan"))


@pytest.mark.parametrize("total_power, noise_power", [
    (1.0, -0.1), (1.0, float("nan")), (-1.0, 0.1), (1.0, 0.0), (float("inf"), 0.1),
])
def test_wmmse_rejects_bad_powers(total_power, noise_power):
    with pytest.raises(ValueError, match="must be finite and positive"):
        wmmse(_random_channel(2, 4, seed=8), total_power, noise_power)


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_emitted_beamformers_meet_power_budget(seed, k):
    H = _random_channel(k, 6, seed=seed)
    for W in (mrt(H, 1.5), zero_forcing(H, 1.5), wmmse(H, 1.5, 0.1)[0]):
        assert np.sum(np.abs(W) ** 2) == pytest.approx(1.5, rel=1e-6)


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 6),
    n=st.integers(1, 6),
    duplicate=st.booleans(),
    total_power=st.floats(0.1, 10.0),
    noise_power=st.floats(0.01, 1.0),
)
# Device 3 of this channel is switched off: its u_k decays into the subnormal
# range, where conj(u)/|u| overflowed and the multiplier search failed.
@example(seed=0, k=4, n=2, duplicate=False, total_power=5.0, noise_power=0.03125)
@settings(max_examples=60, deadline=None)
def test_wmmse_on_rank_deficient_channels(seed, k, n, duplicate, total_power, noise_power):
    # K > N, or a duplicated row: S G S is singular, so the W-updates of the
    # whole loop drop eigen-directions.
    H = _random_channel(k, n, seed)
    if duplicate or k <= n:
        H[-1] = H[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W, trace = wmmse(H, total_power, noise_power)
    assert np.all(np.isfinite(W))
    assert np.sum(np.abs(W) ** 2) == pytest.approx(total_power, rel=1e-9)
    assert np.min(np.diff(trace), initial=0.0) >= -1e-9
    assert trace[-1] >= sum_rate(H, mrt(H, total_power), noise_power) - 1e-9


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 4),
    n=st.integers(1, 8),
    total_power=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_wmmse_w_update_stays_within_budget(seed, k, n, total_power):
    H, lam, u = _w_update_instance(seed, k, n)
    gram = H @ H.conj().T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W, mu = _wmmse_w_update(H, gram, lam, u, total_power)
        W_warm, _ = _wmmse_w_update(H, gram, lam, u, total_power, mu=1.01 * mu or None)
    # The K x K solve against the N x N one, K > N included, cold and warm-started.
    _assert_matches_oracle(W, H, lam, u, total_power)
    _assert_matches_oracle(W_warm, H, lam, u, total_power)
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
    H, lam, u = _w_update_instance(seed, k, k + extra, log_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W, _ = _wmmse_w_update(H, H @ H.conj().T, lam, u, 1.0)
    outside = W - W @ np.linalg.pinv(H) @ H
    assert np.linalg.norm(outside) <= 1e-9 * np.linalg.norm(W)
    _assert_matches_oracle(W, H, lam, u, 1.0)


def test_wmmse_w_update_zero_receive_gain():
    # u_k = 0 exactly gives device k weight 0: a zero row, with no 0/0.
    H, lam, u = _w_update_instance(seed=11, k=4, n=6)
    u[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W, _ = _wmmse_w_update(H, H @ H.conj().T, lam, u, 1.0)
    assert np.all(W[2] == 0.0)
    assert np.all(np.isfinite(W))
    _assert_matches_oracle(W, H, lam, u, 1.0)


def _oracle_wmmse_iterations(H, total_power, noise_power, tol=1e-5, max_iter=200):
    """Iterations of the alternating WMMSE loop driven by the eigen oracle."""
    W = mrt(H, total_power)
    trace = [sum_rate(H, W, noise_power)]
    for _ in range(max_iter):
        hw = H.conj() @ W.T
        u = np.conj(np.diag(hw)) / (np.sum(np.abs(hw) ** 2, axis=1) + noise_power)
        lam = 1.0 / np.real(1.0 - u * np.diag(hw))
        W = _eigen_w_update(H, lam, u, total_power)
        trace.append(sum_rate(H, W, noise_power))
        if abs(trace[-1] - trace[-2]) < tol:
            break
    return len(trace) - 1


def test_wmmse_iterations_match_the_oracle_loop_at_full_scale():
    scen = ScenarioConfig()
    _, data = build_dataset(scen, 5, split="test", t_p=16, t_f=4, seed=31)
    for H in data.future.reshape(-1, scen.num_devices, scen.num_antennas):
        W, trace = wmmse(H, scen.total_power, scen.noise_power)
        assert len(trace) - 1 == _oracle_wmmse_iterations(H, scen.total_power, scen.noise_power)
        # Every trace entry is the sum rate of its iterate, bit for bit.
        assert trace[-1] == sum_rate(H, W, scen.noise_power)
