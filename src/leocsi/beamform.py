"""Link-quality math and classical downlink beamformers.

Channels and beamformers are row-stacked: ``H[k]`` is device k's channel,
``W[k]`` its transmit beamformer.  All solvers emit solutions using the
full power budget.
"""
from __future__ import annotations

import math

import numpy as np


def sinr(H: np.ndarray, W: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-device SINR: |h_k^H w_k|^2 / (sum_{j!=k} |h_k^H w_j|^2 + sigma^2)."""
    H = np.asarray(H)
    W = np.asarray(W)
    if H.shape != W.shape:
        raise ValueError("H and W must both be [K, N]")
    cross = np.abs(H.conj() @ W.T) ** 2  # cross[k, j] = |h_k^H w_j|^2
    signal = np.diag(cross)
    interference = cross.sum(axis=1) - signal
    return signal / (interference + noise_power)


def sum_rate(H: np.ndarray, W: np.ndarray, noise_power: float) -> float:
    """Achievable sum rate in bits/s/Hz."""
    return float(np.sum(np.log2(1.0 + sinr(H, W, noise_power))))


def mrt(H: np.ndarray, total_power: float) -> np.ndarray:
    """Maximum ratio transmission with equal per-device power."""
    H = np.asarray(H)
    k = H.shape[0]
    norms = np.linalg.norm(H, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero channel row")
    return np.sqrt(total_power / k) * H / norms


def zero_forcing(H: np.ndarray, total_power: float) -> np.ndarray:
    """Interference-nulling beamformer with equal per-device power.

    Requires K <= N and full row rank; columns of the right pseudo-inverse
    are normalized then scaled to sqrt(P_T/K).
    """
    H = np.asarray(H)
    k, n = H.shape
    if k > n:
        raise ValueError("zero forcing requires K <= N")
    gram = H.conj() @ H.T
    if np.linalg.matrix_rank(gram) < k or np.linalg.cond(gram) > 1e12:
        raise np.linalg.LinAlgError("rank-deficient channel matrix")
    # Right pseudo-inverse of conj(H): h_j^H w_k = 0 for j != k.
    pinv = H.T @ np.linalg.inv(gram)  # [N, K]
    cols = pinv / np.linalg.norm(pinv, axis=0, keepdims=True)
    return np.sqrt(total_power / k) * cols.T


def _wmmse_w_update(H, lam, u, total_power, inner_tol=1e-13):
    """Weighted-MMSE transmit update with a safeguarded search on the power multiplier.

    The problem is solved on the range of ``A``, the row span of ``H``: its
    eigen-directions at or below ``matrix_rank``'s default tolerance hold
    rounding noise, and the right-hand sides have no part along them.
    The returned beamformer's power never exceeds ``total_power``: the search
    keeps a bracket ``lo < mu <= hi`` with ``power(lo) > total_power >=
    power(hi)`` and returns the solution at ``hi`` once the bracket is
    narrower than ``inner_tol * max(1, hi)``.
    """
    weights = lam * np.abs(u) ** 2
    A = (H.T * weights) @ H.conj()  # sum_j weights_j h_j h_j^H
    B = (lam * np.conj(u))[:, None] * H  # [K, N] right-hand sides

    # Diagonalize once; with c = sum_k |Q^H b_k|^2 each multiplier probe is
    # a dot product over the rank of A.
    evals, Q = np.linalg.eigh(A)
    keep = evals > evals.max() * A.shape[0] * np.finfo(float).eps
    evals, Q = evals[keep], Q[:, keep]
    Bq = B @ Q.conj()  # rows are Q^H b_i
    c = np.sum(np.abs(Bq) ** 2, axis=0)

    def solve(mu):
        return (Bq / (evals + mu)) @ Q.T

    def power(mu):
        return float(c @ (evals + mu) ** -2)

    # Interior solution: already within budget at mu = 0.
    if power(0.0) <= total_power:
        return solve(0.0)

    target = total_power ** -0.5
    psi = {}  # psi(mu) = power(mu)**-1/2 at every probed mu

    def probe(mu):
        """Narrow the bracket with a probe at ``mu``, if ``mu`` lies inside it."""
        nonlocal lo, hi
        if lo < mu < hi:
            p = power(mu)
            psi[mu] = p**-0.5 if p > 0.0 else math.inf
            if p > total_power:
                lo = mu
            else:
                hi = mu

    lo, hi, mu = 0.0, math.inf, 1.0
    for _ in range(200):
        probe(mu)
        if hi < math.inf:
            break
        mu *= 2.0
    else:
        raise FloatingPointError(f"cannot bracket WMMSE power multiplier, mu={mu}")

    # psi is concave and increasing in mu, so a Newton step on psi from lo
    # stops short of the root and the secant through lo and hi overshoots it:
    # each round closes the bracket from both ends.  The Newton step is held
    # inside the final tolerance below hi, steps outside the bracket are
    # skipped, and a round that does not halve the bracket ends in bisection.
    # lo = 0 is never probed, so a round that starts there only bisects.
    for _ in range(400):
        width = hi - lo
        if width < inner_tol * max(1.0, hi):
            break
        if lo in psi:
            inv = 1.0 / (evals + lo)
            slope = float(c @ inv**3) * psi[lo] ** 3  # d psi / d mu at lo
            newton = lo + (target - psi[lo]) / slope
            probe(min(newton, hi - 0.5 * inner_tol * max(1.0, hi)))
            if psi[hi] > psi[lo]:
                probe(lo + (hi - lo) * (target - psi[lo]) / (psi[hi] - psi[lo]))
        if hi - lo > 0.5 * width:
            probe(0.5 * (lo + hi))
    return solve(hi)


def wmmse(
    H: np.ndarray,
    total_power: float,
    noise_power: float,
    init: np.ndarray | None = None,
    tol: float = 1e-5,
    max_iter: int = 200,
) -> tuple[np.ndarray, list[float]]:
    """Alternating WMMSE ascent on the sum rate of problem max sum log2(1+SINR).

    Returns the beamforming matrix and the per-iteration rate trace (which
    is non-decreasing up to numerical noise).  The final solution is scaled
    to use the full budget, which can only improve every device's SINR.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    H = np.asarray(H)
    k, _ = H.shape
    W = mrt(H, total_power) if init is None else np.array(init, dtype=complex)

    trace = [sum_rate(H, W, noise_power)]
    for _ in range(max_iter):
        hw = H.conj() @ W.T  # hw[k, j] = h_k^H w_j
        denom = np.sum(np.abs(hw) ** 2, axis=1) + noise_power
        u = np.conj(np.diag(hw)) / denom
        mse = 1.0 - u * np.diag(hw)
        lam = 1.0 / np.real(mse)
        W = _wmmse_w_update(H, lam, u, total_power)
        trace.append(sum_rate(H, W, noise_power))
        if abs(trace[-1] - trace[-2]) < tol:
            break

    power = float(np.sum(np.abs(W) ** 2))
    if power < total_power * (1.0 - 1e-12):
        W = W * np.sqrt(total_power / power)
        trace[-1] = max(trace[-1], sum_rate(H, W, noise_power))
    return W, trace
