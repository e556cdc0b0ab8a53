"""Link-quality math and classical downlink beamformers.

Channels and beamformers are row-stacked: ``H[k]`` is device k's channel,
``W[k]`` its transmit beamformer.  All solvers emit solutions using the
full power budget.
"""
from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def sinr(H: np.ndarray, W: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-device SINR: |h_k^H w_k|^2 / (sum_{j!=k} |h_k^H w_j|^2 + sigma^2)."""
    H = np.asarray(H)
    W = np.asarray(W)
    if H.shape != W.shape:
        raise ValueError("H and W must both be [K, N]")
    cross = np.abs(H.conj() @ W.T) ** 2  # cross[k, j] = |h_k^H w_j|^2
    signal = cross.diagonal()
    interference = cross.sum(axis=1) - signal
    return signal / (interference + noise_power)


def sum_rate(H: np.ndarray, W: np.ndarray, noise_power: float) -> float:
    """Achievable sum rate in bits/s/Hz."""
    return float(np.log2(1.0 + sinr(H, W, noise_power)).sum())


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


def _wmmse_w_update(H, gram, lam, u, total_power, mu=None, inner_tol=1e-13):
    """Weighted-MMSE transmit update with a safeguarded search on the power multiplier.

    Returns ``(W, mu)`` with ``W = B (conj(A) + mu I)^-1``, where
    ``A = sum_k lam_k |u_k|^2 h_k h_k^H`` and ``B = diag(lam conj(u)) H``.  By
    the push-through identity this is ``diag(beta/s) (S G S + mu I)^-1 S H``
    with ``S = diag(s)``, ``s = sqrt(lam) |u|``, ``beta = lam conj(u)`` and
    ``G = H H^H`` (``gram``), so only a K x K matrix is diagonalized and W
    lies in the row span of H.  Eigen-directions at or below
    ``matrix_rank``'s default tolerance hold rounding noise and are dropped.
    A device with ``u_k = 0`` has weight 0 and a zero row.

    The search starts from ``mu`` (the previous multiplier, if any) and keeps
    a bracket ``lo < mu <= hi`` with ``power(lo) > total_power >=
    power(hi)``.  The returned beamformer is the solution at ``hi``, once the
    bracket is narrower than ``inner_tol * max(1, hi)``, so its power never
    exceeds ``total_power``.
    """
    r, a = np.sqrt(lam), np.abs(u)
    s = r * a
    evals, V = np.linalg.eigh(gram * (s[:, None] * s))
    # eigh sorts evals ascending, so the mask copies only when it drops one.
    floor = evals[-1] * len(s) * _EPS
    if evals[0] <= floor:
        keep = evals > floor
        evals, V = evals[keep], V[:, keep]
    # diag(beta/s) V with beta/s = sqrt(lam) conj(u)/|u|, and about 0 where
    # |u| is 0 or subnormal (dividing by a subnormal overflows).
    # (np.sign of a complex number is z/|z| only from numpy 2.0 on.)
    Y = (r * np.conj(u) / np.where(a >= _TINY, a, 1.0))[:, None] * V
    M = V.conj().T @ (s[:, None] * H)  # orthogonal rows with squared norms evals
    # W(mu) = Y (evals + mu)^-1 M, so power(mu) = sum_i c_i / (evals_i + mu)^2.
    # The K terms are summed in Python floats: at this size one numpy call
    # costs more than the whole sum.
    terms = list(zip(evals.tolist(), (evals * (np.abs(Y) ** 2).sum(axis=0)).tolist()))

    def solve(mu):
        return (Y / (evals + mu)) @ M

    # Interior solution: already within budget at mu = 0.
    if sum(ci / e / e for e, ci in terms) <= total_power:
        return solve(0.0), 0.0

    target = total_power ** -0.5

    def probe(mu):
        """Narrow the bracket with the power at ``mu``; return the Newton
        point on psi(mu) = power(mu)**-1/2 from ``mu``."""
        nonlocal lo, hi
        p = slope = 0.0  # power(mu) and -power'(mu) / 2
        for e, ci in terms:
            inv = 1.0 / (e + mu)
            t = ci * inv * inv
            p += t
            slope += t * inv
        if p > total_power:
            lo = mu
        else:
            hi = mu
        if p <= 0.0:
            return math.nan
        psi = p**-0.5
        return mu + (target - psi) / (slope * psi**3)

    # psi is concave and increasing in mu, so one Newton step from either
    # side of the root lands at or below it, and from there the Newton
    # iterates climb to it monotonically.  Once a step is shorter than half
    # the tolerance, the point just probed is the root up to rounding, and
    # one probe half the tolerance across it closes the bracket.  A point
    # outside the bracket (or NaN), or a converged step from a closing probe
    # that fell short, is replaced by bisection, or by doubling while no hi
    # is known.  Every probe lies inside the bracket; lo = 0 is never probed.
    lo, hi, x, closing = 0.0, math.inf, mu or 1.0, None
    for _ in range(400):
        step = probe(x) - x
        if hi - lo < inner_tol * max(1.0, hi):
            break
        half = 0.5 * inner_tol * max(1.0, x)
        if abs(step) < half:
            step = math.nan if x == closing else half if x == lo else -half
            closing = x + step
        x += step
        if not lo < x < hi:
            x = 2.0 * max(lo, 1.0) if hi == math.inf else 0.5 * (lo + hi)
    if hi == math.inf:
        raise FloatingPointError(f"cannot bracket WMMSE power multiplier, mu={x}")
    return solve(hi), hi


def wmmse(
    H: np.ndarray,
    total_power: float,
    noise_power: float,
    tol: float = 1e-5,
    max_iter: int = 200,
) -> tuple[np.ndarray, list[float]]:
    """Alternating WMMSE ascent on the sum rate of problem max sum log2(1+SINR).

    Starts from MRT.  Returns the beamforming matrix and the per-iteration
    rate trace (which is non-decreasing up to numerical noise).  The final
    solution is scaled to use the full budget, which can only improve every
    device's SINR.
    """
    if not tol > 0:  # NaN too, which would run max_iter iterations
        raise ValueError("tol must be positive")
    for name, value in (("total_power", total_power), ("noise_power", noise_power)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    H = np.asarray(H)
    W = mrt(H, total_power)
    Hc = H.conj()
    gram = H @ Hc.T
    mu = None

    trace = [sum_rate(H, W, noise_power)]
    for _ in range(max_iter):
        hw = Hc @ W.T  # hw[k, j] = h_k^H w_j
        d = hw.diagonal()
        denom = (np.abs(hw) ** 2).sum(axis=1) + noise_power
        u = np.conj(d) / denom
        mse = 1.0 - u * d
        lam = 1.0 / np.real(mse)
        W, mu = _wmmse_w_update(H, gram, lam, u, total_power, mu)
        trace.append(sum_rate(H, W, noise_power))
        if abs(trace[-1] - trace[-2]) < tol:
            break

    power = float(np.sum(np.abs(W) ** 2))
    if power < total_power * (1.0 - 1e-12):
        W = W * np.sqrt(total_power / power)
        trace[-1] = max(trace[-1], sum_rate(H, W, noise_power))
    return W, trace
