"""Correctness oracles computed apart from leocsi.

Each function here re-derives a quantity from its documented definition
with plain numpy, so the benchmark can compare the program's outputs
against an independent computation instead of stored copies of earlier
output.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np


class Checks:
    """Collects named pass/fail results; a run is correct when none failed."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def require(self, ok, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return not self.failures


def rel_close(a, b, rel: float) -> bool:
    """Max-norm relative agreement: ``max|a-b| <= rel * max(|a|, |b|)``."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return bool(np.all(np.isfinite(a)) and np.all(np.isfinite(b))
                and np.max(np.abs(a - b)) <= rel * scale)


# -- prediction metrics ---------------------------------------------------

def nmse_linear(preds, truths) -> np.ndarray:
    """Per-sample ||H - H_hat||_F^2 / ||H||_F^2 for stacked samples."""
    preds = np.asarray(preds)
    truths = np.asarray(truths)
    b = truths.shape[0]
    err = np.abs(truths - preds).reshape(b, -1) ** 2
    ref = np.abs(truths).reshape(b, -1) ** 2
    return err.sum(axis=1) / ref.sum(axis=1)


def nmse_db(preds, truths) -> float:
    """Test-set NMSE: linear mean over samples, then 10*log10."""
    return 10.0 * math.log10(float(np.mean(nmse_linear(preds, truths))))


def real_to_complex(real: np.ndarray) -> np.ndarray:
    """[..., 2, K, N] real/imag channels -> [..., K, N] complex."""
    return real[..., 0, :, :] + 1j * real[..., 1, :, :]


# -- link metrics ---------------------------------------------------------

def sinr(H: np.ndarray, W: np.ndarray, noise_power: float) -> np.ndarray:
    """|h_k^H w_k|^2 / (sum_{j != k} |h_k^H w_j|^2 + sigma^2), device by device."""
    k = H.shape[0]
    out = np.empty(k)
    for i in range(k):
        gains = np.array([abs(np.vdot(H[i], W[j])) ** 2 for j in range(k)])
        out[i] = gains[i] / (gains.sum() - gains[i] + noise_power)
    return out


def sum_rate(H: np.ndarray, W: np.ndarray, noise_power: float) -> float:
    return float(np.sum(np.log2(1.0 + sinr(H, W, noise_power))))


def mrt(H: np.ndarray, total_power: float) -> np.ndarray:
    """Equal-power maximum ratio transmission, w_k = sqrt(P/K) h_k / ||h_k||."""
    norms = np.sqrt(np.sum(np.abs(H) ** 2, axis=1, keepdims=True))
    return math.sqrt(total_power / H.shape[0]) * H / norms


def power(W: np.ndarray) -> float:
    return float(np.sum(np.abs(W) ** 2))


def interference_leak(H: np.ndarray, W: np.ndarray) -> float:
    """Largest cross gain |h_j^H w_k| (j != k) relative to the smallest own gain."""
    gains = np.abs(H.conj() @ W.T)
    own = np.diag(gains).copy()
    np.fill_diagonal(gains, 0.0)
    return float(gains.max() / own.min())


# -- parameters -----------------------------------------------------------

def backbone_digest(store) -> str:
    """SHA-256 over the sorted names and raw bytes of the ``backbone.*`` weights."""
    digest = hashlib.sha256()
    for name in sorted(n for n in store.names() if n.startswith("backbone.")):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(store[name].data).tobytes())
    return digest.hexdigest()


# -- channel model --------------------------------------------------------

def seed_state(*entropy: int) -> int:
    """First 32-bit word of ``SeedSequence(entropy)``: the simulator's sub-seed rule."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def steering(theta, phi, n_x: int, n_y: int, d_over_lambda: float) -> np.ndarray:
    """Unit-norm UPA responses, x index on the outer Kronecker factor; [..., N]."""
    theta = np.asarray(theta, dtype=float)[..., None, None]
    phi = np.asarray(phi, dtype=float)[..., None, None]
    ix = np.arange(n_x)[:, None]
    iy = np.arange(n_y)[None, :]
    phase = d_over_lambda * (np.sin(theta) * np.sin(phi) * ix + np.cos(phi) * iy)
    a = np.exp(-2j * np.pi * phase)
    return a.reshape(a.shape[:-2] + (n_x * n_y,)) / math.sqrt(n_x * n_y)


def rician_channel(params, scenario, slots: np.ndarray) -> np.ndarray:
    """One device's narrowband channel at slot indices ``slots``: [T, N].

    h(t) = sqrt(kappa/(kappa+1)) g_0 e^{j2pi(t(f_sat+f_0) - f_c tau_0)} a(theta_0, phi_0)
         + sqrt(1/(kappa+1)) / sqrt(L) sum_l g_l e^{j2pi(t(f_sat+f_l) - f_c(tau_0+tau_l))}
           a(theta_l, phi_l)
    """
    kappa = 10.0 ** (scenario.rician_db / 10.0)
    f_c = scenario.carrier_hz
    d_over_lambda = 0.5  # the scenario's arrays use half-wavelength spacing
    t = np.asarray(slots, dtype=float)[:, None] * scenario.slot_interval_s  # [T, 1]

    los_steer = steering(params.los_theta, params.los_phi,
                         scenario.n_x, scenario.n_y, d_over_lambda)  # [N]
    los_phase = np.exp(2j * np.pi * (t * (params.sat_doppler_hz + params.dev_doppler_los_hz)
                                     - f_c * params.los_delay_s))  # [T, 1]
    los = params.los_gain * los_phase * los_steer

    nlos_steer = steering(params.nlos_thetas, params.nlos_phis,
                          scenario.n_x, scenario.n_y, d_over_lambda)  # [L, N]
    delays = params.los_delay_s + params.nlos_excess_delays_s
    nlos_phase = np.exp(2j * np.pi * (t * (params.sat_doppler_hz + params.nlos_dev_dopplers_hz)
                                      - f_c * delays))  # [T, L]
    nlos = (params.nlos_gains * nlos_phase) @ nlos_steer / math.sqrt(len(params.nlos_gains))
    return math.sqrt(kappa / (kappa + 1.0)) * los + math.sqrt(1.0 / (kappa + 1.0)) * nlos


def float32_match(stored: np.ndarray, exact: np.ndarray) -> bool:
    """``stored`` is ``exact`` rounded to float32, component by component."""
    for a, b in ((stored.real, exact.real), (stored.imag, exact.imag)):
        if np.any(np.abs(a - b) > np.abs(b) * 2.0 ** -23 + 1e-12):
            return False
    return True


def mean_bound(values: np.ndarray, z: float = 6.0) -> float:
    """Half-width of a z-sigma interval on the mean of i.i.d. ``values``."""
    values = np.asarray(values, dtype=float)
    return z * float(np.std(values, ddof=1)) / math.sqrt(values.size)


# -- gradients ------------------------------------------------------------

FD_STEP = 1e-5    # central-difference step
FD_FLOOR = 1e-6   # gradients below this on both sides are not compared


def finite_difference_error(loss_of_leaves, store, entries: int = 2, rng_seed: int = 0) -> float:
    """Worst relative gap between backprop and central-difference gradients.

    ``entries`` randomly chosen entries of every trainable parameter are
    probed.  Entries where both gradients are below ``FD_FLOOR`` are
    skipped: their difference quotient is dominated by cancellation noise.
    """
    leaves = store.leaves()
    loss = loss_of_leaves(leaves)
    loss.backward()
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for name in store.trainable_names():
        flat = store[name].data.reshape(-1)
        grad = leaves[name].grad
        grad = np.zeros(flat.size) if grad is None else np.asarray(grad).reshape(-1)
        for i in rng.choice(flat.size, size=min(entries, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = float(loss_of_leaves(store.leaves()).data)
            flat[i] = orig - FD_STEP
            lo = float(loss_of_leaves(store.leaves()).data)
            flat[i] = orig
            fd = (hi - lo) / (2.0 * FD_STEP)
            a = float(grad[i])
            if abs(a) < FD_FLOOR and abs(fd) < FD_FLOOR:
                continue
            worst = max(worst, abs(a - fd) / (abs(a) + abs(fd) + 1e-12))
    return worst
