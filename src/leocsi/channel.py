"""Time-correlated Rician LEO downlink channel generator.

The channel of a device is a Rician mix of one LOS path and ``L`` NLOS
paths.  All paths of a device share a common satellite Doppler shift;
device motion contributes an independent Doppler per path.  Path
parameters are drawn once per episode and held fixed, so an episode is a
deterministic function of (scenario, speeds, seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, ArrayGeometry, ScenarioConfig


@dataclass(frozen=True)
class DeviceChannelParams:
    """Per-episode propagation parameters of one device."""

    los_gain: complex            # unit modulus
    los_theta: float
    los_phi: float
    los_delay_s: float
    sat_doppler_hz: float        # shared by LOS and all NLOS paths
    dev_doppler_los_hz: float
    nlos_gains: np.ndarray       # [L] complex
    nlos_thetas: np.ndarray      # [L]
    nlos_phis: np.ndarray        # [L]
    nlos_excess_delays_s: np.ndarray  # [L], within the delay spread
    nlos_dev_dopplers_hz: np.ndarray  # [L]

    @property
    def num_paths(self) -> int:
        return len(self.nlos_gains)


@dataclass(frozen=True)
class CsiTensor:
    """Complex CSI over ``[slots, devices, antennas]``; ``origin_slot`` is
    the absolute index of its first slot."""

    data: np.ndarray
    origin_slot: int = 0

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError("CSI tensor must be [slots, devices, antennas]")
        if min(self.data.shape) < 1:
            raise ValueError("CSI tensor dimensions must be positive")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("CSI tensor contains NaN/Inf")

    @property
    def num_slots(self) -> int:
        return self.data.shape[0]

    @property
    def num_devices(self) -> int:
        return self.data.shape[1]

    @property
    def num_antennas(self) -> int:
        return self.data.shape[2]


def array_response(theta, phi, geometry: ArrayGeometry) -> np.ndarray:
    """UPA steering vectors, unit norm, x-index on the outer Kronecker factor.

    ``theta`` and ``phi`` are scalars or arrays of one shape ``S``; the
    result is ``[*S, N]``, one steering vector per angle pair.
    """
    d_over_lambda = geometry.spacing / geometry.wavelength
    theta = np.asarray(theta, dtype=float)[..., None]
    phi = np.asarray(phi, dtype=float)[..., None]
    nx = np.arange(geometry.n_x)
    ny = np.arange(geometry.n_y)
    ax = np.exp(-2j * np.pi * d_over_lambda * np.sin(theta) * np.sin(phi) * nx)  # [*S, n_x]
    ay = np.exp(-2j * np.pi * d_over_lambda * np.cos(phi) * ny)  # [*S, n_y]
    steer = (ax[..., :, None] * ay[..., None, :]).reshape(theta.shape[:-1] + (-1,))
    return steer / np.sqrt(geometry.num_antennas)


def los_component(
    t: float, f: float, params: DeviceChannelParams, geometry: ArrayGeometry
) -> np.ndarray:
    """Deterministic LOS term at time ``t`` and frequency ``f``."""
    doppler = params.sat_doppler_hz + params.dev_doppler_los_hz
    phase = np.exp(2j * np.pi * (t * doppler - f * params.los_delay_s))
    return params.los_gain * phase * array_response(params.los_theta, params.los_phi, geometry)


def nlos_component(
    t: float, f: float, params: DeviceChannelParams, geometry: ArrayGeometry
) -> np.ndarray:
    """Diffuse sum over the NLOS paths, normalized by sqrt(L)."""
    L = params.num_paths
    if L < 1:
        raise ValueError("at least one NLOS path is required")
    dopplers = params.sat_doppler_hz + params.nlos_dev_dopplers_hz
    delays = params.nlos_excess_delays_s + params.los_delay_s
    phases = np.exp(2j * np.pi * (t * dopplers - f * delays))  # [L]
    steer = array_response(params.nlos_thetas, params.nlos_phis, geometry)  # [L, N]
    return (params.nlos_gains * phases) @ steer / np.sqrt(L)


def channel_at(
    t: float,
    f: float,
    params: DeviceChannelParams,
    geometry: ArrayGeometry,
    kappa: float,
) -> np.ndarray:
    """Rician combination of the LOS and NLOS components (``kappa`` linear)."""
    if kappa < 0:
        raise ValueError("Rician factor must be non-negative")
    w_los = np.sqrt(kappa / (kappa + 1.0))
    w_nlos = np.sqrt(1.0 / (kappa + 1.0))
    return w_los * los_component(t, f, params, geometry) + w_nlos * nlos_component(
        t, f, params, geometry
    )


def sample_device_params(
    config: ScenarioConfig, device_speed_mps: float, rng_seed: int
) -> DeviceChannelParams:
    """Draw one device's episode-constant propagation parameters.

    Satellite Doppler is (v_sat/c)*f_c*cos(beta) with beta uniform in the
    configured cone; device Doppler is magnitude-correct per path.
    """
    if device_speed_mps < 0:
        raise ValueError("device speed must be non-negative")
    rng = np.random.default_rng(rng_seed)
    L = config.num_paths

    los_theta = rng.uniform(*config.los_theta_range)
    los_phi = rng.uniform(*config.los_phi_range)
    los_gain = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    los_delay = config.altitude_m / SPEED_OF_LIGHT

    beta = rng.uniform(0.0, config.sat_doppler_cone)
    sat_doppler = (config.sat_speed_mps / SPEED_OF_LIGHT) * config.carrier_hz * np.cos(beta)
    if config.compensate_sat_doppler:
        r = config.sat_doppler_residual_hz
        sat_doppler = rng.uniform(-r, r) if r > 0 else 0.0

    dev_scale = (device_speed_mps / SPEED_OF_LIGHT) * config.carrier_hz
    dev_doppler_los = dev_scale * np.cos(rng.uniform(0.0, 2 * np.pi))
    dev_dopplers = dev_scale * np.cos(rng.uniform(0.0, 2 * np.pi, size=L))

    off = config.nlos_angle_offset
    nlos_thetas = los_theta + rng.uniform(-off, off, size=L)
    nlos_phis = los_phi + rng.uniform(-off, off, size=L)
    nlos_gains = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
    excess_delays = rng.uniform(0.0, config.max_delay_spread_s, size=L)

    return DeviceChannelParams(
        los_gain=los_gain,
        los_theta=los_theta,
        los_phi=los_phi,
        los_delay_s=los_delay,
        sat_doppler_hz=float(sat_doppler),
        dev_doppler_los_hz=float(dev_doppler_los),
        nlos_gains=nlos_gains,
        nlos_thetas=nlos_thetas,
        nlos_phis=nlos_phis,
        nlos_excess_delays_s=excess_delays,
        nlos_dev_dopplers_hz=dev_dopplers,
    )


def _path_table(params: DeviceChannelParams, w_los: float, w_nlos: float):
    """Angles, Dopplers, delays and weighted gains of the LOS path, then the NLOS paths.

    Each entry is ``[L+1]``.  ``w_los``/``w_nlos`` are the Rician weights; the
    NLOS weight already carries the 1/sqrt(L) normalization.
    """
    return (
        np.append(params.los_theta, params.nlos_thetas),
        np.append(params.los_phi, params.nlos_phis),
        params.sat_doppler_hz + np.append(params.dev_doppler_los_hz, params.nlos_dev_dopplers_hz),
        np.append(params.los_delay_s, params.nlos_excess_delays_s + params.los_delay_s),
        np.append(w_los * params.los_gain, w_nlos * params.nlos_gains),
    )


def generate_episode(
    config: ScenarioConfig,
    device_speeds: np.ndarray,
    total_slots: int,
    rng_seed: int,
) -> CsiTensor:
    """Generate ``[T, K, N]`` narrowband CSI at the carrier frequency.

    Each device gets one parameter draw held fixed across all slots; the
    per-device sub-seed is derived from (seed, device index) so episodes are
    reproducible regardless of evaluation order.

    The episode is formed whole-array rather than slot by slot: the
    ``[K, L+1, N]`` LOS and NLOS steering vectors are computed once, and
    device k's channel is ``(g_k * exp(2j*pi*(t*f_D - f_c*tau)))[T, L+1] @
    steer_k[L+1, N]``, with ``g_k`` the Rician-weighted path gains.  It agrees
    with stacking ``channel_at`` per slot up to floating-point rounding.
    """
    device_speeds = np.asarray(device_speeds, dtype=float)
    if total_slots < 1:
        raise ValueError("total_slots must be >= 1")
    if len(device_speeds) != config.num_devices:
        raise ValueError("one speed per device is required")

    kappa = config.rician_linear
    w_los = np.sqrt(kappa / (kappa + 1.0))
    w_nlos = np.sqrt(1.0 / (kappa + 1.0)) / np.sqrt(config.num_paths)
    # A finite scenario can still overflow (say a carrier of 1e-300 Hz); that
    # is reported once, below, instead of as numpy warnings on the way.
    with np.errstate(all="ignore"):
        tables = []
        for k, speed in enumerate(device_speeds):
            sub_seed = np.random.SeedSequence([rng_seed, k]).generate_state(1)[0]
            params = sample_device_params(config, speed, int(sub_seed))
            tables.append(_path_table(params, w_los, w_nlos))
        thetas, phis, dopplers, delays, gains = (np.stack(col) for col in zip(*tables))  # [K, L+1]

        steer = array_response(thetas, phis, config.geometry)  # [K, L+1, N]
        t = np.arange(total_slots)[:, None, None] * config.slot_interval_s  # [T, 1, 1]
        phase = np.exp(2j * np.pi * (t * dopplers - config.carrier_hz * delays))  # [T, K, L+1]
        data = np.matmul((gains * phase).transpose(1, 0, 2), steer)  # [K, T, N]
    if not np.all(np.isfinite(data)):
        raise FloatingPointError("the scenario gives non-finite CSI")
    return CsiTensor(np.ascontiguousarray(data.transpose(1, 0, 2)))
