"""Channel generator physics: steering vectors, Rician mix, Doppler."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leocsi.config import SPEED_OF_LIGHT, ArrayGeometry, ScenarioConfig, desk_scenario
from leocsi.channel import (
    CsiTensor,
    array_response,
    channel_at,
    generate_episode,
    los_component,
    nlos_component,
    sample_device_params,
)

GEOM44 = ArrayGeometry(n_x=4, n_y=4, carrier_hz=5e9)


@given(
    theta=st.floats(-math.pi, math.pi, allow_nan=False),
    phi=st.floats(0.0, math.pi, allow_nan=False),
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
)
@settings(max_examples=200, deadline=None)
def test_steering_vector_unit_norm(theta, phi, nx, ny):
    geom = ArrayGeometry(n_x=nx, n_y=ny, carrier_hz=5e9)
    u = array_response(theta, phi, geom)
    assert u.shape == (nx * ny,)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12


def test_steering_vector_broadside_is_uniform():
    # sin(theta)=0 and cos(phi)=0 zero both phase ramps.
    u = array_response(0.0, math.pi / 2, GEOM44)
    assert np.allclose(u, np.full(16, 1 / 4.0), atol=1e-15)


def test_steering_vector_kronecker_structure():
    theta, phi = 0.7, 1.1
    u = array_response(theta, phi, GEOM44)
    d = GEOM44.spacing / GEOM44.wavelength
    ax = np.exp(-2j * np.pi * d * np.sin(theta) * np.sin(phi) * np.arange(4))
    ay = np.exp(-2j * np.pi * d * np.cos(phi) * np.arange(4))
    assert np.allclose(u, np.kron(ax, ay) / 4.0, atol=1e-12)


def test_los_component_unit_power():
    cfg = desk_scenario()
    params = sample_device_params(cfg, 10.0, rng_seed=3)
    h = los_component(1e-3, cfg.carrier_hz, params, cfg.geometry)
    assert abs(np.linalg.norm(h) ** 2 - 1.0) < 1e-12


def test_nlos_component_mean_unit_power():
    cfg = desk_scenario()
    powers = [
        np.linalg.norm(
            nlos_component(0.0, cfg.carrier_hz, sample_device_params(cfg, 10.0, s), cfg.geometry)
        )
        ** 2
        for s in range(4000)
    ]
    assert abs(np.mean(powers) - 1.0) < 0.05


def test_rician_mix_weights():
    cfg = desk_scenario()
    params = sample_device_params(cfg, 10.0, rng_seed=5)
    kappa = cfg.rician_linear
    geom = cfg.geometry
    t, f = 2e-3, cfg.carrier_hz
    expected = (
        math.sqrt(kappa / (kappa + 1)) * los_component(t, f, params, geom)
        + math.sqrt(1 / (kappa + 1)) * nlos_component(t, f, params, geom)
    )
    assert np.allclose(channel_at(t, f, params, geom, kappa), expected, atol=1e-15)


def test_zero_motion_episode_time_invariant():
    cfg = desk_scenario(sat_speed_mps=0.0, compensate_sat_doppler=False)
    ep = generate_episode(cfg, np.zeros(cfg.num_devices), 12, rng_seed=7)
    for t in range(1, 12):
        assert np.array_equal(ep.data[t], ep.data[0])


def test_satellite_doppler_bound_table_defaults():
    cfg = ScenarioConfig()  # 7500 m/s at 5 GHz
    bound = cfg.sat_speed_mps / SPEED_OF_LIGHT * cfg.carrier_hz
    assert bound == 125e3
    for seed in range(200):
        params = sample_device_params(cfg, 100 / 3.6, seed)
        assert abs(params.sat_doppler_hz) <= 125e3
        dev_bound = (100 / 3.6) / SPEED_OF_LIGHT * cfg.carrier_hz
        assert abs(params.dev_doppler_los_hz) <= dev_bound + 1e-9
        assert np.all(np.abs(params.nlos_dev_dopplers_hz) <= dev_bound + 1e-9)


def test_shared_satellite_doppler_across_paths():
    cfg = ScenarioConfig()
    params = sample_device_params(cfg, 20.0, rng_seed=11)
    # One scalar satellite Doppler is shared by the LOS and every NLOS path.
    assert np.isscalar(params.sat_doppler_hz) or np.ndim(params.sat_doppler_hz) == 0
    assert params.nlos_dev_dopplers_hz.shape == (cfg.num_paths,)


def test_episode_reproducible_and_shaped():
    cfg = desk_scenario()
    speeds = np.full(cfg.num_devices, 15.0)
    a = generate_episode(cfg, speeds, 10, rng_seed=42)
    b = generate_episode(cfg, speeds, 10, rng_seed=42)
    assert a.data.shape == (10, cfg.num_devices, cfg.num_antennas)
    assert np.array_equal(a.data, b.data)
    c = generate_episode(cfg, speeds, 10, rng_seed=43)
    assert not np.array_equal(a.data, c.data)


def test_residual_sat_doppler_bounded():
    cfg = desk_scenario()
    assert cfg.compensate_sat_doppler
    for seed in range(100):
        params = sample_device_params(cfg, 20.0, seed)
        assert abs(params.sat_doppler_hz) <= cfg.sat_doppler_residual_hz


def test_csi_tensor_validation():
    with pytest.raises(ValueError):
        CsiTensor(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        CsiTensor(np.full((2, 2, 2), np.nan))


def test_episode_input_validation():
    cfg = desk_scenario()
    with pytest.raises(ValueError):
        generate_episode(cfg, np.zeros(cfg.num_devices), 0, 0)
    with pytest.raises(ValueError):
        generate_episode(cfg, np.zeros(cfg.num_devices + 1), 4, 0)
    with pytest.raises(ValueError):
        sample_device_params(cfg, -1.0, 0)


@given(
    full=st.booleans(),
    compensate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    slots=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_episode_matches_per_slot_reference(full, compensate, seed, slots, data):
    base = ScenarioConfig() if full else desk_scenario()
    cfg = base.replace(compensate_sat_doppler=compensate, sat_doppler_residual_hz=300.0)
    speeds = np.array(
        data.draw(st.lists(st.floats(0.0, 60.0), min_size=cfg.num_devices,
                           max_size=cfg.num_devices))
    )
    ep = generate_episode(cfg, speeds, slots, rng_seed=seed)
    ref = np.empty_like(ep.data)
    for k, speed in enumerate(speeds):
        sub_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        params = sample_device_params(cfg, speed, sub_seed)
        ref[:, k] = np.stack([
            channel_at(t * cfg.slot_interval_s, cfg.carrier_hz, params, cfg.geometry,
                       cfg.rician_linear)
            for t in range(slots)
        ])
    assert np.max(np.abs(ep.data - ref)) < 1e-12
