"""Metrics, baselines, and sweep runners."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leocsi.beamform import sum_rate, zero_forcing
from leocsi.channel import CsiTensor
from leocsi.config import desk_scenario
from leocsi.dataset import SampleRecord, build_dataset
from leocsi.evaluation import (
    BASELINES,
    EVAL_CHUNK,
    ExperimentResult,
    ar_baseline,
    eval_nmse,
    eval_sum_rate,
    mrt_outdated,
    nmse_linear,
    nmse_metric,
    persistence_baseline,
    snr_sweep,
    velocity_sweep,
    wmmse_perfect,
)
from leocsi.models import Model, desk_model_config


def test_nmse_linear_known_value():
    truth = np.ones((2, 1, 2), dtype=complex)
    pred = np.zeros_like(truth)
    assert nmse_linear(pred, truth) == 1.0
    assert nmse_linear(truth * 0.5, truth) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        nmse_linear(pred, np.zeros_like(truth))
    with pytest.raises(ValueError):
        nmse_linear(pred[:1], truth)


def test_nmse_metric_linear_average_then_db():
    truth = np.ones((1, 1, 1), dtype=complex)
    preds = [truth * 0.0, truth]  # NMSE 1.0 and 0.0 -> mean 0.5
    assert nmse_metric(preds, [truth, truth]) == pytest.approx(10 * np.log10(0.5))


def test_nmse_metric_perfect_is_floor_sentinel():
    truth = np.ones((2, 1, 1), dtype=complex)
    assert nmse_metric([truth], [truth]) == float("-inf")


def test_persistence_repeats_last_slot():
    past = np.arange(12, dtype=complex).reshape(3, 2, 2)
    out = persistence_baseline(past, 4)
    assert out.shape == (4, 2, 2)
    for t in range(4):
        assert np.array_equal(out[t], past[-1])


def test_ar1_exact_on_pure_cisoid():
    # h(t) = a * exp(j w t): an order-1 recurrence reproduces it exactly.
    t = np.arange(10)
    series = (0.7 + 0.2j) * np.exp(1j * 0.9 * t)
    past = series[:8].reshape(8, 1, 1)
    pred = ar_baseline(past, 2, order=1)
    expect = series[8:10].reshape(2, 1, 1)
    assert np.allclose(pred, expect, atol=1e-8)


def test_ar_baseline_order_validation():
    past = np.ones((3, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        ar_baseline(past, 1, order=3)


def test_baseline_registry():
    assert set(BASELINES) == {"persistence", "ar1", "ar2"}
    past = np.random.default_rng(0).standard_normal((6, 2, 2)) + 0j
    for fn in BASELINES.values():
        assert fn(past[None], 3).shape == (1, 3, 2, 2)


@pytest.fixture(scope="module")
def small_eval_set():
    scen = desk_scenario()
    _, records = build_dataset(scen, 20, "test", 8, 2, seed=4)
    return records


def test_eval_nmse_runs(small_eval_set):
    value = eval_nmse(BASELINES["persistence"], small_eval_set)
    assert np.isfinite(value)


def test_velocity_sweep_structure(small_eval_set, tmp_path):
    result = velocity_sweep({"persistence": BASELINES["persistence"]}, small_eval_set)
    assert len(result.points) == 10  # the ten discrete evaluation speeds
    assert len(result.values["persistence"]) == 10
    result.write_csv(str(tmp_path / "s.csv"))
    result.write_json(str(tmp_path / "s.json"))
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["metric"] == "nmse_db"
    lines = (tmp_path / "s.csv").read_text().strip().splitlines()
    assert lines[0] == "label,sweep_var,value,metric,seed"
    assert len(lines) == 11


def test_snr_sweep_structure(small_eval_set):
    result = snr_sweep(
        {"persistence": BASELINES["persistence"]}, small_eval_set, [0.0, 30.0]
    )
    vals = result.values["persistence"]
    assert len(vals) == 2
    # Far more measurement noise should not make persistence look better.
    assert vals[0] >= vals[1]


def test_mrt_outdated_shape(small_eval_set):
    rec = small_eval_set[0]
    w = mrt_outdated(rec.past.data, rec.future.data.shape, total_power=1.0)
    assert w.shape == rec.future.data.shape
    assert np.allclose(np.sum(np.abs(w) ** 2, axis=(1, 2)), 1.0, atol=1e-9)


def test_wmmse_perfect_shape(small_eval_set):
    rec = small_eval_set[0]
    w = wmmse_perfect(rec.future.data, total_power=1.0, noise_power=0.1)
    assert w.shape == rec.future.data.shape
    assert np.allclose(np.sum(np.abs(w) ** 2, axis=(1, 2)), 1.0, atol=1e-6)


def test_experiment_result_accumulates():
    res = ExperimentResult("x", "nmse_db", seed=1, points=[1.0, 2.0])
    res.add("a", 0.1)
    res.add("a", 0.2)
    assert res.values == {"a": [0.1, 0.2]}


def _ar_lstsq_reference(past, t_f, order):
    """Per-series least squares and rollout, one (device, antenna) entry at a time."""
    t_p = past.shape[0]
    preds = np.empty((t_f,) + past.shape[1:], dtype=complex)
    for idx in np.ndindex(*past.shape[1:]):
        series = past[(slice(None),) + idx]
        X = np.stack([series[i : i + order] for i in range(t_p - order)])
        coef = np.linalg.lstsq(X, series[order:], rcond=None)[0]
        window = list(series[-order:])
        for t in range(t_f):
            preds[(t,) + idx] = np.dot(coef, window)
            window = window[1:] + [preds[(t,) + idx]]
    return preds


@given(
    seed=st.integers(0, 10_000),
    order=st.sampled_from([1, 2]),
    t_p=st.integers(4, 16),
    t_f=st.integers(1, 4),
    k=st.integers(1, 3),
    n=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_batched_ar_matches_lstsq_reference(seed, order, t_p, t_f, k, n):
    rng = np.random.default_rng(seed)
    past = rng.standard_normal((t_p, k, n)) + 1j * rng.standard_normal((t_p, k, n))
    got = ar_baseline(past, t_f, order=order)
    ref = _ar_lstsq_reference(past, t_f, order)
    assert got.shape == (t_f, k, n)
    assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, float(np.max(np.abs(ref))))


def test_ar_singular_gram_warns_once_and_stays_finite():
    # A constant series makes the order-2 normal equations singular; the
    # well-conditioned series beside it must keep its exact fit.
    t = np.arange(10)
    past = np.empty((10, 1, 2), dtype=complex)
    past[:, 0, 0] = 1.5 - 0.5j
    past[:, 0, 1] = np.exp(1j * 0.4 * t) + 0.5 * np.exp(-1j * 1.1 * t)
    with pytest.warns(UserWarning, match="ridge fallback") as record:
        pred = ar_baseline(past[:8], 2, order=2)
    assert len(record) == 1
    assert np.all(np.isfinite(pred))
    assert np.allclose(pred[:, 0, 0], 1.5 - 0.5j, atol=1e-5)
    assert np.allclose(pred[:, 0, 1], past[8:, 0, 1], atol=1e-8)


def test_batched_evaluation_matches_per_record_loops():
    # More samples than one chunk, so the chunk boundary is crossed.
    scen = desk_scenario()
    cfg = desk_model_config()
    _, data = build_dataset(scen, EVAL_CHUNK + 6, "test", cfg.t_p, cfg.t_f, seed=6)

    cp = Model(cfg, seed=3)
    per_record = nmse_metric([cp.predict(rec.past) for rec in data],
                             [rec.future.data for rec in data])
    batched = eval_nmse(lambda p, _tf: cp.predict_batch(p), data)
    assert abs(batched - per_record) <= 1e-12 * abs(per_record)

    bf = Model(desk_model_config(head="bf", total_power=scen.total_power), seed=3)
    p_t, sigma2 = scen.total_power, scen.noise_power
    rates = {"model": [], "mrt_outdated": [], "zf_outdated": [], "wmmse_perfect": []}
    for rec in data:
        past, future = rec.past.data, rec.future.data
        w_model = bf.predict(rec.past)
        w_mrt = mrt_outdated(past, future.shape, p_t)
        w_opt = wmmse_perfect(future, p_t, sigma2)
        for t in range(rec.future.num_slots):
            h = future[t]
            rates["model"].append(sum_rate(h, w_model[t], sigma2))
            rates["mrt_outdated"].append(sum_rate(h, w_mrt[t], sigma2))
            rates["zf_outdated"].append(sum_rate(h, zero_forcing(past[-1], p_t), sigma2))
            rates["wmmse_perfect"].append(sum_rate(h, w_opt[t], sigma2))
    got = eval_sum_rate(bf, data, p_t, sigma2)
    assert set(got) == set(rates)
    for label, values in rates.items():
        assert abs(got[label] - np.mean(values)) <= 1e-12 * np.mean(values), label
