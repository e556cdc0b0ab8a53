"""Metrics, classical prediction baselines, and sweep runners.

NMSE is aggregated in the linear domain over the test set before the dB
conversion.  A perfect prediction yields the ``-inf`` dB sentinel (linear
zero); it is never reported as a finite number.
"""
from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beamform import mrt, sum_rate, wmmse
from .dataset import SampleRecord, add_estimation_noise
from .channel import CsiTensor


def nmse_linear(pred: np.ndarray, truth: np.ndarray) -> float:
    """Sum ||H - H_hat||^2 over slots divided by sum ||H||^2 (one sample)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    denom = float(np.sum(np.abs(truth) ** 2))
    if denom == 0:
        raise ValueError("zero-norm truth")
    return float(np.sum(np.abs(truth - pred) ** 2)) / denom


def nmse_metric(preds, truths) -> float:
    """Test-set NMSE in dB: linear average over samples, then 10*log10.

    Returns ``-inf`` as a sentinel for a perfect prediction.
    """
    values = [nmse_linear(p, t) for p, t in zip(preds, truths)]
    mean = float(np.mean(values))
    if mean == 0.0:
        return float("-inf")
    return 10.0 * np.log10(mean)


# -- baselines ----------------------------------------------------------

def persistence_baseline(past: np.ndarray, t_f: int) -> np.ndarray:
    """Repeat the most recent observed CSI for every future slot."""
    past = np.asarray(past)
    if past.shape[0] < 1:
        raise ValueError("history must contain at least one slot")
    return np.repeat(past[-1][None], t_f, axis=0)


def ar_baseline(past: np.ndarray, t_f: int, order: int = 1) -> np.ndarray:
    """Per-entry order-p autoregressive extrapolation of the history.

    Each (device, antenna) complex series gets a least-squares fit of an
    order-p linear recurrence, rolled forward ``t_f`` steps.  Singular
    normal equations fall back to ridge regression with a warning.

    All K*N series are fitted at once: they are stacked into ``[M, t_p]``,
    their sliding windows give ``[M, t_p - p, p]`` regressors, and the
    ``[M, p, p]`` normal equations are checked and solved as one batch.
    Only the ill-conditioned rows take the ridge fallback, with one warning
    per call.
    """
    past = np.asarray(past)
    t_p = past.shape[0]
    if t_p <= order:
        raise ValueError("history must be longer than the AR order")
    series = past.reshape(t_p, -1).T  # [M, t_p]
    X = sliding_window_view(series, order, axis=1)[:, :-1]  # [M, t_p - p, p]
    y = series[:, order:, None]  # [M, t_p - p, 1]
    Xh = X.conj().transpose(0, 2, 1)
    gram = Xh @ X  # [M, p, p]
    rhs = Xh @ y  # [M, p, 1]
    bad = ~(np.linalg.cond(gram) <= 1e12)
    if np.any(bad):
        warnings.warn("singular AR normal equations; using ridge fallback")
        gram[bad] += 1e-6 * np.eye(order)
    coef = np.linalg.solve(gram, rhs)[..., 0]  # [M, p]

    window = series[:, -order:]
    preds = np.empty((t_f, series.shape[0]), dtype=complex)
    for t in range(t_f):
        preds[t] = np.sum(coef * window, axis=1)
        window = np.concatenate([window[:, 1:], preds[t][:, None]], axis=1)
    return preds.reshape((t_f,) + past.shape[1:])


BASELINES = {
    "persistence": lambda past, t_f: persistence_baseline(past, t_f),
    "ar1": lambda past, t_f: ar_baseline(past, t_f, order=1),
    "ar2": lambda past, t_f: ar_baseline(past, t_f, order=2),
}


# -- sweeps -------------------------------------------------------------

@dataclass
class ExperimentResult:
    sweep_var: str
    metric: str  # "nmse_db" or "sum_rate"
    seed: int
    points: list[float] = field(default_factory=list)
    # label -> one metric value per sweep point
    values: dict[str, list[float]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def add(self, label: str, value: float):
        self.values.setdefault(label, []).append(value)

    def write_csv(self, path: str):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "sweep_var", "value", "metric", "seed"])
            for label, vals in sorted(self.values.items()):
                for point, val in zip(self.points, vals):
                    writer.writerow([label, point, val, self.metric, self.seed])

    def write_json(self, path: str):
        doc = {
            "sweep_var": self.sweep_var,
            "metric": self.metric,
            "seed": self.seed,
            "points": self.points,
            "values": self.values,
            "config": self.config,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)


def _predict_all(predictor, records: list[SampleRecord], t_f: int) -> list[np.ndarray]:
    return [predictor(rec.past.data, t_f) for rec in records]


def eval_nmse(predictor, records: list[SampleRecord]) -> float:
    """NMSE (dB) of a predictor callable over test records."""
    t_f = records[0].future.num_slots
    preds = _predict_all(predictor, records, t_f)
    truths = [rec.future.data for rec in records]
    return nmse_metric(preds, truths)


def velocity_sweep(predictors: dict, records: list[SampleRecord], seed: int = 0) -> ExperimentResult:
    """Per-velocity NMSE using the speed labels baked into the test set."""
    speeds = sorted({round(float(r.device_speed_mps[0]), 6) for r in records})
    result = ExperimentResult("device_speed_mps", "nmse_db", seed, points=list(speeds))
    for label, predictor in predictors.items():
        for speed in speeds:
            subset = [r for r in records if round(float(r.device_speed_mps[0]), 6) == speed]
            result.add(label, eval_nmse(predictor, subset))
    return result


def snr_sweep(
    predictors: dict,
    clean_records: list[SampleRecord],
    snrs_db: list[float],
    seed: int = 0,
) -> ExperimentResult:
    """Re-noise clean histories at each SNR; the models are not retrained."""
    result = ExperimentResult("snr_db", "nmse_db", seed, points=list(snrs_db))
    for label, predictor in predictors.items():
        for i, snr in enumerate(snrs_db):
            noisy = [
                SampleRecord(
                    past=add_estimation_noise(r.past, snr, seed + 1000 * i + j),
                    future=r.future,
                    device_speed_mps=r.device_speed_mps,
                    noise_snr_db=snr,
                    future_noised=False,
                )
                for j, r in enumerate(clean_records)
            ]
            result.add(label, eval_nmse(predictor, noisy))
    return result


def history_sweep(
    predictors: dict, records: list[SampleRecord], lengths: list[int], seed: int = 0
) -> ExperimentResult:
    """NMSE vs history length; histories are truncated to the newest slots."""
    result = ExperimentResult("t_p", "nmse_db", seed, points=[float(v) for v in lengths])
    t_f = records[0].future.num_slots
    for label, predictor in predictors.items():
        for t_p in lengths:
            preds, truths = [], []
            for rec in records:
                if rec.past.num_slots < t_p:
                    raise ValueError(f"records too short for t_p={t_p}")
                preds.append(predictor(rec.past.data[-t_p:], t_f))
                truths.append(rec.future.data)
            result.add(label, nmse_metric(preds, truths))
    return result


def power_sweep(
    beamformers: dict,
    records: list[SampleRecord],
    powers: list[float],
    noise_power: float,
    seed: int = 0,
) -> ExperimentResult:
    """Mean per-slot sum rate vs transmit power, evaluated on true future CSI.

    Each beamformer is a callable (past, future_shape, total_power) ->
    complex [t_f, K, N].
    """
    result = ExperimentResult("total_power", "sum_rate", seed, points=list(powers))
    for label, bf in beamformers.items():
        for p_t in powers:
            rates = []
            for rec in records:
                w = bf(rec.past.data, rec.future.data.shape, p_t)
                for t in range(rec.future.num_slots):
                    rates.append(sum_rate(rec.future.data[t], w[t], noise_power))
            result.add(label, float(np.mean(rates)))
    return result


def device_count_sweep(
    beamformer_factory,
    datasets: dict[int, list[SampleRecord]],
    noise_power: float,
    total_power: float,
    seed: int = 0,
) -> ExperimentResult:
    """Sum rate vs device count over per-K test datasets."""
    counts = sorted(datasets)
    result = ExperimentResult("num_devices", "sum_rate", seed, points=[float(c) for c in counts])
    for k in counts:
        records = datasets[k]
        bfs = beamformer_factory(k)
        for label, bf in bfs.items():
            rates = []
            for rec in records:
                w = bf(rec.past.data, rec.future.data.shape, total_power)
                for t in range(rec.future.num_slots):
                    rates.append(sum_rate(rec.future.data[t], w[t], noise_power))
            result.add(label, float(np.mean(rates)))
    return result


def horizon_sweep(
    parallel_model,
    ar_model,
    records: list[SampleRecord],
    seed: int = 0,
) -> ExperimentResult:
    """Per-slot NMSE of parallel vs autoregressive decoding."""
    t_f = records[0].future.num_slots
    result = ExperimentResult("horizon_slot", "nmse_db", seed, points=[float(t + 1) for t in range(t_f)])
    par = [parallel_model.predict(rec.past) for rec in records]
    aro = [ar_model.predict_autoregressive(rec.past, t_f) for rec in records]
    for label, preds in (("parallel", par), ("autoregressive", aro)):
        for t in range(t_f):
            result.add(
                label,
                nmse_metric(
                    [p[t][None] for p in preds],
                    [rec.future.data[t][None] for rec in records],
                ),
            )
    return result


def mrt_outdated(past: np.ndarray, future_shape, total_power: float) -> np.ndarray:
    """MRT computed from the newest (outdated) history slot, reused per slot."""
    t_f = future_shape[0]
    w = mrt(past[-1], total_power)
    return np.repeat(w[None], t_f, axis=0)


def wmmse_perfect(future: np.ndarray, total_power: float, noise_power: float) -> np.ndarray:
    """Per-slot WMMSE on true future CSI (performance upper reference)."""
    return np.stack(
        [wmmse(future[t], total_power, noise_power)[0] for t in range(future.shape[0])]
    )
