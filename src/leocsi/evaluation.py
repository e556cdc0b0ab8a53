"""Metrics, classical prediction baselines, and sweep runners.

NMSE is aggregated in the linear domain over the test set before the dB
conversion.  A perfect prediction yields the ``-inf`` dB sentinel (linear
zero); it is never reported as a finite number.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beamform import mrt, sum_rate, wmmse, zero_forcing
from .dataset import Dataset, add_estimation_noise

EVAL_CHUNK = 64  # samples per predictor call in batched evaluation


def nmse_per_sample(preds, truths) -> np.ndarray:
    """[M] sums of ||H - H_hat||^2 over slots divided by sums of ||H||^2."""
    preds = np.asarray(preds)
    truths = np.asarray(truths)
    if preds.shape != truths.shape:
        raise ValueError("shape mismatch")
    m = truths.shape[0]
    denom = np.sum((np.abs(truths) ** 2).reshape(m, -1), axis=1)
    if np.any(denom == 0):
        raise ValueError("zero-norm truth")
    return np.sum((np.abs(truths - preds) ** 2).reshape(m, -1), axis=1) / denom


def nmse_linear(pred: np.ndarray, truth: np.ndarray) -> float:
    """Linear NMSE of one sample."""
    return float(nmse_per_sample(np.asarray(pred)[None], np.asarray(truth)[None])[0])


def nmse_metric(preds, truths) -> float:
    """Test-set NMSE in dB: linear average over samples, then 10*log10.

    Returns ``-inf`` as a sentinel for a perfect prediction.
    """
    mean = float(np.mean(nmse_per_sample(preds, truths)))
    if mean == 0.0:
        return float("-inf")
    return 10.0 * np.log10(mean)


# -- baselines ----------------------------------------------------------

def persistence_baseline(past: np.ndarray, t_f: int) -> np.ndarray:
    """Repeat the newest slot of ``[..., t_p, K, N]`` histories for every future slot."""
    past = np.asarray(past)
    if past.shape[-3] < 1:
        raise ValueError("history must contain at least one slot")
    return np.repeat(past[..., -1:, :, :], t_f, axis=-3)


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


# Batch predictors for ``eval_nmse``.  AR fits one history at a time: a
# whole-batch fit copies [B*K*N, t_p] regressors, which took 3.1 MB against
# 0.4 MB on 20 full-scale histories.
BASELINES = {
    "persistence": lambda past, t_f: persistence_baseline(past, t_f),
    "ar1": lambda past, t_f: np.stack([ar_baseline(p, t_f, order=1) for p in past]),
    "ar2": lambda past, t_f: np.stack([ar_baseline(p, t_f, order=2) for p in past]),
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
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)


def _chunks(a: np.ndarray) -> list[np.ndarray]:
    """``a`` split along its first axis into blocks of ``EVAL_CHUNK`` samples."""
    return [a[lo : lo + EVAL_CHUNK] for lo in range(0, len(a), EVAL_CHUNK)]


def eval_nmse(predictor, data: Dataset) -> float:
    """NMSE (dB) over a split of ``predictor(past [B, t_p, K, N], t_f) -> [B, t_f, K, N]``."""
    preds = np.concatenate([predictor(past, data.t_f) for past in _chunks(data.past)])
    return nmse_metric(preds, data.future)


def velocity_sweep(predictors: dict, data: Dataset, seed: int = 0) -> ExperimentResult:
    """Per-velocity NMSE using the speed labels baked into the test set."""
    speed = np.round(data.speeds_mps[:, 0], 6)
    points = np.unique(speed)
    result = ExperimentResult("device_speed_mps", "nmse_db", seed, points=points.tolist())
    for label, predictor in predictors.items():
        for point in points:
            result.add(label, eval_nmse(predictor, data[speed == point]))
    return result


def snr_sweep(
    predictors: dict,
    clean: Dataset,
    snrs_db: list[float],
    seed: int = 0,
) -> ExperimentResult:
    """Re-noise clean histories at each SNR; the models are not retrained."""
    result = ExperimentResult("snr_db", "nmse_db", seed, points=list(snrs_db))
    for i, snr in enumerate(snrs_db):
        csi = clean.csi.copy()
        for j, past in enumerate(clean.past):
            csi[j, : clean.t_p] = add_estimation_noise(past, snr, seed + 1000 * i + j)
        noisy = replace(clean, csi=csi, snr_db=np.full(len(clean), float(snr)))
        for label, predictor in predictors.items():
            result.add(label, eval_nmse(predictor, noisy))
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


def eval_sum_rate(model, data: Dataset, total_power: float, noise_power: float) -> dict:
    """Mean per-slot sum rate (bits/s/Hz) of a beamforming model and references.

    The references are MRT and zero-forcing on the newest history slot
    (outdated CSI), reused for every future slot, and per-slot WMMSE on the
    true future CSI.  Every rate is scored against the true future CSI.
    """
    w_model = np.concatenate([model.predict_batch(past) for past in _chunks(data.past)])
    rates = {"model": [], "mrt_outdated": [], "zf_outdated": [], "wmmse_perfect": []}
    for past, future, w in zip(data.past, data.future, w_model):
        beamformers = {
            "model": w,
            "mrt_outdated": mrt_outdated(past, future.shape, total_power),
            "zf_outdated": [zero_forcing(past[-1], total_power)] * len(future),
            "wmmse_perfect": wmmse_perfect(future, total_power, noise_power),
        }
        for label, ws in beamformers.items():
            rates[label] += [sum_rate(h, wt, noise_power) for h, wt in zip(future, ws)]
    return {label: float(np.mean(v)) for label, v in rates.items()}
