"""Losses and fine-tuning loops for the CSI-prediction and beamforming heads.

The backbone is emulated-pretrained: trained end-to-end on next-slot CSI
prediction over one scenario distribution, then frozen; LoRA adapters and
fresh encoder/decoder weights adapt the model to shifted scenarios.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, ParamStore, Tensor
from .dataset import SampleRecord
from .models import Model, ModelConfig, preprocess


@dataclass(frozen=True)
class TrainConfig:
    batch: int = 64
    epochs: int = 300
    lr: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01
    seed: int = 0
    freeze: str = "backbone"  # or "none"
    clip_norm: float | None = 1.0
    max_steps: int | None = None
    noise_power: float = 0.1  # used by the beamforming loss

    def __post_init__(self):
        if self.batch < 1 or self.epochs < 1:
            raise ValueError("batch and epochs must be >= 1")
        if self.freeze not in ("backbone", "none"):
            raise ValueError("freeze must be 'backbone' or 'none'")


# -- losses -------------------------------------------------------------

def _check_truth(truth: np.ndarray):
    norms = np.sqrt(np.sum(np.abs(truth.reshape(truth.shape[0], -1)) ** 2, axis=1))
    if np.any(norms == 0):
        raise ValueError("zero-norm truth sample")


def nmse_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Batch-mean of per-sample ||truth - pred||_F^2 / ||truth||_F^2."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    _check_truth(truth)
    b = truth.shape[0]
    err = np.abs(truth - pred).reshape(b, -1) ** 2
    ref = np.abs(truth).reshape(b, -1) ** 2
    return float(np.mean(err.sum(axis=1) / ref.sum(axis=1)))


def nmse_loss_graph(pred: Tensor, truth: np.ndarray) -> Tensor:
    """Graph NMSE on the split real/imag representation.

    ``pred`` is [B, t_f, 2, K, N]; ``truth`` is complex [B, t_f, K, N].
    """
    _check_truth(truth)
    b = truth.shape[0]
    target = ad.constant(np.stack([truth.real, truth.imag], axis=2))
    diff = pred - target
    diff2 = ad.reshape(diff * diff, (b, -1))
    denom = np.sum(np.abs(truth.reshape(b, -1)) ** 2, axis=1)
    per_sample = ad.tsum(diff2, axis=1) / ad.constant(denom)
    return ad.tmean(per_sample)


def bf_loss(w_hat: np.ndarray, h_true: np.ndarray, noise_power: float) -> float:
    """Negative mean per-slot sum rate of predicted beamformers.

    Both arguments are complex [B, t_f, K, N]; rates are evaluated against
    the true future CSI.
    """
    from .beamform import sum_rate

    w_hat = np.asarray(w_hat)
    h_true = np.asarray(h_true)
    if w_hat.shape != h_true.shape:
        raise ValueError("shape mismatch")
    b, t_f = w_hat.shape[:2]
    total = 0.0
    for i in range(b):
        for t in range(t_f):
            total += sum_rate(h_true[i, t], w_hat[i, t], noise_power)
    return -total / (b * t_f)


def bf_loss_graph(w_real: Tensor, h_true: np.ndarray, noise_power: float) -> Tensor:
    """Graph beamforming loss from real-channel beamformers.

    ``w_real`` is [B, t_f, 2, K, N]; the SINR of each (sample, slot, device)
    uses the complex inner products h_k^H w_j expanded into real arithmetic.
    """
    b, t_f, _, k, n = w_real.shape
    hr = np.real(h_true)[:, :, :, None, :]  # [B,T,K,1,N] receiver index k
    hi = np.imag(h_true)[:, :, :, None, :]
    wr = ad.reshape(w_real[:, :, 0, :, :], (b, t_f, 1, k, n))  # beamformer index j
    wi = ad.reshape(w_real[:, :, 1, :, :], (b, t_f, 1, k, n))
    re_dot = ad.tsum(ad.constant(hr) * wr + ad.constant(hi) * wi, axis=-1)
    im_dot = ad.tsum(ad.constant(hr) * wi - ad.constant(hi) * wr, axis=-1)
    cross = re_dot * re_dot + im_dot * im_dot  # [B,T,K,J] = |h_k^H w_j|^2
    eye = np.eye(k)[None, None]
    signal = ad.tsum(cross * ad.constant(eye), axis=-1)
    interference = ad.tsum(cross, axis=-1) - signal
    gamma = signal / (interference + noise_power)
    rates = ad.log2(1.0 + gamma)  # [B,T,K]
    return -ad.tsum(rates) * (1.0 / (b * t_f))


# -- parameter plumbing -------------------------------------------------

def backbone_checksum(store: ParamStore) -> str:
    """Digest of the backbone base weights (LoRA excluded)."""
    digest = hashlib.sha256()
    for name in sorted(store.names()):
        if name.startswith("backbone."):
            digest.update(name.encode())
            digest.update(store[name].data.tobytes())
    return digest.hexdigest()


def expected_trainable_count(cfg: ModelConfig, store: ParamStore) -> int:
    """Closed-form count: encoder + decoder + 2*r*d_llm per Q/K/V per layer."""
    enc_dec = sum(
        p.data.size
        for name, p in store.items()
        if name.startswith(("encoder.", "decoder."))
    )
    return enc_dec + 2 * cfg.lora_rank * cfg.d_llm * 3 * cfg.backbone_layers


# -- training loops -----------------------------------------------------

def _records_to_arrays(records: list[SampleRecord]):
    past = np.stack([r.past.data for r in records])
    future = np.stack([r.future.data for r in records])
    return past, future


def _clip_grads(grads: dict[str, np.ndarray], max_norm: float):
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return grads


def _run_training(
    model: Model,
    records: list[SampleRecord],
    tc: TrainConfig,
    loss_kind: str,
) -> list[float]:
    past, future = _records_to_arrays(records)
    m = len(records)
    if past.shape[1] != model.cfg.t_p or future.shape[1] != model.cfg.t_f:
        raise ValueError("dataset slot counts do not match the model config")
    if past.shape[2:] != (model.cfg.num_devices, model.cfg.num_antennas):
        raise ValueError("dataset device/antenna shape does not match the model")

    opt = AdamW(lr=tc.lr, betas=tc.betas, weight_decay=tc.weight_decay)
    rng = np.random.default_rng(tc.seed)
    trace: list[float] = []
    steps = 0
    for _ in range(tc.epochs):
        perm = rng.permutation(m)
        for lo in range(0, m, tc.batch):
            idx = perm[lo : lo + tc.batch]
            x_norm, stats = preprocess(past[idx])
            leaves = model.params.leaves()
            pred = model.forward_graph(leaves, x_norm, stats)
            if loss_kind == "cp":
                loss = nmse_loss_graph(pred, future[idx])
            else:
                loss = bf_loss_graph(pred, future[idx], tc.noise_power)
            loss.backward()
            grads = ad.collect_grads(leaves)
            if tc.clip_norm is not None:
                _clip_grads(grads, tc.clip_norm)
            opt.step(model.params, grads)
            trace.append(float(loss.data))
            steps += 1
            if tc.max_steps is not None and steps >= tc.max_steps:
                return trace
    return trace


def finetune_cp(records: list[SampleRecord], model: Model, tc: TrainConfig) -> list[float]:
    """Fine-tune a CSI-head model; returns the per-step loss trace."""
    if model.cfg.head != "csi":
        raise ValueError("finetune_cp requires a CSI-head model")
    if tc.freeze == "backbone":
        model.params.freeze("backbone.")
    return _run_training(model, records, tc, "cp")


def finetune_bf(records: list[SampleRecord], model: Model, tc: TrainConfig) -> list[float]:
    """Fine-tune a beamforming-head model; returns the per-step loss trace."""
    if model.cfg.head != "bf":
        raise ValueError("finetune_bf requires a beamforming-head model")
    if tc.freeze == "backbone":
        model.params.freeze("backbone.")
    return _run_training(model, records, tc, "bf")


def pretrain_backbone(
    records: list[SampleRecord],
    cfg: ModelConfig,
    tc: TrainConfig,
    seed: int = 0,
) -> tuple[ParamStore, list[float]]:
    """Train a rank-0 CSI model end to end, then freeze its backbone.

    Returns the full trained store (backbone marked frozen) and the loss
    trace.  The pretraining dataset should come from a different scenario
    distribution than the adaptation dataset.
    """
    pre_cfg = replace(cfg, head="csi", lora_rank=0)
    model = Model(pre_cfg, seed=seed)
    tc = replace(tc, freeze="none")
    trace = _run_training(model, records, tc, "cp")
    model.params.freeze("backbone.")
    return model.params, trace


def build_finetune_model(cfg: ModelConfig, pretrained: ParamStore, seed: int = 0) -> Model:
    """Model warm-started from a pretrained store, backbone frozen.

    Every matching pretrained weight (encoder, backbone, decoder) is copied;
    LoRA adapters are freshly zero-initialized so the warm-started model
    computes exactly the pretrained function at rank 0 and at any rank
    before the first optimizer step.
    """
    model = Model(cfg, seed=seed)
    for name in model.params.names():
        if name.startswith("lora."):
            continue
        if name in pretrained:
            if pretrained[name].data.shape != model.params[name].data.shape:
                raise ValueError(f"pretrained shape mismatch at {name}")
            model.params[name].data[...] = pretrained[name].data
    model.params.freeze("backbone.")
    return model
