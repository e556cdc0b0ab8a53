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
from .config import check_fields
from .dataset import Dataset
from .models import Model, ModelConfig, check_layout, preprocess

# Training graphs compute in this dtype; the float64 master weights in the
# ParamStore take the AdamW updates (mixed-precision training).
TRAIN_DTYPE = np.float32
CLIP_NORM = 1.0  # gradients are scaled down to this global norm


@dataclass(frozen=True)
class TrainConfig:
    batch: int = 64
    epochs: int = 300
    lr: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    freeze: str = "backbone"  # or "none"
    max_steps: int | None = None
    noise_power: float = 0.1  # used by the beamforming loss

    def __post_init__(self):
        check_fields(self)
        if self.batch < 1 or self.epochs < 1:
            raise ValueError("batch and epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not np.isfinite(float(self.lr) * float(self.weight_decay)):
            # AdamW scales weights by 1 - lr * weight_decay.
            raise ValueError("lr * weight_decay overflows a float")
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

def _clip_grads(grads: dict[str, np.ndarray]):
    """Global gradient norm, and ``grads`` scaled down to ``CLIP_NORM`` if above it."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        grads = {name: g * scale for name, g in grads.items()}
    return total, grads


def _run_training(model: Model, data: Dataset, tc: TrainConfig) -> list[float]:
    """Train ``model`` on the loss of its head; returns the per-step loss trace."""
    past, future = data.past, data.future
    m = len(data)
    if past.shape[1] != model.cfg.t_p or future.shape[1] != model.cfg.t_f:
        raise ValueError("dataset slot counts do not match the model config")
    if past.shape[2:] != (model.cfg.num_devices, model.cfg.num_antennas):
        raise ValueError("dataset device/antenna shape does not match the model")

    opt = AdamW(lr=tc.lr, weight_decay=tc.weight_decay)
    rng = np.random.default_rng(tc.seed)
    trace: list[float] = []
    steps = 0
    for _ in range(tc.epochs):
        perm = rng.permutation(m)
        for lo in range(0, m, tc.batch):
            idx = perm[lo : lo + tc.batch]
            x_norm, stats = preprocess(past[idx])
            # Overflow, including masters too large for TRAIN_DTYPE, shows up
            # as a non-finite loss or gradient norm, which is checked below
            # and reported with its step.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                leaves = model.params.leaves(TRAIN_DTYPE)
                pred = model.forward_graph(leaves, x_norm, stats)
                if model.cfg.head == "csi":
                    loss = nmse_loss_graph(pred, future[idx])
                else:
                    loss = bf_loss_graph(pred, future[idx], tc.noise_power)
                loss.backward()
                norm, grads = _clip_grads(ad.collect_grads(leaves))
            value = float(loss.data)
            if not (np.isfinite(value) and np.isfinite(norm)):
                raise FloatingPointError(
                    f"non-finite training loss {value} or gradient norm {norm} at step {steps}"
                )
            opt.step(model.params, grads)
            # The spent graph's leaves, output and gradients would otherwise
            # stay alive through the next step's forward pass.
            del leaves, pred, loss, grads
            trace.append(value)
            steps += 1
            if tc.max_steps is not None and steps >= tc.max_steps:
                return trace
    return trace


def _finetune(data: Dataset, model: Model, tc: TrainConfig, head: str) -> list[float]:
    if model.cfg.head != head:
        raise ValueError(f"{head!r}-head fine-tuning got a {model.cfg.head!r}-head model")
    if tc.freeze == "backbone":
        model.params.freeze("backbone.")
    return _run_training(model, data, tc)


def finetune_cp(data: Dataset, model: Model, tc: TrainConfig) -> list[float]:
    """Fine-tune a CSI-head model; returns the per-step loss trace."""
    return _finetune(data, model, tc, "csi")


def finetune_bf(data: Dataset, model: Model, tc: TrainConfig) -> list[float]:
    """Fine-tune a beamforming-head model; returns the per-step loss trace."""
    return _finetune(data, model, tc, "bf")


def pretrain_backbone(
    data: Dataset,
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
    trace = _run_training(model, data, tc)
    model.params.freeze("backbone.")
    return model.params, trace


def build_finetune_model(cfg: ModelConfig, pretrained: ParamStore, seed: int = 0) -> Model:
    """Model warm-started from a pretrained store, backbone frozen.

    Every pretrained weight (encoder, backbone, decoder) is copied; LoRA
    adapters are freshly zero-initialized so the warm-started model computes
    exactly the pretrained function at rank 0 and at any rank before the
    first optimizer step.  Raises ``ValueError`` if the store lacks a weight
    of ``cfg``'s layout, has one of another shape, or has an encoder or
    backbone weight the layout lacks (the key bias of older checkpoints is
    dropped, as ``Model.load`` drops it).
    """
    base = check_layout(pretrained, replace(cfg, lora_rank=0))
    for name in pretrained.names():
        if (name.startswith(("encoder.", "backbone.")) and name not in base
                and not name.endswith(".attn.k.b")):
            raise ValueError(f"pretrained parameter {name} is not in the model layout")
    model = Model(cfg, seed=seed)
    for name, p in base.items():
        model.params[name].data[...] = p.data
    model.params.freeze("backbone.")
    return model
