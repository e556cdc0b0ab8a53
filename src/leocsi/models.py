"""End-to-end predictive models: history CSI in, future CSI or beamformers out.

The pipeline is: per-sample standardization -> ViT-style per-slot encoder
(patch projection, feature token, learnable spatial positions) -> linear
projection to the backbone width plus temporal sinusoidal encoding ->
frozen-capable causal Transformer backbone with LoRA on Q/K/V -> a task
head that emits either future CSI matrices (denormalized with the input
statistics) or power-normalized beamforming matrices.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ParamStore, Tensor
from .channel import CsiTensor
from .config import check_fields

SIGMA_FLOOR = 1e-6
PE_PERIOD = 10_000  # absolute slot indices wrap at this period


@dataclass(frozen=True)
class ModelConfig:
    t_p: int = 16
    t_f: int = 4
    num_devices: int = 10
    num_antennas: int = 16
    d_enc: int = 512
    encoder_layers: int = 2
    patch: int = 2
    d_llm: int = 256
    backbone_layers: int = 4
    heads: int = 4
    lora_rank: int = 8
    lora_alpha: float = 32.0
    total_power: float = 1.0
    head: str = "csi"  # "csi" or "bf"

    def __post_init__(self):
        check_fields(self)
        for name in ("t_p", "t_f", "num_devices", "num_antennas", "patch", "d_enc", "d_llm"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.heads < 1 or self.d_enc % self.heads or self.d_llm % self.heads:
            raise ValueError("heads must be >= 1 and divide both d_enc and d_llm")
        if self.num_devices % self.patch or self.num_antennas % self.patch:
            raise ValueError("patch must divide both CSI image dimensions")
        if self.head not in ("csi", "bf"):
            raise ValueError("head must be 'csi' or 'bf'")
        if self.lora_rank < 0:
            raise ValueError("LoRA rank must be >= 0")

    @property
    def num_patches(self) -> int:
        return self.num_devices * self.num_antennas // self.patch**2


def desk_model_config(**overrides) -> ModelConfig:
    """Tiny configuration trainable in minutes on one CPU core."""
    cfg = ModelConfig(
        t_p=8, t_f=2, num_devices=2, num_antennas=4,
        d_enc=32, encoder_layers=2, patch=2,
        d_llm=64, backbone_layers=2, heads=4,
        lora_rank=8, lora_alpha=32.0,
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class NormStats:
    """Per-sample standardization statistics, sigma floored away from zero."""

    mu: np.ndarray     # [B]
    sigma: np.ndarray  # [B]


def model_layout(cfg: ModelConfig) -> list:
    """Parameter specs (see ``nn.init_params``) of a model, in initialization order."""
    patch_dim = 2 * cfg.patch * cfg.patch
    # CSI encoder
    specs = nn.linear_specs("encoder.patch", cfg.d_enc, patch_dim)
    specs += [("encoder.cls", (1, cfg.d_enc), "small", True),
              ("encoder.pos", (cfg.num_patches + 1, cfg.d_enc), "small", True)]
    for i in range(cfg.encoder_layers):
        specs += nn.encoder_layer_specs(f"encoder.l{i}", cfg.d_enc)
    specs += nn.layer_norm_specs("encoder.lnf", cfg.d_enc)
    specs += nn.linear_specs("encoder.proj.fc1", cfg.d_enc, cfg.d_enc)
    specs += nn.linear_specs("encoder.proj.fc2", cfg.d_llm, cfg.d_enc)

    # Backbone (causal decoder stack)
    for i in range(cfg.backbone_layers):
        specs += nn.encoder_layer_specs(f"backbone.l{i}", cfg.d_llm)
        if cfg.lora_rank > 0:
            for name in ("q", "k", "v"):
                specs += nn.lora_specs(f"lora.l{i}.{name}", cfg.d_llm, cfg.lora_rank)
    specs += nn.layer_norm_specs("backbone.lnf", cfg.d_llm)

    # Task head
    hidden = 4 * cfg.d_llm
    out_dim = cfg.t_f * 2 * cfg.num_devices * cfg.num_antennas
    specs += nn.linear_specs("decoder.fc1", hidden, cfg.t_p * cfg.d_llm)
    return specs + nn.linear_specs("decoder.fc2", out_dim, hidden)


def init_model_params(cfg: ModelConfig, seed: int = 0) -> ParamStore:
    store = ParamStore()
    nn.init_params(store, np.random.default_rng(seed), model_layout(cfg))
    return store


def check_layout(store: ParamStore, cfg: ModelConfig) -> ParamStore:
    """``store`` restricted to the layout of ``cfg``, in its own order.

    Raises ``ValueError`` if a parameter of the layout is missing or has
    another shape.  Parameters the layout does not name, such as the key
    bias of older checkpoints, are dropped.
    """
    shapes = {name: shape for name, shape, _, _ in model_layout(cfg)}
    for name, shape in shapes.items():
        if name not in store:
            raise ValueError(f"checkpoint lacks parameter {name}")
        if store[name].data.shape != shape:
            raise ValueError(f"parameter {name} has shape {store[name].data.shape}, "
                             f"the model needs {shape}")
    kept = ParamStore()
    for name, p in store.items():
        if name in shapes:
            kept.add(name, p.data, p.trainable, p.decay)
    return kept


# -- pipeline stages ----------------------------------------------------

def preprocess(past: np.ndarray) -> tuple[np.ndarray, NormStats]:
    """Split complex history into two real channels and standardize.

    ``past`` is [t_p, K, N] or [B, t_p, K, N] complex; statistics are
    computed per sample over all real values of its history images.
    Raises ``FloatingPointError`` if a sample's mean or standard deviation
    is not finite.
    """
    past = np.asarray(past)
    squeeze = past.ndim == 3
    if squeeze:
        past = past[None]
    if not np.all(np.isfinite(past)):
        raise ValueError("history CSI contains NaN/Inf")
    real = np.stack([past.real, past.imag], axis=2)  # [B, t_p, 2, K, N]
    flat = real.reshape(real.shape[0], -1)
    mu = flat.mean(axis=1)
    sigma = np.maximum(flat.std(axis=1), SIGMA_FLOOR)
    if not np.all(np.isfinite((mu, sigma))):
        # A finite but huge history overflows its statistics; dividing by an
        # infinite sigma would standardize it to all zeros.
        raise FloatingPointError("history CSI too large to standardize")
    norm = (real - mu[:, None, None, None, None]) / sigma[:, None, None, None, None]
    if squeeze:
        return norm[0], NormStats(mu=mu, sigma=sigma)
    return norm, NormStats(mu=mu, sigma=sigma)


def temporal_encoding(cfg: ModelConfig, origin_slot: int) -> np.ndarray:
    """[t_p, d_llm] sinusoidal positions of one window's absolute slot indices."""
    return nn.sinusoidal_pe((origin_slot + np.arange(cfg.t_p)) % PE_PERIOD, cfg.d_llm)


def encode_csi(leaves, cfg: ModelConfig, images: Tensor, origin_slot: int = 0) -> Tensor:
    """[B, t_p, 2, K, N] normalized images -> [B, t_p, d_llm] embeddings."""
    b, t_p = images.shape[0], images.shape[1]
    tokens = nn.patchify(images, cfg.patch, leaves, "encoder.patch")  # [B,t_p,M,d_enc]
    cls = ad.broadcast_to(leaves["encoder.cls"], (b, t_p, 1, cfg.d_enc))
    x = ad.concat([cls, tokens], axis=2)
    x = x + leaves["encoder.pos"]
    # Only the readout token's final state is read, so the last layer
    # computes that token alone; layer norm is row-wise, so slicing before
    # ``encoder.lnf`` leaves the token unchanged.
    for i in range(cfg.encoder_layers):
        last = i == cfg.encoder_layers - 1
        x = nn.encoder_layer(leaves, f"encoder.l{i}", x, cfg.heads, readout=last)
    feature = ad.layer_norm(x[:, :, 0, :], leaves["encoder.lnf.g"], leaves["encoder.lnf.b"])
    token = nn.linear(
        leaves, "encoder.proj.fc2",
        ad.gelu(nn.linear(leaves, "encoder.proj.fc1", feature)),
    )
    table = temporal_encoding(cfg, origin_slot).astype(token.data.dtype, copy=False)
    return token + ad.constant(table)


def backbone_forward(leaves, cfg: ModelConfig, emb: Tensor) -> Tensor:
    """Causal decoder stack, shape preserving over [B, t_p, d_llm]."""
    x = emb
    for i in range(cfg.backbone_layers):
        lora_prefix = f"lora.l{i}" if cfg.lora_rank > 0 else None
        x = nn.decoder_layer(
            leaves, f"backbone.l{i}", x, cfg.heads,
            lora_prefix=lora_prefix,
            lora_rank=cfg.lora_rank,
            lora_alpha=cfg.lora_alpha,
        )
    return ad.layer_norm(x, leaves["backbone.lnf.g"], leaves["backbone.lnf.b"])


def head_mlp(leaves, cfg: ModelConfig, llm_out: Tensor) -> Tensor:
    """Two-layer MLP from flattened backbone output to [B, t_f, 2, K, N].

    The output is float64 whatever the leaves' dtype, so denormalization,
    power normalization and the losses run in float64.
    """
    b = llm_out.shape[0]
    x = ad.reshape(llm_out, (b, cfg.t_p * cfg.d_llm))
    x = ad.gelu(nn.linear(leaves, "decoder.fc1", x))
    x = nn.linear(leaves, "decoder.fc2", x)
    return ad.cast(ad.reshape(x, (b, cfg.t_f, 2, cfg.num_devices, cfg.num_antennas)), np.float64)


def decode_csi_graph(leaves, cfg: ModelConfig, llm_out: Tensor, stats: NormStats) -> Tensor:
    """Denormalized real-channel CSI prediction, [B, t_f, 2, K, N]."""
    raw = head_mlp(leaves, cfg, llm_out)
    sigma = ad.constant(stats.sigma[:, None, None, None, None])
    mu = ad.constant(stats.mu[:, None, None, None, None])
    return raw * sigma + mu


def decode_bf_graph(leaves, cfg: ModelConfig, llm_out: Tensor) -> Tensor:
    """Per-slot power-normalized beamformers, [B, t_f, 2, K, N] real channels."""
    raw = head_mlp(leaves, cfg, llm_out)
    sq = ad.tsum(raw * raw, axis=(2, 3, 4), keepdims=True)
    scale = ad.sqrt(sq) * (1.0 / np.sqrt(cfg.total_power))
    return raw / scale


def to_complex(real: np.ndarray) -> np.ndarray:
    """[..., 2, K, N] real channels -> [..., K, N] complex."""
    return real[..., 0, :, :] + 1j * real[..., 1, :, :]


class Model:
    """A trained or trainable predictor with a CSI or beamforming head."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, params: ParamStore | None = None):
        self.cfg = cfg
        self.params = params if params is not None else init_model_params(cfg, seed)
        self.backbone_calls = 0

    # -- graph construction (used by training) --------------------------
    def forward_graph(
        self, leaves, x_norm: np.ndarray, stats: NormStats, origin_slot: int = 0
    ) -> Tensor:
        dt = leaves["encoder.patch.w"].data.dtype
        emb = encode_csi(leaves, self.cfg, ad.constant(x_norm.astype(dt, copy=False)), origin_slot)
        self.backbone_calls += 1
        out = backbone_forward(leaves, self.cfg, emb)
        if self.cfg.head == "csi":
            return decode_csi_graph(leaves, self.cfg, out, stats)
        return decode_bf_graph(leaves, self.cfg, out)

    # -- inference -------------------------------------------------------
    def predict_batch(self, past: np.ndarray, origin_slot: int = 0) -> np.ndarray:
        """[B, t_p, K, N] complex history -> [B, t_f, K, N] complex output.

        Runs in float64. Raises ``FloatingPointError`` if the output is not
        finite, e.g. for a finite history too large to standardize.
        """
        # Constant leaves: no op records parents or a backward closure.
        leaves = {name: ad.constant(p.data) for name, p in self.params.items()}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x_norm, stats = preprocess(past)
            real = self.forward_graph(leaves, x_norm, stats, origin_slot).data
        if not np.all(np.isfinite(real)):
            raise FloatingPointError("non-finite model output")
        if self.cfg.head == "bf":
            slot_power = np.sum(real**2, axis=(2, 3, 4))
            if np.any(slot_power < 1e-30):
                raise FloatingPointError("degenerate all-zero beamforming head output")
        return to_complex(real)

    def predict(self, past, origin_slot: int | None = None) -> np.ndarray:
        """[t_p, K, N] history (array or CsiTensor) -> [t_f, K, N] output."""
        if isinstance(past, CsiTensor):
            if origin_slot is None:
                origin_slot = past.origin_slot
            past = past.data
        return self.predict_batch(np.asarray(past)[None], origin_slot or 0)[0]

    def predict_autoregressive(self, past, t_f: int, origin_slot: int = 0) -> np.ndarray:
        """Slot-by-slot rollout with a one-slot head and a sliding window."""
        if self.cfg.head != "csi":
            raise ValueError("autoregressive decoding requires the CSI head")
        if self.cfg.t_f != 1:
            raise ValueError("autoregressive decoding requires a one-slot head")
        if isinstance(past, CsiTensor):
            origin_slot = past.origin_slot
            past = past.data
        window = np.asarray(past).copy()
        preds = []
        for step in range(t_f):
            nxt = self.predict_batch(window[None], origin_slot + step)[0]  # [1, K, N]
            preds.append(nxt[0])
            window = np.concatenate([window[1:], nxt], axis=0)
        return np.stack(preds)

    # -- persistence -----------------------------------------------------
    def save(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "model.json"), "w", encoding="utf-8") as fh:
            json.dump(asdict(self.cfg), fh, indent=2)
        # Round through the on-disk float32 precision so saving never changes
        # future behaviour: save -> load round trips are bit-exact.
        ad.quantize_store(self.params)
        ad.save_params(path, self.params)

    @classmethod
    def load(cls, path: str) -> "Model":
        with open(os.path.join(path, "model.json"), "r", encoding="utf-8") as fh:
            cfg = ModelConfig(**json.load(fh))
        return cls(cfg, params=check_layout(ad.load_params(path), cfg))
