"""Neural building blocks: patch projection, pre-norm Transformer layers,
LoRA-wrapped projections, and sinusoidal positional encodings.

All blocks are pure functions over a dict of graph leaves (name -> Tensor)
produced by ``ParamStore.leaves()``; parameter naming is hierarchical
("encoder.l0.attn.q.w", "lora.l1.k.a", ...).
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor

MASK_NEG = -1e30


# -- initialization -----------------------------------------------------

def _init_linear(store: ParamStore, rng, prefix: str, d_out: int, d_in: int):
    store.add(f"{prefix}.w", rng.standard_normal((d_out, d_in)) / np.sqrt(d_in))
    store.add(f"{prefix}.b", np.zeros(d_out), decay=False)


def _init_layer_norm(store: ParamStore, prefix: str, d: int):
    store.add(f"{prefix}.g", np.ones(d), decay=False)
    store.add(f"{prefix}.b", np.zeros(d), decay=False)


def init_encoder_layer(store: ParamStore, rng, prefix: str, d: int):
    _init_layer_norm(store, f"{prefix}.ln1", d)
    for name in ("q", "k", "v", "o"):
        _init_linear(store, rng, f"{prefix}.attn.{name}", d, d)
    _init_layer_norm(store, f"{prefix}.ln2", d)
    _init_linear(store, rng, f"{prefix}.mlp.fc1", 4 * d, d)
    _init_linear(store, rng, f"{prefix}.mlp.fc2", d, 4 * d)


def init_lora(store: ParamStore, rng, prefix: str, d: int, rank: int):
    """A is Gaussian, B all zeros, so the adapter delta starts at zero."""
    store.add(f"{prefix}.a", rng.standard_normal((rank, d)) / np.sqrt(d))
    store.add(f"{prefix}.b", np.zeros((d, rank)))


# -- forward blocks -----------------------------------------------------

def linear(leaves, prefix: str, x: Tensor) -> Tensor:
    w = leaves[f"{prefix}.w"]
    b = leaves[f"{prefix}.b"]
    return x @ ad.transpose(w, (1, 0)) + b


def lora_linear(
    leaves, prefix: str, lora_prefix: str | None, x: Tensor, rank: int, alpha: float
) -> Tensor:
    """Base projection plus (alpha/rank) * x A^T B^T when rank > 0."""
    y = linear(leaves, prefix, x)
    if rank > 0 and lora_prefix is not None:
        a = leaves[f"{lora_prefix}.a"]  # [r, d_in]
        b = leaves[f"{lora_prefix}.b"]  # [d_out, r]
        delta = (x @ ad.transpose(a, (1, 0))) @ ad.transpose(b, (1, 0))
        y = y + (alpha / rank) * delta
    return y


def patchify(x: Tensor, patch: int, leaves, prefix: str) -> Tensor:
    """[..., 2, K, N] -> [..., M, d] via non-overlapping blocks + shared linear."""
    *lead, c, k, n = x.shape
    if k % patch or n % patch:
        raise ValueError(f"patch size {patch} must divide CSI image dims ({k}, {n})")
    kp, np_ = k // patch, n // patch
    lead = tuple(lead)
    x = ad.reshape(x, lead + (c, kp, patch, np_, patch))
    ndim = len(lead)
    # -> [..., kp, np, c, patch, patch]
    order = tuple(range(ndim)) + (ndim + 1, ndim + 3, ndim, ndim + 2, ndim + 4)
    x = ad.transpose(x, order)
    x = ad.reshape(x, lead + (kp * np_, c * patch * patch))
    return linear(leaves, prefix, x)


def attention(
    leaves,
    prefix: str,
    x: Tensor,
    heads: int,
    causal: bool = False,
    lora_prefix: str | None = None,
    lora_rank: int = 0,
    lora_alpha: float = 0.0,
) -> Tensor:
    """Scaled dot-product multi-head self-attention over [..., S, D]."""
    *lead, s, d = x.shape
    if d % heads:
        raise ValueError("model width must be divisible by head count")
    dh = d // heads

    def proj(name):
        lp = f"{lora_prefix}.{name}" if lora_prefix is not None else None
        y = lora_linear(leaves, f"{prefix}.{name}", lp, x, lora_rank, lora_alpha)
        y = ad.reshape(y, tuple(lead) + (s, heads, dh))
        ndim = len(lead)
        return ad.transpose(y, tuple(range(ndim)) + (ndim + 1, ndim, ndim + 2))

    q, k, v = proj("q"), proj("k"), proj("v")
    scores = (q @ ad.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))) * (
        1.0 / np.sqrt(dh)
    )
    if causal:
        mask = np.triu(np.full((s, s), MASK_NEG), k=1)
        scores = scores + ad.constant(mask)
    att = ad.softmax(scores, axis=-1)
    ctx = att @ v  # [..., heads, S, dh]
    ndim = len(lead)
    ctx = ad.transpose(ctx, tuple(range(ndim)) + (ndim + 1, ndim, ndim + 2))
    ctx = ad.reshape(ctx, tuple(lead) + (s, d))
    return linear(leaves, f"{prefix}.o", ctx)


def _layer(leaves, prefix, x, heads, causal, lora_prefix, lora_rank, lora_alpha):
    """Pre-norm residual Transformer layer shared by the encoder and decoder."""
    h = ad.layer_norm(x, leaves[f"{prefix}.ln1.g"], leaves[f"{prefix}.ln1.b"])
    x = x + attention(
        leaves, f"{prefix}.attn", h, heads, causal=causal,
        lora_prefix=lora_prefix, lora_rank=lora_rank, lora_alpha=lora_alpha,
    )
    h = ad.layer_norm(x, leaves[f"{prefix}.ln2.g"], leaves[f"{prefix}.ln2.b"])
    hidden = ad.gelu(linear(leaves, f"{prefix}.mlp.fc1", h))
    return x + linear(leaves, f"{prefix}.mlp.fc2", hidden)


def encoder_layer(leaves, prefix: str, x: Tensor, heads: int) -> Tensor:
    """Pre-norm residual Transformer encoder layer."""
    return _layer(leaves, prefix, x, heads, False, None, 0, 0.0)


def decoder_layer(
    leaves,
    prefix: str,
    x: Tensor,
    heads: int,
    lora_prefix: str | None = None,
    lora_rank: int = 0,
    lora_alpha: float = 0.0,
) -> Tensor:
    """Pre-norm residual causal decoder layer with optional Q/K/V LoRA."""
    return _layer(leaves, prefix, x, heads, True, lora_prefix, lora_rank, lora_alpha)


def sinusoidal_pe(t: float, d: int) -> np.ndarray:
    """Temporal positional encoding, cos at odd 1-based components."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    i = np.arange(1, d + 1, dtype=float)
    even = np.sin(t / 10000.0 ** (i / d))
    odd = np.cos(t / 10000.0 ** ((i - 1) / d))
    return np.where(i % 2 == 0, even, odd)
