"""Neural building blocks: patch projection, pre-norm Transformer layers,
LoRA-wrapped projections, and sinusoidal positional encodings.

All blocks are pure functions over a dict of graph leaves (name -> Tensor)
produced by ``ParamStore.leaves()``; parameter naming is hierarchical
("encoder.l0.attn.q.w", "lora.l1.k.a", ...).
"""
from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor

MASK_NEG = -1e30


# -- initialization -----------------------------------------------------
# A parameter spec is (name, shape, init, decay).  ``init`` is "fan_in" (a
# standard normal draw divided by the square root of the fan-in), "small"
# (0.02 times a standard normal draw), "zeros" or "ones".  Specs alone give
# a model's layout without drawing any weight; ``init_params`` draws them.

def linear_specs(prefix: str, d_out: int, d_in: int, bias: bool = True) -> list:
    specs = [(f"{prefix}.w", (d_out, d_in), "fan_in", True)]
    if bias:
        specs.append((f"{prefix}.b", (d_out,), "zeros", False))
    return specs


def layer_norm_specs(prefix: str, d: int) -> list:
    return [(f"{prefix}.g", (d,), "ones", False), (f"{prefix}.b", (d,), "zeros", False)]


def encoder_layer_specs(prefix: str, d: int) -> list:
    specs = layer_norm_specs(f"{prefix}.ln1", d)
    # Softmax is shift-invariant, so a key bias has zero gradient: K has none.
    for name in ("q", "k", "v", "o"):
        specs += linear_specs(f"{prefix}.attn.{name}", d, d, bias=name != "k")
    specs += layer_norm_specs(f"{prefix}.ln2", d)
    specs += linear_specs(f"{prefix}.mlp.fc1", 4 * d, d)
    return specs + linear_specs(f"{prefix}.mlp.fc2", d, 4 * d)


def lora_specs(prefix: str, d: int, rank: int) -> list:
    """A is drawn, B all zeros, so the adapter delta starts at zero."""
    return [(f"{prefix}.a", (rank, d), "fan_in", True), (f"{prefix}.b", (d, rank), "zeros", True)]


def init_params(store: ParamStore, rng, specs) -> None:
    """Add the parameters of ``specs`` to ``store``, drawing from ``rng`` in order."""
    for name, shape, init, decay in specs:
        if init == "fan_in":
            data = rng.standard_normal(shape) / np.sqrt(shape[1])
        elif init == "small":
            data = 0.02 * rng.standard_normal(shape)
        else:
            data = np.full(shape, 1.0 if init == "ones" else 0.0)
        store.add(name, data, decay=decay)


# -- forward blocks -----------------------------------------------------

def linear(leaves, prefix: str, x: Tensor, bias: bool = True) -> Tensor:
    return ad.linear(x, leaves[f"{prefix}.w"], leaves[f"{prefix}.b"] if bias else None)


def lora_linear(
    leaves, prefix: str, lora_prefix: str | None, x: Tensor, rank: int, alpha: float,
    bias: bool = True,
) -> Tensor:
    """Base projection plus (alpha/rank) * x A^T B^T when rank > 0."""
    y = linear(leaves, prefix, x, bias)
    if rank > 0 and lora_prefix is not None:
        a = leaves[f"{lora_prefix}.a"]  # [r, d_in]
        b = leaves[f"{lora_prefix}.b"]  # [d_out, r]
        delta = ad.linear(ad.linear(x, a), b)
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


@functools.cache
def causal_mask(s: int, dtype) -> np.ndarray:
    """[s, s] additive mask, MASK_NEG above the diagonal; read-only, one per (s, dtype)."""
    mask = np.triu(np.full((s, s), MASK_NEG, dtype=dtype), k=1)
    mask.flags.writeable = False
    return mask


def attention(
    leaves,
    prefix: str,
    x: Tensor,
    heads: int,
    causal: bool = False,
    lora_prefix: str | None = None,
    lora_rank: int = 0,
    lora_alpha: float = 0.0,
    readout: bool = False,
) -> Tensor:
    """Scaled dot-product multi-head self-attention over [..., S, D].

    With ``readout`` only token 0 attends: the output is [..., 1, D].
    """
    d = x.shape[-1]
    if d % heads:
        raise ValueError("model width must be divisible by head count")

    def proj(name, inputs):
        lp = f"{lora_prefix}.{name}" if lora_prefix is not None else None
        return lora_linear(leaves, f"{prefix}.{name}", lp, inputs, lora_rank, lora_alpha,
                           bias=name != "k")

    q = proj("q", x[..., :1, :] if readout else x)
    k, v = proj("k", x), proj("v", x)
    mask = causal_mask(x.shape[-2], x.data.dtype)[: q.shape[-2]] if causal else None
    return linear(leaves, f"{prefix}.o", ad.attention(q, k, v, heads, mask))


def _layer(leaves, prefix, x, heads, causal, lora_prefix, lora_rank, lora_alpha, readout=False):
    """Pre-norm residual Transformer layer shared by the encoder and decoder.

    With ``readout`` LN1, K and V run over all tokens and everything else
    over token 0 only; the output is that token's state, [..., 1, D].
    """
    h = ad.layer_norm(x, leaves[f"{prefix}.ln1.g"], leaves[f"{prefix}.ln1.b"])
    if readout:
        x = x[..., :1, :]
    x = x + attention(
        leaves, f"{prefix}.attn", h, heads, causal=causal,
        lora_prefix=lora_prefix, lora_rank=lora_rank, lora_alpha=lora_alpha, readout=readout,
    )
    h = ad.layer_norm(x, leaves[f"{prefix}.ln2.g"], leaves[f"{prefix}.ln2.b"])
    hidden = ad.gelu(linear(leaves, f"{prefix}.mlp.fc1", h))
    return x + linear(leaves, f"{prefix}.mlp.fc2", hidden)


def encoder_layer(leaves, prefix: str, x: Tensor, heads: int, readout: bool = False) -> Tensor:
    """Pre-norm residual Transformer encoder layer (see ``_layer`` for ``readout``)."""
    return _layer(leaves, prefix, x, heads, False, None, 0, 0.0, readout)


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


@functools.cache
def _pe_denominators(d: int) -> tuple[np.ndarray, np.ndarray]:
    """10000^(i/d) at even 1-based i (sin) and 10000^((i-1)/d) at odd i (cos)."""
    i = np.arange(1, d + 1, dtype=float)
    dens = 10000.0 ** (i[1::2] / d), 10000.0 ** ((i[::2] - 1) / d)
    for den in dens:
        den.flags.writeable = False  # shared by every caller
    return dens


def sinusoidal_pe(t, d: int) -> np.ndarray:
    """Temporal positional encoding, cos at odd 1-based components.

    ``t`` is one slot index or an array of them; the encoding is laid out
    along a new last axis of size ``d``.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    sin_den, cos_den = _pe_denominators(d)
    t = np.asarray(t, dtype=float)[..., None]
    out = np.empty(t.shape[:-1] + (d,))
    out[..., 1::2] = np.sin(t / sin_den)
    out[..., ::2] = np.cos(t / cos_den)
    return out
