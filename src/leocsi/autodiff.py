"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

A ``Tensor`` wraps a real-valued ndarray and records its parents plus a
backward closure; ``backward()`` on a scalar runs the chain rule over the
graph in reverse topological order.  The engine is real-valued only;
complex CSI is split into two real channels before it reaches a graph.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64 if np.asarray(data).dtype.kind != "f" else None)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in self._parents)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self):
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), neg(self))

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(x) -> Tensor:
    """A graph leaf that never receives gradients."""
    return Tensor(np.asarray(x))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _node(value, parents, backward):
    if not any(p.requires_grad for p in parents):
        return Tensor(value)
    return Tensor(value, parents=parents, backward=backward)


# -- elementwise --------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_val = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(out_val, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(-g)

    return _node(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_val = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(out_val, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_val = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(out_val, (a, b), backward)


def power(a: Tensor, p: float) -> Tensor:
    out_val = a.data ** p

    def backward(g):
        a._accumulate(g * p * a.data ** (p - 1))

    return _node(out_val, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_val = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_val)

    return _node(out_val, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(g / a.data)

    return _node(np.log(a.data), (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_val = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g / (2.0 * out_val))

    return _node(out_val, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_val = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_val * out_val))

    return _node(out_val, (a,), backward)


# -- structural ---------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_val = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.shape))

    return _node(out_val, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def backward(g):
        a._accumulate(g.reshape(old))

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def getitem(a: Tensor, idx) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return _node(a.data[idx], (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / float(count))


def broadcast_to(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))

    return _node(np.broadcast_to(a.data, shape), (a,), backward)


# -- composites ---------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    inner = _GELU_C * (a + 0.044715 * a * a * a)
    return 0.5 * a * (1.0 + tanh(inner))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    # Shifting by a detached max leaves the result (and gradient) unchanged.
    shift = constant(a.data.max(axis=axis, keepdims=True))
    e = exp(a - shift)
    return e / tsum(e, axis=axis, keepdims=True)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    mu = tmean(a, axis=axis, keepdims=True)
    centered = a - mu
    var = tmean(centered * centered, axis=axis, keepdims=True)
    return centered / sqrt(var + eps) * gain + bias


def log2(a: Tensor) -> Tensor:
    return log(a) * (1.0 / math.log(2.0))


# -- parameters ---------------------------------------------------------

@dataclass
class Param:
    data: np.ndarray
    trainable: bool = True
    decay: bool = True  # weight decay applies (off for norms/biases)


class ParamStore:
    """Named parameter arrays with per-parameter trainable/decay flags."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, data: np.ndarray, trainable: bool = True, decay: bool = True):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        self._params[name] = Param(np.asarray(data, dtype=np.float64), trainable, decay)

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def freeze(self, prefix: str):
        for name, p in self._params.items():
            if name.startswith(prefix):
                p.trainable = False

    def trainable_names(self) -> list[str]:
        return [n for n, p in self._params.items() if p.trainable]

    def num_params(self, trainable_only: bool = False) -> int:
        return sum(
            p.data.size
            for p in self._params.values()
            if p.trainable or not trainable_only
        )

    def leaves(self) -> dict[str, Tensor]:
        """Fresh graph leaves for one forward/backward pass."""
        return {
            n: Tensor(p.data, requires_grad=p.trainable)
            for n, p in self._params.items()
        }

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for n, p in self._params.items():
            out.add(n, p.data.copy(), p.trainable, p.decay)
        return out


def collect_grads(leaves: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {
        n: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for n, t in leaves.items()
        if t.requires_grad
    }


class AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moments.

    Weight decay is applied only to trainable parameters whose ``decay``
    flag is set; frozen parameters are never touched.
    """

    def __init__(self, lr=1e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._state: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def step(self, store: ParamStore, grads: dict[str, np.ndarray]):
        self._t += 1
        b1, b2 = self.betas
        for name, p in store.items():
            if not p.trainable or name not in grads:
                continue
            g = grads[name]
            if name not in self._state:
                self._state[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = self._state[name]
            m[...] = b1 * m + (1 - b1) * g
            v[...] = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            if p.decay and self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def grad_check(f, store: ParamStore, eps: float = 1e-5, max_entries: int = 200,
               rng_seed: int = 0, atol: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a dict of leaf tensors to a scalar Tensor.  Up to
    ``max_entries`` randomly chosen entries per parameter are probed.
    Entries where both gradients are below ``atol`` count as exact: a truly
    zero analytic gradient (e.g. a softmax shift direction) cannot beat the
    ~1e-9 cancellation noise of the difference quotient in relative terms.
    """
    leaves = store.leaves()
    out = f(leaves)
    if out.data.shape != ():
        raise ValueError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = collect_grads(leaves)

    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for name in store.trainable_names():
        p = store[name]
        flat = p.data.reshape(-1)
        size = flat.size
        idxs = (
            np.arange(size)
            if size <= max_entries
            else rng.choice(size, size=max_entries, replace=False)
        )
        a_flat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(store.leaves()).data)
            flat[i] = orig - eps
            lo = float(f(store.leaves()).data)
            flat[i] = orig
            cd = (hi - lo) / (2 * eps)
            a = float(a_flat[i])
            if abs(a) < atol and abs(cd) < atol:
                continue
            err = abs(a - cd) / (abs(a) + abs(cd) + 1e-12)
            worst = max(worst, err)
    return worst


# -- checkpoints --------------------------------------------------------

def save_params(path: str, store: ParamStore) -> None:
    """Write ``params.json`` manifest + a little-endian float32 blob."""
    os.makedirs(path, exist_ok=True)
    manifest = []
    offset = 0
    blobs = []
    for name, p in store.items():
        arr = p.data.astype("<f4")
        manifest.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": offset,
                "trainable": p.trainable,
                "decay": p.decay,
            }
        )
        offset += arr.size
        blobs.append(arr.reshape(-1))
    with open(os.path.join(path, "params.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, "params": manifest}, fh, indent=2)
    np.concatenate(blobs).tofile(os.path.join(path, "params.bin"))


def load_params(path: str) -> ParamStore:
    with open(os.path.join(path, "params.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    raw = np.fromfile(os.path.join(path, "params.bin"), dtype="<f4")
    store = ParamStore()
    for entry in doc["params"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        arr = raw[entry["offset"] : entry["offset"] + size].reshape(entry["shape"])
        store.add(entry["name"], arr.astype(np.float64), entry["trainable"], entry["decay"])
    return store


def quantize_store(store: ParamStore) -> None:
    """Round parameters through float32 so checkpoints round trip bit-exactly."""
    for _, p in store.items():
        p.data[...] = p.data.astype("<f4").astype(np.float64)
