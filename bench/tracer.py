"""Span tracer that wraps leocsi's public functions from outside the package.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every ``leocsi`` module namespace that holds it (so ``dataset``'s own
binding of ``generate_episode`` is wrapped too) and on the classes that own
the traced methods; ``uninstall()`` puts the originals back.  Autodiff ops
are looked up through ``leocsi.autodiff``'s module globals, so wrapping
those globals catches every op, including the ones reached through
``Tensor`` operator sugar.  The backward closure of every graph node an op
returns is wrapped as well, so each op gets a forward and a backward span.

Spans (name, start, end, parent) are kept in flat arrays while the run
lasts; ``aggregate()`` turns them into per-name call counts and self times,
a span's self time being its duration minus the time its direct children
cover.  Wrappers record only while ``enabled`` is true, so the benchmark
switches recording off around its own correctness checks.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

AUTODIFF_OPS = (
    "matmul", "add", "mul", "div", "neg", "power", "exp", "log", "sqrt",
    "tanh", "reshape", "transpose", "concat", "getitem", "tsum", "broadcast_to",
)

# (module, attribute path) of every traced callable besides the autodiff ops.
# A dotted attribute path names a method on a class.
TRACED = (
    ("channel", "generate_episode"),
    ("channel", "sample_device_params"),
    ("dataset", "build_dataset"),
    ("dataset", "add_estimation_noise"),
    ("dataset", "save_dataset"),
    ("dataset", "load_dataset"),
    ("autodiff", "Tensor.backward"),
    ("autodiff", "AdamW.step"),
    ("autodiff", "collect_grads"),
    ("autodiff", "ParamStore.leaves"),
    ("nn", "linear"),
    ("nn", "lora_linear"),
    ("nn", "attention"),
    ("nn", "patchify"),
    ("nn", "encoder_layer"),
    ("nn", "decoder_layer"),
    ("nn", "sinusoidal_pe"),
    ("models", "preprocess"),
    ("models", "temporal_encoding"),
    ("models", "encode_csi"),
    ("models", "backbone_forward"),
    ("models", "decode_csi_graph"),
    ("models", "decode_bf_graph"),
    ("models", "Model.predict_batch"),
    ("training", "nmse_loss_graph"),
    ("training", "bf_loss_graph"),
    ("beamform", "wmmse"),
    ("beamform", "zero_forcing"),
    ("beamform", "mrt"),
    ("beamform", "sum_rate"),
    ("evaluation", "ar_baseline"),
    ("evaluation", "persistence_baseline"),
    ("evaluation", "eval_nmse"),
    ("cli", "main"),
    ("cli", "write_manifest"),
)


def span_name(module: str, attr: str) -> str:
    """Span name of a traced callable: ``Tensor.backward`` is ``autodiff.backward``."""
    if attr == "Tensor.backward":
        return "autodiff.backward"
    if attr == "Model.predict_batch":
        return "models.predict_batch"
    return f"{module}.{attr}"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """Timing wrapper; ``on_result(result)`` runs after the span closes."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_op(self, op: str, fn):
        bwd = self.name_id(f"autodiff.{op}.bwd")

        def on_result(out):
            backward = out._backward
            if backward is None:
                return
            self.count("autodiff.nodes")

            def traced_backward(g):
                if not self.enabled:
                    return backward(g)
                idx = self._open(bwd)
                try:
                    backward(g)
                finally:
                    self._close(idx)

            out._backward = traced_backward

        return self.wrap(f"autodiff.{op}", fn, on_result)

    def _count_wmmse_iterations(self, result):
        _, trace = result
        self.count("beamform.wmmse.iterations", len(trace) - 1)

    # -- installing wrappers --------------------------------------------
    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "leocsi" or n.startswith("leocsi."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import every traced module first, so the scan below sees all bindings.
        for module in {module for module, _ in TRACED}:
            importlib.import_module(f"leocsi.{module}")
        modules = self._modules()
        targets = [("autodiff", op) for op in AUTODIFF_OPS] + list(TRACED)
        for module, attr in targets:
            owner = importlib.import_module(f"leocsi.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(span_name(module, attr), original))
                continue
            original = getattr(owner, attr)
            if module == "autodiff" and attr in AUTODIFF_OPS:
                wrapped = self._wrap_op(attr, original)
            elif (module, attr) == ("beamform", "wmmse"):
                wrapped = self.wrap(span_name(module, attr), original,
                                    self._count_wmmse_iterations)
            else:
                wrapped = self.wrap(span_name(module, attr), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        self.enabled = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` over every closed span."""
        n = len(self.starts)
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        if n == 0:
            return out
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=self_time, minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
        return out

    def save(self, path: str) -> None:
        """Write every span to ``path`` (numpy ``.npz``)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )
