"""Values of the per-layer metrics, and the end-to-end metric each should move.

The names and units of every metric are those of ``BENCHMARK.json`` at the
repository root; this module only knows how to read a per-layer metric's
value out of the tracer's spans and what it should move.  A name is
``<span>.<field>``: ``.calls`` and ``.self_s`` of a span, ``.fwd_s`` and
``.bwd_s`` of an autodiff op, or one of the counters.
"""
from __future__ import annotations

_GENERATE = "generate_samples_per_s (wall_s) on full-scale-data most, desk-study some"
_BACKWARD = ("train_*_samples_per_s and peak_rss_mb (wall_s) on desk-study; "
             "no change on online-predict")
_FORWARD = "train_*_samples_per_s on desk-study and infer_* on online-predict (wall_s of both)"
_MODELS = "infer_cp/bf/ar_p50_ms and infer_batch_samples_per_s (wall_s) on online-predict"
_EVAL = "eval_samples_per_s (wall_s) on full-scale-data"
_BEAMFORM = "beamform_slots_per_s (wall_s) on full-scale-data"

# span -> end-to-end metric it should move.  Autodiff ops not listed here
# move _BACKWARD through ``.bwd_s`` and _FORWARD through the other fields.
_MOVES = {
    "channel.generate_episode": _GENERATE,
    "channel.sample_device_params": _GENERATE,
    "dataset.build_dataset": _GENERATE,
    "dataset.add_estimation_noise": _GENERATE,
    "dataset.save_dataset": _GENERATE,
    "dataset.load_dataset": _GENERATE,
    "cli.main": "wall_s on full-scale-data",
    "cli.write_manifest": "generate_samples_per_s and eval_samples_per_s (wall_s) on full-scale-data",
    "autodiff.backward": _BACKWARD,
    "autodiff.AdamW.step": _BACKWARD,
    "autodiff.collect_grads": _BACKWARD,
    "autodiff.ParamStore.leaves": _BACKWARD,
    "nn.linear": _FORWARD,
    "nn.lora_linear": _FORWARD,
    "nn.attention": _FORWARD,
    "nn.patchify": _FORWARD,
    "nn.encoder_layer": _FORWARD,
    "nn.decoder_layer": _FORWARD,
    "nn.sinusoidal_pe": _FORWARD,
    "models.preprocess": _MODELS,
    "models.temporal_encoding": _MODELS,
    "models.encode_csi": _MODELS,
    "models.backbone_forward": _MODELS,
    "models.decode_csi_graph": _MODELS,
    "models.decode_bf_graph": _MODELS,
    "models.predict_batch": _MODELS,
    "training.nmse_loss_graph": "train_cp_samples_per_s (wall_s) on desk-study",
    "training.bf_loss_graph": "train_bf_samples_per_s (wall_s) on desk-study",
    "evaluation.ar_baseline": _EVAL,
    "evaluation.persistence_baseline": _EVAL,
    "evaluation.eval_nmse": _EVAL,
    "beamform.wmmse": _BEAMFORM,
    "beamform.zero_forcing": _BEAMFORM,
    "beamform.mrt": _BEAMFORM,
    "beamform.sum_rate": _BEAMFORM,
    "tracer": "none: traced wall_s minus untraced wall_s",
}

_COUNTERS = ("autodiff.nodes", "beamform.wmmse.iterations")


def should_move(name: str) -> str:
    """The end-to-end metric a per-layer metric should move, and on which workload."""
    span, field = name.rsplit(".", 1)
    if span in _MOVES:
        return _MOVES[span]
    if name == "autodiff.nodes" or span.startswith("autodiff."):
        return _BACKWARD if field == "bwd_s" else _FORWARD
    raise KeyError(f"no end-to-end metric recorded for {name}")


def layer_value(name: str, spans: dict, counters: dict, rounds: int, overhead_s: float) -> float:
    """Per-round value of one per-layer metric from aggregated spans.

    Counts and self times are divided by the number of traced rounds, so
    runs of different lengths report comparable figures.
    """
    if name == "tracer.overhead_s":
        return overhead_s
    if name in _COUNTERS:
        return counters.get(name, 0) / rounds
    span, field = name.rsplit(".", 1)
    if field == "bwd_s":
        span, field = f"{span}.bwd", "self_s"
    elif field == "fwd_s":
        field = "self_s"
    return spans[span][field] / rounds
