"""Command-line entry point for the simulation / training / evaluation pipeline.

Configs are JSON documents with sections ``scenario`` / ``model`` / ``train``
/ ``sweep``; unknown keys are rejected.  Every run writes its artifacts into
a fresh directory named by timestamp and seed, together with a
``manifest.json`` recording the package, Python and numpy versions, the
resolved configuration and content hashes of its inputs.  Exit codes:
0 success, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import autodiff as ad
from .config import ScenarioConfig, desk_scenario
from .dataset import (
    DatasetError,
    DimensionMismatchError,
    build_dataset,
    load_dataset,
    save_dataset,
)
from .evaluation import (
    BASELINES,
    eval_nmse,
    eval_sum_rate,
    snr_sweep,
    velocity_sweep,
)
from .models import Model, ModelConfig, desk_model_config, preprocess
from .training import (
    TrainConfig,
    build_finetune_model,
    finetune_bf,
    finetune_cp,
    nmse_loss_graph,
    pretrain_backbone,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _replace_section(base, section: dict, name: str):
    """``base`` with the keys of one config section applied and validated."""
    allowed = {f.name for f in dataclasses.fields(base)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{name}' section: {sorted(unknown)}")
    coerced = {
        k: tuple(v) if isinstance(v, list) else v for k, v in section.items()
    }
    try:
        return dataclasses.replace(base, **coerced)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{name}' section: {exc}") from exc


def load_run_config(path: str | None, overrides: list[str]) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "scenario": {}, "model": {}, "train": {}, "sweep": {}}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        unknown = set(loaded) - set(doc)
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        doc.update(loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects dotted.path=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2 or parts[0] not in ("scenario", "model", "train", "sweep"):
            raise ConfigError(f"--set path must be section.key, got {dotted!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        doc[parts[0]][parts[1]] = value
    return doc


DEFAULT_SNRS_DB = [0, 5, 10, 15, 20, 25, 30]
MAX_ABS_SNR_DB = 300.0  # far beyond any channel estimate; keeps 10^(snr/10) finite


def _sweep_snrs(section: dict) -> list:
    """The SNR points (dB) of a ``sweep`` section, checked."""
    unknown = set(section) - {"snrs_db"}
    if unknown:
        raise ConfigError(f"unknown keys in 'sweep' section: {sorted(unknown)}")
    snrs = section.get("snrs_db", DEFAULT_SNRS_DB)
    if not (isinstance(snrs, list) and snrs and all(
            type(v) in (int, float) and (abs(v) <= MAX_ABS_SNR_DB or v == float("inf"))
            for v in snrs)):
        raise ConfigError(f"sweep.snrs_db must be a non-empty list of numbers in "
                          f"[-{MAX_ABS_SNR_DB:g}, {MAX_ABS_SNR_DB:g}] dB, or Infinity (no noise)")
    return snrs


def resolve(doc: dict, desk: bool):
    """Scenario, model and train configs: the full or desk preset plus ``doc``.

    The ``sweep`` section is checked too; ``cmd_sweep`` reads it.
    """
    _sweep_snrs(doc["sweep"])
    if desk:
        scenario, model = desk_scenario(), desk_model_config()
    else:
        scenario, model = ScenarioConfig(), ModelConfig()
    return (
        _replace_section(scenario, doc["scenario"], "scenario"),
        _replace_section(model, doc["model"], "model"),
        _replace_section(TrainConfig(), doc["train"], "train"),
    )


def _check_split(meta, model_cfg: ModelConfig):
    """A training split must have the model's slot counts and CSI image size."""
    split = (meta.t_p, meta.t_f, meta.scenario.num_devices, meta.scenario.num_antennas)
    model = (model_cfg.t_p, model_cfg.t_f, model_cfg.num_devices, model_cfg.num_antennas)
    if split != model:
        raise DimensionMismatchError(
            f"dataset (t_p, t_f, K, N) = {split} does not match the model's {model}"
        )


def _load_checkpoint(load, path: str):
    """``load(path)``, with a malformed checkpoint reported as a data error."""
    try:
        return load(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"cannot load checkpoint {path}: {exc!r}") from exc


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_inputs(paths: list[str]) -> dict:
    hashes = {}
    for p in paths:
        if os.path.isdir(p):
            for root, _, files in os.walk(p):
                for f in sorted(files):
                    full = os.path.join(root, f)
                    hashes[os.path.relpath(full)] = _hash_file(full)
        elif os.path.isfile(p):
            hashes[p] = _hash_file(p)
    return hashes


def make_run_dir(out_root: str, seed: int) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(out_root, f"run-{stamp}-seed{seed}")
    suffix = 0
    while os.path.exists(path):
        suffix += 1
        path = os.path.join(out_root, f"run-{stamp}-seed{seed}-{suffix}")
    os.makedirs(path)
    return path


def write_manifest(run_dir: str, doc: dict, inputs: list[str]):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "versions": {"leocsi": __version__, "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "resolved_config": doc,
        "input_hashes": _hash_inputs(inputs),
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


# -- subcommands --------------------------------------------------------

def cmd_generate(args, doc):
    scenario, model_cfg, _ = resolve(doc, args.desk)
    if args.train_count < 1 or args.test_count < 1:
        raise ConfigError("--train-count and --test-count must be >= 1")
    try:
        splits = {
            split: build_dataset(scenario, count, split=split,
                                 t_p=model_cfg.t_p, t_f=model_cfg.t_f, seed=args.seed)
            for split, count in (("train", args.train_count), ("test", args.test_count))
        }
    except (FloatingPointError, MemoryError) as exc:  # the configuration is generate's only input
        raise ConfigError(str(exc) or type(exc).__name__) from exc
    run_dir = make_run_dir(args.out, args.seed)
    for split, (meta, data) in splits.items():
        save_dataset(os.path.join(run_dir, split), meta, data)
    write_manifest(run_dir, doc, [args.config] if args.config else [])
    print(f"wrote {args.train_count}+{args.test_count} samples under {run_dir}")
    return 0


def cmd_pretrain(args, doc):
    _, model_cfg, train_cfg = resolve(doc, args.desk)
    meta, data = load_dataset(args.dataset)
    _check_split(meta, model_cfg)
    store, trace = pretrain_backbone(data, model_cfg, train_cfg, seed=args.seed)
    run_dir = make_run_dir(args.out, args.seed)
    ad.save_params(os.path.join(run_dir, "backbone"), store)
    _write_trace(run_dir, trace)
    write_manifest(run_dir, doc, [args.dataset])
    print(f"pretrained backbone saved under {run_dir}; final loss {trace[-1]:.4f}")
    return 0


def _write_trace(run_dir: str, trace: list[float]):
    with open(os.path.join(run_dir, "loss_trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{v}\n")


def _cmd_train(args, doc, head: str):
    scenario, model_cfg, train_cfg = resolve(doc, args.desk)
    model_cfg = dataclasses.replace(model_cfg, head=head)
    meta, data = load_dataset(args.dataset)
    _check_split(meta, model_cfg)
    if args.backbone:
        pretrained = _load_checkpoint(ad.load_params, args.backbone)
        try:
            model = build_finetune_model(model_cfg, pretrained, seed=args.seed)
        except ValueError as exc:
            raise DimensionMismatchError(f"backbone {args.backbone}: {exc}") from exc
    else:
        model = Model(model_cfg, seed=args.seed)
    if head == "bf":
        train_cfg = dataclasses.replace(train_cfg, noise_power=scenario.noise_power)
        trace = finetune_bf(data, model, train_cfg)
    else:
        trace = finetune_cp(data, model, train_cfg)
    run_dir = make_run_dir(args.out, args.seed)
    model.save(os.path.join(run_dir, "model"))
    _write_trace(run_dir, trace)
    write_manifest(run_dir, doc, [args.dataset] + ([args.backbone] if args.backbone else []))
    print(f"trained {head} model saved under {run_dir}; final loss {trace[-1]:.4f}")
    return 0


def _baseline(name: str):
    if name not in BASELINES:
        raise ConfigError(f"unknown baseline {name!r}")
    return BASELINES[name]


def _clean_test_split(meta, data):
    """Rebuild a test split without estimation noise from its ``meta``.

    The rebuilt futures must equal the stored ones to float32 rounding, which
    shows that the split was generated from this scenario and seed.
    """
    if meta.split != "test":
        raise DatasetError(f"an SNR sweep needs a test split, got {meta.split!r}")
    _, clean = build_dataset(
        meta.scenario, meta.m, split="test", t_p=meta.t_p, t_f=meta.t_f,
        seed=meta.seed, test_snr_db=float("inf"),
    )
    if not np.allclose(data.future, clean.future, rtol=2.0**-22, atol=1e-12):
        raise DatasetError("test split does not match a clean rebuild from meta.json")
    return clean


def _eval_inputs(args, doc):
    """Checked config and baselines, the split, and ``--model`` if given."""
    resolve(doc, args.desk)
    baselines = {name: _baseline(name) for name in args.baseline}
    meta, data = load_dataset(args.dataset)
    model = _load_checkpoint(Model.load, args.model) if args.model else None
    if model is not None:
        _check_split(meta, model.cfg)
    return baselines, meta, data, model


def cmd_eval(args, doc):
    baselines, meta, data, model = _eval_inputs(args, doc)
    nmse, out = {}, {"t_f": data.t_f}
    if model is not None and model.cfg.head == "bf":
        scen = meta.scenario
        if scen.num_devices > scen.num_antennas:
            raise ConfigError("the zero-forcing reference needs num_devices <= num_antennas")
        out["sum_rate"] = eval_sum_rate(model, data, scen.total_power, scen.noise_power)
    elif model is not None:
        nmse["model"] = eval_nmse(lambda past, _tf: model.predict_batch(past), data)
    for name, baseline in baselines.items():
        nmse[name] = eval_nmse(baseline, data)
    run_dir = make_run_dir(args.out, args.seed)
    with open(os.path.join(run_dir, "eval.json"), "w", encoding="utf-8") as fh:
        json.dump({"nmse_db": nmse, **out}, fh, indent=2)
    write_manifest(run_dir, doc, [args.dataset])
    for label, value in nmse.items():
        shown = "floor(-inf)" if value == float("-inf") else f"{value:.3f}"
        print(f"{label}: NMSE {shown} dB")
    for label, value in out.get("sum_rate", {}).items():
        print(f"{label}: sum rate {value:.4f} bits/s/Hz")
    return 0


def cmd_sweep(args, doc):
    baselines, meta, data, model = _eval_inputs(args, doc)
    predictors = dict(baselines)
    if model is not None:
        if model.cfg.head != "csi":
            raise ConfigError(f"sweep scores CSI predictions; {args.model} has a "
                              f"{model.cfg.head!r} head")
        predictors = {"model": lambda past, _tf: model.predict_batch(past), **baselines}
    if not predictors:
        raise ConfigError("sweep needs at least one --model or --baseline")
    kind = args.kind
    if kind == "velocity":
        result = velocity_sweep(predictors, data, seed=args.seed)
    elif kind == "snr":
        snrs = _sweep_snrs(doc["sweep"])
        clean = _clean_test_split(meta, data)
        result = snr_sweep(predictors, clean, snrs, seed=args.seed)
    else:
        raise ConfigError(f"unsupported sweep kind {kind!r}")
    run_dir = make_run_dir(args.out, args.seed)
    result.write_csv(os.path.join(run_dir, "sweep.csv"))
    result.write_json(os.path.join(run_dir, "sweep.json"))
    write_manifest(run_dir, doc, [args.dataset])
    print(f"sweep results under {run_dir}")
    return 0


def cmd_grad_check(args, doc):
    cfg = desk_model_config(
        t_p=4, t_f=2, num_devices=2, num_antennas=4, d_enc=16, d_llm=16,
        encoder_layers=1, backbone_layers=1, heads=2, lora_rank=2,
    )
    rng = np.random.default_rng(args.seed)
    past = (
        rng.standard_normal((1, cfg.t_p, cfg.num_devices, cfg.num_antennas))
        + 1j * rng.standard_normal((1, cfg.t_p, cfg.num_devices, cfg.num_antennas))
    )
    future = (
        rng.standard_normal((1, cfg.t_f, cfg.num_devices, cfg.num_antennas))
        + 1j * rng.standard_normal((1, cfg.t_f, cfg.num_devices, cfg.num_antennas))
    )
    model = Model(cfg, seed=args.seed)
    x_norm, stats = preprocess(past)

    def f(leaves):
        pred = model.forward_graph(leaves, x_norm, stats)
        return nmse_loss_graph(pred, future)

    err = ad.grad_check(f, model.params, max_entries=3)
    print(f"max relative gradient error: {err:.3e}")
    if err >= 1e-4:
        print("gradient check FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leocsi")
    parser.add_argument("--config", help="JSON run config")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        help="override a config key, e.g. --set scenario.num_devices=4")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs", help="root directory for run outputs")
    parser.add_argument("--desk", action="store_true",
                        help="use the small CPU-scale scenario and model presets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate train+test datasets")
    p.add_argument("--train-count", type=int, default=9000)
    p.add_argument("--test-count", type=int, default=1000)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="pretrain and freeze a backbone")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-cp", help="fine-tune the CSI prediction model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--backbone", help="pretrained backbone checkpoint directory")
    p.set_defaults(func=lambda a, d: _cmd_train(a, d, "csi"))

    p = sub.add_parser("train-bf", help="fine-tune the predictive beamforming model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--backbone")
    p.set_defaults(func=lambda a, d: _cmd_train(a, d, "bf"))

    p = sub.add_parser("eval", help="evaluate a model and/or baselines")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model")
    p.add_argument("--baseline", action="append", default=[])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run an evaluation sweep")
    p.add_argument("--kind", required=True, choices=["velocity", "snr"])
    p.add_argument("--dataset", required=True)
    p.add_argument("--model")
    p.add_argument("--baseline", action="append", default=[])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grad-check", help="finite-difference check of the model gradients")
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = load_run_config(args.config, args.overrides)
        return args.func(args, doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
