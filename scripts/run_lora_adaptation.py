#!/usr/bin/env python3
"""Cross-speed adaptation study: pretrain a backbone on 10-50 km/h devices,
freeze it, then fine-tune to 60-100 km/h with and without LoRA adapters and
compare test NMSE on the shifted distribution."""
import argparse
import json
import os

from leocsi.config import KMH_TO_MPS, desk_scenario
from leocsi.dataset import build_dataset
from leocsi.evaluation import eval_nmse
from leocsi.models import desk_model_config
from leocsi.training import (
    TrainConfig,
    build_finetune_model,
    finetune_cp,
    pretrain_backbone,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/lora")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-count", type=int, default=4096)
    ap.add_argument("--pretrain-steps", type=int, default=1000)
    ap.add_argument("--adapt-steps", type=int, default=600)
    ap.add_argument("--ranks", type=int, nargs="+", default=[0, 8])
    args = ap.parse_args()

    lo = desk_scenario(device_speed_range_mps=(10 * KMH_TO_MPS, 50 * KMH_TO_MPS))
    hi = desk_scenario(device_speed_range_mps=(60 * KMH_TO_MPS, 100 * KMH_TO_MPS))
    base_cfg = desk_model_config()
    _, pre_train = build_dataset(lo, args.train_count, "train", base_cfg.t_p, base_cfg.t_f,
                                 seed=args.seed + 11)
    _, ad_train = build_dataset(hi, args.train_count, "train", base_cfg.t_p, base_cfg.t_f,
                                seed=args.seed + 12)
    _, test = build_dataset(hi, 200, "test", base_cfg.t_p, base_cfg.t_f, seed=args.seed + 13)
    test_hi = test[test.speeds_mps[:, 0] >= 60 * KMH_TO_MPS - 1e-9]

    tc_pre = TrainConfig(batch=64, epochs=100, lr=1e-3, weight_decay=0.0,
                         max_steps=args.pretrain_steps, seed=args.seed)
    store, trace = pretrain_backbone(pre_train, base_cfg, tc_pre, seed=args.seed)
    print(f"pretrained {len(trace)} steps, loss {trace[0]:.4f} -> {trace[-1]:.4f}")

    tc_ad = TrainConfig(batch=64, epochs=100, lr=3e-4, weight_decay=0.0,
                        max_steps=args.adapt_steps, seed=args.seed)
    results = {}
    for rank in args.ranks:
        cfg = desk_model_config(lora_rank=rank)
        model = build_finetune_model(cfg, store, seed=args.seed + 1)
        # Parameter-efficient adaptation: only the head and the adapters move.
        model.params.freeze("encoder.")
        finetune_cp(ad_train, model, tc_ad)
        results[f"rank_{rank}"] = eval_nmse(lambda p, _tf: model.predict_batch(p), test_hi)
        print(f"rank {rank}: NMSE {results[f'rank_{rank}']:.3f} dB on 60-100 km/h")

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "adaptation.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)


if __name__ == "__main__":
    main()
