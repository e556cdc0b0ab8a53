#!/usr/bin/env python3
"""Train a desk-scale predictive beamformer and compare mean sum rate against
classical references: MRT on outdated CSI, zero-forcing on outdated CSI, and
WMMSE on perfect future CSI (upper reference)."""
import argparse
import json
import os

from leocsi.config import desk_scenario
from leocsi.dataset import build_dataset
from leocsi.evaluation import eval_sum_rate
from leocsi.models import Model, desk_model_config
from leocsi.training import TrainConfig, finetune_bf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/beamforming")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-count", type=int, default=4096)
    ap.add_argument("--test-count", type=int, default=100)
    ap.add_argument("--max-steps", type=int, default=1000)
    args = ap.parse_args()

    scen = desk_scenario()
    cfg = desk_model_config(head="bf", total_power=scen.total_power)
    _, train = build_dataset(scen, args.train_count, "train", cfg.t_p, cfg.t_f, seed=args.seed + 1)
    _, test = build_dataset(scen, args.test_count, "test", cfg.t_p, cfg.t_f, seed=args.seed + 2)

    model = Model(cfg, seed=args.seed)
    tc = TrainConfig(batch=64, epochs=100, lr=1e-3, weight_decay=0.0,
                     max_steps=args.max_steps, seed=args.seed, freeze="none",
                     noise_power=scen.noise_power)
    trace = finetune_bf(train, model, tc)
    print(f"trained {len(trace)} steps, loss {trace[0]:.4f} -> {trace[-1]:.4f}")

    summary = eval_sum_rate(model, test, scen.total_power, scen.noise_power)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sum_rates.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    for k, v in summary.items():
        print(f"{k}: {v:.4f} bits/s/Hz")


if __name__ == "__main__":
    main()
