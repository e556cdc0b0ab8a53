#!/usr/bin/env python3
"""Train a desk-scale CSI predictor and sweep test NMSE over device speed.

Writes sweep.csv / sweep.json with the model against the persistence and
AR baselines, one NMSE point per discrete evaluation speed.
"""
import argparse
import os

from leocsi.config import desk_scenario
from leocsi.dataset import build_dataset
from leocsi.evaluation import BASELINES, velocity_sweep
from leocsi.models import Model, desk_model_config
from leocsi.training import TrainConfig, finetune_cp


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/velocity")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-count", type=int, default=4096)
    ap.add_argument("--test-count", type=int, default=200)
    ap.add_argument("--max-steps", type=int, default=1000)
    args = ap.parse_args()

    scen = desk_scenario()
    cfg = desk_model_config()
    _, train = build_dataset(scen, args.train_count, "train", cfg.t_p, cfg.t_f, seed=args.seed + 1)
    _, test = build_dataset(scen, args.test_count, "test", cfg.t_p, cfg.t_f, seed=args.seed + 2)

    model = Model(cfg, seed=args.seed)
    tc = TrainConfig(batch=64, epochs=100, lr=1e-3, weight_decay=0.0,
                     max_steps=args.max_steps, seed=args.seed, freeze="none")
    trace = finetune_cp(train, model, tc)
    print(f"trained {len(trace)} steps, loss {trace[0]:.4f} -> {trace[-1]:.4f}")

    predictors = {"model": lambda past, _tf: model.predict_batch(past), **BASELINES}
    result = velocity_sweep(predictors, test, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    result.write_csv(os.path.join(args.out, "sweep.csv"))
    result.write_json(os.path.join(args.out, "sweep.json"))
    for label, vals in sorted(result.values.items()):
        print(label, [round(v, 2) for v in vals])


if __name__ == "__main__":
    main()
