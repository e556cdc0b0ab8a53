"""Shared fixtures.

Heavy artifacts (datasets, trained models) are session-scoped so the
acceptance suites and unit tests can share them; wall-clock timings of the
training fixtures are recorded for the budget assertions.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from leocsi.config import KMH_TO_MPS, desk_scenario
from leocsi.dataset import build_dataset
from leocsi.models import Model, desk_model_config
from leocsi.training import TrainConfig, finetune_bf, finetune_cp

TIMINGS: dict[str, float] = {}


def _timed(key):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            TIMINGS[key] = time.perf_counter() - self.t0

    return _Timer()


@pytest.fixture(scope="session")
def desk_scen():
    return desk_scenario()


@pytest.fixture(scope="session")
def desk_cfg():
    return desk_model_config()


@pytest.fixture(scope="session")
def small_train(desk_scen, desk_cfg):
    _, records = build_dataset(desk_scen, 64, "train", desk_cfg.t_p, desk_cfg.t_f, seed=1)
    return records


@pytest.fixture(scope="session")
def small_test(desk_scen, desk_cfg):
    _, records = build_dataset(desk_scen, 20, "test", desk_cfg.t_p, desk_cfg.t_f, seed=2)
    return records


# -- learning-suite artifacts (desk scale, seeded) ----------------------

LEARN_TC = TrainConfig(
    batch=64, epochs=100, lr=1e-3, weight_decay=0.0,
    max_steps=1000, seed=0, freeze="none",
)


@pytest.fixture(scope="session")
def learn_data(desk_scen, desk_cfg):
    with _timed("learn_data"):
        _, train = build_dataset(desk_scen, 4096, "train", desk_cfg.t_p, desk_cfg.t_f, seed=1)
        _, test = build_dataset(desk_scen, 50, "test", desk_cfg.t_p, desk_cfg.t_f, seed=2)
    return train, test


@pytest.fixture(scope="session")
def cp_learn(learn_data, desk_cfg):
    train, _ = learn_data
    model = Model(desk_cfg, seed=0)
    with _timed("cp_train"):
        trace = finetune_cp(train, model, LEARN_TC)
    return model, trace


@pytest.fixture(scope="session")
def bf_learn(learn_data, desk_scen):
    train, _ = learn_data
    cfg = desk_model_config(head="bf", total_power=desk_scen.total_power)
    model = Model(cfg, seed=0)
    tc = TrainConfig(
        batch=64, epochs=100, lr=1e-3, weight_decay=0.0,
        max_steps=1000, seed=0, freeze="none", noise_power=desk_scen.noise_power,
    )
    with _timed("bf_train"):
        trace = finetune_bf(train, model, tc)
    return model, trace


@pytest.fixture(scope="session")
def thirty_kmh(learn_data):
    _, test = learn_data
    subset = test[np.abs(test.speeds_mps[:, 0] - 30.0 * KMH_TO_MPS) < 1e-9]
    assert len(subset), "test split must contain 30 km/h samples"
    return subset
