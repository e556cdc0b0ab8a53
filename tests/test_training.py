"""Losses, freezing, optimizer plumbing, and short training runs."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from leocsi.beamform import sum_rate
from leocsi.config import desk_scenario
from leocsi.dataset import build_dataset
from leocsi.models import Model, desk_model_config, init_model_params, preprocess
from leocsi import training
from leocsi.training import (
    TrainConfig,
    backbone_checksum,
    bf_loss,
    bf_loss_graph,
    build_finetune_model,
    finetune_bf,
    finetune_cp,
    nmse_loss,
    nmse_loss_graph,
    pretrain_backbone,
)
from leocsi import autodiff as ad

TINY = desk_model_config(
    t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1,
    heads=2, lora_rank=2,
)


def _complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _split_real(z):
    return np.stack([z.real, z.imag], axis=2)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    with pytest.raises(ValueError):
        TrainConfig(freeze="half")
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError):
        TrainConfig(lr=1e300, weight_decay=1e300)


def test_nmse_loss_known_value():
    truth = np.ones((1, 2, 2, 2), dtype=complex)
    pred = np.zeros_like(truth)
    assert nmse_loss(pred, truth) == pytest.approx(1.0)
    assert nmse_loss(truth, truth) == 0.0


def test_nmse_loss_graph_agrees_with_numpy():
    truth = _complex((3, 2, 2, 4), seed=0)
    pred = _complex((3, 2, 2, 4), seed=1)
    graph = nmse_loss_graph(ad.constant(_split_real(pred)), truth)
    assert float(graph.data) == pytest.approx(nmse_loss(pred, truth), abs=1e-12)


def test_nmse_loss_rejects_zero_truth():
    with pytest.raises(ValueError):
        nmse_loss(np.zeros((1, 1, 1, 1), complex), np.zeros((1, 1, 1, 1), complex))


def test_bf_loss_graph_matches_independent_path():
    # The graph loss is validated against the plain-numpy beamform module.
    w = _complex((2, 3, 2, 4), seed=2)
    h = _complex((2, 3, 2, 4), seed=3)
    graph = bf_loss_graph(ad.constant(_split_real(w)), h, noise_power=0.1)
    assert float(graph.data) == pytest.approx(bf_loss(w, h, 0.1), abs=1e-9)


def test_bf_loss_is_negative_mean_sum_rate():
    w = _complex((2, 2, 2, 4), seed=4)
    h = _complex((2, 2, 2, 4), seed=5)
    rates = [
        sum_rate(h[i, t], w[i, t], 0.1) for i in range(2) for t in range(2)
    ]
    assert bf_loss(w, h, 0.1) == pytest.approx(-float(np.mean(rates)), abs=1e-12)


@pytest.fixture(scope="module")
def tiny_records():
    scen = desk_scenario()
    _, records = build_dataset(scen, 16, "train", TINY.t_p, TINY.t_f, seed=3)
    return records


def test_loss_decreases_on_short_run(tiny_records):
    model = Model(TINY, seed=0)
    tc = TrainConfig(batch=8, epochs=20, lr=1e-3, max_steps=40, freeze="none")
    trace = finetune_cp(tiny_records, model, tc)
    assert len(trace) == 40
    assert trace[-1] < trace[0]


def test_training_is_deterministic(tiny_records):
    tc = TrainConfig(batch=8, epochs=5, lr=1e-3, max_steps=10, freeze="none")
    t1 = finetune_cp(tiny_records, Model(TINY, seed=0), tc)
    t2 = finetune_cp(tiny_records, Model(TINY, seed=0), tc)
    assert t1 == t2


def test_frozen_backbone_unchanged(tiny_records):
    model = Model(TINY, seed=0)
    before = backbone_checksum(model.params)
    tc = TrainConfig(batch=8, epochs=2, lr=1e-2, max_steps=6, freeze="backbone")
    finetune_cp(tiny_records, model, tc)
    assert backbone_checksum(model.params) == before
    # LoRA and encoder/decoder weights did move.
    fresh = Model(TINY, seed=0)
    moved = [
        name for name in model.params.names()
        if not name.startswith("backbone.")
        and not np.array_equal(model.params[name].data, fresh.params[name].data)
    ]
    assert moved


def test_head_requirements(tiny_records):
    bf_cfg = desk_model_config(
        t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1,
        heads=2, head="bf",
    )
    with pytest.raises(ValueError):
        finetune_cp(tiny_records, Model(bf_cfg, seed=0), TrainConfig(max_steps=1))
    with pytest.raises(ValueError):
        finetune_bf(tiny_records, Model(TINY, seed=0), TrainConfig(max_steps=1))


def test_shape_mismatch_rejected():
    scen = desk_scenario()
    _, records = build_dataset(scen, 4, "train", 6, 2, seed=1)  # t_p=6 != 4
    with pytest.raises(ValueError):
        finetune_cp(records, Model(TINY, seed=0), TrainConfig(max_steps=1))


def test_pretrain_freezes_backbone(tiny_records):
    tc = TrainConfig(batch=8, epochs=2, lr=1e-3, max_steps=4)
    store, trace = pretrain_backbone(tiny_records, TINY, tc, seed=0)
    assert trace
    frozen = [n for n, p in store.items() if n.startswith("backbone.") and not p.trainable]
    assert frozen


def test_adopt_backbone_shape_check(tiny_records):
    tc = TrainConfig(batch=8, epochs=1, lr=1e-3, max_steps=2)
    store, _ = pretrain_backbone(tiny_records, TINY, tc, seed=0)
    model = build_finetune_model(TINY, store, seed=1)
    for name in model.params.names():
        if name.startswith("backbone."):
            assert np.array_equal(model.params[name].data, store[name].data)
            assert not model.params[name].trainable
    other = desk_model_config(
        t_p=4, t_f=2, d_enc=16, d_llm=32, encoder_layers=1, backbone_layers=1, heads=2,
    )
    with pytest.raises(ValueError):
        build_finetune_model(other, store, seed=0)


@pytest.mark.parametrize("layers", [0, 2])
def test_warm_start_needs_the_pretrained_layer_count(layers):
    # Pretrained with one backbone layer: a second layer would keep its
    # random draw frozen, and with none the trained layer would be dropped.
    store = init_model_params(replace(TINY, lora_rank=0), seed=0)
    with pytest.raises(ValueError, match="backbone.l"):
        build_finetune_model(replace(TINY, backbone_layers=layers), store, seed=1)


@pytest.mark.parametrize("damage", ["missing", "misshapen"])
def test_warm_start_needs_every_weight_of_the_layout(damage):
    store = init_model_params(replace(TINY, lora_rank=0), seed=0)
    kept = ad.ParamStore()
    for name, p in store.items():
        if name != "decoder.fc1.b":
            kept.add(name, p.data)
        elif damage == "misshapen":
            kept.add(name, p.data[:-1])
    with pytest.raises(ValueError, match="decoder.fc1.b"):
        build_finetune_model(TINY, kept, seed=1)


def test_warm_start_drops_a_legacy_key_bias():
    store = init_model_params(replace(TINY, lora_rank=0), seed=0)
    plain = build_finetune_model(TINY, store, seed=1)
    store.add("backbone.l0.attn.k.b", np.ones(TINY.d_llm))
    store.add("encoder.l0.attn.k.b", np.ones(TINY.d_enc))
    model = build_finetune_model(TINY, store, seed=1)
    assert model.params.names() == plain.params.names()
    for name, p in plain.params.items():
        assert np.array_equal(model.params[name].data, p.data)


def test_non_finite_step_stops_training(tiny_records):
    # A huge rate sends the weights to ~1e300 after the first step, so the
    # second step's loss overflows; training stops there, before updating.
    model = Model(TINY, seed=0)
    tc = TrainConfig(batch=8, epochs=2, lr=1e300, max_steps=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError, match="at step 1$"):
            finetune_cp(tiny_records, model, tc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert all(np.all(np.isfinite(p.data)) for _, p in model.params.items())


def test_training_step_precision_policy(tiny_records, monkeypatch):
    # float32 graph and gradients, float64 loss and master weights.
    seen = {}
    step, loss_graph = training.AdamW.step, training.nmse_loss_graph

    def spy_step(self, store, grads):
        seen["grads"] = {g.dtype for g in grads.values()}
        step(self, store, grads)

    def spy_loss(pred, truth):
        loss = loss_graph(pred, truth)
        seen["loss"] = loss.data.dtype
        return loss

    monkeypatch.setattr(training.AdamW, "step", spy_step)
    monkeypatch.setattr(training, "nmse_loss_graph", spy_loss)
    model = Model(TINY, seed=0)
    finetune_cp(tiny_records, model, TrainConfig(batch=8, max_steps=1, freeze="none"))
    assert seen == {"grads": {np.dtype(np.float32)}, "loss": np.dtype(np.float64)}
    assert {p.data.dtype for _, p in model.params.items()} == {np.dtype(np.float64)}


@pytest.mark.parametrize("head", ["csi", "bf"])
def test_float32_loss_matches_float64(tiny_records, head):
    model = Model(replace(TINY, head=head), seed=0)
    x_norm, stats = preprocess(tiny_records.past[:8])
    future = tiny_records.future[:8]
    losses = []
    for dtype in (None, training.TRAIN_DTYPE):
        pred = model.forward_graph(model.params.leaves(dtype), x_norm, stats)
        if head == "csi":
            losses.append(float(nmse_loss_graph(pred, future).data))
        else:
            losses.append(float(bf_loss_graph(pred, future, 0.1).data))
    assert losses[1] == pytest.approx(losses[0], rel=1e-6)
