"""End-to-end model pipeline: preprocessing, heads, decoding, persistence."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from leocsi import autodiff as ad
from leocsi import nn
from leocsi.autodiff import Tensor
from leocsi.models import (
    PE_PERIOD,
    Model,
    ModelConfig,
    SIGMA_FLOOR,
    desk_model_config,
    encode_csi,
    preprocess,
    temporal_encoding,
    to_complex,
)
from leocsi.training import expected_trainable_count

TINY = desk_model_config(
    t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1,
    heads=2, lora_rank=2,
)


def _random_past(cfg, seed=0, batch=2):
    rng = np.random.default_rng(seed)
    shape = (batch, cfg.t_p, cfg.num_devices, cfg.num_antennas)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_devices=3, patch=2)
    with pytest.raises(ValueError):
        ModelConfig(head="other")
    with pytest.raises(ValueError):
        ModelConfig(lora_rank=-1)


def test_preprocess_standardizes_per_sample():
    cfg = TINY
    past = _random_past(cfg, seed=1, batch=3) * np.array([1.0, 10.0, 0.1])[:, None, None, None]
    norm, stats = preprocess(past)
    assert norm.shape == (3, cfg.t_p, 2, cfg.num_devices, cfg.num_antennas)
    for i in range(3):
        flat = norm[i].reshape(-1)
        assert abs(flat.mean()) < 1e-12
        assert abs(flat.std() - 1.0) < 1e-9
    # Standardization is invertible with the returned statistics.
    rebuilt = norm * stats.sigma[:, None, None, None, None] + stats.mu[:, None, None, None, None]
    assert np.allclose(rebuilt, np.stack([past.real, past.imag], axis=2), atol=1e-12)


def test_preprocess_sigma_floor():
    cfg = TINY
    past = np.zeros((1, cfg.t_p, cfg.num_devices, cfg.num_antennas), dtype=complex)
    _, stats = preprocess(past)
    assert stats.sigma[0] == SIGMA_FLOOR


def test_preprocess_rejects_nonfinite():
    cfg = TINY
    past = _random_past(cfg)
    past[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        preprocess(past)


def test_csi_head_shapes_and_determinism():
    model = Model(TINY, seed=0)
    past = _random_past(TINY, seed=2)
    out = model.predict_batch(past)
    assert out.shape == (2, TINY.t_f, TINY.num_devices, TINY.num_antennas)
    assert np.iscomplexobj(out)
    again = Model(TINY, seed=0).predict_batch(past)
    assert np.array_equal(out, again)
    different = Model(TINY, seed=1).predict_batch(past)
    assert not np.array_equal(out, different)


@pytest.mark.parametrize("head", ["csi", "bf"])
def test_inference_builds_no_backward_graph(head, monkeypatch):
    cfg = desk_model_config(
        t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1,
        heads=2, lora_rank=2, head=head,
    )
    model = Model(cfg, seed=0)
    past = _random_past(cfg, seed=7)
    x_norm, stats = preprocess(past)
    graph = to_complex(model.forward_graph(model.params.leaves(), x_norm, stats).data)

    linked = []
    init = Tensor.__init__

    def counting_init(self, data, parents=(), backward=None, requires_grad=False):
        init(self, data, parents, backward, requires_grad)
        if self._parents or self.requires_grad:
            linked.append(self)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    out = model.predict_batch(past)
    assert linked == []
    assert np.array_equal(out, graph)


def test_bf_head_unit_power_per_slot():
    cfg = desk_model_config(
        t_p=4, t_f=3, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1,
        heads=2, head="bf", total_power=2.5,
    )
    model = Model(cfg, seed=0)
    w = model.predict_batch(_random_past(cfg, seed=3))
    power = np.sum(np.abs(w) ** 2, axis=(2, 3))  # [B, t_f]
    assert np.allclose(power, 2.5, atol=1e-12)


def test_temporal_encoding_shape_and_offset():
    enc0 = temporal_encoding(TINY, 0)
    enc5 = temporal_encoding(TINY, 5)
    assert enc0.shape == (TINY.t_p, TINY.d_llm)
    assert not np.array_equal(enc0, enc5)
    # One vectorised call equals the per-slot encodings bit for bit.
    cfg = ModelConfig()
    for origin in (0, 5, PE_PERIOD - 3):
        rows = [nn.sinusoidal_pe((origin + t) % PE_PERIOD, cfg.d_llm) for t in range(cfg.t_p)]
        assert np.array_equal(temporal_encoding(cfg, origin), np.stack(rows))


def test_non_finite_prediction_raises():
    # Finite but huge: standardization overflows, without a numpy warning.
    # Its sigma is inf, so both heads would see an all-zero input; the
    # statistics check stops them before the forward pass.
    cfg = replace(TINY, head="bf")
    csi, bf = Model(TINY, seed=0), Model(cfg, seed=0)
    past = _random_past(TINY, seed=4) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            csi.predict_batch(past)
        with pytest.raises(FloatingPointError):
            csi.predict(past[0])
        with pytest.raises(FloatingPointError):
            bf.predict_batch(past)


def test_to_complex_round_trip():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    real = np.stack([z.real, z.imag], axis=1)  # [2, 2, 3, 4]
    assert np.array_equal(to_complex(real), z)


def test_save_load_round_trip(tmp_path):
    model = Model(TINY, seed=4)
    past = _random_past(TINY, seed=5)
    model.save(str(tmp_path / "m"))  # quantizes to the on-disk precision
    before = model.predict_batch(past)
    loaded = Model.load(str(tmp_path / "m"))
    assert loaded.cfg == model.cfg
    assert np.array_equal(loaded.predict_batch(past), before)


@pytest.mark.parametrize("layers", [0, 1, 2])
def test_encode_csi_reads_token_zero_of_the_full_encoder(layers, monkeypatch):
    cfg = replace(TINY, encoder_layers=layers)
    model = Model(cfg, seed=3)
    images = Tensor(preprocess(_random_past(cfg, seed=9))[0])
    emb = encode_csi(model.params.leaves(), cfg, images).data
    full_layer = nn.encoder_layer
    monkeypatch.setattr(nn, "encoder_layer",
                        lambda leaves, prefix, x, heads, readout=False:
                        full_layer(leaves, prefix, x, heads))
    ref = encode_csi(model.params.leaves(), cfg, images).data
    np.testing.assert_allclose(emb, ref, rtol=1e-12, atol=1e-12)


def test_checkpoint_with_a_key_bias_loads_and_predicts(tmp_path):
    # Checkpoints from before K lost its bias carry "*.attn.k.b". Softmax is
    # shift-invariant, so that bias never changed a prediction; it is ignored.
    model = Model(TINY, seed=4)
    path = str(tmp_path / "m")
    model.save(path)
    past = _random_past(TINY, seed=5)
    expected = model.predict_batch(past)
    store = ad.load_params(path)
    rng = np.random.default_rng(6)
    for name in model.params.names():
        if name.endswith(".attn.k.w"):
            store.add(name[:-1] + "b", rng.standard_normal(store[name].data.shape[0]), decay=False)
    ad.save_params(path, store)
    loaded = Model.load(path)
    assert sum(n.endswith(".attn.k.b") for n in loaded.params.names()) == 2
    assert np.array_equal(loaded.predict_batch(past), expected)


def test_autoregressive_requirements():
    model = Model(TINY, seed=0)  # t_f=2
    with pytest.raises(ValueError):
        model.predict_autoregressive(_random_past(TINY)[0], 3)
    bf_cfg = desk_model_config(
        t_p=4, t_f=1, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1,
        heads=2, head="bf",
    )
    with pytest.raises(ValueError):
        Model(bf_cfg, seed=0).predict_autoregressive(_random_past(bf_cfg)[0], 2)


def test_autoregressive_counts_backbone_calls():
    cfg = desk_model_config(
        t_p=4, t_f=1, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1, heads=2,
    )
    model = Model(cfg, seed=0)
    past = _random_past(cfg, seed=6)[0]
    model.backbone_calls = 0
    out = model.predict_autoregressive(past, 4)
    assert out.shape == (4, cfg.num_devices, cfg.num_antennas)
    assert model.backbone_calls == 4


def test_trainable_counts_match_closed_form():
    for rank in (0, 2, 8):
        cfg = desk_model_config(lora_rank=rank)
        model = Model(cfg, seed=0)
        model.params.freeze("backbone.")
        assert model.params.num_params(trainable_only=True) == expected_trainable_count(
            cfg, model.params
        )
