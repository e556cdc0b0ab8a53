"""End-to-end model pipeline: preprocessing, heads, decoding, persistence."""
import numpy as np
import pytest

from leocsi.autodiff import Tensor
from leocsi.models import (
    Model,
    ModelConfig,
    SIGMA_FLOOR,
    desk_model_config,
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
